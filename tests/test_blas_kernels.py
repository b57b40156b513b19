"""The pinned digests do not depend on the BLAS kernel numpy runs.

OpenBLAS built with ``DYNAMIC_ARCH`` picks its kernel per process from the
environment variable ``OPENBLAS_CORETYPE``, and its kernels sum dot products in
different orders.  The digest tests below are rerun in child processes under two
kernels other than the one this machine would pick; the variable is set in the
child's environment only.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent

# the digests over every float that run_cycles, run_j_jacobi, solve_factored and jsolve report
DIGEST_TESTS = [
    "tests/test_scalar_kernel.py::test_outputs_match_recorded_digest",
    "tests/test_cli.py::TestJsolveCommand::test_monitor_report_matches_recorded_digest",
    "tests/test_cli.py::TestJsolveCommand::test_factor_report_matches_recorded_digest",
    "tests/test_cli.py::TestJsolveCommand::test_no_convergence_says_why",
]


def _kernel_choice_unavailable():
    """Why ``OPENBLAS_CORETYPE`` cannot choose numpy's BLAS kernel here, or None if it can."""
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy < 1.26 has no mode=
        return f"numpy {np.__version__} does not report its BLAS build as a dict"
    blas = config.get("Build Dependencies", {}).get("blas", {})
    if "DYNAMIC_ARCH" not in blas.get("openblas configuration", ""):
        return f"numpy's BLAS ({blas.get('name', 'unknown')}) is not OpenBLAS with DYNAMIC_ARCH"
    return None


@pytest.mark.parametrize("coretype", ["Haswell", "Prescott"])
def test_digests_hold_under_other_openblas_kernels(coretype):
    reason = _kernel_choice_unavailable()
    if reason:
        pytest.skip(reason)
    env = dict(os.environ, OPENBLAS_CORETYPE=coretype, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *DIGEST_TESTS],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-1000:]
