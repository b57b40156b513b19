import csv
import dataclasses
import hashlib
import json
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

import cyclic_jacobi.classification as classmod
import cyclic_jacobi.cli as climod
import cyclic_jacobi.driver as drivermod
import cyclic_jacobi.jjacobi as jjacobimod
from cyclic_jacobi.classification import Bound, c0_orderings, classify, parallel_orderings
from cyclic_jacobi.cli import CSV_HEADER, _cell_rows, main, worker_count
from cyclic_jacobi.core import SymMatrix, _norm, format_matrix
from cyclic_jacobi.driver import FP_SLACK, verification_campaign
from cyclic_jacobi.jjacobi import ProofMonitorVerdict
from cyclic_jacobi.orderings import enumerate_orderings, parse_ordering
from oracles import exact_dot, gram


def write_rows(path, dense):
    """Write the rows of the 2-D array ``dense`` to ``path`` as repr floats, one row a line."""
    path.write_text("".join(" ".join(map(repr, row)) + "\n" for row in dense.tolist()))


@pytest.fixture
def spd_factor_file(tmp_path):
    path = tmp_path / "factor.txt"
    write_rows(path, drivermod.random_spd_factor(drivermod.default_rng(3)))
    return str(path)


@pytest.fixture
def diag_matrix_file(tmp_path):
    path = tmp_path / "diag.txt"
    path.write_text(format_matrix(SymMatrix.from_dense(np.diag([1.0, 2.0, 3.0, 4.0]))))
    return str(path)


@pytest.fixture
def spd_matrix_file(tmp_path):
    rng = np.random.default_rng(8)
    factor = rng.uniform(-1, 1, (4, 4))
    path = tmp_path / "spd.txt"
    path.write_text(format_matrix(SymMatrix.from_dense(gram(factor))))
    return str(path)


# sha256 of `cjacobi classify --all --format json`: every label, bound and
# certificate of the 720 orderings.
CLASSIFY_ALL_JSON_SHA256 = "dede1bd13359a123ffa406b4a1c2c5697b0a7831b18a88f4eec435e8a98761d6"

VERIFY_C0 = [
    "verify", "--seed", "201", "--samples", "20", "--orderings", "c0", "--bound", "both",
]
# sha256 of the stdout of VERIFY_C0: header and 240 rows.
VERIFY_C0_SHA256 = "af210e7291bc6a9a51f38c32fcdc5f9432971d1c2b0e1c1e677505d0ec64815f"
VERIFY_ALL = [
    "verify", "--seed", "201", "--samples", "200", "--orderings", "all", "--bound", "both",
]
# sha256 of the stdout of VERIFY_ALL: header and 1440 rows, both bounds of all 720 orderings.
VERIFY_ALL_SHA256 = "1a881162754e694c2718e16b079be270524cdf2a9fe94ab202597e7ded9ca88b"
# The stderr of VERIFY_ALL: the worst S^2 check values of the batch kernel over the campaign.
VERIFY_ALL_STDERR = (
    "S^2 checks: decrement identity 9.53e-16 (limit 1e-13), cycle growth 0 (limit 1e-14)\n"
)

# An unsorted ordering list with a blank line and a duplicate.
PAR = "1 2, 3 4, 1 3, 2 4, 1 4, 2 3"
COLUMN = "1 2, 1 3, 2 3, 1 4, 2 4, 3 4"
PAR2 = "1 4, 2 3, 1 3, 2 4, 1 2, 3 4"
VERIFY_LISTING = f"{PAR}\n{COLUMN}\n\n{PAR}\n{PAR2}\n"
# sha256 of the lines after the header comment (which names the list file) of
# `verify --seed 201 --samples 20 --orderings list FILE --bound both`.
VERIFY_LIST_ROWS_SHA256 = "5495e0eebff4ccdf60ca011af13ca5419b5110f99e300b8d94d6d33f1b582419"


# sha256 of the report of `cjacobi solve` on SOLVE_ARGS and of `cjacobi jsolve --A ... --monitor`
# on JSOLVE_MONITOR_ARGS: the two commands that read every step of their reports.
SOLVE_ARGS = ["--ordering", "1 2, 1 3, 2 3, 1 4, 2 4, 3 4", "--cycles", "4"]
SOLVE_REPORT_SHA256 = "e95f1844da5a86cce5900c1326dd3c2a48802433870d0554a82e3d0b45ad791b"
# and the stderr of that `cjacobi solve`: S shrinks by at least 76.8 % each cycle
SOLVE_STDERR = (
    "S^2 checks: decrement identity 4.67e-16 (limit 1e-13), cycle growth -0.768 (limit 1e-14)\n"
)
JSOLVE_MONITOR_ARGS = [
    "--J", "+1 +1 -1 -1", "--ordering", "1 3, 2 4, 1 4, 2 3, 1 2, 3 4", "--monitor", "0.05",
]
JSOLVE_MONITOR_REPORT_SHA256 = "b05ab34b535a737bd4ddfba1f628f4eb81fbb564d9e140371f3af6f1041552ca"
# sha256 of the report of `cjacobi jsolve --A spd_matrix_file --J "+1 +1 -1 -1"` with
# jjacobi.MAX_CYCLES = 1: one sweep, not converged
JSOLVE_UNCONVERGED_SHA256 = "669c9f916e92423704454311004bfe0dff504fb3a116a836466b93c5889f49ea"
# the same run through --L: the run fields of that report, and no eigenvalues
JSOLVE_L_UNCONVERGED_SHA256 = "d51797de372567d9860ef4fa8261e1db8485b802b2251816b18a582c2417b21f"
# and both runs on JSOLVE_MONITOR_ARGS, which add the monitor block
JSOLVE_MONITOR_UNCONVERGED_SHA256 = (
    "f84a02ab42594365d819fde31e1f2e46c08d9e2a97a1f50c68b52be4fe207adf"
)
JSOLVE_L_MONITOR_UNCONVERGED_SHA256 = (
    "1b3697c8b7c1613436373a9afe3884495ba3de9e6102961c1b10842be031ddf6"
)
# sha256 of the report of `cjacobi jsolve --L spd_factor_file --J "+1 +1 -1 -1"`: a
# converged run, with the eigenvalues, residual_norms and matrix_norm of H = L J L^T
JSOLVE_L_REPORT_SHA256 = "27ff6f7e664cb833dad334c5bda2e5ed01dbd716213ea14c87bf6f81e3b24603"


@pytest.fixture
def random_matrix_file(tmp_path):
    rng = np.random.default_rng(12)
    raw = rng.uniform(-1, 1, (4, 4))
    path = tmp_path / "m.txt"
    path.write_text(format_matrix(SymMatrix.from_dense((raw + raw.T) / 2)))
    return str(path)


class TestClassifyCommand:
    def test_all_json_matches_recorded_digest(self, tmp_path):
        out = tmp_path / "all.json"
        assert main(["classify", "--all", "--format", "json", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == CLASSIFY_ALL_JSON_SHA256

    def test_single_ordering_csv(self, capsys):
        code = main(["classify", "--ordering", "1 2, 1 3, 2 3, 1 4, 2 4, 3 4"])
        out = capsys.readouterr().out
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "ordering,label,d_or_shift,gamma,tau,t0"
        assert "SerialPerm(column)" in lines[1]

    def test_all_produces_720_rows(self, tmp_path):
        out = tmp_path / "all.csv"
        code = main(["classify", "--all", "--out", str(out)])
        assert code == 0
        rows = out.read_text().strip().splitlines()
        assert len(rows) == 721  # header + 720

    def test_csv_reads_back_with_csv_reader(self, tmp_path):
        out = tmp_path / "all.csv"
        assert main(["classify", "--all", "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["ordering", "label", "d_or_shift", "gamma", "tau", "t0"]
        assert len(rows) == 721
        assert all(len(row) == 6 for row in rows)
        orderings = [str(o) for o in enumerate_orderings(4)]
        assert [row[0] for row in rows[1:]] == orderings
        parallel = [row for row in rows[1:] if row[1].startswith("Parallel(")]
        assert len(parallel) == 96
        for row in parallel:
            assert row[1] in (f"Parallel(par, shift={row[2]})", f"Parallel(par2, shift={row[2]})")

    def test_single_parallel_row_has_six_fields(self, capsys):
        ordering = "1 2, 3 4, 1 3, 2 4, 1 4, 2 3"
        assert main(["classify", "--ordering", ordering]) == 0
        rows = list(csv.reader(capsys.readouterr().out.splitlines()))
        assert rows[1][:3] == [ordering, "Parallel(par, shift=2)", "2"]
        assert len(rows[1]) == 6

    def test_catalog_exits_zero(self, capsys):
        code = main(["classify", "--catalog"])
        out = capsys.readouterr().out
        assert code == 0
        assert "120" in out

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_format_beside_catalog_is_input_error(self, capsys, fmt):
        assert main(["classify", "--catalog", "--format", fmt]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "input error: --format does not apply to --catalog, which writes a text summary\n"
        )

    def test_json_includes_certificate(self, capsys):
        code = main(
            ["classify", "--ordering", "1 2, 3 4, 1 3, 2 4, 1 4, 2 3", "--format", "json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["label"] == "Parallel(par, shift=2)"
        assert payload[0]["certificate"][0].startswith("source:")

    @pytest.mark.parametrize(
        "modes, message",
        [
            ([], "one of the arguments --all --ordering --catalog is required"),
            (["--all", "--catalog"], "argument --catalog: not allowed with argument --all"),
            (["--catalog", "--ordering", "1 2, 1 3, 2 3, 1 4, 2 4, 3 4"], "not allowed with"),
        ],
    )
    def test_needs_exactly_one_mode(self, modes, message, capsys):
        assert main(["classify", *modes]) == 2
        assert message in capsys.readouterr().err

    def test_duplicate_pair_is_input_error(self, capsys):
        code = main(["classify", "--ordering", "1 2, 1 2, 2 3, 1 4, 2 4, 3 4"])
        assert code == 2
        assert "input error" in capsys.readouterr().err

    def test_catalog_failure_exits_one(self, monkeypatch, capsys):
        import cyclic_jacobi.cli as climod
        from cyclic_jacobi.classification import CatalogReport

        monkeypatch.setattr(
            climod, "verify_catalog",
            lambda: CatalogReport(["entry 1: synthetic failure"], {}),
        )
        code = main(["classify", "--catalog"])
        capsys.readouterr()
        assert code == 1


    @pytest.mark.parametrize("index, field, value, failure", [
        (17, 2, "O3", "entry 17: chain lands at 1 2, 1 3, 2 3, 1 4, 3 4, 2 4, not entry 3"),
        (105, 2, "par2", "entry 105: chain misses anchor par2"),
        (21, 2, "Cc", "entry 21: endpoint 3 4, 2 3, 2 4, 1 2, 1 3, 1 4 not in family Cc"),
        (2, 0, "12 13 23 14 24 34", "catalog orderings are not all distinct"),
    ], ids=["reference", "anchor", "serial family", "duplicate"])
    def test_corrupted_catalog_names_its_failure(self, capsys, index, field, value, failure):
        """One corrupted ``_CATALOG_SRC`` entry: its terminal tag, or its ordering (a copy of
        entry 1's)."""
        src = list(classmod._CATALOG_SRC)
        entry = list(src[index - 1])
        entry[field] = value
        src[index - 1] = tuple(entry)
        classmod.catalog.cache_clear()
        try:
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(classmod, "_CATALOG_SRC", src)
                code = main(["classify", "--catalog"])
        finally:
            classmod.catalog.cache_clear()
        out = capsys.readouterr().out
        assert code == 1
        assert f"\nFAIL: {failure}\n" in out
        assert out.endswith("\ncatalog verification FAILED\n")
        assert main(["classify", "--catalog"]) == 0


class TestSolveCommand:
    def test_diagonal_matrix_reports_zero_off_norm(self, diag_matrix_file, tmp_path):
        report = tmp_path / "run.json"
        code = main(
            [
                "solve",
                "--matrix", diag_matrix_file,
                "--ordering", "1 2, 1 3, 2 3, 1 4, 2 4, 3 4",
                "--cycles", "3",
                "--report", str(report),
            ]
        )
        assert code == 0
        payload = json.loads(report.read_text())
        assert all(v == 0.0 for v in payload["cycle_off_norms"])
        assert payload["final_diagonal"] == [1.0, 2.0, 3.0, 4.0]

    def test_report_matches_recorded_digest(self, random_matrix_file, tmp_path, capsys):
        report = tmp_path / "run.json"
        assert main(["solve", "--matrix", random_matrix_file, *SOLVE_ARGS,
                     "--report", str(report)]) == 0
        assert hashlib.sha256(report.read_bytes()).hexdigest() == SOLVE_REPORT_SHA256
        assert capsys.readouterr().err == SOLVE_STDERR

    def test_missing_file_is_input_error(self, tmp_path):
        code = main(
            [
                "solve",
                "--matrix", str(tmp_path / "nope.txt"),
                "--ordering", "1 2, 1 3, 2 3, 1 4, 2 4, 3 4",
                "--cycles", "1",
            ]
        )
        assert code == 2


class TestJsolveCommand:
    def test_identity_factor(self, tmp_path):
        report = tmp_path / "j.json"
        code = main(
            ["jsolve", "--L", "identity", "--J", "+1 +1 -1 -1", "--report", str(report)]
        )
        assert code == 0
        payload = json.loads(report.read_text())
        assert payload["eigenvalues"] == [1.0, 1.0, -1.0, -1.0]
        assert payload["converged"] is True

    def test_spd_matrix_with_monitor(self, spd_matrix_file, tmp_path):
        report = tmp_path / "j.json"
        code = main(
            [
                "jsolve",
                "--A", spd_matrix_file,
                "--J", "+1 +1 -1 -1",
                "--ordering", "1 3, 2 4, 1 4, 2 3, 1 2, 3 4",
                "--monitor", "0.05",
                "--report", str(report),
            ]
        )
        assert code == 0
        payload = json.loads(report.read_text())
        assert payload["monitor"]["cascade_ok"] is True
        assert len(payload["eigenvalues"]) == 4 and np.isfinite(payload["eigenvalues"]).all()
        assert "residual_norms" not in payload  # only --L writes residuals

    def test_monitor_report_matches_recorded_digest(self, spd_matrix_file, tmp_path):
        report = tmp_path / "j.json"
        assert main(["jsolve", "--A", spd_matrix_file, *JSOLVE_MONITOR_ARGS,
                     "--report", str(report)]) == 0
        assert hashlib.sha256(report.read_bytes()).hexdigest() == JSOLVE_MONITOR_REPORT_SHA256

    @pytest.mark.parametrize(
        "text, message",
        [("", "empty matrix text"), ("1 0 x 1\n", "bad matrix literal: could not convert")],
    )
    def test_bad_factor_file_is_input_error(self, tmp_path, capsys, text, message):
        factor = tmp_path / "factor.txt"
        factor.write_text(text)
        code = main(["jsolve", "--L", str(factor), "--J", "+1 +1 -1 -1"])
        assert code == 2
        assert f"input error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_factor_is_input_error(self, tmp_path, capsys, bad):
        factor = tmp_path / "factor.txt"
        factor.write_text(f"1 0 0 0\n0 {bad} 0 0\n0 0 1 0\n0 0 0 1\n")
        code = main(["jsolve", "--L", str(factor), "--J", "+1 +1 -1 -1"])
        assert code == 2
        assert "input error: factor entries must be finite" in capsys.readouterr().err

    def test_factor_whose_square_overflows_is_input_error(self, tmp_path, capsys):
        ell = drivermod.random_spd_factor(drivermod.default_rng(3)) * 1e160
        factor = tmp_path / "factor.txt"
        write_rows(factor, ell)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["jsolve", "--L", str(factor), "--J", "+1 +1 -1 -1"])
        assert code == 2
        err = capsys.readouterr().err
        assert "input error: factor too large" in err
        assert "Warning" not in err

    def test_huge_diagonal_factor_reports_strict_json(self, tmp_path, capsys):
        # F = 2**510 I passes solve_factored (S(F^T F) = 0), while the squares
        # of H = F J F^T, entries +-2**1020, overflow in an unscaled norm
        big = repr(2.0**510)
        factor = tmp_path / "factor.txt"
        factor.write_text("".join(
            " ".join(big if r == c else "0" for c in range(4)) + "\n" for r in range(4)
        ))

        def reject(constant):
            raise ValueError(f"not strict JSON: {constant}")

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["jsolve", "--L", str(factor), "--J", "+1 +1 -1 -1",
                         "--ordering", "1 3, 2 4, 1 4, 2 3, 1 2, 3 4"])
        assert code == 0
        out, err = capsys.readouterr()
        assert "Warning" not in err
        payload = json.loads(out, parse_constant=reject)
        assert payload["matrix_norm"] == 2.0**1021
        assert payload["residual_norms"] == [0.0] * 4

    def test_factor_report_matches_recorded_digest(self, spd_factor_file, tmp_path):
        report = tmp_path / "j.json"
        assert main(["jsolve", "--L", spd_factor_file, "--J", "+1 +1 -1 -1",
                     "--report", str(report)]) == 0
        assert hashlib.sha256(report.read_bytes()).hexdigest() == JSOLVE_L_REPORT_SHA256
        payload = json.loads(report.read_text())
        assert payload["converged"] is True
        assert all(r < 1e-12 * payload["matrix_norm"] for r in payload["residual_norms"])

    def test_factor_report_norms_are_exact(self, spd_factor_file, tmp_path):
        """Every entry of H = L J L^T and of H v - lambda v is the exactly rounded sum of its
        rounded products, and the report's norms are ``core._norm`` of those entries."""
        report = tmp_path / "j.json"
        assert main(["jsolve", "--L", spd_factor_file, "--J", "+1 +1 -1 -1",
                     "--report", str(report)]) == 0
        payload = json.loads(report.read_text())
        ell = np.loadtxt(spd_factor_file)
        eigenvalues, eigenvectors, _ = jjacobimod.solve_factored(
            ell, (1, 1, -1, -1), parse_ordering(COLUMN)
        )
        assert payload["eigenvalues"] == eigenvalues.tolist()
        rows = ell.tolist()
        h = [[exact_dot([x * s for x, s in zip(u, (1, 1, -1, -1))], v) for v in rows] for u in rows]
        assert payload["matrix_norm"] == _norm([x for h_r in h for x in h_r])
        residuals = [
            _norm([exact_dot([*h_r, -lam], [*v, v_r]) for h_r, v_r in zip(h, v)])
            for lam, v in zip(eigenvalues.tolist(), eigenvectors.T.tolist())
        ]
        assert payload["residual_norms"] == residuals

    def test_tiny_factor_reports_nonzero_residuals(self, tmp_path):
        # H = L J L^T has entries near 1e-150; its residuals, near 1e-166,
        # have squares that underflow in an unscaled norm
        ell = drivermod.random_spd_factor(drivermod.default_rng(5)) * 1e-75
        factor = tmp_path / "factor.txt"
        write_rows(factor, ell)
        report = tmp_path / "j.json"
        assert main(["jsolve", "--L", str(factor), "--J", "+1 +1 -1 -1",
                     "--report", str(report)]) == 0
        payload = json.loads(report.read_text())
        assert all(0.0 < r < 1e-10 * payload["matrix_norm"] for r in payload["residual_norms"])

    def test_underflowed_off_norm_is_solved(self, tmp_path):
        # A = L^T L has off-diagonal entries near 1e-200, whose squares underflow;
        # L scaled by 2^-332 scales H = L J L^T by exactly 2^-664
        unscaled = drivermod.random_spd_factor(drivermod.default_rng(3))
        factor = tmp_path / "factor.txt"
        write_rows(factor, unscaled * 2.0**-332)
        report = tmp_path / "j.json"
        code = main(["jsolve", "--L", str(factor), "--J", "+1 +1 -1 -1", "--ordering", PAR,
                     "--report", str(report)])
        assert code == 0
        payload = json.loads(report.read_text())
        assert payload["converged"] is True and payload["cycles_executed"] > 0
        j = np.diag([1.0, 1.0, -1.0, -1.0])
        oracle = np.sort(np.linalg.eigvalsh(unscaled @ j @ unscaled.T)) * 2.0**-664
        eigenvalues = np.sort(payload["eigenvalues"])
        assert np.max(np.abs(eigenvalues - oracle) / np.abs(oracle)) <= 1e-13

    @pytest.mark.parametrize("source", [["--L", "identity"], ["--A", None]])
    @pytest.mark.parametrize("tol", ["inf", "nan", "-1"])
    def test_tol_outside_zero_to_inf_is_input_error(self, spd_matrix_file, capsys, source, tol):
        source = [arg or spd_matrix_file for arg in source]
        code = main(["jsolve", *source, "--J", "+1 +1 -1 -1", "--tol", tol])
        assert code == 2
        assert "input error: tol must be finite and nonnegative" in capsys.readouterr().err

    def test_zero_tol_is_legal(self, spd_matrix_file, tmp_path):
        report = tmp_path / "j.json"
        code = main(["jsolve", "--A", spd_matrix_file, "--J", "+1 +1 -1 -1", "--tol", "0",
                     "--report", str(report)])
        assert code == 0
        payload = json.loads(report.read_text())
        assert payload["converged"] is True and payload["cycle_off_norms"][-1] == 0.0

    def test_breakdown_is_numeric_error(self, tmp_path):
        bad = tmp_path / "indefinite.txt"
        bad.write_text("1 2\n2 1\n")
        code = main(["jsolve", "--A", str(bad), "--J", "+1 -1", "--ordering", "1 2"])
        assert code == 3

    @pytest.mark.parametrize("source, args, off_norm, digest", [
        pytest.param("--A", ["--J", "+1 +1 -1 -1"], "2.224e-01", JSOLVE_UNCONVERGED_SHA256,
                     id="--A"),
        pytest.param("--L", ["--J", "+1 +1 -1 -1"], "2.224e-01", JSOLVE_L_UNCONVERGED_SHA256,
                     id="--L"),
        pytest.param("--A", JSOLVE_MONITOR_ARGS, "2.022e-01", JSOLVE_MONITOR_UNCONVERGED_SHA256,
                     id="--A-monitor"),
        pytest.param("--L", JSOLVE_MONITOR_ARGS, "2.022e-01", JSOLVE_L_MONITOR_UNCONVERGED_SHA256,
                     id="--L-monitor"),
    ])
    def test_no_convergence_says_why(self, spd_matrix_file, tmp_path, monkeypatch, capsys,
                                     source, args, off_norm, digest):
        """Both input paths write their report, then exit 3 and print why."""
        monkeypatch.setattr(jjacobimod, "MAX_CYCLES", 1)
        if source == "--A":
            path = spd_matrix_file
        else:  # the factor of spd_matrix_file, so both paths sweep the same A
            factor = np.random.default_rng(8).uniform(-1, 1, (4, 4))
            path = tmp_path / "factor.txt"
            write_rows(path, factor)
        report = tmp_path / "j.json"
        assert main(["jsolve", source, str(path), *args, "--report", str(report)]) == 3
        assert capsys.readouterr().err == (
            "numerical failure: no convergence within MAX_CYCLES = 1 cycles;"
            f" final off-norm {off_norm}\n"
        )
        assert hashlib.sha256(report.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("attained, code", [(True, 1), (False, 0)])
    def test_failed_cascade_exits_one_once_attained(self, spd_matrix_file, tmp_path, monkeypatch,
                                                    attained, code):
        verdict = ProofMonitorVerdict(
            0.05, 4, "13-24 first", 0 if attained else None, 2, attained, False,
            ["window 1: S(A^(12)) = 1e-01 >= 5e-02"] if attained else [],
        )
        monkeypatch.setattr(climod, "monitor_proof_bounds", lambda report, epsilon: verdict)
        report = tmp_path / "j.json"
        assert main(["jsolve", "--A", spd_matrix_file, *JSOLVE_MONITOR_ARGS,
                     "--report", str(report)]) == code
        monitor = json.loads(report.read_text())["monitor"]
        assert (monitor["attained"], monitor["cascade_ok"]) == (attained, False)
        assert monitor["failures"] == verdict.failures

    def test_monitor_on_serial_ordering_is_input_error(self, spd_matrix_file):
        code = main(
            [
                "jsolve",
                "--A", spd_matrix_file,
                "--J", "+1 +1 -1 -1",
                "--monitor", "0.05",
            ]
        )
        assert code == 2


class TestVerifyCommand:
    def test_serial_campaign_clean(self, tmp_path):
        out = tmp_path / "report.csv"
        code = main(
            [
                "verify",
                "--seed", "1",
                "--samples", "10",
                "--orderings", "serial",
                "--bound", "universal",
                "--out", str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[1] == CSV_HEADER
        assert len(lines) == 2 + 48
        assert all(line.endswith(",0") for line in lines[2:])

    def test_byte_identical_reports(self, tmp_path):
        args = [
            "verify", "--seed", "7", "--samples", "5",
            "--orderings", "parallel", "--bound", "both",
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_jobs_do_not_change_output(self, tmp_path):
        base = [
            "verify", "--seed", "3", "--samples", "5",
            "--orderings", "c0", "--bound", "classified",
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(base + ["--out", str(a), "--jobs", "1"]) == 0
        assert main(base + ["--out", str(b), "--jobs", "2"]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_ordering_list_file(self, tmp_path):
        listing = tmp_path / "orderings.txt"
        listing.write_text("1 2, 1 3, 2 3, 1 4, 2 4, 3 4\n1 2, 3 4, 1 3, 2 4, 1 4, 2 3\n")
        out = tmp_path / "r.csv"
        code = main(
            [
                "verify", "--seed", "2", "--samples", "5",
                "--orderings", "list", str(listing),
                "--bound", "classified", "--out", str(out),
            ]
        )
        assert code == 0
        assert len(out.read_text().splitlines()) == 4

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("args, digest, err", [
        (VERIFY_C0, VERIFY_C0_SHA256, None),
        (VERIFY_ALL, VERIFY_ALL_SHA256, VERIFY_ALL_STDERR),
    ], ids=["c0", "all"])
    def test_verify_report_matches_recorded_digest(self, capsys, args, digest, err, jobs):
        assert main(args + ["--jobs", jobs]) == 0
        captured = capsys.readouterr()
        assert hashlib.sha256(captured.out.encode()).hexdigest() == digest
        if err is not None:
            assert captured.err == err

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_list_rows_in_enumeration_order_with_duplicates(self, tmp_path, capsys, jobs):
        listing = tmp_path / "orderings.txt"
        listing.write_text(VERIFY_LISTING)
        args = [
            "verify", "--seed", "201", "--samples", "20",
            "--orderings", "list", str(listing), "--bound", "both", "--jobs", jobs,
        ]
        assert main(args) == 0
        lines = capsys.readouterr().out.splitlines(keepends=True)
        rows = "".join(lines[1:])
        assert hashlib.sha256(rows.encode()).hexdigest() == VERIFY_LIST_ROWS_SHA256
        orderings = [row[0] for row in csv.reader(lines[2:])]
        assert orderings == [COLUMN] * 2 + [PAR] * 4 + [PAR2] * 2

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_empty_ordering_list_is_input_error(self, tmp_path, capsys, jobs):
        listing = tmp_path / "orderings.txt"
        listing.write_text("\n")
        args = ["verify", "--seed", "1", "--samples", "3", "--orderings", "list", str(listing)]
        assert main(args + ["--jobs", jobs]) == 2
        captured = capsys.readouterr()
        assert captured.err == "input error: need at least one ordering\n"
        assert captured.out == ""

    def test_rows_are_the_library_campaign(self, capsys):
        assert main(VERIFY_C0 + ["--jobs", "1"]) == 0
        rows = capsys.readouterr().out.split("\n", 2)[2]
        report = verification_campaign(201, 20, sorted(c0_orderings(), key=lambda o: o.pairs))
        assert rows == _cell_rows(report.cells)

    @pytest.mark.parametrize(
        "selection",
        [["parallel", "serial"], ["all", "c0"], ["c0", "parallel"], ["serial", "extra"]],
    )
    def test_tokens_after_a_named_selection_are_input_error(self, capsys, selection):
        args = ["verify", "--seed", "1", "--samples", "2", "--orderings", *selection]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            f"input error: --orderings {selection[0]} takes no further tokens"
        )

    @pytest.mark.parametrize("selection, message", [
        (["list"], "--orderings list needs a file path"),
        (["bogus"], "unknown ordering selection ['bogus']"),
    ], ids=["list-without-path", "unknown"])
    def test_bad_ordering_selection_is_input_error(self, capsys, selection, message):
        assert main(["verify", "--seed", "1", "--samples", "2", "--orderings", *selection]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"input error: {message}\n"
        assert captured.out == ""

    def test_missing_seed_is_usage_error(self):
        assert main(["verify", "--samples", "5"]) == 2

    def test_parallel_labels_are_quoted(self, tmp_path):
        out = tmp_path / "report.csv"
        args = ["verify", "--seed", "4", "--samples", "3", "--orderings", "parallel"]
        assert main(args + ["--bound", "both", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        rows = list(csv.reader(lines[1:]))
        assert rows[0] == CSV_HEADER.split(",")
        assert len(rows) == 1 + 2 * 96
        assert all(len(row) == 7 for row in rows)
        assert lines[2].startswith('"1 2, 1 3, 2 4, 1 4, 2 3, 3 4","Parallel(par, shift=1)",')

    @pytest.mark.parametrize("ident, mono", [(2e-13, -0.5), (0.0, 2e-14)])
    def test_failed_s2_checks_exit_numeric(self, tmp_path, monkeypatch, capsys, ident, mono):
        base = [
            "verify", "--seed", "6", "--samples", "4",
            "--orderings", "serial", "--bound", "classified", "--jobs", "1",
        ]
        clean = tmp_path / "clean.csv"
        assert main(base + ["--out", str(clean)]) == 0
        assert "S^2 checks failed" not in capsys.readouterr().err
        campaign = drivermod.campaign_cells_for_ordering

        def broken(ordering, mats, modes):
            cells, _, _ = campaign(ordering, mats, modes)
            return cells, ident, mono

        monkeypatch.setattr(drivermod, "campaign_cells_for_ordering", broken)
        bad = tmp_path / "bad.csv"
        assert main(base + ["--out", str(bad)]) == 3
        assert "S^2 checks failed" in capsys.readouterr().err
        assert bad.read_bytes() == clean.read_bytes()

    def test_violated_bound_exits_one_and_names_every_cell(self, tmp_path, monkeypatch, capsys):
        """A bound of 0.5 for every parallel ordering, below what one sweep achieves."""
        def tight(ordering):
            return dataclasses.replace(classify(ordering), bound=Bound(0.5, 1, 0))

        monkeypatch.setattr(drivermod, "classify", tight)
        args = ["verify", "--seed", "1", "--samples", "20", "--orderings", "parallel",
                "--bound", "classified", "--jobs", "1", "--out", str(tmp_path / "v.csv")]
        assert main(args) == 1
        assert capsys.readouterr().err.endswith("\n128 bound violations beyond fp slack\n")
        orderings = sorted(parallel_orderings(), key=lambda o: o.pairs)
        report = verification_campaign(1, 20, orderings, ("classified",))
        violated = [c for c in report.cells if c.violations]
        assert report.total_violations == sum(c.violations for c in violated) == 128
        assert len(report.falsifications) == len(violated) > 0
        line = re.compile(r"classified bound violated (\d+)x for (.+) \(worst ratio (\S+) > (\S+)\)")
        for text, cell in zip(report.falsifications, violated):
            count, ordering, worst, limit = line.fullmatch(text).groups()
            assert (int(count), ordering) == (cell.violations, str(cell.ordering))
            assert float(worst) == cell.worst_ratio > float(limit) == 0.5 + FP_SLACK

    @pytest.mark.parametrize("jobs", ["0", "-4"])
    def test_bad_jobs_is_input_error(self, capsys, jobs):
        args = ["verify", "--seed", "1", "--samples", "2", "--orderings", "serial"]
        assert main(args + ["--jobs", jobs]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("input error: ")
        assert "--jobs" in captured.err
        assert captured.out == ""


    @pytest.mark.parametrize("seed", ["-1", "-201"])
    def test_negative_seed_is_input_error(self, capsys, seed):
        args = ["verify", "--seed", seed, "--samples", "2", "--orderings", "serial"]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.err == f"input error: --seed must be an integer >= 0, got {seed}\n"
        assert captured.out == ""


class TestWorkerCount:
    def test_clamped_to_cpus_and_tasks(self):
        assert worker_count(5000, 720, 2) == 2
        assert worker_count(5000, 3, 64) == 3
        assert worker_count(4, 720, 64) == 4

    def test_at_least_one(self):
        assert worker_count(0, 720, 8) == 1
        assert worker_count(-3, 720, 8) == 1
        assert worker_count(4, 0, 8) == 1

    def test_unknown_cpu_count_means_one(self):
        assert worker_count(8, 720, None) == 1


def test_solve_reports_are_byte_identical(random_matrix_file, tmp_path):
    args = ["solve", "--matrix", random_matrix_file, *SOLVE_ARGS]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(args + ["--report", str(a)]) == 0
    assert main(args + ["--report", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_module_entrypoint_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "cyclic_jacobi", "--version"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "cjacobi" in proc.stdout
