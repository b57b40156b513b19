import csv
import hashlib
import json
import subprocess
import sys

import numpy as np
import pytest

import cyclic_jacobi.cli as climod
import cyclic_jacobi.driver as drivermod
from cyclic_jacobi.classification import c0_orderings
from cyclic_jacobi.cli import CSV_HEADER, _cell_rows, main, worker_count
from cyclic_jacobi.core import SymMatrix, format_matrix
from cyclic_jacobi.driver import verification_campaign
from cyclic_jacobi.orderings import enumerate_orderings


@pytest.fixture
def diag_matrix_file(tmp_path):
    path = tmp_path / "diag.txt"
    path.write_text(format_matrix(SymMatrix.diag([1.0, 2.0, 3.0, 4.0])))
    return str(path)


@pytest.fixture
def spd_matrix_file(tmp_path):
    rng = np.random.default_rng(8)
    factor = rng.uniform(-1, 1, (4, 4))
    path = tmp_path / "spd.txt"
    path.write_text(format_matrix(SymMatrix.from_dense(factor.T @ factor)))
    return str(path)


# sha256 of `cjacobi classify --all --format json`: every label, bound and
# certificate of the 720 orderings.
CLASSIFY_ALL_JSON_SHA256 = "dede1bd13359a123ffa406b4a1c2c5697b0a7831b18a88f4eec435e8a98761d6"

VERIFY_C0 = [
    "verify", "--seed", "201", "--samples", "20", "--orderings", "c0", "--bound", "both",
]
# sha256 of the stdout of VERIFY_C0: header and 240 rows.
VERIFY_C0_SHA256 = "49d27842efcf3d818934bbd74c9e5244418204fc5b4a777b313d282a4b6cd7f2"

# An unsorted ordering list with a blank line and a duplicate.
PAR = "1 2, 3 4, 1 3, 2 4, 1 4, 2 3"
COLUMN = "1 2, 1 3, 2 3, 1 4, 2 4, 3 4"
PAR2 = "1 4, 2 3, 1 3, 2 4, 1 2, 3 4"
VERIFY_LISTING = f"{PAR}\n{COLUMN}\n\n{PAR}\n{PAR2}\n"
# sha256 of the lines after the header comment (which names the list file) of
# `verify --seed 201 --samples 20 --orderings list FILE --bound both`.
VERIFY_LIST_ROWS_SHA256 = "0a63f3205178ce2d51925b63bb7c4d1dc6b66fa40da7f71ed685c2a9453223b9"


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

    def test_json_includes_certificate(self, capsys):
        code = main(
            ["classify", "--ordering", "1 2, 3 4, 1 3, 2 4, 1 4, 2 3", "--format", "json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["label"] == "Parallel(par, shift=2)"
        assert payload[0]["certificate"][0].startswith("source:")

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
        assert payload["residual_norms"] if "residual_norms" in payload else True

    def test_breakdown_is_numeric_error(self, tmp_path):
        bad = tmp_path / "indefinite.txt"
        bad.write_text("1 2\n2 1\n")
        code = main(["jsolve", "--A", str(bad), "--J", "+1 -1", "--ordering", "1 2"])
        assert code == 3

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
    def test_c0_report_matches_recorded_digest(self, capsys, jobs):
        assert main(VERIFY_C0 + ["--jobs", jobs]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_C0_SHA256

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

    def test_rows_are_the_library_campaign(self, capsys):
        assert main(VERIFY_C0 + ["--jobs", "1"]) == 0
        rows = capsys.readouterr().out.split("\n", 2)[2]
        report = verification_campaign(201, 20, sorted(c0_orderings(), key=lambda o: o.pairs))
        assert rows == _cell_rows(report.cells)

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

    def test_jpl_jobs_env_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("JPL_JOBS", "2")
        out = tmp_path / "env.csv"
        base = [
            "verify", "--seed", "3", "--samples", "5",
            "--orderings", "serial", "--bound", "classified",
        ]
        assert main(base + ["--out", str(out)]) == 0
        monkeypatch.delenv("JPL_JOBS")
        ref = tmp_path / "ref.csv"
        assert main(base + ["--out", str(ref), "--jobs", "1"]) == 0
        assert out.read_bytes() == ref.read_bytes()

    @pytest.mark.parametrize(
        "jobs, env",
        [("0", None), ("-4", None), (None, "0"), (None, "-2"), (None, "two"), (None, "")],
    )
    def test_bad_jobs_is_input_error(self, monkeypatch, capsys, jobs, env):
        if env is None:
            monkeypatch.delenv("JPL_JOBS", raising=False)
        else:
            monkeypatch.setenv("JPL_JOBS", env)
        args = ["verify", "--seed", "1", "--samples", "2", "--orderings", "serial"]
        assert main(args + (["--jobs", jobs] if jobs else [])) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("input error: ")
        assert ("--jobs" if jobs else "JPL_JOBS") in captured.err
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


def test_solve_reports_are_byte_identical(tmp_path):
    rng = np.random.default_rng(12)
    raw = rng.uniform(-1, 1, (4, 4))
    matrix = tmp_path / "m.txt"
    matrix.write_text(format_matrix(SymMatrix.from_dense((raw + raw.T) / 2)))
    args = [
        "solve", "--matrix", str(matrix),
        "--ordering", "1 2, 1 3, 2 3, 1 4, 2 4, 3 4", "--cycles", "4",
    ]
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
