import json
import os
import subprocess
import sys
from pathlib import Path

import qdl
from qdl import InvariantError, cli


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "qdl.cli", *args],
                          capture_output=True, text=True)


def test_rho_subcommand():
    r = run_cli("rho", "--q", "17")
    assert r.returncode == 0
    assert json.loads(r.stdout)["rho"] == 65


def test_divisor_sum_subcommand(tmp_path):
    r = run_cli("divisor-sum", "--N", "2")
    assert r.returncode == 0
    assert json.loads(r.stdout)["sum"] == 12
    # the same report goes to --out as to stdout
    out = tmp_path / "sum.json"
    assert run_cli("--out", str(out), "divisor-sum", "--N", "2").returncode == 0
    assert out.read_text() == r.stdout


def test_usage_errors():
    assert run_cli("rho", "--q", "0").returncode == 1
    assert run_cli("no-such-command").returncode == 1
    assert run_cli("divisor-sum", "--N", "100000000000").returncode == 1
    r = run_cli("singular-series", "--method", "euler-product", "--prime-cutoff", "1")
    assert r.returncode == 1 and r.stderr.startswith("error:"), r.stderr
    # an explicit format the subcommand cannot print is refused, not ignored
    r = run_cli("--format", "tsv", "s1", "--q", "5")
    assert r.returncode == 1 and r.stdout == "" and "cannot print tsv" in r.stderr, r.stderr
    r = run_cli("--format", "json", "lambda", "--f", "-1", "-1", "0", "1")
    assert r.returncode == 1 and r.stdout == "" and "cannot print json" in r.stderr, r.stderr


def test_s1_subcommand_brute_fast():
    r = run_cli("s1", "--q", "5", "--a1", "1", "0", "0", "0",
                "--a2", "0", "1", "0", "0")
    assert r.returncode == 0
    rep = json.loads(r.stdout)
    assert rep["diff_unnormalized"] < 1e-8


def test_singular_series_euler_product_is_byte_stable():
    runs = [run_cli("singular-series", "--method", "euler-product", "--prime-cutoff", "1000")
            for _ in range(2)]
    assert [r.returncode for r in runs] == [0, 0]
    assert runs[0].stdout == runs[1].stdout
    assert set(json.loads(runs[0].stdout)["euler_product"]) == {
        "c_0", "c_0_error", "c_minus1", "c_minus1_error", "method", "prime_cutoff"}


def test_singular_series_fit_runs_at_its_own_q():
    r = run_cli("singular-series", "--method", "partial-sum-fit", "--prime-cutoff", "1000")
    assert r.returncode == 0, r.stderr
    rep = json.loads(r.stdout)
    assert rep["partial_sum_fit"]["Q"] == 400_000 and "euler_product" not in rep


def test_thm1_report_stdout_is_byte_stable():
    runs = [run_cli("thm1-report", "--N-grid", "10000", "100000", "1000000")
            for _ in range(2)]
    assert [r.returncode for r in runs] == [0, 0]
    assert runs[0].stdout == runs[1].stdout
    rep = json.loads(runs[0].stdout)
    assert set(rep) == {"constants", "grid", "slope", "slope_ci"}
    assert set(rep["constants"]) == {"euler", "kappa"}
    assert rep["constants"]["euler"]["prime_cutoff"] == 100_000


def test_json_determinism(tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    r1 = run_cli("--out", str(p1), "--seed", "7", "sigma-p", "--p", "5")
    r2 = run_cli("--out", str(p2), "--seed", "7", "sigma-p", "--p", "5")
    assert r1.returncode == r2.returncode == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_tsv_output():
    r = run_cli("--format", "tsv", "lambda", "--f", "-1", "-1", "0", "1", "--pmax", "20")
    assert r.returncode == 0
    lines = r.stdout.strip().splitlines()
    assert lines[0] == "p\tnum_roots\tlambda"
    assert all(len(line.split("\t")) == 3 for line in lines[1:])


def test_level_dist_subcommand():
    r = run_cli("level-dist", "--Q", "30", "--X", "50")
    assert r.returncode == 0
    rep = json.loads(r.stdout)
    assert "signed_sum" in rep and "absolute_sum" in rep


def test_delta2d_check_stdout_is_byte_stable():
    runs = [run_cli("delta2d-check", "--X", "100", "--D", "10", "--grid", "5")
            for _ in range(2)]
    assert [r.returncode for r in runs] == [0, 0]
    assert runs[0].stdout == runs[1].stdout
    assert set(json.loads(runs[0].stdout)) == {"D", "X", "max_error", "term_count"}


def test_verify_all_finds_the_suite_from_any_directory(tmp_path):
    """The acceptance suite path is resolved from the package location; the
    suite itself is not run."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(qdl.__file__)))
    suite = Path(__file__).with_name("test_acceptance.py")
    code = ("import os; from qdl import cli; "
            f"print(os.path.samefile(cli.ACCEPTANCE_TESTS, {str(suite)!r}))")
    r = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, capture_output=True,
                       text=True, env={**os.environ, "PYTHONPATH": src})
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "True"


def test_invariant_error_exits_2(monkeypatch):
    def broken(args):
        raise InvariantError("broken invariant")

    monkeypatch.setattr(cli, "dispatch", broken)
    assert cli.main(["rho", "--q", "5"]) == 2


def test_package_import_leaves_scipy_unloaded():
    """scipy's quadrature is imported by the functions that integrate, not at
    module load, so the arithmetic commands start without it."""
    code = (
        "import sys\n"
        "import qdl.experiments, qdl.singular, qdl.weights\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "[]"


def test_package_import_leaves_mpmath_unloaded():
    """mpmath is imported by the functions that evaluate L-values, not at
    module load, so only the commands that need those values pay for it."""
    code = (
        "import sys\n"
        "import qdl.cli, qdl.dedekind, qdl.experiments, qdl.expsums, qdl.singular\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'mpmath'))\n"
    )
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "[]"
