import csv
import dataclasses
import io
import json
import math
import sys
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import smoothdio.cli as cli
from smoothdio.cli import (
    EXIT_BAD_CONFIG,
    EXIT_BUDGET,
    EXIT_EMPTY,
    EXIT_OK,
    build_config,
    main,
    search_results,
)
from smoothdio.arith import inverse_mod, largest_prime_factor
from smoothdio.diophantine import (
    QuadIrr,
    build_target_set,
    cf_convergents,
    connection_bound,
    convergents,
    derive_params,
    dist_nearest,
    parse_alpha,
)
from smoothdio import diophantine, dispersion, expsums
from smoothdio.dispersion import bump_phi_array, sigma_qR
from smoothdio.errors import CapacityError
from smoothdio.expsums import _inverse_sum, kl_members
from smoothdio.smooth import SIEVE_CAPACITY, smooth_sieve


def run(tmp_path, args, name="out"):
    path = tmp_path / name
    code = main(args + ["--out", str(path)])
    return code, (path.read_text() if path.exists() else None)


def test_search_results_api():
    golden = QuadIrr(1, 1, 5, 2)
    results = list(search_results(golden, Fraction(1, 4), 2, 100, Y=float("inf")))
    assert [r.q for r in results] == [2, 3, 5, 8, 13, 21, 34, 55, 89]
    for r in results:
        assert len(r.n) > 0
        assert bool(r.within_bound.all())  # the connection bound is exact
        # flags are faithfully computed per member
        for i in range(len(r.n)):
            d = dist_nearest(int(r.n[i]), golden)
            assert d == pytest.approx(float(r.dist[i]), rel=1e-12)
            assert bool(r.below_power[i]) == (d < float(r.n_power[i]))
            assert math.gcd(int(r.n[i]), r.q) == 1


def test_search_cli_json(tmp_path):
    code, text = run(
        tmp_path,
        ["search", "--alpha", "quad:1,1,5,2", "--theta", "1/4", "--qmax", "30", "--Y", "inf"],
    )
    assert code == EXIT_OK
    doc = json.loads(text)
    assert doc["command"] == "search"
    assert all(row["within_bound"] for row in doc["rows"])
    qs = sorted({row["q"] for row in doc["rows"]})
    assert qs == [2, 3, 5, 8, 13, 21]


def window_rows(alpha, theta, qmin, qmax, Y=None):
    """(q, a, n, P⁺(n)) of every target-set member of each convergent with q
    in [qmin, qmax], by testing every n of its window [X/4, 4X]."""
    rows = []
    for conv in cf_convergents(alpha, 20):
        if qmin <= conv.q <= qmax:
            p = derive_params(conv.q, theta, Y=Y)
            r_top = min(math.floor(p.R), conv.q - 1)
            for n in range(math.ceil(p.X / 4), math.floor(4 * p.X) + 1):
                if math.gcd(n, conv.q) == 1 and 1 <= n * conv.a % conv.q <= r_top:
                    pplus = largest_prime_factor(n)
                    if pplus <= p.Y:
                        rows.append((conv.q, conv.a, n, pplus))
    return rows


# the shapes of the benchmark's search jobs: a vacuous-Y sweep over several
# convergents, and a finite Y (below √(4X) ≈ 157) at one q
@pytest.mark.parametrize("qmin, qmax, Y", [(89, 233, None), (233, 233, 50.0)])
def test_search_rows_match_a_window_scan(capsys, qmin, qmax, Y):
    argv = ["search", "--alpha", "quad:1,1,5,2", "--theta", "1/4", "--qmin", str(qmin), "--qmax", str(qmax),
            "--format", "csv"] + ([] if Y is None else ["--Y", repr(Y)])
    assert main(argv) == EXIT_OK
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert all(int(r["pplus"]) == largest_prime_factor(int(r["n"])) for r in rows)
    got = [tuple(int(r[k]) for k in ("q", "a", "n", "pplus")) for r in rows]
    assert got == window_rows(QuadIrr(1, 1, 5, 2), Fraction(1, 4), qmin, qmax, Y)


def test_search_cli_empty_range(tmp_path):
    # no golden-ratio convergent has q in [90, 100]
    code, text = run(
        tmp_path,
        ["search", "--alpha", "quad:1,1,5,2", "--theta", "1/4", "--qmin", "90", "--qmax", "100"],
    )
    assert code == EXIT_EMPTY
    assert json.loads(text)["rows"] == []


def test_cli_determinism(tmp_path):
    args = ["rho", "--u", "0.5,1,2,3,4.5", "--format", "csv"]
    _, a = run(tmp_path, args, "a.csv")
    _, b = run(tmp_path, args, "b.csv")
    assert a == b
    args = ["search", "--alpha", "quad:0,1,2,1", "--theta", "3/10", "--qmax", "300"]
    _, a = run(tmp_path, args, "a.json")
    _, b = run(tmp_path, args, "b.json")
    assert a == b


def test_rho_grid_values(tmp_path):
    code, text = run(tmp_path, ["rho", "--u", "0.5,1,2,3", "--format", "csv"], "r.csv")
    assert code == EXIT_OK
    lines = text.splitlines()
    assert lines[0] == "u,rho,tol"
    vals = [float(line.split(",")[1]) for line in lines[1:]]
    assert vals[0] == 1.0 and vals[1] == 1.0
    assert vals[2] == pytest.approx(0.306853, abs=1e-6)
    assert vals[3] == pytest.approx(0.048608, abs=1e-6)


def test_rho_benchmark_shape(tmp_path):
    # the sieve benchmark's rho job, with the checks its output must pass:
    # the closed form on [1, 3], non-increasing, and rho(u) <= 1/Gamma(u + 1)
    us = (1.25, 1.5, 1.75, 2.25, 2.5, 2.75, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 350.0, 495.0)
    args = ["rho", "--u", ",".join(map(repr, us)), "--tol", "1e-12", "--format", "json"]
    code, text = run(tmp_path, args, "r.json")
    assert code == EXIT_OK
    rows = json.loads(text)["rows"]
    assert [r["u"] for r in rows] == list(us)
    tol, prev = 1e-12, 1.0
    for r in rows:
        u, v = r["u"], r["rho"]
        assert 0.0 <= v <= prev + tol, u
        if u <= 2.0:
            assert abs(v - (1.0 - math.log(u))) <= tol, u
        elif u <= 3.0:
            w = (u - 1.0) / u  # Landen's identity: Li2(1 - u) from the series at w
            li2 = -sum(w**k / (k * k) for k in range(1, 200)) - 0.5 * math.log(u) ** 2
            closed = 1.0 - (1.0 - math.log(u - 1.0)) * math.log(u) + li2 + math.pi**2 / 12.0
            assert abs(v - closed) <= tol, u
        else:
            assert v <= math.exp(-math.lgamma(u + 1.0)) + tol, u
        prev = v


def test_psi_grid(tmp_path):
    code, text = run(tmp_path, ["psi", "--x", "100", "--y", "5", "--format", "csv"], "p.csv")
    assert code == EXIT_OK
    assert text.splitlines()[1] == "100.0,5.0,34"


def test_psi_past_the_old_sieve_cap(tmp_path):
    # 924573 is also the count of a depth-first enumeration of the 100-smooth n <= 1e8
    code, text = run(tmp_path, ["psi", "--x", "1e8", "--y", "100", "--format", "csv"], "p.csv")
    assert code == EXIT_OK
    assert text.splitlines()[1] == "100000000.0,100.0,924573"


def test_psi_refusals_write_nothing(tmp_path, capsys):
    # a budget too small for the last cell refuses the whole grid before the first byte
    out = tmp_path / "p.json"
    assert main(["psi", "--x", "100,1e8", "--y", "100", "--budget", "1000", "--out", str(out)]) == EXIT_BUDGET
    assert not out.exists()
    assert capsys.readouterr().err.startswith("error:")
    assert main(["psi", "--x", "1e30", "--y", "5", "--out", str(out)]) == EXIT_BUDGET  # beyond int64
    assert not out.exists()
    assert capsys.readouterr().err.startswith("error:")


def _peak_rss_mb(argv) -> float:
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    proc = subprocess.Popen([sys.executable, "-m", "smoothdio.cli", *argv], env=env,
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, so Popen must not think it still runs
    assert proc.returncode == EXIT_OK, argv
    return usage.ru_maxrss / 1024.0


def test_psi_grid_memory_stays_near_the_interpreter():
    # the benchmark's sieve-workload psi grid (seed 1): the leaf table and the
    # chunked frontier keep it within 12 MB of a trivial command's peak
    grid = ["psi", "--x", "287459,1437298,5749193", "--y", "8,59,816,5701,62966,182690", "--format", "json"]
    assert _peak_rss_mb(grid) - _peak_rss_mb(["rho", "--u", "1"]) <= 12.0


def test_alpha_grid(tmp_path):
    code, text = run(tmp_path, ["alpha", "--x", "4", "--y", "2"], "a.json")
    assert code == EXIT_OK
    row = json.loads(text)["rows"][0]
    assert row["alpha"] == pytest.approx(0.584963, abs=1e-6)


def test_kloosterman_cli(tmp_path):
    code, text = run(
        tmp_path,
        ["kloosterman", "--M", "5", "--x", "20", "--a", "3", "--q", "2", "--y", "7"],
    )
    assert code == EXIT_OK
    row = json.loads(text)["rows"][0]
    assert row["value"] > 0 and row["bound_rhs"] > 0


def test_dispersion_cli(tmp_path):
    code, text = run(
        tmp_path,
        [
            "dispersion",
            "--q", "101", "--a", "2", "--M", "15", "--N", "15", "--R", "20", "--Y", "5",
            "--theta", "1/3", "--report", "all",
        ],
    )
    assert code == EXIT_OK
    rows = json.loads(text)["rows"]
    assert [r["kind"] for r in rows] == ["type1", "type2", "sums", "bilinear", "sigma"]
    for r in rows:
        assert set(r) >= {"value", "main_term", "ratio", "truncation_error", "params", "runtime_ms"}
        assert r["runtime_ms"] == 0.0  # deterministic serialization
    t2 = next(r for r in rows if r["kind"] == "type2")
    assert t2["params"]["cauchy_schwarz"]["ok"]


def test_config_file_and_override(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("# settings\nx=100\ny=5\nformat=csv\n")
    code, text = run(tmp_path, ["psi", "--config", str(cfgfile)], "c1.csv")
    assert code == EXIT_OK
    assert text.splitlines()[1] == "100.0,5.0,34"
    # flag overrides the file
    code, text = run(tmp_path, ["psi", "--config", str(cfgfile), "--x", "10", "--y", "3"], "c2.csv")
    assert text.splitlines()[1] == "10.0,3.0,7"


def test_bad_config_exit_code(tmp_path):
    assert main(["search", "--theta", "1/4", "--qmax", "10"]) == EXIT_BAD_CONFIG  # no alpha
    assert main(["psi", "--x", "10", "--y", "5", "--format", "xml"]) == EXIT_BAD_CONFIG
    assert main(["search", "--alpha", "quad:1,1,5,2", "--theta", "2/5", "--qmax", "9"]) == EXIT_BAD_CONFIG
    bad = tmp_path / "bad.cfg"
    bad.write_text("nonsense line\n")
    assert main(["psi", "--config", str(bad), "--x", "1", "--y", "2"]) == EXIT_BAD_CONFIG


def test_budget_exit_code(tmp_path):
    code = main(
        ["kloosterman", "--M", "100", "--x", "200", "--a", "1", "--q", "1", "--y", "50",
         "--budget", "10", "--out", str(tmp_path / "x.json")]
    )
    assert code == EXIT_BUDGET


def test_csv_quoting(tmp_path):
    # json-bearing extra column must be RFC-quoted in csv output
    code, text = run(
        tmp_path,
        ["dispersion", "--q", "101", "--a", "2", "--M", "10", "--N", "10", "--R", "20",
         "--Y", "5", "--report", "sums", "--format", "csv"],
        "d.csv",
    )
    assert code == EXIT_OK
    import csv as _csv
    import io

    rows = list(_csv.reader(io.StringIO(text)))
    assert rows[0] == ["kind", "value", "main_term", "ratio", "truncation_error", "runtime_ms", "params"]
    assert rows[1][0] == "sums"
    json.loads(rows[1][6])  # params column survives the quoting round trip


def test_out_checked_before_compute(tmp_path, capsys):
    missing = tmp_path / "no-such-dir" / "x.json"
    # without the up-front check this search would compute for many seconds
    code = main(["search", "--alpha", "quad:1,1,5,2", "--theta", "1/4", "--qmax", "100000", "--out", str(missing)])
    assert code == EXIT_BAD_CONFIG
    assert capsys.readouterr().err.startswith("error:")
    assert not missing.parent.exists()
    assert main(["rho", "--u", "1", "--out", str(tmp_path)]) == EXIT_BAD_CONFIG  # a directory
    # an existing file is neither truncated by the check nor by a failed run
    keep = tmp_path / "keep.json"
    keep.write_text("old")
    assert main(["rho", "--u", "1", "--tol", "nan", "--out", str(keep)]) == EXIT_BAD_CONFIG
    assert keep.read_text() == "old"


def test_write_error_exit_code(tmp_path, monkeypatch, capsys):
    # an OSError raised while writing (here: the directory is gone by then)
    # is reported on one line, not as a traceback
    monkeypatch.setattr(cli, "_check_writable", lambda path: None)
    assert main(["rho", "--u", "1", "--out", str(tmp_path / "gone" / "r.json")]) == EXIT_BAD_CONFIG
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize(
    "args",
    [
        ["psi", "--x", "1e400", "--y", "10"],
        ["psi", "--x", "100", "--y", "nan"],
        ["rho", "--u", "1,-inf"],
        ["rho", "--u", "1", "--tol", "inf"],
        ["alpha", "--x", "100,nan", "--y", "5"],
        ["kloosterman", "--M", "5", "--x", "20", "--a", "3", "--q", "2", "--y", "7", "--eta", "1e400"],
        ["search", "--alpha", "quad:1,1,5,2", "--theta", "1/4", "--qmax", "30", "--C", "nan"],
        ["search", "--alpha", "quad:1,1,5,2", "--theta", "1/4", "--qmax", "30", "--Y", "1e400"],
        ["dispersion", "--q", "101", "--a", "2", "--M", "10", "--N", "inf", "--R", "20", "--Y", "5",
         "--report", "sums"],
        ["dispersion", "--q", "101", "--a", "2", "--M", "10", "--N", "10", "--R", "20", "--Y", "5",
         "--report", "sums", "--delta", "2"],
        ["search", "--alpha", "quad:1,1,5,2", "--theta", "1/0", "--qmax", "30"],
        ["dispersion", "--q", "101", "--a", "2", "--report", "sigma", "--theta", "1/0"],
        ["search", "--alpha", "dec:1/0:5", "--theta", "1/4", "--qmax", "30"],
        ["search", "--alpha", "dec:1.5:-5", "--theta", "1/4", "--qmax", "30"],
        # refused before 10^prec is formed: building it would not end
        ["search", "--alpha", "dec:1.5:99999999999", "--theta", "1/4", "--qmax", "30"],
        ["kloosterman", "--M", "5", "--x", "20", "--a", "3", "--q", "0", "--y", "7"],  # q must be >= 1
        ["kloosterman", "--M", "5", "--x", "20", "--a", "3", "--q", "2", "--y", "7,11"],  # a single --y
    ],
)
def test_bad_numeric_inputs_rejected(args, capsys):
    assert main(args) == EXIT_BAD_CONFIG
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("args, message", [
    (["rho", "--u", "1", "--budget", "0"], "budget must be positive"),
    (["dispersion", "--q", "101", "--a", "2", "--report", "type1"], "type1/type2/sums need --M, --N, --R, --Y"),
    (["dispersion", "--q", "101", "--a", "2", "--M", "2,3", "--N", "10", "--R", "20", "--Y", "5", "--report", "type1"],
     "dispersion takes a single --M"),
    (["psi", "--x", "-1", "--y", "3"], "x must be >= 0"),
    (["search", "--alpha", "quad:1,2", "--theta", "1/4", "--qmax", "30"], "bad quad spec 'quad:1,2'"),
    (["search", "--alpha", "dec:1.5", "--theta", "1/4", "--qmax", "30"], "bad dec spec 'dec:1.5'"),
])
def test_bad_config_names_its_cause(args, message, capsys):
    assert main(args) == EXIT_BAD_CONFIG
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"


def test_psi_below_y_1_counts_only_n_1(capsys):
    # Ψ(x, y) = 1 for 1 ≤ y < 2 (n = 1 alone) and 0 for y < 1
    assert main(["psi", "--x", "100", "--y", "1.5,0.5", "--format", "csv"]) == EXIT_OK
    assert capsys.readouterr().out.splitlines()[1:] == ["100.0,1.5,1", "100.0,0.5,0"]


def test_kloosterman_window_past_sieve_capacity_exits_3_with_nothing_written(capsys):
    assert main(["kloosterman", "--M", "10", "--x", "3e7", "--a", "1", "--q", "1", "--y", "100"]) == EXIT_BUDGET
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: interval length 29999999 exceeds sieve capacity 20000000\n"


def test_float_overflow_exit_code(capsys):
    # finite flags whose derived scales overflow a float are a capacity error
    assert main(["search", "--alpha", "quad:1,1,5,2", "--theta", "1/4", "--qmax", "20", "--C", "1e30"]) == EXIT_BUDGET
    assert capsys.readouterr().err.startswith("error:")


def test_search_refuses_over_budget_before_building_members(capsys):
    # the first convergent past ~1e7 must hold over 1e9 members; no member
    # array is built before the refusal
    t0 = time.perf_counter()
    code = main(["search", "--alpha", "quad:1,1,5,2", "--theta", "1/4", "--qmax", "1000000000000"])
    assert code == EXIT_BUDGET
    assert time.perf_counter() - t0 < 2.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


def test_kloosterman_refuses_moduli_over_capacity_before_any_work(capsys):
    # m runs to 2000002 > INVERSE_TABLE_CAPACITY; only 2e6 pairs, inside the budget
    t0 = time.perf_counter()
    code = main(["kloosterman", "--M", "1000001", "--x", "3", "--a", "1", "--q", "1", "--y", "2"])
    assert code == EXIT_BUDGET
    assert time.perf_counter() - t0 < 2.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


def test_kloosterman_many_moduli_completes(capsys):
    assert main(["kloosterman", "--M", "20000", "--x", "3", "--a", "1", "--q", "1", "--y", "2"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["rows"][0]["M"] == 20000.0


@pytest.mark.parametrize("y", ["5000", "1"])
def test_kloosterman_checks_z_before_any_sum(monkeypatch, capsys, y):
    # no z fits in [y, x) for y >= x or y < 2; the refusal comes before the 8 s sum
    def refuse(*args):
        raise AssertionError("kl_smooth_average ran before z was checked")

    monkeypatch.setattr(expsums, "kl_smooth_average", refuse)
    code = main(["kloosterman", "--M", "20000", "--x", "3003", "--a", "1", "--q", "1", "--y", y])
    assert code == EXIT_BAD_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


def test_kloosterman_checks_every_cells_budget_before_any_sum(monkeypatch, capsys):
    # 1287 members: 20 000 moduli × 1287 fit 1e8 pairs, the second cell's 200 000 × 1287 do not
    def refuse(*args):
        raise AssertionError("kl_smooth_average ran before every cell's budget was checked")

    sieved = []

    def count_members(x, q, y):
        sieved.append(x)
        return kl_members(x, q, y)

    monkeypatch.setattr(expsums, "kl_smooth_average", refuse)
    monkeypatch.setattr(expsums, "kl_members", count_members)
    code = main(["kloosterman", "--M", "20000,200000", "--x", "3003", "--a", "1", "--q", "1", "--y", "66",
                 "--budget", "100000000"])
    assert code == EXIT_BUDGET
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "budget" in captured.err
    assert sieved == [3003.0]  # both cells share one sieve


def test_kloosterman_checks_every_cells_modulus_cap_before_any_sum(monkeypatch, capsys):
    # the first cell's 3000 moduli fit; the second runs m to 3e6 > INVERSE_TABLE_CAPACITY
    def refuse(*args):
        raise AssertionError("kl_smooth_average ran before every cell's modulus cap was checked")

    monkeypatch.setattr(expsums, "kl_smooth_average", refuse)
    code = main(["kloosterman", "--M", "3000,1500000", "--x", "100000", "--a", "5", "--q", "7", "--y", "100",
                 "--budget", "1e13"])
    assert code == EXIT_BUDGET
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "modulus 3000000 exceeds inverse-table capacity" in captured.err


@pytest.mark.parametrize("report, message", [("all", "sigma needs --theta"), ("foo", "unknown report kind 'foo'")])
def test_dispersion_checks_every_kind_before_any_sum(monkeypatch, capsys, report, message):
    # `all` without --theta reaches sigma last; the refusal comes before type1, the first sum
    def refuse(*args):
        raise AssertionError("a report ran before every kind was checked")

    for name in ("type1_report", "type2_report", "sums_report", "bilinear_B", "sigma_qR"):
        monkeypatch.setattr(dispersion, name, refuse)
    code = main(["dispersion", "--q", "101", "--a", "2", "--M", "15", "--N", "15", "--R", "20", "--Y", "5",
                 "--report", report])
    assert code == EXIT_BAD_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


_SUMS_JOB = ["dispersion", "--q", "10946", "--a", "9149", "--M", "4438.0", "--N", "327.0", "--R", "265.188", "--Y",
             "1012", "--theta", "1/4", "--report", "all", "--format", "csv"]


def test_dispersion_charges_every_kind_before_any_sum(monkeypatch, capsys):
    # type1 would sum 1206 × 327 pairs, type2 then reads the φ window's 6655 × 327 = 2 176 185
    def refuse(*args):
        raise AssertionError("a report ran before every kind's pairs were checked")

    with monkeypatch.context() as patch:
        patch.setattr(dispersion, "type1_report", refuse)
        assert main(_SUMS_JOB + ["--budget", "1500000"]) == EXIT_BUDGET
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "6655 x 327 pair loop exceeds budget" in captured.err
    # the check charges what the inner sums charge: the largest window's pairs fit exactly
    assert main(_SUMS_JOB + ["--budget", "2176185"]) == EXIT_OK
    assert len(capsys.readouterr().out.splitlines()) == 6
    assert main(_SUMS_JOB + ["--budget", "2176184"]) == EXIT_BUDGET


def test_dispersion_refuses_residue_products_past_int64(capsys):
    # N = 1000: c_m·(n mod q) reaches (q − 1)·2000, below 2⁶³ at q = 4611686018427387 and past it two later
    args = ["dispersion", "--a", "2", "--M", "2", "--N", "1000", "--R", "3000", "--Y", "50", "--report", "sums"]
    assert main(args + ["--q", "4611686018427387"]) == EXIT_OK
    capsys.readouterr()
    assert main(args + ["--q", "4611686018427389"]) == EXIT_BUDGET
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: residue products up to 9223372036854776000 exceed int64\n"


def test_dispersion_refuses_a_residue_weight_table_over_capacity(monkeypatch, capsys):
    # R = 1e11 asks for ⌊3R/4⌋ + 2 weights (559 GiB as int64 residues), refused before the table is built
    def refuse(*args):
        raise AssertionError("the residue-weight table was built")

    monkeypatch.setattr(dispersion, "_residue_weights", refuse)
    code = main(["dispersion", "--q", "999999999989", "--a", "123456789011", "--M", "2", "--N", "1000", "--R", "1e11",
                 "--Y", "1e9", "--report", "type1"])
    assert code == EXIT_BUDGET
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: 75000000002 residue weights at q = 999999999989 exceed sieve capacity\n"


def _run_importtime(args):
    """(stdout, modules imported) of one `python -X importtime -m smoothdio.cli` run that exits 0."""
    import os
    import subprocess
    from pathlib import Path

    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "smoothdio.cli", *args], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == EXIT_OK
    loaded = {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines() if line.startswith("import time:")}
    return proc.stdout, loaded


def test_rho_imports_only_what_it_runs():
    out, loaded = _run_importtime(["rho", "--u", "1"])
    assert json.loads(out)["rows"] == [{"rho": 1.0, "tol": 1e-09, "u": 1.0}]
    assert "smoothdio.smooth" in loaded
    unused = {"smoothdio.diophantine", "smoothdio.dispersion", "smoothdio.expsums", "smoothdio.numfmt", "fractions"}
    assert not loaded & unused


def test_dispersion_all_never_imports_numpy_polynomial():
    # φ̂'s Gauss–Legendre rule is built inside the quadrature, which no command calls
    out, loaded = _run_importtime(["dispersion", "--q", "101", "--a", "2", "--M", "15", "--N", "15", "--R", "20",
                                   "--Y", "5", "--theta", "1/3", "--report", "all"])
    assert len(json.loads(out)["rows"]) == 5
    assert "smoothdio.dispersion" in loaded and "numpy.polynomial" not in loaded


def test_sigma_charges_the_budget_with_its_class_layout(capsys):
    # 1328 rows × 176 classes are sieved, out of a window of 23 508 244 integers
    args = ["dispersion", "--q", "17711", "--a", "1", "--theta", "1/4", "--Y", "1000", "--report", "sigma"]
    assert main(args + ["--budget", "233728"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["rows"][0]["value"] > 0
    assert main(args + ["--budget", "233727"]) == EXIT_BUDGET
    assert "1328 rows × 176 classes at q = 17711 exceed budget" in capsys.readouterr().err
    # with vacuous Y the residues in [⌊R/4⌋, ⌈3R/4⌉] are charged: R = 353.95…, so 88 … 266
    args[args.index("1000")] = "inf"
    assert main(args + ["--budget", "179"]) == EXIT_OK
    assert main(args + ["--budget", "178"]) == EXIT_BUDGET
    assert "179 residues at q = 17711 exceed budget" in capsys.readouterr().err


def test_search_member_floor_refuses_before_any_member_array(monkeypatch, capsys):
    # q = 2584 with vacuous Y: 1045 classes of at least 20 members each, against a budget of 1000
    def refuse(*args):
        raise AssertionError("a member array was built before the member floor was checked")

    monkeypatch.setattr(diophantine, "build_target_set", refuse)
    monkeypatch.setattr(diophantine, "_class_starts", refuse)
    code = main(["search", "--alpha", "quad:1,1,5,2", "--theta", "1/4", "--qmin", "2584", "--qmax", "2584",
                 "--budget", "1000"])
    assert code == EXIT_BUDGET
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: at least 20900 members at q = 2584 exceed budget\n"


@pytest.mark.parametrize("flag, value", [("--Y", "1"), ("--Y", "0.5"), ("--Y", "-3"), ("--C", "0"), ("--C", "-2")],
                         ids=["1", "0.5", "-3", "C0", "C-2"])
def test_sigma_main_term_vanishes_for_Y_at_most_1(capsys, flag, value):
    # c_eff = log Y / log log X ≤ 0: the main term is its limit 0 as c_eff → 0⁺, the ratio null.
    # C ≤ 0 gives the effective Y = (log X)^C ≤ 1 the same way.
    assert main(["dispersion", "--q", "13", "--a", "8", "--theta", "1/3", flag, value, "--report", "sigma"]) == EXIT_OK
    row = json.loads(capsys.readouterr().out)["rows"][0]
    assert (row["value"], row["main_term"], row["ratio"]) == (0.0, 0.0, None)


def test_search_member_floor_never_refuses_a_run_within_budget():
    # the smallest budget each sweep completes with is its largest target set
    args = ["search", "--alpha", "quad:1,1,5,2", "--theta", "1/4", "--qmax", "3000", "--Y", "inf", "--format", "csv"]
    sizes = [len(r.n) for r in search_results(QuadIrr(1, 1, 5, 2), Fraction(1, 4), 2, 3000, Y=float("inf"))]
    assert main(args + ["--budget", str(max(sizes))]) == EXIT_OK
    assert main(args + ["--budget", str(max(sizes) - 1)]) == EXIT_BUDGET


def test_search_finite_Y_bounds_the_class_layout_not_the_window(capsys):
    # the window [X/4, 4X] holds over 1e8 integers, its 172 classes mod q only 2365 rows
    args = ["search", "--alpha", "quad:1,1,5,2", "--theta", "1/4", "--qmin", "46368", "--qmax", "46368", "--Y", "1000",
            "--format", "csv"]
    p = derive_params(46368, Fraction(1, 4))
    assert math.floor(4 * p.X) - math.ceil(p.X / 4) + 1 > SIEVE_CAPACITY
    assert main(args) == EXIT_OK
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert len(rows) == 22124
    assert all(int(r["pplus"]) <= 1000 for r in rows)
    # q = 514229 is prime: 10017 rows × 2671 classes is past capacity, refused before any member
    args[6:9:2] = ["514229", "514229"]
    assert main(args) == EXIT_BUDGET
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "exceed sieve capacity" in captured.err


def test_search_vacuous_Y_layout_past_capacity_exits_3_without_building():
    # q = 2178309: 23818 rows × 3550 classes.  Its member lower bound is below the
    # default budget, but the layout is past the sieve capacity, so the search is
    # refused before any member array is built (several GB), here under a 1.5 GB
    # address-space limit.
    import os
    import resource
    import subprocess
    from pathlib import Path

    p = derive_params(2178309, Fraction(1, 4), Y=float("inf"))
    assert (math.floor(4 * p.X) - math.ceil(p.X / 4)) // p.q + 1 == 23818
    argv = ["search", "--alpha", "quad:1,1,5,2", "--theta", "1/4", "--qmin", "2178309", "--qmax", "2178309",
            "--Y", "inf", "--format", "csv"]
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-m", "smoothdio.cli", *argv], env=env, capture_output=True, text=True,
                          timeout=120, preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (1_500_000_000,) * 2))
    assert proc.returncode == EXIT_BUDGET
    assert proc.stdout == ""
    assert "23818 rows × 3550 classes" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_sigma_bounds_the_class_layout_not_the_window(capsys):
    # at q = 17711 the window [X/4, 4X] holds over 2e7 integers, its weighted classes 1328 rows × 176
    args = ["dispersion", "--q", "17711", "--a", "1", "--theta", "1/4", "--Y", "1000", "--report", "sigma"]
    p = derive_params(17711, Fraction(1, 4))
    assert math.floor(4 * p.X) - math.ceil(p.X / 4) + 1 > SIEVE_CAPACITY
    assert main(args) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["rows"][0]["value"] > 0
    # q = 1346269 is prime: 17845 rows × 2376 classes, past capacity, refused before any is built
    args[2] = "1346269"
    assert main(args + ["--budget", "100000000000"]) == EXIT_BUDGET
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "exceed sieve capacity" in captured.err


def _kl_oracle(M, x, a, q, y, budget, members):
    """kl_smooth_average with every n̄ from inverse_mod(ns, m), one modulus at a
    time, over the n's of its own sieve rather than the presieved members."""
    ns = np.flatnonzero(smooth_sieve(1, math.ceil(x) - 1, y, q)[0]) + 1
    ms = range(math.floor(M) + 1, math.floor(2 * M) + 1)
    return sum((math.hypot(*_inverse_sum(inverse_mod(ns, m), a, m)) for m in ms), 0.0)


def _sigma_oracle(q, a, theta, C, Y, budget):
    """sigma_qR with its value from math.fsum over every member of the whole window."""
    rep = sigma_qR(q, a, theta, C, Y, budget)
    pr = derive_params(q, theta, C, Y)
    lo = math.ceil(pr.X / 4)
    ns = np.flatnonzero(smooth_sieve(lo, math.floor(4 * pr.X), pr.Y, q)[0]) + lo
    value = math.fsum(bump_phi_array(((ns % q) * (a % q)) % q / pr.R).tolist())
    return dataclasses.replace(rep, value=value, ratio=value / rep.main_term)


@pytest.mark.parametrize("Y", ["inf", "7"])
def test_sigma_report_builds_its_window_once(monkeypatch, capsys, Y):
    # the budget check builds no residues: the report builds them once
    calls = []
    class_starts = diophantine._class_starts

    def counted(*args, **kwargs):
        calls.append(args)
        return class_starts(*args, **kwargs)

    monkeypatch.setattr(diophantine, "_class_starts", counted)
    argv = ["dispersion", "--q", "31", "--a", "12", "--theta", "1/4", "--Y", Y, "--report", "sigma"]
    assert main(argv) == EXIT_OK
    assert len(calls) == 1
    text = capsys.readouterr().out
    monkeypatch.undo()
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().out == text


def test_sums_bytes_match_the_oracle_paths(monkeypatch, capsys):
    # q = 237, a = 2, θ = 1/5, Y = 30: a pairwise np.sum of the member weights is 1 ulp above fsum
    argvs = [
        ["kloosterman", "--M", "40,61.5", "--x", "300,421", "--a", "-7", "--q", "6", "--y", "13"],
        ["dispersion", "--q", "237", "--a", "2", "--M", "20", "--N", "24", "--R", "38.3", "--Y", "30", "--theta", "1/5",
         "--report", "all"],
    ]
    texts = []
    for argv in argvs:
        assert main(argv) == EXIT_OK
        texts.append(capsys.readouterr().out)
    monkeypatch.setattr(expsums, "kl_smooth_average", _kl_oracle)
    monkeypatch.setattr(dispersion, "sigma_qR", _sigma_oracle)
    for argv, text in zip(argvs, texts):
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().out == text


def _scalar_search_text(alpha_spec, theta, qmin, qmax):
    """The csv bytes of `search` with every ‖nα‖ from the scalar dist_nearest."""
    alpha = parse_alpha(alpha_spec)
    rows = []
    for conv in convergents(alpha):
        if conv.q > qmax:
            break
        if conv.q < max(qmin, 2):
            continue
        p = derive_params(conv.q, theta)
        ns, pplus = build_target_set(p, conv.a)
        n_power = ns.astype(np.float64) ** (-float(theta))
        bound = connection_bound(p)
        for i, n in enumerate(ns.tolist()):
            dist = dist_nearest(n, alpha)
            rows.append({"q": conv.q, "a": conv.a, "X": p.X, "R": p.R, "Y": p.Y, "n": n, "dist": dist,
                         "n_power": float(n_power[i]), "pplus": int(pplus[i]), "within_bound": dist <= bound,
                         "below_power": bool(dist < n_power[i])})
    return _oracle_text("search", "csv", _SEARCH_COLS, rows)


def test_search_bytes_match_the_scalar_path(monkeypatch, capsys):
    """`search` never calls the scalar dist_nearest, and its bytes are those
    of the path that takes every ‖nα‖ from it."""
    cases = [
        # θ = 1/5 from q = 2: the golden convergents up to q = 144 cannot
        # certify every nearest integer and retry later convergents
        ("quad:1,1,5,2", Fraction(1, 5), 2, 400),
        ("quad:1,1,5,2", Fraction(1, 4), 2, 1000),
        ("dec:1.41421356237309504880168872421:30", Fraction(1, 4), 2, 500),
        ("quad:1000000000000000,7,13,3", Fraction(1, 4), 2, 1000),  # n·a past int64
    ]

    def forbidden(n, alpha):
        raise AssertionError("search called dist_nearest")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "smoothdio" and getattr(module, "dist_nearest", None) is dist_nearest:
            monkeypatch.setattr(module, "dist_nearest", forbidden)
    texts = []
    for spec, theta, qmin, qmax in cases:
        argv = ["search", "--alpha", spec, "--theta", str(theta), "--qmin", str(qmin), "--qmax", str(qmax)]
        assert main(argv + ["--format", "csv"]) == EXIT_OK
        texts.append(capsys.readouterr().out)
    monkeypatch.undo()
    for (spec, theta, qmin, qmax), text in zip(cases, texts):
        assert text == _scalar_search_text(spec, theta, qmin, qmax)
    rows = list(csv.DictReader(io.StringIO(texts[-1])))
    assert max(int(r["n"]) * int(r["a"]) for r in rows) >= 2**63


def decimal_walk_oracle(spec, qmax):
    """(a, q, err_num, err_den) of each certified convergent of a decimal α
    with 2 ≤ q ≤ qmax, straight from the definitions: the partial quotients of
    the stored value, the certificate |value − a/q| + width ≤ 1/q², and the
    slot value − a/q ≈ err_num/err_den at the finest scale ⌊2^64 q²/2^j⌋ whose
    half-width covers the width."""
    alpha = parse_alpha(spec)
    value, width = alpha.value, alpha.width
    out, v = [], value
    h_prev, h, k_prev, k = 0, 1, 1, 0
    while True:
        term = math.floor(v)
        h_prev, h = h, term * h + h_prev
        k_prev, k = k, term * k + k_prev
        mid = value - Fraction(h, k)
        if k > qmax or abs(mid) + width > Fraction(1, k * k):
            return out
        j = 0
        while (2**64 * k * k >> j) > 1 and width * (2**64 * k * k >> j) > Fraction(1, 2):
            j += 1
        den = 2**64 * k * k >> j
        if k >= 2:
            out.append((h, k, math.floor(mid * den + Fraction(1, 2)), den))
        if v == term:
            return out
        v = 1 / (v - term)


@pytest.mark.parametrize(
    "spec, qmax, count, last",
    [
        ("dec:1.4142135623731:13", 10**15, 16, (1607521, 1136689, 1, 2584123765442)),
        ("dec:1.41421356:8", 10**15, 10, (8119, 5741, 0, 32959081)),
        ("dec:1.41421356237309504880168872421:30", 10**60, 39,
         (1023286908188737, 723573111879672, 0, 261779024117616166586503413792)),
    ],
)
def test_convergents_in_range_keeps_the_certified_decimal_prefix(spec, qmax, count, last):
    got = [(c.a, c.q, c.err_num, c.err_den) for c in cli._convergents_in_range(parse_alpha(spec), 2, qmax)]
    assert len(got) == count
    assert got[-1] == last
    assert got == decimal_walk_oracle(spec, qmax)
    # a narrower range is the same walk, filtered
    mid_q = got[len(got) // 2][1]
    narrow = cli._convergents_in_range(parse_alpha(spec), mid_q, got[-2][1])
    assert [(c.a, c.q, c.err_num, c.err_den) for c in narrow] == [t for t in got[:-1] if t[1] >= mid_q]


def test_convergents_in_range_stops_at_192_convergents():
    golden = QuadIrr(1, 1, 5, 2)
    convs = cli._convergents_in_range(golden, 2, 10**60)
    # the first 192 convergents of the golden ratio, less the two with q = 1
    assert len(convs) == 190
    assert convs[-1].q == 5972304273877744135569338397692020533504
    assert [c.q for c in convs[:5]] == [2, 3, 5, 8, 13]


def test_search_refuses_decimal_flags_its_precision_cannot_decide(capsys):
    d = parse_alpha("dec:1.4142135623731:13")
    with pytest.raises(CapacityError):
        list(search_results(d, Fraction(1, 4), 5741, 5741))
    t0 = time.perf_counter()
    code = main(["search", "--alpha", "dec:1.4142135623731:13", "--theta", "1/4", "--qmax", "100000"])
    assert code == EXIT_BUDGET
    assert time.perf_counter() - t0 < 10.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


def test_search_decimal_flags_match_the_exact_surd(capsys):
    rows = {}
    for spec in ("dec:1.41421356237309504880168872421:30", "quad:0,1,2,1"):
        assert main(["search", "--alpha", spec, "--theta", "3/10", "--qmax", "500"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        rows[spec] = [(r["q"], r["n"], r["within_bound"], r["below_power"]) for r in doc["rows"]]
        alpha = parse_alpha(spec)
        assert [r["dist"] for r in doc["rows"]] == [dist_nearest(r["n"], alpha) for r in doc["rows"]]
    assert len(rows["quad:0,1,2,1"]) > 0
    assert rows["dec:1.41421356237309504880168872421:30"] == rows["quad:0,1,2,1"]


# ---------------------------------------------------------------------------
# property: main() answers every argv with a documented exit code
# ---------------------------------------------------------------------------

# valid small values per command; any of them may be swapped for a bad token
_FUZZ_BASES = {
    "search": {"alpha": ["quad:1,1,5,2", "dec:1.41421356:8"], "theta": ["1/4", "3/10"], "qmax": ["20", "50", "1000000000000"],
               "qmin": ["2", "10"], "Y": ["inf", "5"], "C": ["10", "2"]},
    "psi": {"x": ["10", "100,200"], "y": ["2", "5,7"]},
    "rho": {"u": ["0.5,1,2", "3"], "tol": ["1e-9", "1e-3"]},
    "alpha": {"x": ["100", "50,60"], "y": ["5", "3,10"]},
    "kloosterman": {"M": ["5", "10,12"], "x": ["20"], "a": ["3", "1"], "q": ["2", "3"], "y": ["7"], "eta": ["0.05"]},
    "dispersion": {"q": ["101", "13"], "a": ["2"], "M": ["5", "10"], "N": ["5", "10"], "R": ["6", "20"],
                   "Y": ["5", "inf"], "theta": ["1/3"], "report": ["all", "sums", "sigma"]},
}
_FUZZ_BAD = ["1e400", "nan", "inf", "-inf", "-1", "0", "", "1e30", "1/4", "1/0", "3", "20", "csv", "unknown"]
_FUZZ_FLAGS = [f"--{name}" for name in cli._FLAGS if name != "out"] + ["--unknown"]
# --out: stdout, a new file, a file in a missing directory, a directory
_FUZZ_OUTS = (None, "out.txt") * 4 + ("missing/out.txt", ".")
# --config: none, a file with an unknown key, a missing file
_FUZZ_CONFIGS = (None,) * 8 + ("unknown.cfg", "missing.cfg")


@st.composite
def _argvs(draw):
    command = draw(st.sampled_from(cli.COMMANDS))
    argv = [command]
    for flag, good in _FUZZ_BASES[command].items():
        choice = draw(st.sampled_from(("good",) * 8 + ("bad", "absent")))
        if choice != "absent":
            argv += [f"--{flag}", draw(st.sampled_from(good if choice == "good" else _FUZZ_BAD))]
    for flag, value in draw(st.lists(st.tuples(st.sampled_from(_FUZZ_FLAGS), st.sampled_from(_FUZZ_BAD)), max_size=1)):
        argv += [flag, value]
    argv += ["--format", draw(st.sampled_from(("json", "csv")))]
    return argv, draw(st.sampled_from(_FUZZ_OUTS)), draw(st.sampled_from(_FUZZ_CONFIGS))


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    (path / "unknown.cfg").write_text("x=10\nbogus=1\n")
    return path


@settings(max_examples=300, deadline=None)
@given(case=_argvs())
def test_main_exit_codes_property(fuzz_dir, case):
    argv, out, config = case
    if out is not None:
        argv = argv + ["--out", str(fuzz_dir / out)]
    if config is not None:
        argv = argv + ["--config", str(fuzz_dir / config)]
    assert main(argv) in (EXIT_OK, EXIT_EMPTY, EXIT_BUDGET, EXIT_BAD_CONFIG)


_D = ["dispersion", "--q", "101", "--a", "2", "--Y", "5", "--theta", "1/4"]
_BIG_Q = ["--q", "1000000000000037", "--a", "2"]


@pytest.mark.parametrize("argv", [
    _D + ["--M", "1e12", "--N", "30", "--R", "20", "--report", "type1"],  # (M, 2M] past the window cap
    _D + ["--M", "40", "--N", "1e12", "--R", "20", "--report", "type1"],  # (N, 2N]
    _D + ["--M", "1e12", "--N", "30", "--R", "20", "--report", "sums"],  # the φ window (3M/4 − 1, 9M/4 + 1]
    _D + ["--M", "1e15", "--N", "1e15", "--R", "1e15", "--report", "all"],
    ["dispersion", *_BIG_Q, "--Y", "5", "--M", "1e15", "--N", "1e15", "--R", "1e15", "--report", "bilinear"],
    ["dispersion", *_BIG_Q, "--Y", "5", "--M", "1e15", "--N", "2", "--R", "1e3", "--report", "type2"],
    ["dispersion", *_BIG_Q, "--Y", "inf", "--M", "2", "--N", "1e15", "--R", "1e6", "--theta", "1/4", "--report", "all"],
    ["dispersion", *_BIG_Q, "--Y", "inf", "--theta", "1/4", "--report", "sigma"],
    ["dispersion", *_BIG_Q, "--Y", "50", "--theta", "1/4", "--report", "sigma"],
    ["kloosterman", "--M", "1e15", "--x", "1e15", "--a", "3", "--q", "2", "--y", "7"],
    ["kloosterman", "--M", "5", "--x", "1e15", "--a", "3", "--q", "1e15", "--y", "1e15"],
    ["search", "--alpha", "quad:1,1,5,2", "--theta", "1/4", "--qmin", "1e15", "--qmax", "1e16"],
    ["search", "--alpha", "quad:1,1,5,2", "--theta", "1/4", "--qmax", "1e15", "--Y", "50"],
])
def test_extreme_ranges_exit_with_a_documented_code(argv, capsys):
    # each is answered from its ranges, before a window or a table is allocated
    code = main(argv + ["--budget", "1000"])
    captured = capsys.readouterr()
    assert code in (EXIT_OK, EXIT_EMPTY, EXIT_BUDGET, EXIT_BAD_CONFIG)
    assert code in (EXIT_OK, EXIT_EMPTY) or captured.out == ""
    assert "Traceback" not in captured.err


# ---------------------------------------------------------------------------
# emitter oracle: the row-dict emission cli._emit replaces, kept as the exact
# reference for its bytes
# ---------------------------------------------------------------------------

_SEARCH_COLS = ["q", "a", "X", "R", "Y", "n", "dist", "n_power", "pplus", "within_bound", "below_power"]


def _oracle_csv_cell(v):
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, dict):
        return json.dumps(v, sort_keys=True)
    return v


def _oracle_text(command, fmt, cols, rows):
    if fmt == "json":
        return json.dumps({"command": command, "rows": rows}, sort_keys=True, indent=2) + "\n"
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(cols)
    for row in rows:
        w.writerow([_oracle_csv_cell(row.get(c)) for c in cols])
    return buf.getvalue()


def _oracle_search_rows(args):
    """Rows built member by member from search_results, one dict each."""
    opts = dict(zip(args[1::2], args[2::2]))
    Y = opts.get("--Y")
    results = search_results(
        parse_alpha(opts["--alpha"]), Fraction(opts["--theta"]), int(opts.get("--qmin", 2)), int(opts["--qmax"]),
        Y=None if Y is None else float(Y),
    )
    rows = []
    for res in results:
        for i in range(len(res.n)):
            rows.append(
                {
                    "q": res.q,
                    "a": res.a,
                    "X": res.X,
                    "R": res.R,
                    "Y": res.Y,
                    "n": int(res.n[i]),
                    "dist": float(res.dist[i]),
                    "n_power": float(res.n_power[i]),
                    "pplus": int(res.pplus[i]),
                    "within_bound": bool(res.within_bound[i]),
                    "below_power": bool(res.below_power[i]),
                }
            )
    return _SEARCH_COLS, rows


def _table_rows(tables):
    """Expand the handlers' tables, column by column, into one dict per row:
    a list or array holds one value per row, anything else is repeated."""
    rows = []
    for table in tables:
        per_row = {c: list(v) if isinstance(v, list) else v.tolist() for c, v in table.items()
                   if isinstance(v, (list, np.ndarray))}
        size = len(next(iter(per_row.values())))
        rows += [{c: per_row[c][i] if c in per_row else v for c, v in table.items()} for i in range(size)]
    return rows


def _oracle(args, fmt):
    if args[0] == "search":
        return _oracle_text("search", fmt, *_oracle_search_rows(args))
    cfg = build_config(args + ["--format", fmt])
    cols, tables = cli._HANDLERS[args[0]](cfg)
    return _oracle_text(args[0], fmt, cols, _table_rows(tables))


_EMIT_CASES = {
    "search-multi-Yinf": ["search", "--alpha", "quad:1,1,5,2", "--theta", "1/4", "--qmax", "100", "--Y", "inf"],
    "search-finite-Y": ["search", "--alpha", "quad:0,1,2,1", "--theta", "3/10", "--qmin", "100", "--qmax", "800",
                        "--Y", "50"],
    "search-empty": ["search", "--alpha", "quad:1,1,5,2", "--theta", "1/4", "--qmin", "90", "--qmax", "100"],
    "psi": ["psi", "--x", "100,1000", "--y", "5,7,11"],
    "rho": ["rho", "--u", "0.5,1,2,3,10"],
    "alpha": ["alpha", "--x", "1000,100000", "--y", "10,100"],
    "kloosterman": ["kloosterman", "--M", "20,40", "--x", "200", "--a", "7", "--q", "3", "--y", "11"],
    "dispersion": ["dispersion", "--q", "101", "--a", "2", "--M", "15", "--N", "15", "--R", "20", "--Y", "5",
                   "--theta", "1/3", "--report", "all"],
}


@pytest.mark.parametrize("sink", ["stdout", "out"])
@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("case", sorted(_EMIT_CASES))
def test_emit_matches_row_oracle(case, fmt, sink, tmp_path, capsys):
    args = _EMIT_CASES[case] + ["--format", fmt]
    path = tmp_path / f"out.{fmt}"
    code = main(args + (["--out", str(path)] if sink == "out" else []))
    text = path.read_text() if sink == "out" else capsys.readouterr().out
    assert code == (EXIT_EMPTY if case == "search-empty" else EXIT_OK)
    assert text == _oracle(_EMIT_CASES[case], fmt)


def test_emit_special_values(tmp_path):
    # ratio = None, nan, -inf and inf cells, plus a repeated string and a
    # nested dict that csv must quote and json must re-indent
    cfg = build_config(_EMIT_CASES["kloosterman"])
    cols, tables = cli._HANDLERS["kloosterman"](cfg)
    (table,) = tables
    table["ratio"][0] = None
    table["value"][1] = float("nan")
    table["z"][0] = float("-inf")
    table["y"] = float("inf")
    table["a"] = 'say "hé", then {go}'
    table["q"] = {"flags": ["a, b", "c"], "nested": {"k": 1.5, "e": {}}, "none": None}
    rows = _table_rows([table])
    for fmt in ("json", "csv"):
        cfg.format, cfg.out = fmt, str(tmp_path / f"k.{fmt}")
        assert cli._emit(cfg, cols, [table]) == 2
        assert (tmp_path / f"k.{fmt}").read_text() == _oracle_text("kloosterman", fmt, cols, rows)


# array columns of every kind the byte kernels take, with the values they leave to json.dumps
_ARRAY_TABLE = {
    "x": np.array([1.5, -0.0, 3.0, float("nan"), float("inf"), -float("inf"), 1e-5, 1e16, 1e22, 0.1, -2.5e-4]),
    "y": 7,
    "psi": np.array([2**40, -1, 0, -2**63, 2**63 - 1, 10, -10, 99, 5, 12, -3], dtype=np.int64),
    "k": np.array([-2**31, 2**31 - 1, 0, -7, 1, 2, 3, 4, 5, 6, 7], dtype=np.int32),
    "flag": np.array([True, False] * 5 + [True]),
    "u": np.array([2**64 - 1, 0, 1, 9, 10, 11, 12, 13, 14, 15, 16], dtype=np.uint64),
    "f32": np.array([0.1, 1 / 3, -2.0, 1e-7, 3e38, 0.5, 7, 8, 9, 10, 11], dtype=np.float32),
}


def test_emit_cuts_array_tables_into_blocks(monkeypatch, capsys):
    # numpy columns are written as Python values, a block at a time; an empty table writes nothing
    monkeypatch.setattr(cli, "_BLOCK_ROWS", 2)
    cfg = build_config(["psi", "--x", "1", "--y", "1"])
    cols = list(_ARRAY_TABLE)
    for fmt in ("json", "csv"):
        cfg.format = fmt
        empty = {c: np.zeros(0) for c in cols} | {"x": [], "y": 1}
        assert cli._emit(cfg, cols, [_ARRAY_TABLE, empty]) == 11
        assert capsys.readouterr().out == _oracle_text("psi", fmt, cols, _table_rows([_ARRAY_TABLE]))


@pytest.mark.parametrize("as_json", [True, False])
def test_cell_matrices_are_the_cells_padded_with_nul(as_json):
    # every column kind: its cell matrix, NULs dropped row by row, is the list
    # path's cells, and those hold no NUL that dropping the padding would cut
    columns = [v for v in _ARRAY_TABLE.values() if isinstance(v, np.ndarray)]
    columns += [["kind", 'say "hé", then {go}', None, 1.5], [{"a": [1, "b, c"]}, {}, True, float("nan")]]
    for col in columns:
        cells = cli._cells(col.tolist() if isinstance(col, np.ndarray) else col, as_json)
        assert not any("\0" in cell for cell in cells)
        matrix = cli._cell_matrix(col, as_json)
        assert matrix.dtype == np.uint8 and matrix.shape[0] == len(col)
        assert [bytes(row[row != 0]).decode() for row in matrix] == cells


def test_emit_inf_spelling(capsys):
    args = _EMIT_CASES["search-multi-Yinf"]
    assert main(args) == EXIT_OK
    assert '"Y": Infinity,' in capsys.readouterr().out
    assert main(args + ["--format", "csv"]) == EXIT_OK
    assert capsys.readouterr().out.splitlines()[1].split(",")[4] == "inf"


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_emit_splits_convergents_into_blocks(fmt, monkeypatch, capsys):
    # blocks of 7 rows: every convergent spans several blocks, most with a remainder
    monkeypatch.setattr(cli, "_BLOCK_ROWS", 7)
    args = _EMIT_CASES["search-multi-Yinf"] + ["--format", fmt]
    assert main(args) == EXIT_OK
    assert capsys.readouterr().out == _oracle(_EMIT_CASES["search-multi-Yinf"], fmt)


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("case", ["psi", "dispersion"])
def test_emit_cuts_every_command_into_blocks(case, fmt, monkeypatch, capsys):
    # _emit, not the handler, cuts the 6 psi and 5 dispersion rows into blocks of at most 2
    sizes = []
    block_text = cli._block_text

    def counted(keys, block, size, as_json):
        sizes.append(size)
        return block_text(keys, block, size, as_json)

    monkeypatch.setattr(cli, "_BLOCK_ROWS", 2)
    monkeypatch.setattr(cli, "_block_text", counted)
    args = _EMIT_CASES[case] + ["--format", fmt]
    assert main(args) == EXIT_OK
    assert capsys.readouterr().out == _oracle(_EMIT_CASES[case], fmt)
    assert sizes == {"psi": [2, 2, 2], "dispersion": [2, 2, 1]}[case]


# columns whose cells need different widths within one block and from block to
# block: negative ints and floats, kernel values beside the fallback's, integer
# parts of 5 digits and more, the least int64, and narrow columns
_WIDTH_TABLE = {
    "i": np.array([-2**63, 12345, 0, -7, 10**17, 3, 99999, -10**4], dtype=np.int64),
    "f": np.array([-1.5, 0.0, float("inf"), float("nan"), 1e-5, 1e17, -float("inf"), 123456.789]),
    "g": np.array([0.5, 0.25, 0.125, 0.75, 1e-4, 2.0**-11, 0.375, 0.0625]),
    "k": np.array([1, 2, 3, 4, 5, 6, 7, 8], dtype=np.int32),
    "s": "label",
    "p": np.array([4.0, 12345.5, 1e15 + 0.5, 0.1, 2.5e-4, 7.0, 1 / 3, 99999.25]),
    "flag": np.array([True, False] * 4),
}


@pytest.mark.parametrize("sink", ["stdout", "out"])
@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("block_rows, sub_rows", [(1, 1), (3, 2), (4, 1), (4096, 1024)])
def test_emit_narrow_cells_match_row_oracle(block_rows, sub_rows, fmt, sink, monkeypatch, tmp_path, capsys):
    # each block's cells are only as wide as its own values need; the first
    # json row follows an empty table and opens a sub-block
    monkeypatch.setattr(cli, "_BLOCK_ROWS", block_rows)
    monkeypatch.setattr(cli, "_SUB_ROWS", sub_rows)
    path = tmp_path / f"w.{fmt}"
    cfg = build_config(["psi", "--format", fmt] + (["--out", str(path)] if sink == "out" else []))
    cols = list(_WIDTH_TABLE)
    empty = {c: np.zeros(0) for c in cols} | {"s": "label"}
    assert cli._emit(cfg, cols, [empty, _WIDTH_TABLE, _WIDTH_TABLE]) == 16
    data = path.read_bytes() if sink == "out" else capsys.readouterr().out.encode()
    assert data == _oracle_text("psi", fmt, cols, _table_rows([_WIDTH_TABLE] * 2)).encode()


def test_emit_holds_a_few_hundred_bytes_a_row(tmp_path):
    """One 4096-row `search` block in json: its cells are only as wide as its
    values, and its rows are assembled, NUL-compacted and written _SUB_ROWS
    at a time straight from the byte matrix, so the peak stays below 400
    bytes a row, about the block's own 300 bytes of output a row.  One
    padded matrix of the whole block, its mask, and its text decoded and
    encoded again took about 1100."""
    (res,) = search_results(parse_alpha("quad:1,1,5,2"), Fraction(1, 4), 987, 987)
    table = {k: v[:cli._BLOCK_ROWS] if isinstance(v, np.ndarray) else v for k, v in vars(res).items()}
    assert len(table["n"]) == cli._BLOCK_ROWS == 4096
    cfg = build_config(["search", "--out", str(tmp_path / "s.json")])
    cli._emit(cfg, list(table), [table])  # the kernels' tables are built once, before the measure
    tracemalloc.start()
    try:
        cli._emit(cfg, list(table), [table])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 400 * 4096


@pytest.mark.parametrize("flag, value, parsed", [("budget", "1e8", 10**8), ("qmin", "2.5e3", 2500), ("q", "1.0E2", 100),
                                                  ("q", "-3e1", -30), ("budget", "007", 7)])
def test_integer_flags_take_exact_e_notation(flag, value, parsed, tmp_path):
    assert getattr(build_config(["search", f"--{flag}={value}"]), flag) == parsed
    (tmp_path / "c.cfg").write_text(f"{flag} = {value}\n")
    assert getattr(build_config(["search", "--config", str(tmp_path / "c.cfg")]), flag) == parsed


def test_budget_in_e_notation_runs(capsys):
    assert main(["rho", "--u", "1", "--budget", "1e8"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["rows"] == [{"rho": 1.0, "tol": 1e-09, "u": 1.0}]


@pytest.mark.parametrize("flag", ["budget", "qmin", "q"])
@pytest.mark.parametrize("value", ["1.5", "2.5e0", "1e-3", "nan", "inf", "1e5000", "1/4", "abc"])
def test_integer_flags_refuse_non_integers_by_name(flag, value, tmp_path, capsys):
    assert main(["rho", "--u", "1", f"--{flag}", value]) == EXIT_BAD_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --{flag}: {value!r} is not an integer\n"
    (tmp_path / "c.cfg").write_text(f"{flag}={value}\n")
    assert main(["rho", "--u", "1", "--config", str(tmp_path / "c.cfg")]) == EXIT_BAD_CONFIG
    assert capsys.readouterr().err == f"error: --{flag}: {value!r} is not an integer\n"


@pytest.mark.parametrize("N, R, report, message", [
    ("1e7", "1e6", "sums", "residue products up to 19999999999760000000 exceed int64"),
    ("1e7", "1e11", "type1", "75000000002 residue weights at q = 999999999989 exceed sieve capacity"),
])
def test_dispersion_refuses_from_the_ranges_before_it_sieves(N, R, report, message, monkeypatch, capsys):
    # q, R and N alone decide both refusals, so the 1e7-integer n-window is never sieved
    def refuse(*args):
        raise AssertionError("a dispersion window was sieved")

    monkeypatch.setattr(dispersion, "smooth_sieve", refuse)
    code = main(["dispersion", "--q", "999999999989", "--a", "123456789011", "--M", "2", "--N", N, "--R", R,
                 "--Y", "1e9", "--report", report])
    assert code == EXIT_BUDGET
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
