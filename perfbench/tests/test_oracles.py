"""Oracle self-tests: clean outputs pass, corrupted ones raise fail_frac."""

import csv
import json
from fractions import Fraction

import pytest

import oracles
import run
from workloads import Job

GOLDEN = (1, 1, 5, 2)

SEARCH = Job("search", "search",
             ["search", "--alpha", "quad:1,1,5,2", "--theta", "1/4", "--qmin", "89", "--qmax", "987", "--format", "csv"],
             "csv", 0.0, {"alpha": GOLDEN, "theta": Fraction(1, 4), "qmin": 89, "qmax": 987, "Y": None, "C": 10.0})
SEARCH_Y = Job("search_y", "search",
               ["search", "--alpha", "quad:0,1,2,1", "--theta", "3/10", "--qmin", "2", "--qmax", "5741",
                "--Y", "100", "--format", "json"],
               "json", 0.0, {"alpha": (0, 1, 2, 1), "theta": Fraction(3, 10), "qmin": 2, "qmax": 5741, "Y": 100, "C": 10.0})
PSI = Job("psi", "psi", ["psi", "--x", "10000,50000", "--y", "7,100", "--format", "json"],
          "json", 0.0, {"x": [10000, 50000], "y": [7, 100]})
ALPHA = Job("alpha", "alpha", ["alpha", "--x", "1000,1000000", "--y", "10,100", "--format", "json"],
            "json", 0.0, {"x": [1000, 1000000], "y": [10, 100]})
RHO = Job("rho", "rho", ["rho", "--u", "0.5,1.5,2.5,4.0,10.0", "--tol", "1e-9", "--format", "json"],
          "json", 0.0, {"u": [0.5, 1.5, 2.5, 4.0, 10.0], "tol": 1e-9})
KLOOSTERMAN = Job("kloosterman", "kloosterman",
                  ["kloosterman", "--M", "40", "--x", "300", "--a", "7", "--q", "3", "--y", "11", "--format", "json"],
                  "json", 0.0, {"M": 40, "x": 300, "a": 7, "q": 3, "y": 11, "eta": 0.05})
DISPERSION = Job("dispersion", "dispersion",
                 ["dispersion", "--q", "101", "--a", "2", "--M", "15", "--N", "15", "--R", "20", "--Y", "5",
                  "--theta", "1/3", "--report", "all", "--format", "json"],
                 "json", 0.0, {"q": 101, "a": 2, "M": 15.0, "N": 15.0, "R": 20.0, "Y": 5,
                               "theta": Fraction(1, 3), "C": 10.0, "delta": 0.1, "eta": 0.05})


def produce(job, tmp_path):
    out = tmp_path / f"{job.name}.{job.fmt}"
    _, _, _, rc = run.spawn(run.cli_argv(job, out), tmp_path / "err", run.child_env())
    assert rc == 0, (tmp_path / "err").read_text()
    return out


def fail_frac(job, path) -> float:
    """fail_frac of one run of `job` whose output is `path`, as run.py counts it."""
    problems = {job.name: list(oracles.check(job, str(path))[0])}
    runs = [[{"job": job, "rc": 0, "digest": "same"}]]
    attempted, failed = run.count_failures(runs, problems, {job.name: "same"})
    return failed / attempted


@pytest.mark.parametrize("job", [SEARCH, SEARCH_Y, PSI, ALPHA, RHO, KLOOSTERMAN, DISPERSION], ids=lambda j: j.name)
def test_clean_output_passes(job, tmp_path):
    out = produce(job, tmp_path)
    problems, rows = oracles.check(job, str(out))
    assert list(problems) == [] and rows > 0
    assert fail_frac(job, out) == 0.0


def rewrite_csv(path, edit):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    cols = list(rows[0])
    rows = edit(rows)
    with open(path, "w", newline="") as fh:
        w = csv.DictWriter(fh, cols, lineterminator="\n")
        w.writeheader()
        w.writerows(rows)


def change_pplus(rows):
    row = next(r for r in rows if int(r["pplus"]) < int(r["n"]))  # composite: pplus has a rival divisor
    n, p = int(row["n"]), int(row["pplus"])
    row["pplus"] = str(min(d for d in range(2, n + 1) if n % d == 0 and d != p))
    return rows


def perturb_dist(rows):
    row = rows[len(rows) // 2]
    row["dist"] = repr(float(row["dist"]) * (1 + 1e-9))
    return rows


def drop_member(rows):
    return rows[:7] + rows[8:]


@pytest.mark.parametrize("edit", [change_pplus, perturb_dist, drop_member])
def test_corrupted_search_output_fails(edit, tmp_path):
    out = produce(SEARCH, tmp_path)
    rewrite_csv(out, edit)
    assert fail_frac(SEARCH, out) > 0.0


def test_altered_psi_cell_fails(tmp_path):
    out = produce(PSI, tmp_path)
    doc = json.loads(out.read_text())
    doc["rows"][2]["psi"] += 1
    out.write_text(json.dumps(doc))
    assert fail_frac(PSI, out) > 0.0


def test_altered_sums_fail(tmp_path):
    for job, edit in ((KLOOSTERMAN, lambda rows: rows[0].update(value=rows[0]["value"] * (1 + 1e-6))),
                      (DISPERSION, lambda rows: rows[0].update(value=rows[0]["value"] * (1 + 1e-6)))):
        out = produce(job, tmp_path)
        doc = json.loads(out.read_text())
        edit(doc["rows"])
        out.write_text(json.dumps(doc))
        assert fail_frac(job, out) > 0.0, job.name


def test_output_bytes_that_differ_between_runs_fail():
    runs = [[{"job": PSI, "rc": 0, "digest": "a"}], [{"job": PSI, "rc": 0, "digest": "b"}]]
    assert run.count_failures(runs, {PSI.name: []}, {PSI.name: "a"}) == (2, 1)
