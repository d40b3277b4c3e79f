"""The traced-run driver: alias coverage and time accounting."""

import json
import sys
from fractions import Fraction

import pytest

import run
import tracing
from workloads import Job


@pytest.fixture
def restore_smoothdio():
    """Undo the installer's rebinding after the test."""
    import smoothdio.cli  # noqa: F401  (loads every smoothdio module)

    mods = [m for name, m in sys.modules.items() if name == "smoothdio" or name.startswith("smoothdio.")]
    saved = [(m, dict(vars(m))) for m in mods]
    yield
    for m, attrs in saved:
        for k, v in attrs.items():
            setattr(m, k, v)


def test_installer_covers_every_alias(restore_smoothdio):
    import smoothdio
    import smoothdio.cli

    originals = {}
    for qual in list(tracing.SPANNED) + list(tracing.SCALAR):
        mod, fn = qual.split(".")
        originals[qual] = getattr(sys.modules[f"smoothdio.{mod}"], fn)
    wrappers = tracing.install(tracing.Recorder("t"))

    assert set(wrappers) == set(originals)
    for name, mod in sys.modules.items():
        if name == "smoothdio" or name.startswith("smoothdio."):
            for attr, val in vars(mod).items():
                for qual, fn in originals.items():
                    assert val is not fn, f"{name}.{attr} still refers to unwrapped {qual}"
    assert smoothdio.cli.dist_nearest is wrappers["diophantine.dist_nearest"]
    assert smoothdio.expsums.smooth_sieve is wrappers["smooth.smooth_sieve"]
    assert smoothdio.dispersion.local_density is wrappers["smooth.local_density"]
    assert smoothdio.psi is wrappers["smooth.psi"]


def test_installer_skips_a_function_the_package_lacks(restore_smoothdio, monkeypatch):
    monkeypatch.setitem(tracing.SPANNED, "smooth.no_such_function", None)
    wrappers = tracing.install(tracing.Recorder("t"))
    assert "smooth.no_such_function" not in wrappers
    assert "smooth.smooth_sieve" in wrappers


def test_lazy_import_in_build_target_set_is_traced(restore_smoothdio):
    from smoothdio import diophantine

    rec = tracing.Recorder("t")
    tracing.install(rec)
    params = diophantine.derive_params(987, Fraction(1, 4), Y=50.0)
    diophantine.build_target_set(params, 610)
    names = [s[0] for s in rec.spans]
    assert names[0] == "diophantine.build_target_set"
    sieve = names.index("smooth.smooth_sieve")
    assert rec.spans[sieve][3] == 0  # parent: the build_target_set span


def test_self_times_exclude_children_and_scalar_calls():
    # name, start, end, parent, job, scalar seconds
    spans = [
        ["root", 0.0, 10.0, -1, "j", 0.0],
        ["a", 1.0, 4.0, 0, "j", 0.5],
        ["a.child", 2.0, 3.0, 1, "j", 0.0],
        ["b", 5.0, 6.0, 0, "j", 0.0],
    ]
    assert tracing.self_times(spans) == [6.0, 1.5, 1.0, 1.0]


# Per-layer metrics that split the traced time between them; the per-report
# dispersion.<fn>.s metrics split dispersion.self_s further.
PARTS = (
    "cli.self_s",
    "dispersion.self_s",
    "diophantine.dist_nearest.s",
    "diophantine.build_target_set.s",
    "diophantine.cf_convergents.s",
    "smooth.largest_prime_factor_array.s",
    "smooth.smooth_sieve.s",
    "smooth.psi.s",
    "smooth.saddle_alpha.s",
    "smooth.dickman_rho.s",
    "smooth.local_density.s",
    "arith.prime_array.s",
    "expsums.kl_smooth_average.s",
    "expsums.inverse_table.s",
)

SMALL_JOBS = [
    ["search", "--alpha", "quad:1,1,5,2", "--theta", "1/4", "--qmin", "89", "--qmax", "987", "--format", "csv"],
    ["dispersion", "--q", "101", "--a", "2", "--M", "15", "--N", "15", "--R", "20", "--Y", "5",
     "--theta", "1/3", "--report", "all"],
    ["kloosterman", "--M", "40", "--x", "300", "--a", "7", "--q", "3", "--y", "11"],
]


@pytest.mark.parametrize("args", SMALL_JOBS, ids=lambda a: a[0])
def test_traced_time_adds_up_to_job_wall(tmp_path, args):
    job = Job("small", args[0], args, "json", 0.0)
    spans = tmp_path / "spans.json"
    argv = run.cli_argv(job, tmp_path / "out", spans)
    wall, _, _, rc = run.spawn(argv, tmp_path / "err", run.child_env())
    assert rc == 0, (tmp_path / "err").read_text()
    dump = json.loads(spans.read_text())

    assert all(t >= -1e-6 for t in tracing.self_times(dump["spans"]))
    m = tracing.layer_metrics([dump], [wall], 1, 1)
    assert m["trace.unattributed_s"] >= 0.0
    total = sum(m[k] for k in PARTS) + m["cli.import_s"] + m["trace.unattributed_s"]
    assert total == pytest.approx(wall, abs=1e-9)
    per_report = sum(m[f"dispersion.{fn}.s"] for fn in
                     ("type1_report", "type2_report", "dispersion_sums", "bilinear_B", "sigma_qR"))
    assert per_report == pytest.approx(m["dispersion.self_s"], abs=1e-9)
    assert set(m) | {"trace.overhead_frac"} == set(PER_LAYER_NAMES)


BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
PER_LAYER_NAMES = [m["name"] for m in BENCHMARK["per_layer"]]


def test_metric_names_and_units_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END_UNITS
    assert all(tracing.unit(m["name"]) == m["unit"] for m in BENCHMARK["per_layer"])
