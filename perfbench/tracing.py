"""Traced-run driver and span store.

Run one CLI job with spans around smoothdio's layers:

    python3 perfbench/tracing.py SPANS.json JOB_ID -- <smoothdio.cli arguments>

The driver imports smoothdio, wraps the functions named in SPANNED and
SCALAR, and rebinds every module-level name in smoothdio.* that refers to a
wrapped function.  That covers aliases such as smoothdio.cli.dist_nearest,
smoothdio.expsums.smooth_sieve and the lazy `from .smooth import
smooth_sieve` in build_target_set.  Only then does it call
smoothdio.cli.main(argv).  Nothing under src/ is edited.

* Array-level calls become spans (name, start, end, parent span, job id),
  kept in memory and written to SPANS.json at exit.
* Per-element scalar calls (dist_nearest) are kept as a count plus summed
  time, which is also charged to the enclosing span.
* A generator (search_results) gets one span per iteration, so its time
  counts only what runs inside its iterations.

A span's self time is its duration minus the time its child spans and
scalar calls cover.  `layer_metrics` turns the dumps of one pass into the
per-layer metrics.
"""

import functools
import importlib
import inspect
import json
import sys
import time
from math import ceil, floor

PACKAGE = "smoothdio"


def kl_pairs(M: float, x: float) -> int:
    """m×n pairs of a Kloosterman average: m ∈ (M, 2M], 1 ≤ n < x."""
    return (floor(2 * M) - floor(M)) * max(ceil(x) - 1, 0)


def mn_pairs(M: float, N: float, sums_window: bool = False) -> int:
    """m×n pairs of one dispersion inner-sum block: n ∈ (N, 2N] against
    m ∈ (M, 2M], or against the φ(m/3M) window (3M/4, 9M/4) of the opened
    square."""
    n = floor(2 * N) - floor(N)
    if sums_window:
        return (ceil(9 * M / 4) - floor(3 * M / 4) - 1) * n
    return (floor(2 * M) - floor(M)) * n


# Spanned functions, "module.function", each with an optional function that
# sizes one call from its bound arguments and result: elems (array elements
# passed in), pairs (m×n pairs implied by the inputs), members (output size)
# and key (the arguments a distinct call differs by).
SPANNED = {
    "cli.main": None,
    "cli.search_results": None,
    "diophantine.cf_convergents": None,
    "diophantine.build_target_set": lambda b, r: {"members": len(r)},
    "smooth.largest_prime_factor_array": lambda b, r: {"elems": len(b["ns"])},
    "smooth.smooth_sieve": lambda b, r: {
        "elems": b["hi"] - b["lo"] + 1,
        "key": (b["lo"], b["hi"], float(b["y"]), b["q"]),
    },
    "smooth.psi": None,
    "smooth.saddle_alpha": None,
    "smooth.dickman_rho": None,
    "smooth.local_density": None,
    "arith.prime_array": lambda b, r: {"key": b["limit"]},
    "expsums.kl_smooth_average": lambda b, r: {"pairs": kl_pairs(b["M"], b["x"])},
    "expsums.inverse_table": lambda b, r: {"key": b["c"]},
    "dispersion.type1_report": lambda b, r: {"pairs": mn_pairs(b["params"].M, b["params"].N)},
    "dispersion.type2_report": lambda b, r: {"pairs": mn_pairs(b["params"].M, b["params"].N)},
    "dispersion.bilinear_B": lambda b, r: {"pairs": mn_pairs(b["params"].M, b["params"].N)},
    "dispersion.dispersion_sums": lambda b, r: {"pairs": mn_pairs(b["params"].M, b["params"].N, sums_window=True)},
    "dispersion.sigma_qR": None,
}
SCALAR = ("diophantine.dist_nearest",)
GENERATORS = ("cli.search_results",)


class Recorder:
    """In-memory span and counter store for one job.

    spans[i] = [name, start, end, parent index or -1, job id, scalar seconds].
    """

    def __init__(self, job: str):
        self.job = job
        self.spans = []
        self.stack = []
        self.counters = {}
        self.scalars = {}

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.job, 0.0])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def count(self, name: str, info: dict) -> None:
        c = self.counters.setdefault(name, {"calls": 0, "elems": 0, "pairs": 0, "members": 0, "keys": set()})
        c["calls"] += 1
        for k in ("elems", "pairs", "members"):
            c[k] += info.get(k, 0)
        if "key" in info:
            c["keys"].add(info["key"])

    def dump(self, path: str, import_s: float) -> None:
        counters = {n: dict(c, keys=len(c["keys"])) for n, c in self.counters.items()}
        with open(path, "w") as fh:
            json.dump({"job": self.job, "import_s": import_s, "spans": self.spans,
                       "counters": counters, "scalars": self.scalars}, fh)


def _span_wrapper(rec: Recorder, name: str, fn, sizer):
    sig = inspect.signature(fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(idx)
        info = {}
        if sizer is not None:
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            try:
                info = sizer(bound.arguments, result)
            except (KeyError, AttributeError, TypeError):
                pass  # a changed signature loses the sizes, not the job
        rec.count(name, info)
        return result

    return wrapper


def _generator_wrapper(rec: Recorder, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec.count(name, {})
        gen = fn(*args, **kwargs)
        while True:
            idx = rec.open(name)
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                rec.close(idx)
            yield item

    return wrapper


def _scalar_wrapper(rec: Recorder, name: str, fn):
    acc = rec.scalars.setdefault(name, [0, 0.0])
    spans, stack, clock = rec.spans, rec.stack, time.perf_counter

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        t0 = clock()
        result = fn(*args, **kwargs)
        dt = clock() - t0
        acc[0] += 1
        acc[1] += dt
        if stack:
            spans[stack[-1]][5] += dt
        return result

    return wrapper


def install(rec: Recorder, package: str = PACKAGE) -> dict:
    """Wrap SPANNED and SCALAR functions and rebind every alias of them in
    the loaded modules of `package`.  A function the package no longer has
    is skipped, so its metrics read 0.  Returns {qualified name: wrapper}."""
    originals, wrappers = {}, {}
    for qual in list(SPANNED) + list(SCALAR):
        mod_name, fn_name = qual.split(".")
        fn = getattr(importlib.import_module(f"{package}.{mod_name}"), fn_name, None)
        if fn is None:
            continue
        if qual in SCALAR:
            wrapped = _scalar_wrapper(rec, qual, fn)
        elif qual in GENERATORS:
            wrapped = _generator_wrapper(rec, qual, fn)
        else:
            wrapped = _span_wrapper(rec, qual, fn, SPANNED[qual])
        originals[id(fn)] = (fn, wrapped)
        wrappers[qual] = wrapped
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != package and not mod_name.startswith(package + "."):
            continue
        for attr, val in list(vars(mod).items()):
            hit = originals.get(id(val))
            if hit is not None and hit[0] is val:
                setattr(mod, attr, hit[1])
    return wrappers


def self_times(spans) -> list:
    """Self time of each span: duration minus child spans and scalar calls."""
    out = [s[2] - s[1] - s[5] for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= s[2] - s[1]
    return out


def _div(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(dumps, walls, rows: int, out_bytes: int) -> dict:
    """Per-layer metrics of one traced pass.

    dumps: the span files of the pass's jobs; walls: each job's wall time as
    the parent measured it (spawn to exit); rows, out_bytes: output rows and
    bytes of the pass.  `.s` is self time summed over the pass.
    """
    self_s, ctr, scalar = {}, {}, {}
    import_s = 0.0
    unattributed = 0.0
    for dump, wall in zip(dumps, walls):
        import_s += dump["import_s"]
        st = self_times(dump["spans"])
        for span, t in zip(dump["spans"], st):
            self_s[span[0]] = self_s.get(span[0], 0.0) + t
        for name, c in dump["counters"].items():
            acc = ctr.setdefault(name, {"calls": 0, "elems": 0, "pairs": 0, "members": 0, "keys": 0})
            for k in acc:
                acc[k] += c[k]
        for name, (n, t) in dump["scalars"].items():
            prev = scalar.get(name, (0, 0.0))
            scalar[name] = (prev[0] + n, prev[1] + t)
        scalar_s = sum(t for _, t in dump["scalars"].values())
        unattributed += wall - dump["import_s"] - sum(st) - scalar_s

    def s(name):
        return self_s.get(name, 0.0)

    def c(name, key):
        return ctr.get(name, {}).get(key, 0)

    cli_s = sum(t for n, t in self_s.items() if n.startswith("cli."))
    disp_s = sum(t for n, t in self_s.items() if n.startswith("dispersion."))
    disp_pairs = sum(c(n, "pairs") for n in SPANNED if n.startswith("dispersion."))
    dist_calls, dist_s = scalar.get("diophantine.dist_nearest", (0, 0.0))
    m = {
        "cli.import_s": import_s,
        "cli.self_s": cli_s,
        "cli.ns_per_row": _div(cli_s * 1e9, rows),
        "cli.out_bytes": out_bytes,
        "diophantine.dist_nearest.calls": dist_calls,
        "diophantine.dist_nearest.s": dist_s,
        "diophantine.dist_nearest.ns_per_member": _div(dist_s * 1e9, dist_calls),
        "diophantine.build_target_set.s": s("diophantine.build_target_set"),
        "diophantine.build_target_set.members": c("diophantine.build_target_set", "members"),
        "diophantine.cf_convergents.s": s("diophantine.cf_convergents"),
    }
    lpf = "smooth.largest_prime_factor_array"
    m[lpf + ".elems"] = c(lpf, "elems")
    m[lpf + ".s"] = s(lpf)
    m[lpf + ".ns_per_elem"] = _div(s(lpf) * 1e9, c(lpf, "elems"))
    sv = "smooth.smooth_sieve"
    m[sv + ".calls"] = c(sv, "calls")
    m[sv + ".elems"] = c(sv, "elems")
    m[sv + ".s"] = s(sv)
    m[sv + ".ns_per_elem"] = _div(s(sv) * 1e9, c(sv, "elems"))
    m[sv + ".distinct_ratio"] = _div(c(sv, "keys"), c(sv, "calls"))
    for name in ("smooth.psi", "smooth.saddle_alpha", "smooth.dickman_rho"):
        m[name + ".calls"] = c(name, "calls")
        m[name + ".s"] = s(name)
    m["smooth.local_density.s"] = s("smooth.local_density")
    for name in ("arith.prime_array", "expsums.inverse_table"):
        m[name + ".calls"] = c(name, "calls")
        m[name + ".s"] = s(name)
        m[name + ".distinct_ratio"] = _div(c(name, "keys"), c(name, "calls"))
    kl = "expsums.kl_smooth_average"
    m[kl + ".s"] = s(kl)
    m[kl + ".pairs"] = c(kl, "pairs")
    m[kl + ".ns_per_pair"] = _div(s(kl) * 1e9, c(kl, "pairs"))
    m["dispersion.self_s"] = disp_s
    m["dispersion.pairs"] = disp_pairs
    m["dispersion.ns_per_pair"] = _div(disp_s * 1e9, disp_pairs)
    for fn in ("type1_report", "type2_report", "dispersion_sums", "bilinear_B", "sigma_qR"):
        m[f"dispersion.{fn}.s"] = s(f"dispersion.{fn}")
    m["trace.unattributed_s"] = unattributed
    return m


def unit(metric: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if metric.endswith((".calls", ".elems", ".pairs", ".members")):
        return "count"
    if metric.endswith(("distinct_ratio", "overhead_frac")):
        return "ratio"
    if metric.endswith("_bytes"):
        return "bytes"
    if ".ns_per_" in metric:
        return "ns"
    return "s"


def main(argv) -> int:
    t0 = time.perf_counter()
    if len(argv) < 3 or argv[2] != "--":
        print("usage: tracing.py SPANS.json JOB_ID -- <smoothdio.cli arguments>", file=sys.stderr)
        return 4
    spans_path, job, cli_argv = argv[0], argv[1], argv[3:]
    cli = importlib.import_module(f"{PACKAGE}.cli")
    import_s = time.perf_counter() - t0
    rec = Recorder(job)
    install(rec)
    try:
        return cli.main(cli_argv)
    finally:
        rec.dump(spans_path, import_s)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
