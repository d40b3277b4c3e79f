"""Output oracles for the benchmark's jobs.

None of these checks calls smoothdio: primes, largest prime factors, ‖nα‖,
modular inverses, the bump φ and every sum are recomputed here by separate
code (integer-only where the CLI makes an exact decision).  They run outside
the timed region.

Integer and boolean fields must match exactly.  Float fields must fall within
the tolerances in TOL.
"""

import csv
import json
from math import ceil, exp, floor, gcd, hypot, isqrt, lgamma, log, pi

import numpy as np

from workloads import convergents, primes_upto, scales

TOL = {
    # closed-form floats the CLI evaluates from its inputs (X, R, Y, n^-θ, z, bounds)
    "formula_rel": 1e-12,
    # ‖nα‖ against the exact integer evaluation
    "dist_rel": 1e-12,
    # float sums, relative to the summed magnitude of their terms
    "sum_rel": 1e-9,
    # saddle equation Σ log p/(p^α − 1) − log x, relative to log x
    "saddle_rel": 1e-10,
}

_DIST_SCALE = 1 << 200
PPLUS_TABLE_MAX = 20_000_000


# ---------------------------------------------------------------------------
# independent number theory
# ---------------------------------------------------------------------------


def largest_prime_factors(n: int) -> np.ndarray:
    """lpf[k] = P⁺(k) for 1 ≤ k ≤ n, with P⁺(1) = 1.

    Primes ≤ √n are written in increasing order, so the largest wins; a
    prime above √n divides k at most once and is then P⁺(k), so those are
    written last, grouped by cofactor.
    """
    lpf = np.ones(n + 1, dtype=np.int32)
    ps = primes_upto(n)
    root = isqrt(n)
    for p in ps[ps <= root].tolist():
        lpf[p::p] = p
    big = ps[ps > root]
    for j in range(1, n // (root + 1) + 1):
        P = big[: np.searchsorted(big, n // j, side="right")]
        lpf[j * P] = P
    return lpf


def smooth_mask(ns: np.ndarray, y: float) -> np.ndarray:
    """P⁺(n) ≤ y for each entry, by dividing out every prime ≤ y."""
    rem = np.array(ns, dtype=np.int64)
    for p in primes_upto(int(floor(y))).tolist():
        hit = rem % p == 0
        while hit.any():
            rem[hit] //= p
            hit = rem % p == 0
    return rem == 1


def exact_dists(ns, alpha) -> np.ndarray:
    """‖nα‖ for α = (p + s√d)/r with s > 0, r > 0, from integers only: √d is
    replaced by ⌊√d·2^200⌋/2^200, far below the spacing of the answers, and
    each distance is rounded to a float once, at the end."""
    p, s, d, r = alpha
    S = _DIST_SCALE
    base = p * S + s * isqrt(d * S * S)  # α·r·S, truncated
    den = r * S
    out = []
    for n in ns:
        V = n * base
        j = (2 * V + den) // (2 * den)
        out.append(abs(V - j * den) / den)
    return np.array(out, dtype=np.float64)


def inverses_mod(ns: np.ndarray, m: int) -> np.ndarray:
    """n̄ mod m for each unit n, by a vectorised extended Euclid."""
    r0 = np.full(len(ns), m, dtype=np.int64)
    r1 = np.asarray(ns, dtype=np.int64) % m
    t0 = np.zeros(len(ns), dtype=np.int64)
    t1 = np.ones(len(ns), dtype=np.int64)
    while (r1 != 0).any():
        live = r1 != 0
        quo = np.where(live, r0 // np.where(live, r1, 1), 0)
        r0, r1 = np.where(live, r1, r0), np.where(live, r0 - quo * r1, r1)
        t0, t1 = np.where(live, t1, t0), np.where(live, t0 - quo * t1, t1)
    if (r0 != 1).any():
        raise ValueError("non-unit passed to inverses_mod")
    return t0 % m


def bump(x) -> np.ndarray:
    """φ: the glue bump on [1/4, 3/4], 1 on [1/3, 2/3]."""
    x = np.asarray(x, dtype=np.float64)
    s = np.where(x < 0.5, 12.0 * (x - 0.25), 12.0 * (0.75 - x))
    out = (s >= 1.0).astype(np.float64)
    mid = (s > 0.0) & (s < 1.0)
    a = np.exp(-1.0 / s[mid])
    b = np.exp(-1.0 / (1.0 - s[mid]))
    out[mid] = a / (a + b)
    return out


def dilog(z: float) -> float:
    """Li₂(z) for −2 ≤ z < −1: Landen's identity maps z to w = z/(z − 1) in
    (1/2, 2/3], where the power series converges fast."""
    w = z / (z - 1.0)
    return -sum(w**k / (k * k) for k in range(1, 200)) - 0.5 * log(1.0 - z) ** 2


def rho_closed_form(u: float) -> float:
    """Dickman ρ on [0, 3] in closed form."""
    if u <= 1.0:
        return 1.0
    if u <= 2.0:
        return 1.0 - log(u)
    return 1.0 - (1.0 - log(u - 1.0)) * log(u) + dilog(1.0 - u) + pi * pi / 12.0


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def load_rows(path: str, fmt: str) -> list:
    """Output rows as dicts; CSV cells stay strings."""
    with open(path, newline="") as fh:
        if fmt == "json":
            return json.load(fh)["rows"]
        return list(csv.DictReader(fh))


def _close(got, want, rel: float, scale: float = None) -> bool:
    if got is None:
        return False
    got = float(got)
    return abs(got - want) <= rel * (abs(want) if scale is None else scale)


def _flag(v) -> bool:
    if isinstance(v, bool):
        return v
    if v in ("true", "false"):
        return v == "true"
    raise ValueError(f"not a boolean field: {v!r}")


class Problems(list):
    """The first few problems one check finds, each tagged with the job."""

    def __init__(self, job):
        super().__init__()
        self.job = job

    def add(self, msg: str) -> None:
        if len(self) < 5:
            self.append(f"{self.job.name}: {msg}")


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------


def _expected_members(a: int, q: int, X: float, R: float, Y: float) -> np.ndarray:
    """n ∈ [X/4, 4X] with gcd(n, q) = 1, na mod q ∈ [1, ⌊R⌋] and P⁺(n) ≤ Y,
    ascending, enumerated by residue class r = na mod q."""
    lo, hi = ceil(X / 4), floor(4 * X)
    abar = pow(a, -1, q)
    chunks = []
    for r in range(1, min(floor(R), q - 1) + 1):
        if gcd(r, q) == 1:
            n0 = lo + (abar * r - lo) % q
            chunks.append(np.arange(n0, hi + 1, q, dtype=np.int64))
    ns = np.sort(np.concatenate(chunks)) if chunks else np.zeros(0, dtype=np.int64)
    return ns if Y >= hi else ns[smooth_mask(ns, Y)]


def closed_form_count(a: int, q: int, X: float, R: float) -> int:
    """Member count with vacuous Y: Σ over r ≤ ⌊R⌋ coprime to q of the
    number of n ≡ ā·r (mod q) in [X/4, 4X]."""
    lo, hi = ceil(X / 4), floor(4 * X)
    abar = pow(a, -1, q)
    total = 0
    for r in range(1, min(floor(R), q - 1) + 1):
        if gcd(r, q) == 1:
            n0 = lo + (abar * r - lo) % q
            if n0 <= hi:
                total += (hi - n0) // q + 1
    return total


def check_search(job, path: str):
    c = job.check
    alpha, theta = c["alpha"], c["theta"]
    rows = load_rows(path, job.fmt)
    bad = Problems(job)
    col = lambda key, dtype: np.array([row[key] for row in rows], dtype=dtype)
    q, a_col, n, pplus = (col(k, np.int64) for k in ("q", "a", "n", "pplus"))
    fl = {k: col(k, np.float64) for k in ("X", "R", "Y", "dist", "n_power")}
    within = np.array([_flag(row["within_bound"]) for row in rows], dtype=bool)
    below = np.array([_flag(row["below_power"]) for row in rows], dtype=bool)

    wanted = [(a, qq) for a, qq in convergents(alpha, c["qmax"]) if qq >= max(c["qmin"], 2)]
    starts = np.searchsorted(q, [qq for _, qq in wanted], side="left")
    ends = np.searchsorted(q, [qq for _, qq in wanted], side="right")
    if len(q) and (np.diff(q) < 0).any():
        bad.add("rows are not grouped by ascending q")
    covered = 0
    for (a, qq), i, j in zip(wanted, starts, ends):
        X, R = scales(qq, theta)
        Y = log(X) ** c["C"] if c["Y"] is None else float(c["Y"])
        want = _expected_members(a, qq, X, R, Y)
        count = closed_form_count(a, qq, X, R) if Y >= floor(4 * X) else len(want)
        covered += j - i
        if j - i != count or not np.array_equal(n[i:j], want):
            bad.add(f"q={qq}: {j - i} member rows, expected {count}")
        if j == i:
            continue
        if (a_col[i:j] != a).any():
            bad.add(f"q={qq}: a is not the convergent numerator {a}")
        for key, val in (("X", X), ("R", R), ("Y", Y)):
            if not np.all(np.abs(fl[key][i:j] - val) <= TOL["formula_rel"] * val):
                bad.add(f"q={qq}: {key} differs from {val!r}")
        bound = R / qq + 4 * X / qq**2
        if (within[i:j] != (fl["dist"][i:j] <= bound)).any():
            bad.add(f"q={qq}: within_bound disagrees with dist <= {bound!r}")
    if covered != len(rows):
        bad.add(f"{len(rows) - covered} rows outside the convergents of the window")
    if not len(rows):
        return bad, 0
    if (below != (fl["dist"] < fl["n_power"])).any():
        bad.add("below_power disagrees with dist < n_power")
    if int(n.min()) < 1 or int(n.max()) > PPLUS_TABLE_MAX:
        bad.add("n outside the range the P+ table covers")
    elif not np.array_equal(largest_prime_factors(int(n.max()))[n], pplus):
        bad.add("pplus differs from the largest-prime-factor table")
    dist = exact_dists(n.tolist(), alpha)
    off = np.abs(fl["dist"] - dist) > TOL["dist_rel"] * dist
    if off.any():
        bad.add(f"dist differs from the exact value at n={int(n[np.argmax(off)])}")
    if (np.abs(fl["n_power"] - n.astype(np.float64) ** -float(theta)) > TOL["formula_rel"] * fl["n_power"]).any():
        bad.add("n_power differs from n^-theta")
    return bad, len(rows)


# ---------------------------------------------------------------------------
# tabulations
# ---------------------------------------------------------------------------


def check_psi(job, path: str):
    rows = load_rows(path, job.fmt)
    bad = Problems(job)
    cells = [(x, y) for x in job.check["x"] for y in job.check["y"]]
    if len(rows) != len(cells):
        bad.add(f"{len(rows)} rows, expected {len(cells)}")
        return bad, len(rows)
    lpf = largest_prime_factors(max(job.check["x"]))
    for row, (x, y) in zip(rows, cells):
        want = int(np.count_nonzero(lpf[1 : x + 1] <= y))
        if row.get("x") != x or row.get("y") != y or row.get("psi") != want:
            bad.add(f"psi({x}, {y}) = {row.get('psi')}, expected {want}")
    return bad, len(rows)


def check_alpha(job, path: str):
    rows = load_rows(path, job.fmt)
    bad = Problems(job)
    cells = [(x, y) for x in job.check["x"] for y in job.check["y"]]
    if len(rows) != len(cells):
        bad.add(f"{len(rows)} rows, expected {len(cells)}")
        return bad, len(rows)
    primes = primes_upto(max(job.check["y"])).astype(np.float64)
    for row, (x, y) in zip(rows, cells):
        a = row.get("alpha")
        if row.get("x") != x or row.get("y") != y or a is None or not 0.01 < a < 1.5:
            bad.add(f"alpha({x}, {y}) row malformed: {row}")
            continue
        ps = primes[primes <= y]
        g = float(np.sum(np.log(ps) / (ps**a - 1.0))) - log(x)
        if abs(g) > TOL["saddle_rel"] * log(x) or abs(row.get("residual", 1.0)) > TOL["saddle_rel"] * log(x):
            bad.add(f"alpha({x}, {y}) = {a!r} misses the saddle equation by {g:.3g}")
    return bad, len(rows)


def check_rho(job, path: str):
    rows = load_rows(path, job.fmt)
    bad = Problems(job)
    us, tol = job.check["u"], job.check["tol"]
    if len(rows) != len(us) or [r.get("u") for r in rows] != us:
        bad.add("rows do not follow the u list")
        return bad, len(rows)
    by_u = sorted((r["u"], r.get("rho")) for r in rows)
    prev = 1.0
    for u, v in by_u:
        if v is None or not 0.0 <= v <= prev + tol:
            bad.add(f"rho({u}) = {v} breaks 0 <= rho <= rho(smaller u)")
            continue
        if u <= 3.0:
            if abs(v - rho_closed_form(u)) > tol:
                bad.add(f"rho({u}) = {v!r} differs from the closed form")
        elif v > exp(-lgamma(u + 1.0)) + tol:
            bad.add(f"rho({u}) = {v!r} exceeds 1/Gamma(u+1)")
        prev = v
    return bad, len(rows)


# ---------------------------------------------------------------------------
# sums
# ---------------------------------------------------------------------------


def check_kloosterman(job, path: str):
    c = job.check
    rows = load_rows(path, job.fmt)
    bad = Problems(job)
    if len(rows) != 1:
        bad.add(f"{len(rows)} rows, expected 1")
        return bad, len(rows)
    row = rows[0]
    M, x, a, q, y = c["M"], c["x"], c["a"], c["q"], c["y"]
    n_max = ceil(x) - 1
    lpf = largest_prime_factors(n_max)
    ns = np.arange(1, n_max + 1, dtype=np.int64)
    ns = ns[(lpf[1:] <= y) & (np.gcd(ns, q) == 1)]
    total = 0.0
    for m in range(floor(M) + 1, floor(2 * M) + 1):
        units = ns[np.gcd(ns, m) == 1]
        ang = ((a % m) * inverses_mod(units, m) % m) * (2.0 * pi / m)
        total += hypot(float(np.sum(np.cos(ang))), float(np.sum(np.sin(ang))))
    z = max(x ** (2.0 / 3.0), y)
    eta = c["eta"]
    rhs = (abs(a) * x * M) ** eta * (1.0 + abs(a) / (x * M)) ** 0.5 * (
        M * x**0.5 * y**0.5 * z**0.5 + x**1.5 * M**0.5 * z**-0.25
    ) + M * z
    if (row.get("M"), row.get("x"), row.get("a"), row.get("q"), row.get("y")) != (M, x, a, q, y):
        bad.add("inputs not echoed")
    if not _close(row.get("value"), total, TOL["sum_rel"]):
        bad.add(f"value {row.get('value')!r}, recomputed {total!r}")
    for key, want in (("z", z), ("bound_rhs", rhs)):
        if not _close(row.get(key), want, TOL["formula_rel"]):
            bad.add(f"{key} {row.get(key)!r}, expected {want!r}")
    if not _close(row.get("ratio"), total / rhs, TOL["sum_rel"]):
        bad.add("ratio is not value / bound_rhs")
    return bad, len(rows)


def _dispersion_expected(c) -> dict:
    """Every `dispersion --report all` quantity, recomputed from the inputs.

    Returns {kind: (value, scale, main, extra)} where scale is the summed
    magnitude the value's tolerance is relative to.
    """
    q, a, M, N, R, Y, theta = c["q"], c["a"], c["M"], c["N"], c["R"], c["Y"], c["theta"]
    lpf = largest_prime_factors(ceil(9 * M / 4) + 2 + floor(2 * N))

    def member(ns):
        return (lpf[ns] <= Y) & (np.gcd(ns, q) == 1)

    def window(lo, hi):
        return np.arange(floor(lo) + 1, floor(hi) + 1, dtype=np.int64)

    def weights(ms):  # W[m, n] = φ((m·a·n mod q)/R)
        return bump((((ms * a) % q)[:, None] * (n_all % q)[None, :] % q) / R)

    n_all = window(N, 2 * N)
    ind = member(n_all).astype(np.float64)
    K = ind.sum() / N
    m_win = window(M, 2 * M)
    ms = m_win[member(m_win)]
    W = weights(ms)
    A, B = W @ ind, W.sum(axis=1)
    phi0 = 5.0 / 12.0  # ∫φ, exact by the transition symmetry

    m_w = window(3 * M / 4 - 1, 9 * M / 4 + 1)
    w = bump(m_w / (3.0 * M))
    m_w, w = m_w[w > 0.0], w[w > 0.0]
    Ww = weights(m_w)
    Aw, Bw = Ww @ ind, Ww.sum(axis=1)
    S1 = float(np.sum(w * Aw * Aw))
    S2 = float(K * np.sum(w * Aw * Bw))
    S3 = float(K * K * np.sum(w * Bw * Bw))
    Sp = S1 - 2.0 * S2 + S3
    D = float(np.sum(A - K * B))

    X, Rs = scales(q, theta)
    lo, hi = ceil(X / 4), floor(4 * X)
    abar = pow(a, -1, q)
    rs = np.arange(max(1, floor(Rs / 4)), min(q - 1, ceil(3 * Rs / 4)) + 1)
    cand, wts = [], []
    for r, wr in zip(rs.tolist(), bump(rs / Rs).tolist()):
        if gcd(r, q) == 1 and wr > 0.0:
            ns = np.arange(lo + (abar * r - lo) % q, hi + 1, q, dtype=np.int64)
            cand.append(ns)
            wts.append(np.full(len(ns), wr))
    cand, wts = np.concatenate(cand), np.concatenate(wts)
    sigma = float(np.sum(wts[smooth_mask(cand, Y)]))
    c_eff = log(Y) / log(log(X))
    sigma_main = Rs ** (2.0 - float(1 - theta) / (2.0 * c_eff))

    return {
        "type1": (float(B.sum()), float(B.sum()), phi0 * N * R / q * len(ms), None),
        "bilinear": (float(A.sum()), float(A.sum()), phi0 * (R / q) * len(ms) * float(ind.sum()), None),
        "sums": (Sp, S1 + 2 * abs(S2) + S3, None, {"S1": S1, "S2": S2, "S3": S3}),
        "type2": (D, float(np.sum(A) + K * np.sum(B)), R ** (2.0 - c["eta"]),
                  {"S1": S1, "S2": S2, "S3": S3, "Sprime": Sp, "D_sq": D * D, "M_Sprime": M * Sp,
                   "ok": D * D <= M * Sp * (1.0 + 1e-9) + 1e-12}),
        "sigma": (sigma, sigma, sigma_main, {"X": X, "R": Rs}),
    }


def check_dispersion(job, path: str):
    c = job.check
    rows = load_rows(path, job.fmt)
    bad = Problems(job)
    kinds = ["type1", "type2", "sums", "bilinear", "sigma"]
    if [r.get("kind") for r in rows] != kinds:
        bad.add(f"report kinds {[r.get('kind') for r in rows]}, expected {kinds}")
        return bad, len(rows)
    exp_ = _dispersion_expected(c)
    rel = TOL["sum_rel"]
    for row in rows:
        kind = row["kind"]
        value, scale, main, extra = exp_[kind]
        p = row.get("params") or {}
        if not _close(row.get("value"), value, rel, scale):
            bad.add(f"{kind} value {row.get('value')!r}, recomputed {value!r}")
        if row.get("runtime_ms") != 0.0:
            bad.add(f"{kind} runtime_ms is not serialized as 0")
        if main is not None:
            if not _close(row.get("main_term"), main, TOL["formula_rel"]):
                bad.add(f"{kind} main_term {row.get('main_term')!r}, expected {main!r}")
            if not _close(row.get("ratio"), value / main, rel, scale / main):
                bad.add(f"{kind} ratio is not value / main_term")
        if kind == "sums":
            for key in ("S1", "S2", "S3"):
                if not _close(p.get(key), extra[key], rel, scale):
                    bad.add(f"sums {key} {p.get(key)!r}, recomputed {extra[key]!r}")
        elif kind == "type2":
            sums, cs = p.get("sums") or {}, p.get("cauchy_schwarz") or {}
            sp_scale = extra["S1"] + 2 * abs(extra["S2"]) + extra["S3"]
            for key in ("S1", "S2", "S3", "Sprime"):
                if not _close(sums.get(key), extra[key], rel, sp_scale):
                    bad.add(f"type2 {key} {sums.get(key)!r}, recomputed {extra[key]!r}")
            if not _close(cs.get("D_sq"), extra["D_sq"], rel, scale * scale):
                bad.add("type2 D_sq differs")
            if not _close(cs.get("M_Sprime"), extra["M_Sprime"], rel, c["M"] * sp_scale):
                bad.add("type2 M_Sprime differs")
            if cs.get("ok") is not extra["ok"]:
                bad.add("type2 Cauchy-Schwarz flag differs")
        elif kind == "sigma":
            for key in ("X", "R"):
                if not _close(p.get(key), extra[key], TOL["formula_rel"]):
                    bad.add(f"sigma {key} {p.get(key)!r}, expected {extra[key]!r}")
            if (p.get("q"), p.get("a"), p.get("theta")) != (c["q"], c["a"], str(c["theta"])):
                bad.add("sigma inputs not echoed")
        if kind in ("type1", "type2", "bilinear") and (p.get("M"), p.get("N"), p.get("q"), p.get("a"), p.get("R"), p.get("Y")) != (
            c["M"], c["N"], c["q"], c["a"], c["R"], c["Y"]
        ):
            bad.add(f"{kind} inputs not echoed")
    return bad, len(rows)


CHECKS = {
    "search": check_search,
    "psi": check_psi,
    "alpha": check_alpha,
    "rho": check_rho,
    "kloosterman": check_kloosterman,
    "dispersion": check_dispersion,
}


def check(job, path: str):
    """(problems, row count) for one job's output file."""
    return CHECKS[job.kind](job, path)
