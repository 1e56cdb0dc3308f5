"""Independent correctness routes for every operation the benchmark runs.

None of these routes calls the sieve, the L-function layer or the
Diophantine module of `modchar`. Character values come from `eval_char`
(exact angles, one discrete log per residue), or, for the real character
mod a prime near 1e6, from Euler's criterion, cross-checked against
`eval_char` on a sample of residues.

Rounding models, with u = 2^-53 and u80 = 2^-64:

- Partial sums, real f: exact integers on both routes, so equality.
- Partial sums, complex f: the program rounds each f(n) once and sums each
  4096-chunk left to right, so its error is at most u (CHUNK + 1) x plus
  2u|M| for the compensated fold. The reference M(x) = sum_d h(d) X(x/d)
  adds, per smooth d, r^2 u for the prefix X over r = floor(x/d) mod q
  residues and (n_d + 64)u |h(d) X| for h(d) (at most 31 prime factors)
  and the fold over n_d terms. The tolerance is sqrt(2) times the sum.
- Riesz means: the reference sums f(n) (log x - log n)^k in 80-bit
  longdouble. Each log carries u80 log x absolute error, so each weight
  carries k u80 log x (log x/n)^(k-1); the running dot product adds at most
  (x + 64k) u80 times the mass sum |f(n)| (log x/n)^k. A correct output is
  the true value rounded to complex128, within 2u|R|. The tolerance is the
  sum of these terms and owes nothing to how the program computes R.
- L-values: the program promises |L - L_true| <= eps plus one ulp of each
  component; the reference is q^-s sum_a chi(a) zeta(s, a/q) with mpmath's
  Hurwitz zeta at 35 digits (the formula of mpmath.dirichlet, which is
  far slower at s = -0.5).
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from modchar.summation import CHUNK     # the reduction grid, for rounding models

U = 2.0 ** -53
U80 = 2.0 ** -64
FE_LIMIT = 1e-8
DEFAULT_EPS = 1e-12


# ----------------------------------------------------------------- f model

@dataclass
class FModel:
    """f = chi * h, with chi per residue and h on S-smooth numbers."""

    q: int
    chi: np.ndarray             # int64 (real) or complex128 per residue
    prefix: np.ndarray          # prefix[r] = chi(1) + ... + chi(r)
    overrides: dict             # p -> Fraction angle of f(p)
    real: bool
    angles: list | None         # Fraction or None (zero) per residue, small q

    def angle(self, n: int) -> Fraction | None:
        """Exact angle of chi(n) in turns, None where chi(n) = 0."""
        if self.angles is not None:
            return self.angles[n % self.q]
        v = int(self.chi[n % self.q])
        return None if v == 0 else (Fraction(0) if v == 1 else Fraction(1, 2))

    @property
    def parity(self) -> int:
        return 1 if self.angle(self.q - 1) == 0 else -1


def _unit(angle: Fraction) -> complex:
    a = angle % 1
    if a == 0:
        return 1 + 0j
    if a == Fraction(1, 2):
        return -1 + 0j
    return complex(np.exp(2j * np.pi * float(a)))


def _legendre_table(q: int) -> np.ndarray:
    """r^((q-1)/2) mod q for every residue, as -1, 0, 1 (Euler's criterion)."""
    r = np.arange(q, dtype=np.int64)
    out = np.ones(q, dtype=np.int64)
    base = r.copy()
    e = (q - 1) // 2
    while e:
        if e & 1:
            out = out * base % q
        base = base * base % q
        e >>= 1
    out[out == q - 1] = -1
    return out


def model_from_doc(doc: dict) -> FModel:
    from modchar.characters import (Character, character_from_label,
                                    character_group, eval_char, is_prime)
    ch = doc["character"]
    if "label" in ch:
        chi = character_from_label(ch["label"])
    else:
        chi = Character(character_group(ch["modulus"]),
                        tuple(ch["exponents"]))
    q = chi.modulus
    overrides = {m["p"]: Fraction(*m["angle"]) % 1
                 for m in doc.get("modifications", [])}
    real_f = all(a in (0, Fraction(1, 2)) for a in overrides.values())
    if q <= 20_000:
        angles = [eval_char(chi, r).angle for r in range(q)]
        real = real_f and all(a is None or a in (0, Fraction(1, 2))
                              for a in angles)
        if real:
            vals = np.array([0 if a is None else (1 if a == 0 else -1)
                             for a in angles], dtype=np.int64)
        else:
            vals = np.array([0j if a is None else _unit(a) for a in angles],
                            dtype=np.complex128)
    else:
        if chi.order != 2 or not is_prime(q) or not real_f:
            raise ValueError("large moduli are checked only for real f over"
                             " the quadratic character mod a prime")
        angles, real = None, True
        vals = _legendre_table(q)
        for r in range(1, q, max(1, q // 256)):
            want = Fraction(0) if vals[r] == 1 else Fraction(1, 2)
            if eval_char(chi, r).angle != want:
                raise ValueError(f"Euler's criterion disagrees with eval_char"
                                 f" at {r} mod {q}")
    prefix = np.concatenate([np.zeros(1, dtype=vals.dtype),
                             np.cumsum(vals[1:])])
    return FModel(q, vals, prefix, overrides, real, angles)


def _chi_value(model: FModel, p: int):
    a = model.angle(p)
    if a is None:
        return 0
    return _unit(a) if not model.real else (1 if a == 0 else -1)


def smooth_terms(model: FModel, xmax: int):
    """S-smooth d <= xmax with h(d), h(p^e) = f(p)^(e-1) (f(p) - chi(p))."""
    items = [(1, 1 if model.real else 1 + 0j, 0)]     # (d, h(d), Omega(d))
    for p, theta in sorted(model.overrides.items()):
        cp = _chi_value(model, p)
        new = []
        for d, h, om in items:
            pe, e = p, 1
            while d * pe <= xmax:
                if model.real:
                    fp = 1 if theta == 0 else -1
                    hv = fp ** (e - 1) * (fp - cp)
                else:
                    hv = _unit(theta * (e - 1)) * (_unit(theta) - cp)
                new.append((d * pe, h * hv, om + e))
                pe *= p
                e += 1
        items += new
    ds = np.array([d for d, _, _ in items], dtype=np.int64)
    dtype = np.int64 if model.real else np.complex128
    hs = np.array([h for _, h, _ in items], dtype=dtype)
    return ds, hs


def euler_sums(model: FModel, xs: np.ndarray):
    """M(x) = sum_d h(d) X(floor(x/d)) and the reference's rounding mass."""
    ds, hs = smooth_terms(model, int(xs.max()))
    out = np.zeros(len(xs), dtype=hs.dtype)
    mass = np.zeros(len(xs))
    for d, h in zip(ds.tolist(), hs.tolist()):
        r = (xs // d) % model.q
        pr = model.prefix[r]
        out += h * pr
        if not model.real:
            rf = r.astype(np.float64)
            mass += abs(h) * (rf * rf + (len(ds) + 64) * np.abs(pr))
    return out, mass


def f_values(model: FModel, x: int) -> np.ndarray:
    """f(0..x) by the Dirichlet convolution f = chi * h (f(0) unused)."""
    ds, hs = smooth_terms(model, x)
    f = np.zeros(x + 1, dtype=hs.dtype)
    for d, h in zip(ds.tolist(), hs.tolist()):
        m = x // d
        f[d::d] += h * model.chi[np.arange(1, m + 1) % model.q]
    return f


# ------------------------------------------------------------ CSV helpers

def rule_points(rule: str, x: int) -> list[int]:
    """The checkpoint set a rule names, from the documented rule grammar."""
    name, _, arg = rule.partition(":")
    pts: list[int] = []
    if name == "every":
        pts = list(range(int(arg), x + 1, int(arg)))
    elif name == "geometric":
        r = float(arg)
        c = 1
        while c <= x:
            pts.append(c)
            c = max(c + 1, int(c * r))
    else:
        raise ValueError(f"rule {rule!r} not used by the benchmark")
    if not pts or pts[-1] != x:
        pts.append(x)
    return sorted(set(pts))


def _csv_rows(text: str, header: str) -> list[list[str]]:
    lines = text.splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"expected header {header!r}")
    return [ln.split(",") for ln in lines[1:]]


def check_sums_csv(model: FModel, text: str, rule: str, x: int) -> list[str]:
    """A sums CSV against the Euler-factor identity at every checkpoint."""
    try:
        rows = _csv_rows(text, "x,re_sum,im_sum")
    except ValueError as e:
        return [str(e)]
    xs = [int(r[0]) for r in rows]
    if xs != rule_points(rule, x):
        return [f"checkpoints differ from rule {rule} up to {x}"]
    xa = np.array(xs, dtype=np.int64)
    want, mass = euler_sums(model, xa)
    re_ = np.array([float(r[1]) for r in rows])
    im_ = np.array([float(r[2]) for r in rows])
    if model.real:
        bad = np.flatnonzero((re_ != want.astype(np.float64)) | (im_ != 0))
        if len(bad):
            i = int(bad[0])
            return [f"M({xs[i]}) = {rows[i][1]} + {rows[i][2]}i,"
                    f" exact {int(want[i])} ({len(bad)} rows differ)"]
        return []
    got = re_ + 1j * im_
    gap = np.abs(got - want)
    tol = math.sqrt(2) * U * ((CHUNK + 1) * xa + 2 * np.abs(want) + mass)
    bad = np.flatnonzero(gap > tol)
    if len(bad):
        i = int(bad[0])
        return [f"M({xs[i]}) off by {gap[i]:.3e} > tol {tol[i]:.3e}"
                f" ({len(bad)} rows)"]
    return []


def check_simulate(op, texts: dict, configs: dict) -> list[str]:
    doc = configs[op.meta["config"]]
    argv = op.argv
    rule = argv[argv.index("--checkpoints") + 1] if "--checkpoints" in argv \
        else doc["checkpoints"]
    model = model_from_doc(doc)
    return check_sums_csv(model, texts[op.files[0]], rule, doc["x_max"])


# ------------------------------------------------------------------ verify

def riesz_reference(f: np.ndarray, logs: np.ndarray, x: int, k: int):
    """(sum f(n) (log x - log n)^k, its tolerance) with the direct sum in
    longdouble; see the module docstring for the rounding model."""
    lx = np.log(np.longdouble(x))
    base = lx - logs[1:x + 1]
    w = base ** k
    fr = f[1:x + 1]
    if np.iscomplexobj(fr):
        ref = complex(float(np.dot(fr.real.astype(np.longdouble), w)),
                      float(np.dot(fr.imag.astype(np.longdouble), w)))
    else:
        ref = complex(float(np.dot(fr.astype(np.longdouble), w)), 0.0)
    absf = np.abs(fr).astype(np.longdouble)
    mass = float(np.dot(absf, w))
    dmass = float(np.dot(absf, base ** (k - 1))) * k * float(lx) if k else 0.0
    tol = 2 * U * abs(ref) + U80 * (dmass + (x + 64 * k) * mass)
    return ref, tol


def check_verify(op, texts: dict, configs: dict, stats: dict,
                 samples: list[int]) -> list[str]:
    doc = configs[op.meta["config"]]
    x = doc["x_max"]
    k = op.meta["k"]
    sums_t, riesz_t, report_t, _ = (texts[p] for p in op.files)
    model = model_from_doc(doc)
    problems = check_sums_csv(model, sums_t, "geometric:1.05", x)
    try:
        report = json.loads(report_t)
        rows = _csv_rows(riesz_t, "x,k,re_value,im_value")
    except ValueError as e:
        return problems + [f"unreadable verify output: {e}"]
    n_want = _pole_order(model)
    if report.get("k") != k or report.get("N") != n_want:
        problems.append(f"report k = {report.get('k')}, N = {report.get('N')};"
                        f" expected k = {k}, N = {n_want}")
    by_k: dict[int, list[list[str]]] = {}
    for r in rows:
        by_k.setdefault(int(r[1]), []).append(r)
    if sorted(by_k) != sorted({0, k}):
        return problems + [f"riesz orders {sorted(by_k)}, expected {{0, {k}}}"]
    sums_rows = [r.split(",") for r in sums_t.splitlines()[1:]]
    zero = [[r[0], r[2], r[3]] for r in by_k[0]]
    if zero != sums_rows:
        problems.append("k = 0 Riesz row differs from the sums CSV")
    top = by_k[k]
    xs = [int(r[0]) for r in top]
    f = f_values(model, x)
    logs = np.zeros(x + 1, dtype=np.longdouble)
    logs[1:] = np.log(np.arange(1, x + 1, dtype=np.longdouble))
    for i in samples:
        i = i % len(xs)
        ref, tol = riesz_reference(f, logs, xs[i], k)
        got = complex(float(top[i][2]), float(top[i][3]))
        gap = abs(got - ref)
        stats["riesz_max_rel_err"] = max(stats.get("riesz_max_rel_err", 0.0),
                                         gap / max(abs(ref), 1.0))
        if gap > tol:
            problems.append(f"R_{k}({xs[i]}) = {got!r}, direct sum {ref!r},"
                            f" gap {gap:.3e} > tol {tol:.3e}")
    return problems


# -------------------------------------------------------------------- lfun

_L_LINE = re.compile(r"^L\((?P<s>[^,]*), chi_\[(?P<label>[^\]]*)\]\)"
                     r" = (?P<re>\S+) \+ (?P<im>\S+)i$")
_FE_LINE = re.compile(r"^functional equation residual: (?P<val>.*)$")


def _mp_chi(model: FModel):
    import mpmath as mp
    return [mp.mpc(0) if a is None else mp.expjpi(2 * mp.mpf(a.numerator)
                                                  / a.denominator)
            for a in model.angles]


def _mp_dirichlet(s, chi: list, derivative: int = 0):
    """L(s, chi) or L'(s, chi) = d/ds q^-s sum_a chi(a) zeta(s, a/q), by
    mpmath's Hurwitz zeta at the caller's working precision."""
    import mpmath as mp
    q = len(chi)
    s = mp.mpc(s)
    terms = [(chi[a % q], mp.mpf(a) / q) for a in range(1, q + 1)
             if chi[a % q] != 0]
    scale = mp.power(q, -s)
    val = mp.fsum(c * mp.zeta(s, a) for c, a in terms)
    if not derivative:
        return scale * val
    dval = mp.fsum(c * mp.zeta(s, a, 1) for c, a in terms)
    return scale * (dval - mp.log(q) * val)


def _label_model(label: str) -> FModel:
    from modchar.characters import character_from_label
    chi = character_from_label(label)
    return model_from_doc({"character": {"modulus": chi.modulus,
                                         "exponents": list(chi.exponents)}})


def check_lfun(op, stdout: str, stats: dict) -> list[str]:
    import mpmath as mp
    lines = stdout.splitlines()
    m = _L_LINE.match(lines[0]) if lines else None
    if m is None or m["label"] != op.meta["label"]:
        return [f"unexpected lfun output {stdout[:80]!r}"]
    got = complex(float(m["re"]), float(m["im"]))
    s = op.meta["s"]
    model = _label_model(op.meta["label"])
    with mp.workdps(35):
        ref = complex(_mp_dirichlet(mp.mpc(s.real, s.imag), _mp_chi(model)))
    gap = abs(got - ref)
    tol = DEFAULT_EPS + math.ulp(abs(got.real)) + math.ulp(abs(got.imag))
    stats["lfun_max_abs_err"] = max(stats.get("lfun_max_abs_err", 0.0), gap)
    problems = []
    if gap > tol:
        problems.append(f"L({s}) = {got!r}, mpmath {ref!r}, gap {gap:.3e}"
                        f" > {tol:.3e}")
    fe = _FE_LINE.match(lines[1]) if len(lines) > 1 else None
    if fe is None:
        return problems + ["missing functional equation line"]
    pole = s.imag == 0 and s.real >= 1 and s.real == int(s.real)
    if pole:
        if not fe["val"].startswith("skipped"):
            problems.append(f"FE at the Gamma pole s = {s} not skipped")
    else:
        try:
            resid = float(fe["val"])
        except ValueError:
            return problems + [f"FE residual {fe['val']!r} not a number"]
        if not resid <= FE_LIMIT:
            problems.append(f"FE residual {resid:.3e} > {FE_LIMIT}")
    return problems


def _pole_order(model: FModel) -> int:
    t = (sum(1 for th in model.overrides.values() if th == 0)
         - sum(1 for p in model.overrides
               if model.angle(p) == 0))
    return max(0, t) if model.parity == -1 else max(0, t - 1)


def _kmin(model: FModel, gamma: float = 1.0) -> int:
    if not model.overrides:
        return 0
    worst = max(math.log(p) for p in model.overrides) ** 2
    return math.ceil(10 + gamma * (len(model.overrides) + 1) * worst)


def check_coeff(op, stdout: str, configs: dict) -> list[str]:
    """a_(N+k) against c_chi * k!/(N+k)! * factors, all recomputed in mpmath.

    c_chi is L(0, chi) = -(1/q) sum a chi(a) for odd chi and L'(0, chi) from
    mpmath's own Dirichlet-series derivative for even chi. The program's
    double-precision sum has q terms of relative error u each, so 1e-12 q
    relative leaves three orders of magnitude for cancellation.
    """
    import mpmath as mp
    try:
        doc = json.loads(stdout)
    except ValueError as e:
        return [f"coeff output is not JSON: {e}"]
    model = model_from_doc(configs[op.meta["config"]])
    n, k = _pole_order(model), _kmin(model)
    problems = []
    if doc.get("N") != n or doc.get("k") != k:
        problems.append(f"coeff N, k = {doc.get('N')}, {doc.get('k')};"
                        f" expected {n}, {k}")
    tol = 1e-12 * model.q
    with mp.workdps(30):
        chi = _mp_chi(model)
        q = model.q
        if model.parity == -1:
            c = -mp.fsum(a * chi[a] for a in range(1, q)) / q
        else:
            c = _mp_dirichlet(0, chi, derivative=1)
        value = c * mp.factorial(k) / mp.factorial(n + k)
        for p, th in sorted(model.overrides.items()):
            cp = chi[p % q]
            fp = mp.expjpi(2 * mp.mpf(th.numerator) / th.denominator)
            lp = mp.log(p)
            if th == 0:
                value *= (1 - cp) / lp
            elif model.angle(p) == 0:
                value *= lp / (1 - fp)
            else:
                value *= (1 - cp) / (1 - fp)
        c, value = complex(c), complex(value)
    for name, ref in (("c_chi", c), ("value", value)):
        got = complex(*doc.get(name, [math.nan, math.nan]))
        if not abs(got - ref) <= tol * max(abs(ref), 1e-300):
            problems.append(f"coeff {name} = {got!r}, recomputed {ref!r}")
    return problems


def check_kmin(op, stdout: str, configs: dict) -> list[str]:
    model = model_from_doc(configs[op.meta["config"]])
    m = re.match(r"^k_min = (\d+) ", stdout)
    if m is None or int(m[1]) != _kmin(model):
        return [f"kmin printed {stdout[:40]!r}, expected {_kmin(model)}"]
    return []


def check_dioph(op, stdout: str) -> list[str]:
    """Each convergent h/b of log p / log q: recurrence and |a - h/b| < 1/b^2."""
    import mpmath as mp
    try:
        doc = json.loads(stdout)
    except ValueError as e:
        return [f"dioph output is not JSON: {e}"]
    rows = doc.get("rows", [])
    if not rows:
        return ["dioph returned no convergents"]
    problems = []
    h2, h1, b2, b1 = 0, 1, 1, 0
    with mp.workprec(2 * doc.get("precision", 256) + 64):
        alpha = mp.log(op.meta["p"]) / mp.log(op.meta["q"])
        for row in rows:
            h2, h1 = h1, row["a"] * h1 + h2
            b2, b1 = b1, row["a"] * b1 + b2
            if (row["h"], row["b"]) != (h1, b1):
                problems.append(f"convergent {row['h']}/{row['b']} breaks"
                                f" the recurrence")
                break
            if not abs(alpha - mp.mpf(h1) / b1) < mp.mpf(1) / b1 ** 2:
                problems.append(f"|alpha - {h1}/{b1}| >= 1/b^2")
    return problems


def check_poleseries(op, texts: dict, configs: dict) -> list[str]:
    """Terms n^-k prod 1/|2 sin(pi n log p/log anchor)| and their running sum.

    Terms at n = 1..64 and at every 97th dense row are recomputed in
    mpmath (relative 1e-9: the program's 63-bit fixed-point angles lose at
    most pi n 2^-63 / |sin| there); partial sums over the dense rows must
    equal the float running sum of the printed terms to 1e-12 relative.
    """
    import mpmath as mp
    try:
        rows = _csv_rows(texts[op.files[0]], "n,term,partial_sum")
    except ValueError as e:
        return [str(e)]
    model = model_from_doc(configs[op.meta["config"]])
    anchor, k = op.meta["anchor"], op.meta["k"]
    others = [p for p in sorted(model.overrides) if p != anchor]
    ns = [int(r[0]) for r in rows]
    terms = [float(r[1]) for r in rows]
    parts = [float(r[2]) for r in rows]
    dense = min(4096, op.meta["nmax"])
    if ns[:dense] != list(range(1, dense + 1)) or ns[-1] != op.meta["nmax"]:
        return ["pole series rows are not n = 1..4096 plus checkpoints"]
    problems = []
    with mp.workdps(30):
        la = mp.log(anchor)
        ratios = [mp.log(p) / la for p in others]
        for i in list(range(64)) + list(range(64, dense, 97)):
            n = ns[i]
            ref = mp.mpf(n) ** -k
            for a in ratios:
                ref /= abs(2 * mp.sin(mp.pi * n * a))
            if not abs(terms[i] - ref) <= 1e-9 * ref:
                problems.append(f"pole term at n = {n}: {terms[i]!r} vs"
                                f" {float(ref)!r}")
                break
    run = 0.0
    for i in range(dense):
        run += terms[i]
        if not abs(parts[i] - run) <= 1e-12 * abs(run):
            problems.append(f"partial sum at n = {ns[i]} is {parts[i]!r},"
                            f" running sum of terms {run!r}")
            break
    return problems


def check_op(op, stdout: str, texts: dict, configs: dict, stats: dict,
             samples: list[int]) -> list[str]:
    """Problems found in one operation's outputs; empty when it is correct."""
    missing = [p for p in op.files if p not in texts]
    if missing:
        return [f"output not written: {', '.join(missing)}"]
    if op.kind == "simulate":
        return check_simulate(op, texts, configs)
    if op.kind == "verify":
        return check_verify(op, texts, configs, stats, samples)
    if op.kind == "lfun":
        return check_lfun(op, stdout, stats)
    if op.kind == "coeff":
        return check_coeff(op, stdout, configs)
    if op.kind == "kmin":
        return check_kmin(op, stdout, configs)
    if op.kind == "dioph":
        return check_dioph(op, stdout)
    if op.kind == "poleseries":
        return check_poleseries(op, texts, configs)
    return [f"no check for {op.kind}"]
