"""Seeded inputs and fixed operation lists for the three workloads.

Every workload draws its characters, override primes and angles from a
family of fixed shape: the sieve range, |S|, the class of the angle
orders, the auto Riesz order and the moduli's size are the same for every
seed, so the work in one run does not depend on the seed. The seed only
picks which member of the family runs.

Each operation is one `modchar.cli.main(argv)` call at the CLI defaults
(one sieve worker thread, default block size, default eps). The checker
in `checks.py` gets the generated configs and the op metadata, never
anything computed by the program under test.

- sums: `simulate` on fig1, a complex config whose value order stays at
  or below 2^16 (the sieve's exp_table path), a complex config of order
  above 2^16 (the direct np.exp path) and the real character mod a prime
  near 1e6 (an 8 MB angle table, past the 2 MB per-core L2). Each runs on
  the geometric:1.01 grid and on a dense every:n grid that puts the
  checkpoint walk and CSV formatting in view.
- verify: `verify` with auto Riesz order 39 on fig1, a seed-drawn real
  config and a seed-drawn complex config, all with N >= 1.
- lfun: `lfun` at s = 0.5, 0.5+3i, -0.5 and 2 on an odd and an even
  complex character, plus `coeff`, `kmin`, `dioph` and `poleseries` on
  configs built over the same characters. The sieve never runs here.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

# Sizes used by the benchmark. Tests pass smaller ones.
DEFAULT_SIZES = {
    "sums_x": 2_000_000,
    "sums_every": 100,
    "bigq_range": (999_000, 1_000_000),
    "verify_x": 600_000,
    "lfun_moduli": (61, 59),     # odd character mod the first, even mod the second
    "poleseries_nmax": 100_000,
}

SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
FIG1 = {"label": "3.2", "mods": [(2, (0, 1)), (3, (0, 1)), (5, (0, 1)),
                                 (11, (0, 1))]}


@dataclass
class Op:
    """One CLI call plus what the checker needs to know about it."""

    kind: str                      # simulate, verify, lfun, coeff, ...
    argv: list[str]
    files: list[str] = field(default_factory=list)   # outputs it writes
    requested_x: int = 0           # x the user asked the sieve for
    meta: dict = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    seed: int
    ops: list[Op]
    configs: dict[str, dict]       # config path -> JSON document


def _primes_in(lo: int, hi: int) -> list[int]:
    from modchar.characters import is_prime
    return [n for n in range(lo, hi) if is_prime(n)]


def _random_prime(rng, lo: int, hi: int) -> int:
    from modchar.characters import is_prime
    cands = list(range(lo, hi))
    rng.shuffle(cands)
    return next(n for n in cands if is_prime(n))


def _angle_of(chi, p) -> Fraction | None:
    from modchar.characters import eval_char
    return eval_char(chi, p).angle


def _character(q: int, exponent: int):
    from modchar.characters import Character, character_group
    grp = character_group(q)
    return Character(grp, (exponent % grp.orders[0],))


def _config_doc(chi, mods, x_max: int, checkpoints="geometric:1.01") -> dict:
    return {
        "character": {"modulus": chi.modulus, "exponents": list(chi.exponents)},
        "modifications": [{"p": p, "angle": [int(a), int(b)]}
                          for p, (a, b) in mods],
        "x_max": int(x_max),
        "checkpoints": checkpoints,
        "orders": "auto",
    }


def _fig1_doc(x_max: int) -> dict:
    return {
        "character": {"label": FIG1["label"]},
        "modifications": [{"p": p, "angle": list(a)} for p, a in FIG1["mods"]],
        "x_max": int(x_max),
        "checkpoints": "geometric:1.01",
        "orders": "auto",
    }


def _pick_prime_char(rng, primes, accept):
    """First (q, chi) over shuffled prime moduli and exponents that accept()."""
    primes = list(primes)
    rng.shuffle(primes)
    for q in primes:
        exps = list(range(1, q - 1))
        rng.shuffle(exps)
        for c in exps:
            chi = _character(q, c)
            if accept(chi):
                return chi
    raise RuntimeError("no character in the family satisfies the shape")


def _real_overrides(chi, primes) -> list:
    """f(p) = -chi(p) where chi(p) = +-1, f(p) = +1 where chi(p) = 0."""
    out = []
    for p in primes:
        ang = _angle_of(chi, p)
        out.append((p, (1, 2) if ang == 0 else (0, 1)))
    return out


def _write_config(workdir: str, name: str, doc: dict, configs: dict) -> str:
    path = os.path.join(workdir, f"{name}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    configs[path] = doc
    return path


def build_sums(rng, workdir, sizes) -> tuple[list[Op], dict]:
    x = sizes["sums_x"]
    every = sizes["sums_every"]
    configs: dict[str, dict] = {}
    docs = {"fig1": _fig1_doc(x)}

    # complex, value order <= 2^16: order-6 character, overrides e(a/12)
    def small_order(chi):
        return chi.order == 6
    chi = _pick_prime_char(rng, [p for p in _primes_in(100, 1000)
                                 if p % 6 == 1], small_order)
    primes = sorted(rng.sample(SMALL_PRIMES, 4))
    mods = []
    for p in primes:
        ang = _angle_of(chi, p)
        choices = [a for a in range(1, 12) if Fraction(a, 12) != ang]
        mods.append((p, (rng.choice(choices), 12)))
    docs["cplx_small"] = _config_doc(chi, mods, x)

    # complex, value order > 2^16: one override e(a/b) with prime b > 2^16
    chi = _pick_prime_char(rng, [p for p in _primes_in(100, 1000)
                                 if p % 4 == 3],
                           lambda c: c.order == 2)
    primes = sorted(rng.sample(SMALL_PRIMES, 4))
    b_big = rng.choice(_primes_in(65_537, 66_000))
    mods = [(primes[0], (rng.randrange(1, b_big), b_big))]
    for p in primes[1:]:
        ang = _angle_of(chi, p)
        choices = [(a, b) for b in (3, 5, 8) for a in range(1, b)
                   if Fraction(a, b) != ang]
        mods.append((p, rng.choice(choices)))
    docs["cplx_big"] = _config_doc(chi, mods, x)

    # real character mod a prime near 1e6
    lo, hi = sizes["bigq_range"]
    q = _random_prime(rng, lo, hi)
    chi = _character(q, (q - 1) // 2)
    primes = sorted(rng.sample(SMALL_PRIMES, 4))
    docs["real_bigq"] = _config_doc(chi, _real_overrides(chi, primes), x)

    ops = []
    for name, doc in docs.items():
        path = _write_config(workdir, f"sums_{name}", doc, configs)
        for grid, extra in (("geo", []),
                            ("every", ["--checkpoints", f"every:{every}"])):
            out = os.path.join(workdir, f"sums_{name}_{grid}.csv")
            ops.append(Op("simulate", ["simulate", path, "--out", out] + extra,
                          files=[out], requested_x=x,
                          meta={"config": path}))
    return ops, configs


def build_verify(rng, workdir, sizes) -> tuple[list[Op], dict]:
    """fig1 plus two drawn odd-character configs with S = {11} + 3 of 2..7.

    Every override sits at a prime with chi(p) != 1 and |S| = 4 with
    max S = 11, so T = N = 4 for the real config, N = 3 for the complex
    one (one override is a non-real root of unity) and auto k = 39 for all.
    """
    x = sizes["verify_x"]
    configs: dict[str, dict] = {}
    primes = sorted(rng.sample((2, 3, 5, 7), 3)) + [11]
    docs = {"fig1": _fig1_doc(x)}

    def no_ones(real):
        def accept(chi):
            from modchar.characters import parity
            if parity(chi) != -1 or (chi.order == 2) != real:
                return False
            return all(_angle_of(chi, p) != 0 for p in primes)
        return accept

    cands = [p for p in _primes_in(13, 200)]
    chi = _pick_prime_char(rng, cands, no_ones(True))
    docs["real"] = _config_doc(chi, [(p, (0, 1)) for p in primes], x)
    chi = _pick_prime_char(rng, cands, no_ones(False))
    mods = [(p, (0, 1)) for p in primes[1:]]
    ang = _angle_of(chi, primes[0])
    choices = [(a, b) for b in (3, 4, 5, 6) for a in range(1, b)
               if Fraction(a, b) != ang]
    mods.insert(0, (primes[0], rng.choice(choices)))
    docs["cplx"] = _config_doc(chi, mods, x)

    ops = []
    for name, doc in docs.items():
        path = _write_config(workdir, f"verify_{name}", doc, configs)
        stem = os.path.join(workdir, f"verify_{name}")
        files = [f"{stem}_{part}" for part in
                 ("sums.csv", "riesz.csv", "report.json", "plots.gp")]
        ops.append(Op("verify", ["verify", path, "--outdir", workdir],
                      files=files, requested_x=x,
                      meta={"config": path, "k": 39}))
    return ops, configs


def build_lfun(rng, workdir, sizes) -> tuple[list[Op], dict]:
    from modchar.characters import parity
    configs: dict[str, dict] = {}
    q_odd, q_even = sizes["lfun_moduli"]
    ops = []
    for tag, q, par in (("odd", q_odd, -1), ("even", q_even, 1)):
        chi = _pick_prime_char(
            rng, [q], lambda c: parity(c) == par and c.order > 2)
        for s, im in (("0.5", "0"), ("0.5", "3"), ("-0.5", "0"), ("2", "0")):
            ops.append(Op("lfun", ["lfun", "--label", chi.label, "--s", s,
                                   "--im", im],
                          meta={"label": chi.label, "s": complex(float(s),
                                                                float(im))}))
        primes = sorted(rng.sample([p for p in SMALL_PRIMES[:6] if p != q], 3))
        mods = []
        for p in primes:
            ang = _angle_of(chi, p)
            choices = [(0, 1)] + [(a, b) for b in (2, 3, 4)
                                  for a in range(1, b) if math.gcd(a, b) == 1]
            choices = [c for c in choices if Fraction(*c) != ang]
            mods.append((p, rng.choice(choices)))
        path = _write_config(workdir, f"lfun_{tag}",
                             _config_doc(chi, mods, 1000), configs)
        ops.append(Op("coeff", ["coeff", path, "--json"],
                      meta={"config": path}))
        ops.append(Op("kmin", ["kmin", path], meta={"config": path}))
        ops.append(Op("dioph", ["dioph", "--p", str(primes[0]),
                                "--q", str(primes[-1]), "--json"],
                      meta={"p": primes[0], "q": primes[-1], "depth": 40}))
        out = os.path.join(workdir, f"lfun_{tag}_poles.csv")
        nmax = sizes["poleseries_nmax"]
        ops.append(Op("poleseries", ["poleseries", path, "--anchor",
                                     str(primes[-1]), "--k", "4",
                                     "--nmax", str(nmax), "--out", out],
                      files=[out],
                      meta={"config": path, "anchor": primes[-1], "k": 4,
                            "nmax": nmax}))
    return ops, configs


FAMILIES = {"sums": build_sums, "verify": build_verify, "lfun": build_lfun}
WORKLOADS = tuple(FAMILIES)


def build(name: str, seed: int, workdir: str, sizes=None) -> Workload:
    """Draw the workload's inputs from the seed and write its configs.

    This is the set-up the benchmark times: it builds the character groups
    of every modulus used and writes the JSON configs the CLI will read.
    """
    sizes = {**DEFAULT_SIZES, **(sizes or {})}
    os.makedirs(workdir, exist_ok=True)
    rng = random.Random(f"{name}:{seed}")
    ops, configs = FAMILIES[name](rng, workdir, sizes)
    return Workload(name, seed, ops, configs)
