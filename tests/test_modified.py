"""Modified characters: validation, the integers T and N, and f itself."""

import random
import warnings

import pytest

from modchar.characters import character_from_label, enumerate_characters
from modchar.errors import (InvalidModificationError, InvalidPrimeError,
                            NonModificationWarning, PrimitivityError)
from modchar.modified import (build_modified, compute_N, compute_T,
                              eval_f_exact, eval_f_oracle)
from modchar.roots import UnitValue

ONE = UnitValue.one()
MINUS = UnitValue.minus_one()


def chi3():
    return character_from_label("3.2")


def bcc():
    return build_modified(chi3(), {3: ONE})


def fig_mods(name):
    plus = {"fig1": (2, 3, 5, 11), "fig2": (2, 3, 5, 11)}
    mods = {p: ONE for p in plus.get(name, ())}
    if name == "fig2":
        mods[7] = MINUS
    if name == "fig3":
        mods = {p: MINUS for p in (3, 7, 13, 19)}
    return build_modified(chi3(), mods)


def test_build_canonicalizes():
    mc = build_modified(chi3(), [(7, MINUS), (3, ONE), (2, ONE)])
    assert mc.primes == (2, 3, 7)
    # chi(p) beside each override, zero exactly at p | q
    assert tuple(e.chi for e in mc.factors) == (MINUS, UnitValue.zero(), ONE)
    assert mc.value_at_prime(7) == MINUS
    assert mc.value_at_prime(13).is_one   # chi3(13), no override
    assert mc.theory_trusted


def test_build_rejects_composite_key():
    with pytest.raises(InvalidPrimeError):
        build_modified(chi3(), {10: ONE})
    with pytest.raises(InvalidPrimeError):
        build_modified(chi3(), {1: ONE})


def test_build_rejects_zero_value():
    with pytest.raises(InvalidModificationError):
        build_modified(chi3(), {3: UnitValue.zero()})


def test_build_rejects_conflicting_duplicates():
    with pytest.raises(InvalidModificationError):
        build_modified(chi3(), [(3, ONE), (3, MINUS)])
    # agreeing duplicates collapse to one entry
    mc = build_modified(chi3(), [(3, ONE), (3, ONE)])
    assert mc.primes == (3,)


def test_build_drops_non_modifications():
    # chi3(7) = 1, so f(7) = 1 changes nothing and must not count toward T
    with pytest.warns(NonModificationWarning):
        mc = build_modified(chi3(), {3: ONE, 7: ONE})
    assert mc.primes == (3,)
    assert compute_T(mc) == 1


def test_primitivity_gate():
    imprimitive = next(c for c in enumerate_characters(9)
                       if not c.is_principal and c.conductor() == 3)
    with pytest.raises(PrimitivityError):
        build_modified(imprimitive, {2: ONE})
    mc = build_modified(imprimitive, {2: ONE}, allow_imprimitive=True)
    assert not mc.theory_trusted


def test_sign_shift_and_pole_order_examples():
    # odd base: N = max(0, T)
    cases = {
        "bcc": (1, 1),
        "fig1": (4, 4),
        "fig2": (3, 3),   # the f(7) = -1 override kills one old chi(p) = 1
        "fig3": (-3, 0),
    }
    for name, (t, n) in cases.items():
        mc = bcc() if name == "bcc" else fig_mods(name)
        assert compute_T(mc) == t, name
        assert compute_N(mc) == n, name
        assert mc.sign_shift == t and mc.pole_order == n


def test_pole_order_even_base():
    # even base: N = max(0, T - 1); chi mod 5 real has chi(2) = chi(3) = -1
    chi5 = character_from_label("5.4")
    one_flip = build_modified(chi5, {2: ONE})
    assert compute_T(one_flip) == 1 and compute_N(one_flip) == 0
    two_flips = build_modified(chi5, {2: ONE, 3: ONE})
    assert compute_T(two_flips) == 2 and compute_N(two_flips) == 1


def test_pole_order_monotone_in_plus_one_overrides():
    # each extra f(p) = +1 at a prime with chi(p) != 1 raises T by one
    primes = (2, 3, 5, 11, 17, 23)    # all have chi3(p) in {0, -1}
    for k in range(1, len(primes) + 1):
        mc = build_modified(chi3(), {p: ONE for p in primes[:k]})
        assert compute_T(mc) == k
        assert compute_N(mc) == k


def test_eval_f_small_values():
    mc = bcc()
    # f(1) = 1, f(2) = chi(2) = -1, f(3) = +1 override, f(6) = f(2) f(3)
    expected = {1: 1, 2: -1, 3: 1, 4: 1, 5: -1, 6: -1,
                7: 1, 8: -1, 9: 1, 12: 1, 18: -1}
    for n, v in expected.items():
        assert eval_f_oracle(mc, n) == v
        got = eval_f_exact(mc, n)
        assert got == (ONE if v == 1 else MINUS)


def test_eval_f_zero_set():
    plain = build_modified(chi3(), {})
    for n in range(1, 300):
        assert eval_f_exact(plain, n).is_zero == (n % 3 == 0)
    # overriding at 3 removes the zero set entirely
    mc = bcc()
    assert not any(eval_f_exact(mc, n).is_zero for n in range(1, 300))


def test_eval_f_rejects_nonpositive():
    for bad in (0, -5):
        with pytest.raises(ValueError):
            eval_f_oracle(bcc(), bad)
        with pytest.raises(ValueError):
            eval_f_exact(bcc(), bad)


def test_complete_multiplicativity_exhaustive():
    mc = fig_mods("fig2")
    vals = [None] + [eval_f_exact(mc, n) for n in range(1, 150 * 150 + 1)]
    for m in range(1, 151):
        for n in range(1, 151):
            assert vals[m] * vals[n] == vals[m * n]


def test_complete_multiplicativity_random_complex():
    # mixed value orders: base of order 4 with a cube-root override
    chi = character_from_label("5.2")
    w3 = UnitValue.root(1, 3)
    mc = build_modified(chi, {7: w3, 2: MINUS})
    rng = random.Random(7)
    for _ in range(400):
        m = rng.randrange(1, 10**5)
        n = rng.randrange(1, 10**5)
        assert eval_f_exact(mc, m) * eval_f_exact(mc, n) \
            == eval_f_exact(mc, m * n)


def test_oracle_matches_exact_form():
    mc = fig_mods("fig3")
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randrange(1, 10**6)
        assert eval_f_oracle(mc, n) == eval_f_exact(mc, n).to_complex()


def test_digest_distinguishes_configurations():
    a, b = bcc(), fig_mods("fig1")
    assert a.digest() == bcc().digest()
    assert a.digest() != b.digest()
    d = a.descriptor()
    assert d["character"]["label"] == "3.2"
    assert d["modifications"] == [{"p": 3, "angle": [0, 1]}]
