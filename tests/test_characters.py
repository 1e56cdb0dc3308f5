"""Character construction, parity, conductor, and group-level counting."""

import math
import random

import numpy as np
import pytest

from modchar.characters import (Character, character_from_label,
                                character_group, conductor, enumerate_characters, eval_char,
                                is_primitive, parity)
from modchar import characters
from modchar.errors import InvalidModulusError, InvariantError, ModCharError
from modchar.roots import UnitValue


def chi3():
    return character_from_label("3.2")


def test_chi3_value_table():
    chi = chi3()
    assert eval_char(chi, 0).is_zero
    assert eval_char(chi, 1).is_one
    assert eval_char(chi, 2) == UnitValue.minus_one()
    assert eval_char(chi, 3).is_zero
    # period 3
    for n in range(30):
        assert eval_char(chi, n) == eval_char(chi, n + 3)


def test_parity_examples():
    assert parity(chi3()) == -1
    for q in (1, 2, 3, 4, 5, 8, 12):
        assert parity(character_group(q).principal()) == 1
    # the real character mod 5 is even: chi(4) = chi(-1) = +1
    real5 = [c for c in enumerate_characters(5)
             if c.order == 2 and c.is_primitive]
    assert len(real5) == 1
    assert parity(real5[0]) == 1


def test_parity_rejects_a_broken_table(monkeypatch):
    # chi(-1) off {+1, -1} is an internal fault, reported as a typed error
    monkeypatch.setattr(characters, "eval_char",
                        lambda chi, n: UnitValue.root(1, 3))
    with pytest.raises(InvariantError) as ei:
        parity(chi3())
    assert isinstance(ei.value, ModCharError)


def test_conductor_examples():
    chi = chi3()
    assert conductor(chi) == 3 and is_primitive(chi)
    # lift chi3 to modulus 9: the exponent doubles because the cyclic
    # component mod 9 has order 6 and restriction divides by 3
    lifted = [c for c in enumerate_characters(9)
              if not c.is_principal and conductor(c) == 3]
    assert lifted, "some character mod 9 must be induced from modulus 3"
    for c in lifted:
        assert not is_primitive(c)
    for q in (4, 6, 9, 10, 12):
        assert conductor(character_group(q).principal()) == 1


def test_character_count_is_totient():
    def phi(q):
        return sum(1 for n in range(1, q + 1) if math.gcd(n, q) == 1)
    for q in range(1, 61):
        assert len(enumerate_characters(q)) == phi(q)


def test_odd_character_count():
    # exactly phi(q)/2 odd characters whenever q > 2
    for q in range(3, 51):
        chars = enumerate_characters(q)
        odd = sum(1 for c in chars if parity(c) == -1)
        assert odd == len(chars) // 2, f"q = {q}"
    for q in (1, 2):
        assert all(parity(c) == 1 for c in enumerate_characters(q))


def test_multiplicativity_exhaustive():
    # chi(mn) = chi(m) chi(n) on residues, checked in exact angle integers
    for q in range(1, 101):
        for chi in enumerate_characters(q):
            scale = max(chi.order, 1)
            t = chi.angle_numerators(scale)
            res = np.arange(q, dtype=np.int64)
            prod = res[:, None] * res[None, :] % q if q > 1 \
                else np.zeros((1, 1), dtype=np.int64)
            lhs = t[prod]
            rhs = (t[:, None] + t[None, :]) % scale
            bad = (t[:, None] < 0) | (t[None, :] < 0)
            assert np.array_equal(lhs < 0, bad)
            assert np.array_equal(lhs[~bad], rhs[~bad])


def test_period_sums_bounded():
    # |sum_{n<=x} chi(n)| <= q for every non-principal chi, q <= 50, x <= 1e4
    x = 10**4
    for q in range(2, 51):
        for chi in enumerate_characters(q):
            if chi.is_principal:
                continue
            scale = chi.order
            t = chi.angle_numerators(scale)
            vals = np.where(t < 0, 0,
                            np.exp(2j * np.pi * t / scale))
            full = vals[np.arange(1, x + 1) % q]
            running = np.cumsum(full)
            assert np.abs(running).max() <= q + 1e-9, chi.label


def test_label_round_trip():
    for q in range(1, 31):
        for chi in enumerate_characters(q):
            assert character_from_label(chi.label) == chi


def test_conjugate_and_order():
    for q in (5, 7, 12, 16):
        for chi in enumerate_characters(q):
            conj = chi.conjugate()
            for n in range(q):
                a, b = eval_char(chi, n), eval_char(conj, n)
                if a.is_zero:
                    assert b.is_zero
                else:
                    assert (a * b).is_one
            assert chi.order == conj.order


def test_bad_labels():
    with pytest.raises(InvalidModulusError):
        character_from_label("6.2")   # 2 not coprime to 6
    with pytest.raises(ValueError):
        character_from_label("nonsense")


def test_angle_table_exact_at_large_scale():
    # scale 2^16 3^22 (about 2^51) with a chi of order 2^16: c k scale/order
    # overflows int64 if formed as a product before reducing mod scale
    chi = Character(character_group(65537), (12345,))
    scale = 65536 * 3**22
    table = chi.angle_numerators(scale)
    for n in list(range(1, 2000)) + list(range(65000, 65537)):
        assert eval_char(chi, n).angle * scale == int(table[n]), n


@pytest.mark.parametrize("q", [1, 2, 101, 64, 90, 315])
def test_angle_table_matches_per_residue_evaluation(q):
    # 101: one basis element spanning q; 64: the two 2-power elements -1
    # and 5; 90 = 2 * 45: even residues masked; 315 = 9 * 5 * 7: several
    # odd prime powers, each table tiled across q
    for chi in enumerate_characters(q):
        vals = [eval_char(chi, n) for n in range(q)]
        for scale in (chi.order, chi.order * 3**30):
            table = chi.angle_numerators(scale)
            assert table.dtype == np.int64
            want = [-1 if v.is_zero else v.angle * scale for v in vals]
            assert table.tolist() == want, (chi.label, scale)


# one basis element each: pe = 3^11 tiled twice across q = 2 3^11, and
# pe = q for the other two; all three span several SPAN boundaries
SPAN_MODULI = (2 * 3**11, 5**8, 999983)


@pytest.mark.parametrize("q", SPAN_MODULI)
def test_angle_table_across_span_boundaries(q):
    # the table is filled SPAN residues at a time, each p^e < q tiled
    # within the span: both sides of every span and period boundary, for a
    # character of order phi(q) and a real one, in every dtype that fits
    grp = character_group(q)
    edges = {0, 1, q - 2, q - 1}
    for step in (characters.SPAN, *(b.prime_power for b in grp.basis)):
        for a in range(step, q, step):
            edges.update((a - 1, a))
    edges = sorted(edges)
    for chi in (Character(grp, (1,)), Character(grp, (grp.orders[0] // 2,))):
        want = [eval_char(chi, n) for n in edges]
        for scale in (chi.order, chi.order * 3**20):
            for dtype in (np.int8, np.int32, np.int64):
                if 2 * scale - 2 > np.iinfo(dtype).max:
                    continue
                table = chi.angle_numerators(scale, dtype)
                assert table.dtype == dtype and len(table) == q
                assert table[edges].tolist() == [
                    -1 if v.is_zero else v.angle * scale for v in want], \
                    (q, chi.order, scale, np.dtype(dtype))


@pytest.mark.parametrize("q", (*SPAN_MODULI, 2**19))
def test_dlog_tables_across_span_boundaries(q):
    # `_orbit` lists g^k in rows of b = ceil(sqrt(order)) powers, several
    # rows per span, so every span boundary is a row boundary: check
    # dlog[g^k] = k on both sides of every row boundary, and for 2^e the
    # negatives -5^k too
    for b in characters.CharacterGroup(q).basis:
        pe, order, g = b.prime_power, b.order, b.generator % b.prime_power
        row = math.isqrt(order - 1) + 1
        ks = {order - 1} | {k for r in range(0, order, row)
                            for k in (r - 1, r) if k >= 0}
        for k in sorted(ks):
            r = pow(g, k, pe)
            assert b.dlog[r] == k, (q, pe, k)
            if b.prime == 2 and order > 2:
                assert b.dlog[pe - r] == k, (q, pe, k)


def _prime_divisors(n):
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    return out + [n] if n > 1 else out


def test_dlog_tables_match_modular_powers():
    """Each basis element's dlog table, checked with Python's pow alone.

    For every basis element (prime power pe, generator g mod pe, order):
    g has exact order `order` mod pe; dlog[g^k mod pe] = k for every k when
    order <= 2000 (so for every pe <= 2000) and for a seeded sample of k
    above; and the entries >= 0 sit
    exactly on the units mod pe, each k < order once. For 2^e with e >= 3
    the pair (dlog of -1, dlog of 5) is what appears once per unit. The
    moduli are every prime power up to 2000 and six large ones; 2 * 3^12 is
    above MAX_MODULUS, so 2 * 3^11 stands for a q whose generator is lifted
    through the CRT.

    Below MAX_MODULUS the `g += p` lift in `_component_basis` never fires:
    no prime p <= 1000 has a smallest primitive root g with
    g^(p-1) = 1 mod p^2 (the first such prime is 40487), so no case here
    reaches it. The branch stays: it is what keeps g primitive mod p^e.
    """
    rng = random.Random(6)
    small = [p**e for p in range(2, 2001) if _prime_divisors(p) == [p]
             for e in range(1, 11) if p**e <= 2000]
    for q in (999983, 2**19, 3**12, 2 * 3**11, 5**8, 7**7, *small):
        by_pe = {}
        for b in characters.CharacterGroup(q).basis:
            pe, order, g = b.prime_power, b.order, b.generator % b.prime_power
            assert pow(g, order, pe) == 1, (q, g)
            assert all(pow(g, order // r, pe) != 1
                       for r in _prime_divisors(order)), (q, g)
            table = b.dlog.tolist()
            ks = range(order) if order <= 2000 else rng.sample(range(order), 500)
            for k in ks:
                assert table[pow(g, k, pe)] == k, (q, g, k)
            by_pe.setdefault(pe, []).append(b)
        for pe, elems in by_pe.items():
            units = np.arange(pe) % _prime_divisors(pe)[0] != 0
            key = np.zeros(pe, dtype=np.int64)
            for b in elems:
                assert np.array_equal(b.dlog >= 0, units), (q, pe)
                key = key * b.order + b.dlog
            count = math.prod(b.order for b in elems)
            assert count == units.sum(), (q, pe)
            seen = np.bincount(key[units], minlength=count)
            assert len(seen) == count and (seen == 1).all(), (q, pe)
