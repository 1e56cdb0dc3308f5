"""Continued fractions of log-ratios, the mu exponent, k thresholds, series."""

import math
import warnings
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from modchar.characters import character_from_label
from modchar import diophantine
from modchar.diophantine import (ConvergentTable, _quality, _scaled_log,
                                 bugeaud_mu, continued_fraction,
                                 min_riesz_order, pole_series_diagnostic,
                                 reconstruct_alpha)
from modchar.errors import (DomainError, InvalidPrimeError, PrecisionError,
                            TruncatedTableWarning)
from modchar.modified import build_modified
from modchar.roots import UnitValue
from modchar.summation import NeumaierSum

ONE = UnitValue.one()
U = 2.0 ** -53


def bcc():
    return build_modified(character_from_label("3.2"), {3: ONE})


def two_three():
    return build_modified(character_from_label("3.2"), {2: ONE, 3: ONE})


def cf_oracle(p, q, depth):
    """Partial quotients by direct high-precision iteration, no Euclid."""
    with mp.workprec(1200):
        x = mp.log(p) / mp.log(q)
        out = []
        for _ in range(depth):
            a = int(mp.floor(x))
            out.append(a)
            x = 1 / (x - a)
        return out


def test_quotients_against_iteration_oracle():
    table = continued_fraction(2, 3, depth=25)
    assert list(table.partial_quotients) == cf_oracle(2, 3, 25)
    # 0 < alpha < 1 and alpha > 1/2 pin the start [0; 1, ...]
    assert table.partial_quotients[:2] == (0, 1)
    table53 = continued_fraction(5, 3, depth=20)
    assert list(table53.partial_quotients) == cf_oracle(5, 3, 20)


def test_convergent_recurrence_and_law():
    table = continued_fraction(2, 3, depth=30)
    hs, bs = [0, 1], [1, 0]
    for a, (h, b) in zip(table.partial_quotients, table.convergents):
        hs.append(a * hs[-1] + hs[-2])
        bs.append(a * bs[-1] + bs[-2])
        assert (h, b) == (hs[-1], bs[-1])
    # |alpha - h/b| < 1/b^2 for every row, checked in high precision
    with mp.workprec(600):
        alpha = mp.log(2) / mp.log(3)
        signs = []
        prev_b = 0
        for h, b in table.convergents:
            assert abs(alpha - mp.mpf(h) / b) < mp.mpf(1) / (b * b)
            assert b >= prev_b    # 1, 1 repeats once, then strict
            prev_b = b
            signs.append(1 if alpha > mp.mpf(h) / b else -1)
        assert all(s != t for s, t in zip(signs, signs[1:]))
    # quality is the empirical exponent; the law says it exceeds 2
    for (h, b), quality in zip(table.convergents, table.quality):
        if b >= 2:
            assert quality > 2.0


def test_denominators_are_best_approximations():
    # brute scan: n is a record iff |n alpha - nearest| improves on all
    # smaller n; those records are exactly the convergent denominators
    table = continued_fraction(2, 3, depth=30)
    denoms = [b for _, b in table.convergents if b <= 10**4]
    alpha = np.longdouble(math.log(2)) / np.longdouble(math.log(3))
    n = np.arange(1, 10**4 + 1, dtype=np.longdouble)
    gap = np.abs(n * alpha - np.round(n * alpha))
    best = np.minimum.accumulate(gap)
    records = [1] + [int(i + 1) for i in range(1, len(gap))
                     if gap[i] < best[i - 1]]
    assert records == [1, 2, 3, 8, 19, 65, 84, 485, 1054]
    assert sorted(set(denoms)) == records


def test_truncation_and_reconstruction():
    for bits in (128, 256):
        with pytest.warns(TruncatedTableWarning):
            table = continued_fraction(2, 3, depth=200, bits=bits)
        assert table.trusted_depth == len(table.partial_quotients)
        assert table.trusted_depth < 200
        approx = reconstruct_alpha(table)
        with mp.workprec(2 * bits + 64):
            alpha = mp.log(2) / mp.log(3)
            err = abs(alpha - mp.mpf(approx.numerator) / approx.denominator)
            assert err <= mp.mpf(2) ** (-(bits - 8))


def test_shifted_log_is_the_log_at_half_the_bits():
    # floor(floor(y 2^2b) / 2^b) = floor(y 2^b): the bits run of
    # continued_fraction reads its inputs off the 2 bits pair
    for n in (2, 3, 13, 61, 997):
        for bits in (128, 256, 1000):
            assert _scaled_log(n, 2 * bits) >> bits == _scaled_log(n, bits)
    # so the table is the one from four separately computed logs
    euclid = diophantine._euclid_quotients
    for p, q, bits in ((2, 3, 128), (2, 3, 256), (5, 3, 128), (61, 2, 256)):
        quots = euclid(_scaled_log(p, bits), _scaled_log(q, bits), 201)
        check = euclid(_scaled_log(p, 2 * bits), _scaled_log(q, 2 * bits),
                       201)
        agree = next(i for i, (a, b) in enumerate(zip(quots, check))
                     if a != b)
        with pytest.warns(TruncatedTableWarning):
            table = continued_fraction(p, q, depth=200, bits=bits)
        assert table.trusted_depth == agree
        assert list(table.partial_quotients) == quots[:agree]


def test_quality_within_its_bound_against_mpmath():
    # docstring bound: relative error 8u + e/g with e = max(1, alpha)/Lq
    cases = [(2, 3, 40, 256), (3, 2, 40, 256), (2, 13, 40, 256),
             (59, 61, 60, 256), (997, 2, 100, 512), (5, 3, 60, 128),
             (2, 3, 200, 1024)]
    for p, q, depth, bits in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncatedTableWarning)
            table = continued_fraction(p, q, depth=depth, bits=bits)
        if depth == 200:
            assert len(table.convergents) == 200
        lq = _scaled_log(q, 2 * bits)
        with mp.workprec(4 * bits):
            alpha = mp.log(p) / mp.log(q)
            e = max(mp.mpf(1), alpha) / lq
            for (h, b), quality in zip(table.convergents, table.quality):
                if b < 2:
                    assert quality == math.inf
                    continue
                gap = abs(alpha - mp.mpf(h) / b)
                ref = -mp.log(gap) / mp.log(b)
                assert abs(quality - ref) <= (8 * U + e / gap) * ref, (p, q, b)


def test_quality_from_integer_logs_below_the_float_range():
    # r / den under 2^-1022: the integer-log branch, against mpmath
    for r, den, b in [(3, 7 * 10**400, 10**150), (1, 2**1100 + 1, 2**500),
                      (12345, 10**320, 97), (5, 10**310, 10**40)]:
        with mp.workprec(400):
            log_gap = mp.log(mp.mpf(r) / den)
            ref = -log_gap / mp.log(b)
            rel = 8 * U * (mp.log(r) + mp.log(den)) / abs(log_gap)
        assert r / den < 2.0 ** -1022
        assert abs(_quality(r, den, b) - ref) <= rel * ref


def test_cf_guards():
    with pytest.raises(InvalidPrimeError):
        continued_fraction(4, 3)
    with pytest.raises(InvalidPrimeError):
        continued_fraction(3, 3)
    with pytest.raises(DomainError):
        continued_fraction(2, 3, bits=64)
    with pytest.raises(DomainError):
        continued_fraction(2, 3, depth=0)
    with pytest.raises(DomainError):
        continued_fraction(2, 3, depth=201)
    with pytest.raises(DomainError):
        continued_fraction(2, 3, bits=diophantine.MAX_BITS + 1)


def test_bugeaud_mu():
    mu = bugeaud_mu(2, 3, 1.0)
    assert mu == math.log(2) * math.log(3)
    assert abs(mu - 0.7615000104188090) < 1e-12
    assert bugeaud_mu(2, 3, 0.5) == bugeaud_mu(3, 2, 0.5)   # exact symmetry
    assert bugeaud_mu(2, 3, 2.0) == 2 * bugeaud_mu(2, 3, 1.0)
    with pytest.raises(DomainError):
        bugeaud_mu(2, 3, 0.0)
    with pytest.raises(DomainError):
        bugeaud_mu(2, 3, -1.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(DomainError):
            bugeaud_mu(2, 3, bad)
    with pytest.raises(InvalidPrimeError):
        bugeaud_mu(4, 3, 1.0)


def test_min_riesz_order_thresholds():
    fig1 = build_modified(character_from_label("3.2"),
                          {p: ONE for p in (2, 3, 5, 11)})
    assert min_riesz_order(fig1, 1.0) == 39
    assert min_riesz_order(bcc(), 1.0) == 13
    assert min_riesz_order(build_modified(character_from_label("3.2"), {}),
                           1.0) == 0
    # the formula floor is 10: any positive gamma forces the next integer
    # up, and once gamma is small enough to round away the output is 10
    assert min_riesz_order(bcc(), 1e-12) == 11
    assert min_riesz_order(bcc(), 1e-18) == 10
    # 1e308 is finite, but the threshold it gives is not
    for bad in (0.0, math.nan, math.inf, 1e308):
        with pytest.raises(DomainError):
            min_riesz_order(bcc(), bad)


def test_pole_series_empty_product_is_zeta():
    mp.mp.dps = 25
    for k in (2, 5, 13):
        trace = pole_series_diagnostic(bcc(), 3, k, 10**4)
        assert abs(trace.total_estimate - float(mp.zeta(k))) <= 1e-8, k
        assert trace.verdict.startswith("convergent")
        assert trace.max_term == 1.0 and trace.max_term_n == 1
        assert trace.spike_exponent == 0.0


def test_pole_series_unresolved_angle_raises(monkeypatch):
    # a fixed-point angle of 0 would divide by sin(0): a typed error instead
    monkeypatch.setattr(diophantine, "_fixed_point_angles",
                        lambda others, anchor: [0] * len(others))
    with pytest.raises(PrecisionError, match="at n = 1$"):
        pole_series_diagnostic(two_three(), 3, 13, 100)
    # n a = 0 mod 2^63 first at n = 2^63 / gcd(a, 2^63), 2^18 for this a
    monkeypatch.setattr(diophantine, "_fixed_point_angles",
                        lambda others, anchor: [5 << 45] * len(others))
    with pytest.raises(PrecisionError, match="at n = 262144$"):
        pole_series_diagnostic(two_three(), 3, 13, 300000)
    assert np.all(pole_series_diagnostic(two_three(), 3, 13, 262143).terms > 0)


def test_pole_series_spikes_at_convergent_denominators():
    trace = pole_series_diagnostic(two_three(), 3, 13, 10**5)
    denoms = {1, 2, 3, 8, 19, 65, 84, 485, 1054, 24727, 50508}
    rec_ns = {n for n, _ in trace.records}
    assert rec_ns <= denoms
    assert denoms - {1} <= rec_ns
    # record magnitudes grow; the biggest sits at the deepest convergent
    mags = [g for _, g in trace.records]
    assert mags == sorted(mags)
    assert trace.records[-1][0] == 50508


def test_pole_series_stabilizes():
    trace = pole_series_diagnostic(two_three(), 3, 13, 10**5)
    partials = trace.partials
    ns = trace.ns
    tenth = np.searchsorted(ns, 10**4)
    assert abs(partials[-1] - partials[tenth]) <= 1e-6
    assert trace.tail_estimate <= 1e-6
    assert np.all(trace.terms > 0)
    assert len(trace.rows()) == len(ns)


def _loop_terms(angles, k, lo, hi):
    """The product g and the terms g / n^k for lo <= n < hi, per n.

    Its terms use the kernel's formula, 1/|2 sin(pi f)| = (t + 1/t)/4 with
    t = tan(pi min(f, 1 - f) / 2), and n^k from n^2 by the same binary
    powering, on fresh arrays; the angles are made another way, from
    32-bit halves of a mod 2^63 and an unsigned mirror."""
    n = np.arange(lo, hi, dtype=np.uint64)
    g = np.ones(hi - lo, dtype=np.float64)
    for a in angles:
        a_hi, a_lo = a >> 32, a & 0xFFFFFFFF
        m = (((n * np.uint64(a_hi)) % np.uint64(1 << 31))
             * np.uint64(1 << 32) + n * np.uint64(a_lo)) \
            % np.uint64(1 << 63)
        m = np.minimum(m, np.uint64(1 << 63) - m)
        t = np.tan(m.astype(np.float64) * (np.pi * 2.0 ** -64))
        g *= (t + 1 / t) / 4
    x = n.astype(np.float64)
    sq, power, e = x * x, (x if k % 2 else None), k // 2
    while e:
        if e % 2:
            power = sq if power is None else power * sq
        e //= 2
        if e:
            sq = sq * sq
    return g, g / power


def _pole_series_loop(mc, anchor, k, n_max, block, record_cap=4096):
    """The per-n reference: rows appended one by one, records from a loop
    over the block's running-maximum candidates, % for the reductions.

    Its terms are _loop_terms, so it pins the blocking, gathering, records
    and partial sums bit for bit; accuracy is checked against mpmath in
    test_pole_series_terms_within_the_stated_ulp_bound. A dense row's
    partial is the carry plus a running sum of the block's terms; a later
    checkpoint's is the previous checkpoint's of the block (or the carry)
    plus the sum of the terms since, each sum one np.add.reduceat."""
    others = [p for p in mc.primes if p != anchor]
    angles = diophantine._fixed_point_angles(others, anchor)
    cps, c = [], 1
    while c < n_max:
        cps.append(c)
        c = max(c + 1, int(c * 1.05))
    cps.append(n_max)
    checkpoints = np.array(cps, dtype=np.int64)
    acc = NeumaierSum()
    ns, terms, partials, records = [], [], [], []
    best_g, max_term, max_term_n = 0.0, 0.0, 1
    for lo in range(1, n_max + 1, block):
        hi = min(lo + block, n_max + 1)
        g, term = _loop_terms(angles, k, lo, hi)
        j = int(np.argmax(term))
        if term[j] > max_term:
            max_term, max_term_n = float(term[j]), lo + j
        for j in np.flatnonzero(np.maximum.accumulate(g) == g):
            if g[j] > best_g:
                best_g = float(g[j])
                records.append((lo + int(j), best_g))
        running = acc.value + np.cumsum(term)
        for cur in range(lo, min(hi, record_cap + 1)):
            ns.append(cur)
            terms.append(float(term[cur - lo]))
            partials.append(float(running[cur - lo]))
        a, b = np.searchsorted(checkpoints, (max(lo, record_cap + 1), hi))
        chain, start = acc.value, lo
        for cur in checkpoints[a:b].tolist():
            chain += float(np.add.reduceat(term[start - lo:cur - lo + 1],
                                           [0])[0])
            start = cur + 1
            ns.append(cur)
            terms.append(float(term[cur - lo]))
            partials.append(chain)
        acc.add(float(np.sum(term)))
    return (np.array(ns, dtype=np.int64), np.array(terms),
            np.array(partials), max_term, max_term_n, tuple(records),
            acc.value)


@pytest.mark.parametrize("block", [1 << 20, 1 << 14, 1000])
def test_pole_series_matches_the_per_n_loop_bit_for_bit(monkeypatch, block):
    # 2^20 is one block for all n, 2^14 the default; block 1000 puts block
    # edges inside the dense rows, between checkpoints and between records
    monkeypatch.setattr(diophantine, "_SERIES_BLOCK", block)
    five = build_modified(character_from_label("3.2"),
                          {p: UnitValue.from_fraction(Fraction(1, 4))
                           for p in (2, 3, 5, 11)})
    for mc, anchor, k in ((two_three(), 3, 13), (five, 11, 4), (five, 2, 4)):
        trace = pole_series_diagnostic(mc, anchor, k, 10**5)
        ns, terms, partials, max_term, max_term_n, records, total = \
            _pole_series_loop(mc, anchor, k, 10**5, block)
        assert trace.ns.dtype == ns.dtype and np.array_equal(trace.ns, ns)
        assert trace.terms.tobytes() == terms.tobytes()
        assert trace.partials.tobytes() == partials.tobytes()
        assert (trace.max_term, trace.max_term_n) == (max_term, max_term_n)
        assert trace.records == records
        assert trace.total_estimate == total + trace.tail_estimate
    if block == 1000:       # the records lie in several blocks
        assert len({(n - 1) // block for n, _ in trace.records}) > 2


def _fixed_point_product(angles, n):
    """prod 1/|2 sin(pi f)| over f = (n a mod 2^63) / 2^63, at the working
    precision, and the f."""
    fracs = [mp.mpf(n * a % 2**63) / 2**63 for a in angles]
    g = mp.mpf(1)
    for f in fracs:
        g /= abs(2 * mp.sin(mp.pi * f))
    return g, fracs


def test_pole_series_terms_within_the_stated_ulp_bound():
    # 50-digit values on the program's own 63-bit angles, so only the
    # kernel's rounding is measured: every dense row and every record up
    # to 10^6, rows with an angle within 1e-6 of 0 and of 1 among them
    fig1 = build_modified(character_from_label("3.2"),
                          {p: ONE for p in (2, 3, 5, 11)})
    k, fracs = 4, []
    for anchor in (11, 2):
        others = [p for p in fig1.primes if p != anchor]
        angles = diophantine._fixed_point_angles(others, anchor)
        bound = (9 * len(angles) + 2) * U
        trace = pole_series_diagnostic(fig1, anchor, k, 10**6)
        assert trace.records[-1][0] > 10**5
        with mp.workdps(50):
            for n, term in zip(trace.ns[:4096].tolist(),
                               trace.terms[:4096].tolist()):
                g, f = _fixed_point_product(angles, n)
                ref = g / mp.mpf(n) ** k
                assert abs(term - ref) <= bound * ref, (anchor, n)
                fracs += f
            for n, value in trace.records:
                g, f = _fixed_point_product(angles, n)
                assert abs(value - g) <= bound * g, (anchor, n)
                fracs += f
    assert min(fracs) < 1e-6 and max(fracs) > 1 - 1e-6


def test_pole_series_terms_at_k13_within_the_stated_ulp_bound():
    # n^13 = n n^4 n^8 from the exact n^2: 6u to first order and u for
    # the division, so (9P + ceil(k/2)) u; every row to 10^5, 50 digits
    fig1 = build_modified(character_from_label("3.2"),
                          {p: ONE for p in (2, 3, 5, 11)})
    k, anchor = 13, 11
    angles = diophantine._fixed_point_angles([2, 3, 5], anchor)
    bound = (9 * len(angles) + math.ceil(k / 2)) * U
    trace = pole_series_diagnostic(fig1, anchor, k, 10**5)
    assert trace.ns[-1] == 10**5
    with mp.workdps(50):
        for n, term in zip(trace.ns.tolist(), trace.terms.tolist()):
            g, _ = _fixed_point_product(angles, n)
            ref = g / mp.mpf(n) ** k
            assert abs(term - ref) <= bound * ref, n


def test_pole_series_partials_within_the_stated_bound_of_fsum():
    # beyond the dense rows a partial is the carry and a chain of segment
    # sums: within 80u of the exactly rounded sum of every term up to n
    fig1 = build_modified(character_from_label("3.2"),
                          {p: ONE for p in (2, 3, 5, 11)})
    for mc, anchor, k, n_max in ((fig1, 11, 4, 10**6),
                                 (two_three(), 3, 13, 10**5)):
        others = [p for p in mc.primes if p != anchor]
        angles = diophantine._fixed_point_angles(others, anchor)
        per_n = _loop_terms(angles, k, 1, n_max + 1)[1].tolist()
        trace = pole_series_diagnostic(mc, anchor, k, n_max)
        far = trace.ns > 4096
        assert np.count_nonzero(far) > 50
        for n, partial in zip(trace.ns[far].tolist(),
                              trace.partials[far].tolist()):
            exact = math.fsum(per_n[:n])
            assert abs(partial - exact) <= 80 * U * exact, (anchor, n)


def test_pole_series_dense_partials_within_the_stated_bound_of_fsum():
    # a dense row's partial is one sequential cumsum: within (n - 1)u of the
    # exact sum of the computed terms, plus u for fsum's own rounding
    fig1 = build_modified(character_from_label("3.2"),
                          {p: ONE for p in (2, 3, 5, 11)})
    trace = pole_series_diagnostic(fig1, 11, 4, 10**5)
    assert trace.ns[:4096].tolist() == list(range(1, 4097))
    terms = trace.terms[:4096].tolist()
    for n, partial in enumerate(trace.partials[:4096].tolist(), 1):
        exact = math.fsum(terms[:n])
        assert abs(partial - exact) <= n * U * exact, n


def test_pole_series_half_turn_factor_is_one_half(monkeypatch):
    # a = 2^62 puts f = 1/2 at n = 1: the signed angle 2a is -2^63, which
    # has no int64 abs; the float abs makes it pi/4 and the factor 1/2
    monkeypatch.setattr(diophantine, "_fixed_point_angles",
                        lambda others, anchor: [1 << 62] * len(others))
    fig1 = build_modified(character_from_label("3.2"),
                          {p: ONE for p in (2, 3, 5, 11)})
    for mc, anchor, g in ((two_three(), 3, 0.5), (fig1, 11, 0.125)):
        trace = pole_series_diagnostic(mc, anchor, 4, 1)
        assert trace.terms.tolist() == trace.partials.tolist() == [g]
        assert trace.records == ((1, g),)


def test_pole_series_guards():
    with pytest.raises(DomainError):
        pole_series_diagnostic(bcc(), 3, 1, 100)
    with pytest.raises(DomainError):
        pole_series_diagnostic(bcc(), 3, 5, 0)
    with pytest.raises(DomainError):
        pole_series_diagnostic(bcc(), 3, 5, 10**7 + 1)
    with pytest.raises(InvalidPrimeError):
        pole_series_diagnostic(bcc(), 5, 5, 100)


def test_pole_series_overflowing_power_is_a_silent_zero_term():
    # at k = 200, n^k is inf from n = 35 on: those terms are 0 by design,
    # with no numpy overflow warning
    fig1 = build_modified(character_from_label("3.2"),
                          {2: ONE, 3: ONE, 5: ONE, 11: ONE})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        trace = pole_series_diagnostic(fig1, 11, 200, 1000)
    assert trace.terms[-1] == 0 and trace.terms[0] > 0


def test_reconstruct_guard():
    with pytest.raises(DomainError):
        reconstruct_alpha(ConvergentTable(2, 3, 256, (), (), (), 0))
