"""Peak memory of the O(q) table builds, the block walk, the compensated
fold, the CSV writer and the pole series.

NumPy reports its array buffers to tracemalloc, so a traced peak counts
every array a call holds at once. A table build at q = 999983 may hold at
most `characters.SPAN_BUDGET` bytes beyond the arrays it keeps; a sieve
walk over four blocks may peak no higher than over one block plus what
its outputs grow by, which fails when two blocks are alive at once.
"""

import tracemalloc
import warnings

import numpy as np
import pytest

from modchar import cli, csvrows, sieve
from modchar.characters import (SPAN_BUDGET, Character, CharacterGroup,
                                character_from_label, character_group)
from modchar.diophantine import pole_series_diagnostic
from modchar.modified import build_modified
from modchar.roots import UnitValue
from modchar.sieve import (RieszRecord, SieveContext, _chi_prefix,
                           _sieve_sums, checkpoints_from_rule,
                           mellin_transform, riesz_means, unit_tables,
                           unit_values)
from modchar.summation import ComplexNeumaierSum

Q = 999983


def _traced(fn):
    """(result, peak, kept): bytes above the start at the peak and at the
    end, the result still held."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak - base, kept - base


def _modified(chi, mods):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")     # f(p) = chi(p) entries drop out
        return build_modified(chi, mods, allow_imprimitive=True)


def test_character_group_transient_within_span_budget():
    grp, peak, kept = _traced(lambda: CharacterGroup(Q))
    assert kept >= grp.basis[0].dlog.nbytes
    assert peak - kept <= SPAN_BUDGET, (peak - kept) / 2**20


@pytest.mark.parametrize("order, dtype", [(2, np.int8), (Q - 1, np.int32),
                                          (Q - 1, np.int64)])
def test_angle_table_transient_within_span_budget(order, dtype):
    chi = Character(character_group(Q), ((Q - 1) // order,))
    table, peak, kept = _traced(lambda: chi.angle_numerators(order, dtype))
    assert kept >= table.nbytes == Q * np.dtype(dtype).itemsize
    assert peak - kept <= SPAN_BUDGET, (peak - kept) / 2**20


@pytest.mark.parametrize("mods", [
    {2: UnitValue.one()},                               # real, int32 prefix
    {2: UnitValue.root(1, 3)},                          # two digit tables
    {3: UnitValue.root(7, 65521)},                      # three, int64 angles
])
def test_chi_prefix_transient_within_span_budget(mods):
    real = all(v.denominator <= 2 for v in mods.values())
    chi = Character(character_group(Q), ((Q - 1) // 2 if real else 1,))
    ctx = SieveContext(_modified(chi, mods), Q)
    (prefix, _), peak, kept = _traced(lambda: _chi_prefix(ctx, Q))
    assert prefix.dtype == (np.int32 if real else np.complex128)
    assert kept >= prefix.nbytes
    assert peak - kept <= SPAN_BUDGET, (peak - kept) / 2**20


@pytest.mark.parametrize("levels, scale, dtype", [
    (2, 3 * 65521, np.int32), (2, 3 * 65521, np.int64),
    (3, (1 << 40) + 15, np.int64), (4, (1 << 53) - 111, np.int64)])
def test_unit_values_divides_digits_into_buffers(levels, scale, dtype):
    """m = 2^16 angles in L = levels digits; the output is 16 m bytes.

    Beside it `unit_values` may hold its buffers: the gathered factor
    (16 m), the digit and min(L - 1, 2) quotients in t's dtype (w m each,
    w = 4 or 8), and, when w < 8, np.take's intp copy of the index (8 m).
    At L = 2 that is 16 + 2w (+ 8 if w = 4) <= 32 bytes per angle, at
    L = 3 and 4 16 + 3w (+ 8) <= 40: 2 and 2.5 MiB. The arrays' headers
    and the Python objects of the call add well under 4 KiB. Dividing
    into fresh arrays held a quotient, its product with B and the digit
    at once: 40 m at L = 2 and 56 m at L = 3 for int64 angles.
    """
    tables = unit_tables(scale)
    assert len(tables) == levels
    t = np.random.default_rng(levels).integers(0, scale, 1 << 16)
    t = t.astype(dtype)
    vals, peak, kept = _traced(lambda: unit_values(tables, t))
    assert kept >= vals.nbytes == 16 << 16
    budget = (32 if levels == 2 else 40) << 16
    assert peak - kept <= budget + 4096, (peak - kept) / 2**20


BLOCK = 1 << 16


@pytest.mark.parametrize("route", ["sieve_sums", "riesz_means",
                                   "riesz_means_k39", "mellin_transform"])
def test_one_block_alive_during_the_walk(route, monkeypatch):
    # complex f: a block's values are 16 bytes per integer, so a block
    # left alive while the next one is built adds 1 MiB to the peak; the
    # Riesz carry is kmax + 1 entries whatever x, so at k = 39 over 16
    # blocks nothing per chunk may grow either (a (k + 1) x chunks table
    # of clongdouble would add 320 KiB)
    mc = _modified(Character(character_group(10007), (1,)),
                   {2: UnitValue.root(1, 3), 3: UnitValue.root(2, 5)})
    monkeypatch.setattr(sieve, "BLOCK", BLOCK)

    def run(x):
        if route == "sieve_sums":       # the sieve route of partial_sums
            return _sieve_sums(SieveContext(mc, x),
                               checkpoints_from_rule("dyadic", x))
        if route == "riesz_means":
            return riesz_means(mc, [1, 3], x, "dyadic")
        if route == "riesz_means_k39":
            return riesz_means(mc, [1, 39], x, "dyadic")
        return mellin_transform(mc, 0.5, x)

    blocks = 16 if route == "riesz_means_k39" else 4
    run(BLOCK)                          # the chi angle table, kept
    _, peak1, kept1 = _traced(lambda: run(BLOCK))
    _, peak4, kept4 = _traced(lambda: run(blocks * BLOCK))
    assert peak4 <= peak1 + (kept4 - kept1) + BLOCK, \
        (peak1 / 2**20, peak4 / 2**20)


def test_complex_fold_runs_in_its_result():
    # 2^16 values: the result is 1 MiB; the two parts fold straight into
    # it through two float64 arrays and a mask, not ~10 temporaries
    z = np.random.default_rng(5).normal(size=(1 << 16, 2)) @ [1, 1j]
    out, peak, kept = _traced(lambda: ComplexNeumaierSum().add_many(z))
    assert kept >= out.nbytes == 1 << 20
    assert peak <= 2.25 * 2**20, peak / 2**20


def test_riesz_csv_transient_within_span_budget():
    # 2^18 rows: four orders at 2^16 checkpoints, magnitudes 1e-20..1e20
    n = 1 << 16
    rng = np.random.default_rng(6)
    xs = np.cumsum(rng.integers(1, 1000, n)) * 10**4
    vals = rng.normal(size=(4, n, 2)) @ [1, 1j] * 10.0 ** rng.integers(
        -20, 20, (4, n))
    rec = RieszRecord((0, 3, 13, 39), xs, vals, False, int(xs[-1]), "d")
    text, peak, kept = _traced(lambda: cli._riesz_csv(rec))
    assert kept >= len(text) > 4 * n * 40
    # one span of rows holds at most SPAN_BUDGET beyond the text, which is
    # held once: each span's bytes are appended to one bytearray. Its
    # growth slack (up to 1/8 of the text as it grows) is part of kept
    assert peak - kept <= SPAN_BUDGET, (peak - kept) / 2**20
    rows = csvrows._CSV_ROWS
    cols = [xs[:rows], np.full(rows, 39), vals[0, :rows].real,
            vals[0, :rows].imag]
    span, peak, kept = _traced(lambda: csvrows._rows(cols))
    assert peak - kept <= SPAN_BUDGET, (peak - kept) / 2**20


@pytest.mark.parametrize("n_max", [10**5, 10**6])
def test_pole_series_transient_is_one_block(n_max):
    # three primes in the product: eight 2^14-entry buffers (1 MiB) and
    # the first block's record candidates, whatever n_max; the rows kept
    # grow only with the number of checkpoints
    fig1 = _modified(character_from_label("3.2"),
                     {p: UnitValue.one() for p in (2, 3, 5, 11)})
    pole_series_diagnostic(fig1, 11, 4, 100)     # mpmath imported, kept
    trace, peak, kept = _traced(
        lambda: pole_series_diagnostic(fig1, 11, 4, n_max))
    assert kept >= trace.terms.nbytes
    assert peak < 2 * 2**20, peak / 2**20
