"""Peak memory of the O(q) table builds and of the block walk.

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

from modchar.characters import (SPAN_BUDGET, Character, CharacterGroup,
                                character_group)
from modchar.modified import build_modified
from modchar.roots import UnitValue
from modchar.sieve import (SieveContext, _chi_prefix, _sieve_sums,
                           checkpoints_from_rule, mellin_transform,
                           riesz_means)

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


BLOCK = 1 << 16


@pytest.mark.parametrize("route", ["sieve_sums", "riesz_means",
                                   "mellin_transform"])
def test_one_block_alive_during_the_walk(route):
    # complex f: a block's values are 16 bytes per integer, so a block
    # left alive while the next one is built adds 1 MiB to the peak; the
    # per-chunk arrays (Riesz centres and power sums) add a few KiB
    mc = _modified(Character(character_group(10007), (1,)),
                   {2: UnitValue.root(1, 3), 3: UnitValue.root(2, 5)})

    def run(x):
        if route == "sieve_sums":       # the sieve route of partial_sums
            return _sieve_sums(SieveContext(mc, x, BLOCK),
                               checkpoints_from_rule("dyadic", x))
        if route == "riesz_means":
            return riesz_means(mc, [1, 3], x, "dyadic", block_size=BLOCK)
        return mellin_transform(mc, 0.5, x, block_size=BLOCK)

    run(BLOCK)                          # the chi angle table, kept
    _, peak1, kept1 = _traced(lambda: run(BLOCK))
    _, peak4, kept4 = _traced(lambda: run(4 * BLOCK))
    assert peak4 <= peak1 + (kept4 - kept1) + BLOCK, \
        (peak1 / 2**20, peak4 / 2**20)
