"""Compensated summation and the fixed-grid reduction scheme.

Sieved values are reduced chunk-by-chunk on a fixed absolute grid: chunk c
covers n in [1 + c*CHUNK, 1 + (c+1)*CHUNK). Per-chunk partial sums depend
only on the data, never on how work was split into blocks, and the chunk
sums are folded left to right through a Neumaier accumulator (one piece
at a time with `add`, or a whole array of pieces at once with the
bit-identical `add_many`). Consequently every reported sum is
bit-identical whatever the sieve's block length (`sieve.BLOCK`), which the
test suite asserts literally.
"""

from __future__ import annotations

import numpy as np

CHUNK = 4096


class NeumaierSum:
    """Kahan-Babuska compensated accumulator for real floats."""

    __slots__ = ("s", "c")

    def __init__(self):
        self.s = 0.0
        self.c = 0.0

    def add(self, x: float) -> None:
        t = self.s + x
        if abs(self.s) >= abs(x):
            self.c += (self.s - t) + x
        else:
            self.c += (x - t) + self.s
        self.s = t

    def add_many(self, x: np.ndarray, out: np.ndarray | None = None
                 ) -> np.ndarray:
        """add() each x_i in turn, returning the value after each, bit for bit:
        np.cumsum is a sequential fold, s_i = fl(s_(i-1) + x_i) as in add().
        The values go to `out` (a float64 array or view of len(x)) if given;
        besides it the fold holds two float64 arrays of len(x) + 1 and one
        bool mask."""
        x = np.asarray(x, dtype=np.float64)
        n = len(x)
        if out is None:
            out = np.empty(n)
        run = np.empty(n + 1)               # s before x_0, then each s_i
        run[0] = self.s
        run[1:] = x
        np.cumsum(run, out=run)
        prev, s = run[:-1], run[1:]
        c = np.empty(n + 1)                 # c before x_0, then each error
        e = c[1:]
        np.abs(prev, out=out)
        np.abs(x, out=e)
        big = out >= e
        np.subtract(x, s, out=e)            # (x - s) + prev, and where
        e += prev                           # |prev| >= |x|, (prev - s) + x
        np.subtract(prev, s, out=e, where=big)
        np.add(e, x, out=e, where=big)
        c[0] = self.c
        np.cumsum(c, out=c)
        if n:
            self.s, self.c = float(s[-1]), float(c[-1])
        return np.add(s, e, out=out)

    @property
    def value(self) -> float:
        return self.s + self.c


class ComplexNeumaierSum:
    """Componentwise compensated accumulator for complex values."""

    __slots__ = ("re", "im")

    def __init__(self):
        self.re = NeumaierSum()
        self.im = NeumaierSum()

    def add(self, z: complex) -> None:
        self.re.add(z.real)
        self.im.add(z.imag)

    def add_many(self, z: np.ndarray, out: np.ndarray | None = None
                 ) -> np.ndarray:
        """add() each element of z in turn; returns the value after each,
        in `out` (complex128, len(z)) if given. The state carries over, so
        folding an array span by span is bit for bit one call on the whole
        array. The parts fold straight into out.real and out.imag, so at
        2^16 values the fold peaks near 2.1 MiB besides z, 1 MiB of it the
        result."""
        if out is None:
            out = np.empty(len(z), dtype=np.complex128)
        self.re.add_many(z.real, out=out.real)
        self.im.add_many(z.imag, out=out.imag)
        return out

    @property
    def value(self) -> complex:
        return complex(self.re.value, self.im.value)


def chunk_cuts(lo: int, hi: int) -> np.ndarray:
    """Absolute chunk boundaries strictly inside [lo, hi).

    Positions n such that n > lo, n < hi, and n = 1 mod CHUNK: each marks the
    start of a new chunk of the fixed grid anchored at n = 1.
    """
    first = lo + (1 - lo) % CHUNK
    if first <= lo:
        first += CHUNK
    return np.arange(first, hi, CHUNK, dtype=np.int64)


def piecewise_sums(values: np.ndarray, lo: int, cuts: np.ndarray) -> np.ndarray:
    """Sums of values split at absolute positions `cuts`.

    values[i] corresponds to n = lo + i. cuts must be sorted, inside
    (lo, lo + len(values)). Returns len(cuts) + 1 partial piece sums;
    integer values of any width are summed in int64.
    """
    acc = np.int64 if values.dtype.kind == "i" else values.dtype
    if len(values) == 0:
        return np.zeros(1, dtype=acc)
    idx = np.concatenate(([0], cuts - lo))
    return np.add.reduceat(values, idx, dtype=acc)
