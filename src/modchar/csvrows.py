"""CSV rows written by numpy, byte for byte as '%d' % n and '%.17g' % v.

A span of rows at a time, each column becomes a matrix of fixed-width
uint8 fields with NUL in the unused slots; the fields and the ',' and
'\n' columns are laid side by side and one translate() drops the NULs.
Integer columns print as '%d'. A float's 17 significant digits come from
one longdouble product with an exactly parsed power of ten and are laid
out by C's %g rules; near-ties of that product and special values (0,
inf, nan, subnormals, |v| outside [1e-300, 1e300]) go through Python's
'%.17g' %, so the bytes equal Python's for every double. Where longdouble
is only a double, every value takes the Python route. Fields are built in
little-endian words ('<u2', '<u8'), so byte j of a word is bits
8j..8j+7 on any host.
"""

from __future__ import annotations

import functools

import numpy as np

from .characters import SPAN

# P = |v| 10^(16 - E) holds the 17 significant digits of v. It is one
# longdouble product of v with a 10^k parsed exactly, so two roundings of
# relative size at most eps/2 away from the exact product, and the exact
# product is below 1e17: P is off by less than 1e17 eps (1 + eps). A P
# that close to a half-integer rounds as Python decides, not as P does.
_LD_EPS = float(np.finfo(np.longdouble).eps)
_TIE_MARGIN = 1e17 * _LD_EPS * (1 + _LD_EPS)
_FAST = (1e-300, 1e300)     # |v| outside (so E outside [-301, 300]): Python
_E_LO, _E_HI = -310, 310    # exponent tables cover E in [_E_LO, _E_HI)
_FLOAT_WIDTH = 32           # four words: prefix, then 24 bytes of digits
# Rows per `_rows` call. A Riesz row is about 95 bytes of fields and a
# float column holds about 190 bytes of temporaries per value, so a call
# holds about 1 MiB, well inside `characters.SPAN_BUDGET`. Spans of 2^14
# rows or more were no faster and left the `lfun` workload's peak RSS
# 0.6 MiB higher.
_CSV_ROWS = SPAN // 16


def _byte_masks(pick, byte=255) -> np.ndarray:
    """(3, 25) words: [w, m] has `byte` at each byte j of word w where
    pick(m, j), j counted over all three words."""
    return np.array([[sum(byte << 8 * (j % 8)
                           for j in range(8 * w, 8 * w + 8) if pick(m, j))
                      for m in range(25)] for w in range(3)], dtype=np.uint64)


@functools.cache
def _tables() -> dict:
    """Lookup tables of the CSV writer, built on first use."""
    def words(strings, dtype):
        return np.array([int.from_bytes(t.encode(), "little")
                         for t in strings], dtype=dtype)

    e = range(_E_LO, _E_HI)
    fixed = [-4 <= x < 17 for x in e]
    group = np.arange(10**4, dtype=np.uint64)
    return {
        # digit pairs r = 0..99 of the highest pair, the leading zero NUL
        # (0 is '\0\0' there, or '\0' '0' as the unit pair), then at
        # r + 100 the pair '00'..'99' of a lower one
        "lead": words(["\0\0"] + [f"{i:2d}".replace(" ", "\0")
                                  for i in range(1, 100)]
                      + [f"{i:02d}" for i in range(100)], "<u2"),
        "unit": words([f"{i:2d}".replace(" ", "\0") for i in range(100)]
                      + [f"{i:02d}" for i in range(100)], "<u2"),
        # groups 0..9999 as four digit characters, and their trailing
        # zeros (4 for 0000)
        "quad": sum((group // np.uint64(10**(3 - j)) % np.uint64(10)
                     + np.uint64(48)) << np.uint64(8 * j)
                    for j in range(4)).astype(np.uint32),
        "tz": sum((group % np.uint64(10**j) == 0).astype(np.uint8)
                  for j in range(1, 5)),
        # per digit word w = 0, 1, 2 (bytes 8w..8w+7 of the digits): the
        # bytes below m, the bytes above m, and '.' at m, m = 0..24
        "below": _byte_masks(lambda m, j: j < m),
        "above": _byte_masks(lambda m, j: j > m),
        "dot": _byte_masks(lambda m, j: j == m, 46),
        # 10^(16 - E), E in [_E_LO, _E_HI), nearest longdouble
        "pow10": np.array([f"1e{16 - x}" for x in e], dtype=np.longdouble),
        # by E: what stands before the digits ('0.000' for E = -4, with
        # the sign slot NUL) and after them ('e+XX' / 'e-XXX' from byte 2
        # of the last digit word on), the byte of the point (24: none),
        # and the fewest digits shown (E + 1 in fixed notation)
        "prefix": words(["\0" + ("0." + "0" * (-x - 1) if x < 0 and f
                                  else "") for x, f in zip(e, fixed)], "<u8"),
        "suffix": words(["" if f else f"\0\0e{x:+03d}"
                         for x, f in zip(e, fixed)], "<u8"),
        "point": np.array([(x + 1 if x >= 0 else 24) if f else 1
                           for x, f in zip(e, fixed)], dtype=np.int64),
        "least": np.array([x + 1 if f and x >= 0 else 1
                           for x, f in zip(e, fixed)], dtype=np.int64),
    }


def _int_pairs(v: np.ndarray) -> int:
    """Digit pairs that hold '%d' of every entry of int64 v."""
    big = max(-int(v.min()), int(v.max())) if len(v) else 0
    return (len(str(big)) + 1) // 2


def _int_fields(v: np.ndarray, pairs: int) -> np.ndarray:
    """'%d' % v[i] for int64 v, NUL-padded: an (n, 2 + 2 pairs) uint8
    matrix of a sign word and then base-100 digit pairs from a table, the
    leading zeros of the highest pair NUL."""
    t = _tables()
    neg = v < 0
    mag = v.astype(np.int64).view(np.uint64)     # two's complement negate:
    np.negative(mag, out=mag, where=neg)         # -2^63 becomes 2^63
    out = np.empty((len(v), 1 + pairs), "<u2")
    out[:, 0] = neg * np.uint16(45)
    q = mag
    for j in range(pairs, 0, -1):
        if q.dtype == np.uint64 and j <= 4:      # q < 10^8 from here on
            q = q.astype(np.uint32)
        q, r = np.divmod(q, q.dtype.type(100))
        # a pair with digits before it, else the highest one
        r = r.astype(np.intp) + (q > 0) * 100
        out[:, j] = t["unit" if j == pairs else "lead"][r]
    return out.view(np.uint8)


def _float_fields(v: np.ndarray) -> np.ndarray:
    """'%.17g' % v[i] for float64 v, NUL-padded: an (n, _FLOAT_WIDTH)
    uint8 matrix.

    For 1e-300 <= |v| <= 1e300, E = floor(log10 |v|) and the 17 digits
    D = round(|v| 10^(16 - E)) come from one longdouble product P with a
    10^(16 - E) parsed exactly (E moves by one if P lands outside [1e16,
    1e17), and by one more if D rounds up to 10^17). D is laid out by C's
    %g rules: fixed notation for -4 <= E < 17, else d.ddde+XX, trailing
    zeros and a bare point dropped. P's rounding is certain unless P lies
    within `_TIE_MARGIN` = 1e17 eps (1 + eps) of a half-integer, eps that
    of longdouble. Those values, and 0, inf, nan, subnormals and |v|
    outside [1e-300, 1e300], take Python's '%.17g' %. Where longdouble is
    only a double the margin exceeds 1/2: every value takes Python's route
    and the bytes are the same.
    """
    t = _tables()
    n = len(v)
    a = np.abs(v, dtype=np.float64)
    fast = (a >= _FAST[0]) & (a <= _FAST[1])
    a[~fast] = 1.0
    e = np.floor(np.log10(a)).astype(np.int64)
    p = a.astype(np.longdouble)
    p *= t["pow10"][e - _E_LO]
    off = np.flatnonzero((p < 1e16) | (p >= 1e17))
    if len(off):                        # log10 missed a power of ten
        e[off] += np.where(p[off] < 1e16, -1, 1).astype(np.int64)
        p[off] = a[off].astype(np.longdouble) * t["pow10"][e[off] - _E_LO]
    del a
    d = np.rint(p)
    p -= d
    fast &= np.abs(p) < 0.5 - _TIE_MARGIN
    del p
    up = d >= 1e17                      # rounded up to 10^17
    digits = d.astype(np.int64)
    del d
    digits[up] = 10**16
    e += up
    fast &= (digits >= 10**16) & (digits < 10**17)

    # D = top 10^16 + g1 10^12 + g2 10^8 + g3 10^4 + g4
    hi, lo = np.divmod(digits, np.int64(10**8))
    top, hi = np.divmod(hi.astype(np.uint32), np.uint32(10**8))
    g1, g2 = np.divmod(hi, np.uint32(10**4))
    g3, g4 = np.divmod(lo.astype(np.uint32), np.uint32(10**4))
    g1, g2, g3, g4 = (g.astype(np.intp) for g in (g1, g2, g3, g4))
    zeros = t["tz"][g1].astype(np.int64)     # trailing zeros of D
    for g in (g2, g3, g4):
        zeros = t["tz"][g] + (g == 0) * zeros
    # the 17 digit characters in three words, bytes 0..16
    c1, c2, c3, c4 = (t["quad"][g].astype(np.uint64)
                      for g in (g1, g2, g3, g4))
    s = [(top.astype(np.uint64) + np.uint64(48)) | (c1 << np.uint64(8))
         | (c2 << np.uint64(40)),
         (c2 >> np.uint64(24)) | (c3 << np.uint64(8)) | (c4 << np.uint64(40)),
         c4 >> np.uint64(24)]
    del c1, c2, c3, c4

    idx = (e - _E_LO).astype(np.intp)
    shown = np.maximum(17 - zeros, t["least"][idx])
    point = t["point"][idx]
    point += (point >= shown) * (24 - point)     # no point, no digits after
    out = np.empty((n, 4), "<u8")
    np.bitwise_or(t["prefix"][idx], np.signbit(v).astype(np.uint64)
                  * np.uint64(45), out=out[:, 0])
    carry = np.uint64(0)
    for w in range(3):
        # drop the trailing zeros, then move the bytes from the point
        # on up one and put the point in between
        word = s[w] & t["below"][w][shown]
        moved = (word << np.uint64(8)) | carry
        carry = word >> np.uint64(56)
        out[:, 1 + w] = ((word & t["below"][w][point])
                         | (moved & t["above"][w][point]) | t["dot"][w][point])
    out[:, 3] |= t["suffix"][idx]

    out = out.view(np.uint8)
    slow = np.flatnonzero(~fast)
    out[slow] = _python_fields(v[slow])
    return out


def _python_fields(v: np.ndarray) -> np.ndarray:
    """'%.17g' % v[i] by Python's formatter, in the layout of
    `_float_fields`."""
    text = np.array(["%.17g" % x for x in v.tolist()],
                    dtype=f"S{_FLOAT_WIDTH}")
    return text.view(np.uint8).reshape(len(v), _FLOAT_WIDTH)


def _rows(columns) -> str:
    """The CSV lines of equal-length integer ('%d') and float ('%.17g')
    columns."""
    n = len(columns[0])
    pairs = [None if c.dtype.kind == "f" else _int_pairs(c)
             for c in columns]
    widths = [_FLOAT_WIDTH if k is None else 2 + 2 * k for k in pairs]
    buf = bytearray(n * (sum(widths) + len(widths)))
    rows = np.frombuffer(buf, np.uint8).reshape(n, -1)
    at = 0
    for c, k, w in zip(columns, pairs, widths):
        rows[:, at:at + w] = (_float_fields(c) if k is None
                              else _int_fields(c, k))
        rows[:, at + w] = 44            # ',', and '\n' after the last
        at += w + 1
    rows[:, -1] = 10
    del rows
    text = buf.translate(None, b"\0")
    del buf
    return text.decode("ascii")


def csv_text(header: str, blocks) -> str:
    """header, then one line per row of each block of equal-length
    columns, written by numpy `_CSV_ROWS` rows at a time: integers as
    '%d', floats as '%.17g' byte for byte. A float's digits come from one
    longdouble product (`_float_fields`); near-ties and special values go
    through Python's formatter, and so does every value where longdouble
    is only a double."""
    parts = [header]
    for columns in blocks:
        for a in range(0, len(columns[0]), _CSV_ROWS):
            parts.append(_rows([c[a:a + _CSV_ROWS] for c in columns]))
    return "".join(parts)
