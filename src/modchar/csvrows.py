"""CSV rows written by numpy, byte for byte as '%d' % n and '%.17g' % v.

A span of rows at a time, the fields are written side by side into one
matrix of NUL-padded bytes and one translate() drops the NULs. Each field
begins with its separator, '\n' before the first column and ',' before
the others; the text drops the first row's '\n' and ends with one. The
spans' bytes go into one bytearray, the only copy of the text. Integer
columns print as '%d' from tables of four-digit groups.

A float's 17 significant digits D = round(|v| 10^(16 - E)) come from a
double-double product in plain float64 arithmetic. 10^k is held as a pair
hi + lo of doubles, built exactly from integers on first use, and
P = |v| 10^k is formed as p + err: p = fl(|v| hi), err = Dekker's exact
error of that product (Veltkamp splits, no FMA) plus |v| lo. err is off
from P - p by less than 48 u (u = 2^-53), so D = p + rint(err) is
certain unless err lies within `_TIE_MARGIN` = 64 u of a half-integer.
Those near-ties, exact ties, inf, nan, subnormals and |v| outside
[1e-280, 1e300] go through Python's '%.17g' %, so the bytes equal
Python's for every double; 0 and -0 print from D = 0. Nothing depends on
the host's longdouble. Fields are built in little-endian words ('<u2',
'<u8'), so byte j of a word is bits 8j..8j+7 on any host.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .characters import SPAN

_SPLIT = 134217729.0          # 2^27 + 1, Veltkamp's splitter for doubles
# Below, u = 2^-53 and k = 16 - E. While 10^16 <= P < 10^17, |v| hi <
# 2^57, so |v| |lo| <= |v| hi u < 16, Dekker's error term is below 8 and
# their sum below 32. The three roundings in err (|v| lo, the pair's own
# error |10^k - hi - lo| <= u |lo| times |v|, and the final sum) are at
# most 16 u each.
_TIE_MARGIN = 2.0 ** -47
_FAST = (1e-280, 1e300)       # |v| outside: Python's route
_E_LO, _E_HI = -282, 302      # tables cover E in [_E_LO, _E_HI)
# A float field is its separator and at most 23 bytes, or 24 with a
# three-digit exponent: 24 bytes, or 32 where a span's run needs it.
_NARROW, _WIDE = 24, 32
# Rows per `_rows` call. A span of (int, float, float) rows holds about
# 200 bytes of temporaries per row, well inside `characters.SPAN_BUDGET`.
_CSV_ROWS = SPAN // 8


def _frame(strings, words: int = 3) -> np.ndarray:
    """(words, len) little-endian words of byte strings NUL-padded to
    8 * words bytes: [w, i] is bytes 8w..8w+7 of strings[i]."""
    text = b"".join(s.ljust(8 * words, b"\0") for s in strings)
    return np.frombuffer(text, "<u8").reshape(-1, words).T.copy()


def _digit_chars(width: int) -> np.ndarray:
    """(10^width, width) uint8: the digits of 0..10^width - 1, zero-padded,
    as characters."""
    i = np.arange(10**width, dtype=np.int32)
    return np.stack([(i // 10**(width - 1 - j) % 10 + 48).astype(np.uint8)
                     for j in range(width)], axis=1)


def _pack(chars: np.ndarray, at: int = 0, size: int = 8) -> np.ndarray:
    """Little-endian words of `size` bytes holding the rows of `chars`
    from byte `at`."""
    out = np.zeros((len(chars), size), np.uint8)
    out[:, at:at + chars.shape[1]] = chars
    return out.view(f"<u{size}")[:, 0]


def _pow10_pair(k: int) -> tuple[float, float, float, float]:
    """hi, lo with hi + lo = 10^k to 2^-106 relative, and hi split into
    h1 + h2 of 26 bits each, all exact from integers (int / int rounds
    correctly)."""
    if k >= 0:
        hi = float(10**k)
        lo = float(10**k - int(hi))
    else:
        hi = 1 / 10**-k
        num, den = hi.as_integer_ratio()
        lo = (den - num * 10**-k) / (den * 10**-k)
    m, ex = math.frexp(hi)
    h1 = math.ldexp((int(m * 2**53) + 2**26) >> 27 << 27, ex - 53)
    return hi, lo, h1, hi - h1


@functools.cache
def _tables() -> dict:
    """Lookup tables of the CSV writer, built on first use."""
    e = np.arange(_E_LO, _E_HI)
    # by E, its layout class: fixed notation for -4 <= E < 17 (0..20),
    # else d.ddde+XX (21). m digits stand before the point in the frame
    # and s bytes are put in at it: the point, or '0.' and -E - 1 zeros
    # before all 17 digits when E < 0
    cls = np.where((e >= -4) & (e < 17), e + 4, 21)
    m = np.array([0] * 4 + list(range(1, 18)) + [1])
    s = np.array([5, 4, 3, 2] + [1] * 18)
    gap = [b"0.000", b"0.00", b"0.0", b"0."] + [b"."] * 18
    exponent = [f"e{x:+03d}".encode() if c == 21 else b""
                for x, c in zip(e.tolist(), cls)]
    pairs = np.array([_pow10_pair(16 - x) for x in e.tolist()]).T
    # groups of w digits of a '%d' field: as the highest (leading zeros
    # NUL, 0 all NUL), at g + 10^w as a lower one, at g + 2 10^w as the
    # highest and the units ('0' for 0); one or three beside the separator
    ints = {}
    for w, at, size in ((1, 1, 2), (2, 0, 2), (3, 1, 4), (4, 0, 4)):
        full = _digit_chars(w)
        lead = full * (np.cumsum(full > 48, axis=1, dtype=np.uint8) > 0)
        unit = lead.copy()
        unit[0, -1] = 48
        ints[w] = _pack(np.concatenate([lead, full, unit]), at, size)
    # the last nonzero digit of a group, counted in D from 1, or 0
    last = {w: np.where((d > 48).any(axis=1),
                        w - np.argmax(d[:, ::-1] > 48, axis=1), 0)
            for w, d in ((w, _digit_chars(w)) for w in (2, 3, 4))}
    return {
        "hi": pairs[0], "lo": pairs[1], "h1": pairs[2], "h2": pairs[3],
        # D = ((A 10^4 + B) 10^8 + C 10^4 + G) 10^3 + R: the frame is ','
        # the sign (A >= 100), then the 17 digits from byte 2 on; B, C and
        # G are looked up in the four-digit groups
        "A": _frame([(b",\0" if i < 100 else b",-") + b"%02d" % (i % 100)
                     for i in range(200)], 1)[0],
        "R": _pack(_digit_chars(3)),
        "last_A": np.tile(last[2], 2),
        "last_R": np.where(last[3] > 0, last[3] + 14, 0).astype(np.uint8),
        "last4": last[4].astype(np.uint8),
        # by E: m and s; the shift of the moved bytes in bits, and back;
        # per word the bytes kept in place and the bytes put in
        "m": m[cls], "s": s[cls],
        "shift": (8 * s[cls]).astype(np.uint64),
        "back": (64 - 8 * s[cls]).astype(np.uint64),
        "keep": _frame([b"\xff" * (2 + j) for j in m])[:, cls],
        "gap": _frame([b"\0" * (2 + j) + g for j, g in zip(m, gap)])[:, cls],
        # 'e+XX' / 'e-XXX' after the digits, at bytes 20..23 of a narrow
        # field (two exponent digits), or bytes 24..28 of a wide one
        "suffix": _frame([b"\0" * 20 + x if len(x) == 4 else b""
                          for x in exponent])[2],
        "suffix_wide": _frame(exponent, 1)[0],
        # bytes below byte 2 + end, end = 0..22
        "below": _frame([b"\xff" * (2 + j) for j in range(23)]),
        "groups": ints,
    }


def _int_width(v: np.ndarray) -> tuple[int, bool]:
    """Bytes of the widest '%d' of int64 v with its separator, as a word
    of the separator and the sign or the highest digit, then digit pairs;
    and whether some v[i] < 0."""
    lo, hi = (int(v.min()), int(v.max())) if len(v) else (0, 0)
    digits = len(str(max(-lo, hi)))
    return 2 + 2 * ((digits + 1) // 2 if lo < 0 else digits // 2), lo < 0


def _int_fields(v: np.ndarray, negative: bool, sep: int, out: np.ndarray):
    """Write sep then '%d' % v[i] for int64 v, NUL-padded, into out, an
    (n, 1 + pairs) '<u2' view: a word of sep and the sign (or, where no
    v[i] < 0, the highest digit), then the digits four at a time from a
    table, from the units up, the leading zeros NUL."""
    groups = _tables()["groups"]
    pairs = out.shape[1] - 1
    q = v.astype(np.int64, copy=negative).view(np.uint64)
    if negative:
        neg = v < 0                              # two's complement negate:
        np.negative(q, out=q, where=neg)         # -2^63 becomes 2^63
        out[:, 0] = np.where(neg, sep | 45 << 8, sep)
    for j in range(pairs, 0 if negative else 1, -2):
        if q.dtype == np.uint64 and j <= 4:      # q < 10^9 from here on
            q = q.astype(np.uint32)
        if j == 1:                               # the highest pair
            out[:, 1] = groups[2][q + (0 if j < pairs else 200)]
            return
        hi = q // q.dtype.type(10**4)
        g = (q - hi * q.dtype.type(10**4)).astype(np.intp)
        g += np.where(hi > 0, 10**4, 0 if j < pairs else 2 * 10**4)
        g = groups[4][g].view("<u2")
        out[:, j - 1] = g[::2]
        out[:, j] = g[1::2]
        q = hi
    if negative:
        return
    # beside sep, the highest digit, or the highest three (an odd count)
    width = 3 if pairs % 2 else 1
    g = q.astype(np.intp) + (2 * 10**width if pairs <= 1 else 0)
    if width == 1:
        out[:, 0] = groups[1][g] | sep
    else:
        g = (groups[3][g] | sep).view("<u2")
        out[:, 0], out[:, 1] = g[::2], g[1::2]


def _digits(a: np.ndarray, idx: np.ndarray):
    """(D, r) for |v| = a at E = idx + _E_LO: P = a 10^(16 - E) is
    p + err, D = p + rint(err) as int64 and r = err - rint(err)."""
    t = _tables()
    c = a * _SPLIT                         # Veltkamp: a = a1 + a2
    a1 = c - a
    np.subtract(c, a1, out=a1)
    a2 = np.subtract(a, a1, out=c)
    p = a * t["hi"][idx]
    # Dekker: err = a2 h2 - (((p - a1 h1) - a2 h1) - a1 h2), exact; then
    # err += a lo
    h = t["h1"][idx]
    err = np.subtract(p, a1 * h)
    err -= np.multiply(a2, h, out=h)
    h = t["h2"][idx]
    err -= np.multiply(a1, h, out=a1)
    np.subtract(np.multiply(a2, h, out=a2), err, out=err)
    err += np.multiply(a, t["lo"][idx], out=h)
    d = np.rint(err, out=h)
    err -= d
    return p.astype(np.int64) + d.astype(np.int64), err


def _float_digits(a: np.ndarray):
    """(D, idx, fast) for |v| = a, which becomes 1 where not fast: the 17
    digits, E - _E_LO, and whether D is certain."""
    fast = a >= _FAST[0]
    fast &= a <= _FAST[1]
    np.copyto(a, 1.0, where=~fast)
    idx = np.floor(np.log10(a)).astype(np.intp)
    idx -= _E_LO
    digits, r = _digits(a, idx)
    # D outside (10^16, 10^17) takes Python's route: E may be one off
    # (log10 near a power of ten), or D rounded up to 10^17. D = 10^16 with
    # err >= 0 holds, also if E is one too high: P then rounds to 10^17 at
    # E - 1, the same digits
    edge = np.flatnonzero((digits - (10**16 + 1)).view(np.uint64)
                          >= np.uint64(9 * 10**16 - 1))
    edge = edge[(digits[edge] != 10**16) | (r[edge] < 0)]
    fast[edge] = False
    digits[edge] = 10**16                  # any 17 digits: Python's route
    np.abs(r, out=r)
    fast &= r < 0.5 - _TIE_MARGIN
    return digits, idx, fast


def _float_fields(digits, idx, out):
    """Write ',' then '%.17g' of the digits D at E = idx + _E_LO, NUL-padded,
    into out: three '<u8' views of the field's words, or four for a wide
    field. D + 10^17 stands for -D.

    The frame is the separator, the sign, and D's 17 digits from byte 2.
    C's %g rules put the point after the first digit (d.ddde+XX) or after
    E + 1 of them (-4 <= E < 17), or '0.' and -E - 1 zeros before them
    (E < 0); the digits from there on move up by the bytes put in, and
    the field ends after the last nonzero digit, or at the point if none
    follows it.
    """
    t = _tables()
    # D = ((A 10^4 + B) 10^8 + C 10^4 + G) 10^3 + R, A = 10..199 the
    # sign and the first two digits
    high = digits // 1000
    low = high * 1000
    np.subtract(digits, low, out=low)
    w2 = t["R"][low]
    last = t["last_R"][low]
    rare = np.flatnonzero(low == 0)        # last digit among the first 14
    top = high // 10**8
    high -= top * 10**8
    a = top // 10**4
    w0 = t["A"][a]
    top -= a * 10**4
    quad = t["groups"][4][10**4:2 * 10**4]     # '0000'..'9999'
    w0 |= quad[top].astype(np.uint64) << np.uint64(32)
    c = np.floor_divide(high, 10**4, out=low)
    w1 = quad[c].astype(np.uint64)
    high -= c * 10**4
    w1 |= quad[high].astype(np.uint64) << np.uint64(32)
    if len(rare):
        found = t["last_A"][a.reshape(-1)[rare]]
        for g, at in ((top, 2), (c, 6), (high, 10)):
            n = t["last4"][g.reshape(-1)[rare]].astype(np.intp)
            np.maximum(found, n + (n > 0) * at, out=found)
        last.reshape(-1)[rare] = found
    del high, low, top, a, c
    m, s = t["m"][idx], t["s"][idx]
    end = last + s
    np.copyto(end, m, where=last <= m)
    # the bytes kept in place (below 2 + m), put in (from 2 + m to
    # 2 + m + s) and cut off (from 2 + end): a word none of whose values
    # has such bytes skips that step
    kept_to, cut_from = 2 + int(m.max()), 2 + int(end.min())
    put = 2 + int(m.min()), 2 + int((m + s).max())
    shift, back = t["shift"][idx], t["back"][idx]
    high = None
    for w, word in enumerate((w0, w1, w2)):
        # the bytes from the point on move up, into the bytes put in
        kept = word & t["keep"][w][idx] if kept_to > 8 * w else None
        if kept is not None:
            word ^= kept
        moved = word << shift
        if high is not None:
            moved |= high >> back
        high = word
        if kept is not None:
            moved |= kept
        if put[0] < 8 * w + 8 and put[1] > 8 * w:
            moved |= t["gap"][w][idx]
        if cut_from < 8 * w + 8:
            moved &= t["below"][w][end]
        if w == 2 and len(out) == 3:
            moved |= t["suffix"][idx]
        out[w][...] = moved
    if len(out) == 4:
        out[3][...] = t["suffix_wide"][idx]


def _python_fields(v: np.ndarray) -> np.ndarray:
    """'%.17g' % v[i] by Python's formatter: bytes, as wide as the
    longest."""
    return np.array(["%.17g" % x for x in v.tolist()], dtype="S")


def _float_run(columns):
    """(field width, (D with the sign, idx, slow, text)) of adjacent float
    columns, formatted in one pass: slow are the flat indices of the
    values Python's formatter prints, text their bytes."""
    v = np.concatenate(columns) if len(columns) > 1 else columns[0]
    digits, idx, fast = _float_digits(np.abs(v, dtype=np.float64))
    slow = np.flatnonzero(~fast)
    zero = v[slow] == 0                    # D = 0 at E = 0 prints '0'
    digits[slow[zero]], idx[slow[zero]] = 0, -_E_LO
    slow = slow[~zero]
    text = _python_fields(v[slow])
    e = int(idx.min()) + _E_LO, int(idx.max()) + _E_LO
    wide = text.itemsize >= _NARROW or e[0] < -99 or e[1] > 99
    # the sign, as `_float_fields` takes it
    digits += (v.view(np.uint64) >> np.uint64(63)).view(np.int64) * 10**17
    return _WIDE if wide else _NARROW, (digits, idx, slow, text)


def _rows(columns, first: bool = False) -> bytearray:
    """The CSV lines of equal-length integer ('%d') and float ('%.17g')
    columns, each line led by '\n', but for the first when `first`."""
    n = len(columns[0])
    runs = []                        # adjacent float columns share a run
    for c in columns:
        if c.dtype.kind == "f" and runs and runs[-1][0].dtype.kind == "f":
            runs[-1].append(c)
        else:
            runs.append([c])
    # each run's field width and what its writer takes; floats start on a
    # word, and the row is whole words if it holds one
    plans = [_float_run(r) if r[0].dtype.kind == "f" else _int_width(r[0])
             for r in runs]
    at, offsets = 0, []
    for r, (width, _) in zip(runs, plans):
        if r[0].dtype.kind == "f":
            at += -at % 8
        offsets.append(at)
        at += width * len(r)
    floats = any(r[0].dtype.kind == "f" for r in runs)
    buf = bytearray(n * (at + -at % (8 if floats else 2)))
    rows = np.frombuffer(buf, np.uint8).reshape(n, -1)
    for j, (r, (width, plan), at) in enumerate(zip(runs, plans, offsets)):
        if r[0].dtype.kind != "f":
            _int_fields(r[0], plan, 44 if j else 10,
                        rows.view("<u2")[:, at // 2:(at + width) // 2])
            continue
        digits, idx, slow, text = plan
        k, words = len(r), width // 8
        block = rows.view("<u8")[:, at // 8:at // 8 + k * words]
        block = block.reshape(n, k, words).transpose(1, 0, 2)
        out = [block[..., w] for w in range(words)]
        _float_fields(digits.reshape(k, n), idx.reshape(k, n), out)
        if j == 0:
            out[0][0] ^= np.uint64(44 ^ 10)
        if not len(slow):
            continue
        col, row = np.divmod(slow, n)
        text = text.view(np.uint8).reshape(len(slow), -1)
        for c in np.unique(col).tolist():
            start = at + c * width + 1
            rows[row[col == c], start:start + width - 1] = 0
            rows[row[col == c], start:start + text.shape[1]] = text[col == c]
    if first and n:
        rows[0, 0] = 0
    return buf.translate(None, b"\0")


def csv_text(header: str, blocks) -> bytearray:
    """header, then one line per row of each block of equal-length
    columns, as ASCII bytes, written by numpy `_CSV_ROWS` rows at a time:
    integers as '%d', floats as '%.17g' byte for byte (`_float_fields`;
    near-ties and special values go through Python's formatter)."""
    text = bytearray(header.encode("ascii"))
    first = True
    for columns in blocks:
        for a in range(0, len(columns[0]), _CSV_ROWS):
            text += _rows([c[a:a + _CSV_ROWS] for c in columns], first)
            first = False
    if not first:
        text += b"\n"
    return text
