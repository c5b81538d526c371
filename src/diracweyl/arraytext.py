"""Bit-exact %.17g text of float arrays, formed for whole blocks of values.

One formatter (_format_block) serves two writers:

* write_table writes the bytes of fmt % tuple(row), row by row, for a
  float table whose columns are %.17g or %d (the CLI's bands.csv);
* json_array gives the text json.dumps(a.tolist()) lays out for a float
  array, each number spelled as %.17g spells it, except that -0.0 is
  written "-0.0" (JSON reads "-0" back as the integer 0); save_potential
  writes every number array of a potential file with it.

Each float between 1e-11 and 1e17 in magnitude is formatted from its
exact 17-digit decimal, taken from a wide integer product; zeros, %d
values and everything else (subnormals, values out of that range, which
are formatted one by one) have layout classes of their own.  The values
are laid out as native uint32 words in little-endian byte order, so
callers take these writers on little-endian hosts only, as json_array
does itself.

Imported lazily, by cli._Run.table's array path and by
foundation.save_potential: a command that writes neither an array table
nor a potential file never compiles it.
"""

import json
import sys
from functools import lru_cache

import numpy as np

# values per block: 512 rows of 10 values peak at 0.64 MB traced,
# against 1.26 MB for 1024 rows, for about the same time per value
_BLOCK_VALUES = 5120

# one value is laid out in _SLOTS bytes, 8 uint32 words: its sign and the
# "0.000" prefix of a fixed-point value below 1 (bytes 0-5), the 17
# digits at bytes 7-23 up to the point and at bytes 8-24 after it, the
# point between them, four exponent bytes (bytes 25-28) and the
# separator the caller gives each column (byte 29).  The bytes of a
# value's text are its nonzero bytes, in order.
_SLOTS = 32
# layout classes: %.17g by (k, sign, last nonzero digit) for k in
# [-11, 17], then zero as "0", "-0" and "-0.0", %d by (digit count,
# sign) and the fallback
_ZERO_G = 29 * 2 * 17
_INT_D = _ZERO_G + 3
_FALLBACK = _INT_D + 17 * 2
# a fallback value leaves this byte, which no formatted value contains
_MARK = b"\x01"

_POW5 = np.array([5 ** j for j in range(28)], dtype=np.uint64)
_POW10 = np.array([10 ** j for j in range(1, 17)], dtype=np.uint64)
_E16, _E17 = np.uint64(10 ** 16), np.uint64(10 ** 17)


@lru_cache(maxsize=None)
def _layout():
    """(template, before, after, quads) as uint32 words: per layout class
    its constant bytes, and masks of 0xff on the digit bytes it shows up
    to the point and after it; the four ASCII digits of each of 0..9999,
    and a zero word at index 10000."""
    tables = np.zeros((3, _FALLBACK + 1, _SLOTS), np.uint8)
    template, before, after = tables

    def put(c, neg, last, point=16, prefix=b"", suffix=b""):
        """Class c: digits up to last, the point after digit point."""
        template[c, 0] = ord("-") if neg else 0
        template[c, 1:1 + len(prefix)] = list(prefix)
        before[c, 7:8 + min(point, last)] = 0xff
        if last > point:
            template[c, 8 + point] = ord(".")
            after[c, 9 + point:9 + last] = 0xff
        template[c, 25:25 + len(suffix)] = list(suffix)

    for c in range(_ZERO_G):
        k, neg, last = c // 34 - 11, c // 17 % 2, c % 17
        if -4 <= k < 0:
            put(c, neg, last, prefix=b"0." + b"0" * (-k - 1))
        elif 0 <= k < 17:
            put(c, neg, max(last, k), k)
        else:
            put(c, neg, last, 0, suffix=b"e%+03d" % k)
    # the last digit only, a zero; "-0.0" takes a constant ".0" after it
    for c, neg in ((_ZERO_G, 0), (_ZERO_G + 1, 1), (_ZERO_G + 2, 1)):
        put(c, neg, 16)
        before[c, :23] = 0
    template[_ZERO_G + 2, 24:26] = list(b".0")
    for neg in (0, 1):
        for count in range(1, 18):
            c = _INT_D + 2 * (count - 1) + neg
            put(c, neg, 16)
            before[c, :24 - count] = 0
    put(_FALLBACK, 0, -1, prefix=_MARK)
    tables.flags.writeable = False      # shared by every call
    # digit j of i in 0..9999 varies along axis j of a (10, 10, 10, 10)
    # grid: each is broadcast from the ten ASCII digits, no temporaries
    digits = np.zeros((10001, 4), np.uint8)
    grid = digits[:-1].reshape(10, 10, 10, 10, 4)
    ascii_digits = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    for j in range(4):
        grid[..., j] = ascii_digits.reshape((10,) + (1,) * (3 - j))
    return (*tables.view(np.uint32), digits.view(np.uint32).ravel())


def _round17(f, e, k):
    """round-half-even(f 2^e 10^(16 - k)) and its truncation, as uint64,
    for 53-bit f and 0 <= 16 - k <= 27: the product f 5^(16 - k) takes
    two 64-bit limbs (at most 116 bits), shifted by e + 16 - k."""
    j = 16 - k
    p = _POW5.take(j)
    s = -(e + j)
    lo, hi = f & 0xFFFFFFFF, f >> 32
    ph = p >> 32
    p &= 0xFFFFFFFF
    mid = lo * ph
    mid += hi * p
    lo *= p
    hi *= ph
    hi += mid >> 32
    mid <<= 32
    lo += mid
    hi += lo < mid
    # (hi, lo) >> s, and the bits shifted out moved to the top, to compare
    # with one half; s is in [1, 63] below 2^51, and from there the
    # quotient is an integer that fits one limb
    sr = s.astype(np.uint64)
    up = 64 - sr
    trunc = hi << up
    trunc |= lo >> sr
    rest = lo << up
    half = np.uint64(1 << 63)
    n = trunc + ((rest > half) | ((rest == half) & (trunc & 1 == 1)))
    left = s <= 0       # exact: the product fits one limb
    if left.any():
        n[left] = trunc[left] = lo[left] << (-s[left]).astype(np.uint64)
    return n, trunc


def _decimal17(a):
    """The 17 significant digits n (uint64) and decimal exponent k (int32)
    of each float a in (1e-11, 1e17), as %.17g rounds them: a = n 10^(k -
    16) rounded half to even.  k starts at floor(log10 a), which is off by
    one near powers of ten, and is corrected where the unrounded quotient
    is below 10^16 or at least 10^17.  No n rounds up to 10^17, which
    would take a double within 5e-18 (relative) under a power of ten: for
    each of 10^-11..10^17 the largest double below it lies at least
    2e-17 under it (checked exactly; the tests' edge values hold them).
    """
    k = np.clip(np.floor(np.log10(a)).astype(np.int32), -11, 16)
    bits = a.view(np.uint64)
    f = bits & ((1 << 52) - 1)
    f |= 1 << 52
    e = (bits >> 52).astype(np.int32) - 1075
    n, trunc = _round17(f, e, k)
    low = trunc < _E16
    off = low | (trunc >= _E17)
    if off.any():
        k[off] += np.where(low[off], -1, 1).astype(np.int32)
        n[off] = _round17(f[off], e[off], k[off])[0]
    return n, k


def _format_block(x, ints, ends, signed_zeros):
    """Bytes of the values of the float block x, row after row, each with
    %.17g, or %d where the column's ints is True, followed by its column's
    separator byte in ends (uint8).  signed_zeros writes -0.0 as "-0.0".
    Values out of the digit-exact range (nonzero below 1e-11 or from 1e17
    in magnitude, subnormal or not finite) are formatted one by one."""
    template, before, after, quads = _layout()
    rows, cols = x.shape
    flat = x.ravel()
    mag = np.abs(flat)
    fast = (mag > 1e-11) & (mag < 1e17)
    n, k = _decimal17(np.where(fast, mag, 1.0))
    neg = np.signbit(flat)
    zero = mag == 0
    n[zero] = 0
    if ints.any():
        y = x[:, ints]
        ok = np.abs(y) < 1e17
        n.reshape(rows, cols)[:, ints] = np.where(ok, np.abs(y), 0)
        count = np.searchsorted(_POW10, n.reshape(rows, cols)[:, ints],
                                side="right")
    # words 1-5 of the digits: the 4-digit groups of n, the first holding
    # its leading digit only (numpy's // by a constant is far faster than
    # its %); words 0, 6 and 7 stay zero.  Temporaries are dropped once
    # used, to keep the block's traced peak low
    words = np.zeros((len(n), 8), np.uint32)
    head = n // _E16
    words[:, 1] = quads.take(head)
    n -= head * _E16
    high = n // 10 ** 8
    for col, part in ((2, high), (4, n - high * np.uint64(10 ** 8))):
        high = part // 10000
        words[:, col] = quads.take(high)
        part -= high * 10000
        words[:, col + 1] = quads.take(part)
    del n, head, high
    # the layout class: (k, sign, last nonzero digit) for a %.17g value
    cls = k
    cls += 11
    cls *= 34
    cls += neg * np.int32(17) + np.int32(16)
    # n ends in a zero where its last group (part) does; only those values
    # look for their last nonzero digit
    tens = np.flatnonzero(part == part // 10 * 10)
    cls[tens] -= np.argmax(words.view(np.uint8)[tens, 23:6:-1] != ord("0"),
                           axis=1).astype(np.int32)
    del part
    cls[zero] = _ZERO_G + neg[zero] * np.int32(2 if signed_zeros else 1)
    cls[~fast & ~zero] = _FALLBACK
    if ints.any():
        cls.reshape(rows, cols)[:, ints] = np.where(
            ok, _INT_D + 2 * count + (y <= -1), _FALLBACK)
    # the digits after the point go one byte on: the whole block shifts
    # as one run of bytes, the zero word 7 keeping values apart
    late = words.ravel() << 8
    late[1:] |= words.ravel()[:-1] >> 24
    words &= before.take(cls, axis=0)
    late &= after.take(cls, axis=0).ravel()
    words |= template.take(cls, axis=0)
    words |= late.reshape(words.shape)
    del late
    words.view(np.uint8).reshape(rows, cols, _SLOTS)[:, :, 29] = ends
    text = words.tobytes()
    del words
    text = text.translate(None, b"\0")
    slow = np.flatnonzero(cls == _FALLBACK)
    if not len(slow):
        return text
    fmts = np.where(np.tile(ints, rows)[slow], "%d", "%.17g")
    parts = text.split(_MARK)
    return b"".join(p + (f % v).encode() for p, f, v in zip(
        parts, fmts.tolist(), flat[slow].tolist())) + parts[-1]


def _blocks(x, ints, ends, signed_zeros):
    """_format_block over blocks of at most _BLOCK_VALUES values of the
    2-D float array x (whole rows, at least one)."""
    step = max(1, _BLOCK_VALUES // x.shape[1])
    for i in range(0, len(x), step):
        yield _format_block(x[i:i + step], ints, ends, signed_zeros)


def write_table(fh, rows, ints):
    """Write to the binary file fh the bytes of fmt % tuple(row) + "\\n"
    for each row of the 2-D float array rows, fmt having %d in the
    columns where ints is True and %.17g elsewhere, joined by ","."""
    ends = np.full(len(ints), ord(","), np.uint8)
    ends[-1] = ord("\n")
    for text in _blocks(rows, ints, ends, False):
        fh.write(text)


def json_array(a):
    """json.dumps(a.tolist()) for the float ndarray a, but with every
    number spelled as %.17g spells it, -0.0 as "-0.0": each reads back as
    the same float.  An array that is not all finite (JSON has no inf or
    nan; json.dumps writes Infinity and NaN, which json.loads reads back)
    or a big-endian host gets json.dumps's own spelling."""
    if sys.byteorder != "little" or not np.isfinite(a).all():
        return json.dumps(a.tolist())
    rows = a.reshape(len(a), -1)
    # the separator after each column, as code 2 + the number of lists
    # it closes: each column that ends an inner list closes one more
    ends = np.full(rows.shape[1], 2, np.uint8)
    size = 1
    for n in reversed(a.shape[1:]):
        size *= n
        ends[size - 1::size] += 1
    text = b"".join(_blocks(rows, np.zeros(len(ends), bool), ends, True))
    # the last value closes every list
    text = b"[" * a.ndim + text[:-1] + b"]" * a.ndim
    for d in range(a.ndim):
        text = text.replace(bytes([2 + d]), b"]" * d + b", " + b"[" * d)
    return text.decode()
