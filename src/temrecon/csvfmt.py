"""CSV rows formatted in numpy, byte for byte as Python's printf.

`csv_rows(template, *columns)` returns `template * n % fields` for a
template of `%d` and `%.17g` conversions.  Each row is laid out at a fixed
width, every field in a slot of words padded with NUL bytes, and one
`bytes.translate` drops the padding.  Digits come four at a time from a
table of 4-digit groups.

A `%.17g` field needs the correctly rounded 17 significant digits of a
double (Gay, 1990).  For 1e-28 <= |x| < 1e17 they follow from an exact
product |x| 10**(16 - e) = h + r: |x| 2**k is exact, and Dekker's
error-free product (1971) with 5**k, held as an exact double-double when
k > 22, leaves the remainder r.  A field this path cannot certify is
Python's own `'%.17g' % x`: a value not finite or out of range, and, for
k > 22, a remainder near a half-integer.
"""

import re

import numpy as np

from .errors import InputError

_SPEC = re.compile(r"%(d|\.17g)")
# A float slot as little-endian int64 words: byte i is bits 8 (i % 8) up
# of word i // 8.  ASCII bytes never set a sign bit, so shifts act as on
# unsigned words, and int64 arithmetic runs loops the program already pages in.
_LE8 = np.dtype("<i8")
_ZERO = ord("0")
_E_MIN, _E_MAX = -28, 16    # the decimal exponents of the numpy path: 0 <= 16 - e <= 44
_TIE_TOL = 1e-6             # an inexact remainder this near a half-integer falls back
# Word indices into `_WORDS`: 4-digit groups at 0, with leading zeros NUL
# at _LEAD, with trailing zeros NUL at _TRAIL (_TRAIL itself is four NUL),
# and the sign word of a negative '%d'.
_LEAD, _TRAIL, _NEG = 10_000, 20_000, 30_000
# A '%.17g' slot is 32 bytes: the sign at byte 2, a '0.000' prefix ending
# at byte 7, the digits from byte 8 with the dot moved in after the
# integer digits, and an 'e-XX' suffix at bytes 26-29.
_SLOT, _DIGITS_AT, _SUFFIX_AT = 32, 8, 26
_MINUS = np.array(ord("-") << 16, dtype=_LE8)       # '-' at byte 2 of word 0


def _group_words():
    """The 4-byte words of `_WORDS`: the ASCII digits of each group g at g,
    _LEAD + g and _TRAIL + g, with the zeros stripped there NUL, and a '-'
    right-aligned at _NEG."""
    table = np.empty((_NEG + 1, 4), dtype=np.uint8)
    words = table[:_NEG].reshape(3, 10, 10, 10, 10, 4)
    for place in range(4):
        words[..., place] = np.arange(_ZERO, _ZERO + 10, dtype=np.uint8).reshape(
            (10,) + (1,) * (3 - place))
    lead, trail = words[1], words[2]
    lead[0, ..., 0] = lead[0, 0, ..., 1] = lead[0, 0, 0, :, 2] = 0      # g < 1000, < 100, < 10
    trail[..., 0, 3] = trail[..., 0, 0, 2] = trail[:, 0, 0, 0, 1] = trail[0, 0, 0, 0, 0] = 0
    table[_NEG] = (0, 0, 0, ord("-"))
    return table.view(np.uint32).ravel()


_WORDS = _group_words()


def _slot_tables():
    """Per exponent e, at row e - _E_MIN: the mask of the digits left of the
    dot, and the constant bytes of the slot without and with the dot (rows
    2 (e - _E_MIN) and 2 (e - _E_MIN) + 1): the prefix, a '0' under each
    integer digit (a stripped zero is NUL), the dot and the suffix."""
    masks, consts = [], []
    for e in range(_E_MIN, _E_MAX + 1):
        left = e if e >= 0 else 16 if e >= -4 else 0     # the digits d0..d_left go left of the dot
        mask, const = bytearray(_SLOT), bytearray(_SLOT)
        mask[_DIGITS_AT:_DIGITS_AT + left + 1] = b"\xff" * (left + 1)
        if e >= 0:
            const[_DIGITS_AT:_DIGITS_AT + e + 1] = b"0" * (e + 1)
        elif e >= -4:
            const[_DIGITS_AT + e - 1:_DIGITS_AT] = b"0." + b"0" * (-e - 1)
        else:
            const[_SUFFIX_AT:_SUFFIX_AT + 4] = b"e-%02d" % -e
        dotted = bytearray(const)
        dotted[_DIGITS_AT + left + 1] = ord(".")
        masks.append(mask)
        consts += [const, dotted]
    return (np.frombuffer(b"".join(masks), dtype=_LE8).reshape(-1, 4),
            np.frombuffer(b"".join(consts), dtype=_LE8).reshape(-1, 4))


_LEFT_MASK, _CONST = _slot_tables()


def _split(a):
    """Veltkamp's split: a = hi + lo with each half on 26 bits."""
    c = 134217729.0 * a
    hi = c - (c - a)
    return hi, a - hi


def _powers():
    """Tables over 0 <= k <= 44: 2**k, and 5**k as hi + lo exactly (5**44
    has 103 bits) with hi split for Dekker's product."""
    hi = np.array([float(5**k) for k in range(45)])
    lo = np.array([float(5**k - int(h)) for k, h in enumerate(hi.tolist())])
    return np.array([2.0**k for k in range(45)]), (hi, *_split(hi), lo)


_POW2, _POW5 = _powers()


def _scaled(a, k):
    """(h, r) with a 10**k = h + r, for positive doubles a and int64
    0 <= k <= 44: h and its error are Dekker's error-free product (1971)
    of a 2**k (exact) with hi, and r adds a 2**k lo, where 5**k = hi + lo.
    r is exact for k <= 22 (lo = 0) and within 1e-14 beyond."""
    a = a * _POW2.take(k)
    hi, hi_hi, hi_lo, lo = (t.take(k) for t in _POW5)
    h = a * hi
    a_hi, a_lo = _split(a)
    return h, (((a_hi * hi_hi - h) + a_hi * hi_lo + a_lo * hi_hi) + a_lo * hi_lo) + a * lo


def _int_words(v):
    """'%d' of each int64 of `v` as uint32 words, (n, 1 + groups): the sign
    word, then the digits right-aligned with leading zeros NUL.  -2**63,
    whose magnitude int64 cannot hold, is Python's own '%d'."""
    top = max(-int(v.min(initial=0)), int(v.max(initial=0)))
    groups = max(1, -(-len(str(top)) // 4))
    idx = np.empty((v.size, 1 + groups), dtype=np.intp)
    idx[:, 0] = np.where(v < 0, _NEG, _TRAIL)
    mag = np.abs(v)
    for i in range(groups, 0, -1):
        q = mag // 10_000
        idx[:, i] = mag - 10_000 * q
        # a group left of every nonzero digit is four NUL: _LEAD + _LEAD + 0
        idx[:, i] += _LEAD * (q == 0) + _LEAD * ((mag == 0) & (i < groups))
        mag = q
    words = _WORDS.take(idx)
    for i in np.flatnonzero(v == np.iinfo(np.int64).min):
        words[i] = np.frombuffer((b"%d" % v[i]).rjust(4 * words.shape[1], b"\0"), dtype=np.uint32)
    return words


def _decimal(x):
    """(D, e, ok): the 17 significant digits D (int64) and the decimal
    exponent e (int64) of each |x|, zero read as 1.0, and whether the numpy
    path certifies them; D = 10**16 and e = 0 where it does not.

    They come from |x| 10**(16 - e) = h + r (`_scaled`): e, first
    floor(log10 |x|), is settled by the sign of h + r against 10**16 and
    10**17, D = h + rint(r) rounds half to even (h >= 2**53 is even), and a
    D of 10**17 carries into e."""
    a = np.where(x == 0, 1.0, np.abs(x))
    e = np.floor(np.log10(a))
    ok = (e >= _E_MIN) & (e <= _E_MAX)
    a = np.where(ok, a, 1.0)        # a value off the path runs on 1.0 and stays uncertified
    e = np.where(ok, e, 0).astype(np.int64)
    h, r = _scaled(a, 16 - e)
    low = (h - 1e16) + r < 0        # h - 10**16 is exact: the sign of h + r - 10**16
    high = (h - 1e17) + r >= 0
    e += high
    e -= low
    ok &= (e >= _E_MIN) & (e <= _E_MAX)
    fix = np.flatnonzero((low | high) & ok)
    if fix.size:
        h[fix], r[fix] = _scaled(a[fix], 16 - e[fix])
    ok &= (16 - e <= 22) | (np.abs(r - np.floor(r) - 0.5) >= _TIE_TOL)   # inexact r near a tie
    d = h.astype(np.int64) + np.rint(r).astype(np.int64)
    carry = d == 10**17
    e += carry
    ok &= (d >= 10**16) & (d <= 10**17) & (e <= _E_MAX)
    return np.where(ok & ~carry, d, 10**16), np.where(ok, e, 0), ok


def _digit_words(d):
    """The digits of each D in [10**16, 10**17) at bytes 8-24 of four
    little-endian int64 words, (n, 4), NUL elsewhere and after the last
    nonzero digit: table words of the groups of 4, 4, 4, 4 and 1 digits."""
    idx = np.full((d.size, 8), _TRAIL, dtype=np.intp)
    rest = d // 10                  # `//` by a constant is much faster than divmod
    idx[:, 6] += 1000 * (d - 10 * rest)
    stripped = d == 10 * rest       # every digit right of this group is 0
    for i in (5, 4, 3, 2):
        top = rest // 10_000
        g = rest - 10_000 * top
        idx[:, i] = g + _TRAIL * stripped
        stripped &= g == 0
        rest = top
    return _WORDS.take(idx).view(_LE8)


def _float_words(x):
    """'%.17g' of each double of `x` as a slot of four little-endian int64
    words, (n, 4), padded with NUL.

    The digits (`_decimal`, `_digit_words`) left of the dot stay in place
    under the exponent's mask, the rest move up a byte, and the exponent's
    constants add the prefix, a '0' for each stripped zero of the integer
    part, the dot when a fraction digit is left, and the suffix.  Zero takes
    the path of 1.0 and writes '0' for its '1'.  Fields off the path are
    Python's own."""
    d, e, ok = _decimal(x)
    digits = _digit_words(d)
    e -= _E_MIN
    left_mask = _LEFT_MASK.take(e, axis=0)
    right = ~left_mask
    right &= digits
    has_fraction = (right[:, 1] | right[:, 2] | right[:, 3]) != 0
    words = _CONST.take(2 * e + has_fraction, axis=0)
    digits &= left_mask
    words |= digits
    words |= right << 8             # the fraction digits, a byte up to make room for the dot
    words.ravel()[1:] |= right.ravel()[:-1] >> 56
    words[:, 0] |= np.signbit(x) * _MINUS
    words[:, 1] -= x == 0           # zero's digit '1' becomes '0'
    for i in np.flatnonzero(~ok):
        words[i] = np.frombuffer(("%.17g" % x[i]).encode().ljust(_SLOT, b"\0"), dtype=_LE8)
    return words


def csv_rows(template, *columns):
    """The rows of equal-length columns as one string: the bytes of
    `template * n % fields` with the fields interleaved row by row, the one
    row formatter of every CSV artifact.

    The template holds `%d` (int64 columns) and `%.17g` (float columns)
    conversions and no other `%`.  Rows are laid out in numpy at a fixed
    width, each field in a slot of words padded with NUL, and one
    `translate` drops the padding.  The columns of each conversion are
    formatted together: a `%.17g` field takes its digits from an
    error-free product (`_float_words`), or is Python's `'%.17g' % x` where
    that path cannot certify them.
    """
    parts = _SPEC.split(template)
    literals, specs = [p.encode() for p in parts[0::2]], parts[1::2]
    if b"%" in b"".join(literals) or not specs or len(specs) != len(columns):
        raise InputError(f"template {template!r} needs one %d or %.17g per column")
    n = len(columns[0])
    if any(len(c) != n for c in columns):
        raise InputError("csv_rows needs columns of one length")
    if n == 0:
        return ""
    by_spec = {}
    for spec, fmt, dtype in (("d", _int_words, np.int64), (".17g", _float_words, float)):
        cols = [np.asarray(c, dtype=dtype) for s, c in zip(specs, columns) if s == spec]
        if cols:
            by_spec[spec] = iter(fmt(np.concatenate(cols)).reshape(len(cols), n, -1))
    slots = [next(by_spec[s]) for s in specs]
    width = sum(map(len, literals)) + sum(s.shape[1] * s.itemsize for s in slots)
    rows = np.empty((n, width), dtype=np.uint8)
    at = 0
    for lit, slot in zip(literals, slots + [None]):
        rows[:, at:at + len(lit)] = np.frombuffer(lit, dtype=np.uint8)
        at += len(lit)
        if slot is not None:
            rows[:, at:at + slot.shape[1] * slot.itemsize].view(slot.dtype)[:] = slot
            at += slot.shape[1] * slot.itemsize
    return rows.tobytes().translate(None, b"\0").decode("ascii")
