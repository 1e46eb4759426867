"""CSV text: the exact ``%.17g`` text of float64 arrays, computed with numpy.

Every float of the CLI's CSV tables (``surface``, ``potential`` and
``spectrum --format csv``) goes through :func:`g17`, which gives the bytes
of ``format(x, ".17g")`` for each value without a per-value ``%``, and
:func:`csv_text` joins columns of such texts into lines as bytes.  A text
stays in the 24-byte slot that :func:`g17` gives it, with its separator in
the slot's last byte, which only a 24-character ``_SLOT`` text fills; a
block that holds one gives each field a fourth word.  The lookup tables are
built on the first call, not on import.  Only :mod:`pdm_dirac.cli` uses
this module; the package does not re-export it.
"""

from __future__ import annotations

import functools
import types

import numpy as np

__all__ = ["csv_text", "g17", "text_words"]

_SLOT = "%.17g"  # every table float is written as format(value, ".17g")
_VALUES_AT_ONCE = 4096  # values in one pass of g17: its temporaries stay in cache
# g17 writes |x| in [10^_K_LOW, 10^(_K_HIGH + 1)) itself; the rest (0, nan,
# infinities and magnitudes outside the window) go through _SLOT
_K_LOW, _K_HIGH = -99, 99
# a significand tail this close to a half-integer is not rounded by g17 (the
# tail is within 2^-47 of the exact one)
_TIE_MARGIN = 2.0 ** -40
_WORDS = "<u8"  # text words: byte i of a word is its character i
_LAST_BYTE = 56  # the bit offset of a word's byte 7


@functools.cache
def _tables() -> types.SimpleNamespace:
    """The lookup tables of :func:`g17`, built on its first call (about 3 ms)."""
    t = types.SimpleNamespace()
    # 10^j = hi + lo for the j of the window's thresholds and scales: hi is
    # 10^j rounded, lo the rest rounded (exactly 0 for 0 <= j <= 22)
    low, high = min(_K_LOW, 16 - _K_HIGH), max(_K_HIGH + 1, 16 - _K_LOW)
    hi, lo = [], []
    for j in range(low, high + 1):
        if j >= 0:
            power = 10 ** j
            hi.append(float(power))
            lo.append(float(power - int(hi[-1])))
        else:
            power = 10 ** -j
            hi.append(1 / power)  # int / int rounds correctly
            num, den = hi[-1].as_integer_ratio()
            lo.append((den - num * power) / (den * power))
    t.hi, t.lo = np.array(hi), np.array(lo)
    scaled = t.hi * 134217729.0  # Veltkamp's split at 2^27 + 1
    t.hi_head = scaled - (scaled - t.hi)
    t.hi_tail = t.hi - t.hi_head
    # the smallest double >= 10^j, and the same table one place on
    t.at_least = np.where(t.lo > 0, np.nextafter(t.hi, np.inf), t.hi)
    t.at_least_next = np.append(t.at_least[1:], np.inf)
    t.k_offset = -low
    t.window = (t.at_least[_K_LOW - low], t.at_least[_K_HIGH + 1 - low])
    # four digits as text, in the low and in the high half of a word
    group = np.arange(10000)
    digits = np.stack([group // 1000, group // 100 % 10, group // 10 % 10, group % 10], 1)
    t.digits = (digits + 48).astype(np.uint8).view("<u4").ravel().astype(_WORDS)
    t.digits_high = t.digits << np.uint64(32)
    t.trailing_zeros = (digits[:, ::-1] == 0).cumprod(1).sum(1)
    # per printed exponent X: the code of its layout (0..16 fixed with X digits
    # before the point less one, 17..20 fixed with X = -1..-4, 21 scientific)
    # and the scientific exponent, in bytes 19..23 of the text
    exponents = range(_K_LOW, _K_HIGH + 2)
    layouts = [x if 0 <= x <= 16 else 16 - x if -4 <= x < 0 else 21 for x in exponents]
    t.layout = 36 * np.array(layouts)
    t.exponent = np.array([int.from_bytes(b"e%+03d" % x, "little") << 24 if layout == 21 else 0
                           for x, layout in zip(exponents, layouts)], _WORDS)
    # per code 36 * layout + 18 * negative + significant digits: the digit
    # bytes before the point (a) and after it (b), how far each moves, and
    # the fixed bytes (sign, "0." and zeros, the point), as 24-byte texts
    layout, negative, count = np.indices((22, 2, 18)).reshape(3, -1)
    fixed = layout <= 16  # fixed notation with X >= 0
    before = np.select([fixed, layout <= 20], [layout + 1, 0], 1)
    prefix = np.where(fixed | (layout == 21), 0, layout - 15)  # "0." and -X - 1 zeros
    kept = np.where(fixed, np.maximum(count, before), count)
    point = (0 < before) & (before < count)
    lead = negative + prefix
    byte = np.arange(24)
    a = byte < before[:, None]
    b = (byte < kept[:, None]) & ~a
    text = np.zeros((layout.size, 24), np.uint8)
    text[:, 0] = negative * ord("-")
    code, i = np.nonzero(byte[:5] < prefix[:, None])
    text[code, negative[code] + i] = np.frombuffer(b"0.000", np.uint8)[i]
    code = np.flatnonzero(point)
    text[code, lead[code] + before[code]] = ord(".")
    for name, bytes_ in (("a", a * 255), ("b", b * 255), ("fixed", text)):  # three words each
        setattr(t, name, np.ascontiguousarray(bytes_.astype(np.uint8).view(_WORDS).T))
    for name, shift in (("a_shift", lead), ("b_shift", lead + point)):  # and 64 less, the carry
        setattr(t, name, ((8 * shift).astype(_WORDS), (64 - 8 * shift).astype(_WORDS)))
    return t


def _log10_floor(a: np.ndarray) -> np.ndarray:
    """floor(log10(a)), give or take one: :func:`g17` corrects it exactly."""
    return np.floor(np.log10(a)).astype(np.intp)


def g17(values: np.ndarray) -> np.ndarray:
    """The ``%.17g`` text of each float64 in ``values``, computed with numpy.

    Returns an ``(n, 3)`` array of little-endian words: value i's text is in
    the 24 bytes of row i, NUL padded.  A scientific text has NULs between
    its digits and its exponent too; :func:`csv_text` drops every NUL.  Inside
    the window a text has at most 23 bytes (the exponent ends in byte 22),
    so byte 23 is NUL unless a ``_SLOT`` text fills it.

    The text is exact for |x| in [10^_K_LOW, 10^(_K_HIGH+1)); other values
    (0, nan, infinities, magnitudes outside the window) go through ``_SLOT``:

    - **Exponent.** ``k = floor(log10|x|)`` is taken from ``np.log10`` as an
      estimate only, off by at most one, and corrected by comparing |x|
      with the smallest doubles at least 10^k and 10^(k+1), from a table.
    - **Significand.** ``P = |x| 10^(16-k)`` lies in [1e16, 1e17).  Write
      ``10^(16-k) = C + c``: for ``0 <= 16-k <= 22`` it is the exact double
      C with c = 0, otherwise a double-double off by at most 2^-106
      relative.  Dekker's TwoProduct (Veltkamp split, no FMA) gives ``|x| C
      = h + e`` exactly.  ``h >= 2^53`` is an even integer, so rounding P to
      an integer, half to even, is ``h`` plus the same rounding of ``P - h =
      e + |x| c + |x| (10^(16-k) - C - c)``, which is below 24 in size.
      With c = 0 that is e exactly, and ``np.rint`` rounds it half to even.
      Otherwise ``tail = fl(e + fl(|x| c))`` is within 2^-47 of ``P - h``
      (2^-49 for each rounding and for the double-double), so ``rint(tail)``
      is exact unless tail is within ``_TIE_MARGIN`` of a half-integer;
      those values (exact ties among them) go through ``_SLOT``.
    - **Carry.** A significand of 10^17 is 10^16 with exponent k + 1.
    - **Layout.** The 17 digits come from a table of 4-digit groups, and
      ``%g``'s rules place them: fixed notation for -4 <= X < 17 (X the
      exponent after a carry), otherwise ``e``, a sign and at least two
      exponent digits; trailing zeros after the point go, and so does a
      bare point.
    """
    out = np.empty((values.size, 3), _WORDS)
    for start in range(0, values.size, _VALUES_AT_ONCE):
        chunk = values[start:start + _VALUES_AT_ONCE]
        out[start:start + chunk.size] = _chunk(chunk, _tables())
    return out


def _chunk(x: np.ndarray, t: types.SimpleNamespace) -> np.ndarray:
    a = np.abs(x)
    inside = (a >= t.window[0]) & (a < t.window[1])
    a = np.where(inside, a, 1.0)
    k = np.clip(_log10_floor(a), _K_LOW, _K_HIGH) + t.k_offset
    k += a >= t.at_least_next.take(k)
    k -= a < t.at_least.take(k)
    j = (16 + 2 * t.k_offset) - k  # the index of 10^(16-k)
    # 10^(16-k) = C + c; TwoProduct gives a C = h + e from the halves of a and C
    h = a * t.hi.take(j)
    split = a * 134217729.0
    a_head = split - (split - a)
    a_tail = a - a_head
    C_head, C_tail, c = t.hi_head.take(j), t.hi_tail.take(j), t.lo.take(j)
    tail = ((a_head * C_head - h) + a_head * C_tail + a_tail * C_head) + a_tail * C_tail + a * c
    rounded = np.rint(tail)
    inside &= (np.abs(tail - rounded) < 0.5 - _TIE_MARGIN) | (c == 0.0)
    sig = h.astype(np.int64) + rounded.astype(np.int64)
    carry = sig == 10 ** 17
    sig[carry] = 10 ** 16
    x_index = k - t.k_offset - _K_LOW + carry
    # the digits: four groups of four, then the last
    head16 = sig // 10
    last = sig - 10 * head16
    upper = head16 // 10 ** 8
    lower = head16 - upper * 10 ** 8
    g0, g2 = upper // 10 ** 4, lower // 10 ** 4
    g1, g3 = upper - g0 * 10 ** 4, lower - g2 * 10 ** 4
    words = (t.digits.take(g0) | t.digits_high.take(g1),
             t.digits.take(g2) | t.digits_high.take(g3),
             (last + 48).astype(_WORDS))
    zeros = t.trailing_zeros
    low_zeros = zeros.take(g3) + (g3 == 0) * zeros.take(g2)
    high_zeros = zeros.take(g1) + (g1 == 0) * zeros.take(g0)
    count = 17 - (last == 0) * (1 + low_zeros + (lower == 0) * high_zeros)
    code = t.layout.take(x_index) + 18 * np.signbit(x) + count
    a_shift, a_carry = (s.take(code) for s in t.a_shift)
    b_shift, b_carry = (s.take(code) for s in t.b_shift)
    out = np.empty((x.size, 3), _WORDS)
    moved_a = moved_b = np.uint64(0)  # the bytes each part carries into the next word
    for i, word in enumerate(words):
        part_a = word & t.a[i].take(code)
        part_b = word & t.b[i].take(code)
        out[:, i] = ((part_a << a_shift) | moved_a | (part_b << b_shift) | moved_b
                     | t.fixed[i].take(code))
        moved_a, moved_b = part_a >> a_carry, part_b >> b_carry
    out[:, 2] |= t.exponent.take(x_index)
    fallback = np.flatnonzero(~inside)
    if fallback.size:
        text = (f"{_SLOT}\n" * fallback.size % tuple(x[fallback].tolist())).split("\n")
        out[fallback] = text_words(text[:-1])
    return out


def text_words(texts: list[str]) -> np.ndarray:
    """ASCII texts of at most 24 characters as a column for :func:`csv_text`."""
    return np.array(texts, "S24").view(_WORDS).reshape(-1, 3)


def csv_text(*columns: np.ndarray) -> str:
    """CSV lines of NUL-padded texts, from :func:`g17` or :func:`text_words`:
    a line per element of the broadcast columns (each with a trailing axis of
    3 words), fields in column order, every NUL dropped.

    Each field keeps its slot, and the slot's last byte holds its separator
    (``,``, or ``\\n`` after the last field).  Dropping NULs keeps the byte
    order, so the separator follows its text.  A slot is the field's 3 words
    when no field of the block fills byte 23, which no :func:`g17` text
    inside its window does (the longest, ``-1.2345678901234567e-99``, has
    23 characters); a 24-character text (a ``_SLOT`` one with a three-digit
    exponent, ``-2.2250738585072014e-308``) gives every slot of the block a
    fourth word.
    """
    shape = np.broadcast_shapes(*(column.shape for column in columns))[:-1]
    width = 3 + any(column[..., 2].max(initial=0) >> _LAST_BYTE for column in columns)
    words = np.empty((*shape, len(columns), width), _WORDS)
    for i, column in enumerate(columns):
        words[..., i, :3] = column
    words[..., 3:] = 0  # the fourth word, if there is one
    separators = np.array([ord(",")] * (len(columns) - 1) + [ord("\n")], _WORDS)
    words[..., -1] |= separators << _LAST_BYTE
    text = words.view(np.uint8).ravel()
    return text[text != 0].tobytes().decode("ascii")
