"""``csvtext.g17``, the CSV tables' ``%.17g`` kernel, against ``format(v, ".17g")``.

Every case compares the kernel's text with Python's own formatting of the
same double, byte for byte: random and raw-bit doubles, the window's power-of-
ten boundaries, the fixed/scientific switches, significands that round up to
the next power of ten, exact ties, and the values the kernel hands to ``%``.
"""

import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pdm_dirac import csvtext
from pdm_dirac.csvtext import _K_HIGH, _K_LOW, csv_text, g17


def texts(values):
    """The text of each value, through the kernel and the CSV join."""
    return csv_text(g17(values)).split("\n")[:-1]


def assert_g17(values):
    values = np.asarray(values, dtype=np.float64).ravel()
    got = texts(values)
    for value, text in zip(values.tolist(), got):
        assert text == format(value, ".17g"), f"{value!r}: {text!r}"
    assert len(got) == values.size


def with_neighbours(values):
    """Each value, the doubles one ulp on either side, and their negatives."""
    values = np.asarray(values, dtype=np.float64)
    near = np.concatenate([values, np.nextafter(values, 0.0), np.nextafter(values, np.inf)])
    return np.concatenate([near, -near])


def below_power_of_ten(m):
    """The largest double below 10^m."""
    power = Fraction(10) ** m
    value = float(power)
    return value if Fraction(value) < power else math.nextafter(value, 0.0)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.lists(st.floats(width=64), min_size=1, max_size=64))
@example([0.1, 1.0, 123456789012345680.0, 1e16, 1e22, 1e23, -4.6213203435596426])
def test_random_doubles(values):
    assert_g17(values)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=64))
@example([0, 2 ** 63, 1, 0x7FF0000000000000, 0xFFF0000000000000, 0x7FF8000000000001])
def test_raw_bit_patterns(bits):
    assert_g17(np.array(bits, dtype=np.uint64).view(np.float64))


def test_a_million_seeded_doubles():
    rng = np.random.default_rng(29)
    assert_g17(rng.integers(0, 2 ** 64, 250_000, dtype=np.uint64).view(np.float64))
    assert_g17(rng.uniform(-100.0, 100.0, 250_000))
    assert_g17(np.exp(rng.uniform(-700.0, 700.0, 250_000)) * rng.choice([-1.0, 1.0], 250_000))
    assert_g17(rng.integers(-10 ** 17, 10 ** 17, 250_000).astype(np.float64))


def test_power_of_ten_boundaries():
    # 10^k rounded, the doubles either side of it, and the largest double
    # below 10^k, over the window's edges and the whole double range
    powers = [float(Fraction(10) ** m) for m in range(-323, 309)]
    below = [below_power_of_ten(m) for m in range(-307, 309)]
    assert_g17(with_neighbours(powers + below))
    edges = [10.0 ** _K_LOW, 10.0 ** (_K_HIGH + 1)]
    assert_g17(with_neighbours([float(f"1e{_K_LOW}"), float(f"1e{_K_HIGH + 1}"), *edges]))


def test_fixed_and_scientific_switches():
    # %g turns scientific below 1e-4 and from 1e17 on, after rounding
    values = [1e-4, 9.9999999999999995e-5, 1e17, 99999999999999999.0, 1e16,
              0.00012345678901234567, 1.2345678901234567e-5, 12345678901234567.0,
              1.2345678901234568e17, 0.5e-4, 0.001, 1234.5]
    assert_g17(with_neighbours(values))
    assert texts(np.array([1e-4, 1e17])) == ["0.0001", "1e+17"]


# the largest doubles below 10^m whose 17 digits round up to 10^m, so the
# exponent after rounding is one above floor(log10 x)
ROUND_UP_EXPONENTS = [-305, -243, -176, -175, -174, -79, -78, -73, -70, -14, 98, 129, 153, 220]


def test_significands_that_round_up_to_the_next_power_of_ten():
    values = [below_power_of_ten(m) for m in ROUND_UP_EXPONENTS]
    assert [format(v, ".17g") for v in values] == [f"1e{m:+03d}" for m in ROUND_UP_EXPONENTS]
    assert all(Fraction(v) < Fraction(10) ** m for v, m in zip(values, ROUND_UP_EXPONENTS))
    assert_g17(with_neighbours(values))


def exact_ties():
    """Dyadics m / 2^j whose exact decimal has 18 significant digits, the
    last a 5: halfway between two 17-digit decimals, at every scale."""
    rng = np.random.default_rng(17)
    ties = []
    for j in range(1, 26):
        low = -(-10 ** 17 // 5 ** j)
        high = min(10 ** 18 // 5 ** j, 2 ** 53)
        if low >= high:
            continue
        for m in rng.integers(low, high, 40).tolist():
            m |= 1
            if low <= m < high:
                ties.append(math.ldexp(m, -j))
    return ties


def test_exact_ties_round_half_to_even():
    ties = exact_ties()
    for tie in ties:
        digits = str(Fraction(tie).numerator * 5 ** (Fraction(tie).denominator.bit_length() - 1))
        assert len(digits.rstrip("0")) == 18 and digits.rstrip("0")[-1] == "5"
    # both rounding directions occur, and in both halves of the window
    texts = [format(t, ".17g") for t in ties]
    assert any(t[-1] in "02468" for t in texts) and any(t[-1] in "13579" for t in texts)
    # ties below 1e-6 scale by 10^23 or 10^24, which is not a double: the
    # kernel hands them to %
    assert any(t < 1e-6 for t in ties) and any(t > 1e6 for t in ties)
    assert_g17(with_neighbours(ties))


def near_ties(p, j, span):
    """Doubles x = m / 2^(j + p), 2^52 <= m < 2^53, for which |x| 10^p is in
    [1e16, 1e17) and t / 2^j from a half-integer, 0 < |t| <= span: m solves
    m 5^p = 2^(j-1) + t (mod 2^j)."""
    inverse = pow(5 ** p, -1, 1 << j)
    found = []
    for t in (t for a in range(1, span + 1) for t in (a, -a)):
        m = ((1 << j - 1) + t) * inverse % (1 << j)
        if 1 << 52 <= m < 1 << 53 and 10 ** 16 <= Fraction(m * 10 ** p, 1 << j + p) < 10 ** 17:
            found.append(math.ldexp(m, -j - p))
    return found


def test_near_ties_where_the_scale_is_no_double():
    # for 10^(16-k) beyond 10^22 the kernel rounds a tail that is only within
    # 2^-47 of exact; these values lie within 2^-40 of a tie (as close as
    # 2^-69), and without the _TIE_MARGIN guard some of them round the wrong way
    values = [x for p in range(23, 31) for j in range(p * 232 // 100 - 4, p * 232 // 100)
              for x in near_ties(p, j, 512)]
    assert len(values) > 1000
    assert_g17(with_neighbours(values))


def test_zeros_subnormals_infinities_and_nan():
    values = [0.0, -0.0, 5e-324, -5e-324, 2.225e-308, -2.2250738585072009e-308,
              2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308,
              math.inf, -math.inf, math.nan, -math.nan]
    assert_g17(values)
    assert texts(np.array([0.0, -0.0, math.nan, -math.inf])) == ["0", "-0", "nan", "-inf"]


def test_every_window_exponent_and_digit_count():
    # 10^k times 1, 1.5, 1.23, ... and 17-digit significands, for each k of
    # the window and both signs: each layout code of the kernel
    mantissas = [1.0, 1.5, 1.25, 1.125, 1.2345678901234567, 9.8765432109876543, 1.0000000000000002]
    values = [float(f"{m!r}e{k}") for k in range(_K_LOW, _K_HIGH + 1) for m in mantissas]
    assert_g17(np.concatenate([values, np.negative(values)]))


def exact_exponent(a):
    """floor(log10 a), exactly, for each positive double in ``a``."""
    return np.array([Decimal(v).adjusted() for v in a.tolist()], dtype=np.intp)


@pytest.mark.parametrize("shift", [-1, 1])
def test_exponent_estimate_off_by_one_moves_no_byte(shift, monkeypatch):
    # the kernel takes floor(log10|x|) from np.log10 only as an estimate: its
    # rounding differs between numpy's SIMD levels, and next to a power of ten
    # it can give the exponent above.  An estimate one below or one above the
    # exact exponent must give the same text
    rng = np.random.default_rng(31)
    values = np.concatenate([
        rng.integers(0, 2 ** 64, 20_000, dtype=np.uint64).view(np.float64),
        with_neighbours([float(Fraction(10) ** m) for m in range(-300, 300)]),
        with_neighbours([below_power_of_ten(m) for m in ROUND_UP_EXPONENTS]),
        exact_ties(),
    ])
    expected = csv_text(g17(values))
    assert expected.split("\n")[:-1] == [format(v, ".17g") for v in values.tolist()]
    monkeypatch.setattr(csvtext, "_log10_floor", lambda a: exact_exponent(a) + shift)
    assert csv_text(g17(values)) == expected


def test_chunks_and_csv_lines():
    # values cross the kernel's chunk boundary; _csv_text joins broadcast
    # columns with commas and ends each line with LF
    rng = np.random.default_rng(5)
    values = rng.uniform(-1.0, 1.0, csvtext._VALUES_AT_ONCE + 3)
    assert_g17(values)
    eta = np.array([0.5, -1e-5])
    lam = np.array([0.0, 2.5, 1e300])
    f = np.arange(6.0).reshape(2, 3) - 2.5
    text = csv_text(g17(eta)[:, None], g17(lam)[None, :], g17(f.ravel()).reshape(2, 3, 3))
    assert text == ("0.5,0,-2.5\n0.5,2.5,-1.5\n0.5,1.0000000000000001e+300,-0.5\n"
                    "-1.0000000000000001e-05,0,0.5\n-1.0000000000000001e-05,2.5,1.5\n"
                    "-1.0000000000000001e-05,1.0000000000000001e+300,2.5\n")


# a field keeps its 24-byte slot, with the separator in the slot's last byte;
# the one text that fills byte 23 too is a _SLOT text with a three-digit exponent
LONGEST_IN_WINDOW = -1.2345678901234567e-99  # 23 characters
FILLS_THE_SLOT = -2.2250738585072014e-308  # 24 characters


@pytest.mark.parametrize("column", [0, 2, 4, None], ids=["first", "middle", "last", "none"])
def test_fields_share_their_slot_with_the_separator(column):
    assert len(format(LONGEST_IN_WINDOW, ".17g")) == 23
    assert len(format(FILLS_THE_SLOT, ".17g")) == 24
    rng = np.random.default_rng(23)
    values = rng.standard_normal((7, 5)) * 10.0 ** rng.integers(-99, 100, (7, 5))
    values[2] = LONGEST_IN_WINDOW  # a text ends in byte 22 of every slot of a row
    if column is not None:
        values[4, column] = FILLS_THE_SLOT  # one field of the block fills byte 23
    texts = g17(values.ravel()).reshape(7, 5, 3)
    lines = csv_text(*texts.swapaxes(0, 1)).split("\n")
    assert lines == [",".join(format(v, ".17g") for v in row) for row in values.tolist()] + [""]
