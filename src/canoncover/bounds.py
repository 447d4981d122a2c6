"""Exact covering-number bound calculators and the generalization-bound RHS.

Every bound is an exact arbitrary-precision integer (values reach beyond
10^2862), carried in a `LogValue` with its float log10. The log10 is
`math.log10` of that integer, and a float that rounds onto a whole
number is settled on the side of it that the integer is on, so its
floor counts the digits.

The lexsort and hypercube bounds are powers k^e. Once k^e has at least
4096 bits it is not built: `_power_bounds` powers k by repeated
squaring on a lower and an upper integer bound, each truncated to about
128 bits (or 40 digits) plus the bit length of e, with the shift
tracked exactly. In base 2, both bounds rounding to the same 53-bit
float M certifies that k^e rounds to M * 2^s, and math.log10(M << s)
then runs CPython's own int-log code, so the log10 is bit-identical to
math.log10(k ** e). In base 10, both bounds having the same two leading
digits (rounded half to even, 100 being a carry) and digit count
certifies those of k^e. Wherever the two bounds round differently, the
power is built after all. A certified value's `exact` builds k**e on
its first read and keeps it; the printed magnitudes, the floor settle
and the CLI's JSON digit cutoff never read it.

Magnitudes of built integers use integer arithmetic alone. An integer
x of at least 4096 bits is bracketed by its top bits, x >> s <= x / 2**s
<= (x >> s) + 1, and `_power_bounds(2, s, 10)` turns 2**s into powers of
ten, so its digit count and two leading digits come from two integers of
a few hundred bits, certified the way the powers' are. Where the ends
round apart, and for every smaller integer, they come from the bit length
and one power-of-ten divmod of the exact integer, rounded half to even.
Decimal(int) and str(int) are quadratic in the digit count and took
about a minute on the million-digit values of `bounds --n 1000000`.

epsilon is handled as an exact rational throughout: with float
arithmetic, 1/(2 * float(1/6)) lands at 3.0000000000000004 and its
ceiling corrupts k. Floats passed in are snapped to the nearest simple
fraction; strings like "1/6" are parsed exactly.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import NamedTuple

from .choices import DEFAULT_TABLE_M

__all__ = [
    "LogValue",
    "as_exact_ratio",
    "bound_quotient_upper",
    "bound_lexsort_lower",
    "bound_hilbert_upper",
    "bound_hypercube_exact",
    "bound_group_cardinality",
    "multiset_count",
    "generalization_rhs",
    "bounds_table",
    "TableEntry",
    "TABLE_FORMULAS",
    "DEFAULT_TABLE_M",
    "DEFAULT_TABLE_N",
    "EXACT_DIGITS",
    "mantissa_exponent",
    "sci_string",
    "digit_count",
]

# DEFAULT_TABLE_M, the grid order of the reference table's Hilbert
# column (tests freeze the resulting magnitudes), lives in `choices` so
# the CLI parser reads it without this module; pass m=None for the
# limit-order variant.
DEFAULT_TABLE_N = (250, 500, 750, 1000, 2000)

# The CLI's JSON and a LogValue's repr show an exact integer only up to
# this many digits; past it the JSON omits it and the repr gives its length.
EXACT_DIGITS = 4096


class LogValue:
    """A bound magnitude: float log10 plus the exact integer when available.

    A read-only triple (log10, exact, formula): it unpacks, indexes, has
    length 3, and compares and hashes equal to the plain tuple. A
    certified power holds its base and exponent instead of the integer,
    and `exact` builds the integer on its first read and keeps it.
    """

    __slots__ = ("log10", "formula", "_exact", "_power", "_lead")
    __match_args__ = ("log10", "exact", "formula")

    def __init__(self, log10: float, exact: int | None, formula: str):
        setter = object.__setattr__
        setter(self, "log10", log10)
        setter(self, "formula", formula)
        setter(self, "_exact", exact)
        setter(self, "_power", None)  # (base, exponent) while exact is unbuilt
        setter(self, "_lead", None)   # cached (lead, exponent) of the exact value

    @property
    def exact(self) -> int | None:
        if self._power is not None:
            base, exponent = self._power
            object.__setattr__(self, "_exact", base ** exponent)
            object.__setattr__(self, "_power", None)
        return self._exact

    @property
    def digits(self) -> int | None:
        """Decimal digits of the exact integer, found without building a
        certified power; None when there is no exact integer."""
        lead = self._lead_exponent()
        return None if lead is None else lead[1] + 1

    def _lead_exponent(self) -> tuple[int, int] | None:
        """`_lead_exact` of the exact integer, cached; None without one."""
        if self._lead is None and self._exact is not None:
            x = self._exact
            if x <= 0:
                raise ValueError("mantissa/exponent form needs a positive value")
            object.__setattr__(self, "_lead", _lead(x))
        return self._lead

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot set {name!r}: LogValue is read-only")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: LogValue is read-only")

    def __iter__(self):
        return iter((self.log10, self.exact, self.formula))

    def __len__(self) -> int:
        return 3

    def __getitem__(self, index):
        return tuple(self)[index]

    def __eq__(self, other):
        if isinstance(other, LogValue):
            other = tuple(other)
        elif not isinstance(other, tuple):
            return NotImplemented
        return tuple(self) == other

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        digits = self.digits
        exact = (f"<{digits} digits>" if digits is not None and digits > EXACT_DIGITS
                 else repr(self.exact))
        return f"LogValue(log10={self.log10!r}, exact={exact}, formula={self.formula!r})"

    def __reduce__(self):
        return LogValue, tuple(self)


def as_exact_ratio(eps) -> Fraction:
    """Coerce an epsilon into an exact Fraction.

    Fractions and ints pass through; strings parse exactly ("1/6",
    "0.25"), and any other string is a ValueError; floats snap to the
    nearest fraction with denominator up to 1e9, which recovers the
    intended value of literals like 1/6.
    """
    if isinstance(eps, Fraction):
        return eps
    if isinstance(eps, int):
        return Fraction(eps)
    if isinstance(eps, str):
        try:
            return Fraction(eps.strip())
        except (ValueError, ZeroDivisionError):
            raise ValueError(
                f"epsilon must be an exact ratio such as 1/6 or 0.25, got {eps!r}"
            ) from None
    if isinstance(eps, float):
        return Fraction(eps).limit_denominator(10**9)
    raise TypeError(f"cannot interpret {eps!r} as an exact ratio")


def _check_eps_open_unit(eps: Fraction) -> Fraction:
    if not 0 < eps.numerator < eps.denominator:
        raise ValueError(f"epsilon must lie in (0, 1), got {eps}")
    return eps


def _half_integer_k(eps: Fraction, context: str) -> int:
    """k such that eps = 1/(2k), for eps in (0, 1); rejects epsilons not
    of that form."""
    if eps.numerator != 1 or eps.denominator % 2 != 0:
        raise ValueError(
            f"{context} requires epsilon = 1/(2k) for integer k, got {eps}"
        )
    return eps.denominator // 2


def _settle(log10: float, digits) -> float:
    """A log10 reading that lands within rounding of an integer k, settled
    on the side of k that the value is on (math.log10(10**16 - 1) rounds
    to 16.0), so its floor always counts the digits. `digits()` gives
    the value's digit count; it is called only near an integer."""
    k = round(log10)
    if abs(log10 - k) > 1e-9 or k < 0:
        return log10
    if digits() > k:
        return max(log10, float(k))
    return min(log10, math.nextafter(float(k), -math.inf))


def _logvalue(exact: int, formula: str) -> LogValue:
    """Pair an exact integer with its settled float log10."""
    return LogValue(_settle(math.log10(exact), lambda: _digits(exact)[0]), exact, formula)


# Guard bits of `_power_bounds`: each bound keeps this many bits plus the
# bit length of the exponent, so the relative gap between the bounds
# stays near 2**-_GUARD_BITS however large the exponent.
_GUARD_BITS = 128

# Values of at least this many bits are bracketed, not read exactly:
# powers are left unbuilt and built integers are read from their top bits.
_FAST_BITS = 4096


def _power_bounds(k: int, e: int, radix: int) -> tuple[int, int, int]:
    """(lo, hi, shift) with lo * radix**shift <= k**e <= hi * radix**shift.

    Left-to-right binary powering on both bounds at once. Whenever hi
    outgrows the kept bits, both are divided by the same power of the
    radix, lo rounded down and hi rounded up (the + 1), and the shift
    counts the divisions. hi stays at or above 2**(keep - 1), so each
    step widens the relative gap by at most 2**(2 - keep), and each
    squaring doubles it: after the log2(e) steps it stays below
    2**(3 - _GUARD_BITS).
    """
    keep = _GUARD_BITS + e.bit_length()
    lo = hi = 1
    shift = 0
    for bit in bin(e)[2:]:
        lo, hi, shift = lo * lo, hi * hi, 2 * shift
        if bit == "1":
            lo, hi = lo * k, hi * k
        excess = hi.bit_length() - keep
        # 10**t <= 2**excess for t = 3 * excess // 10, as log2(10) > 10/3.
        t = excess if radix == 2 else 3 * excess // 10
        if t > 0:
            unit = radix**t
            lo, hi, shift = lo // unit, hi // unit + 1, shift + t
    return lo, hi, shift


def _certified_power(k: int, e: int) -> tuple[float, tuple[int, int]] | None:
    """Settled log10 and `_lead_exact` of k**e, certified without building
    it, for k**e of at least _FAST_BITS bits; None where the bounds of
    `_power_bounds` round apart, or the power may be smaller."""
    lo, hi, shift = _power_bounds(k, e, 2)
    mantissa = float(lo)  # correctly rounded, as math.log10 rounds an int
    if lo.bit_length() + shift < _FAST_BITS or float(hi) != mantissa:
        return None
    rounded = int(mantissa) << shift
    lead = _common_lead(*_power_bounds(k, e, 10))
    if lead is None:
        return None
    return _settle(math.log10(rounded), lambda: lead[1] + 1), lead


def _power_value(k: int, e: int, formula: str) -> LogValue:
    """k**e as a LogValue: certified and unbuilt from _FAST_BITS bits on,
    built exactly below that or where certification fails."""
    if e * k.bit_length() >= _FAST_BITS:
        certified = _certified_power(k, e)
        if certified is not None:
            log10, lead = certified
            value = LogValue(log10, None, formula)
            object.__setattr__(value, "_power", (k, e))
            object.__setattr__(value, "_lead", lead)
            return value
    return _logvalue(k**e, formula)


def bound_quotient_upper(n: int, d: int, eps) -> LogValue:
    """Covering bound for the permutation quotient: C(n + k^d - 1, n),
    k = ceil(1/(2 eps))."""
    # Plain ints: with a numpy integer, k**d and math.comb overflow or raise.
    n, d = operator.index(n), operator.index(d)
    if n < 1 or d < 1:
        raise ValueError("n and d must be >= 1")
    eps = _check_eps_open_unit(as_exact_ratio(eps))
    k = -(-eps.denominator // (2 * eps.numerator))
    return _logvalue(multiset_count(n, k**d), "quotient-upper")


def bound_lexsort_lower(n: int, d: int, eps) -> LogValue:
    """Covering lower bound for the lexicographically sorted image:
    k^((d-1)n + 1) with eps = 1/(2k)."""
    n, d = operator.index(n), operator.index(d)
    if n < 2 or d < 2:
        raise ValueError("the lexsort lower bound needs n >= 2 and d >= 2")
    eps = _check_eps_open_unit(as_exact_ratio(eps))
    k = _half_integer_k(eps, "the lexsort lower bound")
    return _power_value(k, (d - 1) * n + 1, "lexsort-lower")


def bound_hilbert_upper(n: int, d: int, eps, m: int | None = None) -> LogValue:
    """Covering bound for the Hilbert-ordered image: C(n + K - 1, n) with
    K = ceil(1/(2 delta)), delta = (eps - 2^(-m-1))^d / 4.

    With m omitted, delta takes its large-m limit eps^d / 4. A finite m
    requires eps > 2^(-m-1).

    K is computed at min(m, M) with M = (d + 1) * bitlen(b) + bitlen(d) + 2
    for eps = a/b in lowest terms, so a huge m costs no more than M. That
    gives the same K: as m grows K never rises, and it never falls below
    K_inf = 2 b^d // a^d + 1, which it reaches by m = M. Proof: with
    u = b / (a 2^(m+1)), Bernoulli's (1 - u)^d >= 1 - d u gives
    2 / (eps - 2^-(m+1))^d - 2 b^d / a^d <= (2 b^d / a^d) d u / (1 - d u).
    Once 2^(m+1) >= 4 d b^(d+1), d u <= 1 / (4 b^d), so that gap is below
    1 / a^d, and K_inf - 2 b^d / a^d is at least 1 / a^d, as
    K_inf a^d - 2 b^d is a positive integer. 2^(M+1) exceeds
    8 d b^(d+1), one bit to spare.
    """
    n, d = operator.index(n), operator.index(d)
    if n < 1 or d < 1:
        raise ValueError("n and d must be >= 1")
    eps = _check_eps_open_unit(as_exact_ratio(eps))
    # With num / den = eps, or eps - 2^(-m-1), 1/(2 delta) = 2 den^d / num^d.
    num, den = eps.numerator, eps.denominator
    if m is not None:
        m = operator.index(m)
        if m < 1:
            raise ValueError(f"curve order must be >= 1, got {m}")
        cap = (d + 1) * den.bit_length() + d.bit_length() + 2  # M above
        shift = min(m, cap) + 1
        num, den = (num << shift) - den, den << shift
        if num <= 0:
            raise ValueError(
                f"epsilon = {eps} must exceed 2^-(m+1) = {Fraction(1, 2**(m+1))}"
            )
    K = -(-2 * den**d // num**d)
    assert m is None or m <= cap or K == 2 * eps.denominator**d // eps.numerator**d + 1
    return _logvalue(multiset_count(n, K), "hilbert-upper")


def bound_hypercube_exact(n: int, d: int, eps) -> LogValue:
    """Exact covering number of the raw hypercube: k^(n d) with eps = 1/(2k)."""
    n, d = operator.index(n), operator.index(d)
    if n < 1 or d < 1:
        raise ValueError("n and d must be >= 1")
    eps = _check_eps_open_unit(as_exact_ratio(eps))
    k = _half_integer_k(eps, "the hypercube covering number")
    return _power_value(k, n * d, "hypercube-exact")


def bound_group_cardinality(quotient: LogValue, group_size: int) -> LogValue:
    """Lift a quotient-space bound back to the raw space: multiply by |G|."""
    if group_size < 1:
        raise ValueError(f"group size must be >= 1, got {group_size}")
    exact = None if quotient.exact is None else quotient.exact * group_size
    return LogValue(
        log10=quotient.log10 + math.log10(group_size),
        exact=exact,
        formula=f"{quotient.formula}*group",
    )


def multiset_count(n: int, m: int) -> int:
    """Number of multisets of size n over m symbols: C(n + m - 1, n)."""
    if n < 1 or m < 1:
        raise ValueError("n and m must be >= 1")
    return math.comb(n + m - 1, n)


def generalization_rhs(c_ell: float, c_h: float, c_f: float, eps: float,
                       loss_bound: float, covering_number: float,
                       confidence: float, samples: int) -> float:
    """Right-hand side of the covering-based generalization bound:

        2 c_ell (c_h + c_f) eps
        + loss_bound * sqrt((2 N ln 2 + 2 ln(1/confidence)) / samples)

    with N the covering number (entering without a log, exactly as the
    formula is stated) and confidence in (0, 1].
    """
    if samples < 1:
        raise ValueError("sample count must be >= 1")
    if not 0 < confidence <= 1:
        raise ValueError(f"confidence must lie in (0, 1], got {confidence}")
    if min(c_ell, c_h, c_f, loss_bound, covering_number) < 0 or eps < 0:
        raise ValueError("constants must be non-negative")
    inner = (2.0 * covering_number * math.log(2.0)
             + 2.0 * math.log(1.0 / confidence)) / samples
    return 2.0 * c_ell * (c_h + c_f) * eps + loss_bound * math.sqrt(inner)


TABLE_FORMULAS = ("quotient-upper", "hilbert-upper", "lexsort-lower", "hypercube-exact")


class TableEntry(NamedTuple):
    formula: str
    n: int
    value: LogValue


def bounds_table(n_list=DEFAULT_TABLE_N, d: int = 3, eps=Fraction(1, 6),
                 m: int | None = DEFAULT_TABLE_M) -> list[TableEntry]:
    """All four bound formulas across a list of n values.

    `m` sets the grid order for the Hilbert column (None = limit order).
    Entries are ordered formula-major, matching TABLE_FORMULAS.
    """
    eps = as_exact_ratio(eps)
    entries = []
    for formula in TABLE_FORMULAS:
        for n in n_list:
            if formula == "quotient-upper":
                value = bound_quotient_upper(n, d, eps)
            elif formula == "hilbert-upper":
                value = bound_hilbert_upper(n, d, eps, m=m)
            elif formula == "lexsort-lower":
                value = bound_lexsort_lower(n, d, eps)
            else:
                value = bound_hypercube_exact(n, d, eps)
            entries.append(TableEntry(formula=formula, n=int(n), value=value))
    return entries


def _digits(x: int) -> tuple[int, int]:
    """Digit count D of a positive integer x and the power 10**(D - 1).

    x has b = bit_length bits, so floor(log10 x) lies within one of
    floor((b - 1) * log10 2); a single comparison against one power of
    ten settles which. log10 2 enters as a 20-digit rational rounded
    down, so the estimate is exact integer arithmetic (valid for
    b < 7e19), not a float product.
    """
    lo = (x.bit_length() - 1) * 30102999566398119521 // 10 ** 20 + 1
    power = 10 ** lo
    if x >= power:
        return lo + 1, power
    return lo, power // 10


def _lead_exact(x: int) -> tuple[int, int]:
    """Two leading digits of a positive x, rounded half to even, and the
    exponent D - 1 of its D digits: x is about lead * 10**(exponent - 1).
    lead lies in 10..100; 100 is a carry into the next power of ten."""
    digits, power = _digits(x)
    if digits == 1:
        return 10 * x, 0
    unit = power // 10
    lead, rest = divmod(x, unit)
    if 2 * rest > unit or (2 * rest == unit and lead % 2):
        lead += 1
    return lead, digits - 1


def _common_lead(lo: int, hi: int, shift: int) -> tuple[int, int] | None:
    """`_lead_exact` of every integer in [lo, hi] * 10**shift, for
    0 < lo <= hi; None where lo and hi round apart. Both the digit count
    and rounding half to even are monotone, so ends that agree certify
    everything between them."""
    lead, exponent = _lead_exact(lo)
    if _lead_exact(hi) != (lead, exponent):
        return None
    return lead, exponent + shift


def _top_bits_lead(x: int) -> tuple[int, int] | None:
    """`_lead_exact` of an x of over _GUARD_BITS bits, read from its top
    _GUARD_BITS bits, x >> s <= x / 2**s <= (x >> s) + 1, with 2**s
    bracketed by `_power_bounds`; None where that bracket's ends round
    apart."""
    s = x.bit_length() - _GUARD_BITS
    top = x >> s
    lo, hi, shift = _power_bounds(2, s, 10)
    return _common_lead(top * lo, (top + 1) * hi, shift)


def _lead(x: int) -> tuple[int, int]:
    """`_lead_exact` of a positive x: from its top bits from _FAST_BITS
    bits on, wherever they certify it, and read exactly otherwise."""
    return (x.bit_length() >= _FAST_BITS and _top_bits_lead(x)) or _lead_exact(x)


def digit_count(x: int) -> int:
    """Decimal digits of a positive integer, from the same bracket or
    exact read as its two leading digits (`mantissa_exponent`), so it
    works past the interpreter's int-to-str cap (near 4300 digits); these
    values reach 10^2862 and beyond.
    """
    x = operator.index(x)
    if x <= 0:
        raise ValueError("digit count needs a positive integer")
    return _lead(x)[1] + 1


def mantissa_exponent(value: LogValue) -> tuple[float, int]:
    """Two-significant-figure mantissa and exact exponent.

    Uses the exact integer when present: its two leading digits, rounded
    half to even as f"{Decimal(x):.1E}" does under the default context,
    but independent of the caller's decimal context. A certified power
    carries them unbuilt. A built integer of at least 4096 bits reads
    them from an exact bracket of its top bits unless the bracket's ends
    round apart; every other case takes one divmod by 10**(D - 2) and
    its remainder. Falls back to the log10 field when there is no exact
    integer.
    """
    lead = value._lead_exponent()
    if lead is not None:
        lead, exponent = lead
        if lead == 100:
            return 1.0, exponent + 1
        return lead / 10, exponent
    exponent = math.floor(value.log10)
    mant = round(10.0 ** (value.log10 - exponent), 1)
    if mant >= 10.0:
        mant, exponent = 1.0, exponent + 1
    return mant, exponent


def sci_string(value: LogValue) -> str:
    """Render as 'm.me+XX', e.g. 2.1e+36."""
    mant, exp = mantissa_exponent(value)
    return f"{mant:.1f}e{exp:+d}"
