"""Exact covering-number bound calculators and the generalization-bound RHS.

Every bound is computed as an exact arbitrary-precision integer (values
reach beyond 10^2862), and its float log10 is read from that integer:
`math.log10` takes an int of any size in time linear in its digits.
A float that rounds onto a whole number is then settled on the side of
it that the integer is on, so its floor counts the digits.

Magnitudes are printed from the exact integer. The exact path uses
integer arithmetic alone: the digit count comes from the bit length and
one power-of-ten comparison, and the two-figure mantissa from one divmod
by a power of ten, rounded half to even. Decimal(int) and str(int) are
quadratic in the digit count and took about a minute on the
million-digit values of `bounds --n 1000000`.

Building that power of ten costs about as much as a full big-integer
multiplication, so integers of at least 4096 bits first try a fast
path: L = math.log10(x), digit count floor(L) + 1, and the two leading
digits round(10 ** (L - floor(L) + 1)). CPython takes the log10 of an
int from its correctly rounded 53-bit mantissa plus e * log10(2), which
is within about 3e-9 of the truth while L < 1e7. The fast path declines,
and the exact path answers, whenever that error could matter: L within
1e-6 of an integer (a digit-count edge), 10 ** (frac + 1) within 1e-4
of a half-integer (a rounding edge, exact halves included), or
L >= 1e7. Both margins are over 100 times that error, so the two paths
print the same bytes.

epsilon is handled as an exact rational throughout: with float
arithmetic, 1/(2 * float(1/6)) lands at 3.0000000000000004 and its
ceiling corrupts k. Floats passed in are snapped to the nearest simple
fraction; strings like "1/6" are parsed exactly.
"""

from __future__ import annotations

import math
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
    "mantissa_exponent",
    "sci_string",
    "digit_count",
]

# DEFAULT_TABLE_M, the grid order of the reference table's Hilbert
# column (tests freeze the resulting magnitudes), lives in `choices` so
# the CLI parser reads it without this module; pass m=None for the
# limit-order variant.
DEFAULT_TABLE_N = (250, 500, 750, 1000, 2000)


class LogValue(NamedTuple):
    """A bound magnitude: float log10 plus the exact integer when available."""

    log10: float
    exact: int | None
    formula: str


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
    if not 0 < eps < 1:
        raise ValueError(f"epsilon must lie in (0, 1), got {eps}")
    return eps


def _half_integer_k(eps: Fraction, context: str) -> int:
    """k such that eps = 1/(2k); rejects epsilons not of that form."""
    inv = 1 / eps
    if inv.denominator != 1 or inv.numerator % 2 != 0:
        raise ValueError(
            f"{context} requires epsilon = 1/(2k) for integer k, got {eps}"
        )
    return inv.numerator // 2


def _logvalue(exact: int, formula: str) -> LogValue:
    """Pair an exact integer with its float log10. A float that lands within
    rounding of an integer k is settled on the side of k that `exact` is
    on (math.log10(10**16 - 1) rounds to 16.0), so its floor always
    counts the digits."""
    log10 = math.log10(exact)
    k = round(log10)
    if abs(log10 - k) <= 1e-9 and k >= 0:
        if exact >= 10**k:
            log10 = max(log10, float(k))
        else:
            log10 = min(log10, math.nextafter(float(k), -math.inf))
    return LogValue(log10=log10, exact=exact, formula=formula)


def bound_quotient_upper(n: int, d: int, eps) -> LogValue:
    """Covering bound for the permutation quotient: C(n + k^d - 1, n),
    k = ceil(1/(2 eps))."""
    if n < 1 or d < 1:
        raise ValueError("n and d must be >= 1")
    eps = _check_eps_open_unit(as_exact_ratio(eps))
    k = math.ceil(1 / (2 * eps))
    return _logvalue(math.comb(n + k**d - 1, n), "quotient-upper")


def bound_lexsort_lower(n: int, d: int, eps) -> LogValue:
    """Covering lower bound for the lexicographically sorted image:
    k^((d-1)n + 1) with eps = 1/(2k)."""
    if n < 2 or d < 2:
        raise ValueError("the lexsort lower bound needs n >= 2 and d >= 2")
    eps = _check_eps_open_unit(as_exact_ratio(eps))
    k = _half_integer_k(eps, "the lexsort lower bound")
    return _logvalue(k ** ((d - 1) * n + 1), "lexsort-lower")


def bound_hilbert_upper(n: int, d: int, eps, m: int | None = None) -> LogValue:
    """Covering bound for the Hilbert-ordered image: C(n + K - 1, n) with
    K = ceil(1/(2 delta)), delta = (eps - 2^(-m-1))^d / 4.

    With m omitted, delta takes its large-m limit eps^d / 4. A finite m
    requires eps > 2^(-m-1).
    """
    if n < 1 or d < 1:
        raise ValueError("n and d must be >= 1")
    eps = _check_eps_open_unit(as_exact_ratio(eps))
    if m is None:
        delta = eps**d / 4
    else:
        if m < 1:
            raise ValueError(f"curve order must be >= 1, got {m}")
        gap = eps - Fraction(1, 2 ** (m + 1))
        if gap <= 0:
            raise ValueError(
                f"epsilon = {eps} must exceed 2^-(m+1) = {Fraction(1, 2**(m+1))}"
            )
        delta = gap**d / 4
    K = math.ceil(1 / (2 * delta))
    return _logvalue(math.comb(n + K - 1, n), "hilbert-upper")


def bound_hypercube_exact(n: int, d: int, eps) -> LogValue:
    """Exact covering number of the raw hypercube: k^(n d) with eps = 1/(2k)."""
    if n < 1 or d < 1:
        raise ValueError("n and d must be >= 1")
    eps = _check_eps_open_unit(as_exact_ratio(eps))
    k = _half_integer_k(eps, "the hypercube covering number")
    return _logvalue(k ** (n * d), "hypercube-exact")


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


# The fast path's reach and margins (see the module docstring): integers
# below _FAST_BITS bits, or with log10 at or past _FAST_LOG10_LIMIT, take
# the exact path, and so does any log10 reading within _EDGE_MARGIN of a
# digit-count edge or _HALF_MARGIN of a rounding edge.
_FAST_BITS = 4096
_FAST_LOG10_LIMIT = 1e7
_EDGE_MARGIN = 1e-6
_HALF_MARGIN = 1e-4


def _fast_log10(x: int) -> float | None:
    """math.log10(x) for a positive x of at least _FAST_BITS bits whose
    floor is certain to be floor(log10 x); None where it is not."""
    if x.bit_length() < _FAST_BITS:
        return None
    log10 = math.log10(x)
    frac = log10 - math.floor(log10)
    if log10 >= _FAST_LOG10_LIMIT or not _EDGE_MARGIN < frac < 1 - _EDGE_MARGIN:
        return None
    return log10


def _lead_fast(x: int) -> tuple[int, int] | None:
    """(lead, exponent) of `_lead_exact` read from math.log10(x), or None
    where the reading is too close to an edge to be certain."""
    log10 = _fast_log10(x)
    if log10 is None:
        return None
    exponent = math.floor(log10)
    scaled = 10.0 ** (log10 - exponent + 1)
    if abs(scaled - math.floor(scaled) - 0.5) < _HALF_MARGIN:
        return None
    return round(scaled), exponent


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


def digit_count(x: int) -> int:
    """Decimal digits of a positive integer.

    From math.log10 where the fast path is certain of its floor, and
    otherwise from the bit length and one power-of-ten comparison, so it
    works past the interpreter's int-to-str cap (near 4300 digits); these
    values reach 10^2862 and beyond.
    """
    if x <= 0:
        raise ValueError("digit count needs a positive integer")
    log10 = _fast_log10(x)
    if log10 is None:
        return _digits(x)[0]
    return math.floor(log10) + 1


def mantissa_exponent(value: LogValue) -> tuple[float, int]:
    """Two-significant-figure mantissa and exact exponent.

    Uses the exact integer when present: its two leading digits, rounded
    half to even as f"{Decimal(x):.1E}" does under the default context,
    but independent of the caller's decimal context. Integers of at least
    4096 bits read them from math.log10 unless the reading lies near a
    digit-count or rounding edge; every other case takes one divmod by
    10**(D - 2) and its remainder. Falls back to the log10 field when
    there is no exact integer.
    """
    if value.exact is not None:
        if value.exact <= 0:
            raise ValueError("mantissa/exponent form needs a positive value")
        lead, exponent = _lead_fast(value.exact) or _lead_exact(value.exact)
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
