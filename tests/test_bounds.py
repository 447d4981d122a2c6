"""Covering-number bound calculators and the reference table."""

import copy
import math
import pickle
import random
import time
from decimal import ROUND_UP, Decimal, localcontext
from fractions import Fraction
from functools import partial
from itertools import combinations_with_replacement

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from canoncover import bounds
from canoncover.bounds import (
    DEFAULT_TABLE_M,
    DEFAULT_TABLE_N,
    TABLE_FORMULAS,
    LogValue,
    TableEntry,
    as_exact_ratio,
    bound_group_cardinality,
    bound_hilbert_upper,
    bound_hypercube_exact,
    bound_lexsort_lower,
    bound_quotient_upper,
    bounds_table,
    digit_count,
    generalization_rhs,
    mantissa_exponent,
    multiset_count,
    sci_string,
)

# Reference table: d=3, eps=1/6, Hilbert column at m=10. Two significant
# figures, frozen.
REFERENCE_CELLS = {
    "quotient-upper": {250: "2.1e+36", 500: "7.4e+43", 750: "2.2e+48",
                       1000: "3.5e+51", 2000: "2.0e+59"},
    "hilbert-upper": {250: "5.3e+193", 500: "7.9e+278", 750: "5.0e+336",
                      1000: "5.0e+380", 2000: "4.4e+494"},
    "lexsort-lower": {250: "1.1e+239", 500: "4.0e+477", 750: "1.4e+716",
                      1000: "5.2e+954", 2000: "9.2e+1908"},
    "hypercube-exact": {250: "6.9e+357", 500: "4.8e+715", 750: "3.3e+1073",
                        1000: "2.3e+1431", 2000: "5.3e+2862"},
}


def _log10_int(x: int) -> float:
    with localcontext() as ctx:
        ctx.prec = 50
        return float(Decimal(x).log10())


class TestReferenceTable:
    def test_all_twenty_cells(self):
        table = bounds_table()
        assert len(table) == 20
        for entry in table:
            assert sci_string(entry.value) == REFERENCE_CELLS[entry.formula][entry.n]

    def test_defaults(self):
        assert DEFAULT_TABLE_N == (250, 500, 750, 1000, 2000)
        assert DEFAULT_TABLE_M == 10
        assert TABLE_FORMULAS == ("quotient-upper", "hilbert-upper",
                                  "lexsort-lower", "hypercube-exact")

    def test_single_n_matches_individual_calls(self):
        (q, h, lx, hc) = bounds_table([500])
        eps = Fraction(1, 6)
        assert q.value == bound_quotient_upper(500, 3, eps)
        assert h.value == bound_hilbert_upper(500, 3, eps, m=10)
        assert lx.value == bound_lexsort_lower(500, 3, eps)
        assert hc.value == bound_hypercube_exact(500, 3, eps)

    def test_float_epsilon_snaps(self):
        # float(1/6) would otherwise put ceil(1/(2 eps)) at 3.0000000000000004.
        exact = bounds_table([250], eps=Fraction(1, 6))
        snapped = bounds_table([250], eps=float(1 / 6))
        for a, b in zip(exact, snapped):
            assert a == b

    def test_exact_and_log_routes_agree(self):
        for entry in bounds_table():
            v = entry.value
            assert v.exact is not None and v.exact > 0
            assert len(str(v.exact)) == math.floor(v.log10) + 1
            assert abs(v.log10 - _log10_int(v.exact)) <= 1e-9

    def test_column_ordering_per_n(self):
        # quotient <= hilbert <= hypercube, and lexsort <= hypercube.
        by = {(e.formula, e.n): e.value.log10 for e in bounds_table()}
        for n in DEFAULT_TABLE_N:
            assert by[("quotient-upper", n)] <= by[("hilbert-upper", n)]
            assert by[("hilbert-upper", n)] <= by[("hypercube-exact", n)]
            assert by[("lexsort-lower", n)] <= by[("hypercube-exact", n)]


class TestQuotientUpper:
    def test_tiny_exact(self):
        # n=2, d=1, eps=1/2: k=1 cell, one multiset of size 2.
        assert bound_quotient_upper(2, 1, Fraction(1, 2)).exact == 1

    def test_small_against_multiset_count(self):
        # k=2, d=2: 4 cells, multisets of size 2 over 4 symbols.
        v = bound_quotient_upper(2, 2, Fraction(1, 4))
        assert v.exact == multiset_count(2, 4) == 10

    def test_log10_floor_counts_digits_at_power_of_ten(self):
        # C(100, 99) = 100, where log-gamma alone lands just below 2.
        v = bound_quotient_upper(99, 1, Fraction(1, 4))
        assert v.exact == 100
        assert math.floor(v.log10) + 1 == 3

    def test_reference_endpoints(self):
        assert sci_string(bound_quotient_upper(250, 3, "1/6")) == "2.1e+36"
        assert sci_string(bound_quotient_upper(2000, 3, "1/6")) == "2.0e+59"

    def test_non_half_integer_eps_allowed(self):
        # This formula only needs ceil(1/(2 eps)); eps=0.3 gives k=2.
        v = bound_quotient_upper(3, 1, Fraction(3, 10))
        assert v.exact == math.comb(3 + 2 - 1, 3)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            bound_quotient_upper(0, 3, "1/6")
        with pytest.raises(ValueError):
            bound_quotient_upper(3, 0, "1/6")
        with pytest.raises(ValueError):
            bound_quotient_upper(3, 3, 0)
        with pytest.raises(ValueError):
            bound_quotient_upper(3, 3, 1)


class TestLexsortLower:
    def test_tiny_exact(self):
        assert bound_lexsort_lower(2, 2, Fraction(1, 2)).exact == 1
        assert bound_lexsort_lower(3, 2, Fraction(1, 4)).exact == 2 ** 4

    def test_reference_endpoints(self):
        assert sci_string(bound_lexsort_lower(250, 3, "1/6")) == "1.1e+239"
        assert sci_string(bound_lexsort_lower(1000, 3, "1/6")) == "5.2e+954"

    def test_requires_half_integer_eps(self):
        with pytest.raises(ValueError):
            bound_lexsort_lower(4, 2, 0.3)
        with pytest.raises(ValueError):
            bound_lexsort_lower(4, 2, Fraction(1, 3))

    def test_needs_two_points_two_axes(self):
        with pytest.raises(ValueError, match="n >= 2 and d >= 2"):
            bound_lexsort_lower(1, 3, "1/6")
        with pytest.raises(ValueError, match="n >= 2 and d >= 2"):
            bound_lexsort_lower(250, 1, "1/6")


class TestHilbertUpper:
    def test_sanity_point(self):
        # eps=1/2, m=1, d=1, n=1: gap=1/4, delta=1/16, K=8, C(8,1)=8.
        assert bound_hilbert_upper(1, 1, Fraction(1, 2), m=1).exact == 8

    def test_limit_sanity_point(self):
        # Limit order: delta = eps^d/4 = 1/8, K=4, C(4,1)=4.
        assert bound_hilbert_upper(1, 1, Fraction(1, 2)).exact == 4

    def test_reference_endpoints_at_m10(self):
        assert sci_string(bound_hilbert_upper(250, 3, "1/6", m=10)) == "5.3e+193"
        assert sci_string(bound_hilbert_upper(2000, 3, "1/6", m=10)) == "4.4e+494"

    def test_limit_value(self):
        assert sci_string(bound_hilbert_upper(250, 3, "1/6")) == "8.5e+192"

    def test_monotone_in_m_and_converges_to_limit(self):
        limit = bound_hilbert_upper(250, 3, "1/6").log10
        logs = [bound_hilbert_upper(250, 3, "1/6", m=m).log10
                for m in (2, 3, 4, 6, 8, 10, 16, 20, 40, 60)]
        for a, b in zip(logs, logs[1:]):
            assert a >= b
        assert all(v >= limit for v in logs)
        # Large m sits within a single K increment of the limit.
        assert logs[-1] - limit < 0.3

    def test_eps_must_clear_grid_resolution(self):
        # eps=1/6 needs 2^-(m+1) < 1/6, so m=1 (2^-2 = 1/4) is rejected.
        with pytest.raises(ValueError, match="must exceed"):
            bound_hilbert_upper(250, 3, "1/6", m=1)
        bound_hilbert_upper(250, 3, "1/6", m=2)

    def test_bad_order(self):
        with pytest.raises(ValueError):
            bound_hilbert_upper(250, 3, "1/6", m=0)


class TestHypercubeExact:
    def test_tiny_exact(self):
        assert bound_hypercube_exact(1, 1, Fraction(1, 2)).exact == 1
        assert bound_hypercube_exact(2, 3, Fraction(1, 6)).exact == 3 ** 6

    def test_reference_endpoints(self):
        assert sci_string(bound_hypercube_exact(250, 3, "1/6")) == "6.9e+357"
        assert sci_string(bound_hypercube_exact(2000, 3, "1/6")) == "5.3e+2862"

    def test_requires_half_integer_eps(self):
        with pytest.raises(ValueError):
            bound_hypercube_exact(4, 2, 0.3)


def _fraction_open_unit(eps):
    eps = as_exact_ratio(eps)
    if not 0 < eps < 1:
        raise ValueError(f"epsilon must lie in (0, 1), got {eps}")
    return eps


def _fraction_half_integer_k(eps, context):
    inv = 1 / eps
    if inv.denominator != 1 or inv.numerator % 2 != 0:
        raise ValueError(f"{context} requires epsilon = 1/(2k) for integer k, got {eps}")
    return inv.numerator // 2


def _fraction_quotient_upper(n, d, eps):
    k = math.ceil(1 / (2 * _fraction_open_unit(eps)))
    return math.comb(n + k**d - 1, n)


def _fraction_hilbert_upper(n, d, eps, m):
    eps = _fraction_open_unit(eps)
    if m is None:
        delta = eps**d / 4
    else:
        if m < 1:
            raise ValueError(f"curve order must be >= 1, got {m}")
        gap = eps - Fraction(1, 2 ** (m + 1))
        if gap <= 0:
            raise ValueError(
                f"epsilon = {eps} must exceed 2^-(m+1) = {Fraction(1, 2**(m+1))}")
        delta = gap**d / 4
    return math.comb(n + math.ceil(1 / (2 * delta)) - 1, n)


def _fraction_lexsort_lower(n, d, eps):
    if n < 2 or d < 2:
        raise ValueError("the lexsort lower bound needs n >= 2 and d >= 2")
    k = _fraction_half_integer_k(_fraction_open_unit(eps), "the lexsort lower bound")
    return k ** ((d - 1) * n + 1)


def _fraction_hypercube_exact(n, d, eps):
    k = _fraction_half_integer_k(_fraction_open_unit(eps), "the hypercube covering number")
    return k ** (n * d)


class TestIntegerEpsilon:
    """The bound calculators take k and K from the numerator and
    denominator of eps with integer ceil-division; the `Fraction` formulas
    here are the reference, for values and error messages alike."""

    EPS = ("1/2", "1/3", "1/4", "1/6", "2/7", "3/8", "5/12", "1/20", "1/100",
           "99/100", "0.3", "1/1024", "1/2049", "0", "1", "5/4", "-1/6")
    # Every order to 300 runs K through `bound_hilbert_upper`'s order cap,
    # which is below 300 for each eps and d here.
    M = (None, 0, *range(1, 301))

    @staticmethod
    def _outcome(func, *args, **kwargs):
        try:
            value = func(*args, **kwargs)
        except ValueError as exc:
            return str(exc)
        return value if isinstance(value, int) else value.exact

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 12])
    def test_grid_matches_fraction_formulas(self, d):
        for eps in self.EPS:
            for n in (1, 2, 3):
                got = self._outcome(bound_quotient_upper, n, d, eps)
                assert got == self._outcome(_fraction_quotient_upper, n, d, eps), (n, d, eps)
                for m in self.M:
                    got = self._outcome(bound_hilbert_upper, n, d, eps, m=m)
                    want = self._outcome(_fraction_hilbert_upper, n, d, eps, m)
                    assert got == want, (n, d, eps, m)
                for ours, ref in ((bound_lexsort_lower, _fraction_lexsort_lower),
                                  (bound_hypercube_exact, _fraction_hypercube_exact)):
                    got = self._outcome(ours, n, d, eps)
                    assert got == self._outcome(ref, n, d, eps), (ours, n, d, eps)

    def test_numpy_curve_order_does_not_overflow(self):
        import numpy as np

        assert (bound_hilbert_upper(1, 12, "1/100", m=np.int64(10)).exact
                == _fraction_hilbert_upper(1, 12, Fraction(1, 100), 10))


class TestGroupCardinality:
    def test_doubles_a_unit_bound(self):
        unit = LogValue(log10=0.0, exact=1, formula="quotient-upper")
        lifted = bound_group_cardinality(unit, 2)
        assert lifted.exact == 2
        assert lifted.log10 == math.log10(2)
        assert lifted.formula == "quotient-upper*group"

    def test_exact_and_log_agree(self):
        base = bound_quotient_upper(5, 2, "1/4")
        lifted = bound_group_cardinality(base, 120)
        assert lifted.exact == base.exact * 120
        assert abs(lifted.log10 - (base.log10 + math.log10(120))) <= 1e-12

    def test_none_exact_propagates(self):
        lifted = bound_group_cardinality(LogValue(5.0, None, "x"), 7)
        assert lifted.exact is None

    def test_rejects_empty_group(self):
        with pytest.raises(ValueError):
            bound_group_cardinality(LogValue(0.0, 1, "x"), 0)


class TestMultisetCount:
    def test_examples(self):
        assert multiset_count(2, 2) == 3
        assert multiset_count(3, 4) == 20

    @pytest.mark.parametrize("m", range(1, 11))
    def test_single_draw(self, m):
        assert multiset_count(1, m) == m

    def test_brute_force_small(self):
        for n in range(1, 7):
            for m in range(1, 7):
                brute = sum(1 for _ in combinations_with_replacement(range(m), n))
                assert multiset_count(n, m) == brute

    def test_domain(self):
        with pytest.raises(ValueError):
            multiset_count(0, 3)
        with pytest.raises(ValueError):
            multiset_count(3, 0)


class TestGeneralizationRhs:
    def test_collapse_to_sqrt_ln2(self):
        val = generalization_rhs(c_ell=1.0, c_h=1.0, c_f=1.0, eps=0.0,
                                 loss_bound=1.0, covering_number=1.0,
                                 confidence=1.0, samples=2)
        assert val == pytest.approx(math.sqrt(math.log(2.0)), abs=1e-15)
        assert val == pytest.approx(0.8325546111576977, abs=1e-15)

    def test_worked_example(self):
        val = generalization_rhs(1.0, 1.0, 1.0, 0.1, 1.0, 100.0, 0.05, 10**4)
        expect = 0.4 + math.sqrt((200.0 * math.log(2.0)
                                  + 2.0 * math.log(20.0)) / 1e4)
        assert val == pytest.approx(expect, abs=1e-15)
        assert val == pytest.approx(0.5202584303319718, abs=1e-12)

    def test_monotone_in_covering_number(self):
        vals = [generalization_rhs(1.0, 1.0, 1.0, 0.1, 1.0, N, 0.05, 100)
                for N in (1.0, 2.0, 5.0, 10.0, 100.0, 1e6)]
        for a, b in zip(vals, vals[1:]):
            assert b >= a

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            generalization_rhs(1, 1, 1, 0.1, 1, 1, 0.0, 10)
        with pytest.raises(ValueError):
            generalization_rhs(1, 1, 1, 0.1, 1, 1, -0.5, 10)
        with pytest.raises(ValueError):
            generalization_rhs(1, 1, 1, 0.1, 1, 1, 0.5, 0)
        with pytest.raises(ValueError):
            generalization_rhs(-1, 1, 1, 0.1, 1, 1, 0.5, 10)


class TestExactRatio:
    def test_passthrough_and_parsing(self):
        assert as_exact_ratio(Fraction(2, 7)) == Fraction(2, 7)
        assert as_exact_ratio(1) == Fraction(1)
        assert as_exact_ratio("1/6") == Fraction(1, 6)
        assert as_exact_ratio(" 0.2 ") == Fraction(1, 5)
        assert as_exact_ratio(0.25) == Fraction(1, 4)
        assert as_exact_ratio(float(1 / 6)) == Fraction(1, 6)

    def test_rejects_other_types(self):
        with pytest.raises(TypeError):
            as_exact_ratio(None)


class TestFormatting:
    def test_round_powers(self):
        assert sci_string(LogValue(100.0, 10 ** 100, "x")) == "1.0e+100"

    def test_two_digit_mantissa(self):
        assert sci_string(LogValue(math.log10(95), 95, "x")) == "9.5e+1"

    def test_mantissa_carry(self):
        # 996 rounds up to 1.0e+3, not 10.0e+2.
        assert sci_string(LogValue(math.log10(996), 996, "x")) == "1.0e+3"

    def test_log_only_fallback(self):
        mant, exp = mantissa_exponent(LogValue(36.322, None, "x"))
        assert (mant, exp) == (2.1, 36)
        assert sci_string(LogValue(2.99999, None, "x")) == "1.0e+3"

    def test_rejects_nonpositive_exact(self):
        with pytest.raises(ValueError):
            mantissa_exponent(LogValue(0.0, 0, "x"))

    def test_digit_count(self):
        assert digit_count(1) == 1
        assert digit_count(999) == 3
        assert digit_count(1000) == 4
        assert digit_count(10 ** 80) == 81
        # Past the interpreter's int-to-str conversion cap.
        assert digit_count(3 ** 12000) == 5726
        with pytest.raises(ValueError):
            digit_count(0)


def _decimal_mantissa_exponent(x: int) -> tuple[float, int]:
    """The Decimal route the integer formatter replaced, kept as its oracle."""
    mant, _, exp = f"{Decimal(x):.1E}".partition("E")
    return float(mant), int(exp)


def _decimal_digit_count(x: int) -> int:
    return Decimal(x).adjusted() + 1


def _assert_matches_decimal(xs):
    for x in xs:
        assert mantissa_exponent(LogValue(0.0, x, "x")) == _decimal_mantissa_exponent(x), x
        assert digit_count(x) == _decimal_digit_count(x), x


class TestFormattingAgainstDecimal:
    # Every k up to 200, then a stride to 6000, past the int-to-str cap
    # (4300 digits) on both sides.
    POWERS = sorted(set(range(201)) | set(range(201, 6001, 97)) | {4299, 4300, 4301, 6000})

    def test_around_powers_of_ten(self):
        _assert_matches_decimal(x for k in self.POWERS
                                for x in (10 ** k - 1, 10 ** k, 10 ** k + 1) if x > 0)

    def test_half_even_ties_and_near_ties(self):
        xs = []
        for k in range(40):
            p = 10 ** k
            xs += [25 * p, 35 * p, 995 * p - 1, 995 * p, 995 * p + 1]
            # Two-figure ties: 2.25 and 2.35 round to the even 2.2 and 2.4.
            xs += [t * p + delta for t in (225, 235, 945, 955) for delta in (-1, 0, 1)]
        xs += [995 * 10 ** 5000 + delta for delta in (-1, 0, 1)]
        _assert_matches_decimal(xs)
        assert mantissa_exponent(LogValue(0.0, 225 * 10 ** 30, "x")) == (2.2, 32)
        assert mantissa_exponent(LogValue(0.0, 225 * 10 ** 30 + 1, "x")) == (2.3, 32)
        assert mantissa_exponent(LogValue(0.0, 235 * 10 ** 30, "x")) == (2.4, 32)
        assert mantissa_exponent(LogValue(0.0, 995 * 10 ** 30 - 1, "x")) == (9.9, 32)
        assert mantissa_exponent(LogValue(0.0, 995 * 10 ** 30, "x")) == (1.0, 33)

    def test_seeded_random_integers(self):
        rng = random.Random(20261018)
        _assert_matches_decimal(rng.getrandbits(rng.randint(1, 16000)) or 1
                                for _ in range(1500))

    def test_every_table_cell_at_large_n(self):
        entries = bounds_table(n_list=(10000, 50000))
        assert all(e.value.exact is not None for e in entries)
        _assert_matches_decimal(e.value.exact for e in entries)

    def test_independent_of_decimal_context(self):
        value = LogValue(0.0, 2501 * 10 ** 50, "x")
        with localcontext() as ctx:
            ctx.rounding = ROUND_UP
            ctx.prec = 3
            assert sci_string(value) == "2.5e+53"
            assert digit_count(value.exact) == 54


def _bracket_matches_exact(xs, monkeypatch) -> int:
    """Every x through the public formatters with the top-bits bracket on,
    then forced onto the exact path; returns how many x the bracket
    answered itself."""
    xs = list(xs)
    fast = [(mantissa_exponent(LogValue(0.0, x, "x")), digit_count(x)) for x in xs]
    taken = sum(x.bit_length() >= 4096 and bounds._top_bits_lead(x) is not None for x in xs)
    with monkeypatch.context() as patch:
        patch.setattr(bounds, "_FAST_BITS", math.inf)
        patch.setattr(bounds, "_top_bits_lead", None)  # any call would raise
        exact = [(mantissa_exponent(LogValue(0.0, x, "x")), digit_count(x)) for x in xs]
    for x, got, want in zip(xs, fast, exact):
        assert got == want, (x.bit_length(), got, want)
    return taken


class TestLog10FastPath:
    """The top-bits bracket that replaced the math.log10 fast path, on
    the same input families, against the exact path."""

    # 10**1234 is the first power of ten past 2**4096.
    J = (1234, 1500, 4301, 30103)

    def test_random_integers(self, monkeypatch):
        rng = random.Random(20261019)
        xs = [rng.getrandbits(rng.randint(4096, 300000)) | 1 << 4095 for _ in range(300)]
        assert _bracket_matches_exact(xs, monkeypatch) == len(xs)

    def test_powers_over_a_stride_of_exponents(self, monkeypatch):
        xs = {}
        for k in range(2, 13):
            first = math.ceil(4096 / math.log2(k))
            xs[k] = [k ** e for e in range(first, first + 100000 // k, 1999 // k)]
        # Powers of ten sit on a digit-count edge: the exact path answers.
        assert _bracket_matches_exact(xs.pop(10), monkeypatch) == 0
        others = [x for k in xs for x in xs[k]]
        assert _bracket_matches_exact(others, monkeypatch) == len(others)

    def test_edge_families(self, monkeypatch):
        xs = []
        for j in self.J:
            p = 10 ** j
            xs += [p - 1, p, p + 1, 995 * p - 1]
            xs += [lead * p for lead in range(10, 100)]
            xs += [(10 * lead + 5) * p // 10 + delta
                   for lead in range(10, 100) for delta in (-1, 0, 1)]
        _bracket_matches_exact(xs, monkeypatch)

    def test_declines_digit_count_and_rounding_edges(self):
        for j in self.J:
            p = 10 ** j
            for x in (p - 1, p, p + 1):
                assert bounds._top_bits_lead(x) is None, j
            for lead in range(10, 100):
                assert bounds._top_bits_lead((10 * lead + 5) * p // 10) is None, (lead, j)
                if lead > 10:
                    assert bounds._top_bits_lead(lead * p) == (lead, j + 1), (lead, j)

    def test_reach(self, monkeypatch):
        # The bracket starts at 4096 bits and has no upper reach: a
        # 12-million-digit integer takes milliseconds (18 s through the
        # exact path).
        calls, bracket = [], bounds._top_bits_lead
        monkeypatch.setattr(bounds, "_top_bits_lead", lambda x: calls.append(x) or bracket(x))
        assert digit_count(3 << 4093) == 1233 and digit_count(3 << 4094) == 1233
        assert calls == [3 << 4094]
        x = 3 << 40_000_000
        start = time.perf_counter()
        assert digit_count(x) == 12041201
        assert mantissa_exponent(LogValue(0.0, x, "x")) == (2.0, 12041200)
        assert time.perf_counter() - start < 1.0

    def test_every_table_cell_at_large_n(self, monkeypatch):
        xs = [e.value.exact for e in bounds_table(n_list=(2000, 10000, 50000))]
        huge = sum(x.bit_length() >= 4096 for x in xs)
        assert huge >= 6 and _bracket_matches_exact(xs, monkeypatch) == huge


class TestNumpyIntegerArguments:
    def test_values_equal_plain_int_ones(self):
        # With numpy integers, k**d and math.comb ran in fixed width:
        # silently wrong values, AttributeError or OverflowError.
        calculators = (bound_quotient_upper, bound_lexsort_lower, bound_hypercube_exact,
                       bound_hilbert_upper, partial(bound_hilbert_upper, m=10))
        for cast in (np.int64, np.int32):
            for n, d in ((3, 12), (300, 3), (2000, 7)):
                for calc in calculators:
                    want = calc(n, d, "1/100")
                    for args in ((cast(n), d), (n, cast(d)), (cast(n), cast(d))):
                        got = calc(*args, "1/100")
                        assert got == want and type(got.exact) is int, (calc, n, d, args)
                        assert got.digits == want.digits
            assert bound_hilbert_upper(3, 12, "1/100", m=cast(10)) == calculators[-1](3, 12, "1/100")
            assert digit_count(cast(12345)) == 5

    def test_non_integers_are_rejected(self):
        for calc in (bound_quotient_upper, bound_lexsort_lower, bound_hypercube_exact,
                     bound_hilbert_upper):
            with pytest.raises(TypeError):
                calc(3.0, 3, "1/6")
            with pytest.raises(TypeError):
                calc(3, np.float64(3), "1/6")
        with pytest.raises(TypeError):
            digit_count(10.0)


def _threshold(k: int) -> int:
    """The smallest e with k**e of at least 4096 bits."""
    e = math.floor(4095 / math.log2(k))
    while (k ** e).bit_length() >= 4096:
        e -= 1
    while (k ** e).bit_length() < 4096:
        e += 1
    return e


def _magnitudes(value: LogValue) -> tuple:
    return value.log10, value.digits, mantissa_exponent(value)


def _certified_matches_exact(pairs, monkeypatch) -> list[bool]:
    """Each k**e through `_power_value` as it runs, then with the certified
    path and the log10 fast path off; returns which ones the certified
    path answered without building the power."""
    pairs = list(pairs)
    values = [bounds._power_value(k, e, "x") for k, e in pairs]
    lazy = [v._power is not None for v in values]
    got = [_magnitudes(v) for v in values]
    assert [v._power is not None for v in values] == lazy  # nothing built
    with monkeypatch.context() as patch:
        patch.setattr(bounds, "_FAST_BITS", math.inf)
        for (k, e), want in zip(pairs, got):
            exact = bounds._power_value(k, e, "x")
            assert exact._power is None and exact.exact == k ** e
            assert _magnitudes(exact) == want, (k, e)
    return lazy


class TestCertifiedPowers:
    def test_from_the_threshold_to_large_exponents(self, monkeypatch):
        # One exponent per k drawn log-uniformly up to 3e4, and a few at
        # 3e5, which keeps the exact builds of the reference to seconds.
        rng = random.Random(20261020)
        pairs = [(k, 300000) for k in (3, 77, 12345)]
        for k in [*range(2, 101), 1000, 12345]:
            first = _threshold(k)
            pairs += [(k, first - 1), (k, first), (k, first + 1),
                      (k, round(first * (30000 / first) ** rng.random()))]
        lazy = _certified_matches_exact(pairs, monkeypatch)
        # Exactly the powers of at least 4096 bits are certified unbuilt.
        assert lazy == [(k ** e).bit_length() >= 4096 for k, e in pairs]

    def test_powers_of_two_and_ten(self, monkeypatch):
        pairs = [(k, e) for k in (2, 4, 8, 10)
                 for e in (_threshold(k), 10007, 65536, 300000)]
        assert all(_certified_matches_exact(pairs, monkeypatch))
        value = bounds._power_value(10, 300000, "x")
        assert value.digits == 300001 and mantissa_exponent(value) == (1.0, 300000)

    def test_unit_base(self):
        # eps = 1/2 gives k = 1: the power is 1 however large the exponent.
        for value in (bound_hypercube_exact(5000, 3, Fraction(1, 2)),
                      bound_lexsort_lower(5000, 3, Fraction(1, 2)),
                      bounds._power_value(1, 10 ** 6, "x")):
            assert value == (0.0, 1, value.formula) and sci_string(value) == "1.0e+0"

    def test_small_powers_through_the_certified_path(self, monkeypatch):
        # With the threshold at one bit every power takes the certified
        # path, untruncated ones and the exact decimal half 50**3 = 125000
        # included. Only exact ties of the 53-bit rounding fall back, as
        # 24**34 = 3**34 << 102 with 3**34 of 54 bits, odd.
        pairs = [(k, e) for k in range(2, 61) for e in range(1, 41)]
        with monkeypatch.context() as patch:
            patch.setattr(bounds, "_FAST_BITS", 1)
            half = bounds._power_value(50, 3, "x")
            assert half._power is not None and sci_string(half) == "1.2e+5"
            lazy = _certified_matches_exact(pairs, patch)
        assert [pair for pair, took in zip(pairs, lazy) if not took] == [(24, 34), (48, 34)]

    def test_bounds_bracket_the_power(self):
        for k in (2, 3, 7, 10, 12345):
            for e in (1, 2, 5000, 77777):
                x = k ** e
                for radix in (2, 10):
                    lo, hi, shift = bounds._power_bounds(k, e, radix)
                    unit = radix ** shift
                    assert lo * unit <= x <= hi * unit, (k, e, radix)
                    assert (hi - lo) << 100 <= lo, (k, e, radix)

    @pytest.mark.parametrize("slack", [(56, None), (None, 10), (56, 10)])
    def test_loose_brackets_fall_back(self, monkeypatch, slack):
        # A valid but looser bracket (relative width 2**-slack in base 2,
        # base 10 or both) must still give the exact answer: where its
        # bounds round apart, the power is built.
        tight = bounds._power_bounds

        def loose(k, e, radix):
            lo, hi, shift = tight(k, e, radix)
            bits = slack[radix == 10]
            if bits is None:
                return lo, hi, shift
            return lo - (lo >> bits) - 1, hi + (hi >> bits) + 1, shift

        pairs = [(k, e) for k in range(2, 41) for e in (9001, 12345, 40000)]
        with monkeypatch.context() as patch:
            patch.setattr(bounds, "_power_bounds", loose)
            lazy = _certified_matches_exact(pairs, patch)
        assert 0 < sum(lazy) < len(pairs)


class TestLazyLogValue:
    @staticmethod
    def lazy() -> LogValue:
        value = bounds._power_value(3, 9000, "hypercube-exact")
        assert value._power is not None and value._exact is None
        return value

    def test_equals_and_hashes_as_the_built_value(self):
        value = self.lazy()
        built = LogValue(value.log10, 3 ** 9000, "hypercube-exact")
        assert value == built and built == value and hash(value) == hash(built)
        assert value == (value.log10, 3 ** 9000, "hypercube-exact")
        assert hash(value) == hash((value.log10, 3 ** 9000, "hypercube-exact"))
        assert value != LogValue(value.log10, 3 ** 9000 + 1, "hypercube-exact")

    def test_exact_is_built_once(self):
        value = self.lazy()
        assert value.exact is value.exact
        assert value.exact == 3 ** 9000 and value._power is None

    def test_pickle_and_copy_round_trips(self):
        for value in (LogValue(2.5, 316, "q"), LogValue(1.5, None, "x"), self.lazy()):
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
                assert pickle.loads(pickle.dumps(value, protocol)) == value
            assert copy.copy(value) == value and copy.deepcopy(value) == value
            entry = TableEntry("x", 1, value)
            assert pickle.loads(pickle.dumps(entry)) == entry == copy.deepcopy(entry)

    def test_sequence_behaviour_and_read_only_fields(self):
        value = self.lazy()
        log10, exact, formula = value
        assert len(value) == 3 and list(value) == [log10, exact, formula]
        assert (value[0], value[1], value[-1]) == (log10, exact, formula)
        assert value[:2] == (value.log10, value.exact)
        for name in ("log10", "exact", "formula", "digits", "_exact", "_power"):
            with pytest.raises(AttributeError):
                setattr(value, name, 1)
            with pytest.raises(AttributeError):
                delattr(value, name)

    def test_printing_builds_no_power(self):
        entries = bounds_table(n_list=(50000,))
        for entry in entries:
            sci_string(entry.value)
            assert entry.value.digits == math.floor(entry.value.log10) + 1
        for entry in entries:
            power = entry.formula in ("lexsort-lower", "hypercube-exact")
            assert (entry.value._exact is None) == power, entry.formula


class TestNamedTuples:
    def test_keyword_and_positional_construction(self):
        assert LogValue(2.5, 316, "q") == LogValue(log10=2.5, exact=316, formula="q")
        value = LogValue(2.5, 316, "q")
        assert (value.log10, value.exact, value.formula) == (2.5, 316, "q")
        assert TableEntry("q", 3, value) == TableEntry(formula="q", n=3, value=value)

    def test_repr(self):
        value = LogValue(log10=2.5, exact=316, formula="quotient-upper")
        assert repr(value) == "LogValue(log10=2.5, exact=316, formula='quotient-upper')"
        assert repr(TableEntry(formula="hilbert-upper", n=250, value=value)) == (
            "TableEntry(formula='hilbert-upper', n=250, "
            "value=LogValue(log10=2.5, exact=316, formula='quotient-upper'))")
        # Past the CLI's 4096-digit JSON cutoff the repr gives the digit
        # count, read without building the certified power 3^100001.
        big = bound_lexsort_lower(50000, 3, "1/6")
        assert repr(big) == ("LogValue(log10=47712.60259322097, exact=<47713 digits>, "
                             "formula='lexsort-lower')")
        assert big._power == (3, 100001)
        assert f"exact={10 ** 4095}," in repr(bounds._logvalue(10 ** 4095, "q"))
        assert "exact=<4097 digits>," in repr(bounds._logvalue(10 ** 4096, "q"))

    def test_equal_values_hash_equal(self):
        a, b = LogValue(1.5, None, "x"), LogValue(log10=1.5, exact=None, formula="x")
        assert a == b and hash(a) == hash(b)
        assert a != LogValue(1.5, None, "y")
        assert TableEntry("x", 1, a) == TableEntry("x", 1, b)
        assert hash(TableEntry("x", 1, a)) == hash(TableEntry("x", 1, b))
        assert len({a, b, TableEntry("x", 1, a), TableEntry("x", 1, b)}) == 2
        # The one behaviour change from the frozen dataclasses.
        assert a == (1.5, None, "x")

    def test_fields_are_read_only(self):
        value = LogValue(2.5, 316, "q")
        for name in ("log10", "exact", "formula"):
            with pytest.raises(AttributeError):
                setattr(value, name, 1)
        with pytest.raises(AttributeError):
            TableEntry("q", 3, value).n = 4


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 200), d=st.integers(1, 30), k=st.integers(1, 50))
def test_closed_forms_match_direct_arithmetic(n, d, k):
    eps = Fraction(1, 2 * k)
    q = bound_quotient_upper(n, d, eps)
    assert q.exact == multiset_count(n, k ** d)
    hl = bound_hilbert_upper(n, d, eps)  # limit order: K = 2 (2k)^d
    assert hl.exact == multiset_count(n, 2 * (2 * k) ** d)
    hc = bound_hypercube_exact(n, d, eps)
    assert hc.exact == k ** (n * d)
    checked = [q, hl, hc]
    if n >= 2 and d >= 2:
        lx = bound_lexsort_lower(n, d, eps)
        assert lx.exact == k ** ((d - 1) * n + 1)
        checked.append(lx)
    for v in checked:
        # Decimal counts digits past str()'s 4300-digit cap.
        assert Decimal(v.exact).adjusted() + 1 == math.floor(v.log10) + 1
        assert abs(v.log10 - _log10_int(v.exact)) <= 1e-9
