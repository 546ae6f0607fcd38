import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fuzzylinsys.fuzzy import AffineFn, FuzzyNumber, add, fuzzy_eq, scalar_mul, validity


def fz(l0, l1, u0, u1):
    return FuzzyNumber(AffineFn(l0, l1), AffineFn(u0, u1))


# Integer-valued coefficients keep float arithmetic exact, which the
# tolerance-free algebraic identities below require.
coeff = st.integers(min_value=-1000, max_value=1000).map(float)
fuzzy_numbers = st.builds(fz, coeff, coeff, coeff, coeff)


@st.composite
def valid_fuzzy_numbers(draw):
    """Fuzzy numbers satisfying all three membership clauses by construction."""
    l0 = draw(coeff)
    rise = draw(st.integers(min_value=0, max_value=500).map(float))
    fall = draw(st.integers(min_value=0, max_value=500).map(float))
    gap = draw(st.integers(min_value=0, max_value=500).map(float))
    # upper(1) = lower(1) + gap, upper slope -fall
    return fz(l0, rise, l0 + rise + gap + fall, -fall)


class TestAdd:
    def test_componentwise(self):
        got = add(fz(0, 1, 2, -1), fz(1, 0, 1, 0))
        assert got == fz(1, 1, 3, -1)

    def test_zero_identity(self):
        a = fz(-1, 3, 3, -1)
        assert add(a, fz(0, 0, 0, 0)) == a

    def test_against_grid_evaluation(self):
        a = fz(-1, 3, 3, -1)
        b = fz(-6, 2, 2, -6)
        got = add(a, b)
        assert got == fz(-7, 5, 5, -7)
        for r in np.linspace(0.0, 1.0, 11):
            assert got.lower(r) == pytest.approx(a.lower(r) + b.lower(r))
            assert got.upper(r) == pytest.approx(a.upper(r) + b.upper(r))

    def test_operator_sugar(self):
        assert fz(1, 0, 2, 0) + fz(1, 1, 1, -1) == fz(2, 1, 3, -1)


class TestScalarMul:
    def test_one_is_identity(self):
        a = fz(0, 2, 4, -1)
        assert scalar_mul(1.0, a) == a

    def test_negative_swaps_endpoints(self):
        assert scalar_mul(-1.0, fz(0, 2, 4, -1)) == fz(-4, 1, 0, -2)

    def test_zero_collapses(self):
        assert scalar_mul(0.0, fz(3, 1, 9, -2)) == fz(0, 0, 0, 0)

    def test_operator_sugar(self):
        assert 2.0 * fz(1, 1, 3, -1) == fz(2, 2, 6, -2)


class TestFuzzyEq:
    def test_reflexive(self):
        a = fz(0.1, 0.2, 0.3, -0.4)
        assert fuzzy_eq(a, a, tol=0.0)

    def test_detects_coefficient_gap(self):
        tol = 1e-6
        assert not fuzzy_eq(fz(0, 0, 1, 0), fz(0, 2 * tol, 1, 0), tol=tol)

    def test_within_tolerance(self):
        tol = 1e-6
        assert fuzzy_eq(fz(0, 0, 1, 0), fz(0, 0.5 * tol, 1, 0), tol=tol)


class TestValidity:
    def test_valid_solution_component(self):
        assert validity(fz(-0.75, 0.25, 0.25, -0.75)).is_valid

    def test_lower_exceeds_upper(self):
        verdict = validity(fz(0, 2, -4, 0))
        assert verdict.violations == (3,)

    def test_all_clauses_fail(self):
        verdict = validity(fz(0.625, -1.125, -0.625, 1.125))
        assert verdict.violations == (1, 2, 3)

    def test_crossing_only_at_left_endpoint(self):
        # lower(0) > upper(0) but lower(1) < upper(1): still a clause-3 failure
        verdict = validity(fz(1, -2, -1, 2))
        assert 3 in verdict.violations

    def test_tolerance_slack(self):
        almost = fz(0, -1e-12, 0, 1e-12)
        assert not validity(almost).is_valid
        assert validity(almost, tol=1e-9).is_valid


    @pytest.mark.parametrize("tol", [float("nan"), -0.5, float("inf"), -float("inf")])
    def test_slack_must_be_finite_and_nonnegative(self, tol):
        # a NaN slack passed every clause; a negative one failed valid numbers
        with pytest.raises(ValueError, match="slack"):
            validity(fz(0.0, -1.0, 2.0, 1.0), tol)
        with pytest.raises(ValueError, match="slack"):
            validity(fz(0.0, 1.0, 2.0, -1.0), tol)


class TestAlgebraicProperties:
    @given(a=fuzzy_numbers, b=fuzzy_numbers)
    def test_add_commutative(self, a, b):
        assert add(a, b) == add(b, a)

    @given(a=fuzzy_numbers, b=fuzzy_numbers, c=fuzzy_numbers)
    def test_add_associative(self, a, b, c):
        assert add(add(a, b), c) == add(a, add(b, c))

    @given(
        lam=st.integers(min_value=-30, max_value=30).map(float),
        mu=st.integers(min_value=-30, max_value=30).map(float),
        a=fuzzy_numbers,
    )
    def test_scalar_mul_composes(self, lam, mu, a):
        assert scalar_mul(lam, scalar_mul(mu, a)) == scalar_mul(lam * mu, a)

    @given(a=valid_fuzzy_numbers(), b=valid_fuzzy_numbers())
    def test_add_preserves_validity(self, a, b):
        assert validity(a).is_valid and validity(b).is_valid
        assert validity(add(a, b)).is_valid

    @given(lam=st.integers(min_value=0, max_value=40).map(float), a=valid_fuzzy_numbers())
    def test_nonnegative_scaling_preserves_validity(self, lam, a):
        assert validity(scalar_mul(lam, a)).is_valid

    @given(a=valid_fuzzy_numbers())
    def test_valid_means_ordered_on_grid(self, a):
        for r in np.linspace(0.0, 1.0, 101):
            assert a.lower(r) <= a.upper(r)


def test_affine_rejects_nonfinite():
    with pytest.raises(ValueError):
        AffineFn(float("nan"), 0.0)
    with pytest.raises(ValueError):
        AffineFn(0.0, float("inf"))

