import dataclasses
import math
import operator
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphmat as gm
from graphmat import algebra
from graphmat.algebra import (
    BinaryOp,
    LawViolation,
    make_semiring,
    scalar_add,
    scalar_mul,
    semiring_by_name,
    set_from_elements,
    set_to_elements,
    verify_semiring_laws,
)
from graphmat.errors import DomainError

import oracle
from conftest import (NAMED_SEMIRINGS, assert_matches_dense, get_semiring,
                      random_matrix)


class TestSemiringLookup:
    def test_arith_real(self):
        sr = semiring_by_name("arith-real")
        assert sr.zero == 0.0
        assert sr.add(2.0, 3.0) == 5.0
        assert sr.mul(2.0, 3.0) == 6.0

    def test_arith_scalar_examples(self):
        nat = semiring_by_name("arith-natural")
        assert scalar_add(nat, 1, 1) == 2
        assert scalar_mul(nat, 2, 2) == 4

    def test_max_plus(self):
        sr = semiring_by_name("max-plus")
        assert sr.add(5.0, 3.0) == 5.0
        assert sr.mul(5.0, 3.0) == 8.0
        assert sr.zero == -math.inf
        for a in (-7.5, 0.0, 12.25):
            assert sr.add(a, sr.zero) == a
            assert sr.mul(a, sr.zero) == sr.zero

    def test_min_plus_zero_is_plus_inf(self):
        sr = semiring_by_name("min-plus")
        assert sr.zero == math.inf
        assert scalar_add(sr, 7.0, 4.0) == 4.0

    def test_max_min_default_nonneg(self):
        sr = semiring_by_name("max-min")
        assert sr.zero == 0.0
        assert scalar_mul(sr, 0.5, 0.3) == 0.3

    def test_max_min_nonpos_variant(self):
        sr = semiring_by_name("max-min", variant="nonpos")
        assert sr.zero == -math.inf
        assert sr.add(-2.0, sr.zero) == -2.0
        assert sr.mul(-2.0, sr.zero) == sr.zero

    def test_min_max_default(self):
        sr = semiring_by_name("min-max")
        assert sr.zero == math.inf
        assert sr.add(3.0, sr.zero) == 3.0
        assert sr.mul(3.0, sr.zero) == sr.zero

    def test_xor_and(self):
        sr = semiring_by_name("xor-and")
        assert scalar_add(sr, 1, 1) == 0
        assert sr.zero == 0

    def test_union_intersect(self):
        sr = semiring_by_name("union-intersect", universe_size=8)
        a = set_from_elements([1, 2])
        b = set_from_elements([2, 3])
        assert set_to_elements(sr.add(a, b)) == {1, 2, 3}
        assert set_to_elements(sr.mul(a, b)) == {2}
        assert sr.mul(a, sr.zero) == sr.zero

    def test_unknown_name(self):
        with pytest.raises(DomainError):
            semiring_by_name("tropical-deluxe")

    def test_union_intersect_needs_universe(self):
        with pytest.raises(DomainError):
            semiring_by_name("union-intersect")


class TestDomainChecks:
    def test_natural_add_overflow(self):
        nat = semiring_by_name("arith-natural")
        with pytest.raises(DomainError):
            scalar_add(nat, algebra.U64_MAX, 1)

    def test_natural_mul_overflow(self):
        nat = semiring_by_name("arith-natural")
        with pytest.raises(DomainError):
            scalar_mul(nat, 2**33, 2**33)

    def test_domain_membership_on_entry(self):
        nat = semiring_by_name("arith-natural")
        with pytest.raises(DomainError):
            scalar_add(nat, -1, 1)
        mm = semiring_by_name("max-min")
        with pytest.raises(DomainError):
            scalar_add(mm, -0.5, 1.0)

    def test_set_universe_bounds(self):
        sr = semiring_by_name("union-intersect", universe_size=4)
        with pytest.raises(DomainError):
            scalar_add(sr, 1 << 10, 1)
        with pytest.raises(DomainError):
            set_from_elements([70])


class TestNaN:
    @pytest.mark.parametrize("name", ["arith-real", "min-plus", "max-min",
                                      "min-max"])
    def test_real_domains_reject_nan(self, name):
        sr = semiring_by_name(name)
        assert not sr.domain.contains(math.nan)
        with pytest.raises(DomainError):
            scalar_add(sr, math.nan, sr.one)
        with pytest.raises(DomainError):
            sr.domain.check_array(np.array([1.0, math.nan]))

    def test_infinities_stay_members(self):
        real = semiring_by_name("arith-real").domain
        assert real.contains(math.inf) and real.contains(-math.inf)
        real.check_array(np.array([math.inf, -math.inf]))


def float_values(*specials, lo, hi):
    """Integral floats from lo to hi, any float between, and specials."""
    return st.one_of(st.sampled_from(specials),
                     st.integers(int(lo), int(hi)).map(float),
                     st.floats(lo, hi, allow_nan=False))


# each built-in domain with values at the edges of its digit form:
# -0.0, 10**16 - 2 and 10**16, 2**53 + 1, int64's ends, 2**64 - 1
DIGIT_CASES = [
    (algebra.REAL, float_values(-0.0, 0.0, 1e16 - 2, 1e16, -(1e16 - 2),
                                2.0**53 + 1, -3.0, 2.5, 1e300, math.inf,
                                -math.inf, lo=-1e17, hi=1e17)),
    (algebra.REAL_NONNEG, float_values(-0.0, 1e16 - 2, 1e16, 2.0**53 + 1,
                                       0.5, lo=0, hi=1e17)),
    (algebra.REAL_NONPOS, float_values(-0.0, -(1e16 - 2), -1e16,
                                       -2.0**53 - 1, -0.5, lo=-1e17, hi=0)),
    (algebra.NATURAL, st.integers(0, 2**64 - 1)),
    (algebra.INTEGER, st.integers(-2**63, 2**63 - 1)
     | st.sampled_from([-2**63, 2**63 - 1])),
    (algebra.BOOL, st.integers(0, 1)),
    (algebra.set_domain(64), st.integers(0, 2**64 - 1)
     | st.just(2**64 - 1)),
]


class TestDigits:
    @pytest.mark.parametrize("domain,values", DIGIT_CASES,
                             ids=[d.name for d, _ in DIGIT_CASES])
    def test_matches_render(self, domain, values):
        """digits gives every value's digits and suffix exactly when
        render writes each of them so."""

        @settings(max_examples=200, deadline=None)
        @given(xs=st.lists(values, max_size=6))
        def check(xs):
            text = [domain.render(v) for v in xs]
            plain = all(t.lstrip("-").removesuffix(".0").isdigit()
                        and t != "-0.0" for t in text)
            got = domain.digits(np.array(xs, dtype=domain.dtype))
            assert (got is not None) == plain
            if got is not None:
                ints, suffix = got
                assert [f"{i}{suffix}" for i in ints.tolist()] == text

        check()


class TestLaws:
    @pytest.mark.parametrize("name", NAMED_SEMIRINGS)
    def test_named_semiring_laws(self, name):
        sr = get_semiring(name)
        tol = 1e-12 if name == "arith-real" else None
        verify_semiring_laws(sr, random.Random(7), samples=2000, rel_tol=tol)

    def test_xor_and_exhaustive(self):
        sr = semiring_by_name("xor-and")
        for a in (0, 1):
            assert sr.mul(a, a) == a
            assert sr.add(a, a) == 0

    def test_or_and_laws_and_mxm(self):
        # the boolean structure semiring, outside NAMED_SEMIRINGS
        sr = semiring_by_name("or-and")
        rng = random.Random(5)
        verify_semiring_laws(sr, rng, samples=2000)
        for _ in range(20):
            a = random_matrix(sr, rng, 6, 5, density=0.4)
            b = random_matrix(sr, rng, 5, 7, density=0.4)
            want = oracle.dense_mxm(sr, oracle.densify(a, 0),
                                    oracle.densify(b, 0))
            assert_matches_dense(gm.mxm(sr, a, b), want, 0)

    def test_user_semiring_law_check_rejects_bad_op(self):
        minus = BinaryOp("minus", operator.sub)
        with pytest.raises(LawViolation):
            make_semiring("bad", algebra.INTEGER, minus, algebra.OP_TIMES,
                          0, 1, check_laws=True)

    def test_user_semiring_accepted_when_lawful(self):
        sr = make_semiring("plus-times-int", algebra.INTEGER,
                           BinaryOp("plus", operator.add),
                           BinaryOp("times", operator.mul),
                           0, 1, check_laws=True)
        assert sr.add(2, 3) == 5


class TestUserDomain:
    """A domain without a built-in array rule has its own `contains`
    applied to every value, on entry and after every fold."""

    POSITIVE = algebra.Domain("positive", np.float64, lambda v: v > 0,
                              lambda rng: rng.uniform(0.5, 10.0), float,
                              repr, "real")
    # min-plus over the positive reals; folds by minus can leave them
    SR = make_semiring("positive-min-plus", POSITIVE, algebra.OP_MIN,
                       algebra.OP_PLUS, math.inf, 0.0)

    def test_entry_rejects_a_value_outside(self):
        with pytest.raises(DomainError):
            gm.build(self.SR, (2, 2), ([0, 1], [0, 1], [-3.0, 2.0]))
        a = gm.build(self.SR, (2, 2), ([0, 1], [0, 1], [3.0, 2.0]))
        assert list(gm.extract_tuples(a)) == [(0, 0, 3.0), (1, 1, 2.0)]

    def test_folds_reject_a_value_outside(self):
        minus = BinaryOp("minus", operator.sub)
        with pytest.raises(DomainError):
            gm.build(self.SR, (2, 2), ([0, 0], [1, 1], [1.0, 2.0]),
                     dup=minus)
        a = gm.build(self.SR, (2, 2), ([0, 1], [1, 0], [1.0, 2.0]))
        b = gm.build(self.SR, (2, 2), ([0, 1], [1, 1], [4.0, 2.0]))
        for op in (gm.ewise_add, gm.ewise_mult):
            with pytest.raises(DomainError):  # 1.0 - 4.0 at (0, 1)
                op(minus, math.inf, a, b)
        assert gm.ewise_add(minus, math.inf, b, a).values.tolist() == \
            [3.0, 2.0, 2.0]
        assert gm.ewise_mult(minus, math.inf, b, a).values.tolist() == [3.0]
        assert gm.mxm(self.SR, a, b).values.tolist() == [3.0, 6.0]

    # a user domain named like a built-in one: its `contains`, not the
    # built-in's array rule, decides. "real" takes only values above 0;
    # "bool", on uint8, takes 0, 2 and 3 but not 1
    NAMED = [(dataclasses.replace(algebra.REAL, contains=lambda v: v > 0),
              algebra.OP_MIN, algebra.OP_PLUS, math.inf, -3.0, 2.0),
             (dataclasses.replace(algebra.BOOL,
                                  contains=lambda v: v in (0, 2, 3)),
              algebra.OP_OR, algebra.OP_AND, 0, 1, 2)]

    @pytest.mark.parametrize("domain, add, mul, zero, bad, good", NAMED,
                             ids=["real", "bool"])
    def test_named_like_a_built_in_keeps_its_contains(self, domain, add,
                                                      mul, zero, bad, good):
        sr = make_semiring("user", domain, add, mul, zero, good)
        with pytest.raises(DomainError):
            gm.build(sr, (2, 2), ([0, 1], [0, 1], [bad, good]))
        a = gm.build(sr, (2, 2), ([0, 1], [0, 1], [good, good]))
        assert a.values.tolist() == [good, good]
        assert gm.ewise_add(add, zero, a, a).values.tolist() == [good, good]

    def test_ewise_add_checks_only_its_results(self):
        # values already stored are in the domain, so only the fold's
        # results are checked, with one `contains` call each
        calls = []
        counted = dataclasses.replace(
            algebra.REAL, name="counted",
            contains=lambda v: calls.append(v) or True)
        sr = make_semiring("counted", counted, algebra.OP_PLUS,
                           algebra.OP_TIMES, 0.0, 1.0)
        a = gm.build(sr, (1, 2), ([0], [0], [1.0]))
        b = gm.build(sr, (1, 2), ([0, 0], [0, 1], [2.0, 4.0]))
        calls.clear()
        assert gm.ewise_add(algebra.OP_PLUS, 0.0, a, b).values.tolist() == [
            3.0, 4.0]
        assert sorted(calls) == [3.0, 4.0]

    def test_built_in_domains_keep_their_array_rules(self):
        # the rule is picked by the domain object; a set domain is one
        # object per universe
        assert algebra.set_domain(8) is algebra.set_domain(8)
        for name in ("max-min", "xor-and"):
            sr = semiring_by_name(name)
            bad = {"max-min": -1.0, "xor-and": 2}[name]
            with pytest.raises(DomainError):
                sr.domain.check_array(np.array([bad], dtype=sr.domain.dtype))
        # naturals are stored as uint64, which holds no other value; an
        # array of another dtype has its first non-natural named; an
        # integral float is none, as the cast to uint64 keeps it
        assert algebra.NATURAL.dtype is np.uint64
        algebra.NATURAL.check_array(np.array([0, 2**64 - 1], dtype=np.uint64))
        for bad in ([3, -1], [2.0, 2.5], [1, 2**64]):
            with pytest.raises(DomainError,
                               match=f"^{bad[1]} is not a 64-bit natural"):
                algebra.NATURAL.check_array(np.array(bad, dtype=object))
        sets = semiring_by_name("union-intersect", universe_size=4)
        with pytest.raises(DomainError):
            sets.domain.check_array(np.array([16], dtype=np.uint64))
