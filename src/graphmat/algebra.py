"""Scalar domains, binary operators, and semirings.

A semiring packages an add operator, a multiply operator, and the
0-element that makes sparsity lawful: values equal to the 0-element are
never stored in a sparse matrix, which is sound exactly because 0 is the
additive identity and the multiplicative annihilator.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from .errors import DomainError

U64_MAX = 2**64 - 1


@dataclass(frozen=True)
class Domain:
    """A scalar value set: storage dtype, membership test, and text codec.

    Membership is checked when scalars enter the system (matrix build,
    scalar entry points) and again on every folded result (build's
    duplicates, ewise_add, ewise_mult, mxm, vxm). Exact integer sums and
    products run on int64 only where a bound rules out overflow, else on
    Python ints, so an overflow fails at the fold instead of wrapping.
    NaN is in no real domain.
    """

    name: str
    dtype: Any
    contains: Callable[[Any], bool]
    sample: Callable[[Any], Any]
    parse_text: Callable[[str], Any]
    render: Callable[[Any], str]
    mm_field: str  # Matrix Market field this domain serializes as
    universe_size: int | None = None

    def validate(self, value):
        if not self.contains(value):
            raise DomainError(f"value {value!r} is not in domain {self.name}")
        return value

    def check_array(self, values: np.ndarray):
        """Audit a value array; raises DomainError on any violation.

        Used on bulk entry and at the shared fold of every kernel, where
        per-scalar checks would be too slow (e.g. natural overflow after
        a reduction). Only the built-in domain objects, one per set
        universe, have array rules: any other applies its `contains`.
        """
        if len(values) == 0:
            return
        if self.dtype is np.float64 and np.isnan(values).any():
            raise DomainError(f"NaN is not in domain {self.name}")
        if self is NATURAL:  # uint64 holds naturals only; name another's
            bad = values.dtype != np.uint64 and [
                v for v in values.tolist() if not self.contains(
                    int(v) if isinstance(v, float) and v.is_integer() else v)]
            if bad:
                raise DomainError(f"{bad[0]!r} is not a 64-bit natural")
        elif self is REAL_NONNEG:
            if not np.all(values >= 0):
                raise DomainError("negative value in non-negative domain")
        elif self is REAL_NONPOS:
            if not np.all(values <= 0):
                raise DomainError("positive value in non-positive domain")
        elif self is BOOL:
            if not np.all((values == 0) | (values == 1)):
                raise DomainError("boolean value outside {0, 1}")
        elif self.universe_size and self is set_domain(self.universe_size):
            mask = np.uint64(U64_MAX ^ ((1 << self.universe_size) - 1))
            if np.any(values & mask):
                raise DomainError(
                    f"set value outside universe of {self.universe_size}"
                )
        elif self is not REAL and self is not INTEGER:  # no array rule
            for v in values.tolist():
                self.validate(v)

    def digits(self, values: np.ndarray):
        """(ints, suffix) if render writes each of `values` as its
        integer's digits then `suffix`: "" in integer-backed domains,
        ".0" for reals integral below 1e16 in magnitude (an exponent
        from there on) but -0.0. None if it writes any otherwise."""
        if self.render is _render_int:
            return values, ""
        if self.render is _render_real and (np.abs(values) < 1e16).all():
            ints = values.astype(np.int64)
            if (ints == values).all() and not np.signbit(
                    values[ints == 0]).any():
                return ints, ".0"
        return None


def _is_real(v):
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and v == v)  # NaN is the one float unequal to itself


def _render_real(v):
    return repr(float(v))


def _render_int(v):
    return str(int(v))


REAL = Domain(
    name="real",
    dtype=np.float64,
    contains=_is_real,
    sample=lambda rng: rng.uniform(-10.0, 10.0),
    parse_text=float,
    render=_render_real,
    mm_field="real",
)

REAL_NONNEG = Domain(
    name="real-nonneg",
    dtype=np.float64,
    contains=lambda v: _is_real(v) and v >= 0,
    sample=lambda rng: rng.uniform(0.0, 10.0),
    parse_text=float,
    render=_render_real,
    mm_field="real",
)

REAL_NONPOS = Domain(
    name="real-nonpos",
    dtype=np.float64,
    contains=lambda v: _is_real(v) and v <= 0,
    sample=lambda rng: rng.uniform(-10.0, 0.0),
    parse_text=float,
    render=_render_real,
    mm_field="real",
)

NATURAL = Domain(
    name="natural",
    dtype=np.uint64,
    contains=lambda v: isinstance(v, int) and not isinstance(v, bool)
    and 0 <= v <= U64_MAX,
    sample=lambda rng: rng.randrange(0, 1000),
    parse_text=int,
    render=_render_int,
    mm_field="integer",
)

INTEGER = Domain(
    name="integer",
    dtype=np.int64,
    contains=lambda v: isinstance(v, int) and not isinstance(v, bool)
    and -(2**63) <= v < 2**63,
    sample=lambda rng: rng.randrange(-1000, 1000),
    parse_text=int,
    render=_render_int,
    mm_field="integer",
)

BOOL = Domain(
    name="bool",
    dtype=np.uint8,
    contains=lambda v: v in (0, 1, False, True),
    sample=lambda rng: rng.randrange(2),
    parse_text=lambda s: int(bool(int(s))),
    render=_render_int,
    mm_field="integer",
)


@functools.cache
def set_domain(universe_size: int) -> Domain:
    """Power-set domain over a universe of at most 64 integers.

    A set is stored as a 64-bit mask: bit i set means element i present.
    """
    if not 1 <= universe_size <= 64:
        raise DomainError("set universe size must be between 1 and 64")
    full = (1 << universe_size) - 1
    return Domain(
        name=f"set{universe_size}",
        dtype=np.uint64,
        contains=lambda v: isinstance(v, int) and not isinstance(v, bool)
        and 0 <= v <= full,
        sample=lambda rng: rng.getrandbits(universe_size),
        parse_text=int,
        render=_render_int,
        mm_field="integer",
        universe_size=universe_size,
    )


def set_from_elements(elements) -> int:
    """Encode an iterable of small integers as a set mask."""
    mask = 0
    for e in elements:
        if not 0 <= e < 64:
            raise DomainError(f"set element {e} outside 64-element universe")
        mask |= 1 << e
    return mask


def set_to_elements(mask: int) -> frozenset:
    return frozenset(i for i in range(64) if mask >> i & 1)


@dataclass(frozen=True)
class BinaryOp:
    """A named binary scalar operator.

    `fn` is the scalar form; `ufunc` the vectorized form used by the
    kernels. User-defined ops without a native ufunc get a frompyfunc
    wrapper (object dtype, slower, same semantics).
    """

    name: str
    fn: Callable[[Any, Any], Any]
    ufunc: Any = None

    def __post_init__(self):
        if self.ufunc is None:
            object.__setattr__(self, "ufunc", np.frompyfunc(self.fn, 2, 1))

    def __call__(self, a, b):
        return self.fn(a, b)


def _nat_add(a, b):
    c = a + b
    if c > U64_MAX:
        raise DomainError(f"natural addition overflow: {a} + {b}")
    return c


def _nat_mul(a, b):
    c = a * b
    if c > U64_MAX:
        raise DomainError(f"natural multiplication overflow: {a} * {b}")
    return c


OP_PLUS = BinaryOp("plus", operator.add, np.add)
OP_TIMES = BinaryOp("times", operator.mul, np.multiply)
OP_NAT_PLUS = BinaryOp("plus", _nat_add, np.add)
OP_NAT_TIMES = BinaryOp("times", _nat_mul, np.multiply)
OP_MAX = BinaryOp("max", max, np.maximum)
OP_MIN = BinaryOp("min", min, np.minimum)
OP_XOR = BinaryOp("xor", operator.xor, np.bitwise_xor)
OP_AND = BinaryOp("and", operator.and_, np.bitwise_and)
OP_OR = BinaryOp("or", operator.or_, np.bitwise_or)
OP_UNION = BinaryOp("union", operator.or_, np.bitwise_or)
OP_INTERSECT = BinaryOp("intersect", operator.and_, np.bitwise_and)


@dataclass(frozen=True)
class Semiring:
    """An (add, mul, zero) triple over a scalar domain.

    `zero` is the 0-element: additive identity, multiplicative
    annihilator, and the value a sparse matrix never stores. `one` is
    the multiplicative identity, used for selection matrices and
    default edge weights.
    """

    name: str
    domain: Domain
    add: BinaryOp
    mul: BinaryOp
    zero: Any
    one: Any

    def sample_scalar(self, rng):
        # occasionally emit the 0-element so identity/annihilator paths
        # get exercised by the law suite
        if rng.random() < 0.1:
            return self.zero
        return self.domain.sample(rng)


def semiring_by_name(
    name: str,
    universe_size: int | None = None,
    variant: str | None = None,
) -> Semiring:
    """Look up one of the nine named semirings.

    `universe_size` is required for union-intersect. `variant` selects
    the sign convention for max-min / min-max: "nonneg" (default) or
    "nonpos".
    """
    if name == "arith-real":
        return Semiring(name, REAL, OP_PLUS, OP_TIMES, 0.0, 1.0)
    if name == "arith-natural":
        return Semiring(name, NATURAL, OP_NAT_PLUS, OP_NAT_TIMES, 0, 1)
    if name == "max-plus":
        return Semiring(name, REAL, OP_MAX, OP_PLUS, -math.inf, 0.0)
    if name == "min-plus":
        return Semiring(name, REAL, OP_MIN, OP_PLUS, math.inf, 0.0)
    if name == "max-min":
        if variant in (None, "nonneg"):
            return Semiring(name, REAL_NONNEG, OP_MAX, OP_MIN, 0.0, math.inf)
        if variant == "nonpos":
            return Semiring(name, REAL_NONPOS, OP_MAX, OP_MIN, -math.inf, 0.0)
        raise DomainError(f"unknown max-min variant {variant!r}")
    if name == "min-max":
        if variant in (None, "nonneg"):
            return Semiring(name, REAL_NONNEG, OP_MIN, OP_MAX, math.inf, 0.0)
        if variant == "nonpos":
            return Semiring(name, REAL_NONPOS, OP_MIN, OP_MAX, 0.0, -math.inf)
        raise DomainError(f"unknown min-max variant {variant!r}")
    if name == "xor-and":
        return Semiring(name, BOOL, OP_XOR, OP_AND, 0, 1)
    if name == "or-and":
        # boolean structure semiring: reachability without xor's
        # even-multiplicity cancellation
        return Semiring(name, BOOL, OP_OR, OP_AND, 0, 1)
    if name == "union-intersect":
        if universe_size is None:
            raise DomainError("union-intersect requires a universe size")
        dom = set_domain(universe_size)
        return Semiring(name, dom, OP_UNION, OP_INTERSECT,
                        0, (1 << universe_size) - 1)
    raise DomainError(f"unknown semiring {name!r}")


def scalar_add(sr: Semiring, a, b):
    """a ⊕ b under sr, with domain membership checked on entry."""
    sr.domain.validate(a)
    sr.domain.validate(b)
    return sr.add(a, b)


def scalar_mul(sr: Semiring, a, b):
    """a ⊗ b under sr, with domain membership checked on entry."""
    sr.domain.validate(a)
    sr.domain.validate(b)
    return sr.mul(a, b)


class LawViolation(DomainError):
    """A declared algebraic law failed on a sampled input."""


def _close(domain, x, y, rel_tol):
    if domain.dtype is np.float64 and rel_tol:
        return math.isclose(x, y, rel_tol=rel_tol, abs_tol=1e-300) or x == y
    return x == y


def verify_semiring_laws(sr: Semiring, rng, samples=10_000, rel_tol=None):
    """Property-check the semiring laws on random scalar triples.

    Checks add commutativity/associativity, distributivity of mul over
    add, additive identity, and multiplicative annihilator. Raises
    LawViolation with the offending triple on the first failure.

    `rel_tol` relaxes equality for floating-point reassociation (used
    for arith-real, whose + and * are not exactly associative); max/min
    based semirings are checked exactly.
    """
    for _ in range(samples):
        a = sr.sample_scalar(rng)
        b = sr.sample_scalar(rng)
        c = sr.sample_scalar(rng)
        if sr.add(a, b) != sr.add(b, a):
            raise LawViolation(f"{sr.name}: add not commutative on {(a, b)}")
        if not _close(sr.domain, sr.add(sr.add(a, b), c),
                      sr.add(a, sr.add(b, c)), rel_tol):
            raise LawViolation(
                f"{sr.name}: add not associative on {(a, b, c)}")
        if not _close(sr.domain, sr.mul(a, sr.add(b, c)),
                      sr.add(sr.mul(a, b), sr.mul(a, c)), rel_tol):
            raise LawViolation(
                f"{sr.name}: mul does not distribute on {(a, b, c)}")
        if sr.add(a, sr.zero) != a:
            raise LawViolation(f"{sr.name}: zero not additive identity on {a}")
        if sr.mul(a, sr.zero) != sr.zero:
            raise LawViolation(f"{sr.name}: zero not annihilator on {a}")


def make_semiring(
    name: str,
    domain: Domain,
    add: BinaryOp,
    mul: BinaryOp,
    zero,
    one,
    check_laws: bool = False,
    rng=None,
    law_samples: int = 1000,
) -> Semiring:
    """Construct a user-defined semiring from arbitrary BinaryOps.

    With check_laws=True (intended for debug/test builds), the declared
    laws are property-tested on registration and LawViolation is raised
    if any sampled triple falsifies them.
    """
    sr = Semiring(name, domain, add, mul, zero, one)
    if check_laws:
        import random

        verify_semiring_laws(sr, rng or random.Random(0), law_samples)
    return sr
