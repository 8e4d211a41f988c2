"""Exact scalar arithmetic for the supported coefficient rings.

Five rings are supported: prime fields F_p (p an odd prime), the rationals Q,
the localization Z_(p) of the integers at an odd prime, truncated p-adic
integers Z_p carried exactly modulo p^N, and the plain integers Z (admitted
only for the signed-permutation checks).  Every value is immutable and every
operation is exact; there is no floating point anywhere in this module.

Valuations are discrete (value group Z).  2 is a unit in every ring except Z.

Sums of squares are not searched here: a is a sum of k squares exactly when
the Euclidean form k<1> represents it, which `repsolve.represents` decides
(a square root of a over F_p is `represents(euclidean(F_p, 1), a)`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

FINITE_FIELD = "finite-field"
RATIONALS = "rationals"
LOCALIZED = "localized-at-p"
PADIC = "padic-truncated"
INTEGERS = "integers"

INFINITY = math.inf


class RingError(ValueError):
    """Operation applied to a scalar whose ring does not support it."""


class BudgetError(RuntimeError):
    """A construction would exceed its size budget; counts are reported
    instead of silently truncating."""


def is_odd_prime(p: int) -> bool:
    if not isinstance(p, int) or p < 3 or p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class RingDescriptor:
    """Tag describing one of the supported coefficient rings."""

    kind: str
    p: Optional[int] = None
    precision: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind in (FINITE_FIELD, LOCALIZED, PADIC):
            if not is_odd_prime(self.p):
                raise RingError(f"{self.kind} requires an odd prime, got {self.p}")
        elif self.kind in (RATIONALS, INTEGERS):
            if self.p is not None:
                raise RingError(f"{self.kind} carries no prime")
        else:
            raise RingError(f"unknown ring kind {self.kind!r}")
        if self.kind == PADIC:
            if not isinstance(self.precision, int) or self.precision < 1:
                raise RingError("p-adic precision must be >= 1")
        elif self.precision is not None:
            raise RingError(f"{self.kind} carries no precision")
        # What stored residues are reduced by; None where values are unreduced.
        object.__setattr__(self, "modulus", self.p ** (self.precision or 1)
                           if self.kind in (FINITE_FIELD, PADIC) else None)
        # The residue field F_p of every ring with a prime, built once (F_p is
        # its own, under the trivial valuation); like `modulus`, not a
        # dataclass field, so equality and hashing see only kind, p and
        # precision.
        object.__setattr__(self, "_residue", self if self.kind == FINITE_FIELD else
                           RingDescriptor(FINITE_FIELD, self.p) if self.p else None)

    @property
    def henselian(self) -> bool:
        # Z_p, and the fields under the trivial valuation.
        return self.kind in (FINITE_FIELD, RATIONALS, PADIC)

    @property
    def formally_real(self) -> bool:
        # Field-level flag: Q itself, and the quotient field of Z_(p).
        return self.kind in (RATIONALS, LOCALIZED)

    @property
    def is_field(self) -> bool:
        return self.kind in (FINITE_FIELD, RATIONALS)

    @property
    def is_local(self) -> bool:
        """Local ring in which diagonalization applies (fields included)."""
        return self.kind in (FINITE_FIELD, RATIONALS, LOCALIZED, PADIC)

    @property
    def two_is_unit(self) -> bool:
        return self.kind != INTEGERS

    def residue_ring(self) -> "RingDescriptor":
        if self._residue is None:
            raise RingError(f"{self.kind} has no residue field here")
        return self._residue

    def label(self) -> str:
        return {
            FINITE_FIELD: f"F{self.p}",
            RATIONALS: "Q",
            LOCALIZED: f"Z_({self.p})",
            PADIC: f"Z{self.p}^{self.precision}",
            INTEGERS: "Z",
        }[self.kind]

    def scalar(self, value) -> "Scalar":
        return Scalar(self, value)

    @property
    def zero(self) -> "Scalar":
        return Scalar(self, 0)

    @property
    def one(self) -> "Scalar":
        return Scalar(self, 1)


def finite_field(p: int) -> RingDescriptor:
    return RingDescriptor(FINITE_FIELD, p)


def rationals() -> RingDescriptor:
    return RingDescriptor(RATIONALS)


def localized_at(p: int) -> RingDescriptor:
    return RingDescriptor(LOCALIZED, p)


def padic(p: int, precision: int) -> RingDescriptor:
    return RingDescriptor(PADIC, p, precision)


def integers() -> RingDescriptor:
    return RingDescriptor(INTEGERS)


def _int_valuation(n: int, p: int) -> Union[int, float]:
    if n == 0:
        return INFINITY
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _fraction_valuation(x: Union[int, Fraction], p: int) -> Union[int, float]:
    if x == 0:
        return INFINITY
    return _int_valuation(x.numerator, p) - _int_valuation(x.denominator, p)


Raw = Union[int, Fraction, "Scalar"]


class Scalar:
    """One exact element of a supported ring, normalized on construction.

    Representations: residue in [0, p^N) for truncated p-adics and for F_p,
    the case N = 1 (both rings carry this p^N as `modulus`); reduced Fraction
    for Q and Z_(p) (the latter with nonnegative p-valuation);
    arbitrary-precision int for Z.
    """

    __slots__ = ("ring", "value")

    def __init__(self, ring: RingDescriptor, value: Raw) -> None:
        if isinstance(value, Scalar):
            if value.ring is not ring and value.ring != ring:
                raise RingError(f"cannot reinterpret {value.ring.label()} scalar as {ring.label()}")
            value = value.value
        m = ring.modulus
        if m is not None:  # F_p = Z/p and truncated Z_p = Z/p^N
            if isinstance(value, Fraction):
                if value.denominator % ring.p == 0:
                    raise RingError(f"denominator of {value} is not invertible mod {m}")
                value = value.numerator * pow(value.denominator, -1, m)
            value = int(value) % m
        elif ring.kind == RATIONALS:
            value = Fraction(value)
        elif ring.kind == LOCALIZED:
            value = Fraction(value)
            if value.denominator % ring.p == 0:
                raise RingError(f"{value} has negative {ring.p}-adic valuation")
        else:  # INTEGERS
            if isinstance(value, Fraction):
                if value.denominator != 1:
                    raise RingError(f"{value} is not an integer")
                value = value.numerator
            value = int(value)
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "value", value)

    def __setattr__(self, *args) -> None:
        raise AttributeError("Scalar is immutable")

    def _coerce(self, other: Raw) -> "Scalar":
        if isinstance(other, Scalar):
            if other.ring is not self.ring and other.ring != self.ring:
                raise RingError(
                    f"ring mismatch: {self.ring.label()} vs {other.ring.label()}"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return Scalar(self.ring, other)
        raise TypeError(f"cannot coerce {other!r} into {self.ring.label()}")

    def _closed(self, value: Union[int, Fraction]) -> "Scalar":
        """Scalar of this ring from a sum, difference or product of its
        values, which every ring is closed under: only residues need reducing."""
        m = self.ring.modulus
        return _wrap(self.ring, value if m is None else value % m)

    def __add__(self, other: Raw) -> "Scalar":
        return self._closed(self.value + self._coerce(other).value)

    __radd__ = __add__

    def __sub__(self, other: Raw) -> "Scalar":
        return self._closed(self.value - self._coerce(other).value)

    def __rsub__(self, other: Raw) -> "Scalar":
        return self._coerce(other) - self

    def __mul__(self, other: Raw) -> "Scalar":
        return self._closed(self.value * self._coerce(other).value)

    __rmul__ = __mul__

    def __neg__(self) -> "Scalar":
        return self._closed(-self.value)

    def __truediv__(self, other: Raw) -> "Scalar":
        other = self._coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero scalar")
        m = self.ring.modulus
        if m is not None:
            try:
                return self._closed(self.value * pow(other.value, -1, m))
            except ValueError:  # pow finds no inverse
                raise RingError(f"{other.value} is not a unit mod {m}") from None
        kind = self.ring.kind
        if kind == RATIONALS:
            return Scalar(self.ring, Fraction(self.value, 1) / other.value)
        if kind == LOCALIZED:
            q = Fraction(self.value, 1) / other.value
            if q.denominator % self.ring.p == 0:
                raise RingError(f"{other.value} does not divide {self.value} in {self.ring.label()}")
            return Scalar(self.ring, q)
        # INTEGERS: exact division only
        q, r = divmod(self.value, other.value)
        if r != 0:
            raise RingError(f"{other.value} does not divide {self.value} in Z")
        return Scalar(self.ring, q)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            try:
                other = Scalar(self.ring, other)
            except RingError:
                return False
        if not isinstance(other, Scalar):
            return NotImplemented
        return (self.ring is other.ring or self.ring == other.ring) and self.value == other.value

    def __hash__(self) -> int:
        return hash((self.ring, self.value))

    def __repr__(self) -> str:
        return f"{self.value}@{self.ring.label()}"

    def is_zero(self) -> bool:
        return self.value == 0

    def is_unit(self) -> bool:
        ring = self.ring
        if ring.modulus is not None:  # residues mod p^N: units are those prime to p
            return self.value % ring.p != 0
        kind = ring.kind
        if kind == RATIONALS:
            return self.value != 0
        if kind == LOCALIZED:
            return self.value != 0 and self.value.numerator % ring.p != 0
        return self.value in (1, -1)


_set_ring, _set_value = Scalar.ring.__set__, Scalar.value.__set__


def _wrap(ring: RingDescriptor, value: Union[int, Fraction]) -> Scalar:
    """Scalar holding a value already in the ring's normal form, unchecked."""
    out = object.__new__(Scalar)
    _set_ring(out, ring)
    _set_value(out, value)
    return out


def valuation(x: Scalar, p: Optional[int] = None) -> Union[int, float]:
    """p-adic valuation of a scalar over Q, Z_(p) or truncated Z_p; +infinity
    at zero.

    Over Z_(p) and Z_p the prime is attached to the ring and `p`, if
    supplied, must agree with it; over Z_p it is the valuation of the
    residue mod p^N.  Over Q the prime must be supplied.
    """
    ring = x.ring
    if ring.kind == RATIONALS:
        if p is None:
            raise RingError("valuation over Q needs an explicit prime")
        if not is_odd_prime(p):
            raise RingError(f"{p} is not an odd prime")
        return _fraction_valuation(x.value, p)
    if ring.kind in (LOCALIZED, PADIC):
        if p is not None and p != ring.p:
            raise RingError(f"prime {p} is not attached to {ring.label()}")
        return _fraction_valuation(x.value, ring.p)
    raise RingError(f"valuation undefined over {ring.label()}")


def residue(x: Scalar) -> Scalar:
    """Residue-field image of a scalar over a ring with a prime: its value,
    a residue mod p^N or a Fraction prime to p, read mod p."""
    return Scalar(x.ring.residue_ring(), x.value)


def hensel_root(ring: RingDescriptor, coeffs, r0: int) -> Scalar:
    """Root of a quadratic aX^2 + bX + c over truncated Z_p by Newton lifting.

    `coeffs` is (a, b, c); r0 must be a simple root of the reduction mod p.
    The result r satisfies f(r) = 0 mod p^N and r = r0 mod p, and is the
    unique such root, so the procedure is deterministic.  The Newton steps
    run on residues mod p^N, one inverse of f'(r) per step; only the result
    is built as a Scalar.
    """
    if ring.kind != PADIC:
        raise RingError("hensel_root needs a truncated p-adic ring")
    p, m = ring.p, ring.modulus
    a, b, c = (x % m if isinstance(x, int) else Scalar(ring, x).value for x in coeffs)
    r = r0 % m
    if (a * r * r + b * r + c) % p != 0:
        raise RingError(f"{r0} is not a root mod {p}")
    if (2 * a * r + b) % p == 0:
        raise RingError(f"{r0} is not a simple root mod {p} (derivative vanishes)")
    for _ in range(ring.precision.bit_length() + 2):
        f = (a * r * r + b * r + c) % m
        if f == 0:
            break
        r = (r - f * pow(2 * a * r + b, -1, m)) % m
    if (a * r * r + b * r + c) % m != 0:
        raise RingError("Newton iteration failed to converge")
    if (r - r0) % p != 0:
        raise RingError("lifted root left its residue class")
    return Scalar(ring, r)
