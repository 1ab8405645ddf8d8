"""Exact signed-square-root-of-rational arithmetic.

Angular momentum coupling coefficients are signed square roots of
rationals.  Selection-rule machinery needs exact zero/nonzero decisions,
which float thresholds cannot provide, so coefficients are computed and
combined in exact form and converted to float only at the boundary.

One value type, :class:`SqrtRational` (``sign * sqrt(p/q)``), covers
every exact coefficient.  Products stay in the type; a sum is exact when
its terms share one surd, i.e. their radicands differ by rational
squares, which holds for the CG and 9j sums this library evaluates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

__all__ = ["SqrtRational", "SQRT_ZERO", "SQRT_ONE"]


@dataclass(frozen=True)
class SqrtRational:
    """Exact value ``sign * sqrt(p/q)``.

    ``sign`` is -1, 0 or +1 and ``radicand`` is a non-negative rational in
    lowest terms (``Fraction`` keeps it canonical).  The zero value is
    ``SqrtRational(0, Fraction(0))``.
    """

    sign: int
    radicand: Fraction

    def __post_init__(self):
        if self.sign not in (-1, 0, 1):
            raise ValueError(f"sign must be -1, 0 or +1, got {self.sign}")
        if self.radicand < 0:
            raise ValueError("radicand must be non-negative")
        if (self.sign == 0) != (self.radicand == 0):
            raise ValueError("zero sign requires zero radicand and vice versa")

    @classmethod
    def from_rational(cls, coeff: Fraction, radicand: Fraction) -> "SqrtRational":
        """``coeff * sqrt(radicand)`` for a rational ``coeff``."""
        if coeff == 0 or radicand == 0:
            return SQRT_ZERO
        return cls(1 if coeff > 0 else -1, coeff * coeff * radicand)

    @property
    def p(self) -> int:
        return self.radicand.numerator

    @property
    def q(self) -> int:
        return self.radicand.denominator

    def is_zero(self) -> bool:
        return self.sign == 0

    def __float__(self) -> float:
        return self.sign * math.sqrt(self.radicand)

    def __add__(self, other: "SqrtRational") -> "SqrtRational":
        """Exact sum of two surds whose radicands differ by a rational square.

        sign_a sqrt(a) + sign_b sqrt(b) = (sign_a + sign_b k) sqrt(a) with
        k = sqrt(b / a); any other pair raises ``ValueError``.
        """
        if not isinstance(other, SqrtRational):
            return NotImplemented
        if other.sign == 0:
            return self
        if self.sign == 0:
            return other
        ratio = other.radicand / self.radicand
        num, den = math.isqrt(ratio.numerator), math.isqrt(ratio.denominator)
        if num * num != ratio.numerator or den * den != ratio.denominator:
            raise ValueError(f"{self} + {other} is not a single surd")
        return SqrtRational.from_rational(self.sign + other.sign * Fraction(num, den),
                                          self.radicand)

    def __mul__(self, other: "SqrtRational") -> "SqrtRational":
        if not isinstance(other, SqrtRational):
            return NotImplemented
        sign = self.sign * other.sign
        if sign == 0:
            return SQRT_ZERO
        return SqrtRational(sign, self.radicand * other.radicand)

    def __neg__(self) -> "SqrtRational":
        if self.sign == 0:
            return self
        return SqrtRational(-self.sign, self.radicand)

    def __str__(self) -> str:
        if self.sign == 0:
            return "0"
        return f"{'-' if self.sign < 0 else '+'}sqrt({self.p}/{self.q})"


SQRT_ZERO = SqrtRational(0, Fraction(0))
SQRT_ONE = SqrtRational(1, Fraction(1))
