"""Selection rules, interactability, and every coupling coefficient of the products.

A full coupling path carries nine labels (j1, l1, s1; j2, l2, s2;
j3, l3, s3).  The scalar multiplying C^{j3,m3}_{j1,m1,j2,m2} Y^{l3,s3}_{j3,m3}
in the product expansion of two tensor harmonics is

    sqrt((2j1+1)(2j2+1)(2l1+1)(2l2+1)(2s3+1) / 4 pi)
        * {j1 l1 s1; j2 l2 s2; j3 l3 s3}_9j * C^{l3,0}_{l1,0,l2,0}

For the vector-signal product (all spins 1) this coefficient is nonzero
iff five selection rules hold; the rule flags here are evaluated by direct
pattern matching and cross-checked against the exact-arithmetic
coefficient, never against a float threshold.  The exact coefficient
(``exact.generalized_gaunt_exact``, ``exact.generalized_gaunt``) serves
the oracles only: the products take the one float form of the spin-1
coefficient, ``vstp_rules``' (cached as ``_path_coefficient``), built
from the spin-1 9j closed form and the float core of C^{l3,0}, so they
evaluate no exact symbol.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

from .angular import (_as_integers, _cg_zero_float_core, _checked_cache, _require_cg_zero_range,
                      _wigner_9j_spin1_core, require_natural, triangle_delta)
from .sht import _trusted

__all__ = [
    "PathKey",
    "RuleReport",
    "TriangleViolation",
    "NotInteractable",
    "vstp_rule_flags",
    "vstp_rules",
    "find_valid_ells",
    "find_pair_ells",
    "interactable",
    "expressivity_count",
]


def __getattr__(name):
    # the exact coefficients perfbench reads here until it imports them from ``exact``
    if name in ("generalized_gaunt", "generalized_gaunt_exact"):
        from . import exact
        return getattr(exact, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class TriangleViolation(ValueError):
    """Raised when (j1, j2, j3) fails the triangle condition."""


class NotInteractable(ValueError):
    """Raised for the one non-interactable triple (0, 0, 0)."""


class PathKey(NamedTuple):
    """Full coupling label: degree j, orbital degree l and spin s of each factor."""

    j1: int
    l1: int
    s1: int
    j2: int
    l2: int
    s2: int
    j3: int
    l3: int
    s3: int


@dataclass(frozen=True)
class RuleReport:
    """Per-rule verdicts for a vector-signal path plus its coefficient."""

    passed: bool
    r1: bool
    r2: bool
    r3: bool
    r4: bool
    r5: bool
    coefficient: float


def _dims(j1: int, l1: int, j2: int, l2: int, s3: int) -> int:
    """(2j1+1)(2j2+1)(2l1+1)(2l2+1)(2s3+1), the radicand of the generalized Gaunt prefactor."""
    return (2 * j1 + 1) * (2 * j2 + 1) * (2 * l1 + 1) * (2 * l2 + 1) * (2 * s3 + 1)


@lru_cache(maxsize=4096)
def _path_coefficient(j1: int, l1: int, j2: int, l2: int, j3: int, l3: int) -> float:
    """Generalized Gaunt coefficient of the all-spins-one path, in float: ``vstp_rules``' ``coefficient``.

    The products' cache of it; ``vstp_rules`` itself keeps no cache
    entry.  Within 1e-15 relative of ``exact.generalized_gaunt``, and
    exactly 0.0 where that is zero, a path whose rows are not all
    triangles included.  An orbital degree past ``angular.CG_ZERO_MAX``
    on a path whose rows are triangles raises ``ValueError``.
    """
    return vstp_rules(PathKey(j1, l1, 1, j2, l2, 1, j3, l3, 1)).coefficient


def _rule5_violated(js, ls) -> bool:
    """An odd grid symmetry forces the 9j to vanish.

    Swapping two rows fixes the grid when those (j, l) pairs coincide and
    flips the sign when the remaining pair is diagonal; swapping the j and
    l columns fixes the grid when every pair is diagonal and always flips
    the sign (the unit spins make the entry sum odd).  The second clause
    covers paths like (1,1),(2,2),(3,3) that the pairwise pattern alone
    misses.
    """
    for a, b, c in ((0, 1, 2), (1, 0, 2), (2, 0, 1)):
        if js[a] == ls[a] and js[b] == js[c] and ls[b] == ls[c]:
            return True
    return js == ls


def vstp_rule_flags(js, ls) -> tuple[bool, bool, bool, bool, bool]:
    """Rules r1..r5 of the all-spins-one path (js, ls), the one definition ``vstp_rules`` unpacks.

    r1: every row (j, l, 1) is a triangle, |j - l| <= 1 <= j + l; r2:
    (j1, j2, j3) is one, |j1 - j2| <= j3 <= j1 + j2; r3: (l1, l2, l3) is
    one, likewise; r4: l1 + l2 + l3 is even; r5: no odd grid symmetry
    forces the 9j to zero.  A negative label raises ``ValueError``.
    """
    j1, j2, j3 = js
    l1, l2, l3 = ls
    if min(j1, j2, j3, l1, l2, l3) < 0:
        raise ValueError(f"degrees must be non-negative, got js={tuple(js)}, ls={tuple(ls)}")
    return (abs(j1 - l1) <= 1 <= j1 + l1 and abs(j2 - l2) <= 1 <= j2 + l2 and abs(j3 - l3) <= 1 <= j3 + l3,
            abs(j1 - j2) <= j3 <= j1 + j2, abs(l1 - l2) <= l3 <= l1 + l2, sum(ls) % 2 == 0,
            not _rule5_violated(js, ls))


def vstp_rules(path: PathKey) -> RuleReport:
    """Evaluate the five vector-signal selection rules for a path.

    Spins must all be 1; any other spin raises ``ValueError``, as does a
    label that is not an integer (named) or is negative.  The flags are
    ``vstp_rule_flags``, and ``passed`` iff all hold, which coincides with
    the coefficient being nonzero in exact arithmetic.  ``coefficient`` is
    sqrt(dims / 4 pi) * {j1 l1 1; j2 l2 1; j3 l3 1} * C^{l3,0}_{l1,0,l2,0},
    multiplied in that order so that a zero keeps its sign, when every row
    is a triangle (r1), and 0.0 otherwise, where the 9j vanishes by definition:
    within 1e-15 relative of ``exact.generalized_gaunt`` and 0.0 exactly where
    that is zero, with no exact symbol evaluated.  r1-r3 are the five triangles of the 9j, so
    its closed form runs unchecked when they hold and is 0.0 otherwise;
    r3 is C^{l3,0}'s triangle, so its float core runs unchecked when r3
    holds and is 0.0 otherwise.  Orbital degrees past ``angular.CG_ZERO_MAX``
    on a path passing r1 raise ``ValueError``.
    """
    p = path if type(path) is PathKey else PathKey(*path)
    if (p.s1, p.s2, p.s3) != (1, 1, 1):
        raise ValueError(f"vstp_rules applies to spin-(1,1,1) paths, got {p}")
    j1, l1, _, j2, l2, _, j3, l3, _ = _as_integers(p, PathKey._fields)
    r1, r2, r3, r4, r5 = vstp_rule_flags((j1, j2, j3), (l1, l2, l3))
    if r1:
        _require_cg_zero_range(l1, l2, l3)
        nine = _wigner_9j_spin1_core(l1, j1 - l1, l2, j2 - l2, l3, j3 - l3) if r2 and r3 else 0.0
        # on a path failing only r2 the zero still carries C^{l3,0}'s sign
        coefficient = (math.sqrt(_dims(j1, l1, j2, l2, 1) / (4.0 * math.pi)) * nine
                       * (_cg_zero_float_core(l1, l2, l3) if r3 else 0.0))
    else:
        coefficient = 0.0
    return _trusted(RuleReport, passed=r1 and r2 and r3 and r4 and r5, r1=r1, r2=r2, r3=r3, r4=r4,
                    r5=r5, coefficient=coefficient)


@_checked_cache(lambda *js: tuple(map(require_natural, js, ("j1", "j2", "j3"))), maxsize=1024)
def find_valid_ells(j1: int, j2: int, j3: int) -> tuple[int, int, int]:
    """A deterministic (l1, l2, l3) passing all vector-signal rules.

    Sorts the degrees ascending (stable), applies the constructive
    casework on the sorted triple, and maps the orbital labels back to the
    original positions.  Raises ``ValueError`` naming a degree that is not
    a non-negative integer, cached or not, NotInteractable for (0, 0, 0)
    and TriangleViolation when the degrees fail the triangle condition.
    Answers are cached; errors are not.
    """
    js = (j1, j2, j3)
    if not triangle_delta(*js):
        raise TriangleViolation(f"{js} violates the triangle condition")
    if js == (0, 0, 0):
        raise NotInteractable("scalar x scalar -> scalar is plain multiplication")
    order = sorted(range(3), key=lambda i: (js[i], i))
    a, b, c = (js[i] for i in order)
    even = (a + b + c) % 2 == 0
    if a < b < c:
        # the fully diagonal (a, b, c) assignment vanishes by column-swap
        # antisymmetry, so the even case offsets the top two degrees
        ells = (a, b + 1, c - 1) if even else (a, b, c - 1)
    elif a == b < c:
        ells = (a, b + 1, c - 1) if even else (a, b + 1, c)
    elif a < b == c:
        ells = (a + 1, b, c - 1) if even else (a + 1, b, c)
    else:  # a == b == c = j > 0
        ells = (a - 1, a, a + 1) if even else (a - 1, a, a)
    out = [0, 0, 0]
    for pos, l in zip(order, ells):
        out[pos] = l
    return tuple(out)


def find_pair_ells(j1: int, j2: int) -> tuple[int, int]:
    """Orbital labels (l1, l2) of the one vector-signal product coupling j1, j2 into every j3.

    (j1 - 1, j2) when both degrees are positive, else (1, j2 - 1) or (j1 - 1, 1):
    the least l1 + l2 giving each j3 an l3 <= l1 + l2 that passes all five rules.
    """
    for name, j in (("j1", j1), ("j2", j2)):
        require_natural(j, name)
    if j1 == j2 == 0:
        raise NotInteractable("scalar x scalar is plain multiplication")
    return (1, j2 - 1) if j1 == 0 else (j1 - 1, max(j2, 1))


def interactable(j1: int, j2: int, j3: int) -> bool:
    """Whether a vector-signal product of some degree can couple (j1, j2, j3).

    True iff the triangle condition holds and the degrees are not all
    zero; agrees with brute-force search over orbital labels.
    """
    js = (j1, j2, j3)
    for name, j in zip(("j1", "j2", "j3"), js):
        require_natural(j, name)
    return bool(triangle_delta(*js)) and js != (0, 0, 0)


def expressivity_count(s: int, L: int) -> int:
    """Number of (j, l) keys with {j, l, s} = 1 and l <= L.

    Bounds how many distinct degree-j inputs a spin-s signal of band
    limit L can carry; grows as (2s+1)(L+1) for L >> s.
    """
    require_natural(s, "spin s")
    require_natural(L, "band limit L")
    return sum(2 * min(l, s) + 1 for l in range(L + 1))
