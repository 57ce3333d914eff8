"""Numerical Grothendieck-group classes on a Del Pezzo surface.

A class is the triple (rank, c1, 2*ch2) of Chern characters; the doubled
second character keeps every computation in plain integers.  Classes of
genuine sheaves satisfy the parity 2*ch2 == c1.K (mod 2), which makes the
Euler pairing below integral.  Block validation rejects a class breaking
that parity as bad input; :func:`chi` keeps its own parity check as an
internal invariant, whose failure means a bug rather than bad input.

The lattice form and the degree functional come from the surface
(:meth:`Surface.dot`, :meth:`Surface.degree`), so :func:`degree`,
:func:`chi`, :func:`twist` and ``is_exceptional`` are integer dot products
on coordinate tuples.  A KClass's c1 lives on its surface by construction,
so each function that takes two arguments checks their surfaces once and
raises LatticeMismatchError when they differ.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import inf

from .picard import DivisorClass, LatticeMismatchError, Surface, canonical_class, intersect, same_surface

HOM = "hom"
EXT = "ext"
ZERO = "zero"


class InvariantViolationError(RuntimeError):
    """An arithmetic identity that must hold internally failed to hold."""


@dataclass(frozen=True)
class KClass:
    """A numerical class (rank, c1, 2*ch2); supports formal Z-linear algebra."""

    surface: Surface
    rank: int
    c1: DivisorClass
    ch2x2: int

    def __post_init__(self) -> None:
        if self.c1.surface is not self.surface and self.c1.surface != self.surface:
            raise LatticeMismatchError("c1 lives on a different surface")

    def __add__(self, other: "KClass") -> "KClass":
        if not isinstance(other, KClass):
            return NotImplemented
        return KClass(
            self.surface, self.rank + other.rank, self.c1 + other.c1, self.ch2x2 + other.ch2x2
        )

    def __sub__(self, other: "KClass") -> "KClass":
        if not isinstance(other, KClass):
            return NotImplemented
        return KClass(
            self.surface, self.rank - other.rank, self.c1 - other.c1, self.ch2x2 - other.ch2x2
        )

    def __neg__(self) -> "KClass":
        return KClass(self.surface, -self.rank, -self.c1, -self.ch2x2)

    def __mul__(self, scalar: int) -> "KClass":
        if not isinstance(scalar, int):
            return NotImplemented
        return KClass(self.surface, scalar * self.rank, scalar * self.c1, scalar * self.ch2x2)

    __rmul__ = __mul__

    @property
    def is_exceptional(self) -> bool:
        """Whether rank*ch2x2 == 1 + c1^2 - rank^2 (rank 0: c1^2 == -1)."""
        x = self.c1.coords
        c1sq = self.surface.dot(x, x)
        if self.rank == 0:
            return c1sq == -1
        return self.rank * self.ch2x2 == 1 + c1sq - self.rank * self.rank


def degree(e: KClass) -> int:
    """Degree against the anticanonical polarization, d = c1.(-K)."""
    return e.surface.degree(e.c1.coords)


def slope(e: KClass):
    """d/rank as an exact Fraction; +infinity for rank zero."""
    if e.rank == 0:
        return inf
    return Fraction(degree(e), e.rank)


def chi(e: KClass, f: KClass) -> int:
    """Euler pairing chi(E, F), by Riemann-Roch on the numerical invariants."""
    s = same_surface(e, f)
    x, y = e.c1.coords, f.c1.coords
    r, q = e.rank, f.rank
    twice = (
        2 * r * q
        + (r * s.degree(y) - q * s.degree(x))
        + (r * f.ch2x2 + q * e.ch2x2)
        - 2 * s.dot(x, y)
    )
    if twice % 2:
        raise InvariantViolationError(
            f"Euler pairing is not integral on {e} x {f}; "
            "a class violates the sheaf parity 2*ch2 == c1.K (mod 2)"
        )
    return twice // 2


def chi_minus(e: KClass, f: KClass) -> int:
    """The antisymmetrized pairing chi(E,F) - chi(F,E) = r(E)d(F) - r(F)d(E)."""
    s = same_surface(e, f)
    return e.rank * s.degree(f.c1.coords) - f.rank * s.degree(e.c1.coords)


def twist(e: KClass, d: DivisorClass) -> KClass:
    """The class of E tensored with the line bundle O(d)."""
    s = same_surface(e, d)
    x, y, r = e.c1.coords, d.coords, e.rank
    c1 = DivisorClass(s, tuple([a + r * b for a, b in zip(x, y)]))
    return KClass(s, r, c1, e.ch2x2 + 2 * s.dot(x, y) + r * s.dot(y, y))


def line_bundle(d: DivisorClass) -> KClass:
    return KClass(d.surface, 1, d, intersect(d, d))


def torsion_class(surface: Surface, curve: DivisorClass, m: int) -> KClass:
    """Class of O_C(m) for a minus-one curve C; rank 0, c1 = C, 2*ch2 = 2m + 1.

    Normalized so that chi(O, O_C(m)) == m + 1.
    """
    k = canonical_class(surface)
    if intersect(curve, k) != -1 or intersect(curve, curve) != -1:
        raise ValueError("not a minus-one curve class")
    return KClass(surface, 0, curve, 2 * m + 1)


def exceptional_ch2(surface: Surface, rank: int, c1: DivisorClass) -> int:
    """The unique 2*ch2 making (rank, c1) exceptional, when it exists."""
    if c1.surface != surface:
        raise LatticeMismatchError("c1 lives on a different surface")
    if rank == 0:
        raise ValueError("no exceptional class with these (r, c1): rank must be nonzero")
    num = 1 + intersect(c1, c1) - rank * rank
    if num % rank:
        raise ValueError("no exceptional class with these (r, c1)")
    return num // rank


def exceptional_class(surface: Surface, rank: int, c1: DivisorClass) -> KClass:
    """Convenience constructor pairing (rank, c1) with its forced 2*ch2."""
    return KClass(surface, rank, c1, exceptional_ch2(surface, rank, c1))


def classify_pair(e: KClass, f: KClass) -> str:
    """Sort an exceptional pair by slope: 'hom' (<), 'ext' (>) or 'zero' (=)."""
    se, sf = slope(e), slope(f)
    if se < sf:
        return HOM
    if se > sf:
        return EXT
    return ZERO
