"""Numerical Grothendieck-group classes on a Del Pezzo surface.

A class is the triple (rank, c1, 2*ch2) of Chern characters; the doubled
second character keeps every computation in plain integers.  Classes of
genuine sheaves satisfy the parity 2*ch2 == c1.K (mod 2), which makes the
Euler pairing below integral.  Block validation rejects a class breaking
that parity as bad input; :func:`chi` keeps its own parity check as an
internal invariant, whose failure means a bug rather than bad input.

The lattice form and the degree functional come from the surface
(:meth:`Surface.dot`, :meth:`Surface.degree`, :meth:`Surface.covector`),
so :func:`degree`, :func:`chi`, :func:`twist` and ``is_exceptional`` are
integer dot products on coordinate tuples.  A KClass stores no surface of
its own: it lives on its c1's, so each function that takes two arguments
checks those two surfaces once and raises LatticeMismatchError when they
differ.  This module is the one place that writes out Riemann-Roch:
:func:`chi` for one pair; ``KClass.is_exceptional`` for chi(E, E) == 1,
the one exceptionality test that block validation and ``blockcalc``'s
mutation certificate share; :func:`first_nonzero_chi`, the one
semiorthogonality test, which pairs one class's :func:`euler_row` with the
members of a block in either order and which both of them call; and
:func:`chi_minus` for its antisymmetric part r(E)d(F) - r(F)d(E), through
which ``blockcalc`` reads its closed forms.
:func:`torsion_class` takes the (-1)-class condition from
``picard.is_kind``.

Error messages render their integers through :func:`render_int`, which
never meets CPython's limit on int-to-str conversion, so a failed check on
a class with thousands of digits still reports the failure it found.

:class:`KClass` is a ``typing.NamedTuple``, as ``picard``'s docstring
explains: cheap to import and construct.  Its fields (rank, c1, ch2x2)
fix none of each other, so it has no consistency check to make; its
``surface`` property reads c1's, and the hot paths read ``c1.surface``
directly.  An instance equals the plain tuple of its fields and iterates
over them; nothing in the library relies on either.
:func:`slope` imports ``fractions`` on its first call, so importing this
module does not load it.
"""

from __future__ import annotations

from math import inf
from operator import mul
from typing import NamedTuple, Sequence

from .picard import (
    MINUS_ONE,
    DivisorClass,
    Surface,
    intersect,
    is_kind,
    same_surface,
)

class InvariantViolationError(RuntimeError):
    """An arithmetic identity that must hold internally failed to hold."""


_LONG = 10**40  # render_int writes shorter integers in full
_PREFIX_DIGITS = 20


def render_int(n: int) -> str:
    """n in decimal, or past 40 digits its sign, first 20 digits and length.

    str(n) raises ValueError past 4300 digits (CPython's default limit), so
    messages that may carry huge values use this instead.
    """
    m = abs(n)
    if m < _LONG:
        return str(n)
    # 10**(k-1) <= m < 10**k: the bit length times log10(2) fixes k to within one.
    k = int((m.bit_length() - 1) * 0.30102999566398120) + 1
    while m >= 10**k:
        k += 1
    while m < 10 ** (k - 1):
        k -= 1
    head = m // 10 ** (k - _PREFIX_DIGITS)
    return f"{'-' if n < 0 else ''}{head}...({k} digits)"


def describe(e: KClass) -> str:
    """A class as (rank r, c1 (..), 2ch2 n), for messages; see render_int."""
    c1 = ",".join(map(render_int, e.c1.coords))
    return f"(rank {render_int(e.rank)}, c1 ({c1}), 2ch2 {render_int(e.ch2x2)})"


class KClass(NamedTuple):
    """A numerical class (rank, c1, 2*ch2); supports formal Z-linear algebra.

    Its surface is c1's, read through the ``surface`` property.
    """

    rank: int
    c1: DivisorClass
    ch2x2: int

    @property
    def surface(self) -> Surface:
        return self.c1.surface

    def __add__(self, other: "KClass") -> "KClass":
        if not isinstance(other, KClass):
            return NotImplemented
        return KClass(self.rank + other.rank, self.c1 + other.c1, self.ch2x2 + other.ch2x2)

    def __sub__(self, other: "KClass") -> "KClass":
        if not isinstance(other, KClass):
            return NotImplemented
        return KClass(self.rank - other.rank, self.c1 - other.c1, self.ch2x2 - other.ch2x2)

    def __neg__(self) -> "KClass":
        return KClass(-self.rank, -self.c1, -self.ch2x2)

    def __mul__(self, scalar: int) -> "KClass":
        if not isinstance(scalar, int):
            return NotImplemented
        return KClass(scalar * self.rank, scalar * self.c1, scalar * self.ch2x2)

    __rmul__ = __mul__

    @property
    def is_exceptional(self) -> bool:
        """Whether chi(E, E) == 1, that is r*(r + ch2x2) - c1^2 == 1.

        For rank 0 this reads c1^2 == -1.
        """
        r, x = self.rank, self.c1.coords
        return r * (r + self.ch2x2) - self.c1.surface.dot(x, x) == 1


def degree(e: KClass) -> int:
    """Degree against the anticanonical polarization, d = c1.(-K)."""
    c1 = e.c1
    return c1.surface.degree(c1.coords)


def slope(e: KClass):
    """d/rank as an exact Fraction; +infinity for rank zero."""
    if e.rank == 0:
        return inf
    from fractions import Fraction

    return Fraction(degree(e), e.rank)


def chi(e: KClass, f: KClass) -> int:
    """Euler pairing chi(E, F), by Riemann-Roch on the numerical invariants."""
    s = same_surface(e.c1, f.c1)
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
            f"Euler pairing is not integral on {describe(e)} x {describe(f)}; "
            "a class violates the sheaf parity 2*ch2 == c1.K (mod 2)"
        )
    return twice // 2


def euler_row(e: KClass) -> tuple[int, int, int, tuple[int, ...]]:
    """e as its row (rank, degree, 2*ch2, covector of c1).

    The row holds every integer of e that :func:`first_nonzero_chi` reads,
    and the degree that the sheaf parity needs.
    """
    s, x = e.c1.surface, e.c1.coords
    return e.rank, s.degree(x), e.ch2x2, s.covector(x)


def first_nonzero_chi(row: tuple, members: Sequence[KClass], reverse: bool = False) -> int | None:
    """The index of the first member X with chi(E, X) != 0, or None.

    row is :func:`euler_row` of E, and the members, nonempty, share one rank
    and degree, as those of a block do, and E's surface (unchecked).  With
    reverse the pairing is chi(X, E).  Riemann-Roch as in :func:`chi` with
    the ranks and degrees hoisted: 2*chi(E, X) = 2rq + q*n + r*ch_X +
    (r*d_X - q*d) - 2*c1_E.c1_X for E of rank r, degree d and 2*ch2 n and X
    of rank q and degree d_X.  Swapping the arguments flips only the sign
    of the antisymmetric term r*d_X - q*d.  c1_E.c1_X is E's covector
    applied to c1_X, so a member costs one ``sum(map(mul, ...))``.
    """
    r, d, n, cov = row
    q = members[0].rank
    anti = r * degree(members[0]) - q * d
    base = 2 * r * q + q * n + (-anti if reverse else anti)
    for m in members:
        if base + r * m.ch2x2 != 2 * sum(map(mul, cov, m.c1.coords)):
            # A member equal to m pairs as m does, so none comes before m
            # and index() finds m's own position.
            return members.index(m)
    return None


def chi_minus(e: KClass, f: KClass) -> int:
    """The antisymmetrized pairing chi(E,F) - chi(F,E) = r(E)d(F) - r(F)d(E)."""
    s = same_surface(e.c1, f.c1)
    return e.rank * s.degree(f.c1.coords) - f.rank * s.degree(e.c1.coords)


def twist(e: KClass, d: DivisorClass) -> KClass:
    """The class of E tensored with the line bundle O(d)."""
    s = same_surface(e.c1, d)
    x, y, r = e.c1.coords, d.coords, e.rank
    c1 = DivisorClass(s, tuple([a + r * b for a, b in zip(x, y)]))
    return KClass(r, c1, e.ch2x2 + 2 * s.dot(x, y) + r * s.dot(y, y))


def line_bundle(d: DivisorClass) -> KClass:
    return KClass(1, d, intersect(d, d))


def torsion_class(curve: DivisorClass, m: int) -> KClass:
    """Class of O_C(m) for a minus-one curve C; rank 0, c1 = C, 2*ch2 = 2m + 1.

    It lives on C's surface.  Normalized so that chi(O, O_C(m)) == m + 1.
    """
    if not is_kind(curve, MINUS_ONE):
        raise ValueError("not a minus-one curve class")
    return KClass(0, curve, 2 * m + 1)
