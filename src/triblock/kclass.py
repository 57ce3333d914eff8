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
:func:`chi` for one pair; :func:`euler_rows`, which reads each class of a
block once into its integers, with :func:`row_is_exceptional` and
:func:`first_nonzero_chi` on those rows for a whole block or block pair;
and :func:`chi_minus` for its antisymmetric part r(E)d(F) - r(F)d(E),
through which ``blockcalc`` reads its closed forms.  The one other copy is
the hoisted form inside ``blockcalc``'s one-pass mutation certificate,
which pairs the first new member's covector with the other members as
:func:`first_nonzero_chi` does, and which the tests hold to brute-force
validation.  :func:`torsion_class` takes the (-1)-class condition from
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


def euler_rows(members: Sequence[KClass]) -> list[tuple]:
    """Each class as its row (rank, degree, 2*ch2, c1 coordinates, covector of c1).

    The surface is the first class's, unchecked: the classes share it.  A
    row holds every integer that :func:`row_is_exceptional` and
    :func:`first_nonzero_chi` read, so a block read once into rows serves
    its own axioms and its pairings with every other block.
    """
    s = members[0].c1.surface
    deg, cov = s.degree, s.covector
    return [(m.rank, deg(x), m.ch2x2, x, cov(x)) for m in members for x in (m.c1.coords,)]


def row_is_exceptional(row: tuple) -> bool:
    """``KClass.is_exceptional`` on a row: r*(r + ch2x2) - c1^2 == 1."""
    r, _, ch, x, cov = row
    return r * (r + ch) - sum(map(mul, cov, x)) == 1


def first_nonzero_chi(rows: list, cols: list, upper: bool = False) -> tuple[int, int] | None:
    """The first (a, b), row by row, with chi(l_a, e_b) != 0, or None.

    rows and cols are :func:`euler_rows` of classes l_a and e_b on one
    surface (unchecked), the rows sharing one rank and degree, and so the
    columns, as the members of a block do.  Riemann-Roch as in :func:`chi`
    with those hoisted: 2*chi(l, e) = 2rq + r*d_e - q*d_l + q*ch_l + r*ch_e
    - 2*c1_l.c1_e for l of rank r and degree d_l among the rows and e of
    rank q and degree d_e among the columns, and c1_l.c1_e is l's covector
    applied to c1_e, so a pair costs one ``sum(map(mul, ...))``.  With
    upper, rows and cols are one sequence and only the pairs b > a are
    checked.
    """
    r, d_l, q, d_e = rows[0][0], rows[0][1], cols[0][0], cols[0][1]
    base = 2 * r * q + r * d_e - q * d_l
    for a, (_, _, ch, _, cov) in enumerate(rows):
        u = base + q * ch
        for b in range(a + 1 if upper else 0, len(cols)):
            _, _, ch_e, y, _ = cols[b]
            if u + r * ch_e != 2 * sum(map(mul, cov, y)):
                return a, b
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
