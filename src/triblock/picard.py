"""Integral Picard-lattice arithmetic for Del Pezzo surfaces.

Two families of surfaces are supported: the plane blown up in r points
(0 <= r <= 8) and the smooth quadric.  For the blown-up plane the lattice
carries the basis (l0, l1, ..., lr) with l0^2 = 1, li^2 = -1 and all mixed
products zero; for the quadric the basis (f1, f2) of the two rulings with
f1^2 = f2^2 = 0 and f1.f2 = 1.  Everything is exact integer arithmetic.

This module is the only one that knows the intersection form and the
canonical class K.  :meth:`Surface.dot` and :meth:`Surface.degree` (the
functional d -> d.(-K)) evaluate them on bare coordinate tuples as plain
integer dot products, with no surface check.  :meth:`Surface.covector`
turns x into the functional y -> x.y as a coordinate tuple, so that a loop
pairing one x with many y computes it once and pays one
``sum(map(mul, ...))`` a pair and no method call.  The checked entry points,
:func:`intersect` and the ``kclass`` functions, check surfaces once per call
and then use these.

It is also the one place that states the two class kinds, as (square,
degree) pairs in one table: a (-1)-class has e^2 = -1 and degree e.(-K) =
1, a root s^2 = -2 and degree 0.  :func:`is_kind` tests a class against
it, and :func:`enumerate_classes`, ``kclass.torsion_class`` and ``weyl``
read it.

:class:`Surface` and :class:`DivisorClass` are immutable records, built
as ``typing.NamedTuple`` like every value type of the library: cheap to
import and to construct, with no class code generated at start-up and no
``inspect`` or ``ast`` to load.  :class:`DivisorClass` checks its
coordinate count in ``__new__``.  As tuples, an instance equals the plain
tuple of its fields and iterates over them; nothing in the library relies
on either.
"""

from __future__ import annotations

from functools import cache
from math import isqrt
from operator import add, mul, neg, sub
from typing import Iterator, NamedTuple

PLANE = "plane"
QUADRIC = "quadric"

MINUS_ONE = "minus-one"
ROOT = "root"
_KINDS = {MINUS_ONE: (-1, 1), ROOT: (-2, 0)}  # kind -> (square, degree)


class LatticeMismatchError(ValueError):
    """Raised when classes living on different lattices are combined."""


class Surface(NamedTuple):
    """A Del Pezzo surface, identified by its Picard lattice."""

    kind: str
    blowups: int = 0

    @classmethod
    def plane(cls, blowups: int = 0) -> "Surface":
        """The projective plane blown up in ``blowups`` general points."""
        if not 0 <= blowups <= 8:
            raise ValueError(f"blowups must be between 0 and 8, got {blowups}")
        return cls(PLANE, blowups)

    @classmethod
    def quadric(cls) -> "Surface":
        return cls(QUADRIC, 0)

    @classmethod
    def from_name(cls, name: str) -> "Surface":
        """Inverse of :attr:`name`; accepts ``P2``, ``X1`` .. ``X8``, ``quadric``."""
        if name == "P2":
            return cls.plane(0)
        if name == "quadric":
            return cls.quadric()
        if len(name) == 2 and name[0] == "X" and name[1] in "123456789":
            return cls.plane(int(name[1]))
        raise ValueError(f"unknown surface name: {name!r}")

    @property
    def name(self) -> str:
        if self.kind == QUADRIC:
            return "quadric"
        return "P2" if self.blowups == 0 else f"X{self.blowups}"

    @property
    def picard_rank(self) -> int:
        return 2 if self.kind == QUADRIC else self.blowups + 1

    @property
    def k_squared(self) -> int:
        """Self-intersection of the canonical class."""
        return 8 if self.kind == QUADRIC else 9 - self.blowups

    @property
    def k0_rank(self) -> int:
        """Rank of the Grothendieck group, i.e. 2 + picard rank."""
        return 12 - self.k_squared

    def dot(self, x: tuple[int, ...], y: tuple[int, ...]) -> int:
        """The intersection form on two coordinate tuples of this lattice."""
        if self.kind == QUADRIC:
            return x[0] * y[1] + x[1] * y[0]
        # l0^2 = 1 and li^2 = -1: x0*y0 - sum over i >= 1 of xi*yi.
        return 2 * x[0] * y[0] - sum(map(mul, x, y))

    def covector(self, x: tuple[int, ...]) -> tuple[int, ...]:
        """The functional y -> x.y as a coordinate tuple c: x.y == sum(c_i*y_i)."""
        # (x1, x0) on the quadric, (x0, -x1, ..., -xr) on the plane
        return (x[1], x[0]) if self.kind == QUADRIC else (x[0], *map(neg, x[1:]))

    def degree(self, x: tuple[int, ...]) -> int:
        """The degree x.(-K) of a coordinate tuple of this lattice."""
        # -K is 2f1 + 2f2 on the quadric and 3l0 - l1 - ... - lr on the plane.
        if self.kind == QUADRIC:
            return 2 * (x[0] + x[1])
        return 2 * x[0] + sum(x)

    def __str__(self) -> str:
        return self.name


class DivisorClass(
    NamedTuple("DivisorClass", [("surface", Surface), ("coords", tuple[int, ...])])
):
    """An integral divisor class, stored as coordinates in the fixed basis.

    Its arithmetic builds each coordinate tuple from a list: ``tuple(map(...))``
    over-allocates, and every stored class would keep the slack.
    """

    __slots__ = ()

    def __new__(cls, surface: Surface, coords: tuple[int, ...]) -> "DivisorClass":
        if len(coords) != surface.picard_rank:
            raise ValueError(
                f"expected {surface.picard_rank} coordinates on {surface}, got {len(coords)}"
            )
        return tuple.__new__(cls, (surface, coords))

    @classmethod
    def zero(cls, surface: Surface) -> "DivisorClass":
        return cls(surface, (0,) * surface.picard_rank)

    @classmethod
    def basis(cls, surface: Surface, i: int) -> "DivisorClass":
        """The i-th basis vector (l_i on a blown-up plane, f_{i+1} on the quadric)."""
        n = surface.picard_rank
        if not 0 <= i < n:
            raise ValueError(f"basis index {i} out of range for {surface}")
        return cls(surface, tuple(1 if j == i else 0 for j in range(n)))

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        same_surface(self, other)
        return DivisorClass(self.surface, tuple([*map(add, self.coords, other.coords)]))

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        same_surface(self, other)
        return DivisorClass(self.surface, tuple([*map(sub, self.coords, other.coords)]))

    def __neg__(self) -> "DivisorClass":
        return DivisorClass(self.surface, tuple([*map(neg, self.coords)]))

    def __mul__(self, scalar: int) -> "DivisorClass":
        if not isinstance(scalar, int):
            return NotImplemented
        return DivisorClass(self.surface, tuple([scalar * a for a in self.coords]))

    __rmul__ = __mul__

    def __str__(self) -> str:
        return "(" + ",".join(str(c) for c in self.coords) + ")"


def same_surface(a, b) -> Surface:
    """The common surface of two classes, or LatticeMismatchError."""
    s, t = a.surface, b.surface
    if s is not t and s != t:
        raise LatticeMismatchError(f"incompatible lattices: {s} and {t}")
    return s


def intersect(a: DivisorClass, b: DivisorClass) -> int:
    """Intersection number of two divisor classes on the same surface."""
    return same_surface(a, b).dot(a.coords, b.coords)


@cache
def canonical_class(surface: Surface) -> DivisorClass:
    """The canonical class K in the fixed basis, built once per surface."""
    if surface.kind == QUADRIC:
        return DivisorClass(surface, (-2, -2))
    return DivisorClass(surface, (-3,) + (1,) * surface.blowups)


def is_kind(d: DivisorClass, kind: str) -> bool:
    """Whether d has the square and degree of the kind: MINUS_ONE or ROOT."""
    square, deg = _KINDS[kind]
    x = d.coords
    return d.surface.dot(x, x) == square and d.surface.degree(x) == deg


def embed(d: DivisorClass, into: Surface) -> DivisorClass:
    """Push a class from a less-blown-up plane into a more-blown-up one.

    The inclusion pads with zeros on the exceptional coordinates of the extra
    blowups; it preserves intersection numbers and sends canonical class to
    canonical class only up to the new exceptional directions, so callers who
    care about K must re-read it on the target surface.
    """
    if d.surface.kind != PLANE or into.kind != PLANE:
        raise LatticeMismatchError("incompatible lattices: embedding requires plane surfaces")
    if into.blowups < d.surface.blowups:
        raise LatticeMismatchError(
            f"incompatible lattices: cannot embed {d.surface} into smaller {into}"
        )
    pad = (0,) * (into.blowups - d.surface.blowups)
    return DivisorClass(into, d.coords + pad)


def _bounded_vectors(count: int, total: int, square_total: int) -> Iterator[tuple[int, ...]]:
    # Integer vectors b of given length with sum(b) == total and
    # sum(b*b) == square_total.  Prunes with Cauchy-Schwarz at every node:
    # any completion satisfies total^2 <= count * square_total.
    if square_total < 0:
        return
    if count == 0:
        if total == 0 and square_total == 0:
            yield ()
        return
    if total * total > count * square_total:
        return
    top = isqrt(square_total)
    for b in range(-top, top + 1):
        for rest in _bounded_vectors(count - 1, total - b, square_total - b * b):
            yield (b,) + rest


def enumerate_classes(
    surface: Surface, kind: str, *, bound_multiplier: int = 1
) -> tuple[DivisorClass, ...]:
    """All classes of the kind: (-1)-classes (e^2 = -1, e.(-K) = 1) or roots
    (s^2 = -2, s.(-K) = 0), as :func:`is_kind` decides.

    The search is a bounded exhaustion: on a plane with r blowups the degree
    coordinate ranges over |a| <= 3*(r+1)*bound_multiplier, on the quadric both
    coordinates range over |u| <= 4*bound_multiplier.  The defaults already
    contain every class of either kind; ``bound_multiplier`` exists so tests
    can double the box and confirm the result set is stable.

    Proof for the plane.  Write e = a*l0 + sum(b_i l_i) and let (s, d) be
    the kind's square and degree; then sum(b) = d - 3a and sum(b^2) = a^2 - s.
    Cauchy-Schwarz, sum(b)^2 <= r*sum(b^2), gives

        (9 - r)*a^2 - 6*d*a + d^2 + r*s <= 0,

    and K^2 = 9 - r > 0, so a lies between (3d -+ sqrt(D))/(9 - r) with
    D = r*(d^2 - (9 - r)*s): D = r*(10 - r) for (-1)-classes and 2r*(9 - r)
    for roots.  Both bounds on |a| grow with r, to the intervals [-1, 7]
    and [-4, 4] at r = 8, and stay below 1 for r <= 1; so |a| <= 7 <=
    3*(r+1) from r = 2 on, and |a| < 1 <= 3*(r+1) below.  On the quadric
    e = u*f1 + v*f2 has e^2 = 2uv and degree 2(u + v), so u and v are the
    roots of t^2 - (d/2)*t + s/2, which are at most 1 in size for both
    kinds: |u|, |v| <= 1 <= 4.
    """
    if kind not in _KINDS:
        raise ValueError(f"kind must be {MINUS_ONE!r} or {ROOT!r}, got {kind!r}")
    if bound_multiplier < 1:
        raise ValueError("bound_multiplier must be a positive integer")
    if surface.kind == QUADRIC:
        side = range(-4 * bound_multiplier, 4 * bound_multiplier + 1)
        box = (DivisorClass(surface, (u, v)) for u in side for v in side)
        return tuple(d for d in box if is_kind(d, kind))  # (u, v) ascending: sorted
    square, deg = _KINDS[kind]
    r = surface.blowups
    top = 3 * (r + 1) * bound_multiplier
    found = []
    for a in range(-top, top + 1):
        # e = a*l0 + sum(b_i l_i); the two defining equations pin the
        # linear and quadratic symmetric functions of the b_i.
        for b in _bounded_vectors(r, deg - 3 * a, a * a - square):
            found.append(DivisorClass(surface, (a,) + b))
    return tuple(sorted(found, key=lambda d: d.coords))
