"""Lattice arithmetic and class enumeration on the Picard side."""

import itertools
import random

import pytest

from triblock.picard import (
    MINUS_ONE,
    ROOT,
    DivisorClass,
    LatticeMismatchError,
    Surface,
    canonical_class,
    embed,
    enumerate_classes,
    intersect,
    is_kind,
)

# Classical counts of exceptional-curve classes and of roots on the plane
# blown up in r general points.  These are frozen independently of the
# search code and anchor everything downstream.
MINUS_ONE_COUNTS = {0: 0, 1: 1, 2: 3, 3: 6, 4: 10, 5: 16, 6: 27, 7: 56, 8: 240}
ROOT_COUNTS = {0: 0, 1: 0, 2: 2, 3: 8, 4: 20, 5: 40, 6: 72, 7: 126, 8: 240}


def test_surface_names():
    assert Surface.plane(0).name == "P2"
    assert Surface.plane(3).name == "X3"
    assert Surface.quadric().name == "quadric"
    for name in ["P2", "X1", "X4", "X8", "quadric"]:
        assert Surface.from_name(name).name == name
    with pytest.raises(ValueError):
        Surface.from_name("X9")
    with pytest.raises(ValueError):
        Surface.from_name("plane")
    # Only ASCII digits: Arabic-Indic, fullwidth and superscript three.
    for name in ("X\u0663", "X\uff13", "X\u00b2"):
        with pytest.raises(ValueError, match="unknown surface name"):
            Surface.from_name(name)
    with pytest.raises(ValueError):
        Surface.plane(9)
    with pytest.raises(ValueError):
        Surface.plane(-1)
    assert repr(Surface.plane(3)) == "Surface(kind='plane', blowups=3)"
    assert repr(Surface.quadric()) == "Surface(kind='quadric', blowups=0)"


def test_surface_numerics():
    for r in range(9):
        s = Surface.plane(r)
        assert s.picard_rank == r + 1
        assert s.k_squared == 9 - r
        assert s.k0_rank == r + 3
    q = Surface.quadric()
    assert q.picard_rank == 2
    assert q.k_squared == 8
    assert q.k0_rank == 4
    with pytest.raises(AttributeError):
        q.blowups = 1


def test_intersection_form_plane():
    s = Surface.plane(3)
    basis = [DivisorClass.basis(s, i) for i in range(4)]
    for i in range(4):
        for j in range(4):
            expected = 0
            if i == j:
                expected = 1 if i == 0 else -1
            assert intersect(basis[i], basis[j]) == expected


def test_intersection_form_quadric():
    q = Surface.quadric()
    f1, f2 = DivisorClass.basis(q, 0), DivisorClass.basis(q, 1)
    assert intersect(f1, f1) == 0
    assert intersect(f2, f2) == 0
    assert intersect(f1, f2) == 1
    assert intersect(f1 + f2, f1 + f2) == 2


def test_canonical_class():
    assert canonical_class(Surface.plane(0)).coords == (-3,)
    assert canonical_class(Surface.plane(2)).coords == (-3, 1, 1)
    assert canonical_class(Surface.quadric()).coords == (-2, -2)
    for s in [Surface.plane(r) for r in range(9)] + [Surface.quadric()]:
        k = canonical_class(s)
        assert intersect(k, k) == s.k_squared


def test_divisor_algebra():
    s = Surface.plane(2)
    a = DivisorClass(s, (1, -1, 0))
    b = DivisorClass(s, (2, 0, -3))
    assert (a + b).coords == (3, -1, -3)
    assert (a - b).coords == (-1, -1, 3)
    assert (-a).coords == (-1, 1, 0)
    assert (3 * a).coords == (3, -3, 0)
    assert (a * 3).coords == (3, -3, 0)
    assert intersect(a, b) == 2
    assert str(a) == "(1,-1,0)"
    assert repr(a) == "DivisorClass(surface=Surface(kind='plane', blowups=2), coords=(1, -1, 0))"
    with pytest.raises(AttributeError):
        a.coords = (0, 0, 0)
    with pytest.raises(AttributeError):
        a.weight = 1


def test_bilinearity_and_symmetry():
    rng = random.Random(20240815)
    for s in (Surface.plane(5), Surface.quadric()):
        n = s.picard_rank
        for _ in range(50):
            a = DivisorClass(s, tuple(rng.randint(-9, 9) for _ in range(n)))
            b = DivisorClass(s, tuple(rng.randint(-9, 9) for _ in range(n)))
            c = DivisorClass(s, tuple(rng.randint(-9, 9) for _ in range(n)))
            m = rng.randint(-4, 4)
            assert intersect(a, b) == intersect(b, a)
            assert intersect(a + c, b) == intersect(a, b) + intersect(c, b)
            assert intersect(m * a, b) == m * intersect(a, b)



def test_covector_is_the_pairing_functional():
    # (x0, -x1, ..., -xr) on the plane and (x1, x0) on the quadric
    assert Surface.plane(2).covector((3, -1, 2)) == (3, 1, -2)
    assert Surface.plane(0).covector((4,)) == (4,)
    assert Surface.quadric().covector((2, 5)) == (5, 2)
    rng = random.Random(1997)
    for s in [Surface.plane(r) for r in range(9)] + [Surface.quadric()]:
        n = s.picard_rank
        for _ in range(20):
            x = tuple(rng.randint(-9, 9) for _ in range(n))
            y = tuple(rng.randint(-9, 9) for _ in range(n))
            assert sum(a * b for a, b in zip(s.covector(x), y)) == s.dot(x, y)

def test_coordinate_length_checked():
    with pytest.raises(ValueError, match=r"^expected 3 coordinates on X2, got 2$"):
        DivisorClass(Surface.plane(2), (1, 0))
    with pytest.raises(ValueError, match=r"^expected 2 coordinates on quadric, got 3$"):
        DivisorClass(Surface.quadric(), (1, 0, 0))
    assert DivisorClass.zero(Surface.quadric()).coords == (0, 0)


def test_basis_index_checked():
    x2 = Surface.plane(2)
    assert DivisorClass.basis(x2, 2).coords == (0, 0, 1)
    for i in (-1, 3):
        with pytest.raises(ValueError, match=rf"^basis index {i} out of range for X2$"):
            DivisorClass.basis(x2, i)


def test_lattice_mismatch():
    a = DivisorClass.zero(Surface.plane(2))
    b = DivisorClass.zero(Surface.plane(3))
    with pytest.raises(LatticeMismatchError, match="incompatible lattices"):
        intersect(a, b)
    with pytest.raises(LatticeMismatchError):
        a + b


def test_embed():
    small = Surface.plane(2)
    big = Surface.plane(5)
    d = DivisorClass(small, (2, -1, 3))
    e = embed(d, big)
    assert e.coords == (2, -1, 3, 0, 0, 0)
    d2 = DivisorClass(small, (1, 1, -2))
    assert intersect(embed(d, big), embed(d2, big)) == intersect(d, d2)
    with pytest.raises(LatticeMismatchError):
        embed(DivisorClass.zero(big), small)
    with pytest.raises(LatticeMismatchError):
        embed(DivisorClass.zero(Surface.quadric()), big)


def test_minus_one_counts():
    for r, expected in MINUS_ONE_COUNTS.items():
        assert len(enumerate_classes(Surface.plane(r), MINUS_ONE)) == expected
    assert len(enumerate_classes(Surface.quadric(), MINUS_ONE)) == 0


def test_root_counts():
    for r, expected in ROOT_COUNTS.items():
        assert len(enumerate_classes(Surface.plane(r), ROOT)) == expected
    assert enumerate_classes(Surface.quadric(), ROOT) == (
        DivisorClass(Surface.quadric(), (-1, 1)),
        DivisorClass(Surface.quadric(), (1, -1)),
    )


def test_explicit_small_lists():
    x1 = Surface.plane(1)
    assert {d.coords for d in enumerate_classes(x1, MINUS_ONE)} == {(0, 1)}
    x2 = Surface.plane(2)
    assert {d.coords for d in enumerate_classes(x2, MINUS_ONE)} == {
        (0, 1, 0),
        (0, 0, 1),
        (1, -1, -1),
    }
    assert {d.coords for d in enumerate_classes(x2, ROOT)} == {(0, 1, -1), (0, -1, 1)}
    x3 = Surface.plane(3)
    assert {d.coords for d in enumerate_classes(x3, MINUS_ONE)} == {
        (0, 1, 0, 0),
        (0, 0, 1, 0),
        (0, 0, 0, 1),
        (1, -1, -1, 0),
        (1, -1, 0, -1),
        (1, 0, -1, -1),
    }


def brute_force(r, self_sq, k_dot, box):
    """Box scan over coordinates, with the form written out longhand."""
    hits = set()
    for coords in itertools.product(range(-box, box + 1), repeat=r + 1):
        a, b = coords[0], coords[1:]
        square = a * a - sum(x * x for x in b)
        k_pairing = -3 * a - sum(b)
        if square == self_sq and k_pairing == k_dot:
            hits.add(coords)
    return hits


@pytest.mark.parametrize("r", [0, 1, 2, 3])
def test_counts_against_box_scan(r):
    s = Surface.plane(r)
    assert {d.coords for d in enumerate_classes(s, MINUS_ONE)} == brute_force(
        r, -1, -1, 12
    )
    assert {d.coords for d in enumerate_classes(s, ROOT)} == brute_force(r, -2, 0, 12)


def test_enumerated_classes_satisfy_definitions():
    for r in range(9):
        s = Surface.plane(r)
        k = canonical_class(s)
        for d in enumerate_classes(s, MINUS_ONE):
            assert intersect(d, d) == -1 and intersect(d, k) == -1
        for d in enumerate_classes(s, ROOT):
            assert intersect(d, d) == -2 and intersect(d, k) == 0


def test_roots_closed_under_negation():
    for s in (Surface.plane(6), Surface.quadric()):
        roots = {d.coords for d in enumerate_classes(s, ROOT)}
        assert {tuple(-x for x in c) for c in roots} == roots


def test_doubled_bound_stability():
    for s in [Surface.plane(r) for r in range(9)] + [Surface.quadric()]:
        for kind in (MINUS_ONE, ROOT):
            base = enumerate_classes(s, kind)
            assert enumerate_classes(s, kind, bound_multiplier=2) == base


def test_enumeration_is_sorted_and_deterministic():
    classes = enumerate_classes(Surface.plane(4), MINUS_ONE)
    assert isinstance(classes, tuple)
    assert list(classes) == sorted(classes, key=lambda d: d.coords)


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        enumerate_classes(Surface.plane(2), "conic")


def test_bound_multiplier_must_be_positive():
    for multiplier in (0, -1):
        with pytest.raises(ValueError, match="^bound_multiplier must be a positive integer$"):
            enumerate_classes(Surface.plane(2), MINUS_ONE, bound_multiplier=multiplier)


def test_is_kind_agrees_with_enumeration():
    # No false negatives on the enumerated classes, and no false positives
    # on a box of coordinates around the origin.
    surfaces = [Surface.quadric()] + [Surface.plane(r) for r in range(9)]
    for s in surfaces:
        radius = 4 if s.picard_rank <= 2 else 2 if s.picard_rank <= 5 else 1
        box = set(itertools.product(range(-radius, radius + 1), repeat=s.picard_rank))
        for kind in (MINUS_ONE, ROOT):
            found = enumerate_classes(s, kind)
            assert all(is_kind(d, kind) for d in found)
            hits = {x for x in box if is_kind(DivisorClass(s, x), kind)}
            assert hits == box & {d.coords for d in found}


def test_enumeration_box_contains_the_cauchy_schwarz_interval():
    # enumerate_classes' proof: sum(b) = d - 3a and sum(b^2) = a^2 - s with
    # Cauchy-Schwarz confine a to q(a) = (9-r)a^2 - 6da + d^2 + rs <= 0, the
    # real interval (3d -+ sqrt(D))/(9-r) with D the quarter discriminant.
    for r in range(9):
        s = Surface.plane(r)
        top = 3 * (r + 1)
        for kind, square, deg, closed_form in (
            (MINUS_ONE, -1, 1, r * (10 - r)),
            (ROOT, -2, 0, 2 * r * (9 - r)),
        ):
            lead, mid, const = 9 - r, -6 * deg, deg * deg + r * square
            quarter_disc = (mid * mid - 4 * lead * const) // 4
            assert 4 * quarter_disc == mid * mid - 4 * lead * const
            assert quarter_disc == closed_form >= 0
            # The interval lies in [-top, top] exactly when sqrt(D) <=
            # top*(9-r) - 3|d|, compared here on squares.
            room = top * lead - 3 * abs(deg)
            assert room >= 0 and quarter_disc <= room * room
            for d in enumerate_classes(s, kind):
                a = d.coords[0]
                assert lead * a * a + mid * a + const <= 0
                assert abs(a) <= top
    # At r = 8 the intervals are [-1, 7] and [-4, 4]: q factors over Z.
    wide = range(-30, 31)
    assert [a for a in wide if a * a - 6 * a - 7 <= 0] == list(range(-1, 8))
    assert [a for a in wide if a * a - 16 <= 0] == list(range(-4, 5))
    x8 = Surface.plane(8)
    assert {d.coords[0] for d in enumerate_classes(x8, MINUS_ONE)} == set(range(0, 7))
    assert {d.coords[0] for d in enumerate_classes(x8, ROOT)} == set(range(-3, 4))
    # On the quadric u and v are roots of t^2 - (d/2)t + s/2: |u|, |v| <= 1.
    q = Surface.quadric()
    for kind in (MINUS_ONE, ROOT):
        assert all(max(map(abs, d.coords)) <= 1 for d in enumerate_classes(q, kind))
