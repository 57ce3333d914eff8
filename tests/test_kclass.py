"""Euler pairing, twists and exceptionality of numerical classes.

The chi oracles below are classical closed forms evaluated by hand:
chi(O(d)) = (d+1)(d+2)/2 on the plane, chi(O(a,b)) = (a+1)(b+1) on the
quadric, and chi(O, O_C(m)) = m+1 for a sheaf on an exceptional curve.
"""

import random
from fractions import Fraction
from math import inf

import pytest

from triblock.kclass import (
    InvariantViolationError,
    KClass,
    chi,
    chi_minus,
    degree,
    euler_rows,
    first_nonzero_chi,
    line_bundle,
    render_int,
    slope,
    torsion_class,
    twist,
)
from triblock.picard import DivisorClass, LatticeMismatchError, Surface, canonical_class, intersect

P2 = Surface.plane(0)
QUADRIC = Surface.quadric()


def pl(surface, *coords):
    return DivisorClass(surface, coords)


def exceptional_class(rank, c1):
    # (rank, c1, n) with rank*n = 1 + c1^2 - rank^2, or None if no integer n.
    n, remainder = divmod(1 + intersect(c1, c1) - rank * rank, rank)
    return None if remainder else KClass(rank, c1, n)


def structure_sheaf(surface):
    return line_bundle(DivisorClass.zero(surface))


def test_chi_of_structure_sheaf_everywhere():
    for s in [Surface.plane(r) for r in range(9)] + [QUADRIC]:
        o = structure_sheaf(s)
        assert chi(o, o) == 1


def test_plane_line_bundle_chi():
    o = structure_sheaf(P2)
    for d in range(-6, 7):
        expected = (d + 1) * (d + 2) // 2
        assert chi(o, line_bundle(pl(P2, d))) == expected


def test_quadric_line_bundle_chi():
    o = structure_sheaf(QUADRIC)
    for a in range(-4, 5):
        for b in range(-4, 5):
            assert chi(o, line_bundle(pl(QUADRIC, a, b))) == (a + 1) * (b + 1)


def test_blown_up_plane_chi_values():
    x2 = Surface.plane(2)
    o = structure_sheaf(x2)
    # a line through one of the two points moves in a pencil
    assert chi(o, line_bundle(pl(x2, 1, -1, 0))) == 2
    # lines through both points: just the one
    assert chi(o, line_bundle(pl(x2, 1, -1, -1))) == 1
    # conics through both points
    assert chi(o, line_bundle(pl(x2, 2, -1, -1))) == 4
    assert chi(o, line_bundle(pl(x2, 0, 1, 0))) == 1


def test_chi_asymmetry():
    o = structure_sheaf(P2)
    h = line_bundle(pl(P2, 1))
    assert chi(o, h) == 3
    assert chi(h, o) == 0


def test_torsion_class_oracles():
    rng = random.Random(7)
    for r in (1, 3, 8):
        s = Surface.plane(r)
        o = structure_sheaf(s)
        curve = DivisorClass.basis(s, 1)
        for m in range(-3, 4):
            t = torsion_class(curve, m)
            assert t.rank == 0 and t.ch2x2 == 2 * m + 1
            assert chi(o, t) == m + 1
            assert chi(t, t) == 1
            assert t.is_exceptional
            for _ in range(5):
                d = DivisorClass(
                    s, tuple(rng.randint(-3, 3) for _ in range(s.picard_rank))
                )
                lb = line_bundle(d)
                assert chi(t, lb) == m - intersect(curve, d)
                assert chi(lb, t) == m + 1 - intersect(d, curve)


def test_torsion_class_rejects_other_curves():
    s = Surface.plane(2)
    with pytest.raises(ValueError, match="not a minus-one curve class"):
        torsion_class(pl(s, 1, 0, 0), 0)  # a line squares to +1
    with pytest.raises(ValueError, match="not a minus-one curve class"):
        torsion_class(pl(s, 0, 1, -1), 0)  # a root, not a curve class


def test_parity_violation_detected():
    s = Surface.plane(1)
    bad = KClass(0, DivisorClass.basis(s, 1), 2)  # even 2*ch2 on a curve
    assert bad.is_exceptional  # rank 0 exceptionality only sees c1
    with pytest.raises(InvariantViolationError):
        chi(structure_sheaf(s), bad)


def test_formal_algebra():
    s = Surface.plane(1)
    e = line_bundle(pl(s, 1, -1))
    f = line_bundle(pl(s, 0, 1))
    assert (e + f) - f == e
    assert -(-e) == e
    assert 2 * e == e + e
    assert (3 * e).rank == 3
    assert e * 3 == 3 * e
    with pytest.raises(AttributeError):
        e.rank = 2
    with pytest.raises(AttributeError):
        e.weight = 1


def genuine_classes(surface, rng, count):
    """Random integer combinations of line bundles and point classes.

    Everything here is a class of an actual complex of sheaves, so every
    Euler pairing must come out an integer.
    """
    point = KClass(0, DivisorClass.zero(surface), 2)
    out = []
    for _ in range(count):
        total = rng.randint(-3, 3) * point
        for _ in range(3):
            d = DivisorClass(
                surface, tuple(rng.randint(-4, 4) for _ in range(surface.picard_rank))
            )
            total = total + rng.randint(-2, 2) * line_bundle(d)
        out.append(total)
    return out


def test_chi_integral_and_bilinear_on_genuine_classes():
    rng = random.Random(99)
    for s in (Surface.plane(4), QUADRIC):
        classes = genuine_classes(s, rng, 12)
        for e in classes:
            for f in classes:
                chi(e, f)  # must not raise
        a, b, c = classes[:3]
        assert chi(a, b + c) == chi(a, b) + chi(a, c)
        assert chi(a + b, c) == chi(a, c) + chi(b, c)
        assert chi_minus(a, b) == chi(a, b) - chi(b, a)
        assert chi_minus(a, b) == -chi_minus(b, a)


def test_twist_matches_line_bundle_product():
    rng = random.Random(3)
    s = Surface.plane(3)
    for _ in range(20):
        d1 = DivisorClass(s, tuple(rng.randint(-3, 3) for _ in range(4)))
        d2 = DivisorClass(s, tuple(rng.randint(-3, 3) for _ in range(4)))
        assert twist(line_bundle(d1), d2) == line_bundle(d1 + d2)
        e = genuine_classes(s, rng, 1)[0]
        assert twist(twist(e, d1), d2) == twist(e, d1 + d2)


def test_chi_invariant_under_simultaneous_twist():
    rng = random.Random(11)
    s = Surface.plane(5)
    classes = genuine_classes(s, rng, 6)
    d = DivisorClass(s, (2, -1, 0, 1, 0, -1))
    for e in classes:
        for f in classes:
            assert chi(twist(e, d), twist(f, d)) == chi(e, f)


def test_degree_and_slope():
    s = Surface.plane(2)
    assert degree(line_bundle(pl(s, 1, 0, 0))) == 3
    assert degree(line_bundle(pl(s, 0, 1, 0))) == 1
    assert degree(structure_sheaf(s)) == 0
    assert slope(structure_sheaf(s)) == 0
    assert slope(line_bundle(pl(P2, 1))) == 3
    assert slope(KClass(2, pl(P2, 1), -1)) == Fraction(3, 2)
    assert slope(torsion_class(pl(s, 0, 1, 0), 0)) == inf


def test_exceptionality():
    assert line_bundle(pl(P2, 5)).is_exceptional
    assert KClass(2, pl(P2, 1), -1).is_exceptional  # the twisted tangent class
    assert not KClass(2, pl(P2, 1), 0).is_exceptional
    assert not KClass(0, pl(P2, 0), 2).is_exceptional  # a point class


def test_slope_orders_vanishing():
    # for exceptional classes the antisymmetric pairing follows the slopes
    from triblock import catalog

    for label in catalog.labels():
        members = catalog.build(label).members
        for e in members:
            for f in members:
                se, sf = slope(e), slope(f)
                expected = (sf > se) - (sf < se)
                got = chi_minus(e, f)
                assert (got > 0) - (got < 0) == expected


def test_cross_surface_guards():
    o2 = structure_sheaf(P2)
    o3 = structure_sheaf(Surface.plane(1))
    with pytest.raises(LatticeMismatchError):
        chi(o2, o3)
    with pytest.raises(LatticeMismatchError):
        chi(o3, o2)
    with pytest.raises(ValueError):
        o2 + o3
    with pytest.raises(LatticeMismatchError):
        twist(o2, DivisorClass.zero(Surface.plane(1)))
    with pytest.raises(LatticeMismatchError):
        twist(structure_sheaf(QUADRIC), DivisorClass.zero(Surface.plane(1)))
    with pytest.raises(LatticeMismatchError):
        chi_minus(o2, o3)


# The reference Euler form: the intersection form written out coordinate by
# coordinate, and degree, chi, twist and exceptionality through it and the
# canonical class, as the library computed them before it evaluated them as
# dot products on coordinate tuples.
def _intersect_ref(a, b):
    assert a.surface == b.surface
    if a.surface == QUADRIC:
        return a.coords[0] * b.coords[1] + a.coords[1] * b.coords[0]
    return a.coords[0] * b.coords[0] - sum(x * y for x, y in zip(a.coords[1:], b.coords[1:]))



def _covector_ref(d):
    # the functional y -> d.y, by its values on the basis
    n = d.surface.picard_rank
    return tuple(_intersect_ref(d, DivisorClass.basis(d.surface, i)) for i in range(n))
def _degree_ref(e):
    return -_intersect_ref(e.c1, canonical_class(e.surface))


def _twice_chi_ref(e, f):
    return (
        2 * e.rank * f.rank
        + (e.rank * _degree_ref(f) - f.rank * _degree_ref(e))
        + (e.rank * f.ch2x2 + f.rank * e.ch2x2)
        - 2 * _intersect_ref(e.c1, f.c1)
    )


def _twist_ref(e, d):
    return KClass(
        e.rank,
        e.c1 + e.rank * d,
        e.ch2x2 + 2 * _intersect_ref(e.c1, d) + e.rank * _intersect_ref(d, d),
    )


def _is_exceptional_ref(e):
    c1sq = _intersect_ref(e.c1, e.c1)
    if e.rank == 0:
        return c1sq == -1
    return e.rank * e.ch2x2 == 1 + c1sq - e.rank * e.rank


def _random_classes(surface, rng, count):
    # Unconstrained classes (about half break the sheaf parity), plus
    # exceptional ones so that is_exceptional sees both answers.
    k = canonical_class(surface)
    out = []
    while len(out) < count:
        c1 = DivisorClass(surface, tuple(rng.randint(-5, 5) for _ in range(surface.picard_rank)))
        if rng.random() < 0.4:
            e = exceptional_class(rng.randint(1, 3), c1)
            if e is not None:
                out.append(e)
            continue
        rank = rng.randint(-3, 4)
        if rank == 0 and rng.random() < 0.5:
            ch2x2 = _intersect_ref(c1, k) + 2 * rng.randint(-3, 3)  # parity holds
        else:
            ch2x2 = rng.randint(-20, 20)
        out.append(KClass(rank, c1, ch2x2))
    return out


def test_euler_form_core_matches_reference():
    rng = random.Random(1987)
    surfaces = [Surface.plane(r) for r in range(9)] + [QUADRIC]
    odd = exceptional = 0
    for surface in surfaces:
        classes = _random_classes(surface, rng, 24)
        for e in classes:
            assert degree(e) == _degree_ref(e)
            assert surface.degree(e.c1.coords) == _degree_ref(e)
            assert e.is_exceptional is _is_exceptional_ref(e)
            row = (e.rank, degree(e), e.ch2x2, e.c1.coords, _covector_ref(e.c1))
            assert euler_rows([e]) == [row]
            exceptional += e.is_exceptional
            d = DivisorClass(surface, tuple(rng.randint(-4, 4) for _ in range(surface.picard_rank)))
            assert twist(e, d) == _twist_ref(e, d)
            for f in classes:
                assert intersect(e.c1, f.c1) == _intersect_ref(e.c1, f.c1)
                twice = _twice_chi_ref(e, f)
                if twice % 2:
                    odd += 1
                    with pytest.raises(InvariantViolationError):
                        chi(e, f)
                else:
                    assert chi(e, f) == twice // 2
                    assert chi_minus(e, f) == (twice - _twice_chi_ref(f, e)) // 2
    assert odd > 1000 and exceptional > 50


def test_first_nonzero_chi_matches_pairwise_reference():
    # Groups of classes sharing a rank and degree, paired every way; the
    # first nonzero pairing must be the one a pair-by-pair scan finds.
    rng = random.Random(2718)
    found = 0
    for surface in [Surface.plane(r) for r in range(9)] + [QUADRIC]:
        groups = {}
        for e in _random_classes(surface, rng, 80):
            groups.setdefault((e.rank, degree(e)), []).append(e)
        for rows in groups.values():
            for cols in groups.values():
                pairs = [(a, b) for a in range(len(rows)) for b in range(len(cols))]
                expected = next((p for p in pairs if _twice_chi_ref(rows[p[0]], cols[p[1]])), None)
                assert first_nonzero_chi(euler_rows(rows), euler_rows(cols)) == expected
                found += expected is not None
            upper = next(
                ((a, b) for a in range(len(rows)) for b in range(a + 1, len(rows))
                 if _twice_chi_ref(rows[a], rows[b])),
                None,
            )
            assert first_nonzero_chi(euler_rows(rows), euler_rows(rows), upper=True) == upper
    assert found > 100
    # The exceptional curves O(E_1), ..., O(E_8) are mutually orthogonal.
    x8 = Surface.plane(8)
    curves = [line_bundle(pl(x8, 0, *(int(i == j) for i in range(8)))) for j in range(8)]
    assert first_nonzero_chi(euler_rows(curves), euler_rows(curves), upper=True) is None
    assert first_nonzero_chi(euler_rows(curves), euler_rows(curves)) == (0, 0)


def test_render_int_past_the_int_to_str_limit():
    assert render_int(0) == "0"
    assert render_int(-(10**40 - 1)) == "-" + "9" * 40
    assert render_int(10**40) == "1" + "0" * 19 + "...(41 digits)"
    assert render_int(-(10**5000 - 1)) == "-" + "9" * 20 + "...(5000 digits)"
    assert render_int(12345678901234567890123 * 10**6000) == "12345678901234567890...(6023 digits)"
    # the parity failure still reports itself on a class past the limit
    huge = KClass(10**5000 + 1, pl(P2, 0), 0)
    odd = KClass(1, pl(P2, 0), 1)
    with pytest.raises(InvariantViolationError, match=r"not integral on \(rank 1{1}0{19}\.\.\.\(5001 digits\)"):
        chi(huge, odd)
