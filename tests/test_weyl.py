"""Lattice symmetries: reflections, orbit counting and the blowdown recursion.

orbit_count and count_disjoint_sets are closed forms; the breadth-first
closure of the twist normal form under the simple reflections and the
enumeration of disjoint (-1)-class sets, which used to compute them, live
here as their oracles.  So do the breadth-first closure of a divisor class
and the sequential bubble chamber walk, which walks each vector in turn
and reflects in any given simple roots one at a time, as the oracle for
weyl._stabiliser_roots, the one-vector walk of each surface's own simple
system that sorts its swaps and reflects only in the Cremona root, and
the transposition check written out with DivisorClass arithmetic, as
the oracle for the one-pairing check of weyl._check_transpositions.  The
Weyl group orders are checked against divisor orbits and (-1)-class
counts, never against the code under test.
"""

import random
import time
from math import comb, isqrt

import pytest

from triblock import catalog, cli, weyl
from triblock.blockcalc import (
    Block,
    BlockCollection,
    apply_word,
    helix_shift,
    twist_normal_form,
    validate_collection,
)
from triblock.kclass import (
    InvariantViolationError,
    KClass,
    chi,
    line_bundle,
    torsion_class,
    twist,
)
from triblock.markov import EQUATIONS
from triblock.picard import (
    MINUS_ONE,
    ROOT,
    DivisorClass,
    LatticeMismatchError,
    Surface,
    canonical_class,
    enumerate_classes,
    intersect,
)
from triblock.weyl import (
    C_VALUES,
    C_WITNESSES,
    RECURSION_CASES,
    OrbitRow,
    apply_to_collection,
    _check_transpositions,
    _disjoint_representatives,
    _positive_root_count,
    _reflect,
    _stabiliser_roots,
    _twist_invariants,
    count_disjoint_sets,
    coxeter_order,
    orbit_count,
    orbit_row,
    recursion_check,
    simple_reflections,
    verify_c,
)

# label -> (N solution classes, C repetition, N/C orbits); the x8.3 and
# x8.4 rows are frozen in the acceptance suite
ORBIT_ROWS = {
    "p2": (1, 1, 1),
    "quadric": (1, 1, 1),
    "x3": (1, 1, 1),
    "x4": (2, 2, 1),
    "x5": (20, 2, 10),
    "x6.1": (240, 3, 80),
    "x6.2": (36, 1, 36),
    "x7.1": (72, 2, 36),
    "x7.2": (2520, 2, 1260),
    "x7.3": (672, 1, 672),
    "x8.1": (1920, 1, 1920),
    "x8.2": (8640, 1, 8640),
}


def _fast_generators(surface: Surface):
    """Coordinate-level actions of the simple reflections."""
    gens = []
    if surface.kind == "quadric":
        gens.append(lambda ch: (ch[1], ch[0]))
        return gens
    r = surface.blowups
    if r >= 3:

        def cremona(ch):
            t = ch[0] + ch[1] + ch[2] + ch[3]
            return (ch[0] + t, ch[1] - t, ch[2] - t, ch[3] - t) + ch[4:]

        gens.append(cremona)
    for i in range(1, r):

        def swap(ch, i=i):
            out = list(ch)
            out[i], out[i + 1] = out[i + 1], out[i]
            return tuple(out)

        gens.append(swap)
    return gens


def divisor_orbit(surface: Surface, start: DivisorClass) -> frozenset:
    """Oracle: closure of one divisor class under the simple reflections, as coordinates."""
    gens = _fast_generators(surface)
    seen = {start.coords}
    frontier = [start.coords]
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                image = g(x)
                if image not in seen:
                    seen.add(image)
                    new.append(image)
        frontier = new
    return frozenset(seen)


def _coordinate_normalizer(c):
    """Reference twist normaliser on the members' c1 tuples, for the BFS.

    Sort inside blocks (one rank per block keeps this canonical), then
    translate the whole collection so that the first c1 vector lies in the
    fundamental box [0, rank) coordinatewise.  Kept apart from
    blockcalc.twist_normal_form so that the oracle shares no code with it.
    """
    ranks = tuple(m.rank for m in c.members)
    assert 0 not in ranks
    slices, start = [], 0
    for size in c.type_vector:
        slices.append((start, start + size))
        start += size

    def normalize(chunks: list) -> tuple:
        for a, b in slices:
            if b - a > 1:
                chunks[a:b] = sorted(chunks[a:b])
        shift = tuple(-(x // ranks[0]) for x in chunks[0])
        if any(shift):
            chunks = [tuple(x + r * s for x, s in zip(ch, shift)) for ch, r in zip(chunks, ranks)]
        return tuple(chunks)

    return normalize


def bfs_orbit_count(c) -> int:
    """Oracle: twist classes in the Weyl closure, by breadth-first search."""
    normalize = _coordinate_normalizer(c)
    gens = _fast_generators(c.surface)
    start = normalize([m.c1.coords for m in c.members])
    seen = {start}
    frontier = [start]
    while frontier:
        new = []
        for state in frontier:
            for g in gens:
                image = normalize([g(ch) for ch in state])
                if image not in seen:
                    seen.add(image)
                    new.append(image)
        frontier = new
    return len(seen)


def _member_invariants(c: BlockCollection) -> list:
    """The twist invariants orbit_count walks: one vector per member."""
    return _twist_invariants(c, tuple(m.rank for m in c.members))


def _regular_class(s: Surface) -> DivisorClass:
    """A class off every root hyperplane, so its Weyl orbit has |W| elements."""
    if s.kind == "quadric":
        d = DivisorClass(s, (1, 0))
    else:
        d = DivisorClass(s, (0,) + tuple(2**i for i in range(s.blowups)))
    assert all(intersect(d, a) for a in enumerate_classes(s, ROOT))
    return d


def test_simple_root_counts():
    assert len(simple_reflections(Surface.quadric())) == 1
    expected = {0: 0, 1: 0, 2: 1, 3: 3, 4: 4, 5: 5, 6: 6, 7: 7, 8: 8}
    for r, count in expected.items():
        assert len(simple_reflections(Surface.plane(r))) == count


def test_simple_roots_are_roots():
    for s in (Surface.plane(5), Surface.quadric()):
        k = canonical_class(s)
        for root in simple_reflections(s):
            assert intersect(root, root) == -2
            assert intersect(root, k) == 0


def test_reflection_covector_matches_intersection_formula():
    # _reflect on coordinates against x + (x.a) a written out with
    # DivisorClass arithmetic, for every root a
    rng = random.Random(20261018)
    for s in ALL_SURFACES:
        n = s.picard_rank
        probes = [DivisorClass.basis(s, j) for j in range(n)] + [canonical_class(s)]
        probes += [DivisorClass(s, tuple(rng.randint(-5, 5) for _ in range(n))) for _ in range(3)]
        for a in enumerate_classes(s, ROOT):
            for x in probes:
                assert _reflect(s, x.coords, a.coords) == (x + intersect(x, a) * a).coords


def test_simple_system_is_built_once_per_surface():
    simple_reflections.cache_clear()
    for s in ALL_SURFACES:
        assert simple_reflections(s) is simple_reflections(s)
        for m in range(s.blowups + 1):
            count_disjoint_sets(s, m)
    info = simple_reflections.cache_info()
    assert (info.misses, info.currsize) == (len(ALL_SURFACES), len(ALL_SURFACES))


def test_reflections_are_involutive_isometries():
    rng = random.Random(20240815)
    s = Surface.plane(4)
    roots = enumerate_classes(s, ROOT)
    k = canonical_class(s)
    for root in rng.sample(list(roots), 8):
        a = root.coords
        assert _reflect(s, k.coords, a) == k.coords
        assert _reflect(s, a, a) == (-root).coords
        for _ in range(5):
            d = tuple(rng.randint(-4, 4) for _ in range(5))
            e = tuple(rng.randint(-4, 4) for _ in range(5))
            assert _reflect(s, _reflect(s, d, a), a) == d
            assert s.dot(_reflect(s, d, a), _reflect(s, e, a)) == s.dot(d, e)


def test_automorphism_validation():
    c = catalog.build("x3")
    s = c.surface
    for forged in (
        DivisorClass.basis(s, 1),
        DivisorClass(s, (1, -1, -1, 0)),  # a (-1)-class
        DivisorClass(s, (0, 2, -2, 0)),  # square -8
    ):
        with pytest.raises(ValueError, match="reflections require a root class"):
            apply_to_collection(forged, c)
    with pytest.raises(LatticeMismatchError):
        apply_to_collection(simple_reflections(Surface.plane(4))[0], c)


def test_minus_one_transitivity():
    for r in range(3, 9):
        s = Surface.plane(r)
        everything = {d.coords for d in enumerate_classes(s, MINUS_ONE)}
        orbit = divisor_orbit(s, DivisorClass.basis(s, 1))
        assert orbit == everything
    # with two blown-up points the group is too small to be transitive
    s2 = Surface.plane(2)
    orbit = divisor_orbit(s2, DivisorClass.basis(s2, 1))
    assert orbit == {(0, 1, 0), (0, 0, 1)}
    assert len(enumerate_classes(s2, MINUS_ONE)) == 3


def test_root_orbits():
    x3 = Surface.plane(3)
    short = divisor_orbit(x3, DivisorClass(x3, (0, 1, -1, 0)))
    assert len(short) == 6
    cubic = divisor_orbit(x3, DivisorClass(x3, (1, -1, -1, -1)))
    assert len(cubic) == 2
    x8 = Surface.plane(8)
    full = divisor_orbit(x8, DivisorClass(x8, (0, 1, -1, 0, 0, 0, 0, 0, 0)))
    assert len(full) == 240
    assert full == {d.coords for d in enumerate_classes(x8, ROOT)}


def test_apply_to_class_keeps_invariants():
    # a torsion class reflected in a non-simple root of X3 keeps rank and
    # 2*ch2, and its c1 moves by x -> x + (x.a) a
    s = Surface.plane(3)
    a = DivisorClass(s, (1, -1, -1, -1))
    t = torsion_class(DivisorClass.basis(s, 2), 1)
    (moved,) = apply_to_collection(a, BlockCollection((Block((t,)),))).members
    assert (moved.rank, moved.ch2x2) == (t.rank, t.ch2x2)
    assert moved.c1 == t.c1 + intersect(t.c1, a) * a
    assert moved.c1.coords == _reflect(s, t.c1.coords, a.coords)


def test_apply_to_collection_preserves_chi():
    # rank and 2*ch2 stay, c1 moves by x -> x + (x.a) a, and chi is kept
    c = catalog.build("x5")
    a = simple_reflections(c.surface)[0]
    moved = apply_to_collection(a, c)
    assert moved.type_vector == c.type_vector
    assert moved.ranks == c.ranks
    before = c.members
    after = moved.members
    for e, f in zip(before, after):
        assert (f.rank, f.ch2x2) == (e.rank, e.ch2x2)
        assert f.c1 == e.c1 + intersect(e.c1, a) * a
    for i in range(len(before)):
        for j in range(len(before)):
            assert chi(before[i], before[j]) == chi(after[i], after[j])


def test_equivariance_with_mutation():
    c = catalog.build("x6.2")
    a = simple_reflections(c.surface)[2]
    for word in (("R1",), ("L2", "R1")):
        assert apply_to_collection(a, apply_word(c, word)) == apply_word(
            apply_to_collection(a, c), word
        )


def test_normal_form_is_twist_invariant():
    c = catalog.build("x4")
    d = DivisorClass(c.surface, (3, -1, 0, 2, -2))
    twisted = BlockCollection(tuple(b.twisted(d) for b in c.blocks))
    assert twist_normal_form(twisted)[0] == twist_normal_form(c)[0]
    assert twist_normal_form(helix_shift(c, 1))[0] != twist_normal_form(c)[0]


def test_orbit_machinery_requires_nonzero_ranks():
    x1 = Surface.plane(1)
    c = validate_collection(
        [
            [line_bundle(DivisorClass.zero(x1))],
            [torsion_class(DivisorClass.basis(x1, 1), 0)],
        ]
    )
    with pytest.raises(ValueError, match="nonzero rank"):
        orbit_count(c)


def test_weyl_group_orders_from_regular_orbits():
    surfaces = [Surface.quadric()] + [Surface.plane(r) for r in range(6)]
    expected = {}
    for s in surfaces:
        expected[s] = len(divisor_orbit(s, _regular_class(s)))
        assert coxeter_order(simple_reflections(s)) == expected[s]
    assert [expected[Surface.plane(r)] for r in range(6)] == [1, 1, 2, 12, 120, 1920]
    assert expected[Surface.quadric()] == 2


def test_weyl_group_orders_by_blowdown_recursion():
    # W(E_r) is transitive on the (-1)-classes of X_r and the stabiliser of
    # l_r is W(E_{r-1}); the start, |W(D_5)| = 1920, is the regular orbit above.
    order = len(divisor_orbit(Surface.plane(5), _regular_class(Surface.plane(5))))
    for r in (6, 7, 8):
        s = Surface.plane(r)
        order *= len(enumerate_classes(s, MINUS_ONE))
        assert coxeter_order(simple_reflections(s)) == order
    assert order == 696729600


def test_coxeter_order_rejects_non_simple_systems():
    x5 = Surface.plane(5)
    a0, a1, a2, a3, a4 = simple_reflections(x5)
    assert coxeter_order((a0, a2, a3, a4)) == 192  # D_4
    assert coxeter_order((a1, a4)) == 4
    assert coxeter_order(()) == 1
    with pytest.raises(ValueError, match="simple roots"):
        coxeter_order((a1, -1 * a1))
    with pytest.raises(ValueError, match="simple roots"):
        coxeter_order((DivisorClass.basis(x5, 1),))
    # square -2 but degree 2: not a root
    with pytest.raises(ValueError, match="simple roots"):
        coxeter_order((DivisorClass(Surface.plane(2), (0, 1, 1)),))
    # the extended D_4 diagram: a3 joined to a0, a2, a4 and minus the highest root
    minus_theta = DivisorClass(x5, (-1, 1, 0, 0, 1, 1))
    with pytest.raises(ValueError, match="not of type A, D or E"):
        coxeter_order((a0, a2, a3, a4, minus_theta))


def _tuple_orbit_size(s: Surface, classes) -> int:
    """Oracle: size of the Weyl orbit of a tuple of classes, by closure.

    An orbit has at most |W| points, so the closure stops there: past it
    the reflections do not generate W.
    """
    roots = [a.coords for a in simple_reflections(s)]
    order = coxeter_order(simple_reflections(s))
    seen = {tuple(d.coords for d in classes)}
    frontier = list(seen)
    while frontier:
        new = []
        for t in frontier:
            for a in roots:
                image = tuple(_reflect(s, x, a) for x in t)
                if image not in seen:
                    seen.add(image)
                    new.append(image)
                    assert len(seen) <= order, f"orbit closure on {s} passed |W| = {order} states"
        frontier = new
    return len(seen)


def test_stabiliser_chain_matches_orbit_closures():
    cases = []
    for r, kind in ((4, ROOT), (6, MINUS_ONE), (7, ROOT), (8, MINUS_ONE)):
        s = Surface.plane(r)
        cases += [(s, (d,)) for d in enumerate_classes(s, kind)[:3]]
    for r in (5, 6):
        s = Surface.plane(r)
        classes = enumerate_classes(s, MINUS_ONE)
        cases += [(s, (classes[0], d)) for d in classes[:4]]
    for s, classes in cases:
        stabiliser = _stabiliser_roots(s, [d.coords for d in classes])
        order = coxeter_order(simple_reflections(s))
        assert order // coxeter_order(stabiliser) == _tuple_orbit_size(s, classes)
    x6 = Surface.plane(6)
    assert _stabiliser_roots(x6, [DivisorClass.zero(x6).coords]) == simple_reflections(x6)


ORACLE_LABELS = tuple(eq.label for eq in EQUATIONS if eq.surface.blowups <= 7)


@pytest.mark.parametrize("label", ORACLE_LABELS)
def test_orbit_count_matches_bfs_oracle(label):
    for c in catalog.builds(label):
        images = [c] + [apply_word(c, w) for w in (("R1",), ("L2", "R1"), ("R2", "R2", "L1"))]
        d = DivisorClass(c.surface, tuple(range(1, c.surface.picard_rank + 1)))
        images.append(BlockCollection(tuple(b.twisted(d) for b in c.blocks)))
        images += [apply_to_collection(g, c) for g in simple_reflections(c.surface)[-1:]]
        for image in images:
            assert orbit_count(image) == bfs_orbit_count(image)


def test_x8_orbit_counts_are_weyl_and_braid_invariant():
    # The X8 rows have no BFS oracle.  The number of twist classes in a
    # Weyl closure is a Weyl and a braid invariant, so it must not move
    # under the reflection in any root, simple or not, nor under a braid
    # word.
    rng = random.Random(20261020)
    x8 = Surface.plane(8)
    roots = enumerate_classes(x8, ROOT)
    assert len(roots) == 240
    checks = 0
    for label in (eq.label for eq in EQUATIONS if eq.surface == x8):
        for c in catalog.builds(label):
            images = [apply_to_collection(a, c) for a in rng.sample(roots, 8)]
            for _ in range(3):
                word = tuple(rng.choice(("L1", "L2", "R1", "R2")) for _ in range(rng.randint(1, 4)))
                images.append(apply_word(c, word))
            n = orbit_count(c)
            for image in images:
                assert orbit_count(image) == n
                checks += 1
    assert checks == 5 * 11


def test_orbit_count_requires_coprime_ranks():
    x71 = catalog.build("x7.1")
    pair = validate_collection([b.members for b in x71.blocks[:2]])
    assert pair.ranks == (2, 2)
    with pytest.raises(ValueError, match="gcd 2"):
        orbit_count(pair)
    # the rank-1 block restores gcd 1
    tail = validate_collection([b.members for b in x71.blocks[1:]])
    assert orbit_count(tail) == bfs_orbit_count(tail)


def test_orbit_count_checks_realised_transpositions():
    # In a valid block the reflection in a c1 difference swaps the two
    # members; an unvalidated block with one member twisted away does not.
    c = catalog.build("x5")
    first, second = c.blocks[0].members
    moved = twist(second, DivisorClass.basis(c.surface, 1))
    forged = BlockCollection((Block((first, moved)),) + c.blocks[1:])
    with pytest.raises(InvariantViolationError, match="does not swap"):
        orbit_count(forged)


def reflection_swaps(c: BlockCollection, vectors: list) -> bool:
    """The transposition check written out: reflect every vector in
    c1_i - c1_{i+1} and compare with the list with v_i and v_{i+1} swapped."""
    members, classes = c.members, [DivisorClass(c.surface, v) for v in vectors]
    start = 0
    for b in c.blocks:
        for i in range(start, start + b.size - 1):
            a = members[i].c1 - members[i + 1].c1
            swapped = vectors[:i] + [vectors[i + 1], vectors[i]] + vectors[i + 2 :]
            if [(x + intersect(x, a) * a).coords for x in classes] != swapped:
                return False
        start += b.size
    return True


def test_transposition_check_matches_reflection_oracle():
    # Tampered twist invariants: a random change of one vector, which the
    # oracle decides, and a nonzero multiple of an in-block root added to
    # one vector, which moves its pairing with that root by a nonzero even
    # number and so always breaks the swap.
    rng = random.Random(20261019)
    broken = 0
    for label in catalog.labels():
        for c in catalog.builds(label):
            vectors = _member_invariants(c)
            _check_transpositions(c, vectors)
            assert reflection_swaps(c, vectors)
            n = c.surface.picard_rank
            roots = [e.c1 - f.c1 for b in c.blocks for e, f in zip(b.members, b.members[1:])]
            for trial in range(40):
                k = rng.randrange(len(vectors))
                by_root = trial % 2 and roots
                if by_root:
                    delta = (rng.choice([-2, -1, 1, 2]) * rng.choice(roots)).coords
                else:
                    delta = tuple(rng.randint(-1, 1) for _ in range(n))
                tampered = list(vectors)
                tampered[k] = tuple(map(sum, zip(vectors[k], delta)))
                expected = reflection_swaps(c, tampered)
                assert not (by_root and expected)
                broken += not expected
                if expected:
                    _check_transpositions(c, tampered)
                else:
                    with pytest.raises(InvariantViolationError, match="does not swap"):
                        _check_transpositions(c, tampered)
    assert 0 < broken < 16 * 40  # both outcomes occur


def test_transposition_check_needs_both_images():
    # For a root a, v_i + (v_i.a) a = v_{i+1} forces the converse, as the
    # reflection is an involution.  In a forged block whose c1 difference
    # a = -l0 has a^2 = 1, one image can hold without the other.
    x2 = Surface.plane(2)
    members = [KClass(1, DivisorClass(x2, (d, 0, 0)), 0) for d in (0, 1)]
    forged = BlockCollection((Block(tuple(members)),))
    u, w = (1, 0, 0), (2, 0, 0)  # u.a = -1 and u + (u.a) a = w
    for vectors in ([u, w], [w, u]):
        assert not reflection_swaps(forged, vectors)
        with pytest.raises(InvariantViolationError, match="does not swap"):
            _check_transpositions(forged, vectors)


def test_orbit_rows_frozen():
    for label, (n, c, orbits) in ORBIT_ROWS.items():
        row = orbit_row(label)
        assert row == OrbitRow(label, n, c, orbits)
        assert row.solution_classes == row.repetition * row.orbits
        with pytest.raises(AttributeError):
            row.orbits = 0
    with pytest.raises(ValueError, match="unknown equation label"):
        orbit_row("x9.9")


def test_orbit_table_counts_each_collection_once(monkeypatch, capsys):
    # the table and the recursion checks share rows: from empty caches the
    # CLI command counts each of the 16 cataloged collections once
    calls = []
    real_orbit_count = weyl.orbit_count

    def counting(c):
        calls.append(c)
        return real_orbit_count(c)

    catalog.build.cache_clear()
    weyl.orbit_row.cache_clear()
    simple_reflections.cache_clear()
    monkeypatch.setattr(weyl, "orbit_count", counting)
    assert cli.main(["orbits", "--check-c", "--check-recursion"]) == 0
    assert "FAIL" not in capsys.readouterr().out
    assert len(calls) == 16
    assert len({id(c) for c in calls}) == 16


def test_orbit_count_splits_across_solutions():
    assert orbit_count(catalog.build("x4", 0)) == 1
    assert orbit_count(catalog.build("x4", 1)) == 1


def test_c_values_and_witnesses():
    assert tuple(C_WITNESSES) == ("x5", "x6.1")
    assert C_VALUES["x6.1"] == 3
    assert sorted(C_VALUES) == sorted(catalog.labels())
    for label in C_WITNESSES:
        assert len(C_WITNESSES[label]) == C_VALUES[label]
    for label in ("x5", "x6.1", "p2", "x8.3"):
        assert verify_c(label)
    for label in ("x9.9", ""):
        with pytest.raises(ValueError, match="unknown equation label"):
            verify_c(label)


def test_verify_c_rejects_a_broken_witness(monkeypatch):
    # Each clause of the rule on its own: a stored C the images do not
    # reach, two images in one twist class, an image of another type vector
    # (L2 gives (2,4,2)) and one of another rank triple (R1 gives (1,3,1)).
    monkeypatch.setitem(C_VALUES, "x5", 3)
    assert not verify_c("x5")
    monkeypatch.setitem(C_VALUES, "x5", 2)
    for word in (("R1", "L1"), ("L2",), ("R1",)):
        monkeypatch.setitem(C_WITNESSES, "x5", ((), word))
        assert not verify_c("x5")
    monkeypatch.setitem(C_WITNESSES, "x5", ((), ("R1", "R2", "R2")))
    assert verify_c("x5")


def test_count_disjoint_sets_small():
    x2, x3 = Surface.plane(2), Surface.plane(3)
    assert count_disjoint_sets(x2, 2) == 1
    assert count_disjoint_sets(x2, 3) == 0
    assert count_disjoint_sets(x3, 2) == 9
    assert count_disjoint_sets(x3, 3) == 2
    for r in range(2, 6):
        s = Surface.plane(r)
        assert count_disjoint_sets(s, 0) == 1
        assert count_disjoint_sets(s, 1) == len(enumerate_classes(s, MINUS_ONE))
    with pytest.raises(ValueError):
        count_disjoint_sets(x2, -1)


def test_count_disjoint_sets_pinned():
    assert count_disjoint_sets(Surface.plane(6), 6) == 72
    assert count_disjoint_sets(Surface.plane(7), 7) == 576
    assert count_disjoint_sets(Surface.plane(8), 8) == 17280
    assert count_disjoint_sets(Surface.plane(8), 5) == 483840


def enumerated_disjoint_sets(surface: Surface, sizes) -> list:
    """Oracle: m-sets of pairwise disjoint minus-one classes, by enumeration."""
    classes = enumerate_classes(surface, MINUS_ONE)
    n = len(classes)
    # bit j of forward[i]: classes i < j are disjoint
    forward = [
        sum(1 << j for j in range(i + 1, n) if intersect(classes[i], classes[j]) == 0)
        for i in range(n)
    ]

    def extend(allowed: int, need: int) -> int:
        if need == 0:
            return 1
        total = 0
        while allowed.bit_count() >= need:
            low = allowed & -allowed
            allowed ^= low
            total += extend(allowed & forward[low.bit_length() - 1], need - 1)
        return total

    return [extend((1 << n) - 1, m) for m in sizes]


ALL_SURFACES = [Surface.quadric()] + [Surface.plane(r) for r in range(9)]


@pytest.mark.parametrize("surface", ALL_SURFACES, ids=str)
def test_count_disjoint_sets_matches_enumeration(surface):
    sizes = range(10)
    assert [count_disjoint_sets(surface, m) for m in sizes] == enumerated_disjoint_sets(
        surface, sizes
    )


def test_count_disjoint_sets_certifies_representatives(monkeypatch):
    # forged representatives: two classes that meet, and a class of square 0
    x4 = Surface.plane(4)
    l0, l1, l2 = (DivisorClass.basis(x4, i) for i in range(3))
    monkeypatch.setattr(weyl, "_disjoint_representatives", lambda s, m: [[l1, l0 - l1 - l2]])
    with pytest.raises(InvariantViolationError, match="members 0 and 1"):
        count_disjoint_sets(x4, 2)
    monkeypatch.setattr(weyl, "_disjoint_representatives", lambda s, m: [[l1, l0 - l1]])
    with pytest.raises(InvariantViolationError, match="not a minus-one class"):
        count_disjoint_sets(x4, 2)
    monkeypatch.undo()
    # forged stabilisers: an order that is no subgroup order, and all of W
    x3 = Surface.plane(3)
    real_order = weyl.coxeter_order
    monkeypatch.setattr(weyl, "coxeter_order", lambda roots: real_order(roots) if roots else 7)
    with pytest.raises(InvariantViolationError, match="not divisible by the stabiliser order 7"):
        count_disjoint_sets(x3, 3)
    monkeypatch.undo()
    monkeypatch.setattr(weyl, "_stabiliser_roots", lambda surface, vectors: simple_reflections(surface))
    with pytest.raises(InvariantViolationError, match=r"not divisible by 3!"):
        count_disjoint_sets(x3, 3)


def test_recursion_cases():
    assert set(RECURSION_CASES) == {"x3", "x6.2", "x7.1", "x8.1", "x8.2"}
    rep = recursion_check("x3")
    assert rep.ok
    assert (rep.solution_classes, rep.binom, rep.smaller_classes, rep.disjoint_sets) == (
        1,
        comb(2, 1),
        1,
        2,
    )
    rep = recursion_check("x6.2")
    assert rep.ok
    assert (rep.solution_classes, rep.binom, rep.smaller_classes, rep.disjoint_sets) == (
        36,
        2,
        1,
        72,
    )
    with pytest.raises(AttributeError):
        rep.ok = False
    with pytest.raises(AttributeError):
        RECURSION_CASES["x3"].contracted = 2
    with pytest.raises(ValueError, match="no recursion case"):
        recursion_check("p2")


# ---------------------------------------------------------------------------
# The chamber walk against the bubble walk.


def bubble_stabiliser_roots(surface: Surface, vectors: list, roots: tuple) -> tuple:
    """Oracle: the sequential chamber walk, one vector and one reflection at a time.

    Each vector, after every reflection made for the vectors before it, is
    reflected in any chain root it pairs positively with until there is
    none; the chain then keeps the roots that pair to zero with it
    (Steinberg's chain, which the library's one walk of one combined vector
    replaces).  As in the library's walk, a vector takes at most N + 1
    passes over the chain, N the number of positive roots of the given
    roots' group.
    """
    passes = _positive_root_count(roots) + 1
    chain = list(roots)
    word = []
    for v in vectors:
        if not chain:
            break
        for a in word:
            v = _reflect(surface, v, a.coords)
        for _ in range(passes):
            moved = False
            for a in chain:
                if surface.dot(v, a.coords) > 0:
                    v = _reflect(surface, v, a.coords)
                    word.append(a)
                    moved = True
            if not moved:
                break
        else:
            raise AssertionError(f"bubble walk not dominant after {passes} passes")
        chain = [a for a in chain if not surface.dot(v, a.coords)]
    return tuple(chain)


def _assert_walks_agree(surface: Surface, vectors: list) -> None:
    roots = simple_reflections(surface)
    assert _stabiliser_roots(surface, vectors) == bubble_stabiliser_roots(surface, vectors, roots)


@pytest.mark.parametrize("label", tuple(catalog.ENTRIES))
def test_stabiliser_walk_matches_bubble_oracle_on_builds(label):
    for c in catalog.builds(label):
        images = [c] + [apply_word(c, w) for w in (("R1",), ("L2", "R1"), ("R2", "R2", "L1"))]
        d = DivisorClass(c.surface, tuple(range(1, c.surface.picard_rank + 1)))
        images.append(BlockCollection(tuple(b.twisted(d) for b in c.blocks)))
        images += [apply_to_collection(g, c) for g in simple_reflections(c.surface)]
        for image in images:
            _assert_walks_agree(c.surface, _member_invariants(image))


def test_stabiliser_walk_matches_bubble_oracle_on_disjoint_representatives():
    cases = 0
    for s in ALL_SURFACES:
        for m in range(1, s.blowups + 1):
            for representative in _disjoint_representatives(s, m):
                _assert_walks_agree(s, [e.coords for e in representative])
                cases += 1
    assert cases == sum(range(9)) + 7  # r - m = 1 has two orbits for r >= 2


def _random_tuples(rng: random.Random, s: Surface, count: int):
    """Short tuples of coordinate vectors with few distinct values, zero among them.

    Every other tuple scales its k-th vector by 10^(6k): a walk that
    combined the vectors in a fixed base would let the later ones outweigh
    the earlier.
    """
    for n in range(count):
        values = [0] + rng.sample(range(-3, 4), rng.randint(1, 3))
        scale = 10**6 if n % 2 else 1
        yield [
            tuple(scale**k * rng.choice(values) for _ in range(s.picard_rank))
            for k in range(rng.randint(1, 4))
        ]


@pytest.mark.parametrize("surface", ALL_SURFACES, ids=str)
def test_stabiliser_walk_matches_bubble_oracle_on_random_tuples(surface):
    rng = random.Random(20261019 + surface.picard_rank)
    for vectors in _random_tuples(rng, surface, 100):
        _assert_walks_agree(surface, vectors)


def test_stabiliser_of_no_vectors_is_the_whole_system():
    for s in ALL_SURFACES:
        assert _stabiliser_roots(s, []) == simple_reflections(s)


def test_roots_pair_with_each_vector_within_the_walk_bound():
    # The walk combines the vectors in base P + 1, which rests on
    # |a.v| <= P = isqrt(2((v.K)^2 - K^2 v^2) // K^2) for every root a
    # (Cauchy-Schwarz on the negative definite K-perp).  Checked here on
    # every root, against the vectors the library walks.
    cases = [
        (c.surface, _member_invariants(c))
        for label in catalog.ENTRIES
        for c in catalog.builds(label)
    ]
    cases += [
        (s, [e.coords for e in representative])
        for s in ALL_SURFACES
        for m in range(1, s.blowups + 1)
        for representative in _disjoint_representatives(s, m)
    ]
    tight = 0
    for s, vectors in cases:
        k = canonical_class(s)
        k2 = intersect(k, k)
        roots = enumerate_classes(s, ROOT)
        for coords in vectors:
            v = DivisorClass(s, coords)
            bound = isqrt(2 * (intersect(v, k) ** 2 - k2 * intersect(v, v)) // k2)
            largest = max((abs(intersect(a, v)) for a in roots), default=0)
            assert largest <= bound, (s, coords)
            tight += largest == bound
    assert len(cases) == 16 + sum(range(9)) + 7
    assert tight


def test_positive_root_counts_match_root_enumeration():
    # The walk's cap reads the number of positive roots off the Dynkin
    # types; the roots of each surface, enumerated, are twice that many.
    for s in ALL_SURFACES:
        assert 2 * _positive_root_count(simple_reflections(s)) == len(enumerate_classes(s, ROOT)), s
    a0, a1, a2, a3, a4 = simple_reflections(Surface.plane(5))
    assert _positive_root_count((a0, a2, a3, a4)) == 12  # D_4
    assert _positive_root_count((a1, a2, a4)) == 4  # A_2 x A_1
    assert _positive_root_count(()) == 0


def test_chamber_walk_certifies_where_it_stops(monkeypatch):
    # Every simple root forged as its negative, which leaves the Dynkin
    # types valid: a swap then pairs as x_i - x_{i+1}, which is positive
    # after the descending sort wherever two coordinates differ, so the
    # walk must reject its own end point.
    # On the x5 build's twist invariants the forged Cremona root does not
    # pair positively, so the walk stops after one pass.
    c = catalog.build("x5", 0)
    cases = [(Surface.quadric(), [(0, 1)]), (Surface.plane(2), [(0, 0, 1)])]
    cases.append((c.surface, _member_invariants(c)))
    real = weyl.simple_reflections
    monkeypatch.setattr(weyl, "simple_reflections", lambda s: tuple(-a for a in real(s)))
    start = time.perf_counter()
    for s, vectors in cases:
        with pytest.raises(
            InvariantViolationError,
            match=rf"a chamber walk on {s} ends where simple root .* pairs to \d+ > 0",
        ):
            _stabiliser_roots(s, vectors)
    assert time.perf_counter() - start < 1


def test_chamber_walk_is_bounded(monkeypatch):
    # The x5 build's twist invariants need a Cremona move.  With the number
    # of positive roots forced to 0 the walk is allowed one pass, which ends
    # with that move, so the walk must raise instead of sorting again.
    c = catalog.build("x5", 0)
    monkeypatch.setattr(weyl, "_positive_root_count", lambda roots: 0)
    start = time.perf_counter()
    with pytest.raises(
        InvariantViolationError,
        match="a chamber walk on X5 is not dominant after 1 passes, though W has 0 positive roots",
    ):
        _stabiliser_roots(c.surface, _member_invariants(c))
    assert time.perf_counter() - start < 1
