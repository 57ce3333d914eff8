"""Blocks, block mutations, duals and helix shifts.

Each mutation case below was worked out by hand on a small surface before
being frozen here; the arithmetic fits on the back of an envelope.
"""

import random
from itertools import product

import pytest

from triblock.blockcalc import (
    DIVISION,
    EXTENSION,
    RECOIL,
    Block,
    BlockCollection,
    BlockError,
    abc,
    apply_word,
    block_mutation,
    block_rank_triple,
    chi_block,
    dual_basis,
    equivalent_up_to_twist,
    helix_shift,
    is_complete,
    pairing,
    parse_move,
    validate_block,
    validate_collection,
)
from triblock import catalog
from triblock.kclass import (
    InvariantViolationError,
    KClass,
    chi,
    exceptional_class,
    line_bundle,
    torsion_class,
    twist,
)
from triblock.picard import (
    MINUS_ONE,
    DivisorClass,
    Surface,
    canonical_class,
    enumerate_classes,
    intersect,
)

P2 = Surface.plane(0)


def lb(surface, *coords):
    return line_bundle(DivisorClass(surface, coords))


def test_validate_block_basics():
    x2 = Surface.plane(2)
    b = validate_block([lb(x2, 0, 1, 0), lb(x2, 0, 0, 1)])
    assert b.size == 2
    assert b.rank == 1
    assert b.degree == 1
    assert b.surface == x2
    total = b.class_sum()
    assert (total.rank, tuple(total.c1.coords), total.ch2x2) == (2, (0, 1, 1), -2)
    moved = b.twisted(DivisorClass(x2, (1, 0, 0)))
    assert moved.members == (lb(x2, 1, 1, 0), lb(x2, 1, 0, 1))


def test_validate_block_rejections():
    x1 = Surface.plane(1)
    with pytest.raises(BlockError, match="at least one class"):
        validate_block([])
    with pytest.raises(BlockError, match="not exceptional"):
        validate_block([KClass(x1, 1, DivisorClass.zero(x1), 2)])
    with pytest.raises(BlockError, match="common degree"):
        validate_block([lb(x1, 0, 0), lb(x1, 1, 0)])
    with pytest.raises(BlockError, match="common rank"):
        validate_block([lb(P2, 1), KClass(P2, 2, DivisorClass(P2, (1,)), -1)])
    with pytest.raises(BlockError, match="mutually orthogonal"):
        validate_block([lb(P2, 0), lb(P2, 0)])
    # rank 0 exceptionality only sees c1^2 == -1; c1.K == -1 needs odd 2*ch2
    for ch2x2 in (0, 2):
        with pytest.raises(BlockError, match="parity"):
            validate_block([KClass(x1, 0, DivisorClass.basis(x1, 1), ch2x2)])


def _dropped_block_checks_hold(a, b) -> bool:
    # The oracle: the reverse pairing and the root test on the c1 difference,
    # which validate_block no longer makes, follow from chi(a, b) == 0.
    if chi(a, b) != 0:
        return False
    d = a.c1 - b.c1
    assert chi(b, a) == 0
    assert intersect(d, d) == -2
    assert intersect(d, canonical_class(a.surface)) == 0
    return True


def test_block_orthogonality_implies_dropped_checks_on_catalog():
    for label in catalog.labels():
        for solution in range(catalog.ENTRIES[label].solution_count):
            for block in catalog.build(label, solution).blocks:
                for a, b in product(block.members, repeat=2):
                    if a is not b:
                        assert _dropped_block_checks_hold(a, b)


def test_block_orthogonality_implies_dropped_checks_on_random_pairs():
    rng = random.Random(1997)
    surfaces = [Surface.plane(r) for r in range(1, 9)] + [Surface.quadric()]
    curves = {s: enumerate_classes(s, MINUS_ONE) for s in surfaces}
    pairs = orthogonal = 0
    while pairs < 1500:
        s = rng.choice(surfaces)
        rank = rng.randint(0, 4)
        if rank == 0:
            if not curves[s]:
                continue  # the quadric has no minus-one curves
            ca, cb = rng.choice(curves[s]), rng.choice(curves[s])
            a = torsion_class(s, ca, rng.randint(-2, 2))
            b = torsion_class(s, cb, rng.randint(-2, 2))
        else:
            ca = DivisorClass(s, tuple(rng.randint(-4, 4) for _ in range(s.picard_rank)))
            # c1_b - c1_a orthogonal to K keeps the degree equal
            t = DivisorClass(s, tuple(rng.randint(-1, 1) for _ in range(s.picard_rank)))
            if intersect(t, canonical_class(s)) != 0:
                continue
            try:
                a = exceptional_class(s, rank, ca)
                b = exceptional_class(s, rank, ca + t)
            except ValueError:
                continue
        pairs += 1
        assert chi(a, b) == chi(b, a)
        assert 2 * chi(a, b) == 2 + intersect(a.c1 - b.c1, a.c1 - b.c1)
        orthogonal += _dropped_block_checks_hold(a, b)
    assert orthogonal >= 300


def test_validate_collection_semiorthogonality():
    c = validate_collection([[lb(P2, -1)], [lb(P2, 0)], [lb(P2, 1)]])
    assert c.type_vector == (1, 1, 1)
    assert c.ranks == (1, 1, 1)
    assert len(c) == 3
    assert c.members == (lb(P2, -1), lb(P2, 0), lb(P2, 1))
    with pytest.raises(BlockError, match="not semiorthogonal"):
        validate_collection([[lb(P2, 1)], [lb(P2, 0)]])


def test_failures_name_offending_members():
    # O, O(-1), O(1) on the plane: chi(O(-1), O) = h0(O(1)) = 3
    with pytest.raises(BlockError) as err:
        validate_collection([[lb(P2, 0)], [lb(P2, -1)], [lb(P2, 1)]])
    assert str(err.value) == (
        "chi(block 2 member 1, block 1 member 1) = 3; the collection is not semiorthogonal"
    )
    # chi(O(E2), O(E1)) = 0 and chi(O(E1), O(E1)) = 1 on X2
    x2 = Surface.plane(2)
    with pytest.raises(BlockError) as err:
        validate_collection([[lb(x2, 0, 1, 0)], [lb(x2, 0, 0, 1), lb(x2, 0, 1, 0)]])
    assert str(err.value).startswith("chi(block 2 member 2, block 1 member 1) = 1;")
    with pytest.raises(BlockError) as err:
        validate_block([lb(x2, 0, 1, 0), lb(x2, 0, 0, 1), lb(x2, 0, 1, 0)])
    assert str(err.value) == (
        "chi(member 1, member 3) = 1; block members must be mutually orthogonal"
    )
    with pytest.raises(BlockError) as err:
        validate_collection([[lb(P2, -1)], [lb(P2, 0), lb(P2, 0)]])
    assert str(err.value) == (
        "block 2: chi(member 1, member 2) = 1; block members must be mutually orthogonal"
    )
    x1 = Surface.plane(1)
    with pytest.raises(BlockError) as err:
        validate_collection([[lb(x1, 0, 0)], [lb(x1, 1, 0), KClass(x1, 1, DivisorClass.zero(x1), 2)]])
    assert str(err.value).startswith("block 2: member 2 (rank 1, c1 (0,0), 2ch2 2)")
    assert str(err.value).endswith("is not exceptional")


def test_chi_block_requires_constant_pairing():
    x2 = Surface.plane(2)
    e = validate_block([lb(x2, 0, 1, 0)])
    f = validate_block([lb(x2, 0, 1, 0), lb(x2, 0, 0, 1)])
    with pytest.raises(BlockError, match="not constant"):
        chi_block(e, f)


def test_trivial_transposition_on_quadric():
    quadric = Surface.quadric()
    c = validate_collection([[lb(quadric, 1, 0)], [lb(quadric, 0, 1)]])
    moved, kind = block_mutation(c, 1, "left")
    assert kind.trivial
    assert kind.kind == RECOIL
    assert moved.blocks == (c.blocks[1], c.blocks[0])
    back, kind2 = block_mutation(moved, 1, "right")
    assert kind2.trivial
    assert back == c


def test_recoil_and_division_pair():
    x1 = Surface.plane(1)
    c = validate_collection([[lb(x1, 0, 0)], [lb(x1, 0, 1)]])
    assert chi_block(c.blocks[0], c.blocks[1]) == 1

    shifted = KClass(x1, 0, DivisorClass(x1, (0, 1)), -1)

    left, lk = block_mutation(c, 1, "left")
    assert lk.kind == RECOIL and not lk.trivial
    assert left.blocks[0].members == (shifted,)
    assert left.blocks[1].members == (lb(x1, 0, 0),)

    right, rk = block_mutation(c, 1, "right")
    assert rk.kind == DIVISION
    assert right.blocks[0].members == (lb(x1, 0, 1),)
    assert right.blocks[1].members == (shifted,)

    # the two moves are mutually inverse
    assert block_mutation(left, 1, "right")[0] == c
    assert block_mutation(right, 1, "left")[0] == c


def test_extension_mutation():
    x4 = Surface.plane(4)
    d = DivisorClass(x4, (-1, 1, 1, 1, -1))
    c = validate_collection([[lb(x4, 0, 0, 0, 0, 0)], [line_bundle(d)]])
    assert chi_block(c.blocks[0], c.blocks[1]) == -1
    moved, kind = block_mutation(c, 1, "left")
    assert kind.kind == EXTENSION
    assert moved.blocks[0].members == (KClass(x4, 2, d, -3),)
    assert block_mutation(moved, 1, "right")[0] == c


def test_division_on_plane_triple():
    c = catalog.tau0()
    moved, kind = block_mutation(c, 1, "left")
    assert kind.kind == DIVISION
    assert moved.blocks[0].members == (KClass(P2, 2, DivisorClass(P2, (-3,)), 3),)
    assert moved.blocks[1].members == (lb(P2, -1),)


def test_mutation_argument_errors():
    c = catalog.tau0()
    with pytest.raises(ValueError, match="side"):
        block_mutation(c, 1, "up")
    with pytest.raises(BlockError, match="no adjacent block pair at position 3"):
        block_mutation(c, 3, "left")
    with pytest.raises(BlockError, match="no adjacent block pair at position 0"):
        block_mutation(c, 0, "right")


def test_parse_move():
    assert parse_move("R1") == ("right", 1)
    assert parse_move("l12") == ("left", 12)
    assert parse_move(" R2 ") == ("right", 2)
    for bad in ("X1", "L", "1R", "L-1", ""):
        with pytest.raises(ValueError, match="invalid mutation token"):
            parse_move(bad)


def _int_det(rows) -> int:
    # Bareiss fraction-free elimination; exact over the integers.
    m = [list(r) for r in rows]
    n = len(m)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[-1][-1]


def _coordinate_rows(members):
    return [(m.rank,) + m.c1.coords + (m.ch2x2,) for m in members]


def _complete_by_determinant(c) -> bool:
    # The sheaf classes span an index-two sublattice of the (rank, c1,
    # 2*ch2) vectors, so a basis of it has coordinate determinant +-2.
    if len(c.members) != c.surface.k0_rank:
        return False
    return abs(_int_det(_coordinate_rows(c.members))) == 2


def test_is_complete():
    assert is_complete(catalog.tau0())
    assert is_complete(catalog.quadric_standard())
    # replace the last line bundle by a too-positive one: chi(O(2), O(-1)) = 1
    # breaks semiorthogonality, and the classes span a sublattice of index 3
    tampered = [[lb(P2, -1)], [lb(P2, 0)], [lb(P2, 2)]]
    with pytest.raises(BlockError, match="not semiorthogonal"):
        validate_collection(tampered)
    assert abs(_int_det(_coordinate_rows(m for b in tampered for m in b))) == 6


def _all_builds():
    return [
        catalog.build(label, solution)
        for label in catalog.labels()
        for solution in range(catalog.ENTRIES[label].solution_count)
    ]


def test_is_complete_matches_determinant_oracle():
    moves = ("L1", "L2", "R1", "R2")
    words = [()] + [(a,) for a in moves] + [(a, b) for a in moves for b in moves]
    builds = _all_builds()
    assert len(builds) == 16
    for c in builds:
        for word in words:
            moved = apply_word(c, word)
            assert is_complete(moved) is _complete_by_determinant(moved) is True
            for dropped in range(len(moved.blocks)):
                rest = moved.blocks[:dropped] + moved.blocks[dropped + 1 :]
                sub = validate_collection(rest)
                assert is_complete(sub) is _complete_by_determinant(sub) is False


def test_euler_form_is_unimodular_on_the_parity_lattice():
    # Basis of the classes obeying 2*ch2 == c1.K (mod 2): (1, 0, 0),
    # (0, e_i, e_i.K) and (0, 0, 2).  is_complete relies on det = +-1.
    surfaces = [Surface.plane(r) for r in range(9)] + [Surface.quadric()]
    for surface in surfaces:
        k = canonical_class(surface)
        zero = DivisorClass.zero(surface)
        basis = [KClass(surface, 1, zero, 0)]
        for i in range(surface.picard_rank):
            e = DivisorClass.basis(surface, i)
            basis.append(KClass(surface, 0, e, intersect(e, k)))
        basis.append(KClass(surface, 0, zero, 2))
        assert len(basis) == surface.k0_rank
        gram = [[chi(a, b) for b in basis] for a in basis]
        assert abs(_int_det(gram)) == 1, surface


def test_dual_basis_kronecker():
    for label in ("p2", "quadric", "x3", "x6.1", "x8.2"):
        c = catalog.build(label)
        duals = dual_basis(c)
        members = c.members
        assert len(duals) == len(members)
        for i, m in enumerate(members):
            for j, d in enumerate(duals):
                assert chi(m, d) == (1 if i == j else 0)


def test_dual_basis_explicit_on_plane():
    duals = dual_basis(catalog.tau0())
    assert duals == (
        lb(P2, -1),
        lb(P2, 0) - 3 * lb(P2, -1),
        lb(P2, -2),
    )


def test_dual_basis_requires_three_complete_blocks():
    x1 = Surface.plane(1)
    two = validate_collection([[lb(x1, 0, 0)], [lb(x1, 0, 1)]])
    with pytest.raises(BlockError):
        dual_basis(two)


def test_pairing_vanishing_and_plane_value():
    for label in catalog.labels():
        c = catalog.build(label)
        assert pairing("rank", "rank", c) == 0
        assert pairing("rank", "degree", c) == 0
        assert pairing("degree", "rank", c) == 0
    assert pairing("degree", "degree", catalog.tau0()) == -9
    with pytest.raises(ValueError):
        pairing("rank", "euler", catalog.tau0())


def test_abc_frozen_values():
    assert abc(catalog.tau0()) == (3, 3, 3)
    assert abc(catalog.quadric_standard()) == (2, 4, 2)
    assert abc(catalog.build("x3")) == (1, 2, 3)


def test_abc_quadratic_relations_everywhere():
    for label in catalog.labels():
        c = catalog.build(label)
        a, b, cc = abc(c)
        alpha, beta, gamma = c.type_vector
        x, y, z = c.ranks
        ksq = c.surface.k_squared
        assert a * a * beta * gamma == ksq * alpha * x * x
        assert b * b * alpha * gamma == ksq * beta * y * y
        assert cc * cc * alpha * beta == ksq * gamma * z * z
        lhs = a * a * beta * gamma + b * b * alpha * gamma + cc * cc * alpha * beta
        assert lhs == a * b * cc * alpha * beta * gamma


def test_abc_requires_three_blocks():
    x1 = Surface.plane(1)
    two = validate_collection([[lb(x1, 0, 0)], [lb(x1, 0, 1)]])
    with pytest.raises(BlockError):
        abc(two)


def test_helix_shift_matches_double_mutation():
    for label in ("p2", "x5", "x7.2"):
        c = catalog.build(label)
        assert helix_shift(c, 1) == apply_word(c, ("R1", "R2"))
        assert helix_shift(c, -1) == apply_word(c, ("L2", "L1"))


def test_helix_round_trip_and_period():
    c = catalog.build("x4")
    assert helix_shift(helix_shift(c, 1), -1) == c
    thrice = helix_shift(helix_shift(helix_shift(c, 1), 1), 1)
    minus_k = -canonical_class(c.surface)
    expected = tuple(twist(m, minus_k) for m in c.members)
    assert thrice.members == expected


def test_helix_shift_twist_recognition():
    c = catalog.tau0()
    shifted = helix_shift(c, 1)
    assert equivalent_up_to_twist(c, shifted) == DivisorClass(P2, (1,))
    x61 = catalog.build("x6.1")
    assert equivalent_up_to_twist(x61, helix_shift(x61, 1)) is None
    assert equivalent_up_to_twist(x61, helix_shift(x61, -1)) is None


def test_braid_relation_spot_checks():
    for label in ("p2", "x3"):
        c = catalog.build(label)
        lhs = apply_word(c, ("R1", "R2", "R1"))
        rhs = apply_word(c, ("R2", "R1", "R2"))
        assert lhs.members == rhs.members


def test_apply_word_inverses():
    c = catalog.build("x8.2")
    assert apply_word(c, ("R1", "L1")) == c
    assert apply_word(c, ("L2", "R2")) == c
    assert apply_word(c, ("R1", "R2", "R1", "L1", "L2", "L1")) == c


def test_block_rank_triple():
    assert block_rank_triple(catalog.tau0()) == (1, 1, 1)
    assert block_rank_triple(catalog.build("x4")) == (1, 2, 1)
    x1 = Surface.plane(1)
    two = validate_collection([[lb(x1, 0, 0)], [lb(x1, 0, 1)]])
    with pytest.raises(BlockError):
        block_rank_triple(two)


def test_mutation_preserves_completeness_and_type():
    c = catalog.build("x6.2")
    for token in ("L1", "L2", "R1", "R2"):
        moved = apply_word(c, (token,))
        assert is_complete(moved)
        assert sorted(moved.type_vector) == sorted(c.type_vector)
