"""Blocks, block mutations, duals and helix shifts.

Each mutation case below was worked out by hand on a small surface before
being frozen here; the arithmetic fits on the back of an envelope.
"""

import json
import random
import re
from itertools import chain, product

import pytest

from triblock import blockcalc, cli, weyl
from triblock.blockcalc import (
    DIVISION,
    EXTENSION,
    RECOIL,
    Block,
    BlockCollection,
    BlockError,
    MutationType,
    abc,
    apply_word,
    block_mutation,
    block_rank_triple,
    chi_block,
    dual_basis,
    helix_shift,
    is_complete,
    pairing,
    parse_move,
    twist_normal_form,
    validate_block,
    validate_collection,
)
from triblock import catalog
from triblock.kclass import (
    InvariantViolationError,
    KClass,
    chi,
    degree,
    describe,
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


def exceptional_class(rank, c1):
    # (rank, c1, n) with rank*n = 1 + c1^2 - rank^2, or None if no integer n.
    n, remainder = divmod(1 + intersect(c1, c1) - rank * rank, rank)
    return None if remainder else KClass(rank, c1, n)


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
    with pytest.raises(AttributeError):
        b.members = ()


def test_validate_block_rejections():
    x1 = Surface.plane(1)
    with pytest.raises(BlockError, match="at least one class"):
        validate_block([])
    with pytest.raises(BlockError, match="not exceptional"):
        validate_block([KClass(1, DivisorClass.zero(x1), 2)])
    with pytest.raises(BlockError, match="common degree"):
        validate_block([lb(x1, 0, 0), lb(x1, 1, 0)])
    with pytest.raises(BlockError, match="common rank"):
        validate_block([lb(P2, 1), KClass(2, DivisorClass(P2, (1,)), -1)])
    with pytest.raises(BlockError, match="mutually orthogonal"):
        validate_block([lb(P2, 0), lb(P2, 0)])
    # rank 0 exceptionality only sees c1^2 == -1; c1.K == -1 needs odd 2*ch2
    for ch2x2 in (0, 2):
        with pytest.raises(BlockError, match="parity"):
            validate_block([KClass(0, DivisorClass.basis(x1, 1), ch2x2)])


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
    for c in _all_builds():
        for block in c.blocks:
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
            a = torsion_class(ca, rng.randint(-2, 2))
            b = torsion_class(cb, rng.randint(-2, 2))
        else:
            ca = DivisorClass(s, tuple(rng.randint(-4, 4) for _ in range(s.picard_rank)))
            # c1_b - c1_a orthogonal to K keeps the degree equal
            t = DivisorClass(s, tuple(rng.randint(-1, 1) for _ in range(s.picard_rank)))
            if intersect(t, canonical_class(s)) != 0:
                continue
            a, b = exceptional_class(rank, ca), exceptional_class(rank, ca + t)
            if a is None or b is None:
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
    assert len(c.blocks) == 3
    assert c.members == (lb(P2, -1), lb(P2, 0), lb(P2, 1))
    with pytest.raises(AttributeError):
        c.blocks = c.blocks[:1]
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
        validate_collection([[lb(x1, 0, 0)], [lb(x1, 1, 0), KClass(1, DivisorClass.zero(x1), 2)]])
    assert str(err.value).startswith("block 2: member 2 (rank 1, c1 (0,0), 2ch2 2)")
    assert str(err.value).endswith("is not exceptional")
    with pytest.raises(BlockError) as err:
        validate_collection([[lb(x1, 0, 0)], [lb(x1, 1, 0)], [lb(x2, 0, 0, 0)], [lb(x1, 2, 0)]])
    assert str(err.value) == "block 3 lives on a different surface"
    with pytest.raises(BlockError) as err:
        validate_collection([[lb(x2, 0, 0, 0)], [lb(x1, 0, 0)], [lb(x1, 1, 0)]])
    assert str(err.value) == "block 2 lives on a different surface"



def _validate_by_brute_force(blocks):
    # validate_collection's oracle: every axiom and every pair with chi, in
    # the documented order, raising the same message or returning the same
    # collection.  Exceptional reads chi(m, m) == 1 and the parity reads
    # 2*ch2 + c1.K, so neither uses the rows.
    wrapped = []
    for n, members in enumerate(blocks, 1):
        members = tuple(members)

        def fail(message):
            raise BlockError(f"block {n}: {message}")

        if not members:
            fail("a block must contain at least one class")
        s = members[0].surface
        if any(m.surface != s for m in members):
            fail("block members live on different surfaces")
        for k, m in enumerate(members, 1):
            if chi(m, m) != 1:
                fail(f"member {k} {describe(m)} is not exceptional")
            if (m.ch2x2 + intersect(m.c1, canonical_class(s))) % 2:
                fail(f"member {k} {describe(m)} breaks the sheaf parity 2*ch2 == c1.K (mod 2)")
        if len({m.rank for m in members}) > 1:
            fail("block members must share a common rank")
        if len({degree(m) for m in members}) > 1:
            fail("block members must share a common degree")
        for a, b in ((a, b) for a in range(len(members)) for b in range(a + 1, len(members))):
            if chi(members[a], members[b]):
                fail(
                    f"chi(member {a + 1}, member {b + 1}) = {chi(members[a], members[b])}; "
                    "block members must be mutually orthogonal"
                )
        wrapped.append(Block(members))
    if not wrapped:
        raise BlockError("a collection must contain at least one block")
    for n, b in enumerate(wrapped, 1):
        if b.surface != wrapped[0].surface:
            raise BlockError(f"block {n} lives on a different surface")
    for i, j in ((i, j) for i in range(len(wrapped)) for j in range(i + 1, len(wrapped))):
        for a, later in enumerate(wrapped[j].members):
            for b, earlier in enumerate(wrapped[i].members):
                if chi(later, earlier):
                    raise BlockError(
                        f"chi(block {j + 1} member {a + 1}, block {i + 1} member {b + 1}) "
                        f"= {chi(later, earlier)}; the collection is not semiorthogonal"
                    )
    return BlockCollection(tuple(wrapped))


def _outcome(validate, blocks):
    try:
        return validate(blocks)
    except BlockError as exc:
        return str(exc)


def test_validate_collection_matches_brute_force_oracle():
    # Seeded documents: the sixteen builds under the fuzz test's
    # shape-keeping perturbations, then read back as unvalidated blocks;
    # plus the cases they rarely or never reach: no block, a block or a
    # member from another surface, a member breaking the sheaf parity, and
    # from each build a member negated, which changes its rank and degree,
    # and the last block repeated backwards, which the first nonzero pair
    # read row by row and column by column tell apart.
    from test_fuzz import KEEP_SHAPE, _perturb

    rng = random.Random(31)
    builds = [cli.collection_to_doc(c) for c in _all_builds()]
    x1, quadric = Surface.plane(1), Surface.quadric()
    cases = [[], [[lb(x1, 0, 0)], [lb(quadric, 0, 0)]], [[lb(x1, 0, 0), lb(quadric, 1, 1)]]]
    cases.append([[lb(x1, 0, 0)], [KClass(2, DivisorClass(x1, (2, 1)), 0)]])
    for c in _all_builds():
        blocks = [list(b.members) for b in c.blocks]
        cases.append(blocks + [blocks[-1][::-1]])
        big = max(blocks, key=len)
        cases.append([b[:-1] + [-b[-1]] if b is big else b for b in blocks])
    for _ in range(800):
        doc = json.loads(json.dumps(rng.choice(builds)))
        for _ in range(rng.randint(0, 3)):
            if doc["blocks"] and all(doc["blocks"]):
                doc = _perturb(rng, doc, rng.choice(KEEP_SHAPE))
        s = Surface.from_name(doc["surface"])
        cases.append([
            [KClass(m["rank"], DivisorClass(s, tuple(m["c1"])), m["ch2x2"]) for m in block]
            for block in doc["blocks"]
        ])
    faults = (
        "at least one block", "lives on a different surface", "live on different surfaces",
        "at least one class", "is not exceptional", "breaks the sheaf parity", "common rank",
        "common degree", "mutually orthogonal", "not semiorthogonal",
    )
    seen = {fault: 0 for fault in faults}
    valid = 0
    for blocks in cases:
        expected = _outcome(_validate_by_brute_force, blocks)
        assert _outcome(validate_collection, blocks) == expected
        if isinstance(expected, BlockCollection):
            assert validate_collection(expected.blocks) == expected
            valid += 1
        else:
            seen[next(fault for fault in faults if fault in expected)] += 1
    assert valid > 100 and all(seen.values()), (valid, seen)

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
    assert str(kind) == "recoil (trivial)"
    with pytest.raises(AttributeError):
        kind.trivial = False
    assert moved.blocks == (c.blocks[1], c.blocks[0])
    back, kind2 = block_mutation(moved, 1, "right")
    assert kind2.trivial
    assert back == c


def test_recoil_and_division_pair():
    x1 = Surface.plane(1)
    c = validate_collection([[lb(x1, 0, 0)], [lb(x1, 0, 1)]])
    assert chi_block(c.blocks[0], c.blocks[1]) == 1

    shifted = KClass(0, DivisorClass(x1, (0, 1)), -1)

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
    assert moved.blocks[0].members == (KClass(2, d, -3),)
    assert block_mutation(moved, 1, "right")[0] == c


def test_division_on_plane_triple():
    c = catalog.tau0()
    moved, kind = block_mutation(c, 1, "left")
    assert kind.kind == DIVISION
    assert moved.blocks[0].members == (KClass(2, DivisorClass(P2, (-3,)), 3),)
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
    # Only ASCII digits: Arabic-Indic, fullwidth and superscript digits
    # would otherwise pass str.isdigit().
    for bad in ("X1", "L", "1R", "L-1", "", "R\u0662", "L\uff12", "L\u00b2"):
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
    return [c for label in catalog.labels() for c in catalog.builds(label)]


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
        basis = [KClass(1, zero, 0)]
        for i in range(surface.picard_rank):
            e = DivisorClass.basis(surface, i)
            basis.append(KClass(0, e, intersect(e, k)))
        basis.append(KClass(0, zero, 2))
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


def test_dual_basis_requires_a_complete_collection():
    # [O_E(-1)], [O], [O(H)] on X1: three valid blocks, 3 classes of K0 rank 4.
    x1 = Surface.plane(1)
    c = validate_collection(
        [[torsion_class(DivisorClass.basis(x1, 1), -1)], [lb(x1, 0, 0)], [lb(x1, 1, 0)]]
    )
    assert not is_complete(c)
    with pytest.raises(BlockError, match="^dual basis requires a complete collection$"):
        dual_basis(c)


def test_three_block_guards_name_their_caller():
    x1 = Surface.plane(1)
    two = validate_collection([[lb(x1, 0, 0)], [lb(x1, 0, 1)]])
    for call, what in (
        (dual_basis, "dual basis"),
        (abc, "abc"),
        (lambda c: helix_shift(c, 1), "helix shift"),
        (block_rank_triple, "rank triple"),
    ):
        with pytest.raises(BlockError, match=f"^{what} requires a three-block collection$"):
            call(two)


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
    # One step along the plane's helix twists tau0 by l0; on x6.1 three
    # steps do (test_twist_normal_form_separates_the_x61_helix_shifts).
    c = catalog.tau0()
    (key, d), (shifted_key, shifted_d) = twist_normal_form(c), twist_normal_form(helix_shift(c, 1))
    assert shifted_key == key and d - shifted_d == DivisorClass(P2, (1,))


def _twist_key_cases():
    # The 16 builds and the 14 seeds, whose four-block ones carry a torsion
    # block, each with its images under every single braid move.
    starts = _all_builds() + [catalog.ENTRIES[label].seed() for label in catalog.labels()]
    cases = []
    for c in starts:
        cases.append(c)
        for i in range(1, len(c.blocks)):
            cases.extend(block_mutation(c, i, side)[0] for side in ("left", "right"))
    return cases


def _twisted_and_sorted(c, d):
    return tuple(
        tuple(sorted((m.rank, m.c1.coords, m.ch2x2) for m in b.twisted(d).members))
        for b in c.blocks
    )


def test_twist_normal_form_matches_brute_force_oracle():
    # The key is the collection twisted by the returned d, compared
    # blockwise with members sorted, and d puts the pivot, the least member
    # of the first block of nonzero rank r, in the box floor(c1/r) = 0.
    cases = _twist_key_cases()
    assert len(cases) == 16 * 5 + 2 * 5 + 12 * 7
    for c in cases:
        key, d = twist_normal_form(c)
        assert key == (c.surface,) + _twisted_and_sorted(c, d)
        pivot = next(b for b in c.blocks if b.rank)
        head = min(twist(m, d).c1.coords for m in pivot.members)
        assert all(x // pivot.rank == 0 for x in head)


def test_twist_normal_form_sees_through_twists_and_member_order():
    rng = random.Random(1212)
    for c in _twist_key_cases():
        key, d = twist_normal_form(c)
        s = c.surface
        e = DivisorClass(s, tuple(rng.randint(-9, 9) for _ in range(s.picard_rank)))
        moved = BlockCollection(
            tuple(Block(tuple(rng.sample(b.twisted(e).members, b.size))) for b in c.blocks)
        )
        moved_key, moved_d = twist_normal_form(moved)
        assert moved_key == key
        assert d - moved_d == e


def test_twist_normal_form_separates_the_x61_helix_shifts():
    x61 = catalog.build("x6.1")
    shifts = [helix_shift(x61, k) for k in range(4)]
    keys = [twist_normal_form(c)[0] for c in shifts]
    assert len(set(keys[:3])) == 3
    # Three steps along the helix twist by -K.
    assert keys[3] == keys[0]
    d0, d3 = twist_normal_form(shifts[0])[1], twist_normal_form(shifts[3])[1]
    assert d0 - d3 == -canonical_class(x61.surface)


def test_twist_needs_a_member_of_nonzero_rank():
    x1 = Surface.plane(1)
    c = validate_collection([[torsion_class(DivisorClass.basis(x1, 1), 0)]])
    with pytest.raises(BlockError, match="torsion-only"):
        twist_normal_form(c)


def test_braid_relation_spot_checks():
    for label in ("p2", "x3"):
        c = catalog.build(label)
        lhs = apply_word(c, ("R1", "R2", "R1"))
        rhs = apply_word(c, ("R2", "R1", "R2"))
        assert lhs.members == rhs.members


def test_apply_word_parses_the_whole_word_first(monkeypatch):
    def forbidden(*args):
        raise AssertionError("a move was made before the word was parsed")

    monkeypatch.setattr(blockcalc, "block_mutation", forbidden)
    with pytest.raises(ValueError, match="invalid mutation token 'Q9'"):
        apply_word(catalog.build("x8.3"), ["R1", "Q9"])


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


def _braid_closure():
    # Every step (node, side, i, child, kind) of the 84 braid words of length
    # 1..3 on the 16 builds, one step at a time.
    moves = [("left", 1), ("left", 2), ("right", 1), ("right", 2)]
    for start in _all_builds():
        frontier = [(start, 0)]
        while frontier:
            node, depth = frontier.pop()
            for side, i in moves:
                child, kind = block_mutation(node, i, side)
                yield node, side, i, child, kind
                if depth < 2:
                    frontier.append((child, depth + 1))


def test_mutation_matches_full_revalidation_oracle():
    # block_mutation certifies only the rewritten block; full revalidation of
    # every result stays here as the oracle.  Every step of the closure is a
    # nontrivial division (the flavours frozen from the fully revalidating
    # version), and undoing it gives the step's input back.
    inverse = {"left": "right", "right": "left"}
    steps = 0
    for node, side, i, child, kind in _braid_closure():
        assert validate_collection(child.blocks) == child
        assert kind == MutationType(DIVISION)
        assert block_mutation(child, i, inverse[side])[0] == node
        steps += 1
    assert steps == 16 * (4 + 16 + 64)


def _seeded_steps():
    # Every step (node, side, i, child, kind) of one seeded word of 24 moves
    # from each of the 16 builds.
    rng = random.Random(24)
    moves = [("left", 1), ("left", 2), ("right", 1), ("right", 2)]
    for node in _all_builds():
        for _ in range(24):
            side, i = rng.choice(moves)
            child, kind = block_mutation(node, i, side)
            yield node, side, i, child, kind
            node = child


def _flavour_steps():
    # One step of each flavour, on the small collections mutated above.
    x1, x4, quadric = Surface.plane(1), Surface.plane(4), Surface.quadric()
    pair = validate_collection([[lb(x1, 0, 0)], [lb(x1, 0, 1)]])
    cases = [
        (validate_collection([[lb(quadric, 1, 0)], [lb(quadric, 0, 1)]]), "left", 1),
        (pair, "left", 1),
        (pair, "right", 1),
        (validate_collection([[lb(x4, 0, 0, 0, 0, 0)], [lb(x4, -1, 1, 1, 1, -1)]]), "left", 1),
        (catalog.tau0(), "left", 1),
    ]
    for node, side, i in cases:
        child, kind = block_mutation(node, i, side)
        yield node, side, i, child, kind


def test_seeded_words_match_full_revalidation_oracle():
    inverse = {"left": "right", "right": "left"}
    steps = 0
    for node, side, i, child, kind in _seeded_steps():
        assert validate_collection(child.blocks) == child
        assert block_mutation(child, i, inverse[side])[0] == node
        steps += 1
    assert steps == 16 * 24


def test_valid_mutations_pass_the_certificate(monkeypatch):
    # On the valid path no move falls back to validate_collection, and a
    # move costs one Surface.dot for the chi that reads the cross pairing
    # and one per new member, its exceptionality check; the pairings of the
    # first new member with the others go through its covector.  The closed
    # form that abc and dual_basis read equals that chi at every step.
    steps = list(chain(_braid_closure(), _seeded_steps(), _flavour_steps()))
    assert len(steps) == 16 * (4 + 16 + 64) + 16 * 24 + 5
    assert {str(kind) for *_, kind in steps} == {
        "division", "recoil", "recoil (trivial)", "extension"
    }
    dots = [0]
    real_dot = Surface.dot

    def dot(self, x, y):
        dots[0] += 1
        return real_dot(self, x, y)

    monkeypatch.setattr(blockcalc, "validate_collection", None)  # never reached
    monkeypatch.setattr(Surface, "dot", dot)
    for node, side, i, child, kind in steps:
        e, f = node.blocks[i - 1], node.blocks[i]
        assert blockcalc._cross(e, f) == chi(e.members[0], f.members[0])
        dots[0] = 0
        assert block_mutation(node, i, side) == (child, kind)
        assert dots[0] == 1 + len(child.blocks[i - 1 if side == "left" else i].members)


def _abc_by_brute_force(c):
    e, f, g = c.blocks
    return chi_block(f, g), chi_block(g.twisted(canonical_class(c.surface)), e), chi_block(e, f)


def test_closed_forms_match_brute_force_oracle():
    # The closure, and each of its collections twisted, moved by a simple
    # reflection and shifted one step either way along its helix.
    closure = _all_builds() + [child for _, _, _, child, _ in _braid_closure()]
    reflections = {s: weyl.simple_reflections(s) for s in {c.surface for c in closure}}
    checked = 0
    for n, c in enumerate(closure):
        s = c.surface
        images = [c, helix_shift(c, 1), helix_shift(c, -1)]
        d = DivisorClass.basis(s, n % s.picard_rank)
        images.append(BlockCollection(tuple(b.twisted(d) for b in c.blocks)))
        if reflections[s]:
            images.append(weyl.apply_to_collection(reflections[s][n % len(reflections[s])], c))
        for image in images:
            blocks = image.blocks
            for i in range(3):
                for j in range(i + 1, 3):
                    assert blockcalc._cross(blocks[i], blocks[j]) == chi_block(blocks[i], blocks[j])
            assert abc(image) == _abc_by_brute_force(image)
            checked += 1
    assert len(closure) == 16 * 85
    assert checked == 5 * len(closure) - 85  # P2 has no simple roots


def test_valid_mutations_call_no_pairing_by_brute_force(monkeypatch):
    # One chi per mutation reads the cross pairing, and the hoisted rechecks
    # replace chi_block and chi on the valid path; chi is otherwise left to
    # report a nonzero pairing.
    calls = {"chi_block": 0, "chi": 0}

    def counting(name, fn):
        def counted(*args):
            calls[name] += 1
            return fn(*args)
        return counted

    for name in calls:
        monkeypatch.setattr(blockcalc, name, counting(name, getattr(blockcalc, name)))
    steps = sum(1 for _ in _braid_closure())
    assert steps == 16 * (4 + 16 + 64)
    assert calls == {"chi_block": 0, "chi": steps}
    with pytest.raises(BlockError, match="mutually orthogonal"):
        validate_block([lb(P2, 0), lb(P2, 0)])
    assert calls == {"chi_block": 0, "chi": steps + 1}


def _plus_point(members):
    # Adding a point class keeps rank, c1 and the parity but breaks
    # chi(m, m) = 1 for nonzero rank.
    point = KClass(0, DivisorClass.zero(members[1].surface), 2)
    return members[:1] + (members[1] + point,) + members[2:]


# left@2 on x3 (type (1, 2, 3)) rewrites the last block into position 2; the
# old block 2 becomes block 3.  Each fault replaces the rewritten members.
FAULTS = {
    "not-exceptional": (
        lambda c, new: _plus_point(new),
        r"block 2: member 2 \(rank 1, c1 \(.*\), 2ch2 -?\d+\) is not exceptional",
    ),
    "not-orthogonal": (
        lambda c, new: (new[0], new[0]),
        r"block 2: chi\(member 1, member 2\) = 1; block members must be mutually orthogonal",
    ),
    "into-earlier": (
        lambda c, new: c.blocks[0].members,
        r"chi\(block 2 member 1, block 1 member 1\) = 1; the collection is not semiorthogonal",
    ),
    "from-later": (
        lambda c, new: c.blocks[1].members,
        r"chi\(block 3 member 1, block 2 member 1\) = 1; the collection is not semiorthogonal",
    ),
    "other-surface": (
        lambda c, new: (lb(Surface.plane(2), 0, 0, 0),),
        r"block 2 lives on a different surface",
    ),
    # chi(O(-l0 + l1), O) = 2: the message reports the pairing of the classes.
    "into-earlier-twice": (
        lambda c, new: (lb(c.surface, -1, 1, 0, 0),),
        r"chi\(block 2 member 1, block 1 member 1\) = 2; the collection is not semiorthogonal",
    ),
    # O_C for the curve l1 has 2*ch2 = 1; rank 0 stays exceptional at 2.
    "parity": (
        lambda c, new: (KClass(0, DivisorClass.basis(c.surface, 1), 2),) + new[1:],
        r"block 2: member 1 \(rank 0, c1 \(0,1,0,0\), 2ch2 2\) "
        r"breaks the sheaf parity 2\*ch2 == c1\.K \(mod 2\)",
    ),
    # O(l0 - l1 + l2 - l3) has the new members' rank and degree and is
    # orthogonal to members 1 and 3, but chi(it, O) = -1: member 1 passes the
    # pairings and the brute-force recheck names member 2.
    "member-2-into-earlier": (
        lambda c, new: new[:1] + (lb(c.surface, 1, -1, 1, -1),) + new[2:],
        r"chi\(block 2 member 2, block 1 member 1\) = -1; the collection is not semiorthogonal",
    ),
    # The new members reversed are a valid block, but not the translate of
    # the old block that the mutation produces.
    "permuted": (
        lambda c, new: new[::-1],
        r"block 2 is not a translate of the block it replaces",
    ),
    # A member past the old block's size has no old member to translate.
    "appended": (
        lambda c, new: new + new[:1],
        r"block 2: chi\(member 1, member 4\) = 1; block members must be mutually orthogonal",
    ),
    # The new members have rank 1 and degree 2.  O_C for the curve l1 is
    # exceptional with the parity, but of rank 0.
    "other-rank": (
        lambda c, new: new[:1] + (torsion_class(DivisorClass.basis(c.surface, 1), 0),) + new[2:],
        r"block 2: block members must share a common rank",
    ),
    # O is exceptional of rank 1, but of degree 0.
    "other-degree": (
        lambda c, new: new[:1] + (lb(c.surface, 0, 0, 0, 0),) + new[2:],
        r"block 2: block members must share a common degree",
    ),
    # Two of the three new members are a valid block, and the collection
    # stays valid: only the certificate's equal lengths rule it out.
    "shorter": (
        lambda c, new: new[:-1],
        r"block 2 is not a translate of the block it replaces",
    ),
}


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_mutation_recheck_catches_broken_arithmetic(fault, monkeypatch, tmp_path, capsys):
    c = catalog.build("x3")
    tamper, message = FAULTS[fault]
    real = blockcalc._mutate_members

    def broken(moving, through, chi_val, side):
        new, kind = real(moving, through, chi_val, side)
        return tamper(c, new), kind

    monkeypatch.setattr(blockcalc, "_mutate_members", broken)
    with pytest.raises(InvariantViolationError) as err:
        block_mutation(c, 2, "left")
    assert re.fullmatch(
        "mutation left@2 produced an invalid collection: " + message, str(err.value)
    ), str(err.value)

    path = tmp_path / "x3.json"
    path.write_text(json.dumps(cli.collection_to_doc(c)), encoding="utf-8")
    assert cli.main(["mutate", str(path), "L2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"internal invariant violated: {err.value}\n"


def test_mutation_fault_on_two_blocks_names_the_new_block(monkeypatch):
    # left@1 on (O, O(1)) rewrites block 2 into position 1; two blocks on
    # two surfaces tie, so only the new block's own check can name it.  On
    # the quadric the new class is on P2, whose one coordinate is shorter
    # than the tuples the quadric's degree reads.
    real = blockcalc._mutate_members
    for surface, other in ((P2, Surface.plane(2)), (Surface.quadric(), P2)):
        zero = (0,) * surface.picard_rank
        c = validate_collection([[lb(surface, *zero)], [lb(surface, 1, *zero[1:])]])

        def broken(moving, through, chi_val, side):
            return (line_bundle(DivisorClass.zero(other)),), real(moving, through, chi_val, side)[1]

        monkeypatch.setattr(blockcalc, "_mutate_members", broken)
        with pytest.raises(InvariantViolationError) as err:
            block_mutation(c, 1, "left")
        assert str(err.value) == (
            "mutation left@1 produced an invalid collection: block 1 lives on a different surface"
        )


def test_mutation_fault_names_a_foreign_first_member_by_its_surface(monkeypatch):
    # After a failed certificate the surface of the new block's first member
    # is checked before validate_collection, so a forged block whose first
    # member lies on another surface is named by that, whatever else is
    # wrong with it; a foreign member after the first is the block's own
    # fault.
    c = catalog.build("x3")
    x2 = Surface.plane(2)
    foreign = line_bundle(DivisorClass.zero(x2))
    real = blockcalc._mutate_members
    for tamper, message in (
        (lambda new: (KClass(1, DivisorClass.zero(x2), 2),), "block 2 lives on a different surface"),
        (lambda new: (foreign, foreign), "block 2 lives on a different surface"),
        (lambda new: (foreign,) + new[1:], "block 2 lives on a different surface"),
        (lambda new: new[:1] + (foreign,), "block 2: block members live on different surfaces"),
    ):

        def broken(moving, through, chi_val, side, tamper=tamper):
            new, kind = real(moving, through, chi_val, side)
            return tamper(new), kind

        monkeypatch.setattr(blockcalc, "_mutate_members", broken)
        with pytest.raises(InvariantViolationError) as err:
            block_mutation(c, 2, "left")
        assert str(err.value) == "mutation left@2 produced an invalid collection: " + message


def test_certificate_checks_the_coordinate_count(monkeypatch):
    # _mutate_members builds its classes without DivisorClass's count
    # check, so the certificate checks it: a new member with one more
    # coordinate (a zero) or one fewer is rejected.
    c = catalog.build("x3")
    real = blockcalc._mutate_members
    for change in (lambda x: x + (0,), lambda x: x[:-1]):

        def broken(moving, through, chi_val, side):
            new, kind = real(moving, through, chi_val, side)
            m = new[-1]
            c1 = tuple.__new__(DivisorClass, (m.c1.surface, change(m.c1.coords)))
            return new[:-1] + (tuple.__new__(KClass, (m.rank, c1, m.ch2x2)),), kind

        monkeypatch.setattr(blockcalc, "_mutate_members", broken)
        with pytest.raises(InvariantViolationError, match="^mutation left@2 produced an invalid"):
            block_mutation(c, 2, "left")


def _brute_force_accepts(node, side, i, new, kind):
    # The certificate's oracle: the blocks after the move are a valid
    # collection, and the new block is the old one, negated for a division
    # or not, translated by one (c1, 2*ch2).
    e, f = node.blocks[i - 1], node.blocks[i]
    old, pair = (f, (new, e)) if side == "left" else (e, (f, new))
    try:
        validate_collection(node.blocks[: i - 1] + pair + node.blocks[i + 1 :])
    except BlockError:
        return False
    s = 1 if kind.kind == DIVISION else -1
    shifts = {
        (n.ch2x2 + s * o.ch2x2, tuple(a + s * b for a, b in zip(n.c1.coords, o.c1.coords)))
        for n, o in zip(new, old.members)
    }
    return len(new) == len(old.members) and len(shifts) == 1


def test_certificate_matches_brute_force_on_tampered_blocks(monkeypatch):
    # Each seeded step is replayed three times, each time with one
    # coordinate (rank, a c1 coordinate or 2*ch2) of one new member moved
    # by -2..2, 0 leaving the block as it is.  The move raises exactly when
    # brute force rejects its new blocks.
    rng = random.Random(28)
    real = blockcalc._mutate_members
    made = []

    def tampered(moving, through, chi_val, side):
        new, kind = real(moving, through, chi_val, side)
        j = rng.randrange(len(new))
        fields = [new[j].rank, *new[j].c1.coords, new[j].ch2x2]
        fields[rng.randrange(len(fields))] += rng.choice((-2, -1, 0, 1, 2))
        member = KClass(fields[0], DivisorClass(new[j].surface, tuple(fields[1:-1])), fields[-1])
        made[:] = [new[:j] + (member,) + new[j + 1 :], kind]
        return made[0], kind

    steps = list(chain(_seeded_steps(), _flavour_steps()))
    monkeypatch.setattr(blockcalc, "_mutate_members", tampered)
    outcomes = {True: 0, False: 0}
    for node, side, i, _, _ in steps:
        for _ in range(3):
            try:
                block_mutation(node, i, side)
            except InvariantViolationError:
                passed = False
            else:
                passed = True
            assert passed == _brute_force_accepts(node, side, i, *made), (node, side, i, made)
            outcomes[passed] += 1
    assert min(outcomes.values()) > 100, outcomes


LARGE_FAULTS = {
    "not-exceptional": (
        lambda moving, new: (new[0] + KClass(0, DivisorClass.zero(new[0].surface), 2),),
        r"block 2: member 1 \(rank \d{20}\.\.\.\(\d+ digits\), c1 \(.*\), 2ch2 .*\) is not exceptional",
    ),
    "unmoved": (
        lambda moving, new: moving.members,
        r"chi\(block 2 member 1, block 1 member 1\) = \d{20}\.\.\.\(\d+ digits\); "
        r"the collection is not semiorthogonal",
    ),
}


@pytest.mark.parametrize("fault", sorted(LARGE_FAULTS))
def test_recheck_failure_past_the_int_to_str_limit(fault, monkeypatch):
    # 103 seeded right moves on P2 pass 10^4400; the failure must still
    # report the broken invariant, not the int-to-str limit.
    rng = random.Random(1)
    c = apply_word(catalog.build("p2"), [rng.choice(("R1", "R2")) for _ in range(103)])
    assert max(c.ranks) > 10**4400
    tamper, message = LARGE_FAULTS[fault]
    real = blockcalc._mutate_members

    def broken(moving, through, chi_val, side):
        new, kind = real(moving, through, chi_val, side)
        return tamper(moving, new), kind

    monkeypatch.setattr(blockcalc, "_mutate_members", broken)
    with pytest.raises(InvariantViolationError) as err:
        block_mutation(c, 1, "right")
    assert re.fullmatch(
        "mutation right@1 produced an invalid collection: " + message, str(err.value)
    ), str(err.value)[:200]
