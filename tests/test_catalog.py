"""The cataloged three-block collections and their construction words.

The mid-word checkpoints freeze hand-checked intermediate states of the
longer constructions, so a regression in the mutation engine points at the
exact move that broke.
"""

import random

import pytest

from triblock import catalog, weyl
from triblock.blockcalc import Block, BlockCollection, apply_word
from triblock.kclass import InvariantViolationError, KClass, line_bundle, slope
from triblock.picard import DivisorClass, Surface, canonical_class

# label -> (surface name, block sizes, block ranks), in collection order
TABLE = {
    "p2": ("P2", (1, 1, 1), (1, 1, 1)),
    "quadric": ("quadric", (1, 2, 1), (1, 1, 1)),
    "x3": ("X3", (1, 2, 3), (1, 1, 1)),
    "x4": ("X4", (1, 1, 5), (1, 2, 1)),
    "x5": ("X5", (2, 2, 4), (1, 1, 1)),
    "x6.1": ("X6", (3, 3, 3), (1, 1, 1)),
    "x6.2": ("X6", (1, 2, 6), (2, 1, 1)),
    "x7.1": ("X7", (1, 1, 8), (2, 2, 1)),
    "x7.2": ("X7", (2, 4, 4), (2, 1, 1)),
    "x7.3": ("X7", (1, 3, 6), (3, 1, 1)),
    "x8.1": ("X8", (1, 1, 9), (3, 3, 1)),
    "x8.2": ("X8", (1, 2, 8), (4, 2, 1)),
    "x8.3": ("X8", (2, 3, 6), (3, 2, 1)),
    "x8.4": ("X8", (1, 5, 5), (5, 2, 1)),
}


def blocks_as_triples(c):
    return [
        sorted((m.rank, tuple(m.c1.coords), m.ch2x2) for m in b.members)
        for b in c.blocks
    ]


def test_labels():
    assert catalog.labels() == tuple(TABLE)


def test_table():
    for label, (surface_name, sizes, ranks) in TABLE.items():
        c = catalog.build(label)
        assert c.surface.name == surface_name
        assert c.type_vector == sizes
        assert c.ranks == ranks
        assert sum(sizes) == c.surface.k0_rank


def test_second_solutions():
    assert catalog.ENTRIES["x4"].solution_count == 2
    with pytest.raises(AttributeError):
        catalog.ENTRIES["x4"].extra_word = None
    assert catalog.ENTRIES["x8.4"].solution_count == 2
    for label in TABLE:
        if label not in ("x4", "x8.4"):
            assert catalog.ENTRIES[label].solution_count == 1
        builds = catalog.builds(label)
        assert len(builds) == catalog.ENTRIES[label].solution_count
        assert all(c is catalog.build(label, i) for i, c in enumerate(builds))
    assert catalog.build("x4", solution=1).ranks == (2, 1, 1)
    assert catalog.build("x8.4", solution=1).ranks == (5, 1, 2)


def test_words_lead_from_the_seed_to_each_build():
    for label in TABLE:
        assert catalog.word(label) == catalog.ENTRIES[label].word
    assert catalog.word("x4", 1) == ("R1", "R2", "R3", "R3", "L2", "R1", "R2", "R2")
    # The second solution's word continues the first past the merge.
    for label in ("x4", "x8.4"):
        first, second = catalog.word(label, 0), catalog.word(label, 1)
        assert second[: len(first)] == first
        assert apply_word(catalog.build(label, 0), second[len(first) :]) == catalog.build(label, 1)


def test_build_errors():
    with pytest.raises(ValueError, match="unknown catalog label"):
        catalog.build("x9")
    with pytest.raises(ValueError, match="out of range"):
        catalog.build("p2", solution=1)
    with pytest.raises(ValueError, match="out of range"):
        catalog.build("x4", solution=2)
    with pytest.raises(ValueError, match="out of range"):
        catalog.build("x4", solution=-1)
    for fn in (catalog.builds, catalog.word):
        with pytest.raises(ValueError, match="unknown catalog label"):
            fn("x9")
    for label, solution in (("p2", 1), ("x4", 2), ("x4", -1)):
        with pytest.raises(ValueError, match=f"^{label} has .* index {solution} is out of range$"):
            catalog.word(label, solution)


def test_build_is_cached():
    assert catalog.build("x8.1") is catalog.build("x8.1")


def test_one_build_per_collection():
    # orbit table, both C witnesses and every verify_entry touch the 16
    # cataloged collections; each is built once, seeds included.  Orbit
    # rows are cached on top of the builds, so they are cleared too.
    catalog.build.cache_clear()
    weyl.orbit_row.cache_clear()
    weyl.orbit_table()
    for label in weyl.C_WITNESSES:
        assert weyl.verify_c(label)
    for label in catalog.labels():
        catalog.verify_entry(label)
    info = catalog.build.cache_info()
    assert (info.misses, info.currsize) == (16, 16)


def test_verify_every_entry():
    for label in catalog.labels():
        checks = catalog.verify_entry(label)
        assert all(c.ok for c in checks), [
            (c.name, c.detail) for c in checks if not c.ok
        ]
        names = [c.name for c in checks]
        with pytest.raises(AttributeError):
            checks[0].ok = False
        for required in (
            "build",
            "complete",
            "equation",
            "ranks solve equation",
            "block classes",
            "abc relations",
        ):
            assert required in names


def test_block_classes_pad_short_coordinates(monkeypatch):
    # A stored c1 may stop early: (0,) stands for (0, 0, 0, 0) on X3.  A
    # class off in one coordinate, or longer than the surface allows, fails.
    entry = catalog.ENTRIES["x3"]
    assert entry.expected_blocks[0] == frozenset({(1, (0,))})
    for head, ok in (((0, 0, 0, 0), True), ((0, 0, 0, 1), False), ((0, 0, 0, 0, 0), False)):
        blocks = (frozenset({(1, head)}),) + entry.expected_blocks[1:]
        monkeypatch.setitem(catalog.ENTRIES, "x3", entry._replace(expected_blocks=blocks))
        (record,) = [c for c in catalog.verify_entry("x3") if c.name == "block classes"]
        assert record.ok == ok
        assert record.detail.startswith("all members match" if ok else "mismatch: ")


def test_verify_reports_second_solution():
    names = [c.name for c in catalog.verify_entry("x4")]
    assert names == [
        "build",
        "blocks and semiorthogonality",
        "complete",
        "block slopes",
        "ranks solve equation",
        "abc relations",
        "equation",
        "minimal solution",
        "block classes",
        "second solution",
    ]
    assert "second solution" not in [c.name for c in catalog.verify_entry("x5")]


def test_block_slopes_compare_exactly():
    # mu(E) < mu(F) < mu(G) < mu(E) + K^2 on every build and on its images
    # under every braid word of length <= 2; every other record holds too.
    moves = ("L1", "L2", "R1", "R2")
    words = [()] + [(m,) for m in moves] + [(m, n) for m in moves for n in moves]
    for label in catalog.labels():
        for c in catalog.builds(label):
            for word in words:
                records = catalog.checks(apply_word(c, word))
                assert [r.name for r in records if r.name == "block slopes"] == ["block slopes"]
                assert all(r.ok for r in records), (label, word, records)


def test_block_slopes_fail_out_of_order():
    # Unvalidated on purpose: permuted blocks break the slope order, and
    # G(-K) keeps it but has mu(G) + K^2 > mu(E) + K^2.
    c = catalog.build("x3", 0)
    e, f, g = c.blocks
    g_minus_k = g.twisted(-canonical_class(c.surface))
    for blocks in ((f, e, g), (e, g, f), (g, e, f), (e, f, g_minus_k)):
        record = next(
            r for r in catalog.checks(BlockCollection(blocks)) if r.name == "block slopes"
        )
        assert not record.ok, record



def _fraction_slopes(c):
    # The "block slopes" record as kclass.slope's Fractions give it.
    mu = [slope(b.members[0]) for b in c.blocks]
    ok = mu[0] < mu[1] < mu[2] < mu[0] + c.surface.k_squared
    return catalog.Check("block slopes", ok, " < ".join(map(str, mu)))


def test_block_slopes_record_matches_fraction_slopes():
    # Every build and seeded braid images of it, also with one block
    # negated (negative rank) or swapped for torsion sheaves on the
    # exceptional curves (rank 0), and with the blocks permuted: the
    # integer comparison gives the record the Fractions give.
    rng = random.Random(31)
    moves = ("L1", "L2", "R1", "R2")
    seen = set()
    for label in catalog.labels():
        for c in catalog.builds(label):
            s = c.surface
            for _ in range(6):
                word = [rng.choice(moves) for _ in range(rng.randint(0, 5))]
                blocks = list(apply_word(c, word).blocks)
                j = rng.randrange(3)
                if rng.random() < 0.3:
                    blocks[j] = Block(tuple(-m for m in blocks[j].members))
                elif rng.random() < 0.3 and s.blowups >= blocks[j].size:
                    blocks[j] = catalog.torsion_block(s, 1, blocks[j].size, rng.randint(-2, 2))
                if rng.random() < 0.3:
                    rng.shuffle(blocks)
                image = BlockCollection(tuple(blocks))
                (record,) = [r for r in catalog.checks(image) if r.name == "block slopes"]
                assert record == _fraction_slopes(image), (label, image)
                seen.add((record.ok, min(b.rank for b in blocks) < 0, "inf" in record.detail))
    assert seen >= {(True, False, False), (False, True, False), (False, False, True)}, seen


def test_slopes_compare_as_integers():
    # (d, r) pairs with r > 0, r = 0 and r < 0; on X1 the class of c1
    # (0, -d) has degree d.
    x1 = Surface.plane(1)
    classes = [
        KClass(r, DivisorClass(x1, (0, -d)), 0) for r in range(-4, 5) for d in range(-6, 7)
    ]
    for e in classes:
        mu = catalog._slope(e, x1)
        assert mu[1] >= 0
        assert catalog._slope_text(mu) == str(slope(e))
        for f in classes:
            assert catalog._slope_below(mu, catalog._slope(f, x1)) == (slope(e) < slope(f))

def test_standard_plane_and_quadric():
    t = catalog.tau0()
    assert blocks_as_triples(t) == [
        [(1, (-1,), 1)],
        [(1, (0,), 0)],
        [(1, (1,), 1)],
    ]
    q = catalog.quadric_standard()
    assert blocks_as_triples(q) == [
        [(1, (0, 0), 0)],
        [(1, (0, 1), 0), (1, (1, 0), 0)],
        [(1, (1, 1), 2)],
    ]


def test_torsion_block():
    x3 = Surface.plane(3)
    b = catalog.torsion_block(x3, 1, 3)
    assert b.size == 3
    assert b.rank == 0
    assert {tuple(m.c1.coords) for m in b.members} == {
        (0, 1, 0, 0),
        (0, 0, 1, 0),
        (0, 0, 0, 1),
    }
    assert all(m.ch2x2 == 1 for m in b.members)
    shifted = catalog.torsion_block(x3, 2, 2, m=-1)
    assert [m.ch2x2 for m in shifted.members] == [-1]
    with pytest.raises(ValueError, match="curve range"):
        catalog.torsion_block(x3, 0, 2)
    with pytest.raises(ValueError, match="curve range"):
        catalog.torsion_block(x3, 1, 4)
    with pytest.raises(ValueError, match="curve range"):
        catalog.torsion_block(x3, 3, 2)


def test_seed_shape_and_merge_guard():
    seed = catalog.ENTRIES["x3"].seed()
    assert seed.type_vector == (1, 1, 1, 3)
    assert seed.ranks == (1, 1, 1, 0)
    with pytest.raises(InvariantViolationError, match="exactly one mergeable"):
        catalog._merge_distinguished(seed)


def test_merge_validates_only_the_glued_block(monkeypatch):
    # Blocks 2 and 3, O(1) twice, are the one pair of equal slope on the
    # plane; a valid collection never offers them, and gluing them breaks
    # orthogonality, which the glued block's own check names.
    p2 = Surface.plane(0)
    forged = BlockCollection(tuple(
        Block((line_bundle(DivisorClass(p2, (a,))),)) for a in (0, 1, 1, 2)
    ))
    with pytest.raises(InvariantViolationError) as err:
        catalog._merge_distinguished(forged)
    assert str(err.value) == (
        "merged collection is invalid: block 2: chi(member 1, member 2) = 1; "
        "block members must be mutually orthogonal"
    )
    # A valid merge is certified without revalidating the whole collection.
    entry = catalog.ENTRIES["x3"]
    c, built = apply_word(entry.seed(), entry.word), catalog.build("x3")
    assert len(c.blocks) == 4
    monkeypatch.setattr(catalog, "validate_collection", None)
    assert catalog._merge_distinguished(c) == built


def checkpoint(label, prefix_len):
    entry = catalog.ENTRIES[label]
    return blocks_as_triples(apply_word(entry.seed(), entry.word[:prefix_len]))


def test_checkpoint_x71():
    assert checkpoint("x7.1", 5) == [
        [(1, (-2, 1, 1, 1, 1, 1, 1, 1), -3)],
        [(1, (0,) * 8, 0)],
        [(2, (1, 0, 0, 0, 0, 0, 0, 0), -1)],
        sorted(
            (1, tuple(1 if j == 0 else (-1 if j == i else 0) for j in range(8)), 0)
            for i in range(1, 8)
        ),
    ]


def test_checkpoint_x72():
    assert checkpoint("x7.2", 5) == [
        [(1, (-2, 1, 1, 1, 1, 1, 1, 1), -3), (1, (-1, 0, 0, 0, 1, 1, 1, 1), -3)],
        [(1, (0,) * 8, 0)],
        sorted(
            (1, tuple(1 if j == i else 0 for j in range(8)), -1) for i in range(4, 8)
        ),
        sorted(
            (1, tuple(1 if j == 0 else (-1 if j == i else 0) for j in range(8)), 0)
            for i in range(1, 4)
        ),
    ]


def test_checkpoint_x81():
    assert checkpoint("x8.1", 5) == [
        [(1, (-3, 1, 1, 1, 1, 1, 1, 1, 1), 1)],
        [(1, (-1, 0, 0, 0, 0, 0, 0, 0, 0), 1)],
        [(2, (-1, 0, 0, 0, 0, 0, 0, 0, 0), -1)],
        sorted(
            (1, tuple(-1 if j == i else 0 for j in range(9)), -1) for i in range(1, 9)
        ),
    ]


def test_checkpoint_x82():
    assert checkpoint("x8.2", 2) == [
        sorted(
            (0, tuple(1 if j == i else 0 for j in range(9)), -1) for i in range(4, 9)
        ),
        [(1, (0,) * 9, 0)],
        [(2, (1, 0, 0, 0, 0, 0, 0, 0, 0), -1), (2, (2, -1, -1, -1, 0, 0, 0, 0, 0), -1)],
        sorted(
            (1, tuple(1 if j == 0 else (-1 if j == i else 0) for j in range(9)), 0)
            for i in range(1, 4)
        ),
    ]


def test_final_states_are_words_applied_to_seeds():
    # the cached build really is seed -> word -> merge, nothing else
    for label in ("x5", "x6.2"):
        entry = catalog.ENTRIES[label]
        c = apply_word(entry.seed(), entry.word)
        if len(c.blocks) != 3:
            c = catalog._merge_distinguished(c)
        assert c == catalog.build(label)


def test_abc_on_x4():
    from triblock.blockcalc import abc

    assert abc(catalog.build("x4")) == (1, 2, 5)
