"""The cataloged three-block collections and their construction words.

The mid-word checkpoints freeze hand-checked intermediate states of the
longer constructions, so a regression in the mutation engine points at the
exact move that broke.
"""

import pytest

from triblock import catalog, weyl
from triblock.blockcalc import apply_word
from triblock.kclass import InvariantViolationError
from triblock.picard import DivisorClass, Surface

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
    assert catalog.ENTRIES["x8.4"].solution_count == 2
    for label in TABLE:
        if label not in ("x4", "x8.4"):
            assert catalog.ENTRIES[label].solution_count == 1
    assert catalog.build("x4", solution=1).ranks == (2, 1, 1)
    assert catalog.build("x8.4", solution=1).ranks == (5, 1, 2)


def test_build_errors():
    with pytest.raises(ValueError, match="unknown catalog label"):
        catalog.build("x9")
    with pytest.raises(ValueError, match="out of range"):
        catalog.build("p2", solution=1)
    with pytest.raises(ValueError, match="out of range"):
        catalog.build("x4", solution=2)
    with pytest.raises(ValueError, match="out of range"):
        catalog.build("x4", solution=-1)


def test_build_is_cached():
    assert catalog.build("x8.1") is catalog.build("x8.1")


def test_one_build_per_collection():
    # orbit table, both C witnesses and every verify_entry touch the 16
    # cataloged collections; each is built once, seeds included
    catalog.build.cache_clear()
    weyl.orbit_table()
    for label in weyl.C_WITNESS_LABELS:
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
        for required in (
            "build",
            "complete",
            "equation",
            "ranks solve equation",
            "block classes",
            "abc relations",
        ):
            assert required in names


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
        "slopes",
        "second solution",
    ]
    assert "second solution" not in [c.name for c in catalog.verify_entry("x5")]


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
