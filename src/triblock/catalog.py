"""A catalog of three-block collections, one per Markov-type equation.

Every cataloged collection is *computed*: a seed collection of line bundles
and torsion sheaves on curves is pushed through an explicit braid word, and
the two halves of the distinguished block are merged at the end.  Nothing
in the final collections is typed in by hand; the literal tuples below are
expected values used only to cross-check the computation.

Seeds on the blown-up planes come in two shapes: the pullback of a smaller
collection padded with the torsion block of the extra exceptional curves on
the right (untwisted), or that torsion block on the left twisted by -1.
Either way the seed is a valid four-block collection and the braid word
turns it into a three-block one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .blockcalc import (
    Block,
    BlockCollection,
    apply_word,
    block_rank_triple,
    validate_block,
    validate_collection,
)
from .kclass import InvariantViolationError, KClass, chi, line_bundle, slope, torsion_class
from .markov import check_solution, equation_for, minimum_solutions
from .picard import DivisorClass, Surface, embed

from . import blockcalc


def tau0() -> BlockCollection:
    """The symmetric line-bundle collection on the plane."""
    s = Surface.plane(0)
    return validate_collection(
        [[line_bundle(DivisorClass(s, (d,)))] for d in (-1, 0, 1)]
    )


def quadric_standard() -> BlockCollection:
    """The standard three-block collection on the quadric."""
    s = Surface.quadric()
    rulings = [
        line_bundle(DivisorClass(s, c)) for c in ((0, 0), (1, 0), (0, 1), (1, 1))
    ]
    return validate_collection([[rulings[0]], [rulings[1], rulings[2]], [rulings[3]]])


def torsion_block(surface: Surface, first: int, last: int, m: int = 0) -> Block:
    """The block of sheaves O_{l_i}(m) on the exceptional curves i = first..last."""
    if not 1 <= first <= last <= surface.blowups:
        raise ValueError(f"curve range {first}..{last} not available on {surface}")
    return validate_block(
        [
            torsion_class(surface, DivisorClass.basis(surface, i), m)
            for i in range(first, last + 1)
        ]
    )


def _pullback_blocks(c: BlockCollection, into: Surface) -> list[list[KClass]]:
    return [
        [KClass(into, m.rank, embed(m.c1, into), m.ch2x2) for m in b.members]
        for b in c.blocks
    ]


def _twisted_by_line(c: BlockCollection, amount: int) -> BlockCollection:
    d = DivisorClass(c.surface, (amount,) + (0,) * c.surface.blowups)
    return BlockCollection(tuple(b.twisted(d) for b in c.blocks))


def _seed_pullback_plus_curves(base_label, r, first, last, m=0, line_twist=0):
    def seed() -> BlockCollection:
        surface = Surface.plane(r)
        base = tau0() if base_label is None else build(base_label)
        if line_twist:
            base = _twisted_by_line(base, line_twist)
        blocks = _pullback_blocks(base, surface)
        blocks.append(torsion_block(surface, first, last, m))
        return validate_collection(blocks)

    return seed


def _seed_curves_plus_pullback(base_label, r, first, last, m=-1):
    def seed() -> BlockCollection:
        surface = Surface.plane(r)
        base = tau0() if base_label is None else build(base_label)
        blocks: list = [torsion_block(surface, first, last, m)]
        blocks.extend(_pullback_blocks(base, surface))
        return validate_collection(blocks)

    return seed


def _c(r: int, a: int, *b: int) -> tuple[int, ...]:
    if len(b) > r:
        raise ValueError("too many exceptional coordinates")
    return (a,) + b + (0,) * (r - len(b))


@dataclass(frozen=True)
class CatalogEntry:
    label: str
    seed: object
    word: tuple[str, ...]
    expected_blocks: tuple[frozenset, ...]
    expected_slopes: dict
    alt_words: tuple[tuple[str, ...], ...] = ()
    extra_word: tuple[str, ...] | None = None
    extra_ranks: tuple[int, int, int] | None = None

    @property
    def solution_count(self) -> int:
        return 2 if self.extra_word else 1


_R13 = ("R1", "R2", "R3")
_L33 = ("L3", "L2", "L1")


ENTRIES: dict[str, CatalogEntry] = {
    entry.label: entry
    for entry in (
        CatalogEntry(
            "p2",
            tau0,
            (),
            (
                frozenset({(1, (-1,))}),
                frozenset({(1, (0,))}),
                frozenset({(1, (1,))}),
            ),
            {},
        ),
        CatalogEntry(
            "quadric",
            quadric_standard,
            (),
            (
                frozenset({(1, (0, 0))}),
                frozenset({(1, (1, 0)), (1, (0, 1))}),
                frozenset({(1, (1, 1))}),
            ),
            {},
        ),
        CatalogEntry(
            "x3",
            _seed_pullback_plus_curves(None, 3, 1, 3),
            _R13 + ("R3",),
            (
                frozenset({(1, _c(3, 0))}),
                frozenset({(1, _c(3, 1)), (1, _c(3, 2, -1, -1, -1))}),
                frozenset(
                    {
                        (1, _c(3, 2, 0, -1, -1)),
                        (1, _c(3, 2, -1, 0, -1)),
                        (1, _c(3, 2, -1, -1, 0)),
                    }
                ),
            ),
            {},
        ),
        CatalogEntry(
            "x4",
            _seed_pullback_plus_curves(None, 4, 1, 4),
            _R13 + ("R3", "L2"),
            (
                frozenset({(1, _c(4, 0))}),
                frozenset({(2, _c(4, 3, -1, -1, -1, -1))}),
                frozenset(
                    {
                        (1, _c(4, 1)),
                        (1, _c(4, 2, 0, -1, -1, -1)),
                        (1, _c(4, 2, -1, 0, -1, -1)),
                        (1, _c(4, 2, -1, -1, 0, -1)),
                        (1, _c(4, 2, -1, -1, -1, 0)),
                    }
                ),
            ),
            {1: Fraction(5, 2)},
            extra_word=("R1", "R2", "R2"),
            extra_ranks=(2, 1, 1),
        ),
        CatalogEntry(
            "x5",
            _seed_curves_plus_pullback("x3", 5, 4, 5),
            ("R1",) + _R13,
            (
                frozenset({(1, _c(5, 0, 0, 0, 0, 1)), (1, _c(5, 0, 0, 0, 0, 0, 1))}),
                frozenset({(1, _c(5, 1)), (1, _c(5, 2, -1, -1, -1))}),
                frozenset(
                    {
                        (1, _c(5, 3, -1, -1, -1, -1, -1)),
                        (1, _c(5, 2, -1, -1, 0)),
                        (1, _c(5, 2, 0, -1, -1)),
                        (1, _c(5, 2, -1, 0, -1)),
                    }
                ),
            ),
            {},
        ),
        CatalogEntry(
            "x6.1",
            _seed_curves_plus_pullback("x3", 6, 4, 6),
            ("R1", "L3") + _R13,
            (
                frozenset(
                    {
                        (1, _c(6, 0, 0, 0, 0, 1)),
                        (1, _c(6, 0, 0, 0, 0, 0, 1)),
                        (1, _c(6, 0, 0, 0, 0, 0, 0, 1)),
                    }
                ),
                frozenset(
                    {
                        (1, _c(6, 1, -1)),
                        (1, _c(6, 1, 0, -1)),
                        (1, _c(6, 1, 0, 0, -1)),
                    }
                ),
                frozenset(
                    {
                        (1, _c(6, 3, -1, -1, -1, -1, -1, -1)),
                        (1, _c(6, 1)),
                        (1, _c(6, 2, -1, -1, -1)),
                    }
                ),
            ),
            {},
        ),
        CatalogEntry(
            "x6.2",
            _seed_curves_plus_pullback(None, 6, 1, 6),
            ("R2", "R1") + _R13 + _R13,
            (
                frozenset({(2, _c(6, 1))}),
                frozenset({(1, _c(6, 1)), (1, _c(6, 3, -1, -1, -1, -1, -1, -1))}),
                frozenset(
                    {
                        (1, _c(6, 3, 0, -1, -1, -1, -1, -1)),
                        (1, _c(6, 3, -1, 0, -1, -1, -1, -1)),
                        (1, _c(6, 3, -1, -1, 0, -1, -1, -1)),
                        (1, _c(6, 3, -1, -1, -1, 0, -1, -1)),
                        (1, _c(6, 3, -1, -1, -1, -1, 0, -1)),
                        (1, _c(6, 3, -1, -1, -1, -1, -1, 0)),
                    }
                ),
            ),
            {0: Fraction(3, 2)},
        ),
        CatalogEntry(
            "x7.1",
            _seed_pullback_plus_curves(None, 7, 1, 7),
            ("R1", "L3") + _L33 + ("R1",) + _R13,
            (
                frozenset({(2, _c(7, -2, 1, 1, 1, 1, 1, 1, 1))}),
                frozenset({(2, _c(7, 1))}),
                frozenset(
                    {(1, _c(7, 3, -1, -1, -1, -1, -1, -1, -1))}
                    | {(1, _c(7, 1, *(-1 if j == i else 0 for j in range(1, 8)))) for i in range(1, 8)}
                ),
            ),
            {0: Fraction(1, 2), 1: Fraction(3, 2)},
            alt_words=(("R1", "L3", "L3", "L2", "R1", "R2", "R3"),),
        ),
        CatalogEntry(
            "x7.2",
            _seed_curves_plus_pullback("x3", 7, 4, 7),
            ("L3", "R1") + _L33 + ("R1",) + _R13,
            (
                frozenset(
                    {
                        (2, _c(7, -2, 1, 1, 1, 1, 1, 1, 1)),
                        (2, _c(7, -1, 0, 0, 0, 1, 1, 1, 1)),
                    }
                ),
                frozenset(
                    {
                        (1, _c(7, 0, 0, 0, 0, 1)),
                        (1, _c(7, 0, 0, 0, 0, 0, 1)),
                        (1, _c(7, 0, 0, 0, 0, 0, 0, 1)),
                        (1, _c(7, 0, 0, 0, 0, 0, 0, 0, 1)),
                    }
                ),
                frozenset(
                    {
                        (1, _c(7, 3, -1, -1, -1, -1, -1, -1, -1)),
                        (1, _c(7, 1, -1)),
                        (1, _c(7, 1, 0, -1)),
                        (1, _c(7, 1, 0, 0, -1)),
                    }
                ),
            ),
            {0: Fraction(1, 2)},
        ),
        CatalogEntry(
            "x7.3",
            _seed_curves_plus_pullback("x6.1", 7, 7, 7),
            ("R1",) + _R13,
            (
                frozenset({(3, _c(7, 0, 0, 0, 0, 1, 1, 1, 1))}),
                frozenset({(1, _c(7, 1, -1)), (1, _c(7, 1, 0, -1)), (1, _c(7, 1, 0, 0, -1))}),
                frozenset(
                    {
                        (1, _c(7, 1)),
                        (1, _c(7, 2, -1, -1, -1)),
                        (1, _c(7, 3, -1, -1, -1, 0, -1, -1, -1)),
                        (1, _c(7, 3, -1, -1, -1, -1, 0, -1, -1)),
                        (1, _c(7, 3, -1, -1, -1, -1, -1, 0, -1)),
                        (1, _c(7, 3, -1, -1, -1, -1, -1, -1, 0)),
                    }
                ),
            ),
            {0: Fraction(4, 3)},
        ),
        CatalogEntry(
            "x8.1",
            _seed_pullback_plus_curves(None, 8, 1, 8, line_twist=-1),
            ("R1", "L3") + _L33 + ("L1", "L2"),
            (
                frozenset({(3, _c(8, -7, 2, 2, 2, 2, 2, 2, 2, 2))}),
                frozenset({(3, _c(8, -4, 1, 1, 1, 1, 1, 1, 1, 1))}),
                frozenset(
                    {(1, _c(8, -3, 1, 1, 1, 1, 1, 1, 1, 1))}
                    | {(1, _c(8, 0, *(-1 if j == i else 0 for j in range(1, 9)))) for i in range(1, 9)}
                ),
            ),
            {0: Fraction(-5, 3), 1: Fraction(-4, 3)},
        ),
        CatalogEntry(
            "x8.2",
            _seed_curves_plus_pullback("x3", 8, 4, 8),
            ("L3", "L3", "R1", "R1") + _R13,
            (
                frozenset({(4, _c(8, 0, 0, 0, 0, 1, 1, 1, 1, 1))}),
                frozenset({(2, _c(8, 1)), (2, _c(8, 2, -1, -1, -1))}),
                frozenset(
                    {(1, _c(8, 3, -1, -1, -1, *(0 if j == i else -1 for j in range(4, 9)))) for i in range(4, 9)}
                    | {(1, _c(8, 1, *(-1 if j == i else 0 for j in range(1, 9)))) for i in (1, 2, 3)}
                ),
            ),
            {0: Fraction(5, 4), 1: Fraction(3, 2)},
        ),
        CatalogEntry(
            "x8.3",
            _seed_curves_plus_pullback("x6.1", 8, 7, 8),
            ("R1", "L3") + _R13,
            (
                frozenset(
                    {
                        (3, _c(8, 0, 0, 0, 0, 1, 1, 1, 1, 0)),
                        (3, _c(8, 0, 0, 0, 0, 1, 1, 1, 0, 1)),
                    }
                ),
                frozenset(
                    {
                        (2, _c(8, 1)),
                        (2, _c(8, 2, -1, -1, -1)),
                        (2, _c(8, 0, 0, 0, 0, 1, 1, 1)),
                    }
                ),
                frozenset(
                    {(1, _c(8, 3, -1, -1, -1, *(0 if j == i else -1 for j in range(4, 9)))) for i in (4, 5, 6)}
                    | {(1, _c(8, 1, *(-1 if j == i else 0 for j in range(1, 9)))) for i in (1, 2, 3)}
                ),
            ),
            {0: Fraction(4, 3), 1: Fraction(3, 2)},
        ),
        CatalogEntry(
            "x8.4",
            _seed_pullback_plus_curves("x3", 8, 4, 8),
            ("L2", "R1", "L3") + _R13,
            (
                frozenset({(5, _c(8, 6, -2, -2, -2))}),
                frozenset(
                    {(2, _c(8, 3, -1, -1, -1, *(-1 if j == i else 0 for j in range(4, 9)))) for i in range(4, 9)}
                ),
                frozenset(
                    {
                        (1, _c(8, 1)),
                        (1, _c(8, 2, -1, -1, -1)),
                        (1, _c(8, 4, -2, -1, -1, -1, -1, -1, -1, -1)),
                        (1, _c(8, 4, -1, -2, -1, -1, -1, -1, -1, -1)),
                        (1, _c(8, 4, -1, -1, -2, -1, -1, -1, -1, -1)),
                    }
                ),
            ),
            {0: Fraction(12, 5), 1: Fraction(5, 2)},
            extra_word=("L2", "L1", "L1"),
            extra_ranks=(5, 1, 2),
        ),
    )
}


def labels() -> tuple[str, ...]:
    return tuple(ENTRIES)


def _merge_distinguished(c: BlockCollection) -> BlockCollection:
    # Exactly one adjacent pair must be mutually orthogonal; gluing it is
    # what turns the four braid blocks into the final three.  c is valid, so
    # chi(later, earlier) already vanishes and only chi(earlier, later) is
    # left to test.
    mergeable = []
    for i in range(len(c.blocks) - 1):
        a, b = c.blocks[i], c.blocks[i + 1]
        if all(chi(x, y) == 0 for x in a.members for y in b.members):
            mergeable.append(i)
    if len(mergeable) != 1:
        raise InvariantViolationError(
            f"expected exactly one mergeable adjacent pair, found {len(mergeable)}"
        )
    i = mergeable[0]
    blocks = (
        c.blocks[:i]
        + (c.blocks[i].members + c.blocks[i + 1].members,)
        + c.blocks[i + 2 :]
    )
    try:
        return validate_collection(blocks)
    except Exception as exc:
        raise InvariantViolationError(f"merged collection is invalid: {exc}") from exc


def _entry(label: str) -> CatalogEntry:
    if label not in ENTRIES:
        raise ValueError(f"unknown catalog label {label!r}; known: {', '.join(ENTRIES)}")
    return ENTRIES[label]


@lru_cache(maxsize=None)
def build(label: str, solution: int = 0) -> BlockCollection:
    """Construct the cataloged collection for the equation label.

    ``solution`` selects among the cataloged minimal solutions when the
    equation has more than one (a second braid word is applied on top).
    """
    entry = _entry(label)
    if not 0 <= solution < entry.solution_count:
        raise ValueError(
            f"{label} has {entry.solution_count} cataloged solution(s); "
            f"index {solution} is out of range"
        )
    c = entry.seed()
    if entry.word:
        c = apply_word(c, entry.word)
    if len(c.blocks) != 3:
        c = _merge_distinguished(c)
    if solution == 1:
        c = apply_word(c, entry.extra_word)
    return c


@dataclass(frozen=True)
class CatalogCheck:
    name: str
    ok: bool
    detail: str = ""


def _block_signature(b: Block) -> frozenset:
    return frozenset((m.rank, m.c1.coords) for m in b.members)


def verify_entry(label: str) -> list[CatalogCheck]:
    """Re-run the construction and compare with the stored expected data."""
    entry = _entry(label)
    checks: list[CatalogCheck] = []
    try:
        c = build(label)
    except Exception as exc:  # pragma: no cover - a failed build fails everything
        return [CatalogCheck("build", False, str(exc))]
    checks.append(CatalogCheck("build", True, f"type {c.type_vector}, ranks {c.ranks}"))

    complete = blockcalc.is_complete(c)
    checks.append(CatalogCheck("complete", complete))

    eq = equation_for(c.surface, c.type_vector)
    checks.append(CatalogCheck("equation", eq.label == label, f"matched {eq.label}"))

    triple = block_rank_triple(c)
    solves = check_solution(eq, triple)
    minima = minimum_solutions(eq)
    minimal = triple in minima
    checks.append(
        CatalogCheck("ranks solve equation", solves and minimal, f"ranks {triple}")
    )

    expected = entry.expected_blocks
    got = tuple(_block_signature(b) for b in c.blocks)
    checks.append(
        CatalogCheck(
            "block classes",
            got == expected,
            "all members match" if got == expected else f"mismatch: {got}",
        )
    )

    slopes_ok = all(
        slope(c.blocks[i].members[0]) == mu for i, mu in entry.expected_slopes.items()
    )
    checks.append(CatalogCheck("slopes", slopes_ok))

    try:
        a, b, cc = blockcalc.abc(c)
        checks.append(CatalogCheck("abc relations", True, f"(a,b,c)=({a},{b},{cc})"))
    except Exception as exc:
        checks.append(CatalogCheck("abc relations", False, str(exc)))

    for j, word in enumerate(entry.alt_words):
        alt = entry.seed()
        alt = apply_word(alt, word)
        if len(alt.blocks) != 3:
            alt = _merge_distinguished(alt)
        same = tuple(_block_signature(b) for b in alt.blocks) == got
        checks.append(CatalogCheck(f"alternate word {j + 1}", same))

    if entry.extra_word:
        c2 = build(label, 1)
        triple2 = block_rank_triple(c2)
        ok2 = (
            triple2 == entry.extra_ranks
            and check_solution(eq, triple2)
            and triple2 in minima
            and blockcalc.is_complete(c2)
        )
        checks.append(
            CatalogCheck("second solution", ok2, f"ranks {triple2}")
        )
    return checks
