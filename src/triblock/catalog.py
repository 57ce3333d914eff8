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

Verification has one path.  :func:`checks` states the paper's claims about
any valid collection and is exactly what ``triblock verify`` prints;
:func:`verify_entry` is :func:`build`, then those checks, then the
comparisons only the catalog can make against its stored data.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .blockcalc import (
    Block,
    BlockCollection,
    BlockError,
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
        base = tau0() if base_label is None else build(base_label, 0)
        if line_twist:
            base = _twisted_by_line(base, line_twist)
        blocks = _pullback_blocks(base, surface)
        blocks.append(torsion_block(surface, first, last, m))
        return validate_collection(blocks)

    return seed


def _seed_curves_plus_pullback(base_label, r, first, last, m=-1):
    def seed() -> BlockCollection:
        surface = Surface.plane(r)
        base = tau0() if base_label is None else build(base_label, 0)
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
    except BlockError as exc:
        raise InvariantViolationError(f"merged collection is invalid: {exc}") from exc


def _entry(label: str) -> CatalogEntry:
    if label not in ENTRIES:
        raise ValueError(f"unknown catalog label {label!r}; known: {', '.join(ENTRIES)}")
    return ENTRIES[label]


def _construct(entry: CatalogEntry, word: tuple[str, ...]) -> BlockCollection:
    c = apply_word(entry.seed(), word)
    return c if len(c.blocks) == 3 else _merge_distinguished(c)


@lru_cache(maxsize=None)
def build(label: str, solution: int = 0) -> BlockCollection:
    """Construct the cataloged collection for the equation label.

    ``solution`` selects among the cataloged minimal solutions when the
    equation has more than one (a second braid word is applied on top).
    The cache keys on the call's shape, so internal callers all pass
    ``build(label, solution)`` positionally.
    """
    entry = _entry(label)
    if not 0 <= solution < entry.solution_count:
        raise ValueError(
            f"{label} has {entry.solution_count} cataloged solution(s); "
            f"index {solution} is out of range"
        )
    c = _construct(entry, entry.word)
    if solution == 1:
        c = apply_word(c, entry.extra_word)
    return c


@dataclass(frozen=True)
class Check:
    """One verification record: the claim, whether it holds, and a detail."""

    name: str
    ok: bool
    detail: str = ""


def checks(c: BlockCollection) -> list[Check]:
    """The paper's claims about a valid block collection, one record each.

    c passed validation, so its blocks and semiorthogonality hold.  Then
    completeness, and for three blocks the block slopes (listed), the rank
    triple solving the equation of its type and, once complete, the
    (a, b, c) relations.  The records are the same whoever asks.
    """
    complete = blockcalc.is_complete(c)
    out = [
        Check("blocks and semiorthogonality", True, f"type {c.type_vector}"),
        Check("complete", complete, f"{len(c.members)} classes, K0 rank {c.surface.k0_rank}"),
    ]
    if len(c.blocks) != 3:
        return out
    out.append(Check("block slopes", True, " < ".join(str(slope(b.members[0])) for b in c.blocks)))
    try:
        eq = equation_for(c.surface, c.type_vector)
    except ValueError:
        out.append(Check("ranks solve equation", False, "no matching equation"))
    else:
        triple = block_rank_triple(c)
        out.append(
            Check(
                "ranks solve equation",
                check_solution(eq, triple),
                f"{eq.label}: ranks ({','.join(map(str, triple))})",
            )
        )
    if complete:
        try:
            a, b, cc = blockcalc.abc(c)
            out.append(Check("abc relations", True, f"(a,b,c)=({a},{b},{cc})"))
        except InvariantViolationError as exc:
            out.append(Check("abc relations", False, str(exc)))
    return out


def _block_signature(c: BlockCollection) -> tuple[frozenset, ...]:
    return tuple(frozenset((m.rank, m.c1.coords) for m in b.members) for b in c.blocks)


def verify_entry(label: str) -> list[Check]:
    """Build the entry, run :func:`checks` on it, then compare with the
    stored expected data: the equation, minimality of the rank triple, the
    block classes and slopes, the alternate words and the second solution.
    """
    entry = _entry(label)
    c = build(label, 0)
    out = [Check("build", True, f"type {c.type_vector}, ranks {c.ranks}")]
    out += checks(c)

    eq = equation_for(c.surface, c.type_vector)
    minima = minimum_solutions(eq)
    triple = block_rank_triple(c)
    got = _block_signature(c)
    out += [
        Check("equation", eq.label == label, f"matched {eq.label}"),
        Check("minimal solution", triple in minima, f"ranks {triple}"),
        Check(
            "block classes",
            got == entry.expected_blocks,
            "all members match" if got == entry.expected_blocks else f"mismatch: {got}",
        ),
        Check(
            "slopes",
            all(
                slope(c.blocks[i].members[0]) == mu
                for i, mu in entry.expected_slopes.items()
            ),
        ),
    ]
    out += [
        Check(f"alternate word {j + 1}", _block_signature(_construct(entry, word)) == got)
        for j, word in enumerate(entry.alt_words)
    ]
    if entry.extra_word:
        c2 = build(label, 1)
        triple2 = block_rank_triple(c2)
        ok2 = (
            triple2 == entry.extra_ranks
            and triple2 in minima
            and all(check.ok for check in checks(c2))
        )
        out.append(Check("second solution", ok2, f"ranks {triple2}"))
    return out
