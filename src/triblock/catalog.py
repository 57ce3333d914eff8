"""A catalog of three-block collections, one per Markov-type equation.

Every cataloged collection is *computed*: a seed collection of line bundles
and torsion sheaves on curves is pushed through an explicit braid word, and
the two halves of the distinguished block are merged at the end.  Nothing
in the final collections is typed in by hand; the literal tuples below are
expected values used only to cross-check the computation.  A c1 there may
leave out trailing zero coordinates, since the label's equation fixes the
surface; :func:`verify_entry` pads it with zeros before it compares.

The catalog owns its solutions: an equation with a second cataloged
minimal solution gets it from an extra braid word on top of the first
build.  :func:`builds` lists every cataloged collection of a label and
:func:`word` gives the braid word behind each, so no caller counts
solutions or rebuilds a word.

A seed on a blown-up plane X_r is the pullback of a smaller collection,
its base on X_r', plus the torsion block of the exceptional curves
l_{r'+1}, ..., l_r the base does not see: on the right untwisted, or on the
left twisted by -1.  An entry names only what nothing else fixes: its base
(tau0 on the plane by default), which side the curves go, and a twist of
the base by a multiple of the line.  Its surface, and so r, is its
equation's, and r' is its base's.  The quadric's seed,
:func:`quadric_standard`, is the one seed not on a plane.  Every seed is a
valid collection and the braid word turns it into a three-block one.

Verification has one path.  :func:`checks` states the paper's claims about
any valid collection and is exactly what ``triblock verify`` prints;
:func:`verify_entry` is :func:`build`, then those checks, then the
comparisons only the catalog can make against its stored data.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd
from typing import NamedTuple

from .blockcalc import (
    Block,
    BlockCollection,
    BlockError,
    apply_word,
    block_rank_triple,
    validate_block,
    validate_collection,
)
from .kclass import InvariantViolationError, KClass, chi_minus, line_bundle, torsion_class
from .markov import check_solution, equation_by_label, equation_for, minimum_solutions
from .picard import QUADRIC, DivisorClass, Surface, embed

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
            torsion_class(DivisorClass.basis(surface, i), m)
            for i in range(first, last + 1)
        ]
    )


def _pullback_blocks(c: BlockCollection, into: Surface) -> list[list[KClass]]:
    return [
        [KClass(m.rank, embed(m.c1, into), m.ch2x2) for m in b.members]
        for b in c.blocks
    ]


def _twisted_by_line(c: BlockCollection, amount: int) -> BlockCollection:
    d = DivisorClass(c.surface, (amount,) + (0,) * c.surface.blowups)
    return BlockCollection(tuple(b.twisted(d) for b in c.blocks))


class CatalogEntry(NamedTuple):
    label: str
    word: tuple[str, ...]
    expected_blocks: tuple[frozenset, ...]
    base: str | None = None  # the label of the base's build; None for tau0
    curves_first: bool = False
    line_twist: int = 0
    alt_words: tuple[tuple[str, ...], ...] = ()
    extra_word: tuple[str, ...] | None = None

    @property
    def solution_count(self) -> int:
        return 2 if self.extra_word else 1

    def seed(self) -> BlockCollection:
        """The collection the word starts from: the base pulled back to the
        label's surface, with the torsion block of the curves it lacks."""
        surface = equation_by_label(self.label).surface
        if surface.kind == QUADRIC:
            return quadric_standard()
        base = tau0() if self.base is None else build(self.base, 0)
        if self.line_twist:
            base = _twisted_by_line(base, self.line_twist)
        blocks = _pullback_blocks(base, surface)
        first, last = base.surface.blowups + 1, surface.blowups
        if first > last:  # p2: tau0 itself
            return validate_collection(blocks)
        if self.curves_first:
            return validate_collection([torsion_block(surface, first, last, -1), *blocks])
        return validate_collection([*blocks, torsion_block(surface, first, last)])


_R13 = ("R1", "R2", "R3")
_L33 = ("L3", "L2", "L1")


ENTRIES: dict[str, CatalogEntry] = {
    entry.label: entry
    for entry in (
        CatalogEntry(
            "p2",
            (),
            (
                frozenset({(1, (-1,))}),
                frozenset({(1, (0,))}),
                frozenset({(1, (1,))}),
            ),
        ),
        CatalogEntry(
            "quadric",
            (),
            (
                frozenset({(1, (0, 0))}),
                frozenset({(1, (1, 0)), (1, (0, 1))}),
                frozenset({(1, (1, 1))}),
            ),
        ),
        CatalogEntry(
            "x3",
            _R13 + ("R3",),
            (
                frozenset({(1, (0,))}),
                frozenset({(1, (1,)), (1, (2, -1, -1, -1))}),
                frozenset(
                    {
                        (1, (2, 0, -1, -1)),
                        (1, (2, -1, 0, -1)),
                        (1, (2, -1, -1, 0)),
                    }
                ),
            ),
        ),
        CatalogEntry(
            "x4",
            _R13 + ("R3", "L2"),
            (
                frozenset({(1, (0,))}),
                frozenset({(2, (3, -1, -1, -1, -1))}),
                frozenset(
                    {
                        (1, (1,)),
                        (1, (2, 0, -1, -1, -1)),
                        (1, (2, -1, 0, -1, -1)),
                        (1, (2, -1, -1, 0, -1)),
                        (1, (2, -1, -1, -1, 0)),
                    }
                ),
            ),
            extra_word=("R1", "R2", "R2"),
        ),
        CatalogEntry(
            "x5",
            ("R1",) + _R13,
            (
                frozenset({(1, (0, 0, 0, 0, 1)), (1, (0, 0, 0, 0, 0, 1))}),
                frozenset({(1, (1,)), (1, (2, -1, -1, -1))}),
                frozenset(
                    {
                        (1, (3, -1, -1, -1, -1, -1)),
                        (1, (2, -1, -1, 0)),
                        (1, (2, 0, -1, -1)),
                        (1, (2, -1, 0, -1)),
                    }
                ),
            ),
            base="x3",
            curves_first=True,
        ),
        CatalogEntry(
            "x6.1",
            ("R1", "L3") + _R13,
            (
                frozenset(
                    {
                        (1, (0, 0, 0, 0, 1)),
                        (1, (0, 0, 0, 0, 0, 1)),
                        (1, (0, 0, 0, 0, 0, 0, 1)),
                    }
                ),
                frozenset(
                    {
                        (1, (1, -1)),
                        (1, (1, 0, -1)),
                        (1, (1, 0, 0, -1)),
                    }
                ),
                frozenset(
                    {
                        (1, (3, -1, -1, -1, -1, -1, -1)),
                        (1, (1,)),
                        (1, (2, -1, -1, -1)),
                    }
                ),
            ),
            base="x3",
            curves_first=True,
        ),
        CatalogEntry(
            "x6.2",
            ("R2", "R1") + _R13 + _R13,
            (
                frozenset({(2, (1,))}),
                frozenset({(1, (1,)), (1, (3, -1, -1, -1, -1, -1, -1))}),
                frozenset(
                    {
                        (1, (3, 0, -1, -1, -1, -1, -1)),
                        (1, (3, -1, 0, -1, -1, -1, -1)),
                        (1, (3, -1, -1, 0, -1, -1, -1)),
                        (1, (3, -1, -1, -1, 0, -1, -1)),
                        (1, (3, -1, -1, -1, -1, 0, -1)),
                        (1, (3, -1, -1, -1, -1, -1, 0)),
                    }
                ),
            ),
            curves_first=True,
        ),
        CatalogEntry(
            "x7.1",
            ("R1", "L3") + _L33 + ("R1",) + _R13,
            (
                frozenset({(2, (-2, 1, 1, 1, 1, 1, 1, 1))}),
                frozenset({(2, (1,))}),
                frozenset(
                    {(1, (3, -1, -1, -1, -1, -1, -1, -1))}
                    | {(1, (1, *(-1 if j == i else 0 for j in range(1, 8)))) for i in range(1, 8)}
                ),
            ),
            alt_words=(("R1", "L3", "L3", "L2", "R1", "R2", "R3"),),
        ),
        CatalogEntry(
            "x7.2",
            ("L3", "R1") + _L33 + ("R1",) + _R13,
            (
                frozenset(
                    {
                        (2, (-2, 1, 1, 1, 1, 1, 1, 1)),
                        (2, (-1, 0, 0, 0, 1, 1, 1, 1)),
                    }
                ),
                frozenset(
                    {
                        (1, (0, 0, 0, 0, 1)),
                        (1, (0, 0, 0, 0, 0, 1)),
                        (1, (0, 0, 0, 0, 0, 0, 1)),
                        (1, (0, 0, 0, 0, 0, 0, 0, 1)),
                    }
                ),
                frozenset(
                    {
                        (1, (3, -1, -1, -1, -1, -1, -1, -1)),
                        (1, (1, -1)),
                        (1, (1, 0, -1)),
                        (1, (1, 0, 0, -1)),
                    }
                ),
            ),
            base="x3",
            curves_first=True,
        ),
        CatalogEntry(
            "x7.3",
            ("R1",) + _R13,
            (
                frozenset({(3, (0, 0, 0, 0, 1, 1, 1, 1))}),
                frozenset({(1, (1, -1)), (1, (1, 0, -1)), (1, (1, 0, 0, -1))}),
                frozenset(
                    {
                        (1, (1,)),
                        (1, (2, -1, -1, -1)),
                        (1, (3, -1, -1, -1, 0, -1, -1, -1)),
                        (1, (3, -1, -1, -1, -1, 0, -1, -1)),
                        (1, (3, -1, -1, -1, -1, -1, 0, -1)),
                        (1, (3, -1, -1, -1, -1, -1, -1, 0)),
                    }
                ),
            ),
            base="x6.1",
            curves_first=True,
        ),
        CatalogEntry(
            "x8.1",
            ("R1", "L3") + _L33 + ("L1", "L2"),
            (
                frozenset({(3, (-7, 2, 2, 2, 2, 2, 2, 2, 2))}),
                frozenset({(3, (-4, 1, 1, 1, 1, 1, 1, 1, 1))}),
                frozenset(
                    {(1, (-3, 1, 1, 1, 1, 1, 1, 1, 1))}
                    | {(1, (0, *(-1 if j == i else 0 for j in range(1, 9)))) for i in range(1, 9)}
                ),
            ),
            line_twist=-1,
        ),
        CatalogEntry(
            "x8.2",
            ("L3", "L3", "R1", "R1") + _R13,
            (
                frozenset({(4, (0, 0, 0, 0, 1, 1, 1, 1, 1))}),
                frozenset({(2, (1,)), (2, (2, -1, -1, -1))}),
                frozenset(
                    {(1, (3, -1, -1, -1, *(0 if j == i else -1 for j in range(4, 9)))) for i in range(4, 9)}
                    | {(1, (1, *(-1 if j == i else 0 for j in range(1, 9)))) for i in (1, 2, 3)}
                ),
            ),
            base="x3",
            curves_first=True,
        ),
        CatalogEntry(
            "x8.3",
            ("R1", "L3") + _R13,
            (
                frozenset(
                    {
                        (3, (0, 0, 0, 0, 1, 1, 1, 1, 0)),
                        (3, (0, 0, 0, 0, 1, 1, 1, 0, 1)),
                    }
                ),
                frozenset(
                    {
                        (2, (1,)),
                        (2, (2, -1, -1, -1)),
                        (2, (0, 0, 0, 0, 1, 1, 1)),
                    }
                ),
                frozenset(
                    {(1, (3, -1, -1, -1, *(0 if j == i else -1 for j in range(4, 9)))) for i in (4, 5, 6)}
                    | {(1, (1, *(-1 if j == i else 0 for j in range(1, 9)))) for i in (1, 2, 3)}
                ),
            ),
            base="x6.1",
            curves_first=True,
        ),
        CatalogEntry(
            "x8.4",
            ("L2", "R1", "L3") + _R13,
            (
                frozenset({(5, (6, -2, -2, -2))}),
                frozenset(
                    {(2, (3, -1, -1, -1, *(-1 if j == i else 0 for j in range(4, 9)))) for i in range(4, 9)}
                ),
                frozenset(
                    {
                        (1, (1,)),
                        (1, (2, -1, -1, -1)),
                        (1, (4, -2, -1, -1, -1, -1, -1, -1, -1)),
                        (1, (4, -1, -2, -1, -1, -1, -1, -1, -1)),
                        (1, (4, -1, -1, -2, -1, -1, -1, -1, -1)),
                    }
                ),
            ),
            base="x3",
            extra_word=("L2", "L1", "L1"),
        ),
    )
}


def labels() -> tuple[str, ...]:
    return tuple(ENTRIES)


def _merge_distinguished(c: BlockCollection) -> BlockCollection:
    # Exactly one adjacent pair must be mutually orthogonal; gluing it is
    # what turns the four braid blocks into the final three.  c is valid, so
    # chi(later, earlier) already vanishes, so chi(earlier, later) is the
    # constant chi_minus of one member pair.  validate_block on the glued
    # members certifies the merge: every other pairing is one of c's valid
    # pairings, between blocks that keep their order.  Its message names the
    # block by position, as validate_collection would.
    firsts = [b.members[0] for b in c.blocks]
    mergeable = [i for i in range(len(firsts) - 1) if chi_minus(firsts[i], firsts[i + 1]) == 0]
    if len(mergeable) != 1:
        raise InvariantViolationError(
            f"expected exactly one mergeable adjacent pair, found {len(mergeable)}"
        )
    i = mergeable[0]
    try:
        merged = validate_block(c.blocks[i].members + c.blocks[i + 1].members)
    except BlockError as exc:
        raise InvariantViolationError(f"merged collection is invalid: block {i + 1}: {exc}") from exc
    return BlockCollection(c.blocks[:i] + (merged,) + c.blocks[i + 2 :])


def _entry(label: str) -> CatalogEntry:
    if label not in ENTRIES:
        raise ValueError(f"unknown catalog label {label!r}; known: {', '.join(ENTRIES)}")
    return ENTRIES[label]


def _solution_entry(label: str, solution: int) -> CatalogEntry:
    entry = _entry(label)
    if not 0 <= solution < entry.solution_count:
        raise ValueError(
            f"{label} has {entry.solution_count} cataloged solution(s); "
            f"index {solution} is out of range"
        )
    return entry


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
    entry = _solution_entry(label, solution)
    c = _construct(entry, entry.word)
    if solution == 1:
        c = apply_word(c, entry.extra_word)
    return c


def builds(label: str) -> tuple[BlockCollection, ...]:
    """Every cataloged collection of the label: ``build(label, i)`` for each
    solution index i, in order."""
    return tuple(build(label, i) for i in range(_entry(label).solution_count))


def word(label: str, solution: int = 0) -> tuple[str, ...]:
    """The braid word that takes the seed to ``build(label, solution)``: the
    entry's word, then for the second solution its extra word.  The merge of
    the distinguished block between the two is not a move and is not listed.
    """
    entry = _solution_entry(label, solution)
    return entry.word + entry.extra_word if solution == 1 else entry.word


class Check(NamedTuple):
    """One verification record: the claim, whether it holds, and a detail."""

    name: str
    ok: bool
    detail: str = ""


def _slope(e: KClass, s: Surface) -> tuple[int, int]:
    # kclass.slope(e), d/r, as the pair (d, r) with r >= 0; r == 0 reads as
    # +inf.
    r, d = e.rank, s.degree(e.c1.coords)
    return (-d, -r) if r < 0 else (d, r)


def _slope_below(s: tuple[int, int], t: tuple[int, int]) -> bool:
    # s < t for _slope pairs, by integer cross-multiplication.
    (a, p), (b, q) = s, t
    return p != 0 and (q == 0 or a * q < b * p)


def _slope_text(s: tuple[int, int]) -> str:
    # str of kclass.slope's value: p/q in lowest terms, an integer, or inf.
    d, r = s
    if r == 0:
        return "inf"
    g = gcd(d, r)
    return str(d // g) if r == g else f"{d // g}/{r // g}"


def checks(c: BlockCollection) -> list[Check]:
    """The paper's claims about a valid block collection, one record each.

    c passed validation, so its blocks and semiorthogonality hold.  Then
    completeness, and for three blocks (E, F, G): once complete, the slopes
    mu(E) < mu(F) < mu(G) < mu(E) + K^2; the rank triple solving the
    equation of its type; and, once complete, the (a, b, c) relations.  For
    positive ranks the slope inequalities are c = chi(E, F) > 0,
    a = chi(F, G) > 0 and b = chi(G(K), E) > 0, as chi(F, E), chi(G, F) and
    chi(E, G(K)) = chi(G, E) vanish.  The slopes d/r are compared as
    integers, d*r' < d'*r over positive ranks, with rank 0 as +inf, and
    printed as :func:`kclass.slope` would print them.  The records are the
    same whoever asks.
    """
    s, types = c.surface, c.type_vector
    complete = blockcalc.is_complete(c)
    out = [
        Check("blocks and semiorthogonality", True, f"type {types}"),
        Check("complete", complete, f"{sum(types)} classes, K0 rank {s.k0_rank}"),
    ]
    if len(types) != 3:
        return out
    if complete:
        mu = [_slope(b.members[0], s) for b in c.blocks]
        top = (mu[0][0] + s.k_squared * mu[0][1], mu[0][1])  # mu(E) + K^2
        ok = all(map(_slope_below, mu, mu[1:] + [top]))
        out.append(Check("block slopes", ok, " < ".join(map(_slope_text, mu))))
    try:
        eq = equation_for(s, types)
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
    block classes (which fix the slopes), the alternate words and the
    second solution, whose build must pass the checks and whose rank triple
    must be, with the first build's, the equation's minimal solutions.
    """
    entry = _entry(label)
    c = build(label, 0)
    out = [Check("build", True, f"type {c.type_vector}, ranks {c.ranks}")]
    out += checks(c)

    eq = equation_for(c.surface, c.type_vector)
    minima = minimum_solutions(eq)
    triple = block_rank_triple(c)
    got = _block_signature(c)
    n = c.surface.picard_rank
    expected = tuple(
        frozenset((rank, coords + (0,) * (n - len(coords))) for rank, coords in block)
        for block in entry.expected_blocks
    )
    out += [
        Check("equation", eq.label == label, f"matched {eq.label}"),
        Check("minimal solution", triple in minima, f"ranks {triple}"),
        Check(
            "block classes",
            got == expected,
            "all members match" if got == expected else f"mismatch: {got}",
        ),
    ]
    out += [
        Check(f"alternate word {j + 1}", _block_signature(_construct(entry, word)) == got)
        for j, word in enumerate(entry.alt_words)
    ]
    if entry.extra_word:
        c2 = build(label, 1)
        triple2 = block_rank_triple(c2)
        ok2 = {triple, triple2} == set(minima) and all(check.ok for check in checks(c2))
        out.append(Check("second solution", ok2, f"ranks {triple2}"))
    return out
