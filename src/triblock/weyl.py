"""Weyl-group symmetry of block collections and orbit counting.

The integral automorphisms of the Picard lattice fixing K are generated by
reflections in roots; on a plane with r >= 3 blowups the simple choices are
the permutation roots l_i - l_{i+1} and the one non-permutation root
l0 - l1 - l2 - l3, on the quadric the swap of the two rulings.  The group
is enormous for large r, so nothing here ever enumerates it: its order
comes from the Dynkin type of the simple roots, and the orbit of a
collection up to twist is counted by orbit-stabiliser, with the stabiliser
read off a dominant-chamber reduction.

normal_form gives a canonical twist representative of a collection: the
tuple of all member c1 coordinates, members sorted inside each block,
twisted so that the first coordinate vector of the first block lies in the
fundamental box [0, rank) coordinatewise.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, factorial, gcd, lcm, prod
from operator import mul
from typing import Sequence

from . import catalog
from .blockcalc import Block, BlockCollection, block_rank_triple, equivalent_up_to_twist
from .kclass import InvariantViolationError, KClass
from .markov import EQUATIONS
from .picard import (
    MINUS_ONE,
    DivisorClass,
    Surface,
    canonical_class,
    enumerate_classes,
    intersect,
)


@dataclass(frozen=True)
class LatticeAutomorphism:
    """An integral lattice map preserving the form and fixing K."""

    surface: Surface
    matrix: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        n = self.surface.picard_rank
        basis = [DivisorClass.basis(self.surface, i) for i in range(n)]
        images = [self.apply(b) for b in basis]
        for i in range(n):
            for j in range(n):
                if intersect(images[i], images[j]) != intersect(basis[i], basis[j]):
                    raise ValueError("matrix does not preserve the intersection form")
        k = canonical_class(self.surface)
        if self.apply(k) != k:
            raise ValueError("matrix does not fix the canonical class")

    @classmethod
    def from_root(cls, root: DivisorClass) -> "LatticeAutomorphism":
        """The reflection x -> x + (x.root) root for a root (square -2, root.K = 0)."""
        surface = root.surface
        k = canonical_class(surface)
        if intersect(root, root) != -2 or intersect(root, k) != 0:
            raise ValueError("reflections require a root class")
        n = surface.picard_rank
        cols = []
        for j in range(n):
            e = DivisorClass.basis(surface, j)
            cols.append((e + intersect(e, root) * root).coords)
        matrix = tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))
        return cls(surface, matrix)

    def apply(self, d: DivisorClass) -> DivisorClass:
        if d.surface != self.surface:
            raise ValueError("class lives on a different surface")
        return DivisorClass(
            self.surface,
            tuple(sum(row[j] * d.coords[j] for j in range(len(row))) for row in self.matrix),
        )


def simple_roots(surface: Surface) -> tuple[DivisorClass, ...]:
    if surface.kind == "quadric":
        return (DivisorClass(surface, (1, -1)),)
    r = surface.blowups
    roots = []
    if r >= 3:
        roots.append(DivisorClass(surface, (1, -1, -1, -1) + (0,) * (r - 3)))
    for i in range(1, r):
        coords = [0] * (r + 1)
        coords[i], coords[i + 1] = 1, -1
        roots.append(DivisorClass(surface, tuple(coords)))
    return tuple(roots)


def simple_reflections(surface: Surface) -> tuple[LatticeAutomorphism, ...]:
    return tuple(LatticeAutomorphism.from_root(r) for r in simple_roots(surface))


def apply_to_class(g: LatticeAutomorphism, e: KClass) -> KClass:
    """Rank and 2*ch2 are invariants; only c1 moves."""
    return KClass(e.surface, e.rank, g.apply(e.c1), e.ch2x2)


def apply_to_collection(g: LatticeAutomorphism, c: BlockCollection) -> BlockCollection:
    return BlockCollection(
        tuple(Block(tuple(apply_to_class(g, m) for m in b.members)) for b in c.blocks)
    )


def divisor_orbit(surface: Surface, start: DivisorClass) -> frozenset:
    """Closure of one divisor class under the simple reflections."""
    gens = simple_reflections(surface)
    seen = {start.coords}
    frontier = [start]
    while frontier:
        new = []
        for d in frontier:
            for g in gens:
                image = g.apply(d)
                if image.coords not in seen:
                    seen.add(image.coords)
                    new.append(image)
        frontier = new
    return frozenset(seen)


# ---------------------------------------------------------------------------
# Orbit counting on collections.


def _structure(c: BlockCollection):
    # Orbit states keep (rank, c1) only; that determines 2*ch2 for
    # exceptional classes of nonzero rank but not for torsion members, so
    # those are refused rather than silently conflated.
    ranks = tuple(m.rank for m in c.members)
    if any(r == 0 for r in ranks):
        raise ValueError("orbit counting requires blocks of nonzero rank")
    sizes = c.type_vector
    slices = []
    start = 0
    for s in sizes:
        slices.append((start, start + s))
        start += s
    return ranks, tuple(slices), 0, c.blocks[0].rank


def _normalize(chunks: list, slices, pivot_start: int, pivot_rank: int, ranks) -> tuple:
    # Sort inside blocks (uniform rank inside a block keeps this canonical),
    # then translate the whole collection into the fundamental twist box.
    for a, b in slices:
        if b - a > 1:
            chunks[a:b] = sorted(chunks[a:b])
    head = chunks[pivot_start]
    shift = tuple(-(x // pivot_rank) for x in head)
    if any(shift):
        chunks = [
            tuple(x + r * s for x, s in zip(ch, shift)) if r else ch
            for ch, r in zip(chunks, ranks)
        ]
    return tuple(chunks)


def normal_form(c: BlockCollection):
    """Canonical twist representative: (ranks, sizes, sorted c1 table)."""
    ranks, slices, pivot_start, pivot_rank = _structure(c)
    chunks = [m.c1.coords for m in c.members]
    state = _normalize(chunks, slices, pivot_start, pivot_rank, ranks)
    return (ranks, c.type_vector, state)


# Orders of the exceptional Weyl groups (Manin, Cubic Forms, Ch. IV).
_E_ORDERS = {6: 51840, 7: 2903040, 8: 696729600}


def coxeter_order(roots: Sequence[DivisorClass]) -> int:
    """Order of the reflection group generated by a system of simple roots.

    The Coxeter graph joins two roots with intersection 1; distinct simple
    roots meet in 0 or 1 and have square -2.  Each connected component must
    be of type A_n, D_n or E_6/7/8, as every subgraph of the E_8 diagram
    is; its group has order (n+1)!, 2^(n-1)*n! or the tabulated E order,
    and the whole group is their product.
    """
    links = []
    for i, a in enumerate(roots):
        products = [intersect(a, b) for b in roots]
        if products[i] != -2 or any(p not in (0, 1) for j, p in enumerate(products) if j != i):
            raise ValueError("coxeter_order requires a system of simple roots")
        links.append({j for j, p in enumerate(products) if p == 1})
    order, unseen = 1, set(range(len(roots)))
    while unseen:
        stack = [unseen.pop()]
        component = set(stack)
        while stack:
            fresh = links[stack.pop()] - component
            component |= fresh
            stack.extend(fresh)
        unseen -= component
        order *= _component_order(component, links)
    return order


def _component_order(component: set, links: list) -> int:
    size = len(component)
    hubs = [i for i in component if len(links[i]) > 2]
    if sum(len(links[i]) for i in component) == 2 * (size - 1):  # a tree
        if not hubs:
            return factorial(size + 1)  # A_n
        if len(hubs) == 1 and len(links[hubs[0]]) == 3:
            arms = sorted(_arm_length(hubs[0], j, links) for j in links[hubs[0]])
            if arms[:2] == [1, 1]:
                return 2 ** (size - 1) * factorial(size)  # D_n
            if arms[:2] == [1, 2] and size in _E_ORDERS:
                return _E_ORDERS[size]
    raise ValueError(f"Coxeter graph on {size} roots is not of type A, D or E")


def _arm_length(hub: int, start: int, links: list) -> int:
    previous, node, length = hub, start, 1
    while len(links[node]) == 2:
        (nxt,) = links[node] - {previous}
        previous, node, length = node, nxt, length + 1
    return length


def _reflection(a: DivisorClass) -> tuple:
    """The root's coordinates and the coefficients of x -> x.a on coordinates."""
    n = len(a.coords)
    return a.coords, tuple(intersect(DivisorClass.basis(a.surface, j), a) for j in range(n))


def _reflect(x: tuple, reflection: tuple) -> tuple:
    """The reflection x -> x + (x.a) a on coordinate tuples."""
    a, covector = reflection
    p = sum(map(mul, x, covector))
    return tuple(xi + p * ai for xi, ai in zip(x, a)) if p else x


def _twist_invariants(c: BlockCollection, ranks) -> list:
    # v_i = (s0*L/r_i)*c1_i - (L/r0)*sum(c1 over block 0) is linear, commutes
    # with the Weyl group and is unchanged by c1_i -> c1_i + r_i*D.  Equal
    # v-tuples force c1_i/r_i to differ by one rational D with every r_i*D
    # integral, which makes D integral exactly when the ranks have gcd 1.
    g = gcd(*ranks)
    if g != 1:
        raise ValueError(f"orbit counting requires ranks with gcd 1, got gcd {g} of {ranks}")
    lcm_ = lcm(*ranks)
    head = c.blocks[0]
    base = (lcm_ // head.rank) * head.class_sum().c1
    return [((head.size * lcm_ // r) * m.c1 - base).coords for m, r in zip(c.members, ranks)]


def _stabiliser_roots(vectors: list, roots: tuple) -> tuple:
    # Steinberg (Humphreys, Reflection Groups and Coxeter Groups, 1.12): the
    # stabiliser in W_J of a J-dominant vector is generated by the simple
    # reflections in J that fix it.  Moving each vector in turn, after the
    # reflections that moved the vectors before it, into the dominant
    # chamber of the current W_J shrinks J to simple roots generating the
    # stabiliser of the whole tuple.
    chain = [(a, _reflection(a)) for a in roots]
    word = []
    for v in vectors:
        if not chain:
            break
        for step in word:
            v = _reflect(v, step)
        moved = True
        while moved:
            moved = False
            for _, step in chain:
                if sum(map(mul, v, step[1])) > 0:
                    v = _reflect(v, step)
                    word.append(step)
                    moved = True
        chain = [(a, step) for a, step in chain if not sum(map(mul, v, step[1]))]
    return tuple(a for a, _ in chain)


def _check_transpositions(c: BlockCollection, vectors: list) -> None:
    # Inside a block c1_i - c1_j is a root (see validate_block), and the
    # pairing of any other member with block members is constant across the
    # block by semiorthogonality, so the reflection in that root swaps
    # members i and j and twists the rest: it realises the transposition.
    members = c.members
    start = 0
    for b in c.blocks:
        for i in range(start, start + b.size - 1):
            step = _reflection(members[i].c1 - members[i + 1].c1)
            image = [_reflect(v, step) for v in vectors]
            swapped = vectors[:i] + [vectors[i + 1], vectors[i]] + vectors[i + 2 :]
            if image != swapped:
                raise InvariantViolationError(
                    f"the reflection in c1 of member {i} minus c1 of member {i + 1} "
                    "does not swap them up to twist"
                )
        start += b.size


def orbit_count(c: BlockCollection) -> int:
    """Number of twist classes in the Weyl closure of the collection.

    Members count unordered inside each block.  By orbit-stabiliser this is
    |W| / (|W_J| * prod(s_b!)): W_J is the stabiliser of the ordered
    collection up to twist, found by a dominant-chamber reduction of
    twist-invariant vectors, and every in-block permutation is realised by
    reflections, which is checked transposition by transposition.  The
    ranks must be nonzero with gcd 1.
    """
    ranks = _structure(c)[0]
    vectors = _twist_invariants(c, ranks)
    roots = simple_roots(c.surface)
    stabiliser = _stabiliser_roots(vectors, roots)
    _check_transpositions(c, vectors)
    order = coxeter_order(roots)
    denominator = coxeter_order(stabiliser) * prod(factorial(s) for s in c.type_vector)
    if order % denominator:
        raise InvariantViolationError(
            f"|W| = {order} is not divisible by the stabiliser order {denominator}"
        )
    return order // denominator


# ---------------------------------------------------------------------------
# The orbit table.

# Number of twist classes inside one Weyl closure that present the same
# underlying collection; shipped as data.  Six entries are nontrivial (x4,
# x5, x6.1, x7.1, x7.2 and x8.4); only x5 and x6.1 have an independent
# witness, verify_c below.
C_VALUES = {
    "p2": 1,
    "quadric": 1,
    "x3": 1,
    "x4": 2,
    "x5": 2,
    "x6.1": 3,
    "x6.2": 1,
    "x7.1": 2,
    "x7.2": 2,
    "x7.3": 1,
    "x8.1": 1,
    "x8.2": 1,
    "x8.3": 1,
    "x8.4": 2,
}

C_WITNESS_LABELS = ("x5", "x6.1")


@dataclass(frozen=True)
class OrbitRow:
    label: str
    solution_classes: int
    repetition: int
    orbits: int


def orbit_row(label: str) -> OrbitRow:
    """N, C and N/C for one equation label."""
    if label not in catalog.ENTRIES:
        raise ValueError(f"unknown equation label {label!r}")
    entry = catalog.ENTRIES[label]
    n = sum(orbit_count(catalog.build(label, i)) for i in range(entry.solution_count))
    c = C_VALUES[label]
    if n % c:
        raise InvariantViolationError(f"orbit count {n} of {label} is not divisible by {c}")
    return OrbitRow(label, n, c, n // c)


def orbit_table() -> tuple[OrbitRow, ...]:
    return tuple(orbit_row(eq.label) for eq in EQUATIONS)


def verify_c(label: str) -> bool:
    """Check the stored repetition count C against its witness, if one exists.

    For x6.1 the three cyclic helix foundations must be pairwise twist
    inequivalent; for x5 the braid word R1 R2 R2 must land on a twist
    inequivalent presentation of the same solution.  Labels without a
    stored witness return True vacuously.
    """
    from .blockcalc import apply_word, helix_shift

    if label == "x6.1":
        c = catalog.build(label, 0)
        shifted = [c, helix_shift(c, -1), helix_shift(c, -2)]
        for i in range(3):
            for j in range(i + 1, 3):
                if equivalent_up_to_twist(shifted[i], shifted[j]) is not None:
                    return False
        return True
    if label == "x5":
        c = catalog.build(label, 0)
        other = apply_word(c, ("R1", "R2", "R2"))
        if other.type_vector != c.type_vector:
            return False
        if block_rank_triple(other) != block_rank_triple(c):
            return False
        return equivalent_up_to_twist(c, other) is None
    return True


# ---------------------------------------------------------------------------
# Disjoint minus-one classes and the blowdown recursion.


def count_disjoint_sets(surface: Surface, m: int) -> int:
    """Number of m-element sets of pairwise disjoint minus-one classes."""
    if m < 0:
        raise ValueError("set size must be nonnegative")
    if m == 0:
        return 1
    classes = enumerate_classes(surface, MINUS_ONE)
    n = len(classes)
    forward = []
    for i in range(n):
        mask = 0
        for j in range(i + 1, n):
            if intersect(classes[i], classes[j]) == 0:
                mask |= 1 << j
        forward.append(mask)

    def extend(allowed: int, need: int) -> int:
        if need == 1:
            return allowed.bit_count()
        total = 0
        rest = allowed
        while rest:
            low = rest & -rest
            rest ^= low
            if rest.bit_count() + 1 < need:
                break
            nxt = allowed & forward[low.bit_length() - 1]
            if nxt.bit_count() >= need - 1:
                total += extend(nxt, need - 1)
        return total

    return extend((1 << n) - 1, m)


@dataclass(frozen=True)
class RecursionCase:
    label: str
    block_length: int
    contracted: int
    smaller_label: str
    sets_surface: Surface
    sets_size: int


RECURSION_CASES = {
    case.label: case
    for case in (
        RecursionCase("x3", 2, 1, "p2", Surface.plane(3), 3),
        RecursionCase("x6.2", 2, 1, "p2", Surface.plane(6), 6),
        RecursionCase("x7.1", 8, 7, "p2", Surface.plane(7), 7),
        RecursionCase("x8.1", 9, 8, "p2", Surface.plane(8), 8),
        RecursionCase("x8.2", 8, 5, "x3", Surface.plane(8), 5),
    )
}


@dataclass(frozen=True)
class RecursionReport:
    label: str
    solution_classes: int
    binom: int
    smaller_classes: int
    disjoint_sets: int
    ok: bool


def recursion_check(label: str) -> RecursionReport:
    """Check N * C(n, m) == N' * #sets for a pinned blowdown case."""
    if label not in RECURSION_CASES:
        raise ValueError(
            f"no recursion case stored for {label!r}; "
            f"known: {', '.join(RECURSION_CASES)}"
        )
    case = RECURSION_CASES[label]
    n = orbit_row(label).solution_classes
    n_small = orbit_row(case.smaller_label).solution_classes
    binom = comb(case.block_length, case.contracted)
    sets = count_disjoint_sets(case.sets_surface, case.sets_size)
    return RecursionReport(
        label, n, binom, n_small, sets, n * binom == n_small * sets
    )
