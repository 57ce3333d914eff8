"""Weyl-group symmetry of block collections and orbit counting.

The integral automorphisms of the Picard lattice fixing K are generated by
reflections in roots; on a plane with r >= 3 blowups the simple choices are
the permutation roots l_i - l_{i+1} and the one non-permutation root
l0 - l1 - l2 - l3, on the quadric the swap of the two rulings.  The group
is enormous for large r, so nothing here ever enumerates it: its order
comes from the Dynkin type of the simple roots, and both the orbit of a
collection up to twist and the sets of disjoint minus-one classes behind
the blowdown recursion are counted by orbit-stabiliser, with the
stabiliser of each tuple of vectors read off one chamber walk of one
vector, a combination of the tuple generic enough that its stabiliser is
the tuple's.  Neither enumerates minus-one classes.

What depends only on the surface is computed once per surface and cached,
like picard.canonical_class: its simple roots, whose Dynkin types give |W|
and bound each chamber walk.
Each orbit row is computed once per process, so the orbit table and the
recursion checks share rows; every certificate still runs on each count.

A Weyl generator is its root.  The reflection x -> x + (x.a) a in a root a
is written once, by :func:`_reflect` on coordinate tuples, and
:func:`apply_to_collection` is its one checked entry point.  Every action
here goes through _reflect but one: the chamber walk of
:func:`_stabiliser_roots` makes all its swaps l_i - l_{i+1} (f1 - f2 on the
quadric) at once, by sorting.  Class kinds are picard.is_kind's to decide,
twist classes blockcalc.twist_normal_form's.
"""

from __future__ import annotations

from functools import cache
from math import comb, factorial, gcd, isqrt, lcm, prod
from operator import sub
from typing import NamedTuple, Sequence

from . import catalog
from .blockcalc import (
    Block,
    BlockCollection,
    apply_word,
    block_rank_triple,
    twist_normal_form,
)
from .kclass import InvariantViolationError, KClass
from .markov import EQUATIONS, equation_by_label
from .picard import (
    MINUS_ONE,
    QUADRIC,
    ROOT,
    DivisorClass,
    Surface,
    intersect,
    is_kind,
    same_surface,
)


@cache
def simple_reflections(surface: Surface) -> tuple[DivisorClass, ...]:
    """The simple roots of the surface's Weyl group, built once per surface:
    the Cremona root l0 - l1 - l2 - l3 first (r >= 3), then the swaps
    l_i - l_{i+1}; f1 - f2 on the quadric."""
    if surface.kind == QUADRIC:
        return (DivisorClass(surface, (1, -1)),)
    r = surface.blowups
    cremona = [(1, -1, -1, -1) + (0,) * (r - 3)] if r >= 3 else []
    swaps = [(0,) * i + (1, -1) + (0,) * (r - 1 - i) for i in range(1, r)]
    return tuple(DivisorClass(surface, coords) for coords in cremona + swaps)


def apply_to_collection(a: DivisorClass, c: BlockCollection) -> BlockCollection:
    """The collection moved by the reflection x -> x + (x.a) a in a root a.

    The root's kind is the whole certificate: a^2 = -2 makes the map an
    isometry, as (x + (x.a)a).(y + (y.a)a) = x.y + (x.a)(y.a)(2 + a^2), and
    an involution; a.K = 0 makes it fix K.  So the Euler form is kept:
    rank and 2*ch2 are invariants, and only c1 moves.
    """
    surface, root = same_surface(a, c), a.coords
    if not is_kind(a, ROOT):
        raise ValueError("reflections require a root class")

    def move(m: KClass) -> KClass:
        return KClass(m.rank, DivisorClass(surface, _reflect(surface, m.c1.coords, root)), m.ch2x2)

    return BlockCollection(tuple(Block(tuple(map(move, b.members))) for b in c.blocks))


# ---------------------------------------------------------------------------
# Orbit counting on collections.


# Group orders and numbers of positive roots of the irreducible Weyl groups
# of types A_n, D_n and E_6/7/8 (Humphreys, Reflection Groups and Coxeter
# Groups, 2.11; the E orders as in Manin, Cubic Forms, Ch. IV).
_E_ORDERS = {6: 51840, 7: 2903040, 8: 696729600}
_ORDERS = {
    "A": lambda n: factorial(n + 1),
    "D": lambda n: 2 ** (n - 1) * factorial(n),
    "E": _E_ORDERS.__getitem__,
}
_POSITIVE_ROOTS = {
    "A": lambda n: n * (n + 1) // 2,
    "D": lambda n: n * (n - 1),
    "E": {6: 36, 7: 63, 8: 120}.__getitem__,
}


def coxeter_order(roots: Sequence[DivisorClass]) -> int:
    """Order of the reflection group generated by a system of simple roots:
    the product of its components' orders (:func:`_dynkin_types`)."""
    return prod(_ORDERS[family](n) for family, n in _dynkin_types(tuple(roots)))


def _positive_root_count(roots: Sequence[DivisorClass]) -> int:
    """Number of positive roots of the system the simple roots generate."""
    return sum(_POSITIVE_ROOTS[family](n) for family, n in _dynkin_types(tuple(roots)))


@cache
def _dynkin_types(roots: tuple) -> tuple:
    """The (family, n) type of each connected component of a simple system.

    The Coxeter graph joins two roots with intersection 1; simple roots are
    roots (picard.is_kind) and distinct ones meet in 0 or 1.  Each connected
    component must be of type A_n, D_n or E_6/7/8, as every subgraph of the
    E_8 diagram is.  Cached: a surface's simple system and the stabilisers
    met in orbit counting are read once per process.
    """
    links = []
    for i, a in enumerate(roots):
        products = [intersect(a, b) for b in roots]
        if not is_kind(a, ROOT) or any(p not in (0, 1) for j, p in enumerate(products) if j != i):
            raise ValueError("coxeter_order requires a system of simple roots")
        links.append({j for j, p in enumerate(products) if p == 1})
    types, unseen = [], set(range(len(roots)))
    while unseen:
        stack = [unseen.pop()]
        component = set(stack)
        while stack:
            fresh = links[stack.pop()] - component
            component |= fresh
            stack.extend(fresh)
        unseen -= component
        types.append((_component_family(component, links), len(component)))
    return tuple(types)


def _component_family(component: set, links: list) -> str:
    size = len(component)
    hubs = [i for i in component if len(links[i]) > 2]
    if sum(len(links[i]) for i in component) == 2 * (size - 1):  # a tree
        if not hubs:
            return "A"
        if len(hubs) == 1 and len(links[hubs[0]]) == 3:
            arms = sorted(_arm_length(hubs[0], j, links) for j in links[hubs[0]])
            if arms[:2] == [1, 1]:
                return "D"
            if arms[:2] == [1, 2] and size in _E_ORDERS:
                return "E"
    raise ValueError(f"Coxeter graph on {size} roots is not of type A, D or E")


def _arm_length(hub: int, start: int, links: list) -> int:
    previous, node, length = hub, start, 1
    while len(links[node]) == 2:
        (nxt,) = links[node] - {previous}
        previous, node, length = node, nxt, length + 1
    return length


def _reflect(surface: Surface, x: tuple, a: tuple) -> tuple:
    """The reflection x -> x + (x.a) a on coordinate tuples, unchecked."""
    p = surface.dot(x, a)
    return tuple([xi + p * ai for xi, ai in zip(x, a)]) if p else x


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


def _stabiliser_roots(surface: Surface, vectors: list) -> tuple:
    """The simple roots of the surface that generate a stabiliser of the vectors.

    Steinberg (Humphreys, Reflection Groups and Coxeter Groups, 1.12): the
    stabiliser in W of a dominant vector, one whose pairing with every
    simple root is <= 0, is generated by the simple reflections that fix
    it.  The tuple (v_0, ..., v_{n-1}) is read as the one vector
    u = sum M^(n-1-k) v_k, with M = P + 1 for the bound P below.  u walks
    into the dominant chamber by reflections of positive pairing, and the
    simple roots that pair to 0 with where it lands are returned.  They
    generate the stabiliser of the moved tuple, a conjugate of the tuple's
    own.

    Why one vector does.  By the Hodge index theorem K-perp is negative
    definite.  A root a has a^2 = -2 and a.K = 0, and every w in W fixes
    K and the form, so Cauchy-Schwarz on K-perp gives
    (a.w v_k)^2 <= 2((v_k.K)^2/K^2 - v_k^2), that is |a.w v_k| <= P.
    So a.(w u) is a number in base M whose digits a.(w v_k) lie in
    [-P, P].  If the first nonzero digit has weight M^t, the later digits
    sum to at most P(M^(t-1) + ... + 1) = M^t - 1 < M^t in absolute value.
    Hence the sign of a.(w u) is the sign of the first nonzero a.(w v_k),
    and w u is dominant for the w that walks each vector in turn into
    the dominant chamber of the stabiliser of the ones before it (Steinberg
    again).  The simple roots orthogonal to that w u are those orthogonal
    to every w v_k, the stabiliser of the moved tuple.  The dominant point
    of a W-orbit is unique, so one walk of u lands there.

    The walk.  A swap l_i - l_{i+1} (f1 - f2 on the quadric) pairs with x
    as x_{i+1} - x_i, so a descending sort of the coordinates from l1 on
    (from f1 on the quadric) leaves no swap of positive pairing, and it
    makes only moves of the walk: a bubble sort exchanges neighbours only
    where their swap pairs positively.  The one other simple root, the
    Cremona root l0 - l1 - l2 - l3 (r >= 3), then moves u by _reflect if
    it pairs positively, and the next pass sorts again.

    The walk is bounded.  For a simple root a, the reflection in a
    permutes the positive roots other than a and negates a, so a move in
    a, where u.a > 0, lowers by exactly one the number of positive roots b
    with u.b > 0.  So u makes at most N moves, N the number of positive
    roots, read off the Dynkin types (:func:`_positive_root_count`).  Every
    pass but the last makes a Cremona move, so the walk takes at most
    N + 1 passes, and raises instead of running on.  Where it stops is
    certified, not assumed: every simple root must pair <= 0 with it.
    """
    k2 = surface.k_squared
    bound = max(  # P, with surface.degree(v) = -v.K
        (isqrt(2 * (surface.degree(v) ** 2 - k2 * surface.dot(v, v)) // k2) for v in vectors),
        default=0,
    )
    u = [0] * surface.picard_rank
    for v in vectors:
        u = [(bound + 1) * x + y for x, y in zip(u, v)]
    roots = simple_reflections(surface)
    start = 0 if surface.kind == QUADRIC else 1
    cremona = roots[0].coords if surface.blowups >= 3 else None  # listed first
    passes = _positive_root_count(roots) + 1
    for _ in range(passes):
        u[start:] = sorted(u[start:], reverse=True)
        if cremona is None or surface.dot(u, cremona) <= 0:
            break
        u = list(_reflect(surface, u, cremona))
    else:
        raise InvariantViolationError(
            f"a chamber walk on {surface} is not dominant after {passes} passes, "
            f"though W has {passes - 1} positive roots"
        )
    pairings = [(root, surface.dot(u, root.coords)) for root in roots]
    for root, p in pairings:
        if p > 0:
            raise InvariantViolationError(
                f"a chamber walk on {surface} ends where simple root {root} pairs to {p} > 0"
            )
    return tuple(root for root, p in pairings if not p)


def _check_transpositions(c: BlockCollection, vectors: list) -> None:
    # Inside a block c1_i - c1_j is a root (see validate_block), and the
    # pairing of any other member with block members is constant across the
    # block by semiorthogonality, so the reflection in that root swaps
    # members i and j and twists the rest: it realises the transposition.
    # The reflection x -> x + (x.a) a maps the twist invariants v onto the
    # swapped list exactly when v_i and v_{i+1} go to each other and
    # v_k.a = 0 for every other k (a = 0 makes every pairing 0), so one
    # pairing per vector decides it.
    surface, members = c.surface, c.members
    start = 0
    for b in c.blocks:
        for i in range(start, start + b.size - 1):
            a = tuple(map(sub, members[i].c1.coords, members[i + 1].c1.coords))
            u, w = vectors[i], vectors[i + 1]
            if (
                any(surface.dot(v, a) for v in vectors[:i] + vectors[i + 2 :])
                or _reflect(surface, u, a) != w
                or _reflect(surface, w, a) != u
            ):
                raise InvariantViolationError(
                    f"the reflection in c1 of member {i} minus c1 of member {i + 1} "
                    "does not swap them up to twist"
                )
        start += b.size


def orbit_count(c: BlockCollection) -> int:
    """Number of twist classes in the Weyl closure of the collection.

    Members count unordered inside each block.  By orbit-stabiliser this is
    |W| / (|W_J| * prod(s_b!)): W_J is the stabiliser of the ordered
    collection up to twist, that of its twist-invariant vectors, read off
    one chamber walk of their generic combination
    (:func:`_stabiliser_roots`), and every in-block permutation is realised by
    reflections, which is checked transposition by transposition.  The
    ranks must be nonzero with gcd 1.
    """
    ranks = tuple(m.rank for m in c.members)
    if 0 in ranks:  # the twist invariants divide by every member's rank
        raise ValueError("orbit counting requires blocks of nonzero rank")
    vectors = _twist_invariants(c, ranks)
    stabiliser = _stabiliser_roots(c.surface, vectors)
    _check_transpositions(c, vectors)
    denominator = coxeter_order(stabiliser) * prod(factorial(s) for s in c.type_vector)
    return _index(coxeter_order(simple_reflections(c.surface)), denominator)


def _index(order: int, stabiliser: int) -> int:
    """|W| / |W_J|, checked: the stabiliser order must divide |W|."""
    if order % stabiliser:
        raise InvariantViolationError(
            f"|W| = {order} is not divisible by the stabiliser order {stabiliser}"
        )
    return order // stabiliser


# ---------------------------------------------------------------------------
# The orbit table.

# Number of twist classes inside one Weyl closure that present the same
# underlying collection; shipped as data.  Six entries are nontrivial (x4,
# x5, x6.1, x7.1, x7.2 and x8.4); only x5 and x6.1 have an independent
# witness: C_WITNESSES holds braid words whose images of the build are the
# C twist classes, checked by verify_c below.
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

C_WITNESSES = {
    "x5": ((), ("R1", "R2", "R2")),
    # The build and its helix shifts by -1 and -2; helix_shift(c, -1) is L2 L1.
    "x6.1": ((), ("L2", "L1"), ("L2", "L1", "L2", "L1")),
}


class OrbitRow(NamedTuple):
    label: str
    solution_classes: int
    repetition: int
    orbits: int


@cache
def orbit_row(label: str) -> OrbitRow:
    """N, C and N/C for one equation label, computed once per process."""
    equation_by_label(label)
    n = sum(map(orbit_count, catalog.builds(label)))
    c = C_VALUES[label]
    if n % c:
        raise InvariantViolationError(f"orbit count {n} of {label} is not divisible by {c}")
    return OrbitRow(label, n, c, n // c)


def orbit_table() -> tuple[OrbitRow, ...]:
    return tuple(orbit_row(eq.label) for eq in EQUATIONS)


def verify_c(label: str) -> bool:
    """Check the stored repetition count C against its witness, if one exists.

    The images of the build under the label's C_WITNESSES words must keep
    its type vector and rank triple, have pairwise distinct twist keys
    (blockcalc.twist_normal_form), and number C.  Labels without a stored
    witness return True vacuously; an unknown label raises ValueError.
    """
    equation_by_label(label)
    if label not in C_WITNESSES:
        return True
    c = catalog.build(label, 0)
    images = [apply_word(c, word) for word in C_WITNESSES[label]]
    shape = (c.type_vector, block_rank_triple(c))
    if any((im.type_vector, block_rank_triple(im)) != shape for im in images):
        return False
    keys = {twist_normal_form(im)[0] for im in images}
    return len(keys) == len(images) == C_VALUES[label]


# ---------------------------------------------------------------------------
# Disjoint minus-one classes and the blowdown recursion.


def _disjoint_representatives(surface: Surface, m: int) -> list:
    # One tuple per W-orbit of ordered m-tuples of disjoint minus-one
    # classes; see count_disjoint_sets for why these are all of them.
    r = surface.blowups
    l = [DivisorClass.basis(surface, i) for i in range(r + 1)]
    representatives = [l[1 : m + 1]]
    if r - m == 1:
        representatives.append([l[0] - l[1] - l[2]] + l[3 : m + 2])
    return representatives


def _check_disjoint_minus_ones(classes: list) -> None:
    for i, e in enumerate(classes):
        if not is_kind(e, MINUS_ONE):
            raise InvariantViolationError(
                f"representative member {i} ({e}) is not a minus-one class"
            )
        for j in range(i):
            if intersect(e, classes[j]):
                raise InvariantViolationError(
                    f"representative members {j} and {i} ({classes[j]}, {e}) meet"
                )


def count_disjoint_sets(surface: Surface, m: int) -> int:
    """Number of m-element sets of pairwise disjoint minus-one classes.

    By orbit-stabiliser this is sum(|W| / |W_J|) / m! over the W-orbits of
    ordered m-tuples, W_J the stabiliser of a representative tuple.  The
    orbits, for 1 <= m <= r on X_r (the quadric has no minus-one class):

    * Tuples that extend to an exceptional configuration (r disjoint
      minus-one classes) form one orbit, represented by (l1, ..., lm): W
      acts simply transitively on exceptional configurations (Manin, Cubic
      Forms, Ch. IV; cited, not proven here), and the w taking one
      extension to another takes the tuple along.
    * A tuple that does not extend has an orthogonal complement, unimodular
      of signature (1, r - m), that holds no configuration of its own.  By
      the same classification (cited) the complement is then even, which
      for signature (1, n) needs n = 1 mod 8: so r - m = 1, and the
      complement is the quadric's lattice, as a degree-8 blowdown is X1 or
      the quadric.  With f1, f2 its rulings, (e1, ..., e_{m-1}, f1 - em,
      f2 - em) is an exceptional configuration whose l0 - l_m - l_r is em,
      so the w carrying one such configuration to another carries the
      tuple too: one more orbit, represented by
      (l0 - l1 - l2, l3, ..., l_{m+1}).

    The count certifies itself: each representative is checked to be
    pairwise disjoint minus-one classes, and |W_J| must divide |W| and m!
    the sum.  The enumeration of minus-one classes, which this replaces,
    is the oracle in the tests for every surface and m <= 9.
    """
    if m < 0:
        raise ValueError("set size must be nonnegative")
    if m == 0:
        return 1
    if surface.kind == QUADRIC or m > surface.blowups:
        return 0
    order = coxeter_order(simple_reflections(surface))
    ordered = 0
    for representative in _disjoint_representatives(surface, m):
        _check_disjoint_minus_ones(representative)
        stabiliser = _stabiliser_roots(surface, [e.coords for e in representative])
        ordered += _index(order, coxeter_order(stabiliser))
    if ordered % factorial(m):
        raise InvariantViolationError(
            f"{ordered} ordered disjoint {m}-tuples on {surface} are not divisible by {m}!"
        )
    return ordered // factorial(m)


class RecursionCase(NamedTuple):
    label: str
    block_length: int
    contracted: int
    smaller_label: str


RECURSION_CASES = {
    case.label: case
    for case in (
        RecursionCase("x3", 2, 1, "p2"),
        RecursionCase("x6.2", 2, 1, "p2"),
        RecursionCase("x7.1", 8, 7, "p2"),
        RecursionCase("x8.1", 9, 8, "p2"),
        RecursionCase("x8.2", 8, 5, "x3"),
    )
}


class RecursionReport(NamedTuple):
    label: str
    solution_classes: int
    binom: int
    smaller_classes: int
    disjoint_sets: int
    ok: bool


def recursion_check(label: str) -> RecursionReport:
    """Check N * C(n, m) == N' * #sets for a pinned blowdown case.

    Each case checks one identity.  N and N' are the solution classes of
    the label and of the smaller label (:func:`orbit_row`), n the case's
    block_length and m its contracted count.  #sets counts the sets of
    r - r' pairwise disjoint minus-one classes on the label's surface X_r
    (:func:`count_disjoint_sets`), X_r' being the smaller label's surface.

    RECURSION_CASES is pinned data with no derivation yet: nothing here
    says why the identity holds, or why for these five labels.  For x7.1,
    x8.1 and x8.2 the contracted count m is the blowup difference r - r'.
    For x3 and x6.2 it is 1, while the surfaces differ by 3 and 6 blowups.
    """
    if label not in RECURSION_CASES:
        raise ValueError(
            f"no recursion case stored for {label!r}; "
            f"known: {', '.join(RECURSION_CASES)}"
        )
    case = RECURSION_CASES[label]
    n = orbit_row(label).solution_classes
    n_small = orbit_row(case.smaller_label).solution_classes
    binom = comb(case.block_length, case.contracted)
    surface = equation_by_label(label).surface
    size = surface.blowups - equation_by_label(case.smaller_label).surface.blowups
    sets = count_disjoint_sets(surface, size)
    return RecursionReport(
        label, n, binom, n_small, sets, n * binom == n_small * sets
    )
