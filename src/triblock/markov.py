"""Markov-type equations attached to three-block collections.

Each equation has the shape alpha*x^2 + beta*y^2 + gamma*z^2 = q*x*y*z with
q = sqrt(K^2 * alpha * beta * gamma), where (alpha, beta, gamma) is the type
of a collection on a surface with the given K^2 and alpha + beta + gamma +
K^2 = 12.  There are exactly fourteen such equations; they are shipped as an
explicit table because no single ordering rule reproduces the conventional
row order, and the enumeration is re-derived exhaustively in the tests.

Solution mutation follows the usual Markov trick: fixing two coordinates,
the equation is quadratic in the third, and the mutation swaps its two
roots.  Every positive solution reduces to a minimum by a chain of strictly
sum-decreasing mutations, unique at every step.

Each public function checks the solution it is given once.  Internally every
mutation goes through :func:`_flip`, which trusts its input and checks the
solution it produces; a failure there is an internal invariant.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt
from typing import Iterable, NamedTuple

from .kclass import InvariantViolationError
from .picard import Surface

VARIABLES = ("x", "y", "z")


class SolutionTriple(NamedTuple):
    x: int
    y: int
    z: int

    @property
    def total(self) -> int:
        return self.x + self.y + self.z

    def __str__(self) -> str:
        return f"({self.x},{self.y},{self.z})"


@dataclass(frozen=True)
class MarkovEquation:
    label: str
    alpha: int
    beta: int
    gamma: int
    ksq: int
    coeff: int
    surface: Surface

    @property
    def type_vector(self) -> tuple[int, int, int]:
        return (self.alpha, self.beta, self.gamma)

    def __str__(self) -> str:
        terms = []
        for coefficient, var in zip(self.type_vector, VARIABLES):
            terms.append(f"{var}^2" if coefficient == 1 else f"{coefficient}{var}^2")
        return " + ".join(terms) + f" = {self.coeff}xyz"


def _eq(label: str, alpha: int, beta: int, gamma: int, ksq: int, coeff: int) -> MarkovEquation:
    if label == "p2":
        surface = Surface.plane(0)
    elif label == "quadric":
        surface = Surface.quadric()
    else:
        surface = Surface.plane(int(label[1]))
    return MarkovEquation(label, alpha, beta, gamma, ksq, coeff, surface)


EQUATIONS: tuple[MarkovEquation, ...] = (
    _eq("p2", 1, 1, 1, 9, 3),
    _eq("quadric", 1, 1, 2, 8, 4),
    _eq("x3", 1, 2, 3, 6, 6),
    _eq("x4", 1, 1, 5, 5, 5),
    _eq("x5", 2, 2, 4, 4, 8),
    _eq("x6.1", 3, 3, 3, 3, 9),
    _eq("x6.2", 1, 2, 6, 3, 6),
    _eq("x7.1", 1, 1, 8, 2, 4),
    _eq("x7.2", 2, 4, 4, 2, 8),
    _eq("x7.3", 1, 3, 6, 2, 6),
    _eq("x8.1", 1, 1, 9, 1, 3),
    _eq("x8.2", 1, 2, 8, 1, 4),
    _eq("x8.3", 2, 3, 6, 1, 6),
    _eq("x8.4", 1, 5, 5, 1, 5),
)

_BY_LABEL = {eq.label: eq for eq in EQUATIONS}


def enumerate_equations() -> tuple[MarkovEquation, ...]:
    """The fourteen equations in conventional order."""
    return EQUATIONS


def equation_by_label(label: str) -> MarkovEquation:
    try:
        return _BY_LABEL[label]
    except KeyError:
        raise ValueError(
            f"unknown equation label {label!r}; known: {', '.join(_BY_LABEL)}"
        ) from None


def equation_for(surface: Surface, type_vector: Iterable[int]) -> MarkovEquation:
    """Look an equation up by surface and (sorted) block type."""
    wanted = tuple(sorted(type_vector))
    for eq in EQUATIONS:
        if eq.surface == surface and eq.type_vector == wanted:
            return eq
    raise ValueError(f"no equation of type {wanted} on {surface}")


def check_solution(eq: MarkovEquation, s: SolutionTriple) -> bool:
    """Whether s is a positive integer solution."""
    x, y, z = s
    if x < 1 or y < 1 or z < 1:
        return False
    return (
        eq.alpha * x * x + eq.beta * y * y + eq.gamma * z * z
        == eq.coeff * x * y * z
    )


def _require_solution(eq: MarkovEquation, s) -> SolutionTriple:
    s = SolutionTriple(*s)
    if not check_solution(eq, s):
        raise ValueError(f"{s} does not solve {eq.label}: {eq}")
    return s


def _flip(eq: MarkovEquation, s: SolutionTriple, i: int) -> SolutionTriple:
    """The other root in coordinate i of the solution s, which is trusted.

    By Vieta the two roots sum to coeff * s_j * s_k / weight_i.
    """
    others = s.x * s.y * s.z // s[i]
    roots, remainder = divmod(eq.coeff * others, eq.type_vector[i])
    if remainder:
        raise InvariantViolationError(
            f"mutation of {s} in {VARIABLES[i]} is not integral for {eq.label}"
        )
    out = list(s)
    out[i] = roots - s[i]
    result = SolutionTriple(*out)
    if not check_solution(eq, result):
        raise InvariantViolationError(
            f"mutation of {s} in {VARIABLES[i]} left the solution set of {eq.label}"
        )
    return result


def mutate_solution(eq: MarkovEquation, s, var: str) -> SolutionTriple:
    """Swap s for the other root of the equation viewed as quadratic in var."""
    s = _require_solution(eq, s)
    if var not in VARIABLES:
        raise ValueError(f"variable must be one of {VARIABLES}, got {var!r}")
    return _flip(eq, s, VARIABLES.index(var))


def enumerate_solutions(eq: MarkovEquation, sum_bound: int) -> tuple[SolutionTriple, ...]:
    """All positive solutions with x + y + z <= sum_bound.

    For fixed (x, y) the equation is an integer quadratic in z; both roots
    are read off the discriminant, so the sweep is quadratic in the bound.
    """
    found = set()
    for x in range(1, sum_bound - 1):
        for y in range(1, sum_bound - x):
            # gamma*z^2 - coeff*x*y*z + (alpha*x^2 + beta*y^2) = 0
            b = eq.coeff * x * y
            const = eq.alpha * x * x + eq.beta * y * y
            disc = b * b - 4 * eq.gamma * const
            if disc < 0:
                continue
            root = isqrt(disc)
            if root * root != disc:
                continue
            for z2 in (b - root, b + root):
                if z2 > 0 and z2 % (2 * eq.gamma) == 0:
                    z = z2 // (2 * eq.gamma)
                    if x + y + z <= sum_bound:
                        found.add(SolutionTriple(x, y, z))
    return tuple(sorted(found, key=lambda s: (s.total,) + tuple(s)))


def is_minimum(eq: MarkovEquation, s) -> bool:
    """Whether no mutation strictly decreases the coordinate sum."""
    s = _require_solution(eq, s)
    return all(_flip(eq, s, i).total >= s.total for i in range(3))


def minimum_solutions(eq: MarkovEquation) -> tuple[SolutionTriple, ...]:
    """The minimal solutions, ordered by the key (z, x, y)."""
    minima = [s for s in enumerate_solutions(eq, 64) if is_minimum(eq, s)]
    return tuple(sorted(minima, key=lambda s: (s.z, s.x, s.y)))


def reduce_to_minimum(
    eq: MarkovEquation, s
) -> list[tuple[SolutionTriple, str | None]]:
    """The strictly sum-decreasing mutation chain from s down to a minimum.

    Returns [(s0, var0), (s1, var1), ..., (minimum, None)].  At every
    non-minimal solution exactly one of the three mutations decreases the
    sum; the chain records which.
    """
    s = _require_solution(eq, s)
    path: list[tuple[SolutionTriple, str | None]] = []
    while True:
        mutations = [(v, _flip(eq, s, i)) for i, v in enumerate(VARIABLES)]
        decreasing = [(v, t) for v, t in mutations if t.total < s.total]
        if not decreasing:
            path.append((s, None))
            return path
        if len(decreasing) > 1:
            raise InvariantViolationError(
                f"{s} has several sum-decreasing mutations for {eq.label}"
            )
        var, nxt = decreasing[0]
        path.append((s, var))
        s = nxt


@dataclass(frozen=True)
class SolutionGraph:
    """Mutation pseudograph on the solutions within a sum bound."""

    equation: MarkovEquation
    sum_bound: int
    nodes: tuple[SolutionTriple, ...]
    edges: tuple[tuple[SolutionTriple, SolutionTriple, str], ...]
    loops: tuple[tuple[SolutionTriple, str], ...]
    minima: tuple[SolutionTriple, ...]

    def component_count(self) -> int:
        index = {s: i for i, s in enumerate(self.nodes)}
        parent = list(range(len(self.nodes)))

        def find(i: int) -> int:
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for a, b, _ in self.edges:
            ra, rb = find(index[a]), find(index[b])
            if ra != rb:
                parent[ra] = rb
        return len({find(i) for i in range(len(self.nodes))})

    def is_acyclic(self) -> bool:
        if self.loops:
            return False
        seen = set()
        adjacency = self._adjacency()
        for start in self.nodes:
            if start in seen:
                continue
            stack = [(start, None)]
            seen.add(start)
            while stack:
                node, come_from = stack.pop()
                for nxt in adjacency[node]:
                    if nxt == come_from:
                        continue
                    if nxt in seen:
                        return False
                    seen.add(nxt)
                    stack.append((nxt, node))
        return True

    def _adjacency(self) -> dict[SolutionTriple, list[SolutionTriple]]:
        adjacency: dict[SolutionTriple, list[SolutionTriple]] = {
            s: [] for s in self.nodes
        }
        for a, b, _ in self.edges:
            adjacency[a].append(b)
            adjacency[b].append(a)
        return adjacency


def build_solution_graph(eq: MarkovEquation, sum_bound: int) -> SolutionGraph:
    """Nodes are solutions within the bound; edges are mutations between them."""
    nodes = enumerate_solutions(eq, sum_bound)
    node_set = set(nodes)
    edges = set()
    loops = set()
    minima = []
    for s in nodes:
        flips = [_flip(eq, s, i) for i in range(3)]
        for v, t in zip(VARIABLES, flips):
            if t == s:
                loops.add((s, v))
            elif t in node_set:
                a, b = sorted((s, t), key=lambda u: (u.total,) + tuple(u))
                edges.add((a, b, v))
        if all(t.total >= s.total for t in flips):
            minima.append(s)
    return SolutionGraph(
        eq,
        sum_bound,
        nodes,
        tuple(sorted(edges, key=lambda e: ((e[0].total,) + tuple(e[0]), (e[1].total,) + tuple(e[1]), e[2]))),
        tuple(sorted(loops, key=lambda l: (tuple(l[0]), l[1]))),
        tuple(minima),
    )


@dataclass(frozen=True)
class GroupWitness:
    """How an equation maps onto its group representative.

    Solutions transport by dividing coordinatewise by ``scale`` and then
    permuting: t[i] = (s/scale)[perm[i]].  The inverse multiplies back.
    """

    group: str
    representative: str
    scale: tuple[int, int, int]
    perm: tuple[int, int, int]


_GROUPS: dict[str, GroupWitness] = {
    "p2": GroupWitness("I", "p2", (1, 1, 1), (0, 1, 2)),
    "x6.1": GroupWitness("I", "p2", (1, 1, 1), (0, 1, 2)),
    "x8.1": GroupWitness("I", "p2", (3, 3, 1), (0, 1, 2)),
    "quadric": GroupWitness("II", "quadric", (1, 1, 1), (0, 1, 2)),
    "x5": GroupWitness("II", "quadric", (1, 1, 1), (0, 1, 2)),
    "x7.1": GroupWitness("II", "quadric", (2, 2, 1), (0, 1, 2)),
    "x7.2": GroupWitness("II", "quadric", (2, 1, 1), (1, 2, 0)),
    "x8.2": GroupWitness("II", "quadric", (4, 2, 1), (1, 2, 0)),
    "x3": GroupWitness("III", "x3", (1, 1, 1), (0, 1, 2)),
    "x6.2": GroupWitness("III", "x3", (2, 1, 1), (1, 0, 2)),
    "x7.3": GroupWitness("III", "x3", (3, 1, 1), (1, 2, 0)),
    "x8.3": GroupWitness("III", "x3", (3, 2, 1), (2, 1, 0)),
    "x4": GroupWitness("IV", "x4", (1, 1, 1), (0, 1, 2)),
    "x8.4": GroupWitness("IV", "x4", (5, 1, 1), (1, 2, 0)),
}


def equation_group(eq: MarkovEquation) -> GroupWitness:
    """The solution-transport class of the equation and its witness map."""
    return _GROUPS[eq.label]


def to_representative(eq: MarkovEquation, s) -> SolutionTriple:
    """Transport a solution of eq to one of its group representative."""
    s = _require_solution(eq, s)
    w = equation_group(eq)
    scaled = []
    for value, factor in zip(s, w.scale):
        if value % factor:
            raise InvariantViolationError(
                f"solution {s} of {eq.label} is not divisible by the scale {w.scale}"
            )
        scaled.append(value // factor)
    t = SolutionTriple(*(scaled[w.perm[i]] for i in range(3)))
    return _require_solution(equation_by_label(w.representative), t)


def from_representative(eq: MarkovEquation, t) -> SolutionTriple:
    """Transport a solution of the group representative back to eq."""
    w = equation_group(eq)
    t = _require_solution(equation_by_label(w.representative), t)
    scaled = [0, 0, 0]
    for i in range(3):
        scaled[w.perm[i]] = t[i]
    s = SolutionTriple(*(scaled[j] * w.scale[j] for j in range(3)))
    return _require_solution(eq, s)
