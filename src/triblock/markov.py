"""Markov-type equations attached to three-block collections.

Each equation has the shape alpha*x^2 + beta*y^2 + gamma*z^2 = q*x*y*z with
q = sqrt(K^2 * alpha * beta * gamma), where (alpha, beta, gamma) is the type
of a collection on a surface with the given K^2 and alpha + beta + gamma +
K^2 = 12.  There are exactly fourteen such equations; they are shipped as an
explicit table of labels and types (K^2 and q are derived) because no single
ordering rule reproduces the conventional row order, and the enumeration is
re-derived exhaustively in the tests.

Solution mutation follows the usual Markov trick: fixing two coordinates,
the equation is quadratic in the third, and the mutation swaps its two
roots.  Descent is one rule: with U_i = w_i*s_i^2 for the weights w, the
flip in coordinate i lowers the sum exactly when 2*U_i > U_x + U_y + U_z,
and at most one i passes (:func:`_descent`, proof in :func:`_walk`).  So
every positive solution reduces to a minimum by a unique chain of strictly
sum-decreasing mutations: the solutions form a forest rooted at the minima,
which come from a proven finite region.  One walk up that forest
(:func:`_walk`) gives the solutions within a bound and their mutation
graph.  It works on plain integers: each node carries its sum, taken from
its parent's with one coordinate replaced, and its key (sum, x, y, z), by
which callers sort; a :class:`SolutionTriple` is built once per node, for
what is returned.  Each flip the walk computes also checks the forest: one
that lowers a sum anywhere but back to the parent is an internal invariant.

Each public function checks the solution it is given once.  Internally a
solution travels with its weighted squares U (:func:`_squares`), computed
once for a checked input or a minimum and then carried: every mutation goes
through :func:`_flip`, which trusts (s, U) and returns the result with its
own squares, as plain tuples, certified by the equation itself.  The result
shares two coordinates with s, so it shares their squares, and the one new
square is computed; so by induction the carried U is always the solution's
own, and the rule reads it without multiplying.  A failure in a flip is an internal
invariant.  The rule picks the flip, and the flip's result is certified:
each descent step must solve the equation and lower the sum, the squares
carried to the minimum a reduction ends at must equal fresh ones, and that
minimum must have no sum-lowering flip among its three.
"""

from __future__ import annotations

from functools import cache
from itertools import permutations
from math import isqrt
from operator import itemgetter
from typing import Iterable, NamedTuple

from .kclass import InvariantViolationError, render_int
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


class MarkovEquation(NamedTuple):
    label: str
    alpha: int
    beta: int
    gamma: int
    coeff: int  # stored, not derived: every flip reads it
    surface: Surface

    @property
    def ksq(self) -> int:
        return self.surface.k_squared

    @property
    def type_vector(self) -> tuple[int, int, int]:
        return (self.alpha, self.beta, self.gamma)

    def __str__(self) -> str:
        terms = []
        for coefficient, var in zip(self.type_vector, VARIABLES):
            terms.append(f"{var}^2" if coefficient == 1 else f"{coefficient}{var}^2")
        return " + ".join(terms) + f" = {self.coeff}xyz"


def _eq(label: str, alpha: int, beta: int, gamma: int) -> MarkovEquation:
    if label == "p2":
        surface = Surface.plane(0)
    elif label == "quadric":
        surface = Surface.quadric()
    else:
        surface = Surface.plane(int(label[1]))
    ksq = surface.k_squared
    square = ksq * alpha * beta * gamma
    coeff = isqrt(square)
    if coeff * coeff != square:
        raise InvariantViolationError(f"{label}: K^2*alpha*beta*gamma = {square} is not a square")
    return MarkovEquation(label, alpha, beta, gamma, coeff, surface)


EQUATIONS: tuple[MarkovEquation, ...] = (
    _eq("p2", 1, 1, 1),
    _eq("quadric", 1, 1, 2),
    _eq("x3", 1, 2, 3),
    _eq("x4", 1, 1, 5),
    _eq("x5", 2, 2, 4),
    _eq("x6.1", 3, 3, 3),
    _eq("x6.2", 1, 2, 6),
    _eq("x7.1", 1, 1, 8),
    _eq("x7.2", 2, 4, 4),
    _eq("x7.3", 1, 3, 6),
    _eq("x8.1", 1, 1, 9),
    _eq("x8.2", 1, 2, 8),
    _eq("x8.3", 2, 3, 6),
    _eq("x8.4", 1, 5, 5),
)

_BY_LABEL = {eq.label: eq for eq in EQUATIONS}
# Keyed by (surface, sorted type); no two equations share a key.
_BY_SHAPE = {(eq.surface, eq.type_vector): eq for eq in EQUATIONS}


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
    try:
        return _BY_SHAPE[surface, wanted]
    except KeyError:
        raise ValueError(f"no equation of type {wanted} on {surface}") from None


def check_solution(eq: MarkovEquation, s: SolutionTriple) -> bool:
    """Whether s is a positive integer solution."""
    x, y, z = s
    if x < 1 or y < 1 or z < 1:
        return False
    return (
        eq.alpha * x * x + eq.beta * y * y + eq.gamma * z * z
        == eq.coeff * x * y * z
    )


def _show(s) -> str:
    # str(s) for messages, safe past CPython's int-to-str digit limit.
    return "(" + ",".join(map(render_int, s)) + ")"


def _require_solution(eq: MarkovEquation, s) -> SolutionTriple:
    s = SolutionTriple(*s)
    if not check_solution(eq, s):
        raise ValueError(f"{_show(s)} does not solve {eq.label}: {eq}")
    return s


def _squares(eq: MarkovEquation, s) -> tuple[int, int, int]:
    """The weighted squares U = (alpha*x^2, beta*y^2, gamma*z^2) of s."""
    x, y, z = s
    return (eq.alpha * x * x, eq.beta * y * y, eq.gamma * z * z)


def _flip(
    eq: MarkovEquation, s: tuple[int, int, int], u: tuple[int, int, int], i: int
) -> tuple[tuple[int, int, int], tuple[int, int, int]]:
    """The other root t in coordinate i of the solution s, and its squares.

    s and its weighted squares u (:func:`_squares`) are trusted.  By Vieta
    the two roots sum to P/w_i with P = coeff * s_j * s_k, where s_j and
    s_k are the other two coordinates, s[i - 1] and s[i - 2].  The result
    copies s_j and s_k, so u_j and u_k are its own squares too, and
    t >= 1 with u_j + u_k + w_i*t^2 == P*t is exactly :func:`check_solution`
    on it: every flip certifies what it produces, and its squares come
    with it.  Both come back as plain tuples; the public functions wrap
    what they return in :class:`SolutionTriple`.
    """
    p = eq.coeff * s[i - 1] * s[i - 2]
    w = eq[i + 1]  # the weight: alpha, beta and gamma are fields 1 to 3
    roots, remainder = divmod(p, w)
    if remainder:
        raise InvariantViolationError(
            f"mutation of {_show(s)} in {VARIABLES[i]} is not integral for {eq.label}"
        )
    t = roots - s[i]
    square = w * t * t
    if t < 1 or u[i - 1] + u[i - 2] + square != p * t:
        raise InvariantViolationError(
            f"mutation of {_show(s)} in {VARIABLES[i]} left the solution set of {eq.label}"
        )
    if i == 0:
        return (t, s[1], s[2]), (square, u[1], u[2])
    if i == 1:
        return (s[0], t, s[2]), (u[0], square, u[2])
    return (s[0], s[1], t), (u[0], u[1], square)


def mutate_solution(eq: MarkovEquation, s, var: str) -> SolutionTriple:
    """Swap s for the other root of the equation viewed as quadratic in var."""
    s = _require_solution(eq, s)
    if var not in VARIABLES:
        raise ValueError(f"variable must be one of {VARIABLES}, got {var!r}")
    return SolutionTriple._make(_flip(eq, s, _squares(eq, s), VARIABLES.index(var))[0])


def _descent(u: tuple[int, int, int]) -> int | None:
    """The coordinate whose flip lowers the sum, or None at a minimum.

    u holds the weighted squares U_i = w_i*s_i^2 of a solution s
    (:func:`_squares`); the flip in i lowers the sum of s exactly when
    2*U_i > U_x + U_y + U_z, which holds for at most one i (see :func:`_walk`).
    """
    a, b, c = u
    total = a + b + c
    if 2 * a > total:
        return 0
    if 2 * b > total:
        return 1
    if 2 * c > total:
        return 2
    return None


def _walk(eq: MarkovEquation, sum_bound: int):
    """Yield (key, up, parent, loops) once for each solution s within the bound.

    key is (x + y + z, x, y, z); up is the coordinate of the flip back to
    the parent and parent the parent's key (both None at a root); loops
    holds the coordinates whose flip fixes s.

    A flip changes one coordinate, so it fixes s or changes the sum
    strictly.  With u_i = sqrt(w_i)*s_i it lowers the sum exactly when
    u_i^2 > u_j^2 + u_k^2, as the two roots multiply to u_j^2 + u_k^2; that
    holds for at most one i, the strictly largest.  So a non-minimum has
    exactly one sum-decreasing flip, its parent, and the solutions form a
    forest rooted at the minima.  Parents have smaller sums, so walking up
    from the minima within the bound by flips that raise the sum and stay
    within it reaches each solution there once, with no visited set.

    The stack holds (key, s, its squares, up, parent): a root's squares
    are computed from it, and a child's are the ones its certified flip
    (:func:`_flip`) produced.  A child's sum is its parent's with one
    coordinate replaced, total - s_i + t_i, so no sum is recomputed.  The
    child's flip in coordinate up is its parent (flips are involutions),
    so the other two are all that is computed for it, and a raising flip
    within the bound is pushed as it is found.  Each computed flip is also
    the forest's certificate: one that lowers the sum, at a root or off
    the parent, raises :class:`InvariantViolationError`.
    """
    stack = []
    for m in minimum_solutions(eq):
        if m.total <= sum_bound:
            stack.append(((m.total, *m), m, _squares(eq, m), None, None))
    while stack:
        key, s, u, up, parent = stack.pop()
        total = key[0]
        loops = ()
        for i in range(3):
            if i == up:
                continue
            t, squares = _flip(eq, s, u, i)
            old, new = s[i], t[i]
            if new > old:
                child_total = total - old + new
                if child_total <= sum_bound:
                    stack.append(((child_total,) + t, t, squares, i, key))
            elif new == old:
                loops += (i,)
            else:
                raise InvariantViolationError(
                    f"mutation of {_show(s)} in {VARIABLES[i]} lowers the sum "
                    f"but is not its parent in the forest of {eq.label}"
                )
        yield key, up, parent, loops


def enumerate_solutions(eq: MarkovEquation, sum_bound: int) -> tuple[SolutionTriple, ...]:
    """All positive solutions with x + y + z <= sum_bound, by sum, then x, y, z:
    the nodes of the mutation forest below the bound (see :func:`_walk`),
    sorted by their integer keys.
    """
    keys = sorted([node[0] for node in _walk(eq, sum_bound)])
    return tuple([SolutionTriple(x, y, z) for _, x, y, z in keys])


def is_minimum(eq: MarkovEquation, s) -> bool:
    """Whether no mutation strictly decreases the coordinate sum.

    Decided by the descent rule (:func:`_descent`): s is a minimum exactly
    when no i has 2*w_i*s_i^2 > sum_j w_j*s_j^2.  No flip is computed.
    """
    s = _require_solution(eq, s)
    return _descent(_squares(eq, s)) is None


@cache
def minimum_solutions(eq: MarkovEquation) -> tuple[SolutionTriple, ...]:
    """The minimal solutions, ordered by the key (z, x, y), computed once per
    equation: every walk from the minima reads them.

    Write u_i = sqrt(w_i)*s_i for the weights w = (alpha, beta, gamma) and
    k = sqrt(K^2); a solution is then sum(u_i^2) = k*u_1*u_2*u_3.  Order
    u_a <= u_b <= u_c.  A minimum has u_c^2 <= u_a^2 + u_b^2 (see
    :func:`_walk`), so u_c is the smaller root of
    f(t) = t^2 - k*u_a*u_b*t + u_a^2 + u_b^2, whose roots multiply to
    u_a^2 + u_b^2.  Then:

    * k*u_a*u_b*u_c = u_a^2 + u_b^2 + u_c^2 > 2*u_b*u_c, so k*u_a > 2;
    * k*u_a*u_b*u_c <= 2*(u_a^2 + u_b^2) <= 4*u_b*u_c, so k*u_a <= 4;
    * u_b <= u_c is at most the smaller root, so f(u_b) >= 0, which is
      u_b^2*(k*u_a - 2) <= u_a^2.

    Squared, with U_i = w_i*s_i^2, these read 4 < K^2*U_a <= 16 and
    K^2*U_a*U_b^2 <= (U_a + 2*U_b)^2, a downward parabola in U_b that is
    positive at 0: finitely many (s_a, s_b) for each ordered pair of
    positions (a, b), with s_c the smaller root of the integer quadratic in
    the third coordinate.  Every minimum is among these candidates, and a
    candidate is kept when the descent rule (:func:`_descent`) finds no
    flip that lowers its sum.
    """
    w, ksq = eq.type_vector, eq.ksq
    found = set()
    for a, b, c in permutations(range(3)):
        s_a = 1
        while ksq * w[a] * s_a * s_a <= 16:
            big_a = w[a] * s_a * s_a
            s_b = 1
            while ksq * big_a > 4:
                big_b = w[b] * s_b * s_b
                if ksq * big_a * big_b * big_b > (big_a + 2 * big_b) ** 2:
                    break
                # w_c*t^2 - coeff*s_a*s_b*t + U_a + U_b = 0
                linear = eq.coeff * s_a * s_b
                disc = linear * linear - 4 * w[c] * (big_a + big_b)
                root = isqrt(disc) if disc >= 0 else -1
                s_c, remainder = divmod(linear - root, 2 * w[c])
                if root * root == disc and not remainder:
                    s = {a: s_a, b: s_b, c: s_c}
                    found.add(SolutionTriple(s[0], s[1], s[2]))
                s_b += 1
            s_a += 1
    minima = (s for s in found if _descent(_squares(eq, s)) is None)
    return tuple(sorted(minima, key=lambda s: (s.z, s.x, s.y)))


def reduce_to_minimum(
    eq: MarkovEquation, s
) -> list[tuple[SolutionTriple, str | None]]:
    """The strictly sum-decreasing mutation chain from s down to a minimum.

    Returns [(s0, var0), (s1, var1), ..., (minimum, None)].  At every
    non-minimal solution exactly one mutation decreases the sum, the one the
    descent rule names (:func:`_descent`), and only that one is computed.
    The weighted squares are computed once for s and then carried by the
    flips (:func:`_flip`).  Each step is certified: the mutation must solve
    the equation and lower the sum.  So is the end: the carried squares
    must be the minimum's own, and none of its three mutations may lower
    its sum.  A failure raises :class:`InvariantViolationError`.
    """
    s = _require_solution(eq, s)
    u = _squares(eq, s)
    path: list[tuple[SolutionTriple, str | None]] = []
    while (i := _descent(u)) is not None:
        nxt, u = _flip(eq, s, u, i)
        if nxt[i] >= s[i]:  # only coordinate i moved
            raise InvariantViolationError(
                f"mutation of {_show(s)} in {VARIABLES[i]} does not lower the sum for {eq.label}"
            )
        path.append((s, VARIABLES[i]))
        s = SolutionTriple._make(nxt)
    if u != _squares(eq, s):
        raise InvariantViolationError(
            f"the squares carried to {_show(s)} are not its own for {eq.label}"
        )
    if any(_flip(eq, s, u, i)[0][i] < s[i] for i in range(3)):
        raise InvariantViolationError(
            f"{_show(s)} was taken as a minimum of {eq.label} but a mutation lowers its sum"
        )
    path.append((s, None))
    return path


class SolutionGraph(NamedTuple):
    """Mutation pseudograph on the solutions within a sum bound.

    Built by :func:`build_solution_graph`, it is the mutation forest plus
    loops: each edge is a node's unique sum-lowering flip, to its parent, so
    each component is a tree on one minimum and every cycle is a loop.
    """

    equation: MarkovEquation
    sum_bound: int
    nodes: tuple[SolutionTriple, ...]
    edges: tuple[tuple[SolutionTriple, SolutionTriple, str], ...]
    loops: tuple[tuple[SolutionTriple, str], ...]
    minima: tuple[SolutionTriple, ...]

    def component_count(self) -> int:
        return len(self.minima)

    def is_acyclic(self) -> bool:
        return not self.loops


def build_solution_graph(eq: MarkovEquation, sum_bound: int) -> SolutionGraph:
    """Nodes are solutions within the bound; edges are mutations between them.

    One walk of the forest (:func:`_walk`) gives all four parts: each node
    comes with the flip to its parent, which is the edge (parent, node,
    variable), and with its loops; the roots are the minima, which
    :func:`minimum_solutions` certified.  The walk's integer keys are
    sorted, and each node becomes one :class:`SolutionTriple`, shared by
    the nodes, edges, loops and minima.
    """
    node, edges, loops, minima = {}, [], [], []
    for key, up, parent, fixed in sorted(_walk(eq, sum_bound), key=itemgetter(0)):
        s = SolutionTriple(key[1], key[2], key[3])
        node[key] = s
        if up is None:
            minima.append(s)
        else:
            # A parent's sum is smaller, so it is already in node.  The edges
            # come in child order, so the stable sort by parent key below
            # orders them by (parent, child).
            edges.append((parent, (node[parent], s, VARIABLES[up])))
        for i in fixed:
            loops.append((s, VARIABLES[i]))
    edges.sort(key=itemgetter(0))
    return SolutionGraph(
        eq,
        sum_bound,
        tuple(node.values()),
        tuple([edge for _, edge in edges]),
        tuple(sorted(loops)),
        tuple(minima),
    )
