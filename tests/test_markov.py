"""The fourteen weighted Markov-type equations and their solution dynamics.

Solution counts and graph shapes below were frozen from independent runs of
a brute-force sweep; the small ones are easy to confirm by hand.  That sweep,
a union-find and a cycle search stay here as oracles for the library's walk
of the mutation forest, and a three-flip descent and minimum test stay as
oracles for the descent rule.  The flip that re-squares its result to
check it, the rule that squares its input and the walk over both, as the
library had them before the weighted squares were carried, are the oracles
for the carried state.
"""

import ast
import os
import pathlib
import random
import subprocess
import sys
from functools import lru_cache
from math import isqrt

import pytest

import triblock
from triblock import markov
from triblock.kclass import InvariantViolationError
from triblock.markov import (
    EQUATIONS,
    SolutionTriple,
    build_solution_graph,
    check_solution,
    enumerate_equations,
    enumerate_solutions,
    equation_by_label,
    equation_for,
    is_minimum,
    minimum_solutions,
    mutate_solution,
    reduce_to_minimum,
)
from triblock.picard import ROOT, Surface, enumerate_classes

# label -> (alpha, beta, gamma, K^2, xyz coefficient)
TABLE = {
    "p2": (1, 1, 1, 9, 3),
    "quadric": (1, 1, 2, 8, 4),
    "x3": (1, 2, 3, 6, 6),
    "x4": (1, 1, 5, 5, 5),
    "x5": (2, 2, 4, 4, 8),
    "x6.1": (3, 3, 3, 3, 9),
    "x6.2": (1, 2, 6, 3, 6),
    "x7.1": (1, 1, 8, 2, 4),
    "x7.2": (2, 4, 4, 2, 8),
    "x7.3": (1, 3, 6, 2, 6),
    "x8.1": (1, 1, 9, 1, 3),
    "x8.2": (1, 2, 8, 1, 4),
    "x8.3": (2, 3, 6, 1, 6),
    "x8.4": (1, 5, 5, 1, 5),
}

MINIMA = {
    "p2": [(1, 1, 1)],
    "quadric": [(1, 1, 1)],
    "x3": [(1, 1, 1)],
    "x4": [(1, 2, 1), (2, 1, 1)],
    "x5": [(1, 1, 1)],
    "x6.1": [(1, 1, 1)],
    "x6.2": [(2, 1, 1)],
    "x7.1": [(2, 2, 1)],
    "x7.2": [(2, 1, 1)],
    "x7.3": [(3, 1, 1)],
    "x8.1": [(3, 3, 1)],
    "x8.2": [(4, 2, 1)],
    "x8.3": [(3, 2, 1)],
    "x8.4": [(5, 2, 1), (5, 1, 2)],
}

COUNTS_100 = {
    "p2": 28, "quadric": 17, "x3": 16, "x4": 34, "x5": 17, "x6.1": 28,
    "x6.2": 15, "x7.1": 13, "x7.2": 15, "x7.3": 14, "x8.1": 22, "x8.2": 12,
    "x8.3": 13, "x8.4": 28,
}

# The ROADMAP's recorded counts, x + y + z <= 10^20, in EQUATIONS order.
COUNTS_1E20 = (2410, 1211, 1233, 2608, 1211, 2410, 1224, 1191, 1199, 1216, 2328, 1173, 1207, 2542)

COUNTS_200 = {
    "p2": 40, "quadric": 21, "x3": 22, "x4": 42, "x5": 21, "x6.1": 40,
    "x6.2": 20, "x7.1": 17, "x7.2": 21, "x7.3": 18, "x8.1": 30, "x8.2": 15,
    "x8.3": 17, "x8.4": 30,
}

# label -> (group, representative, scale d, perm): the coordinates of a
# solution s, divided by d and permuted, t[i] = s[perm[i]] / d[perm[i]],
# solve the representative.  The group column of the ROADMAP's recorded
# counts; test_group_witnesses_are_certified certifies it.
GROUP_WITNESSES = {
    "p2": ("I", "p2", (1, 1, 1), (0, 1, 2)),
    "x6.1": ("I", "p2", (1, 1, 1), (0, 1, 2)),
    "x8.1": ("I", "p2", (3, 3, 1), (0, 1, 2)),
    "quadric": ("II", "quadric", (1, 1, 1), (0, 1, 2)),
    "x5": ("II", "quadric", (1, 1, 1), (0, 1, 2)),
    "x7.1": ("II", "quadric", (2, 2, 1), (0, 1, 2)),
    "x7.2": ("II", "quadric", (2, 1, 1), (1, 2, 0)),
    "x8.2": ("II", "quadric", (4, 2, 1), (1, 2, 0)),
    "x3": ("III", "x3", (1, 1, 1), (0, 1, 2)),
    "x6.2": ("III", "x3", (2, 1, 1), (1, 0, 2)),
    "x7.3": ("III", "x3", (3, 1, 1), (1, 2, 0)),
    "x8.3": ("III", "x3", (3, 2, 1), (2, 1, 0)),
    "x4": ("IV", "x4", (1, 1, 1), (0, 1, 2)),
    "x8.4": ("IV", "x4", (5, 1, 1), (1, 2, 0)),
}


@lru_cache(maxsize=None)
def sweep(eq, sum_bound):
    """Every solution within the bound, by brute force over (x, y).

    For fixed (x, y) the equation is an integer quadratic in z; both roots
    are read off the discriminant, so the sweep is quadratic in the bound.
    """
    found = set()
    for x in range(1, sum_bound - 1):
        for y in range(1, sum_bound - x):
            b = eq.coeff * x * y
            disc = b * b - 4 * eq.gamma * (eq.alpha * x * x + eq.beta * y * y)
            root = isqrt(disc) if disc >= 0 else -1
            if root * root != disc:
                continue
            for z2 in (b - root, b + root):
                z, remainder = divmod(z2, 2 * eq.gamma)
                if z > 0 and not remainder and x + y + z <= sum_bound:
                    found.add(SolutionTriple(x, y, z))
    return tuple(sorted(found, key=lambda s: (s.total,) + tuple(s)))


def lowering_flips(eq, s):
    """Every mutation of s that lowers its sum, found by trying all three."""
    flips = ((v, mutate_solution(eq, s, v)) for v in "xyz")
    return [(v, t) for v, t in flips if t.total < s.total]


def descend_by_three_flips(eq, s):
    """The descent path: flip every coordinate and keep the one that lowers
    the sum, until none does."""
    path = []
    while lower := lowering_flips(eq, s):
        (v, t), = lower
        path.append((s, v))
        s = t
    path.append((s, None))
    return path


def upward_walk(eq, rng, depth):
    """A seeded random walk of the given depth up the mutation forest."""
    s = rng.choice(minimum_solutions(eq))
    for _ in range(depth):
        flips = (mutate_solution(eq, s, v) for v in "xyz")
        s = rng.choice([t for t in flips if t.total > s.total])
    return s


def oracle_flip(eq, s, i):
    """The other root in coordinate i, checked by check_solution on the result."""
    roots, remainder = divmod(eq.coeff * s[i - 1] * s[i - 2], eq.type_vector[i])
    if remainder:
        raise InvariantViolationError(
            f"mutation of {markov._show(s)} in {'xyz'[i]} is not integral for {eq.label}"
        )
    out = list(s)
    out[i] = roots - s[i]
    result = SolutionTriple(*out)
    if not check_solution(eq, result):
        raise InvariantViolationError(
            f"mutation of {markov._show(s)} in {'xyz'[i]} left the solution set of {eq.label}"
        )
    return result


def oracle_descent(eq, s):
    """The i with 2*w_i*s_i^2 > sum_j w_j*s_j^2, squaring s afresh, or None."""
    big = [w * v * v for w, v in zip(eq.type_vector, s)]
    total = sum(big)
    for i in range(3):
        if 2 * big[i] > total:
            return i
    return None


def oracle_walk(eq, sum_bound):
    """Yield (s, its flips) up the forest by oracle_flip, with no carried state."""
    stack = [(m, None, None) for m in minimum_solutions(eq) if m.total <= sum_bound]
    while stack:
        s, up, parent = stack.pop()
        flips = [parent if i == up else oracle_flip(eq, s, i) for i in range(3)]
        yield s, flips
        stack.extend(
            (t, i, s) for i, t in enumerate(flips) if s.total < t.total <= sum_bound
        )


def walk_parts(walk):
    """Nodes, edges, loops and minima of a walk, as sets."""
    nodes, edges, loops, minima = set(), set(), set(), set()
    for s, flips in walk:
        nodes.add(s)
        for v, t in zip("xyz", flips):
            if t == s:
                loops.add((s, v))
            elif t.total < s.total:
                edges.add((t, s, v))
        if all(t.total >= s.total for t in flips):
            minima.add(s)
    return nodes, edges, loops, minima


def union_find_components(graph):
    parent = {s: s for s in graph.nodes}

    def find(s):
        while parent[s] != s:
            parent[s] = parent[parent[s]]
            s = parent[s]
        return s

    for a, b, _ in graph.edges:
        parent[find(a)] = find(b)
    return len({find(s) for s in graph.nodes})


def has_cycle(graph):
    if graph.loops:
        return True
    adjacency = {s: [] for s in graph.nodes}
    for a, b, _ in graph.edges:
        adjacency[a].append(b)
        adjacency[b].append(a)
    seen = set()
    for start in graph.nodes:
        if start in seen:
            continue
        seen.add(start)
        stack = [(start, None)]
        while stack:
            node, come_from = stack.pop()
            for nxt in adjacency[node]:
                if nxt == come_from:
                    continue
                if nxt in seen:
                    return True
                seen.add(nxt)
                stack.append((nxt, node))
    return False


def test_equation_table():
    eqs = enumerate_equations()
    assert [eq.label for eq in eqs] == list(TABLE)
    for eq in eqs:
        assert (eq.alpha, eq.beta, eq.gamma, eq.ksq, eq.coeff) == TABLE[eq.label]
        assert eq.coeff * eq.coeff == eq.ksq * eq.alpha * eq.beta * eq.gamma
        assert eq.surface.k_squared == eq.ksq
        with pytest.raises(AttributeError):
            eq.coeff = 0


def test_equation_coefficient_must_be_an_exact_root():
    # K^2 = 5 on X4, and 5*1*1*2 = 10 has no integral square root.
    with pytest.raises(InvariantViolationError, match="x4: .* = 10 is not a square"):
        markov._eq("x4", 1, 1, 2)


def test_equation_list_is_the_exhaustive_search():
    # Types alpha <= beta <= gamma with alpha + beta + gamma = 12 - K^2 and
    # K^2*alpha*beta*gamma a perfect square, over K^2 = 1..9: exactly the
    # fourteen (K^2, type) pairs, each with coefficient its square root.
    found = set()
    for ksq in range(1, 10):
        for alpha in range(1, 12):
            for beta in range(alpha, 12):
                gamma = 12 - ksq - alpha - beta
                square = ksq * alpha * beta * gamma
                if gamma >= beta and isqrt(square) ** 2 == square:
                    found.add((ksq, (alpha, beta, gamma)))
    assert len(found) == 14
    assert {(eq.ksq, eq.type_vector) for eq in EQUATIONS} == found
    for eq in EQUATIONS:
        assert eq.coeff == isqrt(eq.ksq * eq.alpha * eq.beta * eq.gamma)
    # K^2 = 8 gives only (1, 1, 2), and it lives on the quadric: a block of
    # two classes differs by a root, and X1 has none.
    assert [(k, t) for k, t in found if k == 8] == [(8, (1, 1, 2))]
    assert not enumerate_classes(Surface.plane(1), ROOT)
    assert [eq.surface for eq in EQUATIONS if eq.ksq == 8] == [Surface.quadric()]


def test_equation_str():
    assert str(equation_by_label("p2")) == "x^2 + y^2 + z^2 = 3xyz"
    assert str(equation_by_label("x3")) == "x^2 + 2y^2 + 3z^2 = 6xyz"
    assert str(equation_by_label("x8.4")) == "x^2 + 5y^2 + 5z^2 = 5xyz"


def test_surface_assignment():
    by_surface = {}
    for eq in EQUATIONS:
        by_surface.setdefault(eq.surface.name, []).append(eq.label)
    assert by_surface == {
        "P2": ["p2"],
        "quadric": ["quadric"],
        "X3": ["x3"],
        "X4": ["x4"],
        "X5": ["x5"],
        "X6": ["x6.1", "x6.2"],
        "X7": ["x7.1", "x7.2", "x7.3"],
        "X8": ["x8.1", "x8.2", "x8.3", "x8.4"],
    }


def test_lookups():
    assert equation_for(Surface.plane(6), (6, 2, 1)).label == "x6.2"
    assert equation_for(Surface.plane(6), (1, 2, 6)).label == "x6.2"
    assert equation_for(Surface.quadric(), (1, 2, 1)).label == "quadric"
    for eq in EQUATIONS:
        assert equation_for(eq.surface, eq.type_vector[::-1]) is eq
    with pytest.raises(ValueError, match="no equation of type"):
        equation_for(Surface.plane(6), (1, 1, 1))
    with pytest.raises(ValueError, match="unknown equation label"):
        equation_by_label("x9.1")


def test_check_solution():
    p2 = equation_by_label("p2")
    assert check_solution(p2, SolutionTriple(1, 1, 1))
    assert check_solution(p2, SolutionTriple(2, 1, 1))
    assert check_solution(p2, SolutionTriple(1, 5, 2))
    assert not check_solution(p2, SolutionTriple(1, 2, 2))
    assert not check_solution(p2, SolutionTriple(0, 0, 0))
    assert not check_solution(p2, SolutionTriple(-1, -1, 1))
    x84 = equation_by_label("x8.4")
    assert check_solution(x84, SolutionTriple(5, 2, 1))
    assert check_solution(x84, SolutionTriple(5, 1, 2))
    assert not check_solution(x84, SolutionTriple(5, 2, 2))


def test_mutation_is_involutive_and_vieta():
    for eq in EQUATIONS:
        for s in enumerate_solutions(eq, 120):
            for var, weight in zip("xyz", eq.type_vector):
                t = mutate_solution(eq, s, var)
                assert check_solution(eq, t)
                assert mutate_solution(eq, t, var) == s
                i = "xyz".index(var)
                others = [s[j] for j in range(3) if j != i]
                other_weights = [eq.type_vector[j] for j in range(3) if j != i]
                # Vieta: the two roots of the quadratic in this variable
                product = s[i] * t[i] * weight
                assert product == sum(
                    w * v * v for w, v in zip(other_weights, others)
                )
                assert weight * (s[i] + t[i]) == eq.coeff * others[0] * others[1]


def test_mutation_rejects_bad_input():
    p2 = equation_by_label("p2")
    with pytest.raises(ValueError, match="does not solve"):
        mutate_solution(p2, (1, 2, 2), "x")
    with pytest.raises(ValueError):
        mutate_solution(p2, (1, 1, 1), "w")


def test_flip_checks_what_it_produces():
    # _flip trusts its input, so a non-solution going in shows up as a
    # broken invariant on the way out.
    one = SolutionTriple(1, 1, 1)
    x82, x84 = equation_by_label("x8.2"), equation_by_label("x8.4")
    with pytest.raises(InvariantViolationError, match="not integral"):
        markov._flip(x82, one, markov._squares(x82, one), 2)
    with pytest.raises(InvariantViolationError, match="left the solution set"):
        markov._flip(x84, one, markov._squares(x84, one), 1)


def test_flip_rejects_forged_squares():
    # A carried square that is not its coordinate's breaks the certificate
    # of every flip that reads it: the flips in the other two coordinates.
    p2 = equation_by_label("p2")
    s = SolutionTriple(2, 5, 29)
    u = markov._squares(p2, s)
    for j in range(3):
        forged = tuple(v + (k == j) for k, v in enumerate(u))
        for i in range(3):
            if i == j:
                assert markov._flip(p2, s, forged, i)[0] == oracle_flip(p2, s, i)
                continue
            with pytest.raises(
                InvariantViolationError,
                match=rf"mutation of \(2,5,29\) in {'xyz'[i]} left the solution set of p2",
            ):
                markov._flip(p2, s, forged, i)


def test_internal_steps_validate_input_once(monkeypatch):
    checked = []
    require = markov._require_solution
    public_is_minimum = markov.is_minimum

    def counting_require(eq, s):
        checked.append(s)
        return require(eq, s)

    def forbidden(*args):
        raise AssertionError("an internal step went through a public function")

    monkeypatch.setattr(markov, "_require_solution", counting_require)
    monkeypatch.setattr(markov, "mutate_solution", forbidden)
    p2 = equation_by_label("p2")
    assert public_is_minimum(p2, (1, 1, 1))
    assert not public_is_minimum(p2, (2, 5, 29))
    assert len(checked) == 2
    monkeypatch.setattr(markov, "is_minimum", forbidden)
    checked.clear()
    assert len(reduce_to_minimum(p2, (2, 5, 29))) == 4
    assert len(checked) == 1
    checked.clear()
    graphs = [build_solution_graph(eq, 150) for eq in EQUATIONS]
    assert checked == []
    for eq, graph in zip(EQUATIONS, graphs):
        assert graph.minima == tuple(
            s for s in graph.nodes if public_is_minimum(eq, s)
        )


def test_solution_counts():
    for eq in EQUATIONS:
        sols = enumerate_solutions(eq, 100)
        assert len(sols) == COUNTS_100[eq.label]
        assert len(enumerate_solutions(eq, 200)) == COUNTS_200[eq.label]
        assert all(check_solution(eq, s) for s in sols)
        assert all(s.total <= 100 for s in sols)
        assert sorted(sols, key=lambda s: (s.total,) + tuple(s)) == list(sols)


def test_recorded_counts_to_1e20():
    counts = tuple(len(enumerate_solutions(eq, 10**20)) for eq in EQUATIONS)
    assert counts == COUNTS_1E20


def test_minimum_solutions():
    for eq in EQUATIONS:
        assert [tuple(s) for s in minimum_solutions(eq)] == MINIMA[eq.label]
        for s in minimum_solutions(eq):
            assert is_minimum(eq, s)


def test_minimum_solutions_are_computed_once_per_equation():
    for eq in EQUATIONS:
        assert minimum_solutions(eq) is minimum_solutions(eq)


def test_exactly_one_decreasing_mutation_off_minimum():
    # is_minimum decides by the descent rule alone; the oracle flips all three.
    for eq in EQUATIONS:
        for s in sweep(eq, 400):
            decreasing = len(lowering_flips(eq, s))
            assert decreasing <= 1, (eq.label, s)
            assert is_minimum(eq, s) == (decreasing == 0), (eq.label, s)


def test_reduce_path_frozen():
    p2 = equation_by_label("p2")
    path = reduce_to_minimum(p2, (2, 5, 29))
    assert path == [
        (SolutionTriple(2, 5, 29), "z"),
        (SolutionTriple(2, 5, 1), "y"),
        (SolutionTriple(2, 1, 1), "x"),
        (SolutionTriple(1, 1, 1), None),
    ]
    assert reduce_to_minimum(p2, (1, 1, 1)) == [(SolutionTriple(1, 1, 1), None)]
    with pytest.raises(ValueError, match="does not solve"):
        reduce_to_minimum(p2, (1, 2, 2))


def test_reduction_terminates_at_table_minimum():
    for eq in EQUATIONS:
        minima = {tuple(s) for s in minimum_solutions(eq)}
        for s in enumerate_solutions(eq, 150):
            path = reduce_to_minimum(eq, s)
            end, tail_var = path[-1]
            assert tail_var is None
            assert tuple(end) in minima
            totals = [p[0].total for p in path]
            assert totals == sorted(totals, reverse=True)


def test_reduce_matches_the_three_flip_descent():
    rng = random.Random(10)
    largest = 0
    for eq in EQUATIONS:
        for depth in (0, 1, 2, 3, 5, 8, 12, 18, 25):
            s = upward_walk(eq, rng, depth)
            path = reduce_to_minimum(eq, s)
            assert len(path) == depth + 1, eq.label
            assert path == descend_by_three_flips(eq, s), eq.label
            largest = max(largest, s.total)
    # Some walks pass CPython's 4300-digit int-to-str limit.
    assert largest > 10**4300


def test_reduce_certifies_each_step_and_the_minimum(monkeypatch):
    p2 = equation_by_label("p2")
    descent = markov._descent
    # A rule naming, once, a flip that raises the sum: (2,5,29) -> (433,5,29).
    lies = [0]
    monkeypatch.setattr(
        markov, "_descent", lambda u: lies.pop() if lies else descent(u)
    )
    with pytest.raises(
        InvariantViolationError,
        match=r"mutation of \(2,5,29\) in x does not lower the sum for p2",
    ):
        reduce_to_minimum(p2, (2, 5, 29))
    # A rule that misses the descent of a non-minimum.
    monkeypatch.setattr(markov, "_descent", lambda u: None)
    with pytest.raises(
        InvariantViolationError,
        match=r"\(2,5,29\) was taken as a minimum of p2 but a mutation lowers its sum",
    ):
        reduce_to_minimum(p2, (2, 5, 29))


def test_invariant_failures_past_the_int_to_str_limit(monkeypatch):
    # A depth-25 walk passes CPython's 4300-digit int-to-str limit; a failed
    # certificate on it must still report the broken invariant.
    p2 = equation_by_label("p2")
    s = upward_walk(p2, random.Random(10), 25)
    assert s.total > 10**4300
    with pytest.raises(ValueError, match=r"^\(\d{20}\.\.\.\(\d+ digits\),.*\) does not solve p2"):
        reduce_to_minimum(p2, (s.x + 1, s.y, s.z))
    monkeypatch.setattr(markov, "_descent", lambda u: None)
    with pytest.raises(
        InvariantViolationError,
        match=r"^\(\d{20}\.\.\.\(\d+ digits\),.*\) was taken as a minimum of p2",
    ):
        reduce_to_minimum(p2, s)


def test_flips_per_descent_step_and_per_walk_node(monkeypatch):
    calls = []
    flip = markov._flip

    def counting_flip(eq, s, u, i):
        calls.append(i)
        return flip(eq, s, u, i)

    monkeypatch.setattr(markov, "_flip", counting_flip)
    rng = random.Random(11)
    for eq in EQUATIONS:
        s = upward_walk(eq, rng, 12)
        calls.clear()
        path = reduce_to_minimum(eq, s)
        # one flip per step down, and three to certify the minimum
        assert len(calls) == (len(path) - 1) + 3, eq.label
        calls.clear()
        g = build_solution_graph(eq, 400)
        # three per root; a child's flip back to its parent is not recomputed
        roots = len(g.minima)
        assert len(calls) == 3 * roots + 2 * (len(g.nodes) - roots), eq.label


def test_reduce_checks_the_squares_it_carried(monkeypatch):
    # A flip whose squares drift where no later flip reads them: (2,1,1)
    # reduces in one step, and (2,1,1) as the squares of (1,1,1) pass the
    # rule as a minimum.  Only the fresh squares at the end catch it.
    p2 = equation_by_label("p2")
    flip = markov._flip

    def drifting_flip(eq, s, u, i):
        t, squares = flip(eq, s, u, i)
        return t, tuple(v + (k == i) for k, v in enumerate(squares))

    monkeypatch.setattr(markov, "_flip", drifting_flip)
    with pytest.raises(
        InvariantViolationError,
        match=r"the squares carried to \(1,1,1\) are not its own for p2",
    ):
        reduce_to_minimum(p2, (2, 1, 1))


def test_carried_squares_are_the_solutions_own(monkeypatch):
    # Every flip the walk and the descent compute is handed the squares of
    # its solution and hands back those of its result.
    seen = []
    flip = markov._flip

    def checking_flip(eq, s, u, i):
        assert u == markov._squares(eq, s), (eq.label, s, u)
        t, squares = flip(eq, s, u, i)
        assert t == oracle_flip(eq, s, i)
        assert squares == markov._squares(eq, t), (eq.label, t, squares)
        seen.append(s)
        return t, squares

    monkeypatch.setattr(markov, "_flip", checking_flip)
    rng = random.Random(12)
    for eq in EQUATIONS:
        seen.clear()
        g = build_solution_graph(eq, 10**12)
        assert set(seen) == set(g.nodes), eq.label
        for depth in (1, 4, 12, 25):
            s = upward_walk(eq, rng, depth)
            seen.clear()
            path = reduce_to_minimum(eq, s)
            assert {p for p, _ in path} == set(seen), eq.label


def test_walk_certifies_the_forest(monkeypatch):
    # A flip of the child (2,5,1) that lowers its sum in x, which is not the
    # coordinate back to its parent (2,1,1): the walk must refuse it.
    p2 = equation_by_label("p2")
    flip = markov._flip

    def lowering_flip(eq, s, u, i):
        if tuple(s) == (2, 5, 1) and i == 0:
            return (1, 5, 1), markov._squares(eq, (1, 5, 1))
        return flip(eq, s, u, i)

    monkeypatch.setattr(markov, "_flip", lowering_flip)
    assert len(build_solution_graph(p2, 7).nodes) == 4
    with pytest.raises(
        InvariantViolationError,
        match=r"mutation of \(2,5,1\) in x lowers the sum but is not its parent in the forest of p2",
    ):
        build_solution_graph(p2, 8)


def test_walk_matches_the_oracle_walk():
    # Nodes, edges, loops and minima of the walk on carried squares equal
    # those of the walk that re-squares every flip to check it.
    for eq in EQUATIONS:
        g = build_solution_graph(eq, 10**25)
        nodes, edges, loops, minima = walk_parts(oracle_walk(eq, 10**25))
        assert len(g.nodes) == len(nodes) and set(g.nodes) == nodes, eq.label
        assert set(g.edges) == edges and set(g.loops) == loops, eq.label
        assert set(g.minima) == minima, eq.label
        assert all(
            markov._descent(markov._squares(eq, s)) == oracle_descent(eq, s) for s in nodes
        ), eq.label


def test_plane_graph_shape():
    g = build_solution_graph(equation_by_label("p2"), 100)
    assert len(g.nodes) == 28
    assert len(g.edges) == 27
    assert g.loops == ()
    assert g.component_count() == 1
    assert g.is_acyclic()
    assert [tuple(s) for s in g.minima] == [(1, 1, 1)]
    with pytest.raises(AttributeError):
        g.loops = ()


def test_quadric_graph_shape():
    g = build_solution_graph(equation_by_label("quadric"), 100)
    assert len(g.nodes) == 17
    assert len(g.edges) == 16
    assert g.loops == ((SolutionTriple(1, 1, 1), "z"),)
    assert g.component_count() == 1
    assert not g.is_acyclic()


def test_split_graph_shape():
    g = build_solution_graph(equation_by_label("x8.4"), 100)
    assert len(g.nodes) == 28
    assert len(g.edges) == 26
    assert len(g.loops) == 2
    assert g.component_count() == 2
    assert [tuple(s) for s in g.minima] == [(5, 1, 2), (5, 2, 1)]


@pytest.mark.parametrize("label", GROUP_WITNESSES)
def test_group_witnesses_are_certified(label):
    # With w_i*d_i^2 = g*w'_i for the weights w of the equation and w' of
    # the representative, both sides of the equation scale by g, so the
    # transport is a bijection of solutions under which the Vieta flips, and
    # so the mutation forests rooted at the minima, correspond.
    group, rep_label, d, perm = GROUP_WITNESSES[label]
    eq, rep = equation_by_label(label), equation_by_label(rep_label)
    assert GROUP_WITNESSES[rep_label] == (group, rep_label, (1, 1, 1), (0, 1, 2))
    g = eq.type_vector[perm[0]] * d[perm[0]] ** 2 // rep.alpha
    for i, p in enumerate(perm):
        assert eq.type_vector[p] * d[p] ** 2 == g * rep.type_vector[i]
    assert eq.coeff * d[0] * d[1] * d[2] == g * rep.coeff

    def to_rep(s):
        assert all(s[p] % d[p] == 0 for p in perm), s
        return SolutionTriple(*(s[p] // d[p] for p in perm))

    assert {to_rep(m) for m in minimum_solutions(eq)} == set(minimum_solutions(rep))
    for s in build_solution_graph(eq, 10**12).nodes:
        t = to_rep(s)
        assert check_solution(rep, t), s
        back = [0, 0, 0]
        for i, p in enumerate(perm):
            back[p] = t[i] * d[p]
        assert tuple(back) == s
        for i, p in enumerate(perm):
            assert to_rep(mutate_solution(eq, s, "xyz"[p])) == mutate_solution(rep, t, "xyz"[i])


def test_solution_triple_total():
    assert SolutionTriple(2, 5, 29).total == 36
    assert str(SolutionTriple(1, 2, 3)) == "(1,2,3)"


def test_walk_matches_the_sweep():
    for eq in EQUATIONS:
        assert enumerate_solutions(eq, 400) == sweep(eq, 400), eq.label
        # the bound is inclusive: stop exactly at the largest sum found
        assert enumerate_solutions(eq, sweep(eq, 400)[-1].total) == sweep(eq, 400)
    p2 = equation_by_label("p2")
    assert enumerate_solutions(p2, 2000) == sweep(p2, 2000)


def test_minima_region_matches_the_sweep():
    # No minimum lies outside the proven region, here up to sum 300.
    for eq in EQUATIONS:
        swept = [s for s in sweep(eq, 300) if is_minimum(eq, s)]
        assert sorted(minimum_solutions(eq)) == sorted(swept), eq.label


def test_graph_matches_the_oracles():
    # Nodes from the sweep, edges and loops from every mutation between
    # them, shape from a union-find and a cycle search.  Besides 400, the
    # bounds are 0, one below the smallest minimum's sum (both give the
    # empty graph) and the sum of a node halfway up (the bound is inclusive).
    for eq in EQUATIONS:
        swept = sweep(eq, 400)
        lowest = min(m.total for m in minimum_solutions(eq))
        for bound in (0, lowest - 1, swept[len(swept) // 2].total, 400):
            _assert_graph_matches_the_oracles(eq, bound)
        assert build_solution_graph(eq, lowest - 1).nodes == (), eq.label


def _assert_graph_matches_the_oracles(eq, bound):
    def key(u):
        return (u.total,) + tuple(u)

    g = build_solution_graph(eq, bound)
    assert g.nodes == sweep(eq, bound), (eq.label, bound)
    nodes = set(g.nodes)
    edges, loops = set(), set()
    for s in g.nodes:
        for var in "xyz":
            t = mutate_solution(eq, s, var)
            if t == s:
                loops.add((s, var))
            elif t in nodes:
                edges.add((*sorted((s, t), key=key), var))
    assert set(g.edges) == edges and set(g.loops) == loops, (eq.label, bound)
    # The order the CLI prints: edges by (parent, child), minima by key,
    # loops by solution then variable.
    assert list(g.edges) == sorted(edges, key=lambda e: (key(e[0]), key(e[1]), e[2]))
    assert list(g.minima) == sorted(g.minima, key=key) and list(g.loops) == sorted(loops)
    assert g.component_count() == union_find_components(g), (eq.label, bound)
    assert g.is_acyclic() == (not has_cycle(g)), (eq.label, bound)


def test_large_graph_is_the_forest_below_the_bound():
    bound = 10**6
    p2 = equation_by_label("p2")
    g = build_solution_graph(p2, bound)
    nodes = set(g.nodes)
    assert len(nodes) == len(g.nodes)
    assert all(check_solution(p2, s) and s.total <= bound for s in g.nodes)
    assert g.minima == (SolutionTriple(1, 1, 1),)
    edges = set(g.edges)
    for s in g.nodes:
        path = reduce_to_minimum(p2, s)
        if len(path) > 1:
            var = path[0][1]
            assert path[1][0] in nodes
            assert (path[1][0], s, var) in edges
    assert len(g.edges) == len(g.nodes) - len(g.minima)
    assert g.loops == ()
    assert g.component_count() == 1 and g.is_acyclic()


def test_import_loads_only_the_layers_below():
    # The package re-exports nothing, so importing a layer in a fresh
    # interpreter loads only the modules it is built on.
    below = {
        "picard": {"picard"},
        "kclass": {"picard", "kclass"},
        "blockcalc": {"picard", "kclass", "blockcalc"},
        "markov": {"picard", "kclass", "markov"},
        "catalog": {"picard", "kclass", "blockcalc", "markov", "catalog"},
        # weyl reads its collections from the catalog
        "weyl": {"picard", "kclass", "blockcalc", "markov", "catalog", "weyl"},
    }
    root = os.path.dirname(os.path.dirname(os.path.abspath(triblock.__file__)))
    env = dict(os.environ, PYTHONPATH=root)
    for layer, expected in below.items():
        code = (
            f"import sys, triblock.{layer}; "
            "print(' '.join(sorted(m[9:] for m in sys.modules if m.startswith('triblock.'))))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        ).stdout
        assert set(out.split()) == expected, layer


def test_no_module_imports_a_private_name():
    # A `_`-prefixed name belongs to its own module: no module of the
    # package imports one, whether from a sibling or from elsewhere.
    package = pathlib.Path(triblock.__file__).parent
    found = [
        f"{path.name}:{node.lineno} {alias.name}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert len(list(package.glob("*.py"))) > 5 and found == []


def test_import_loads_neither_dataclasses_nor_fractions(tmp_path):
    # The value types are NamedTuples, kclass.slope imports fractions on its
    # first call and verify compares slopes as integers, so importing the
    # CLI, which imports every layer, and verifying a complete collection
    # leave out dataclasses, fractions and what they would load.  What the
    # interpreter loads at start-up, read from a bare child with the same
    # flags, is not triblock's and does not count.
    root = os.path.dirname(os.path.dirname(os.path.abspath(triblock.__file__)))
    env = dict(os.environ, PYTHONPATH=root)
    flags = subprocess._args_from_interpreter_flags()
    heavy = ("dataclasses", "inspect", "fractions", "decimal")
    show = f"print(*(m for m in {heavy!r} if m in sys.modules), sep=',')\n"

    def run(code):
        argv = [sys.executable, *flags, "-c", code]
        return subprocess.run(argv, env=env, capture_output=True, text=True, check=True).stdout.splitlines()

    (bare,) = run("import sys\n" + show)
    doc = str(tmp_path / "x8.3.json")
    code = (
        "import json, sys, triblock.cli\n" + show + "from triblock import catalog\n"
        f"with open({doc!r}, 'w') as f:\n"
        "    json.dump(triblock.cli.collection_to_doc(catalog.build('x8.3', 0)), f)\n"
        f"print(triblock.cli.main(['verify', {doc!r}]))\n" + show +
        "from triblock.kclass import KClass, slope\n"
        "from triblock.picard import DivisorClass, Surface\n"
        "value = slope(KClass(2, DivisorClass(Surface.plane(0), (1,)), -1))\n"
        "print('fractions' in sys.modules, type(value).__module__, type(value).__name__, value)\n"
    )
    out = run(code)
    assert out[0] == bare and out[-3:-1] == ["0", bare], out
    assert "ok: block slopes  (4/3 < 3/2 < 2)" in out
    assert out[-1] == "True fractions Fraction 3/2"
