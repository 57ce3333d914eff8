"""The fourteen weighted Markov-type equations and their solution dynamics.

Solution counts and graph shapes below were frozen from independent runs of
a brute-force sweep; the small ones are easy to confirm by hand.
"""

import pytest

from triblock import markov
from triblock.kclass import InvariantViolationError
from triblock.markov import (
    EQUATIONS,
    GroupWitness,
    SolutionTriple,
    build_solution_graph,
    check_solution,
    enumerate_equations,
    enumerate_solutions,
    equation_by_label,
    equation_for,
    equation_group,
    from_representative,
    is_minimum,
    minimum_solutions,
    mutate_solution,
    reduce_to_minimum,
    to_representative,
)
from triblock.picard import Surface

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

COUNTS_200 = {
    "p2": 40, "quadric": 21, "x3": 22, "x4": 42, "x5": 21, "x6.1": 40,
    "x6.2": 20, "x7.1": 17, "x7.2": 21, "x7.3": 18, "x8.1": 30, "x8.2": 15,
    "x8.3": 17, "x8.4": 30,
}

GROUPS = {
    "I": ["p2", "x6.1", "x8.1"],
    "II": ["quadric", "x5", "x7.1", "x7.2", "x8.2"],
    "III": ["x3", "x6.2", "x7.3", "x8.3"],
    "IV": ["x4", "x8.4"],
}


def test_equation_table():
    eqs = enumerate_equations()
    assert [eq.label for eq in eqs] == list(TABLE)
    for eq in eqs:
        assert (eq.alpha, eq.beta, eq.gamma, eq.ksq, eq.coeff) == TABLE[eq.label]
        assert eq.coeff * eq.coeff == eq.ksq * eq.alpha * eq.beta * eq.gamma
        assert eq.surface.k_squared == eq.ksq


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
    with pytest.raises(InvariantViolationError, match="not integral"):
        markov._flip(equation_by_label("x8.2"), SolutionTriple(1, 1, 1), 2)
    with pytest.raises(InvariantViolationError, match="left the solution set"):
        markov._flip(equation_by_label("x8.4"), SolutionTriple(1, 1, 1), 1)


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


def test_minimum_solutions():
    for eq in EQUATIONS:
        assert [tuple(s) for s in minimum_solutions(eq)] == MINIMA[eq.label]
        for s in minimum_solutions(eq):
            assert is_minimum(eq, s)


def test_exactly_one_decreasing_mutation_off_minimum():
    for eq in EQUATIONS:
        for s in enumerate_solutions(eq, 200):
            decreasing = sum(
                mutate_solution(eq, s, v).total < s.total for v in "xyz"
            )
            if is_minimum(eq, s):
                assert decreasing == 0
            else:
                assert decreasing == 1


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


def test_plane_graph_shape():
    g = build_solution_graph(equation_by_label("p2"), 100)
    assert len(g.nodes) == 28
    assert len(g.edges) == 27
    assert g.loops == ()
    assert g.component_count() == 1
    assert g.is_acyclic()
    assert [tuple(s) for s in g.minima] == [(1, 1, 1)]


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


def test_group_membership():
    seen = {}
    for eq in EQUATIONS:
        w = equation_group(eq)
        seen.setdefault(w.group, []).append(eq.label)
        assert equation_group(equation_by_label(w.representative)) == GroupWitness(
            w.group, w.representative, (1, 1, 1), (0, 1, 2)
        )
    assert seen == GROUPS


def test_group_witness_fields():
    assert equation_group(equation_by_label("x8.1")).scale == (3, 3, 1)
    assert equation_group(equation_by_label("x8.2")) == GroupWitness(
        "II", "quadric", (4, 2, 1), (1, 2, 0)
    )
    assert equation_group(equation_by_label("x8.3")).perm == (2, 1, 0)


def test_transport_round_trip():
    for eq in EQUATIONS:
        rep = equation_by_label(equation_group(eq).representative)
        for s in enumerate_solutions(eq, 80):
            t = to_representative(eq, s)
            assert check_solution(rep, t)
            assert from_representative(eq, t) == s
        # and the other way round
        for t in enumerate_solutions(rep, 40):
            s = from_representative(eq, t)
            assert check_solution(eq, s)
            assert to_representative(eq, s) == t


def test_transport_explicit():
    x81 = equation_by_label("x8.1")
    assert to_representative(x81, (3, 3, 1)) == SolutionTriple(1, 1, 1)
    assert from_representative(x81, (1, 1, 1)) == SolutionTriple(3, 3, 1)
    x84 = equation_by_label("x8.4")
    assert to_representative(x84, (5, 2, 1)) == SolutionTriple(2, 1, 1)


def test_transport_rejects_non_solutions():
    x81 = equation_by_label("x8.1")
    with pytest.raises(ValueError, match="does not solve"):
        to_representative(x81, (1, 1, 1))
    with pytest.raises(ValueError, match="does not solve"):
        from_representative(x81, (2, 2, 2))
    # every genuine solution is divisible by the witness scale, so transport
    # never fails on real input; the explicit check covers corrupted state
    for s in enumerate_solutions(x81, 300):
        assert s.x % 3 == 0 and s.y % 3 == 0


def test_solution_triple_total():
    assert SolutionTriple(2, 5, 29).total == 36
    assert str(SolutionTriple(1, 2, 3)) == "(1,2,3)"
