"""Expected values and an independent integer model for checking results.

Nothing here imports triblock.  The frozen tables are copied from the
acceptance gate (tests/test_acceptance.py) so that the benchmark judges the
program against fixed numbers, and the small Euler-form model below redoes
block mutation on plain integer tuples so that every braid move can be
compared with a second computation.

A class is ``(rank, c1, ch2x2)`` with ``c1`` a tuple of coordinates in the
fixed basis; a collection is a tuple of blocks, each a tuple of classes.
"""

from __future__ import annotations

from math import comb

# (label, solution) -> rank triple of the built collection; these sixteen
# pairs are the cataloged collections every set-up builds.
BUILT_RANKS = {
    ("p2", 0): (1, 1, 1),
    ("quadric", 0): (1, 1, 1),
    ("x3", 0): (1, 1, 1),
    ("x4", 0): (1, 2, 1),
    ("x4", 1): (2, 1, 1),
    ("x5", 0): (1, 1, 1),
    ("x6.1", 0): (1, 1, 1),
    ("x6.2", 0): (2, 1, 1),
    ("x7.1", 0): (2, 2, 1),
    ("x7.2", 0): (2, 1, 1),
    ("x7.3", 0): (3, 1, 1),
    ("x8.1", 0): (3, 3, 1),
    ("x8.2", 0): (4, 2, 1),
    ("x8.3", 0): (3, 2, 1),
    ("x8.4", 0): (5, 2, 1),
    ("x8.4", 1): (5, 1, 2),
}

# label -> (surface name, equation coefficient q, weights (alpha, beta, gamma))
EQUATIONS = {
    "p2": ("P2", 3, (1, 1, 1)),
    "quadric": ("quadric", 4, (1, 1, 2)),
    "x3": ("X3", 6, (1, 2, 3)),
    "x4": ("X4", 5, (1, 1, 5)),
    "x5": ("X5", 8, (2, 2, 4)),
    "x6.1": ("X6", 9, (3, 3, 3)),
    "x6.2": ("X6", 6, (1, 2, 6)),
    "x7.1": ("X7", 4, (1, 1, 8)),
    "x7.2": ("X7", 8, (2, 4, 4)),
    "x7.3": ("X7", 6, (1, 3, 6)),
    "x8.1": ("X8", 3, (1, 1, 9)),
    "x8.2": ("X8", 4, (1, 2, 8)),
    "x8.3": ("X8", 6, (2, 3, 6)),
    "x8.4": ("X8", 5, (1, 5, 5)),
}

TABLE_MINIMA = {
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

# label -> (N, C, N/C)
ORBIT_TABLE = {
    "p2": (1, 1, 1),
    "quadric": (1, 1, 1),
    "x3": (1, 1, 1),
    "x4": (2, 2, 1),
    "x5": (20, 2, 10),
    "x6.1": (240, 3, 80),
    "x6.2": (36, 1, 36),
    "x7.1": (72, 2, 36),
    "x7.2": (2520, 2, 1260),
    "x7.3": (672, 1, 672),
    "x8.1": (1920, 1, 1920),
    "x8.2": (8640, 1, 8640),
    "x8.3": (80640, 1, 80640),
    "x8.4": (96768, 2, 48384),
}

C_WITNESS_LABELS = ("x5", "x6.1")

# label -> (block length n, contracted m, smaller label, disjoint m-sets);
# the recursion is N * C(n, m) == N(smaller) * sets.
RECURSION = {
    "x3": (2, 1, "p2", 2),
    "x6.2": (2, 1, "p2", 72),
    "x7.1": (8, 7, "p2", 576),
    "x8.1": (9, 8, "p2", 17280),
    "x8.2": (8, 5, "x3", 483840),
}

# Document kind -> exit code of `triblock verify`.
DOC_EXIT = {
    "valid": 0,
    "non-exceptional": 2,
    "swapped-blocks": 2,
    "perturbed-c1": 2,
    "dropped-member": 2,
}
CORRUPTIONS = tuple(kind for kind in DOC_EXIT if kind != "valid")

# Lines `verify` prints for a complete three-block collection, all "ok".
VERIFY_CHECKS = (
    "blocks and semiorthogonality",
    "complete",
    "block slopes",
    "ranks solve equation",
    "abc relations",
)

VARIABLES = ("x", "y", "z")


# ---------------------------------------------------------------------------
# Euler-form model.


def dot(surface: str, a, b) -> int:
    if surface == "quadric":
        return a[0] * b[1] + a[1] * b[0]
    return a[0] * b[0] - sum(x * y for x, y in zip(a[1:], b[1:]))


def _canonical(surface: str, n: int) -> tuple:
    if surface == "quadric":
        return (-2, -2)
    return (-3,) + (1,) * (n - 1)


def chi(surface: str, e, f) -> int:
    """Riemann-Roch: 2chi = 2rr' + (r d' - r' d) + (r ch' + r' ch) - 2 c1.c1'."""
    k = _canonical(surface, len(e[1]))
    de, df = -dot(surface, e[1], k), -dot(surface, f[1], k)
    twice = (
        2 * e[0] * f[0]
        + (e[0] * df - f[0] * de)
        + (e[0] * f[2] + f[0] * e[2])
        - 2 * dot(surface, e[1], f[1])
    )
    if twice % 2:
        raise ValueError("Euler pairing is not integral")
    return twice // 2


def _scaled_sum(block, k: int):
    rank = sum(m[0] for m in block)
    c1 = tuple(sum(col) for col in zip(*(m[1] for m in block)))
    ch = sum(m[2] for m in block)
    return (k * rank, tuple(k * x for x in c1), k * ch)


def _minus(a, b):
    return (a[0] - b[0], tuple(x - y for x, y in zip(a[1], b[1])), a[2] - b[2])


def mutate(surface: str, blocks: tuple, i: int, side: str) -> tuple[tuple, str]:
    """Mutate blocks (i, i+1), 1-based; returns the new blocks and the flavour.

    Left moves block i+1 through block i, right moves block i through i+1.
    The flavour is division, recoil, extension, or trivial when the pairing
    across the pair is zero.
    """
    e, f = blocks[i - 1], blocks[i]
    values = {chi(surface, a, b) for a in e for b in f}
    if len(values) != 1:
        raise ValueError("pairing is not constant across the block pair")
    c = values.pop()
    moving, through = (f, e) if side == "left" else (e, f)
    if c == 0:
        new, kind = moving, "trivial"
    else:
        if side == "left":
            division = c > 0 and len(e) * c * e[0][0] > f[0][0]
        else:
            division = c > 0 and e[0][0] <= len(f) * c * f[0][0]
        total = _scaled_sum(through, c)
        if division:
            new, kind = tuple(_minus(total, m) for m in moving), "division"
        else:
            new = tuple(_minus(m, total) for m in moving)
            kind = "recoil" if c > 0 else "extension"
    pair = (new, e) if side == "left" else (f, new)
    return blocks[: i - 1] + pair + blocks[i + 1 :], kind


def ranks_solve(label: str, blocks: tuple) -> bool:
    """sum(size * rank^2) == q * product of ranks, paired by position."""
    q = EQUATIONS[label][1]
    ranks = [b[0][0] for b in blocks]
    lhs = sum(len(b) * r * r for b, r in zip(blocks, ranks))
    return len(blocks) == 3 and lhs == q * ranks[0] * ranks[1] * ranks[2]


def rank_triple(blocks: tuple) -> tuple:
    """Block ranks in order of increasing block size (stable)."""
    order = sorted(range(len(blocks)), key=lambda i: len(blocks[i]))
    return tuple(blocks[i][0][0] for i in order)


def inverse_move(move: str) -> str:
    return ("R" if move[0] == "L" else "L") + move[1:]


# ---------------------------------------------------------------------------
# Markov-type equations.


def solves(label: str, s) -> bool:
    _, q, (a, b, c) = EQUATIONS[label]
    x, y, z = s
    return min(s) >= 1 and a * x * x + b * y * y + c * z * z == q * x * y * z


def mutate_solution(label: str, s, var: str) -> tuple:
    """The other root of the equation read as a quadratic in ``var``."""
    _, q, weights = EQUATIONS[label]
    i = VARIABLES.index(var)
    others = [s[j] for j in range(3) if j != i]
    num, rem = divmod(q * others[0] * others[1], weights[i])
    if rem:
        raise ValueError(f"mutation of {s} in {var} is not integral")
    out = list(s)
    out[i] = num - s[i]
    return tuple(out)


def components(nodes, edges) -> int:
    """Connected components of a graph given as node and edge lists."""
    parent = {n: n for n in nodes}

    def find(n):
        while parent[n] != n:
            parent[n] = parent[parent[n]]
            n = parent[n]
        return n

    for a, b in edges:
        parent[find(a)] = find(b)
    return len({find(n) for n in nodes})


def recursion_expected(label: str) -> tuple:
    """(N, binom, N of the smaller label, disjoint sets, ok) for a case."""
    n_block, m, smaller, sets = RECURSION[label]
    return (ORBIT_TABLE[label][0], comb(n_block, m), ORBIT_TABLE[smaller][0], sets, True)
