"""The four workloads: input generators, timed passes and result checks.

``generate`` runs in the benchmark's parent process and never imports
triblock; it sees only the seed, the caps and (for doc-verify) the catalog
dump a set-up child printed.  ``run_pass`` runs in a fresh child, times
each operation, and converts the results to plain data once the clock has
stopped.  ``check`` compares that data with :mod:`oracle` and returns one
message per failed operation.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import oracle

WORKLOADS = ("orbit-table", "braid-walk", "doc-verify", "markov-graph")

# The caps fix the working-set size.  Ranks grow doubly exponentially along
# braid words that do not cancel, and Markov coordinates grow about 1.5-fold
# in digits per upward step, so word length and walk depth are the knobs
# that keep a pass finite; they are reported with every run.
#
# orbit-table's x8.3 and x8.4 rows are single 10-14 s breadth-first searches.
# On a shared 2-vCPU Linux VM, where CPU speed drifts by +-30% over tens of
# seconds, one sample of each per run does not repeat within the end-to-end
# bounds, and repeating them does not fit the time a run has.  They run
# only in the traced run, where weyl.orbit_count reports their work; the
# end-to-end passes time the other 19 operations.
CAPS = {
    "orbit-table": {
        "rows": list(oracle.ORBIT_TABLE),
        "recursion": sorted(oracle.RECURSION),
        "traced_only": [["row", "x8.3"], ["row", "x8.4"]],
    },
    "braid-walk": {"words_per_collection": 2, "word_length": 16},
    "doc-verify": {"documents": 240, "corrupted_share": 0.25, "max_word_length": 8},
    "markov-graph": {"sum_bound": 400, "walks_per_equation": 16, "walk_depth": 12},
}

# The smallest size of each workload, used by the self-test.
SMALLEST = {
    "orbit-table": {"rows": ["p2", "x3", "x4", "x5", "x6.1", "x6.2"], "recursion": ["x3", "x6.2"], "traced_only": [["row", "x6.1"]]},
    "braid-walk": {"words_per_collection": 1, "word_length": 2},
    "doc-verify": {"documents": 8, "corrupted_share": 0.5, "max_word_length": 2},
    "markov-graph": {"sum_bound": 40, "walks_per_equation": 1, "walk_depth": 3},
}

MOVES = ("L1", "L2", "R1", "R2")


def _digits(n: int) -> int:
    return len(str(abs(n)))


def _blocks_digits(blocks) -> int:
    return max(_digits(x) for b in blocks for m in b for x in (m[0], m[2], *m[1]))


# ---------------------------------------------------------------------------
# Generators (parent process).


def generate(name: str, seed: int, caps: dict, catalog: dict, workdir: Path) -> dict:
    """Inputs of one run; the same seed and caps give the same inputs."""
    rng = random.Random(f"{name}:{seed}")
    if name == "orbit-table":
        ops = [["row", label] for label in caps["rows"]]
        ops += [["verify_c", label] for label in oracle.C_WITNESS_LABELS]
        ops += [["recursion", label] for label in caps["recursion"]]
        return {
            "ops": [op for op in ops if op not in caps["traced_only"]],
            "traced_only": caps["traced_only"],
            "largest_digits": 0,
        }
    if name == "braid-walk":
        walks = [
            {"start": key, "word": [rng.choice(MOVES) for _ in range(caps["word_length"])]}
            for label, solution in oracle.BUILT_RANKS
            for key in [f"{label}:{solution}"]
            for _ in range(caps["words_per_collection"])
        ]
        return {"walks": walks}
    if name == "doc-verify":
        return _generate_docs(rng, caps, catalog, workdir)
    if name == "markov-graph":
        return _generate_walks(rng, caps)
    raise ValueError(f"unknown workload {name!r}")


def _generate_docs(rng: random.Random, caps: dict, catalog: dict, workdir: Path) -> dict:
    count = caps["documents"]
    corrupted = rng.sample(range(count), round(count * caps["corrupted_share"]))
    kinds = ["valid"] * count
    for n, index in enumerate(corrupted):
        kinds[index] = oracle.CORRUPTIONS[n % len(oracle.CORRUPTIONS)]
    keys = sorted(catalog)
    docdir = workdir / "docs"
    docdir.mkdir(parents=True, exist_ok=True)
    docs, largest = [], 0
    for index, kind in enumerate(kinds):
        key = rng.choice(keys)
        label = key.split(":")[0]
        surface, blocks = catalog[key]["surface"], _as_blocks(catalog[key]["blocks"])
        for _ in range(rng.randint(0, caps["max_word_length"])):
            move = rng.choice(MOVES)
            blocks, _ = oracle.mutate(surface, blocks, int(move[1]), "left" if move[0] == "L" else "right")
        largest = max(largest, _blocks_digits(blocks))
        expected = {"ranks": list(oracle.rank_triple(blocks)), "label": label}
        if kind != "valid":
            blocks = _corrupt(rng, kind, surface, blocks)
        path = docdir / f"{index:04d}.json"
        doc = {
            "surface": surface,
            "blocks": [[{"rank": m[0], "c1": list(m[1]), "ch2x2": m[2]} for m in b] for b in blocks],
        }
        path.write_text(json.dumps(doc), encoding="utf-8")
        docs.append({"path": str(path), "kind": kind, **expected})
    return {"docs": docs, "largest_digits": largest}


def _as_blocks(raw) -> tuple:
    return tuple(tuple((m[0], tuple(m[1]), m[2]) for m in b) for b in raw)


def _corrupt(rng: random.Random, kind: str, surface: str, blocks: tuple) -> tuple:
    # Every corruption provably breaks a check `verify` makes, so the
    # expected exit code 2 never depends on luck.
    blocks = [list(b) for b in blocks]
    if kind == "swapped-blocks":
        # Semiorthogonality fails because the pairing across the pair is nonzero.
        pairs = [i for i in range(len(blocks) - 1) if oracle.chi(surface, blocks[i][0], blocks[i + 1][0])]
        i = rng.choice(pairs)
        blocks[i], blocks[i + 1] = blocks[i + 1], blocks[i]
        return tuple(tuple(b) for b in blocks)
    b = rng.randrange(len(blocks))
    j = rng.randrange(len(blocks[b]))
    rank, c1, ch = blocks[b][j]
    if kind == "non-exceptional":
        # rank * ch2x2 moves by 2 * rank != 0 while c1^2 stays.
        blocks[b][j] = (rank, c1, ch + 2)
    elif kind == "perturbed-c1":
        # A unit step of one c1 coordinate that changes c1^2, so the member
        # stops being exceptional.
        steps = [
            (b, j, moved)
            for b, block in enumerate(blocks)
            for j, (_, c1, _) in enumerate(block)
            for k in range(len(c1))
            for delta in (-1, 1)
            for moved in [c1[:k] + (c1[k] + delta,) + c1[k + 1 :]]
            if oracle.dot(surface, moved, moved) != oracle.dot(surface, c1, c1)
        ]
        b, j, moved = rng.choice(steps)
        rank, _, ch = blocks[b][j]
        blocks[b][j] = (rank, moved, ch)
    elif kind == "dropped-member":
        # Too few members for a complete collection (or an empty block).
        del blocks[b][j]
    else:
        raise ValueError(f"unknown corruption {kind!r}")
    return tuple(tuple(b) for b in blocks)


def _generate_walks(rng: random.Random, caps: dict) -> dict:
    # Strictly upward walks from the tabled minima; the unique descending
    # chain from the top is then the walk reversed.
    walks, largest = [], 0
    for label, minima in oracle.TABLE_MINIMA.items():
        for _ in range(caps["walks_per_equation"]):
            s = rng.choice(minima)
            chain, used = [s], []
            for _ in range(caps["walk_depth"]):
                up = [
                    (v, t)
                    for v in oracle.VARIABLES
                    for t in [oracle.mutate_solution(label, s, v)]
                    if sum(t) > sum(s)
                ]
                var, s = rng.choice(up)
                chain.append(s)
                used.append(var)
            largest = max(largest, max(_digits(x) for x in s))
            walks.append({"label": label, "chain": [list(t) for t in chain], "vars": used})
    return {"labels": list(oracle.TABLE_MINIMA), "sum_bound": caps["sum_bound"], "walks": walks,
            "largest_digits": largest}


# ---------------------------------------------------------------------------
# Timed passes (child process).


def _timed(fn, *args):
    t = perf_counter()
    try:
        result = fn(*args)
    except Exception as exc:  # an operation that raises is a failed operation
        result = exc
    return result, perf_counter() - t


def raw_collection(c) -> list:
    return [[[m.rank, list(m.c1.coords), m.ch2x2] for m in b.members] for b in c.blocks]


def _error(exc: Exception) -> str:
    return f"error: {exc!r}"


def run_pass(name: str, tb, inputs: dict, collections: dict):
    """Time every operation of one pass; returns (wall, latencies, raw results)."""
    lat = []
    if name == "orbit-table":
        weyl = tb.weyl
        fns = {"row": weyl.orbit_row, "verify_c": weyl.verify_c, "recursion": weyl.recursion_check}
        calls = [(fns[kind], label) for kind, label in inputs["ops"]]
        out = []
        start = perf_counter()
        for fn, label in calls:
            r, dt = _timed(fn, label)
            out.append(r)
            lat.append(dt)
        wall = perf_counter() - start
        raw = []
        for (kind, _), r in zip(inputs["ops"], out):
            if isinstance(r, Exception):
                raw.append(_error(r))
            elif kind == "row":
                raw.append([r.solution_classes, r.repetition, r.orbits])
            elif kind == "verify_c":
                raw.append(r)
            else:
                raw.append([r.solution_classes, r.binom, r.smaller_classes, r.disjoint_sets, r.ok])
        return wall, lat, raw
    if name == "braid-walk":
        mutation = tb.blockcalc.block_mutation
        walks = []
        for walk in inputs["walks"]:
            word = walk["word"] + [oracle.inverse_move(m) for m in reversed(walk["word"])]
            moves = [(int(m[1]), "left" if m[0] == "L" else "right") for m in word]
            walks.append((collections[walk["start"]], moves))
        out = []
        start = perf_counter()
        for c, moves in walks:
            for i, side in moves:
                r, dt = _timed(mutation, c, i, side)
                lat.append(dt)
                if isinstance(r, Exception):
                    out.append(r)
                else:
                    c = r[0]
                    out.append(c)
        wall = perf_counter() - start
        starts = {key: raw_collection(c) for key, c in collections.items()}
        ops = [_error(c) if isinstance(c, Exception) else raw_collection(c) for c in out]
        return wall, lat, {"starts": starts, "ops": ops}
    if name == "doc-verify":
        main = tb.cli.main
        argvs = [["verify", doc["path"]] for doc in inputs["docs"]]
        sink = io.StringIO()
        codes, marks = [], [0]
        with redirect_stdout(sink), redirect_stderr(sink):
            start = perf_counter()
            for argv in argvs:
                r, dt = _timed(main, argv)
                codes.append(_error(r) if isinstance(r, Exception) else r)
                lat.append(dt)
                marks.append(sink.tell())
            wall = perf_counter() - start
        text = sink.getvalue()
        return wall, lat, [[code, text[a:b]] for code, a, b in zip(codes, marks, marks[1:])]
    if name == "markov-graph":
        markov = tb.markov
        bound = inputs["sum_bound"]
        calls = [(markov.build_solution_graph, markov.equation_by_label(label), bound) for label in inputs["labels"]]
        calls += [
            (markov.reduce_to_minimum, markov.equation_by_label(w["label"]), markov.SolutionTriple(*w["chain"][-1]))
            for w in inputs["walks"]
        ]
        out = []
        start = perf_counter()
        for fn, eq, arg in calls:
            r, dt = _timed(fn, eq, arg)
            out.append(r)
            lat.append(dt)
        wall = perf_counter() - start
        graphs = out[: len(inputs["labels"])]
        paths = out[len(inputs["labels"]) :]
        raw_graphs = [
            _error(g) if isinstance(g, Exception) else {
                "nodes": [list(s) for s in g.nodes],
                "edges": [[list(a), list(b), v] for a, b, v in g.edges],
                "minima": [list(s) for s in g.minima],
            }
            for g in graphs
        ]
        raw_paths = [_error(p) if isinstance(p, Exception) else [[list(s), v] for s, v in p] for p in paths]
        return wall, lat, {"graphs": raw_graphs, "paths": raw_paths}
    raise ValueError(f"unknown workload {name!r}")


# ---------------------------------------------------------------------------
# Checks.


def check(name: str, inputs: dict, raw) -> tuple[int, dict, int]:
    """(operations attempted, {op index: failure}, largest integer digits)."""
    if name == "orbit-table":
        return _check_orbits(inputs, raw)
    if name == "braid-walk":
        return _check_walks(inputs, raw)
    if name == "doc-verify":
        return _check_docs(inputs, raw)
    if name == "markov-graph":
        return _check_markov(inputs, raw)
    raise ValueError(f"unknown workload {name!r}")


def _check_orbits(inputs, raw):
    failures = {}
    for i, ((kind, label), got) in enumerate(zip(inputs["ops"], raw)):
        if kind == "row":
            want = list(oracle.ORBIT_TABLE[label])
        elif kind == "verify_c":
            want = True
        else:
            want = list(oracle.recursion_expected(label))
        if got != want:
            failures[i] = f"{kind} {label}: got {got}, expected {want}"
    if len(raw) != len(inputs["ops"]):
        failures[len(raw)] = f"{len(raw)} results for {len(inputs['ops'])} operations"
    return len(inputs["ops"]), failures, 0


def _check_walks(inputs, raw):
    failures, largest, op = {}, 0, 0
    ops = raw["ops"]
    for walk in inputs["walks"]:
        key = walk["start"]
        label, solution = key.split(":")
        surface = oracle.EQUATIONS[label][0]
        start = _as_blocks(raw["starts"][key])
        if tuple(b[0][0] for b in start) != oracle.BUILT_RANKS[(label, int(solution))]:
            failures[op] = f"{key}: start ranks differ from the catalog table"
        word = walk["word"] + [oracle.inverse_move(m) for m in reversed(walk["word"])]
        model = start
        for n, move in enumerate(word):
            model, _ = oracle.mutate(surface, model, int(move[1]), "left" if move[0] == "L" else "right")
            got = _as_blocks(ops[op]) if op < len(ops) and not isinstance(ops[op], str) else ops[op : op + 1]
            if got != model:
                failures[op] = f"{key} move {n + 1} ({move}): differs from the integer model"
            elif not oracle.ranks_solve(label, got):
                failures[op] = f"{key} move {n + 1} ({move}): ranks leave the block-size equation"
            elif n == len(word) - 1 and got != start:
                failures[op] = f"{key}: the inverse word does not return to the start"
            else:
                largest = max(largest, max(_digits(b[0][0]) for b in got))
            op += 1
    return op, failures, largest


def _check_docs(inputs, raw):
    failures = {}
    for i, (doc, (code, text)) in enumerate(zip(inputs["docs"], raw)):
        want = oracle.DOC_EXIT[doc["kind"]]
        lines = text.splitlines()
        if code != want:
            failures[i] = f"{doc['kind']} document {doc['path']}: exit {code}, expected {want}"
        elif doc["kind"] != "valid":
            if not any(line.startswith("FAIL") for line in lines):
                failures[i] = f"{doc['kind']} document: exit 2 without a FAIL line"
        else:
            ranks = ",".join(str(r) for r in doc["ranks"])
            names = [line.split(":", 1)[1].split("  (")[0].strip() for line in lines]
            if tuple(names) != oracle.VERIFY_CHECKS or not all(line.startswith("ok: ") for line in lines):
                failures[i] = f"valid document: checks {lines}"
            elif f"({doc['label']}: ranks ({ranks}))" not in text:
                failures[i] = f"valid document: ranks line does not read {doc['label']} ({ranks})"
    if len(raw) != len(inputs["docs"]):
        failures[len(raw)] = f"{len(raw)} results for {len(inputs['docs'])} documents"
    return len(inputs["docs"]), failures, inputs["largest_digits"]


def _check_markov(inputs, raw):
    failures = {}
    bound = inputs["sum_bound"]
    for i, (label, g) in enumerate(zip(inputs["labels"], raw["graphs"])):
        if isinstance(g, str):
            failures[i] = f"graph {label}: {g}"
            continue
        nodes = [tuple(s) for s in g["nodes"]]
        edges = [(tuple(a), tuple(b), v) for a, b, v in g["edges"]]
        minima = {tuple(s) for s in oracle.TABLE_MINIMA[label]}
        if not all(oracle.solves(label, s) and sum(s) <= bound for s in nodes) or len(set(nodes)) != len(nodes):
            failures[i] = f"graph {label}: a node is not a distinct solution within the bound"
        elif {tuple(s) for s in g["minima"]} != minima:
            failures[i] = f"graph {label}: minima {g['minima']} differ from the table"
        elif any(oracle.mutate_solution(label, a, v) != b for a, b, v in edges):
            failures[i] = f"graph {label}: an edge is not a mutation"
        elif len(edges) != len(nodes) - len(minima):
            failures[i] = f"graph {label}: {len(edges)} edges for {len(nodes)} nodes"
        elif oracle.components(nodes, [(a, b) for a, b, _ in edges]) != len(minima):
            failures[i] = f"graph {label}: components differ from the number of minima"
    base = len(inputs["labels"])
    for n, (walk, path) in enumerate(zip(inputs["walks"], raw["paths"])):
        want = [[s, v] for s, v in zip(reversed(walk["chain"]), list(reversed(walk["vars"])) + [None])]
        if path != want:
            failures[base + n] = f"reduce {walk['label']} from depth {len(walk['vars'])}: path is not the reversed walk"
    attempted = base + len(inputs["walks"])
    if len(raw["graphs"]) + len(raw["paths"]) != attempted:
        failures[attempted] = "missing results"
    return attempted, failures, inputs["largest_digits"]
