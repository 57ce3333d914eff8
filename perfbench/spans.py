"""Spans around the calls into each layer, recorded from outside the program.

A module that does ``from .kclass import chi`` holds its own binding of
``chi``, so patching ``kclass.chi`` alone would miss its calls.
:class:`Tracer` therefore replaces every binding of a traced function in
every loaded ``triblock`` module, records one span per call in memory
(name, parent span, start, end, and a note read off the arguments or the
result), and puts every original binding back on :meth:`Tracer.uninstall`.

The program is single-threaded and has no queues, so time spent waiting
is zero by construction; only busy and self time are measured.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

# module -> traced functions, in the order the layers stack.
TARGETS = {
    "picard": ("intersect", "canonical_class", "enumerate_classes"),
    "kclass": ("chi", "degree", "twist"),
    "blockcalc": (
        "validate_block", "validate_collection", "chi_block", "block_mutation",
        "is_complete", "abc",
    ),
    "markov": ("mutate_solution", "enumerate_solutions", "reduce_to_minimum", "build_solution_graph"),
    "catalog": ("build",),
    "weyl": ("orbit_count", "count_disjoint_sets", "orbit_row", "verify_c", "recursion_check"),
    "cli": ("collection_from_doc", "main"),
}

# Per-layer metrics: (name, unit, better, end-to-end metric it should move,
# workloads it is measured on).  ``catalog.build.*`` covers the set-up phase
# that setup_s times; every other metric covers the timed pass.
# ``weyl.orbit_count.states`` sums the returned counts,
# ``blockcalc.mutations.*`` counts the returned MutationType flavours, and
# ``markov.reduce_to_minimum.steps`` counts the solutions on the returned
# paths, so ``markov.mutations_per_reduce_step`` (mutate_solution calls made
# inside reduce_to_minimum per solution examined) is 3 once each mutation is
# computed once.
LAYER_METRICS = [
    ("weyl.orbit_count.calls", "count", "lower", "wall_s, peak_rss_mb", "orbit-table"),
    ("weyl.orbit_count.busy_s", "s", "lower", "wall_s, peak_rss_mb", "orbit-table"),
    ("weyl.orbit_count.self_s", "s", "lower", "wall_s, peak_rss_mb", "orbit-table"),
    ("weyl.orbit_count.states", "count", "lower", "wall_s, peak_rss_mb", "orbit-table"),
    ("weyl.orbit_row.calls", "count", "lower", "wall_s", "orbit-table"),
    ("weyl.orbit_row.repeat_ratio", "ratio", "lower", "wall_s", "orbit-table"),
    ("weyl.count_disjoint_sets.calls", "count", "lower", "wall_s", "orbit-table"),
    ("weyl.count_disjoint_sets.busy_s", "s", "lower", "wall_s", "orbit-table"),
    ("picard.enumerate_classes.calls", "count", "lower", "wall_s", "orbit-table"),
    ("picard.enumerate_classes.busy_s", "s", "lower", "wall_s", "orbit-table"),
    ("weyl.verify_c.busy_s", "s", "lower", "op_tail_ms", "orbit-table"),
    ("weyl.recursion_check.busy_s", "s", "lower", "op_tail_ms", "orbit-table"),
    ("blockcalc.block_mutation.calls", "count", "lower", "op_p50_ms, wall_s", "braid-walk"),
    ("blockcalc.block_mutation.busy_s", "s", "lower", "op_p50_ms, wall_s", "braid-walk"),
    ("blockcalc.block_mutation.self_s", "s", "lower", "op_p50_ms, wall_s", "braid-walk"),
    ("blockcalc.mutations.division", "count", "lower", "op_p50_ms, wall_s", "braid-walk"),
    ("blockcalc.mutations.recoil", "count", "lower", "op_p50_ms, wall_s", "braid-walk"),
    ("blockcalc.mutations.extension", "count", "lower", "op_p50_ms, wall_s", "braid-walk"),
    ("blockcalc.mutations.trivial", "count", "lower", "op_p50_ms, wall_s", "braid-walk"),
    ("blockcalc.validate_collection.calls", "count", "lower", "op_p50_ms", "braid-walk, doc-verify"),
    ("blockcalc.validate_collection.busy_s", "s", "lower", "op_p50_ms", "braid-walk, doc-verify"),
    ("blockcalc.validate_collection.self_s", "s", "lower", "op_p50_ms", "braid-walk, doc-verify"),
    ("blockcalc.validate_block.calls", "count", "lower", "op_p50_ms", "braid-walk, doc-verify"),
    ("blockcalc.validate_block.busy_s", "s", "lower", "op_p50_ms", "braid-walk, doc-verify"),
    ("kclass.chi.calls", "count", "lower", "op_p50_ms", "braid-walk, doc-verify"),
    ("kclass.chi.self_s", "s", "lower", "op_p50_ms", "braid-walk, doc-verify"),
    ("kclass.degree.calls", "count", "lower", "op_p50_ms", "braid-walk, doc-verify"),
    ("kclass.degree.self_s", "s", "lower", "op_p50_ms", "braid-walk, doc-verify"),
    ("kclass.twist.calls", "count", "lower", "op_p50_ms", "braid-walk, doc-verify"),
    ("kclass.twist.self_s", "s", "lower", "op_p50_ms", "braid-walk, doc-verify"),
    ("picard.intersect.calls", "count", "lower", "op_p50_ms", "braid-walk, doc-verify"),
    ("picard.intersect.self_s", "s", "lower", "op_p50_ms", "braid-walk, doc-verify"),
    ("picard.canonical_class.calls", "count", "lower", "op_p50_ms", "braid-walk, doc-verify"),
    ("blockcalc.is_complete.calls", "count", "lower", "op_p50_ms", "doc-verify"),
    ("blockcalc.is_complete.busy_s", "s", "lower", "op_p50_ms", "doc-verify"),
    ("blockcalc.abc.busy_s", "s", "lower", "op_p50_ms", "doc-verify"),
    ("blockcalc.chi_block.calls", "count", "lower", "op_p50_ms", "doc-verify"),
    ("cli.main.calls", "count", "lower", "op_p50_ms", "doc-verify"),
    ("cli.main.busy_s", "s", "lower", "op_p50_ms", "doc-verify"),
    ("cli.main.self_s", "s", "lower", "op_p50_ms", "doc-verify"),
    ("cli.collection_from_doc.calls", "count", "lower", "op_p50_ms", "doc-verify"),
    ("cli.collection_from_doc.busy_s", "s", "lower", "op_p50_ms", "doc-verify"),
    ("cli.collection_from_doc.self_s", "s", "lower", "op_p50_ms", "doc-verify"),
    ("markov.enumerate_solutions.calls", "count", "lower", "wall_s, op_tail_ms", "markov-graph"),
    ("markov.enumerate_solutions.busy_s", "s", "lower", "wall_s, op_tail_ms", "markov-graph"),
    ("markov.enumerate_solutions.solutions", "count", "lower", "wall_s, op_tail_ms", "markov-graph"),
    ("markov.build_solution_graph.busy_s", "s", "lower", "wall_s, op_tail_ms", "markov-graph"),
    ("markov.build_solution_graph.self_s", "s", "lower", "wall_s, op_tail_ms", "markov-graph"),
    ("markov.build_solution_graph.nodes", "count", "lower", "wall_s, op_tail_ms", "markov-graph"),
    ("markov.build_solution_graph.edges", "count", "lower", "wall_s, op_tail_ms", "markov-graph"),
    ("markov.reduce_to_minimum.calls", "count", "lower", "op_p50_ms", "markov-graph"),
    ("markov.reduce_to_minimum.busy_s", "s", "lower", "op_p50_ms", "markov-graph"),
    ("markov.reduce_to_minimum.steps", "count", "lower", "op_p50_ms", "markov-graph"),
    ("markov.mutate_solution.calls", "count", "lower", "op_p50_ms", "markov-graph"),
    ("markov.mutate_solution.self_s", "s", "lower", "op_p50_ms", "markov-graph"),
    ("markov.mutations_per_reduce_step", "ratio", "lower", "op_p50_ms", "markov-graph"),
    ("catalog.build.calls", "count", "lower", "setup_s", "all"),
    ("catalog.build.misses", "count", "lower", "setup_s", "all"),
    ("catalog.build.busy_s", "s", "lower", "setup_s", "all"),
    ("trace.overhead_ratio", "ratio", "lower", "-", "all"),
    ("trace.top_level_share", "ratio", "higher", "-", "all"),
]


def _mutation_note(tracer, args, result):
    mtype = result[1]
    return ("trivial" if mtype.trivial else mtype.kind,)


# Notes taken at the end of a call: name -> f(tracer, args, result).
NOTES = {
    "weyl.orbit_count": lambda tr, args, result: result,
    "weyl.orbit_row": lambda tr, args, result: args[0],
    "blockcalc.block_mutation": _mutation_note,
    "markov.enumerate_solutions": lambda tr, args, result: len(result),
    "markov.build_solution_graph": lambda tr, args, result: (len(result.nodes), len(result.edges)),
    "markov.reduce_to_minimum": lambda tr, args, result: len(result),
    # Whether the call is made from inside reduce_to_minimum.
    "markov.mutate_solution": lambda tr, args, result: tr.active["markov.reduce_to_minimum"] > 0,
}


class Tracer:
    """Records spans of every traced call while installed."""

    def __init__(self) -> None:
        self.names: list[str] = []
        # span: [name index, parent span or -1, start, end, outermost of its name, note]
        self.spans: list[list] = []
        self.active: dict[str, int] = {}
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.originals: dict[str, object] = {}

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "triblock" or n.startswith("triblock.")]
        for module_name, functions in TARGETS.items():
            module = sys.modules[f"triblock.{module_name}"]
            for fn_name in functions:
                name = f"{module_name}.{fn_name}"
                original = getattr(module, fn_name)
                self.originals[name] = original
                wrapper = self._wrap(name, original)
                for holder in modules:
                    for attr, value in list(vars(holder).items()):
                        if value is original:
                            setattr(holder, attr, wrapper)
                            self._patched.append((holder, attr, original))

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patched):
            setattr(holder, attr, original)
        if any(getattr(h, a) is not o for h, a, o in self._patched):
            raise RuntimeError("a traced binding was not restored")
        self._patched.clear()

    def _wrap(self, name: str, fn):
        index = len(self.names)
        self.names.append(name)
        self.active[name] = 0
        spans, stack, active = self.spans, self._stack, self.active
        note = NOTES.get(name)

        def traced(*args, **kwargs):
            span = [index, stack[-1] if stack else -1, 0.0, 0.0, active[name] == 0, None]
            stack.append(len(spans))
            spans.append(span)
            active[name] += 1
            span[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                active[name] -= 1
                stack.pop()
            if note is not None:
                span[5] = note(self, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def write(self, path) -> None:
        """Write the spans as JSON lines.

        The first line lists the traced names; each further line is one span
        ``[id, parent id or -1, name index, start ns, end ns, note]`` with
        times counted from the start of the first span.
        """
        origin = self.spans[0][2] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps(self.names) + "\n")
            for i, (name, parent, start, end, _, note) in enumerate(self.spans):
                ns = (round((start - origin) * 1e9), round((end - origin) * 1e9))
                out.write(json.dumps([i, parent, name, *ns, note]) + "\n")


def _totals(tracer: Tracer, first: int, last: int) -> dict:
    # Per name over spans[first:last]: calls, busy (outermost spans only, so
    # recursion is not counted twice), self (span minus its direct children).
    spans = tracer.spans
    child = [0.0] * (last - first)
    for span in spans[first:last]:
        parent = span[1]
        if parent >= first:
            child[parent - first] += span[3] - span[2]
    totals = {n: {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "notes": []} for n in tracer.names}
    top = 0.0
    for k, (name, parent, start, end, outer, note) in enumerate(spans[first:last]):
        t = totals[tracer.names[name]]
        t["calls"] += 1
        t["self_s"] += end - start - child[k]
        if outer:
            t["busy_s"] += end - start
        if parent < first:
            top += end - start
        if note is not None:
            t["notes"].append(note)
    totals["top_level_s"] = top
    return totals


def layer_metrics(tracer: Tracer, setup_end: int, pass_end: int, wall: float, build_misses: int) -> dict:
    """Every per-layer metric except trace.overhead_ratio, from recorded spans."""
    run = _totals(tracer, setup_end, pass_end)
    setup = _totals(tracer, 0, setup_end)
    out = {}
    for name, *_ in LAYER_METRICS:
        layer, _, stat = name.rpartition(".")
        totals = setup if layer == "catalog.build" else run
        if layer in totals and stat in ("calls", "busy_s", "self_s"):
            out[name] = totals[layer][stat]
    notes = {n: run[n]["notes"] for n in NOTES}
    kinds = [k for (k,) in notes["blockcalc.block_mutation"]]
    rows = notes["weyl.orbit_row"]
    reduce_steps = sum(notes["markov.reduce_to_minimum"])
    out.update({
        "weyl.orbit_count.states": sum(notes["weyl.orbit_count"]),
        "weyl.orbit_row.repeat_ratio": len(rows) / len(set(rows)) if rows else 0.0,
        "blockcalc.mutations.division": kinds.count("division"),
        "blockcalc.mutations.recoil": kinds.count("recoil"),
        "blockcalc.mutations.extension": kinds.count("extension"),
        "blockcalc.mutations.trivial": kinds.count("trivial"),
        "markov.enumerate_solutions.solutions": sum(notes["markov.enumerate_solutions"]),
        "markov.build_solution_graph.nodes": sum(n for n, _ in notes["markov.build_solution_graph"]),
        "markov.build_solution_graph.edges": sum(e for _, e in notes["markov.build_solution_graph"]),
        "markov.reduce_to_minimum.steps": reduce_steps,
        "markov.mutations_per_reduce_step": (
            sum(notes["markov.mutate_solution"]) / reduce_steps if reduce_steps else 0.0
        ),
        "catalog.build.misses": build_misses,
        "trace.top_level_share": run["top_level_s"] / wall,
    })
    return out
