"""Command line interface.

The CLI renders library records and decides nothing: every count, check,
braid word and parse of a move is the library's, and each command prints
what one call returns, such as the fields of a :class:`weyl.OrbitRow` in
their own order.  ``verify`` and ``catalog --verify`` only render the
records of :func:`catalog.checks` and :func:`catalog.verify_entry`.

Exit codes: 0 success, 2 bad input or failed verification, 3 broken internal
invariant.  All numeric output is exact; rationals print as p/q and JSON
carries integers only.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache

from . import blockcalc, catalog, markov, weyl
from .blockcalc import BlockCollection, BlockError, validate_collection
from .kclass import InvariantViolationError, KClass
from .markov import SolutionTriple, equation_by_label
from .picard import DivisorClass, LatticeMismatchError, Surface, enumerate_classes


def _triple_str(s: SolutionTriple) -> str:
    return f"{s.x},{s.y},{s.z}"


# ---------------------------------------------------------------------------
# Collection documents.


def collection_to_doc(c: BlockCollection, provenance: dict | None = None) -> dict:
    doc = {
        "surface": c.surface.name,
        "blocks": [
            [
                {"rank": m.rank, "c1": list(m.c1.coords), "ch2x2": m.ch2x2}
                for m in b.members
            ]
            for b in c.blocks
        ],
    }
    if provenance:
        doc["provenance"] = provenance
    return doc


def _is_int(x) -> bool:
    # JSON true/false load as bool, which Python counts as an int.
    return type(x) is int or isinstance(x, int) and not isinstance(x, bool)


def collection_from_doc(doc) -> BlockCollection:
    if not isinstance(doc, dict):
        raise ValueError("document must be a JSON object")
    if "surface" not in doc:
        raise ValueError("document lacks a 'surface' field")
    if not isinstance(doc["surface"], str):
        raise ValueError("surface must be a string")
    surface = Surface.from_name(doc["surface"])
    raw_blocks = doc.get("blocks")
    if not isinstance(raw_blocks, list) or not raw_blocks:
        raise ValueError("document needs a nonempty 'blocks' list")
    blocks = []
    for raw in raw_blocks:
        if not isinstance(raw, list):
            raise ValueError("each block must be a list of classes")
        members = []
        for item in raw:
            if not isinstance(item, dict):
                raise ValueError("each class must be an object")
            try:
                rank, c1, ch2x2 = item["rank"], item["c1"], item["ch2x2"]
            except KeyError as missing:
                raise ValueError(f"class lacks field {missing}") from None
            if not _is_int(rank) or not _is_int(ch2x2):
                raise ValueError("rank and ch2x2 must be integers")
            if not isinstance(c1, list) or not all(map(_is_int, c1)):
                raise ValueError("c1 must be a list of integers")
            members.append(KClass(rank, DivisorClass(surface, tuple(c1)), ch2x2))
        blocks.append(members)
    return validate_collection(blocks)


def _read_doc(path: str) -> BlockCollection:
    if path == "-":
        raw = sys.stdin.read()
    else:
        with open(path, encoding="utf-8") as f:
            raw = f.read()
    try:
        doc = json.loads(raw)
    except (json.JSONDecodeError, RecursionError) as exc:
        # the decoder recurses once per nesting level
        raise ValueError(f"not valid JSON: {exc}") from None
    except ValueError:
        # Any other ValueError is int()'s refusal of a literal past CPython's
        # int-from-str digit limit.  The limit stays on while parsing: it
        # guards against quadratic-time conversion (CVE-2020-10735).
        limit = sys.get_int_max_str_digits()
        raise ValueError(f"a document integer exceeds the {limit}-digit read limit") from None
    return collection_from_doc(doc)


def _print_json(obj) -> None:
    # Exact results can run past CPython's int-to-str digit limit.  Lift it
    # only while serialising, so that parsing documents keeps it.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        text = json.dumps(obj, indent=2)
    finally:
        sys.set_int_max_str_digits(limit)
    print(text)


# ---------------------------------------------------------------------------
# Subcommands.


def cmd_equations(args) -> int:
    rows = markov.enumerate_equations()
    if args.json:
        _print_json(
            {
                "equations": [
                    {
                        "label": eq.label,
                        "surface": eq.surface.name,
                        "type": list(eq.type_vector),
                        "ksq": eq.ksq,
                        "coefficient": eq.coeff,
                        "equation": str(eq),
                        "minimum_solutions": [
                            list(s) for s in markov.minimum_solutions(eq)
                        ],
                    }
                    for eq in rows
                ]
            }
        )
        return 0
    header = f"{'label':<8} {'surface':<8} {'type':<9} {'K^2':<4} {'equation':<28} minima"
    print(header)
    print("-" * len(header))
    for eq in rows:
        minima = " ".join(map(str, markov.minimum_solutions(eq)))
        type_str = "(" + ",".join(str(t) for t in eq.type_vector) + ")"
        print(
            f"{eq.label:<8} {eq.surface.name:<8} {type_str:<9} {eq.ksq:<4} {str(eq):<28} {minima}"
        )
    return 0


def cmd_reduce(args) -> int:
    eq = equation_by_label(args.label)
    triple = SolutionTriple(args.x, args.y, args.z)
    path = markov.reduce_to_minimum(eq, triple)
    if args.json:
        _print_json(
            {
                "label": eq.label,
                "path": [
                    {"solution": list(s), "mutation": var} for s, var in path
                ],
            }
        )
        return 0
    for s, var in path:
        print(f"{s}  minimum" if var is None else f"{s}  --{var}-->")
    return 0


def cmd_graph(args) -> int:
    eq = equation_by_label(args.label)
    graph = markov.build_solution_graph(eq, args.sum_bound)
    if args.format == "json":
        _print_json(
            {
                "label": eq.label,
                "sum_bound": graph.sum_bound,
                "nodes": [list(s) for s in graph.nodes],
                "edges": [[list(a), list(b), v] for a, b, v in graph.edges],
                "loops": [[list(s), v] for s, v in graph.loops],
                "minima": [list(s) for s in graph.minima],
                "components": graph.component_count(),
                "acyclic": graph.is_acyclic(),
            }
        )
        return 0
    minima = set(graph.minima)
    lines = [f'graph "{eq.label}" {{']
    for s in graph.nodes:
        attr = " [peripheries=2]" if s in minima else ""
        lines.append(f'  "{_triple_str(s)}"{attr};')
    for a, b, v in graph.edges:
        lines.append(f'  "{_triple_str(a)}" -- "{_triple_str(b)}" [label="{v}"];')
    for s, v in graph.loops:
        lines.append(f'  "{_triple_str(s)}" -- "{_triple_str(s)}" [label="{v}"];')
    lines.append("}")
    print("\n".join(lines))
    return 0


def _print_checks(checks: list[catalog.Check]) -> int:
    print("\n".join(
        f"{'ok' if c.ok else 'FAIL'}: {c.name}" + (f"  ({c.detail})" if c.detail else "")
        for c in checks
    ))
    return 0 if all(c.ok for c in checks) else 2


def cmd_verify(args) -> int:
    try:
        c = _read_doc(args.file)
    except (BlockError, ValueError) as exc:
        print(f"FAIL: {exc}")
        return 2
    return _print_checks(catalog.checks(c))


def cmd_mutate(args) -> int:
    c = _read_doc(args.file)
    word = []
    for token in args.word:
        word.extend(token.replace(",", " ").split())
    result = blockcalc.apply_word(c, word)
    _print_json(collection_to_doc(result, {"word": word}))
    return 0


def cmd_catalog(args) -> int:
    wanted = catalog.labels() if args.label == "all" else (args.label,)
    if args.label == "all" and not args.verify:
        raise ValueError("label 'all' is only available together with --verify")
    if args.verify and args.solution is not None:
        raise ValueError("--verify checks every cataloged solution; drop --solution")
    solution = args.solution or 0
    exit_code = 0
    for label in wanted:
        if args.verify:
            checks = catalog.verify_entry(label)
            if len(wanted) > 1:
                print(f"[{label}]")
            exit_code = max(exit_code, _print_checks(checks))
        else:
            c = catalog.build(label, solution)
            word = catalog.word(label, solution)
            _print_json(
                collection_to_doc(c, {"label": label, "solution": solution, "word": word})
            )
    return exit_code


def cmd_orbits(args) -> int:
    rows = [weyl.orbit_row(args.label)] if args.label is not None else list(weyl.orbit_table())
    witnesses = {label: weyl.verify_c(label) for label in weyl.C_WITNESSES} if args.check_c else {}
    cases = sorted(weyl.RECURSION_CASES) if args.check_recursion else []
    reports = [weyl.recursion_check(label) for label in cases]
    code = 0 if all(witnesses.values()) and all(report.ok for report in reports) else 2
    if args.json:
        payload = {"rows": [r._asdict() for r in rows]}
        if args.check_c:
            payload["c_witnesses"] = witnesses
        if args.check_recursion:
            payload["recursion"] = [report._asdict() for report in reports]
        _print_json(payload)
        return code
    print(f"{'label':<8} {'N':>8} {'C':>3} {'orbits':>8}")
    for r in rows:
        print(f"{r.label:<8} {r.solution_classes:>8} {r.repetition:>3} {r.orbits:>8}")
    for label, ok in witnesses.items():
        print(f"C witness {label}: {'ok' if ok else 'FAIL'}")
    for report in reports:
        status = "ok" if report.ok else "FAIL"
        print(
            f"recursion {report.label}: {report.solution_classes} * "
            f"{report.binom} == {report.smaller_classes} * {report.disjoint_sets}  {status}"
        )
    return code


def cmd_curves(args) -> int:
    surface = Surface.from_name(args.surface)
    classes = enumerate_classes(surface, args.kind)
    if args.json:
        _print_json(
            {
                "surface": surface.name,
                "kind": args.kind,
                "count": len(classes),
                "classes": [list(d.coords) for d in classes],
            }
        )
        return 0
    print(f"{len(classes)} {args.kind} classes on {surface.name}")
    for d in classes:
        print(" ".join(str(x) for x in d.coords))
    return 0


def cmd_disjoint_sets(args) -> int:
    surface = Surface.from_name(args.surface)
    count = weyl.count_disjoint_sets(surface, args.size)
    if args.json:
        _print_json({"surface": surface.name, "size": args.size, "count": count})
    else:
        print(count)
    return 0


# ---------------------------------------------------------------------------
# Parser plumbing.


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by later calls.

    Parsing keeps no state in the parser: every parse starts from a fresh
    namespace filled with the declared defaults.
    """
    parser = argparse.ArgumentParser(
        prog="triblock",
        description="Exact arithmetic for three-block exceptional collections.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("equations", help="list the fourteen Markov-type equations")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_equations)

    p = sub.add_parser("reduce", help="reduce a solution to the minimum")
    p.add_argument("label")
    p.add_argument("x", type=int)
    p.add_argument("y", type=int)
    p.add_argument("z", type=int)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("graph", help="mutation graph of solutions within a bound")
    p.add_argument("label")
    p.add_argument("--sum-bound", type=int, default=100)
    p.add_argument("--format", choices=("dot", "json"), default="dot")
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("verify", help="validate a collection document")
    p.add_argument("file", help="JSON document path, or - for stdin")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("mutate", help="apply a braid word to a collection document")
    p.add_argument("file", help="JSON document path, or - for stdin")
    p.add_argument("word", nargs="+", help="moves such as R1 L2, applied left to right")
    p.set_defaults(func=cmd_mutate)

    p = sub.add_parser("catalog", help="emit or verify a cataloged collection")
    p.add_argument("label", help="equation label, or 'all' with --verify")
    p.add_argument("--solution", type=int, help="cataloged solution index (default 0)")
    p.add_argument("--verify", action="store_true")
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("orbits", help="Weyl orbit table")
    p.add_argument("--label")
    p.add_argument("--check-recursion", action="store_true")
    p.add_argument("--check-c", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_orbits)

    p = sub.add_parser("curves", help="enumerate minus-one or root classes")
    p.add_argument("surface")
    p.add_argument("--kind", choices=("minus-one", "root"), default="minus-one")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_curves)

    p = sub.add_parser("disjoint-sets", help="count disjoint minus-one class sets")
    p.add_argument("surface")
    p.add_argument("size", type=int)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_disjoint_sets)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InvariantViolationError as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return 3
    except (BlockError, LatticeMismatchError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
