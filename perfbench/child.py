"""One fresh interpreter: set up triblock, then optionally run one pass.

Usage: child.py MODE WORKLOAD TRACE INPUTS SPANS

The child prints ``ready`` as soon as the set-up is done -- ``import
triblock.cli`` and the sixteen cataloged collections built -- so that the
parent can time set-up from process start.  MODE ``setup`` stops there,
``catalog`` then prints the built collections as one JSON line, and
``pass`` runs one timed pass of WORKLOAD on the inputs in the JSON file
INPUTS and prints one JSON line with its timings and checked results.  With
TRACE 1 every layer is traced and the spans are written to the file SPANS.
"""

import json
import resource
import sys

import oracle


def main() -> int:
    mode, workload, trace, inputs_path, spans_path = sys.argv[1:6]
    tracer = None

    import triblock.cli
    from triblock import catalog

    if trace == "1":
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    collections = {
        f"{label}:{solution}": catalog.build(label, solution) for label, solution in oracle.BUILT_RANKS
    }
    if tracer:
        setup_misses = tracer.originals["catalog.build"].cache_info().misses
    print("ready", flush=True)

    if mode == "setup":
        return 0

    import workloads

    if mode == "catalog":
        dump = {
            key: {"surface": c.surface.name, "blocks": workloads.raw_collection(c)}
            for key, c in collections.items()
        }
        print(json.dumps(dump))
        return 0
    with open(inputs_path, encoding="utf-8") as f:
        inputs = json.load(f)
    setup_end = len(tracer.spans) if tracer else 0
    wall, lat, raw = workloads.run_pass(workload, triblock, inputs, collections)
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    layers = None
    if tracer:
        pass_end = len(tracer.spans)
        tracer.uninstall()
        from spans import layer_metrics

        layers = layer_metrics(tracer, setup_end, pass_end, wall, setup_misses)
        tracer.write(spans_path)
    attempted, failures, digits = workloads.check(workload, inputs, raw)
    print(json.dumps({
        "wall_s": wall,
        "op_s": lat,
        "rss_kib": rss_kib,
        "attempted": attempted,
        "failures": {str(k): v for k, v in sorted(failures.items())},
        "largest_digits": digits,
        "layers": layers,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
