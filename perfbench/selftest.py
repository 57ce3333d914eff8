"""Self-test of the benchmark: python3 perfbench/selftest.py

Runs every workload once at its smallest size and requires its checks to
pass, then feeds each workload's checks a deliberately wrong answer and
requires them to catch it.  It also checks that tracing puts every binding
back and that BENCHMARK.json lists exactly the metrics the benchmark
reports.  Exits 0 when every step holds.
"""

from __future__ import annotations

import copy
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _tamper(name: str, inputs: dict, raw):
    """A wrong answer (or a wrong expectation) that the checks must reject."""
    inputs, raw = copy.deepcopy(inputs), copy.deepcopy(raw)
    if name == "orbit-table":
        row = next(i for i, (kind, label) in enumerate(inputs["ops"]) if kind == "row" and label == "x5")
        raw[row][0] += 1  # one orbit row off by one
    elif name == "braid-walk":
        raw["ops"][0][0][0][0] += 1  # one rank of one move off by one
    elif name == "doc-verify":
        doc = next(d for d in inputs["docs"] if d["kind"] != "valid")
        doc["kind"] = "valid"  # a corrupted document expected to exit 0
    elif name == "markov-graph":
        del raw["paths"][0][1]  # a reduction that skips a step
    return inputs, raw


def main() -> int:
    import triblock.cli
    from triblock import catalog

    ok = True

    def report(passed: bool, what: str) -> None:
        nonlocal ok
        ok = ok and passed
        print(f"{'ok' if passed else 'FAIL'}: {what}")

    collections = {f"{label}:{sol}": catalog.build(label, sol) for label, sol in oracle.BUILT_RANKS}
    dump = {
        key: {"surface": c.surface.name, "blocks": workloads.raw_collection(c)} for key, c in collections.items()
    }
    workdir = ROOT / ".perfbench" / "selftest"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for name in workloads.WORKLOADS:
            inputs = json.loads(json.dumps(workloads.generate(name, 0, workloads.SMALLEST[name], dump, workdir)))
            if "traced_only" in inputs:
                inputs["ops"] += inputs["traced_only"]
            _, lat, raw = workloads.run_pass(name, triblock, inputs, collections)
            attempted, failures, _ = workloads.check(name, inputs, raw)
            report(attempted == len(lat) and not failures, f"{name}: {attempted} operations at the smallest size pass")
            bad_inputs, bad_raw = _tamper(name, inputs, raw)
            _, caught, _ = workloads.check(name, bad_inputs, bad_raw)
            report(len(caught) >= 1, f"{name}: a wrong answer is caught ({next(iter(caught.values()), 'none')})")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    from triblock import blockcalc, kclass

    tracer = spans.Tracer()
    tracer.install()
    wrapped = blockcalc.chi is not tracer.originals["kclass.chi"] and kclass.chi is not tracer.originals["kclass.chi"]
    blockcalc.block_mutation(collections["x8.4:0"], 1, "left")
    tracer.uninstall()
    calls = sum(1 for span in tracer.spans if tracer.names[span[0]] == "kclass.chi")
    restored = all(
        getattr(sys.modules[f"triblock.{m}"], f) is tracer.originals[f"{m}.{f}"]
        for m, fns in spans.TARGETS.items()
        for f in fns
    ) and blockcalc.chi is tracer.originals["kclass.chi"]
    report(wrapped and calls > 0, f"tracing sees calls through copied bindings ({calls} chi spans)")
    report(restored, "tracing restores every binding")

    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    layers = [{"name": n, "unit": u, "better": b} for n, u, b, *_ in spans.LAYER_METRICS]
    report(manifest["per_layer"] == layers, "BENCHMARK.json per_layer matches the traced metrics")
    e2e = {m["name"]: m["unit"] for m in manifest["end_to_end"]}
    report(e2e == run.END_TO_END_UNITS, "BENCHMARK.json end_to_end matches the reported metrics")
    report([w["name"] for w in manifest["workloads"]] == list(workloads.WORKLOADS), "BENCHMARK.json lists the workloads")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
