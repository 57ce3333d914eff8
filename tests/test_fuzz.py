"""Seeded fuzz of the command line: bad input exits 2, never 3 or a traceback.

Documents start from the sixteen cataloged builds and are perturbed at
random (numbers, signs, field types, dropped, duplicated or reordered
members and blocks, the surface), then go through ``verify`` and through
``mutate`` with a random braid word.  Exit 3 is reserved for broken internal
invariants, so any input the fuzzer can produce must give 0 or 2.
"""

import copy
import json
import random

from triblock import catalog, cli

SEED = 1997
DOCUMENT_CASES = 1000
LABEL_CASES = 200

JUNK = (None, "1", 1.5, [], {}, True, -(10**30))
SURFACES = ("P2", "X1", "X3", "X8", "X9", "X0", "quadric", "x3", "", 3, None)
MOVES = ("L1", "L2", "L3", "R1", "R2", "R3")


def _builds():
    return [cli.collection_to_doc(c) for label in catalog.labels() for c in catalog.builds(label)]


# Perturbations that keep every field an integer of the right shape, and
# those that break the document's types or shape; a case ends after one of
# the latter.
KEEP_SHAPE = (
    "rank", "ch2x2", "c1", "sign", "rank0", "drop-member", "duplicate-member",
    "reorder-members", "drop-block", "duplicate-block", "reorder-blocks",
)
BREAK_SHAPE = ("junk", "c1-length", "surface")


def _perturb(rng, doc, kind):
    blocks = doc["blocks"]
    block = rng.choice(blocks)
    i = rng.randrange(len(block))
    m = block[i]
    if kind in ("rank", "ch2x2"):
        m[kind] += rng.choice((-2, -1, 1, 2))
    elif kind == "c1":
        m["c1"][rng.randrange(len(m["c1"]))] += rng.choice((-1, 1))
    elif kind == "sign":
        field = rng.choice(("rank", "ch2x2", "c1"))
        m[field] = [-x for x in m["c1"]] if field == "c1" else -m[field]
    elif kind == "rank0":
        m["rank"] = 0
    elif kind == "junk":
        field = rng.choice(("rank", "ch2x2", "c1"))
        if field == "c1" and rng.random() < 0.5:
            m["c1"][rng.randrange(len(m["c1"]))] = rng.choice(JUNK)
        else:
            m[field] = rng.choice(JUNK)
    elif kind == "c1-length":
        if rng.random() < 0.5:
            m["c1"].pop()
        else:
            m["c1"].append(0)
    elif kind == "drop-member":
        del block[i]
    elif kind == "duplicate-member":
        block.insert(rng.randrange(len(block) + 1), copy.deepcopy(m))
    elif kind == "reorder-members":
        rng.shuffle(block)
    elif kind == "drop-block":
        blocks.remove(block)
    elif kind == "duplicate-block":
        blocks.insert(rng.randrange(len(blocks) + 1), copy.deepcopy(block))
    elif kind == "reorder-blocks":
        rng.shuffle(blocks)
    else:
        doc["surface"] = rng.choice(SURFACES)
    return doc


def _word(rng):
    return [rng.choice(MOVES) for _ in range(rng.randint(1, 3))]


def _run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code in (0, 2), (argv, code, captured.err)
    return code


def test_fuzz_documents_exit_zero_or_two(capsys, tmp_path):
    rng = random.Random(SEED)
    builds = _builds()
    path = tmp_path / "doc.json"
    codes = {0: 0, 2: 0}
    for _ in range(DOCUMENT_CASES):
        doc = copy.deepcopy(rng.choice(builds))
        for _ in range(rng.randint(0, 3)):
            if not doc["blocks"] or not all(doc["blocks"]):
                break
            kind = rng.choice(KEEP_SHAPE + BREAK_SHAPE)
            doc = _perturb(rng, doc, kind)
            if kind in BREAK_SHAPE:
                break
        path.write_text(json.dumps(doc), encoding="utf-8")
        codes[_run(capsys, ["verify", str(path)])] += 1
        _run(capsys, ["mutate", str(path), *_word(rng)])
    # both outcomes must be exercised, or the perturbations are too tame
    # or too wild to mean anything
    assert codes[0] > 0 and codes[2] > 0, codes


def test_fuzz_unknown_labels_exit_two(capsys):
    rng = random.Random(SEED)
    known = set(catalog.labels())
    alphabet = "px0123456789.qudricX "
    for _ in range(LABEL_CASES):
        label = rng.choice(sorted(known))
        mangle = rng.randrange(4)
        if mangle == 0:
            label = label.upper()
        elif mangle == 1:
            label = label + rng.choice(alphabet)
        elif mangle == 2:
            label = label[: rng.randrange(len(label))]
        else:
            label = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 6)))
        if label in known:
            continue
        for argv in (
            ["catalog", label, "--verify"],
            ["catalog", label],
            ["orbits", "--label", label],
            ["reduce", label, "1", "1", "1"],
            ["graph", label, "--sum-bound", "10"],
        ):
            assert _run(capsys, argv) == 2
