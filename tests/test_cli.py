"""End-to-end command line tests driven through ``cli.main``."""

import errno
import gc
import io
import json
import os
import random
import subprocess
import sys
import unittest
import warnings
from contextlib import redirect_stdout

import pytest

from triblock import blockcalc, catalog, cli
from triblock.kclass import InvariantViolationError


def run(capsys, *argv):
    rc = cli.main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def run_json(capsys, *argv):
    rc, out, err = run(capsys, *argv)
    assert rc == 0, err
    return json.loads(out)


def test_equations_text(capsys):
    rc, out, err = run(capsys, "equations")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("label")
    assert len(lines) == 16  # header, rule, fourteen rows
    x84 = next(line for line in lines if line.startswith("x8.4"))
    assert "x^2 + 5y^2 + 5z^2 = 5xyz" in x84
    assert "(5,2,1) (5,1,2)" in x84


def test_equations_json(capsys):
    doc = run_json(capsys, "equations", "--json")
    rows = doc["equations"]
    assert len(rows) == 14
    x3 = next(r for r in rows if r["label"] == "x3")
    assert x3 == {
        "label": "x3",
        "surface": "X3",
        "type": [1, 2, 3],
        "ksq": 6,
        "coefficient": 6,
        "equation": "x^2 + 2y^2 + 3z^2 = 6xyz",
        "minimum_solutions": [[1, 1, 1]],
    }


def test_reduce_text(capsys):
    rc, out, _ = run(capsys, "reduce", "p2", "2", "5", "29")
    assert rc == 0
    assert out.splitlines() == [
        "(2,5,29)  --z-->",
        "(2,5,1)  --y-->",
        "(2,1,1)  --x-->",
        "(1,1,1)  minimum",
    ]


def test_reduce_json(capsys):
    doc = run_json(capsys, "reduce", "p2", "2", "5", "29", "--json")
    assert doc["label"] == "p2"
    assert [step["mutation"] for step in doc["path"]] == ["z", "y", "x", None]
    assert doc["path"][0]["solution"] == [2, 5, 29]
    assert doc["path"][-1]["solution"] == [1, 1, 1]


def test_reduce_rejects_non_solution(capsys):
    rc, out, err = run(capsys, "reduce", "p2", "1", "2", "2")
    assert rc == 2
    assert out == ""
    assert err.startswith("error:")


def test_graph_json(capsys):
    doc = run_json(capsys, "graph", "quadric", "--format", "json")
    assert doc["label"] == "quadric"
    assert doc["sum_bound"] == 100
    assert len(doc["nodes"]) == 17
    assert len(doc["edges"]) == 16
    assert doc["loops"] == [[[1, 1, 1], "z"]]
    assert doc["minima"] == [[1, 1, 1]]
    assert doc["components"] == 1
    assert doc["acyclic"] is False


def test_graph_unknown_label(capsys):
    rc, _, err = run(capsys, "graph", "x17")
    assert rc == 2
    assert "unknown equation label" in err


class GraphDotOutputTest(unittest.TestCase):
    """Golden test for the DOT emission."""

    def test_quadric_small_graph(self) -> None:
        buffer = io.StringIO()
        with redirect_stdout(buffer):
            rc = cli.main(["graph", "quadric", "--sum-bound", "12"])
        self.assertEqual(rc, 0)
        observed = buffer.getvalue()
        expected = """
graph "quadric" {
  "1,1,1" [peripheries=2];
  "1,3,1";
  "3,1,1";
  "1,3,5";
  "3,1,5";
  "1,1,1" -- "1,3,1" [label="y"];
  "1,1,1" -- "3,1,1" [label="x"];
  "1,3,1" -- "1,3,5" [label="z"];
  "3,1,1" -- "3,1,5" [label="z"];
  "1,1,1" -- "1,1,1" [label="z"];
}
"""
        self.assertEqual(observed.strip(), expected.strip())


def test_catalog_emits_document(capsys):
    doc = run_json(capsys, "catalog", "x3")
    assert doc["surface"] == "X3"
    assert [len(b) for b in doc["blocks"]] == [1, 2, 3]
    assert doc["provenance"]["label"] == "x3"
    assert doc["provenance"]["solution"] == 0
    assert doc["provenance"]["word"] == list(catalog.ENTRIES["x3"].word)
    assert cli.collection_from_doc(doc) == catalog.build("x3")


def test_catalog_second_solution(capsys):
    doc = run_json(capsys, "catalog", "x4", "--solution", "1")
    assert [m["rank"] for m in doc["blocks"][0]] == [2]
    assert doc["provenance"]["solution"] == 1
    entry = catalog.ENTRIES["x4"]
    assert doc["provenance"]["word"] == list(entry.word) + list(entry.extra_word)
    assert cli.collection_from_doc(doc) == catalog.build("x4", 1)


def test_parser_is_shared_and_defaults_do_not_leak(capsys):
    assert cli.build_parser() is cli.build_parser()
    first = run_json(capsys, "catalog", "x4", "--solution", "1")
    again = run_json(capsys, "catalog", "x4")
    assert (first["provenance"]["solution"], again["provenance"]["solution"]) == (1, 0)
    run_json(capsys, "orbits", "--label", "x4", "--json")
    rc, out, _ = run(capsys, "orbits", "--label", "x4")
    assert rc == 0
    assert out.splitlines()[0].split() == ["label", "N", "C", "orbits"]


def test_catalog_verify_single(capsys):
    rc, out, _ = run(capsys, "catalog", "x5", "--verify")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines and all(line.startswith("ok: ") for line in lines)


def test_catalog_all_needs_verify(capsys):
    rc, _, err = run(capsys, "catalog", "all")
    assert rc == 2
    assert "--verify" in err


def test_catalog_verify_rejects_solution(capsys):
    # --verify checks every cataloged solution, so an index would do nothing.
    for index in ("7", "0", "1"):
        rc, out, err = run(capsys, "catalog", "x4", "--verify", "--solution", index)
        assert (rc, out) == (2, "")
        assert "--solution" in err


def test_catalog_all_verify(capsys):
    rc, out, _ = run(capsys, "catalog", "all", "--verify")
    assert rc == 0
    assert "[x8.4]" in out
    assert "FAIL" not in out


def test_catalog_unknown_label(capsys):
    rc, _, err = run(capsys, "catalog", "x2")
    assert rc == 2
    assert "unknown catalog label" in err


def test_catalog_verify_unknown_label(capsys):
    rc, out, err = run(capsys, "catalog", "x2", "--verify")
    assert rc == 2
    assert out == ""
    assert "unknown catalog label 'x2'" in err


def test_catalog_solution_out_of_range(capsys):
    rc, _, err = run(capsys, "catalog", "p2", "--solution", "1")
    assert rc == 2
    assert "out of range" in err


def write_catalog_doc(capsys, tmp_path, label, name="doc.json"):
    rc, out, err = run(capsys, "catalog", label)
    assert rc == 0, err
    path = tmp_path / name
    path.write_text(out, encoding="utf-8")
    return path


def test_verify_catalog_document(capsys, tmp_path):
    path = write_catalog_doc(capsys, tmp_path, "x6.2")
    rc, out, _ = run(capsys, "verify", str(path))
    assert rc == 0
    assert "ok: complete" in out
    assert "ok: ranks solve equation  (x6.2: ranks (2,1,1))" in out
    assert "ok: abc relations" in out


def test_verify_closes_the_document(capsys, tmp_path):
    path = write_catalog_doc(capsys, tmp_path, "p2")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc, _, _ = run(capsys, "verify", str(path))
        gc.collect()
    assert rc == 0
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def test_verify_from_stdin(capsys, monkeypatch):
    rc, out, _ = run(capsys, "catalog", "quadric")
    assert rc == 0
    monkeypatch.setattr("sys.stdin", io.StringIO(out))
    rc, out, _ = run(capsys, "verify", "-")
    assert rc == 0
    assert "ok: blocks and semiorthogonality" in out


def test_verify_flags_incomplete_collection(capsys, tmp_path):
    rc, out, _ = run(capsys, "catalog", "x5")
    doc = json.loads(out)
    doc["blocks"][2].pop()  # drop one class
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    rc, out, _ = run(capsys, "verify", str(path))
    assert rc == 2
    assert "FAIL: complete" in out


def test_incomplete_collection_reports_no_block_slopes(capsys, tmp_path):
    # [O_E(-1)], [O], [O(H)] on X1 is valid but incomplete; the slope claim
    # is about complete collections, so it is not reported at all.
    members = ((0, [0, 1], -1), (1, [0, 0], 0), (1, [1, 0], 1))
    doc = {
        "surface": "X1",
        "blocks": [[{"rank": r, "c1": c1, "ch2x2": ch2}] for r, c1, ch2 in members],
    }
    path = tmp_path / "x1.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    rc, out, _ = run(capsys, "verify", str(path))
    assert rc == 2
    assert out.splitlines() == [
        "ok: blocks and semiorthogonality  (type (1, 1, 1))",
        "FAIL: complete  (3 classes, K0 rank 4)",
        "FAIL: ranks solve equation  (no matching equation)",
    ]


def test_verify_rejects_malformed_documents(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("not json at all", encoding="utf-8")
    rc, out, _ = run(capsys, "verify", str(bad))
    assert rc == 2
    assert out.startswith("FAIL: not valid JSON")

    bad.write_text(json.dumps({"blocks": [[]]}), encoding="utf-8")
    rc, out, _ = run(capsys, "verify", str(bad))
    assert rc == 2
    assert "surface" in out

    bad.write_text(
        json.dumps(
            {
                "surface": "X1",
                "blocks": [[{"rank": "one", "c1": [0, 0], "ch2x2": 0}]],
            }
        ),
        encoding="utf-8",
    )
    rc, out, _ = run(capsys, "verify", str(bad))
    assert rc == 2
    assert "integers" in out

    # JSON booleans load as Python ints; none may stand in for an integer.
    for member in (
        {"rank": True, "c1": [0, 0], "ch2x2": 0},
        {"rank": 1, "c1": [0, 0], "ch2x2": False},
        {"rank": 1, "c1": [True, 0], "ch2x2": 0},
    ):
        bad.write_text(
            json.dumps({"surface": "X1", "blocks": [[member]]}), encoding="utf-8"
        )
        rc, out, _ = run(capsys, "verify", str(bad))
        assert rc == 2
        assert out.startswith("FAIL:") and "integers" in out

    bad.write_text(json.dumps({"surface": 3, "blocks": [[]]}), encoding="utf-8")
    rc, out, _ = run(capsys, "verify", str(bad))
    assert rc == 2
    assert out.startswith("FAIL: surface must be a string")


# Documents of the wrong shape, each with the message collection_from_doc
# gives before it builds any class.
SHAPE_FAULTS = {
    "array": ([], "document must be a JSON object"),
    "no-blocks": ({"surface": "X1", "blocks": []}, "document needs a nonempty 'blocks' list"),
    "object-block": (
        {"surface": "X1", "blocks": [{"rank": 1, "c1": [0, 0], "ch2x2": 0}]},
        "each block must be a list of classes",
    ),
    "list-member": (
        {"surface": "X1", "blocks": [[[1, [0, 0], 0]]]}, "each class must be an object"
    ),
    "no-ch2x2": (
        {"surface": "X1", "blocks": [[{"rank": 1, "c1": [0, 0]}]]}, "class lacks field 'ch2x2'"
    ),
}


@pytest.mark.parametrize("fault", sorted(SHAPE_FAULTS))
def test_malformed_document_shapes_exit_two(capsys, tmp_path, fault):
    doc, message = SHAPE_FAULTS[fault]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert run(capsys, "verify", str(path)) == (2, f"FAIL: {message}\n", "")
    assert run(capsys, "mutate", str(path), "L1") == (2, "", f"error: {message}\n")


def test_parity_violation_is_bad_input(capsys, tmp_path):
    # A rank-0 member with 2*ch2 even on a curve with c1.K odd is exceptional
    # but breaks the sheaf parity; it is bad input, never an internal error.
    bad = tmp_path / "parity.json"
    for ch2x2 in (0, 2):
        parity = {
            "surface": "X1",
            "blocks": [
                [{"rank": 1, "c1": [0, 0], "ch2x2": 0}],
                [{"rank": 0, "c1": [0, 1], "ch2x2": ch2x2}],
            ],
        }
        bad.write_text(json.dumps(parity), encoding="utf-8")
        rc, out, _ = run(capsys, "verify", str(bad))
        assert rc == 2
        assert out.startswith("FAIL:") and "parity" in out
        rc, out, err = run(capsys, "mutate", str(bad), "R1")
        assert rc == 2
        assert out == ""
        assert err.startswith("error:") and "parity" in err


def test_deeply_nested_document_is_bad_input(capsys, tmp_path):
    bad = tmp_path / "deep.json"
    for raw in ("[" * 100000, "[" * 100000 + "]" * 100000, '{"a":' * 100000):
        bad.write_text(raw, encoding="utf-8")
        rc, out, err = run(capsys, "verify", str(bad))
        assert rc == 2
        assert out.startswith("FAIL: not valid JSON")
        assert err == ""


def test_mutate_prints_results_past_the_digit_limit(capsys, tmp_path):
    path = write_catalog_doc(capsys, tmp_path, "p2")
    word = ["R1", "L2"] * 10
    limit = sys.get_int_max_str_digits()
    rc, out, err = run(capsys, "mutate", str(path), *word)
    assert (rc, err) == (0, "")
    assert sys.get_int_max_str_digits() == limit
    expected = blockcalc.apply_word(catalog.build("p2"), word)
    assert max(abs(m.ch2x2) for m in expected.members) >= 10**limit
    sys.set_int_max_str_digits(0)
    try:
        assert out == json.dumps(cli.collection_to_doc(expected, {"word": word}), indent=2) + "\n"
    finally:
        sys.set_int_max_str_digits(limit)
    # documents are still parsed under the limit
    big = tmp_path / "big.json"
    big.write_text(out, encoding="utf-8")
    rc, out, _ = run(capsys, "verify", str(big))
    assert rc == 2
    assert out.startswith("FAIL:") and "limit" in out


def test_document_past_the_digit_limit_names_the_read_limit(capsys, tmp_path):
    # 103 seeded right moves on P2 print integers past 4300 digits; reading
    # them back names the limit instead of advising a call no user can make.
    path = write_catalog_doc(capsys, tmp_path, "p2")
    rng = random.Random(1)
    word = [rng.choice(("R1", "R2")) for _ in range(103)]
    rc, out, err = run(capsys, "mutate", str(path), *word)
    assert (rc, err) == (0, "")
    big = tmp_path / "big.json"
    big.write_text(out, encoding="utf-8")
    limit = sys.get_int_max_str_digits()
    message = f"a document integer exceeds the {limit}-digit read limit"
    assert run(capsys, "verify", str(big)) == (2, f"FAIL: {message}\n", "")
    assert run(capsys, "mutate", str(big), "R1") == (2, "", f"error: {message}\n")
    assert sys.get_int_max_str_digits() == limit


def test_verify_missing_file(capsys, tmp_path):
    rc, _, err = run(capsys, "verify", str(tmp_path / "nope.json"))
    assert rc == 2
    assert err.startswith("error:")


def test_internal_invariant_is_exit_three(capsys, monkeypatch, tmp_path):
    path = write_catalog_doc(capsys, tmp_path, "x3")

    def broken(c, word):
        raise InvariantViolationError("mutation produced an invalid collection")

    monkeypatch.setattr(blockcalc, "apply_word", broken)
    rc, out, err = run(capsys, "mutate", str(path), "R1")
    assert rc == 3
    assert out == ""
    assert err.startswith("internal invariant violated:")


def test_broken_catalog_build_is_exit_three(capsys, monkeypatch):
    def broken(c):
        raise InvariantViolationError("no mergeable pair")

    catalog.build.cache_clear()
    monkeypatch.setattr(catalog, "_merge_distinguished", broken)
    try:
        rc, out, err = run(capsys, "catalog", "x5", "--verify")
    finally:
        catalog.build.cache_clear()
    assert rc == 3
    assert out == ""
    assert err == "internal invariant violated: no mergeable pair\n"


@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize(
    "argv",
    [("catalog", "all", "--verify"), ("graph", "p2", "--sum-bound", "1000", "--format", "json")],
)
def test_closed_stdout_exits_one_silently(argv, unbuffered):
    # The reader closes the pipe before the command writes.  Buffered, the
    # write fails at main's flush; unbuffered, at the first print.  Either
    # way the exit is 1, CPython's own status on EPIPE, with nothing on
    # stderr, not even at shutdown.
    root = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=root)
    env.pop("PYTHONUNBUFFERED", None)
    flags = subprocess._args_from_interpreter_flags() + (["-u"] if unbuffered else [])
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, *flags, "-m", "triblock.cli", *argv],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=300,
        )
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (1, b"")


class _ClosedPipe(io.TextIOBase):
    # A stdout with no file descriptor whose reader has gone.
    def write(self, text):
        raise BrokenPipeError(errno.EPIPE, "Broken pipe")


def test_closed_stdout_without_a_descriptor_exits_one(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    assert cli.main(["equations"]) == 1
    monkeypatch.undo()
    assert capsys.readouterr() == ("", "")


def _rendered(checks):
    return [
        f"{'ok' if c.ok else 'FAIL'}: {c.name}" + (f"  ({c.detail})" if c.detail else "")
        for c in checks
    ]


def test_verify_and_catalog_verify_share_one_check_path(capsys, tmp_path):
    for label in catalog.labels():
        rc, listing, _ = run(capsys, "catalog", label, "--verify")
        assert rc == 0
        listing = listing.splitlines()
        for solution, c in enumerate(catalog.builds(label)):
            rc, doc, err = run(capsys, "catalog", label, "--solution", str(solution))
            assert rc == 0, err
            path = tmp_path / f"{label}-{solution}.json"
            path.write_text(doc, encoding="utf-8")
            rc, out, _ = run(capsys, "verify", str(path))
            assert rc == 0
            lines = _rendered(catalog.checks(c))
            assert out.splitlines() == lines
            if solution == 0:
                # catalog --verify prints the build line, then these checks
                assert listing[1 : 1 + len(lines)] == lines


def test_verify_names_the_offending_members(capsys, tmp_path):
    path = tmp_path / "plane.json"
    doc = {
        "surface": "P2",
        "blocks": [[{"rank": 1, "c1": [d], "ch2x2": d * d}] for d in (0, -1, 1)],
    }
    path.write_text(json.dumps(doc), encoding="utf-8")
    rc, out, _ = run(capsys, "verify", str(path))
    assert rc == 2
    assert out == (
        "FAIL: chi(block 2 member 1, block 1 member 1) = 3; "
        "the collection is not semiorthogonal\n"
    )


def test_mutate_round_trip(capsys, tmp_path):
    first = write_catalog_doc(capsys, tmp_path, "x8.2", "first.json")
    rc, out, _ = run(capsys, "mutate", str(first), "R1", "R2")
    assert rc == 0
    forward = json.loads(out)
    assert forward["provenance"] == {"word": ["R1", "R2"]}
    second = tmp_path / "second.json"
    second.write_text(json.dumps(forward), encoding="utf-8")
    rc, out, _ = run(capsys, "mutate", str(second), "L2", "L1")
    assert rc == 0
    back = json.loads(out)
    assert back["blocks"] == json.loads(first.read_text())["blocks"]


def test_mutate_accepts_comma_words(capsys, tmp_path):
    path = write_catalog_doc(capsys, tmp_path, "x3")
    rc, out1, _ = run(capsys, "mutate", str(path), "R1", "R2")
    assert rc == 0
    rc, out2, _ = run(capsys, "mutate", str(path), "R1,R2")
    assert rc == 0
    assert json.loads(out1)["blocks"] == json.loads(out2)["blocks"]


def test_mutate_rejects_bad_tokens(capsys, tmp_path):
    path = write_catalog_doc(capsys, tmp_path, "x3")
    rc, out, err = run(capsys, "mutate", str(path), "Q7")
    assert rc == 2
    assert out == ""
    assert "invalid mutation token" in err
    rc, _, err = run(capsys, "mutate", str(path), "R9")
    assert rc == 2
    assert "no adjacent block pair" in err
    # Non-ASCII digits name no move, and get the intended message.
    for token in ("R\u0662", "L\u00b2"):
        rc, out, err = run(capsys, "mutate", str(path), token)
        assert (rc, out) == (2, "")
        assert "invalid mutation token" in err


def test_curves_text(capsys):
    rc, out, _ = run(capsys, "curves", "X3")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "6 minus-one classes on X3"
    assert len(lines) == 7
    assert lines[1].split() == ["0", "0", "0", "1"]


def test_curves_json(capsys):
    doc = run_json(capsys, "curves", "X3", "--kind", "root", "--json")
    assert doc["surface"] == "X3"
    assert doc["kind"] == "root"
    assert doc["count"] == 8
    assert len(doc["classes"]) == 8
    assert [0, 1, -1, 0] in doc["classes"]


def test_curves_quadric_and_errors(capsys):
    doc = run_json(capsys, "curves", "quadric", "--kind", "root", "--json")
    assert sorted(map(tuple, doc["classes"])) == [(-1, 1), (1, -1)]
    rc, _, err = run(capsys, "curves", "X9")
    assert rc == 2
    assert err.startswith("error:")
    for name in ("X\u0663", "X\uff13", "X\u00b2"):
        rc, _, err = run(capsys, "curves", name)
        assert rc == 2
        assert "unknown surface name" in err


def test_curves_has_no_bound_multiplier_option(capsys):
    # The default box already holds every class, so the command line takes
    # no multiplier; the library keyword stays as the tests' stability check.
    with pytest.raises(SystemExit) as exc:
        cli.main(["curves", "X3", "--bound-multiplier", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --bound-multiplier" in capsys.readouterr().err


def test_disjoint_sets_cli(capsys):
    doc = run_json(capsys, "disjoint-sets", "X3", "3", "--json")
    assert doc == {"surface": "X3", "size": 3, "count": 2}
    rc, out, _ = run(capsys, "disjoint-sets", "X3", "2")
    assert rc == 0
    assert out.strip() == "9"


def test_orbits_single_row(capsys):
    doc = run_json(capsys, "orbits", "--label", "x4", "--json")
    assert doc["rows"] == [
        {"label": "x4", "solution_classes": 2, "repetition": 2, "orbits": 1}
    ]


def test_orbits_text_with_c_witnesses(capsys):
    rc, out, _ = run(capsys, "orbits", "--label", "p2", "--check-c")
    assert rc == 0
    assert "C witness x5: ok" in out
    assert "C witness x6.1: ok" in out


def test_orbits_json_with_c_witnesses(capsys):
    doc = run_json(capsys, "orbits", "--label", "p2", "--check-c", "--json")
    assert list(doc) == ["rows", "c_witnesses"]
    assert doc["c_witnesses"] == {"x5": True, "x6.1": True}


def test_orbits_recursion_checks(capsys):
    doc = run_json(capsys, "orbits", "--label", "x3", "--check-recursion", "--json")
    cases = doc["recursion"]
    assert [c["label"] for c in cases] == ["x3", "x6.2", "x7.1", "x8.1", "x8.2"]
    assert all(c["ok"] for c in cases)
    x82 = cases[-1]
    assert x82["solution_classes"] * x82["binom"] == (
        x82["smaller_classes"] * x82["disjoint_sets"]
    )


def test_pipe_catalog_into_verify(capsys, monkeypatch):
    rc, out, _ = run(capsys, "catalog", "x7.3")
    assert rc == 0
    monkeypatch.setattr("sys.stdin", io.StringIO(out))
    rc, out, _ = run(capsys, "verify", "-")
    assert rc == 0
    assert all(line.startswith("ok: ") for line in out.strip().splitlines())
