import json
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from priocover import (
    Box,
    ColumnRestrictedCIP,
    CoverReport,
    Document,
    FracSolution,
    IntSolution,
    LineInstance,
    PriorityCIP,
    RectCoverInstance,
    Segment,
    SolutionPayload,
    UNBOUNDED,
    ValidationError,
    ZeroOneCIP,
    document_for,
    gen_broom,
    is_unbounded,
    parse_document,
    serialize_document,
)
from priocover.cli import main
from priocover.plc import gen_gap_line

from conftest import coverable_line, rand_tree


def roundtrip(body):
    text = serialize_document(document_for(body))
    doc = parse_document(text)
    assert doc.body == body
    assert serialize_document(doc) == text
    return doc


def test_roundtrip_matrix_kinds():
    base = ZeroOneCIP(
        matrix=((1, 0), (1, 1)),
        demands=(2, 3),
        costs=(4, 5),
        upper_bounds=(UNBOUNDED, 2),
    )
    roundtrip(base)
    ccip = ColumnRestrictedCIP(base=base, supplies=(3, 7))
    roundtrip(ccip)
    pcip = PriorityCIP(base=base, priority_supplies=(3, 7), priority_demands=(1, 2))
    roundtrip(pcip)


def test_roundtrip_geometry_kinds():
    line = LineInstance((2, 1), (Segment(1, 2, 2, 3),))
    roundtrip(line)
    rng = random.Random(3)
    tree = rand_tree(rng, max_nodes=7)
    roundtrip(tree)
    from priocover import ptc_to_2plc, twoplc_to_rect

    two = ptc_to_2plc(tree)
    roundtrip(two)
    roundtrip(twoplc_to_rect(two))
    rect = RectCoverInstance(
        points=((0, 1, 2),), boxes=(Box(0, 1, 1, 2, 9),)
    )
    roundtrip(rect)


def test_roundtrip_solution_and_report():
    roundtrip(SolutionPayload(solution=IntSolution((1, 0, 2)), cost=7))
    frac = SolutionPayload(
        solution=FracSolution((Fraction(8, 3), 1)), cost=Fraction(11, 3)
    )
    doc = roundtrip(frac)
    assert isinstance(doc.body.solution, FracSolution)
    assert doc.body.solution[0] == Fraction(8, 3)
    roundtrip(
        CoverReport(
            feasible=False, coverage=(0,), demands=(1,), uncovered=(0,)
        )
    )


def test_unbounded_encodes_as_null():
    base = ZeroOneCIP(
        matrix=((1,),), demands=(1,), costs=(1,), upper_bounds=(UNBOUNDED,)
    )
    raw = json.loads(serialize_document(document_for(base)))
    assert raw["bounds"] == [None]
    back = parse_document(serialize_document(document_for(base)))
    assert is_unbounded(back.body.upper_bounds[0])


def test_parse_rejects_wrong_version():
    text = serialize_document(document_for(gen_gap_line(3)))
    raw = json.loads(text)
    raw["version"] = 2
    with pytest.raises(ValidationError) as err:
        parse_document(json.dumps(raw))
    assert "version" in str(err.value)


def test_parse_rejects_unknown_kind():
    with pytest.raises(ValidationError):
        parse_document('{"kind": "mystery", "version": 1}')


def test_parse_error_names_the_field():
    text = serialize_document(document_for(gen_gap_line(3)))
    raw = json.loads(text)
    raw["segments"][0]["r"] = "x"
    with pytest.raises(ValidationError) as err:
        parse_document(json.dumps(raw))
    assert "segments[0].r" in str(err.value)


def test_parse_reports_json_position():
    with pytest.raises(ValidationError) as err:
        parse_document("{]")
    assert "line 1" in str(err.value)


def test_gap_line_roundtrip_identical():
    inst = gen_gap_line(5)
    text = serialize_document(document_for(inst))
    again = parse_document(text)
    assert again.body == inst
    assert serialize_document(again) == text


def test_backwards_segment_parses_but_fails_validation():
    # parsing is shape-only; semantic problems belong to validate_instance
    from priocover import validate_instance

    text = serialize_document(document_for(LineInstance((1, 1), (Segment(1, 2, 1, 1),))))
    raw = json.loads(text)
    raw["segments"][0]["l"] = 2
    raw["segments"][0]["r"] = 1
    doc = parse_document(json.dumps(raw))
    assert validate_instance(doc.body)


def test_parse_ignores_unknown_fields():
    text = serialize_document(document_for(gen_gap_line(3)))
    raw = json.loads(text)
    raw["comment"] = "hand-tuned"
    doc = parse_document(json.dumps(raw))
    assert doc.body == gen_gap_line(3)


def test_serialize_is_stable():
    rng = random.Random(8)
    inst = rand_tree(rng)
    a = serialize_document(document_for(inst))
    b = serialize_document(parse_document(a))
    assert a == b
    assert a.endswith("\n")


# ---------------------------------------------------------------------------
# command line


def write_doc(path, body):
    path.write_text(serialize_document(document_for(body)))
    return str(path)


def read_doc(path):
    return parse_document(path.read_text())


def test_cli_generate_and_solve(tmp_path):
    inst = tmp_path / "line.json"
    out = tmp_path / "sol.json"
    assert main(["generate", "gap-line", "--k", "5", "--out", str(inst)]) == 0
    assert main(["solve", "plc-exact", "--in", str(inst), "--out", str(out)]) == 0
    payload = read_doc(out).body
    assert payload.cost == 3
    assert main(["verify", "--in", str(inst), "--solution", str(out), "--out", str(tmp_path / "rep.json")]) == 0


def test_cli_pd_and_lp(tmp_path):
    inst = tmp_path / "line.json"
    main(["generate", "gap-line", "--k", "11", "--out", str(inst)])
    out = tmp_path / "pd.json"
    audit = tmp_path / "audit.json"
    assert main(["solve", "plc-pd", "--in", str(inst), "--out", str(out), "--audit", str(audit)]) == 0
    trail = json.loads(audit.read_text())
    raw = trail["dual_total"]
    dual = Fraction(raw["num"], raw["den"]) if isinstance(raw, dict) else Fraction(raw)
    assert trail["cost"] <= 2 * dual
    lp_out = tmp_path / "lp.json"
    assert main(["lp", "solve", "--in", str(inst), "--out", str(lp_out)]) == 0
    value = read_doc(lp_out).body.cost
    assert value == Fraction(14, 3)


def test_cli_tree_commands(tmp_path):
    graph = tmp_path / "k3.json"
    graph.write_text(json.dumps({
        "vertices": ["a", "b", "c"],
        "edges": [["a", "b"], ["b", "c"], ["a", "c"]],
    }))
    tree = tmp_path / "tree.json"
    assert main(["generate", "broom", "--graph", str(graph), "--out", str(tree)]) == 0
    sol = tmp_path / "sol.json"
    assert main(["solve", "ptc-2apx", "--in", str(tree), "--out", str(sol)]) == 0
    assert main(["verify", "--in", str(tree), "--solution", str(sol), "--out", str(tmp_path / "r.json")]) == 0
    brute = tmp_path / "brute.json"
    assert main(["oracle", "brute", "--in", str(tree), "--out", str(brute)]) == 0
    assert read_doc(brute).body.cost == 5
    assert read_doc(sol).body.cost <= 10
    unw = tmp_path / "unw.json"
    assert main(["solve", "ptc-unw6", "--in", str(tree), "--out", str(unw)]) == 0
    t01 = tmp_path / "t01.json"
    assert main(["solve", "tree01", "--in", str(tree), "--out", str(t01)]) == 0
    assert read_doc(t01).body.cost == 3


def test_cli_reduce_chain(tmp_path):
    rng = random.Random(4)
    tree = tmp_path / "tree.json"
    write_doc(tree, rand_tree(rng, max_nodes=6))
    line2 = tmp_path / "2plc.json"
    rect = tmp_path / "rect.json"
    assert main(["reduce", "ptc-to-2plc", "--in", str(tree), "--out", str(line2)]) == 0
    assert main(["reduce", "2plc-to-rect", "--in", str(line2), "--out", str(rect)]) == 0
    from priocover import cover_relation

    assert cover_relation(read_doc(tree).body) == cover_relation(read_doc(rect).body)
    # every kind has an LP relaxation, and the reductions preserve its value
    values = []
    for doc in (tree, line2, rect):
        out = tmp_path / "lp.json"
        assert main(["lp", "solve", "--in", str(doc), "--out", str(out)]) == 0
        values.append(read_doc(out).body.cost)
    assert values[0] == values[1] == values[2]


def test_cli_ccip_commands(tmp_path):
    base = ZeroOneCIP(
        matrix=((1, 1, 1),), demands=(5,), costs=(1, 1, 1), upper_bounds=(1, 1, 1)
    )
    doc = tmp_path / "ccip.json"
    write_doc(doc, ColumnRestrictedCIP(base=base, supplies=(4, 3, 2)))
    out = tmp_path / "z.json"
    audit = tmp_path / "a.json"
    assert main(["solve", "ccip", "--in", str(doc), "--out", str(out), "--audit", str(audit)]) == 0
    assert read_doc(out).body.cost == 2
    trail = json.loads(audit.read_text())
    assert trail["bound_factor"] == 40
    assert trail["generating_set"] == [0, 1]
    relaxed = tmp_path / "x.json"
    assert main(["lp", "alpha-relaxed", "--in", str(doc), "--alpha", "1/3", "--out", str(relaxed)]) == 0
    x = read_doc(relaxed).body
    assert tuple(x.solution) == (1, Fraction(1, 3), 0)
    assert x.cost == Fraction(4, 3)


def test_cli_exit_codes(tmp_path):
    assert main([]) == 64
    assert main(["frobnicate"]) == 64
    assert main(["solve"]) == 64
    assert main(["--help"]) == 0
    assert main(["lp", "alpha-relaxed", "--in", "x", "--alpha", "5/3"]) == 64

    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    assert main(["solve", "plc-exact", "--in", str(bad)]) == 2
    assert main(["solve", "plc-exact", "--in", str(tmp_path / "missing.json")]) == 2

    wrong = tmp_path / "wrong.json"
    write_doc(wrong, gen_gap_line(3))
    assert main(["solve", "ptc-2apx", "--in", str(wrong), "--out", str(tmp_path / "o.json")]) == 2


@pytest.mark.parametrize("segment", [Segment(1, 3, 1, 1), Segment(1, 1, 1, -1)],
                         ids=["past-the-end", "negative-cost"])
@pytest.mark.parametrize("algorithm", ["plc-exact", "plc-pd"])
def test_cli_rejects_invalid_line(tmp_path, algorithm, segment):
    doc = tmp_path / "bad.json"
    write_doc(doc, LineInstance((1,), (segment,)))
    run = subprocess.run(
        [sys.executable, "-m", "priocover.cli", "solve", algorithm, "--in", str(doc)],
        capture_output=True, text=True,
    )
    assert run.returncode == 2
    assert "Traceback" not in run.stderr
    assert run.stdout == ""


@pytest.mark.parametrize(
    "parent, message",
    [({"1": 2, "2": 1}, "cycle through node 1"),
     ({"1": 5}, "node 1 does not reach the root")],
    ids=["cycle", "dangling-parent"],
)
def test_cli_rejects_broken_parent_map(tmp_path, parent, message):
    # the segment's bottom never reaches the root, so validation must not
    # walk up from it to test ancestry
    children = {}
    for v, p in parent.items():
        children.setdefault(str(p), []).append(int(v))
    doc = tmp_path / "bad.json"
    doc.write_text(json.dumps({
        "kind": "tree",
        "version": 1,
        "root": 0,
        "parent": parent,
        "child_order": children,
        "edges": [{"id": int(v), "pi": 1} for v in parent],
        "segments": [{"t": 0, "b": 1, "s": 1, "c": 1}],
    }))
    run = subprocess.run(
        [sys.executable, "-m", "priocover.cli", "solve", "ptc-2apx", "--in", str(doc)],
        capture_output=True, text=True, timeout=30,
    )
    assert run.returncode == 2
    assert "Traceback" not in run.stderr
    assert message in run.stderr


def test_cli_infeasible_and_budget(tmp_path):
    hopeless = tmp_path / "hopeless.json"
    write_doc(hopeless, LineInstance((5,), (Segment(1, 1, 1, 1),)))
    assert main(["solve", "plc-exact", "--in", str(hopeless), "--out", str(tmp_path / "o.json")]) == 1

    inst = tmp_path / "line.json"
    rng = random.Random(6)
    write_doc(inst, coverable_line(rng, max_edges=9, max_segments=14))
    assert main(["oracle", "brute", "--in", str(inst), "--budget", "2", "--out", str(tmp_path / "b.json")]) == 3


def test_cli_verify_short_solution(tmp_path):
    inst = tmp_path / "line.json"
    main(["generate", "gap-line", "--k", "5", "--out", str(inst)])
    weak = tmp_path / "weak.json"
    write_doc(weak, SolutionPayload(solution=IntSolution((1, 0, 0, 0, 0, 0)), cost=1))
    report = tmp_path / "rep.json"
    assert main(["verify", "--in", str(inst), "--solution", str(weak), "--out", str(report)]) == 1
    body = read_doc(report).body
    assert not body.feasible
    assert body.uncovered


def test_cli_stdio_pipe():
    gen = subprocess.run(
        [sys.executable, "-m", "priocover.cli", "generate", "gap-line", "--k", "5"],
        capture_output=True, text=True, check=True,
    )
    solve = subprocess.run(
        [sys.executable, "-m", "priocover.cli", "solve", "plc-exact"],
        input=gen.stdout, capture_output=True, text=True, check=True,
    )
    assert json.loads(solve.stdout)["cost"] == 3


def test_cli_deterministic_bytes(tmp_path):
    tree = tmp_path / "tree.json"
    rng = random.Random(10)
    write_doc(tree, rand_tree(rng, max_nodes=7, unit_cost=True))
    outs = []
    for i in range(2):
        out = tmp_path / ("o%d.json" % i)
        audit = tmp_path / ("a%d.json" % i)
        assert main(["solve", "ptc-unw6", "--in", str(tree), "--out", str(out), "--audit", str(audit)]) == 0
        outs.append((out.read_bytes(), audit.read_bytes()))
    assert outs[0] == outs[1]


def test_cli_solve_output_passes_verify(tmp_path):
    # every solver's output must verify against its input
    rng = random.Random(12)
    tree = tmp_path / "tree.json"
    write_doc(tree, rand_tree(rng, max_nodes=7, unit_cost=True))
    line = tmp_path / "line.json"
    write_doc(line, coverable_line(rng, max_edges=7, max_segments=9))
    for cmd, doc in (
        (["solve", "plc-exact"], line),
        (["solve", "plc-pd"], line),
        (["solve", "ptc-2apx"], tree),
        (["solve", "ptc-unw6"], tree),
    ):
        out = tmp_path / "out.json"
        assert main(cmd + ["--in", str(doc), "--out", str(out)]) == 0
        assert main(["verify", "--in", str(doc), "--solution", str(out), "--out", str(tmp_path / "rep.json")]) == 0
