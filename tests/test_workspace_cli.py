"""Workspace persistence and the command-line driver."""

import json
import os
import subprocess
import sys

import pytest

from panache.cli import main
from panache.cohomology import ext1_class
from panache.linalg import Mat
from panache.objects import RepObject, simple_character, unit_object
from panache.presentations import explicit_presentation
from panache.workspace import (PairRef, WorkspaceDoc, WorkspaceError,
                               load_workspace, save_workspace,
                               workspace_from_json)


@pytest.fixture()
def demo_doc():
    pres = explicit_presentation(1, (-2,), [("x", (1,)), ("y", (1,))], {})
    doc = WorkspaceDoc(pres)
    doc.objects["kummer"] = RepObject(pres, ("e1", "e0"), ((1,), (0,)),
                                      {0: Mat.from_rows([[0, 1], [0, 0]])})
    doc.objects["m"] = RepObject(pres, ("c2", "c1", "c0"), ((2,), (1,), (0,)), {
        0: Mat.from_rows([[0, 1, 0], [0, 0, 2], [0, 0, 0]]),
        1: Mat.from_rows([[0, 2, 0], [0, 0, 4], [0, 0, 0]])})
    doc.objects["B"] = simple_character(pres, (2,))
    doc.objects["A"] = simple_character(pres, (1,))
    doc.objects["C"] = unit_object(pres)
    doc.ext_classes["L"] = ext1_class(doc.objects["A"], doc.objects["B"],
                                      {0: [1], 1: [0]})
    doc.ext_classes["N_bad"] = ext1_class(doc.objects["C"], doc.objects["A"],
                                          {0: [0], 1: [1]})
    doc.ext_classes["N_good"] = ext1_class(doc.objects["C"], doc.objects["A"],
                                           {0: [2], 1: [0]})
    doc.pairs["bad"] = PairRef("B", "A", "C", "L", "N_bad")
    doc.pairs["good"] = PairRef("B", "A", "C", "L", "N_good")
    return doc


@pytest.fixture()
def ws_path(demo_doc, tmp_path):
    path = tmp_path / "ws.json"
    save_workspace(demo_doc, str(path))
    return str(path)


def test_round_trip_is_canonical(ws_path, tmp_path):
    doc = load_workspace(ws_path)
    again = tmp_path / "ws2.json"
    save_workspace(doc, str(again))
    assert open(ws_path).read() == open(str(again)).read()


def test_empty_workspace_round_trip(tmp_path):
    pres = explicit_presentation(1, (-2,), [("x", (1,))], {})
    path = tmp_path / "empty.json"
    save_workspace(WorkspaceDoc(pres), str(path))
    doc = load_workspace(str(path))
    assert doc.objects == {} and doc.reports == []
    again = tmp_path / "empty2.json"
    save_workspace(doc, str(again))
    assert open(str(path)).read() == open(str(again)).read()


def test_malformed_rational_names_field(ws_path):
    raw = json.load(open(ws_path))
    raw["objects"]["kummer"]["actions"]["x"][0][2] = "1/0"
    with pytest.raises(WorkspaceError) as err:
        workspace_from_json(raw)
    assert "objects.kummer.actions.x[0]" in str(err.value)


def test_invalid_object_names_path(ws_path):
    raw = json.load(open(ws_path))
    raw["objects"]["kummer"]["basis"][0]["character"] = [5]
    with pytest.raises(WorkspaceError) as err:
        workspace_from_json(raw)
    assert "objects.kummer" in str(err.value)
    assert "equivariance" in str(err.value)


def test_bad_version_rejected(ws_path):
    raw = json.load(open(ws_path))
    raw["format_version"] = 2
    with pytest.raises(WorkspaceError):
        workspace_from_json(raw)


def test_unknown_reference_rejected(ws_path):
    raw = json.load(open(ws_path))
    raw["pairs"]["bad"]["l"] = "missing"
    with pytest.raises(WorkspaceError) as err:
        workspace_from_json(raw)
    assert "missing" in str(err.value)


def test_cocycle_identity_validated_on_load(tmp_path):
    pres = explicit_presentation(1, (-1,),
                                 [("x", (1,)), ("y", (1,)), ("z", (2,))],
                                 {(0, 1): {2: 1}})
    doc = WorkspaceDoc(pres)
    doc.objects["Q2"] = simple_character(pres, (2,))
    path = tmp_path / "ws.json"
    save_workspace(doc, str(path))
    raw = json.load(open(str(path)))
    # a class whose component on z sees the bracket but fails the identity
    raw["ext_classes"] = {"broken": {"target": "Q2", "cocycle": {"z": ["1"]}}}
    with pytest.raises(WorkspaceError) as err:
        workspace_from_json(raw)
    assert str(err.value) == \
        "ext_classes.broken: cocycle identity fails at pair (0, 1)"


def test_lie_hom_failure_on_load_names_smallest_pair(tmp_path):
    # (x, y) fails only through the bracket: neither acts, but [x, y] = z does;
    # (w, v) fails because two acting generators do not commute
    pres = explicit_presentation(1, (-1,),
                                 [("x", (1,)), ("y", (1,)), ("w", (1,)),
                                  ("v", (1,)), ("z", (2,))],
                                 {(0, 1): {4: 1}})
    doc = WorkspaceDoc(pres)
    doc.objects["bad"] = RepObject(pres, ("c2", "c1", "c0"), ((2,), (1,), (0,)), {
        2: Mat.from_rows([[0, 1, 0], [0, 0, 1], [0, 0, 0]]),
        3: Mat.from_rows([[0, 1, 0], [0, 0, 0], [0, 0, 0]]),
        4: Mat.from_rows([[0, 0, 1], [0, 0, 0], [0, 0, 0]])})
    path = tmp_path / "ws.json"
    save_workspace(doc, str(path))
    with pytest.raises(WorkspaceError) as err:
        load_workspace(str(path))
    assert str(err.value) == \
        "objects.bad: object invariant violated: lie-hom: pair (x,y)"
    assert doc.objects["bad"].validate() == ["lie-hom: pair (x,y)"]
    doc.objects["bad"].actions.pop(4)
    assert doc.objects["bad"].validate() == ["lie-hom: pair (w,v)"]


def run_cli(args, ws_path):
    env_backup = os.environ.get("PANACHE_WORKSPACE")
    os.environ["PANACHE_WORKSPACE"] = ws_path
    import io
    from contextlib import redirect_stdout
    buf = io.StringIO()
    try:
        with redirect_stdout(buf):
            rc = main(args)
    finally:
        if env_backup is None:
            os.environ.pop("PANACHE_WORKSPACE", None)
        else:
            os.environ["PANACHE_WORKSPACE"] = env_backup
    out = buf.getvalue()
    return rc, json.loads(out) if out.strip().startswith("{") else out


def test_cli_u(ws_path):
    rc, report = run_cli(["u", "kummer"], ws_path)
    assert rc == 0
    assert report["dim_u"] == 1 and report["large"] is True


def test_cli_u_block_variants(ws_path):
    rc, report = run_cli(["u", "m", "--p", "-4"], ws_path)
    assert rc == 0 and report["dim_u_p"] == 0
    rc, report = run_cli(["u", "m", "--geq", "-4"], ws_path)
    assert rc == 0 and "dim_u_geq" in report


def test_cli_axioms(ws_path):
    rc, report = run_cli(["axioms", "m", "--p", "-2", "--q", "-3"], ws_path)
    assert rc == 0
    assert report["ia2"] is False
    assert report["J1"] == [-4, -2] and report["J2"] == [-2]


def test_cli_ext_quotients(ws_path):
    rc, report = run_cli(["ext", "m", "--p", "-4", "--quotient-by", "up"], ws_path)
    assert rc == 0
    assert report["split"] is False and "certificate" in report


def test_cli_blend_and_equiv(ws_path):
    rc, report = run_cli(["blend", "bad"], ws_path)
    assert rc == 0 and report["compatible"] is False
    rc, report = run_cli(["blend", "good"], ws_path)
    assert rc == 0 and report["compatible"] is True and report["diagram_ok"]
    rc, report = run_cli(["equiv", "good", "good"], ws_path)
    assert rc == 0 and report["status"] == "equivalent"


def test_cli_validate(ws_path):
    rc, report = run_cli(["validate"], ws_path)
    assert rc == 0
    report.pop("timestamp")
    assert report == {"command": "validate", "presentation_ok": True,
                      "objects": {"A": [], "B": [], "C": [], "kummer": [], "m": []},
                      "violations": 0}


def test_cli_validate_jacobi_failure_exits_2(tmp_path, capsys):
    # graded brackets [x, y] = w and [z, w] = u break Jacobi on (x, y, z)
    pres = explicit_presentation(1, (-1,),
                                 [("x", (1,)), ("y", (1,)), ("z", (1,)),
                                  ("w", (2,)), ("u", (3,))],
                                 {(0, 1): {3: 1}, (2, 3): {4: 1}})
    path = tmp_path / "ws.json"
    save_workspace(WorkspaceDoc(pres), str(path))
    rc, out = run_cli(["validate"], str(path))
    assert rc == 2 and out == ""
    assert json.loads(capsys.readouterr().err) == \
        {"error": "presentation: invariant jacobi violated at (0, 1, 2)"}


def test_cli_theorems(ws_path):
    rc, report = run_cli(["theorem1", "m", "--p", "-4"], ws_path)
    assert rc == 0 and report["positive_originates"] is True
    rc, report = run_cli(["theorem2", "m", "--p", "-2", "--q", "-3"], ws_path)
    assert rc == 0   # the axiom fails here, so the theorem does not apply
    assert report["applicable"] is False
    rc, report = run_cli(["theorem3", "m", "--p", "-2"], ws_path)
    assert rc == 0 and report["implication_ok"]


def test_cli_classify(ws_path):
    rc, report = run_cli(["classify-mt", "--n", "4", "--k", "2"], ws_path)
    assert rc == 0
    assert report["case"] == "Rejected" and report["reason"] == "n = 2k"
    rc, report = run_cli(["classify-mt", "--n", "4", "--k", "1", "--r", "2"], ws_path)
    assert rc == 0 and report["case"] == "I"
    assert report["attached_unique"] == "unique"
    assert report["representative"]["galois_dim"] == 4


def test_cli_search(ws_path):
    rc, report = run_cli(["search-counterexample", "--pattern", "0,-2,-4",
                          "--seeds", "0..120"], ws_path)
    assert rc == 1   # found counts as a property violation exit
    assert report["found"] is True and report["certificate_ok"] is True


def test_cli_corpus_run(ws_path):
    rc, report = run_cli(["corpus", "run", "--suite", "up-kernel",
                          "--count", "5"], ws_path)
    assert rc == 0 and report["ok"] is True


def test_cli_reports_deterministic(ws_path):
    rc1, rep1 = run_cli(["u", "kummer"], ws_path)
    rc2, rep2 = run_cli(["u", "kummer"], ws_path)
    rep1.pop("timestamp"), rep2.pop("timestamp")
    assert rep1 == rep2


def test_cli_save_report_appends(ws_path):
    rc, _ = run_cli(["--save-report", "u", "kummer"], ws_path)
    assert rc == 0
    doc = load_workspace(ws_path)
    assert len(doc.reports) == 1
    assert doc.reports[0]["command"] == "u"


def test_cli_usage_errors(ws_path):
    import panache
    # the child must import the same panache without relying on the caller's
    # PYTHONPATH (pytest's ``pythonpath`` setting reaches only its own process)
    src = os.path.dirname(os.path.dirname(panache.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "panache.cli", "bogus"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 2
    rc, _ = run_cli(["u", "nonexistent"], ws_path)
    assert rc == 2


def test_cli_text_format(ws_path):
    rc, out = run_cli(["--format", "text", "u", "kummer"], ws_path)
    assert rc == 0
    assert "dim_u: 1" in out


def test_schemas_ship_with_package():
    import panache
    base = os.path.join(os.path.dirname(panache.__file__), "schema")
    names = sorted(os.listdir(base))
    assert "workspace.schema.json" in names
    for name in names:
        with open(os.path.join(base, name)) as fh:
            json.load(fh)


def test_cli_report_periods(ws_path):
    rc, report = run_cli(["report-periods", "--n", "4", "--k", "1", "--r", "2"],
                         ws_path)
    assert rc == 0
    assert report["galois_dimension"] == 4
    assert "matrix_text" in report
    rc, report = run_cli(["report-periods", "--four-dim", "--r", "2"], ws_path)
    assert rc == 0
    assert report["galois_dimension"] == 7 and report["dim_u"] == 6


def test_cli_search_options(ws_path):
    rc, report = run_cli(["search-counterexample", "--pattern", "0,-2,-6,-14",
                          "--seeds", "0..20", "--degrees", "1,2,3,4,6,7"], ws_path)
    assert rc == 0 and report["found"] is False
    rc, report = run_cli(["search-counterexample", "--pattern", "0,-2,-4",
                          "--seeds", "0..60", "--all"], ws_path)
    assert rc == 1 and report["found"] is True
    assert report["log"]["found_count"] >= 1


def test_cli_ext_quotient_by_file(ws_path, tmp_path):
    # quotient the cut class of the kummer object by its full 1-dim target
    span = tmp_path / "span.json"
    span.write_text(json.dumps([["1"]]))
    rc, report = run_cli(["ext", "kummer", "--p", "-2",
                          "--quotient-by", str(span)], ws_path)
    assert rc == 0
    assert report["split"] is True and report["target_dim"] == 0


def test_cli_ext_quotient_by_file_in_end_coordinates(ws_path, tmp_path):
    # the same target, given as End(M) index 0*2+1
    span = tmp_path / "span.json"
    span.write_text(json.dumps([["0", "1", "0", "0"]]))
    rc, report = run_cli(["ext", "kummer", "--p", "-2",
                          "--quotient-by", str(span)], ws_path)
    assert rc == 0
    assert report["split"] is True and report["target_dim"] == 0


@pytest.mark.parametrize("obj,p,content", [
    ("kummer", "-2", None),                       # missing file
    ("kummer", "-2", "[1,"),                      # invalid JSON
    ("kummer", "-2", "{}"),
    ("kummer", "-2", "[]"),
    ("kummer", "-2", '"1"'),
    ("kummer", "-2", '["1"]'),
    ("kummer", "-2", '[["1"], ["1", "0"]]'),
    ("kummer", "-2", "[[1, 2]]"),
    ("kummer", "-2", "[[1]]"),
    ("kummer", "-2", '[["x"]]'),
    ("kummer", "-2", '[["1/0"]]'),
    ("kummer", "-2", '[["1", "0"]]'),             # neither dim 1 nor 2^2
    ("kummer", "-2", '[["1", "0", "0", "0"]]'),   # End index 0 is off the block
    ("m", "-4", '[["1", "1"]]'),                  # characters (1,) and (2,)
    ("m", "-4", '[["1", "0"]]'),                  # x sends it to the other line
])
def test_cli_ext_quotient_by_rejects_bad_file(ws_path, tmp_path, obj, p, content, capsys):
    span = tmp_path / "span.json"
    if content is not None:
        span.write_text(content)
    rc, out = run_cli(["ext", obj, "--p", p, "--quotient-by", str(span)], ws_path)
    assert rc == 2 and out == ""
    assert "ext.--quotient-by" in capsys.readouterr().err


def test_cli_missing_workspace(tmp_path):
    rc, _ = run_cli(["u", "kummer"], str(tmp_path / "nope.json"))
    assert rc == 2


def test_cli_u_flag_conflict(ws_path):
    rc, _ = run_cli(["u", "m", "--p", "-2", "--geq", "-2"], ws_path)
    assert rc == 2


def test_fixtures_validate_against_schemas():
    """The shipped schemas accept the shipped documents (and reject a
    malformed rational)."""
    jsonschema = pytest.importorskip("jsonschema")
    import panache
    base = os.path.join(os.path.dirname(panache.__file__), "schema")

    def load_schema(name):
        with open(os.path.join(base, name)) as fh:
            return json.load(fh)

    registry = {}
    for name in os.listdir(base):
        schema = load_schema(name)
        registry[schema["$id"]] = schema

    from jsonschema import Draft202012Validator
    from referencing import Registry, Resource
    reg = Registry().with_resources(
        (uri, Resource.from_contents(doc)) for uri, doc in registry.items())
    validator = Draft202012Validator(registry["panache/workspace.schema.json"],
                                     registry=reg)

    fixtures = os.path.join(os.path.dirname(__file__), "fixtures")
    for fname in sorted(os.listdir(fixtures)):
        with open(os.path.join(fixtures, fname)) as fh:
            doc = json.load(fh)
        errors = list(validator.iter_errors(doc))
        assert not errors, (fname, errors[:1])

    with open(os.path.join(fixtures, "demo-workspace.json")) as fh:
        bad = json.load(fh)
    bad["objects"]["kummer"]["actions"]["x"][0][2] = "1/0"
    assert list(validator.iter_errors(bad))


@pytest.mark.parametrize("seeds", ["5..1", "3..3", "0-5", "a..b"])
def test_cli_search_rejects_vacuous_or_malformed_seeds(ws_path, seeds, capsys):
    rc, out = run_cli(["search-counterexample", "--pattern", "0,-2,-4",
                       "--seeds", seeds], ws_path)
    assert rc == 2 and out == ""
    assert "search-counterexample.--seeds" in capsys.readouterr().err


@pytest.mark.parametrize("count", ["0", "-3"])
def test_cli_corpus_run_rejects_nonpositive_count(ws_path, count, capsys):
    rc, out = run_cli(["--seed", "0", "corpus", "run", "--suite", "total-split",
                       "--count", count], ws_path)
    assert rc == 2 and out == ""
    assert "corpus.run.--count" in capsys.readouterr().err


@pytest.mark.parametrize("option,value", [
    ("--pattern", "0"), ("--pattern", "-2,-2"), ("--pattern", "0,,-4"),
    ("--pattern", "0,-3"), ("--pattern", "a,b"),
    ("--degrees", "1,x"), ("--degrees", "0,1"), ("--degrees", "1,-2"),
])
def test_cli_search_rejects_vacuous_or_malformed_pattern(ws_path, option, value, capsys):
    args = {"--pattern": "0,-2,-4", "--seeds": "0..2", option: value}
    rc, out = run_cli(["search-counterexample"] +
                      [f"{k}={v}" for k, v in args.items()], ws_path)
    assert rc == 2 and out == ""
    assert f"search-counterexample.{option}" in capsys.readouterr().err
