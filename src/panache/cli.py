"""Command-line driver.

Every subcommand prints a JSON report on standard output (or aligned text
with --format text) and uses the exit-code convention: 0 success, 1 at least
one property violation found, 2 usage error.  All randomness flows from an
explicit --seed, default 0.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from .axioms import check_axioms
from .blends import (blend, counterexample_search, is_large_u, is_large_u_p,
                     pair_equivalent, theorem3_verify, verify_certificate)
from .cohomology import (e_p_class, is_split, originates_from, quotient_class,
                         transport_to_target)
from .corpus import sample_stable_subspace
from .galois import galois_dim, u_geq_of, u_of, u_p_of
from .linalg import format_rat, parse_rat, rref_basis
from .mixed_tate import (build_four_dim_example, build_mt_model, classification_unique,
                         classify_three_dim, period_matrix_report)
from .objects import direct_sum, gr_object, weight_filtration, weight_quotient
from .suites import SUITES, run_suite
from .workspace import (WorkspaceDoc, WorkspaceError, default_workspace_path,
                        load_workspace, save_workspace)

USAGE_EXIT = 2
VIOLATION_EXIT = 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="panache",
        description="exact calculator for graded unipotent representation "
                    "categories and their extension classes")
    parser.add_argument("--workspace", default=None,
                        help="workspace JSON path (default: $PANACHE_WORKSPACE "
                             "or ./panache-workspace.json)")
    parser.add_argument("--format", choices=("json", "text"), default="json")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--save-report", action="store_true",
                        help="append the report to the workspace report log")
    sub = parser.add_subparsers(dest="command")

    sub.add_parser("validate", help="validate the presentation and all objects")

    p_u = sub.add_parser("u", help="kernel dimensions of an object")
    p_u.add_argument("object")
    p_u.add_argument("--p", type=int, default=None)
    p_u.add_argument("--geq", type=int, default=None)

    p_ax = sub.add_parser("axioms", help="independence axiom report at a cut")
    p_ax.add_argument("object")
    p_ax.add_argument("--p", type=int, required=True)
    p_ax.add_argument("--q", type=int, required=True)

    p_ext = sub.add_parser("ext", help="filtration class at a cut")
    p_ext.add_argument("object")
    p_ext.add_argument("--p", type=int, required=True)
    p_ext.add_argument("--quotient-by", default=None,
                       help="'u', 'up', or a JSON file with spanning vectors")

    p_or = sub.add_parser("originates", help="origination test for a stored class")
    p_or.add_argument("ext_class")
    p_or.add_argument("--from", dest="from_object", required=True)

    p_blend = sub.add_parser("blend", help="blend a stored pair")
    p_blend.add_argument("pair")

    p_eq = sub.add_parser("equiv", help="pair equivalence")
    p_eq.add_argument("pair1")
    p_eq.add_argument("pair2")

    for name in ("theorem1", "theorem2", "theorem3"):
        p_t = sub.add_parser(name, help=f"{name} verification report")
        p_t.add_argument("object")
        p_t.add_argument("--p", type=int, required=True)
        if name == "theorem2":
            p_t.add_argument("--q", type=int, required=True)
        if name == "theorem1":
            p_t.add_argument("--samples", type=int, default=5)

    p_cl = sub.add_parser("classify-mt", help="three-step classification")
    p_cl.add_argument("--n", type=int, required=True)
    p_cl.add_argument("--k", type=int, required=True)
    p_cl.add_argument("--r", default=None)
    p_cl.add_argument("--max-twist", type=int, default=None)
    p_cl.add_argument("--kummer-rank", type=int, default=None)
    p_cl.add_argument("--out", default=None)

    p_per = sub.add_parser("report-periods", help="symbolic period matrix")
    p_per.add_argument("--n", type=int, default=None)
    p_per.add_argument("--k", type=int, default=None)
    p_per.add_argument("--r", default=None)
    p_per.add_argument("--four-dim", action="store_true")
    p_per.add_argument("--out", default=None)

    p_se = sub.add_parser("search-counterexample",
                          help="look for a nonsplit quotient class under axiom failure")
    p_se.add_argument("--pattern", required=True,
                      help="comma-separated weights, e.g. '0,-2,-4'")
    p_se.add_argument("--seeds", required=True, help="range A..B")
    p_se.add_argument("--degrees", default=None,
                      help="comma-separated generator degrees (default '1,1')")
    p_se.add_argument("--all", action="store_true",
                      help="scan the whole range instead of stopping at the first hit")

    p_co = sub.add_parser("corpus", help="property suites over random instances")
    co_sub = p_co.add_subparsers(dest="corpus_command")
    p_run = co_sub.add_parser("run")
    p_run.add_argument("--suite", required=True, choices=sorted(SUITES))
    p_run.add_argument("--count", type=int, default=None)

    return parser


def _emit(report: dict, args, doc: WorkspaceDoc | None = None) -> None:
    report = {"command": report.get("command", args.command),
              "timestamp": int(time.time()), **report}
    if args.save_report and doc is not None and args.workspace_path is not None:
        doc.reports.append(report)
        save_workspace(doc, args.workspace_path)
    if args.format == "json":
        print(json.dumps(report, indent=2, sort_keys=True, default=str))
    else:
        _print_text(report)


def _print_text(report: dict, indent: int = 0) -> None:
    pad = "  " * indent
    for key in sorted(report):
        value = report[key]
        if isinstance(value, dict):
            print(f"{pad}{key}:")
            _print_text(value, indent + 1)
        elif isinstance(value, list) and value and isinstance(value[0], (dict, list)):
            print(f"{pad}{key}: {json.dumps(value, default=str)}")
        else:
            print(f"{pad}{key}: {value}")


def _load(args) -> WorkspaceDoc:
    path = args.workspace or default_workspace_path()
    args.workspace_path = path
    return load_workspace(path)


def _split_report(verdict) -> dict:
    out = {"split": verdict.split}
    if verdict.split:
        out["witness"] = [format_rat(x) for x in verdict.witness]
    elif verdict.certificate is not None:
        out["certificate"] = [format_rat(x) for x in verdict.certificate]
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args.workspace_path = args.workspace or default_workspace_path()
    if args.command is None:
        parser.print_usage(sys.stderr)
        return USAGE_EXIT
    try:
        return _dispatch(args)
    except WorkspaceError as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return USAGE_EXIT
    except (ValueError, KeyError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return USAGE_EXIT


def _dispatch(args) -> int:
    cmd = args.command

    if cmd == "validate":
        # loading checks every invariant and exits 2 with a field path on the
        # first failure, so a loaded workspace has no violations to report
        doc = _load(args)
        _emit({"presentation_ok": True, "objects": {name: [] for name in sorted(doc.objects)},
               "violations": 0}, args, doc)
        return 0

    if cmd == "u":
        doc = _load(args)
        m = doc.object(args.object)
        if args.p is not None and args.geq is not None:
            raise WorkspaceError("u", "--p and --geq are mutually exclusive")
        if args.p is not None:
            sub = u_p_of(m, args.p)
            report = {"dim_u_p": sub.dim, "p": args.p,
                      "large": is_large_u_p(m, args.p)}
        elif args.geq is not None:
            sub = u_geq_of(m, args.geq)
            report = {"dim_u_geq": sub.dim, "q": args.geq}
        else:
            report = {"dim_u": u_of(m).dim, "large": is_large_u(m),
                      "galois_dim": galois_dim(m)}
        _emit(report, args, doc)
        return 0

    if cmd == "axioms":
        doc = _load(args)
        m = doc.object(args.object)
        _emit(check_axioms(m, args.p, args.q).as_dict(), args, doc)
        return 0

    if cmd == "ext":
        doc = _load(args)
        m = doc.object(args.object)
        e = e_p_class(m, args.p)
        if args.quotient_by == "u":
            e = quotient_class(e, u_of(m))
        elif args.quotient_by == "up":
            e = quotient_class(e, u_p_of(m, args.p))
        elif args.quotient_by is not None:
            e = _quotient_by_file(e, m, args.quotient_by)
        verdict = is_split(e)
        report = {"p": args.p, "target_dim": e.target.dim,
                  "class_zero": e.is_zero_class(), **_split_report(verdict)}
        _emit(report, args, doc)
        return 0

    if cmd == "originates":
        doc = _load(args)
        e = doc.ext_class(args.ext_class)
        s = doc.object(args.from_object)
        verdict = originates_from(e, s)
        report = {"originates": verdict.holds}
        if verdict.witness is not None:
            report["witness"] = [format_rat(x) for x in verdict.witness]
        _emit(report, args, doc)
        return 0

    if cmd == "blend":
        doc = _load(args)
        pair = doc.pair(args.pair)
        res = blend(pair)
        if res.ok:
            diagram_ok = res.diagram.validate() == []
            report = {"compatible": True, "diagram_ok": diagram_ok,
                      "middle_dim": res.diagram.m.dim,
                      "middle_large_u": is_large_u(res.diagram.m)}
            _emit(report, args, doc)
            return 0 if diagram_ok else VIOLATION_EXIT
        report = {"compatible": False,
                  "obstruction_pairs": [list(k) for k in res.obstruction.comps],
                  "certificate": [format_rat(x) for x in res.certificate or []]}
        _emit(report, args, doc)
        return 0

    if cmd == "equiv":
        doc = _load(args)
        res = pair_equivalent(doc.pair(args.pair1), doc.pair(args.pair2))
        _emit({"status": res.status, "reason": res.reason}, args, doc)
        return 0

    if cmd == "theorem1":
        doc = _load(args)
        m = doc.object(args.object)
        report = _theorem1_report(m, args.p, args.samples, args.seed)
        _emit(report, args, doc)
        return 0 if report["ok"] else VIOLATION_EXIT

    if cmd == "theorem2":
        doc = _load(args)
        m = doc.object(args.object)
        report = _theorem2_report(m, args.p, args.q)
        _emit(report, args, doc)
        return 0 if report["ok"] else VIOLATION_EXIT

    if cmd == "theorem3":
        doc = _load(args)
        m = doc.object(args.object)
        rep = theorem3_verify(m, args.p)
        report = rep.as_dict()
        report["ok"] = rep.implication_ok and rep.converse_ok
        _emit(report, args, doc)
        return 0 if report["ok"] else VIOLATION_EXIT

    if cmd == "classify-mt":
        model = None
        if args.max_twist is not None:
            model = build_mt_model(args.max_twist, args.kummer_rank or 1)
        r = parse_rat(args.r) if args.r is not None else None
        result = classify_three_dim(args.n, args.k, r, model=model)
        report = result.as_dict()
        if result.case != "Rejected":
            rep = result.representative
            report["blend_ok"] = result.blend_result.ok
            if rep is not None:
                report["representative"] = {
                    "dim": rep.dim, "large_u": is_large_u(rep),
                    "dim_u": u_of(rep).dim, "galois_dim": galois_dim(rep)}
            uq = classification_unique(result)
            report["attached_unique"] = uq.status
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                json.dump(report, fh, indent=2, sort_keys=True, default=str)
        _emit(report, args)
        return 0

    if cmd == "report-periods":
        if args.four_dim:
            rep = build_four_dim_example(parse_rat(args.r) if args.r else 2)
            report = rep.as_dict()
            report["matrix_text"] = rep.period.matrix.render_text()
        else:
            if args.n is None or args.k is None:
                raise WorkspaceError("report-periods", "need --n and --k (or --four-dim)")
            result = classify_three_dim(args.n, args.k,
                                        parse_rat(args.r) if args.r else None)
            if result.case == "Rejected":
                raise WorkspaceError("report-periods", f"rejected: {result.reason}")
            pr = period_matrix_report(result)
            report = pr.as_dict()
            report["case"] = result.case
            report["matrix_text"] = pr.matrix.render_text()
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                json.dump(report, fh, indent=2, sort_keys=True, default=str)
        _emit(report, args)
        return 0

    if cmd == "search-counterexample":
        weights, degrees = _search_pattern(args.pattern, args.degrees)
        seeds = _seed_range(args.seeds)
        outcome = counterexample_search(weights, seeds,
                                        degrees=degrees,
                                        stop_at_first=not args.all)
        report = {"found": outcome.found, "log": outcome.log}
        if outcome.found:
            report.update({"seed": outcome.seed, "p": outcome.p,
                           "object": outcome.object_spec,
                           "certificate_ok": verify_certificate(outcome.system,
                                                                outcome.certificate)})
        _emit(report, args)
        return VIOLATION_EXIT if outcome.found else 0

    if cmd == "corpus":
        if args.corpus_command != "run":
            raise WorkspaceError("corpus", "expected: corpus run --suite NAME")
        if args.count is not None and args.count <= 0:
            raise WorkspaceError("corpus.run.--count",
                                 f"must be positive, got {args.count}")
        res = run_suite(args.suite, count=args.count, seed=args.seed)
        _emit(res.as_dict(), args)
        return 0 if res.ok else VIOLATION_EXIT

    raise WorkspaceError(cmd or "<none>", "unknown subcommand")


def _seed_range(text: str) -> range:
    """Parse a non-empty seed range A..B (B exclusive)."""
    field_path = "search-counterexample.--seeds"
    try:
        lo, hi = (int(x) for x in text.split(".."))
    except ValueError:
        raise WorkspaceError(field_path, f"expected A..B with integers, got {text!r}")
    if hi <= lo:
        raise WorkspaceError(field_path, f"empty range {text!r}: need A < B")
    return range(lo, hi)


def _search_pattern(pattern: str, degrees: str | None) -> tuple[list[int], list[int] | None]:
    """Parse --pattern and --degrees of a search.  A pattern needs two
    distinct even weights, or no object has a filtration cut to test;
    degrees must be positive, so that every generator weighs < 0."""
    def ints(option: str, text: str) -> list[int]:
        try:
            return [int(x) for x in text.split(",")]
        except ValueError:
            raise WorkspaceError(f"search-counterexample.{option}",
                                 f"expected comma-separated integers, got {text!r}")

    weights = ints("--pattern", pattern)
    if len(set(weights)) < 2 or any(w % 2 for w in weights):
        raise WorkspaceError("search-counterexample.--pattern",
                             f"need two or more distinct even weights, got {pattern!r}")
    gen_degrees = ints("--degrees", degrees) if degrees else None
    if gen_degrees and min(gen_degrees) < 1:
        raise WorkspaceError("search-counterexample.--degrees",
                             f"degrees must be positive, got {degrees!r}")
    return weights, gen_degrees


def _quotient_by_file(e, m, path: str):
    """Quotient a cut class by the span in the --quotient-by file of ext: a
    non-empty JSON list of equal-length rows of rational strings, in the
    class target's coordinates or in End(M)'s."""
    field_path = "ext.--quotient-by"
    try:
        with open(path, "r", encoding="utf-8") as fh:
            rows = json.load(fh)
    except (OSError, ValueError) as exc:
        raise WorkspaceError(field_path, f"cannot read {path!r}: {exc}")
    if not isinstance(rows, list) or not rows:
        raise WorkspaceError(field_path, "expected a non-empty list of rows")
    if not all(isinstance(row, list) for row in rows) or len({len(row) for row in rows}) != 1:
        raise WorkspaceError(field_path, "expected rows that are lists of equal length")
    if not all(isinstance(x, str) for row in rows for x in row):
        raise WorkspaceError(field_path, "entries must be rational strings")
    try:
        vectors = [[parse_rat(x) for x in row] for row in rows]
    except ValueError as exc:
        raise WorkspaceError(field_path, f"entries must be rational strings: {exc}")
    n = len(rows[0])
    if n not in (e.target.dim, m.dim * m.dim):
        raise WorkspaceError(field_path,
                             f"rows have length {n}; expected the class target's "
                             f"dimension {e.target.dim} or dim(M)^2 = {m.dim * m.dim}")
    try:
        return quotient_class(e, rref_basis(vectors, n))
    except ValueError as exc:
        raise WorkspaceError(field_path, str(exc))


def _theorem1_report(m, p: int, samples: int, seed: int) -> dict:
    """Positive and sampled-negative origination at a single cut."""
    e = e_p_class(m, p)
    up = u_p_of(m, p)
    s = direct_sum(weight_filtration(m, p).source, weight_quotient(m, p).target)
    positive = originates_from(quotient_class(e, up), s).holds
    negatives = []
    if up.dim > 0:
        up_t = transport_to_target(e, up.space)
        for k in range(samples):
            a = sample_stable_subspace(e.target, e.target, seed=seed * 101 + k,
                                       avoid=up_t)
            if a is None:
                continue
            negatives.append(not originates_from(quotient_class(e, a), s).holds)
    ok = positive and all(negatives)
    return {"p": p, "positive_originates": positive,
            "negative_samples": len(negatives),
            "negative_all_fail": all(negatives) if negatives else None, "ok": ok}


def _theorem2_report(m, p: int, q: int) -> dict:
    """Origination from the q-step subcategory under the weight axiom."""
    rep = check_axioms(m, p, q)
    e = e_p_class(m, p)
    s = direct_sum(weight_filtration(m, q).source, gr_object(m))
    verdict = originates_from(quotient_class(e, u_p_of(m, p)), s)
    applicable = rep.ia2 or rep.ia1
    ok = (not applicable) or verdict.holds
    return {"p": p, "q": q, "ia1": rep.ia1, "ia2": rep.ia2,
            "originates": verdict.holds, "applicable": applicable, "ok": ok}


if __name__ == "__main__":
    sys.exit(main())
