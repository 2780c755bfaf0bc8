"""The four closed-loop workloads of the panache benchmark.

Each workload is one user who waits for every answer before sending the
next request.  ``setup(seed)`` generates the inputs from the seed alone, and
they fix the workload's job; ``run_round(r, rec)`` performs round ``r``, one
pass of that same job, and records every operation with its latency;
``after_round`` checks the round's answers outside the timed region.  Every
round of a run repeats identical work, so only the seed varies the inputs.
Checks never need a stored value for the seed, so a held-out seed is
checked as strictly as the development one.  The program only ever sees the
generated inputs.
"""

from __future__ import annotations

import io
import json
import os
import random
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter

from panache import (blends, cli, cohomology, corpus, galois, mixed_tate,
                     objects, presentations, suites, workspace)
from panache.axioms import check_axioms
from panache.linalg import format_rat


def _canon(value):
    """JSON-normal form, so a CLI report and a library result compare equal."""
    return json.loads(json.dumps(value, sort_keys=True, default=str))


class Recorder:
    """Every operation of one run: how many ops, how long, and whether the
    answer passed its check."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.ops: list[list] = []      # [round, n_ops, seconds, ok]
        self.outputs: list = []        # deterministic answer per record
        self.verdicts = 0              # pair_equivalent / is_isomorphic verdicts
        self.undecided = 0
        self.errors: list[str] = []

    def begin(self) -> None:
        if self.tracer is not None:
            self.tracer.begin_op()

    def add(self, rnd: int, n: int, seconds: float, ok: bool, output) -> int:
        self.ops.append([rnd, n, seconds, bool(ok)])
        self.outputs.append(output)
        return len(self.ops) - 1

    def fail(self, index: int, why: str) -> None:
        self.ops[index][3] = False
        self.errors.append(why)

    def error(self, rnd: int, what: str, exc: BaseException) -> None:
        self.add(rnd, 1, 0.0, False, {"error": what})
        self.errors.append(f"{what}: {type(exc).__name__}: {exc}")


class Workload:
    def reset(self) -> None:
        """Restore the inputs before a round (untimed)."""

    def after_round(self, r: int, rec: Recorder) -> None:
        """Check the round's answers (untimed, tracing paused)."""


# ---------------------------------------------------------------------------
# suites: corpus property suites of criteria 01-08


# (suite, count): the counts of acceptance criteria 01-08
SUITE_PLAN = (("total-split", 200), ("minimality", 200), ("origination", 100),
              ("ia-splitting", 100), ("theorem-origination", 100),
              ("primed-origination", 50), ("up-kernel", 100),
              ("gr-decomposition", 100), ("yoneda-blend", 100))


def suite_shape_ok(name: str, count: int, res) -> bool:
    """The acceptance criterion's count conditions."""
    notes = res.notes
    if not res.ok:
        return False
    if name in ("total-split", "primed-origination", "gr-decomposition",
                "yoneda-blend"):
        return res.total == count
    if name == "minimality":
        inst = notes["instances_with_kernel"]
        return inst > 0 and res.total == notes["samples_per"] * inst
    if name == "origination":
        inst = notes["instances_with_kernel"]
        short = notes["instances_short_of_five"]
        return (res.total >= count and inst > 0
                and notes["negative_samples"] >= 5 * (inst - short) + short)
    if name == "up-kernel":
        return res.total >= count
    return True


class Suites(Workload):
    """One operation is one recorded verdict; its latency runs from the
    previous verdict (or the suite call) to this one."""

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.stamps: list[tuple[float, bool]] = []
        self.rec: Recorder | None = None
        original = suites.SuiteResult.record

        def record(res, ok, **info):
            # timestamp each verdict as the suite records it
            original(res, ok, **info)
            self.stamps.append((perf_counter(), bool(ok)))
            if self.rec is not None:
                self.rec.begin()

        suites.SuiteResult.record = record

    def run_round(self, r: int, rec: Recorder) -> None:
        self.rec = rec
        seed = self.seed * 100_000
        for name, count in SUITE_PLAN:
            self.stamps.clear()
            rec.begin()
            t0 = perf_counter()
            try:
                res = suites.run_suite(name, count=count, seed=seed)
            except Exception as exc:  # a crash is a failed operation
                rec.error(r, f"{name} seed {seed}", exc)
                continue
            shape_ok = suite_shape_ok(name, count, res)
            prev = t0
            for k, (t, ok) in enumerate(self.stamps):
                rec.add(r, 1, t - prev, ok and shape_ok,
                        [name, seed, k, ok])
                prev = t
            if not self.stamps:
                rec.add(r, 1, perf_counter() - t0, False, [name, seed, "empty"])
            if not shape_ok:
                rec.errors.append(f"{name} seed {seed}: {res.as_dict()}")


# ---------------------------------------------------------------------------
# calibration: criterion 09


class Calibration(Workload):
    """build_mt_model(9, 4) and the H1/H2 table of every twist 1..9.  One
    operation is one basis element; they arrive as one batch, so each op's
    latency is the batch time over the element count."""

    TABLE = {1: 4, 2: 0, 3: 1, 4: 0, 5: 1, 6: 0, 7: 1, 8: 0, 9: 1}
    BASIS = 46_571

    def setup(self, seed: int) -> None:
        self.order = sorted(self.TABLE)
        random.Random(seed).shuffle(self.order)

    def run_round(self, r: int, rec: Recorder) -> None:
        rec.begin()
        t0 = perf_counter()
        try:
            model = mixed_tate.build_mt_model(9, 4)
            dims = {}
            for n in self.order:
                x = objects.simple_character(model, (n,))
                dims[n] = (len(cohomology.h1_basis(x)), len(cohomology.h2_basis(x)))
        except Exception as exc:
            rec.error(r, "calibration", exc)
            return
        dt = perf_counter() - t0
        ok = (model.n_gens == self.BASIS
              and all(dims[n] == (h1, 0) for n, h1 in self.TABLE.items()))
        if not ok:
            rec.errors.append(f"calibration: n_gens={model.n_gens} table={dims}")
        rec.add(r, max(model.n_gens, 1), dt, ok,
                [model.n_gens, sorted(dims.items())])


# ---------------------------------------------------------------------------
# search: criterion 15


class Search(Workload):
    """counterexample_search for [0,-2,-4], one call per seed over the run
    seed's contiguous block, with the certificate of every hit re-verified,
    as the search-counterexample command does.  Every fourth seed also runs the
    spaced pattern, which must never be found.  One operation is one seed."""

    MAIN = [0, -2, -4]
    SPACED = [0, -2, -6, -14]
    SPACED_DEGREES = [1, 2, 3, 4, 6, 7]
    BLOCK = 400
    SPACED_EVERY = 4

    def setup(self, seed: int) -> None:
        self.lo = seed * 1_000_000
        self.block: tuple = ()
        self.whole = None

    def run_round(self, r: int, rec: Recorder) -> None:
        lo = self.lo
        found = checked = 0
        main_ops = []
        for s in range(lo, lo + self.BLOCK):
            rec.begin()
            t0 = perf_counter()
            try:
                out = blends.counterexample_search(self.MAIN, range(s, s + 1),
                                                   stop_at_first=False)
                cert = (blends.verify_certificate(out.system, out.certificate)
                        if out.found else None)
            except Exception as exc:
                rec.error(r, f"search seed {s}", exc)
                continue
            dt = perf_counter() - t0
            found += out.log.get("found_count", 0)
            checked += out.log.get("checked", 0)
            if cert is False:
                rec.errors.append(f"search seed {s}: certificate rejected")
            main_ops.append(rec.add(r, 1, dt, cert is not False,
                                    ["main", s, out.found, out.p, cert]))
            if (s - lo) % self.SPACED_EVERY:
                continue
            rec.begin()
            t0 = perf_counter()
            try:
                sp = blends.counterexample_search(self.SPACED, range(s, s + 1),
                                                  degrees=self.SPACED_DEGREES)
            except Exception as exc:
                rec.error(r, f"spaced seed {s}", exc)
                continue
            dt = perf_counter() - t0
            if sp.found:
                rec.errors.append(f"spaced seed {s}: pattern found")
            rec.add(r, 1, dt, not sp.found, ["spaced", s, sp.found])
        self.block = (found, checked, main_ops)

    def after_round(self, r: int, rec: Recorder) -> None:
        """Per-seed found counts must add up to one whole-block call (made
        once: every round searches the same block)."""
        found, checked, main_ops = self.block
        lo = self.lo
        if self.whole is None:
            self.whole = blends.counterexample_search(
                self.MAIN, range(lo, lo + self.BLOCK), stop_at_first=False)
        whole = self.whole
        if (whole.log.get("found_count", 0), whole.log.get("checked", 0)) != \
                (found, checked):
            for i in main_ops:
                rec.fail(i, f"search block {lo}: per-seed {found}/{checked} != "
                            f"whole {whole.log}")


# ---------------------------------------------------------------------------
# cli-session: panache commands against a generated workspace


class CliSession(Workload):
    """A fixed session of in-process panache commands on a workspace of
    ia3-chain corpus objects plus compatible pairs, reset before every
    round.  One operation is one command; every command reloads and
    revalidates the workspace, as a user's shell invocation would."""

    N_OBJECTS = 40
    RECIPE = "ia3-chain"
    CLASSIFY = (("4", "1", "2"), ("6", "3", None), ("6", "5", "2"))

    def __init__(self, workspace_path: str):
        self.path = workspace_path

    def setup(self, seed: int) -> None:
        rng = random.Random(seed)
        pres = corpus.recipe_presentation(self.RECIPE)
        doc = workspace.WorkspaceDoc(pres)
        names = []
        for k in range(self.N_OBJECTS):
            name = f"m{k}"
            doc.objects[name] = corpus.corpus_instance(self.RECIPE, seed * 1000 + k).m
            names.append(name)
        self._add_pairs(doc, rng)
        self.doc = doc
        self.text = json.dumps(workspace.workspace_to_json(doc), indent=2,
                               sort_keys=True) + "\n"
        self.commands = self._session(rng, names)
        self.expected: dict[tuple, tuple] = {}

    def _add_pairs(self, doc, rng) -> None:
        """Pairs R* repeat a character in the middle object, so
        pair_equivalent takes its seeded random path; pairs F* are
        multiplicity-free and decided exactly."""
        pres = doc.presentation
        deg1 = pres.gens_of_degree((1,))[0]
        deg2 = pres.gens_of_degree((2,))[0]
        one = objects.simple_character(pres, (1,))
        doc.objects["B"] = objects.simple_character(pres, (3,))
        doc.objects["A1"] = one
        doc.objects["A2"] = objects.direct_sum(one, one)
        doc.objects["C"] = objects.unit_object(pres)

        def coeff():
            return rng.choice([-3, -2, -1, 1, 2, 3])

        for tag, a_name in (("R", "A2"), ("F", "A1")):
            a = doc.objects[a_name]
            for k in range(2):
                l_name, n_name = f"L{tag}{k}", f"N{tag}{k}"
                doc.ext_classes[l_name] = cohomology.ext1_class(
                    a, doc.objects["B"], {deg2: [coeff() for _ in range(a.dim)]})
                doc.ext_classes[n_name] = cohomology.ext1_class(
                    doc.objects["C"], a, {deg1: [coeff() for _ in range(a.dim)]})
                doc.pairs[f"{tag}{k}"] = workspace.PairRef("B", a_name, "C",
                                                           l_name, n_name)

    def _session(self, rng, names) -> list[list[str]]:
        """One command of each kind (two seeded equiv calls on a repeated
        character), objects and cuts drawn from the seed, in seeded order."""
        doc = self.doc

        def obj():
            name = rng.choice(names)
            return name, doc.objects[name].weights()

        def classify():
            n, k, r = rng.choice(self.CLASSIFY)
            return ["--n", n, "--k", k] + (["--r", r] if r else [])

        cmds: list[list[str]] = [["validate"]]
        name, ws = obj()
        cmds.append(["u", name])
        name, ws = obj()
        cmds.append(["u", name, "--p", str(rng.choice(ws[:-1]))])
        name, ws = obj()
        cmds.append(["axioms", name, "--p", str(rng.choice(ws[:-1])), "--q",
                     str(rng.randint(ws[0] - 1, ws[-1]))])
        name, ws = obj()
        cmds.append(["ext", name, "--p", str(rng.choice(ws[:-1])),
                     "--quotient-by", "up"])
        name, ws = obj()
        cmds.append(["theorem1", name, "--p", str(rng.choice(ws[:-1]))])
        name, ws = obj()
        p = rng.choice(ws[:-1])
        cmds.append(["theorem2", name, "--p", str(p), "--q",
                     str(rng.randint(ws[0] - 1, p))])
        name, ws = obj()
        cmds.append(["theorem3", name, "--p", str(ws[-2])])
        cmds += [["blend", "R0"], ["blend", "F1"]]
        for _ in range(2):
            cmds.append(["--seed", str(rng.randrange(1000)), "equiv", "R0", "R1"])
        cmds.append(["equiv", "F0", "F1"])
        cmds.append(["classify-mt"] + classify())
        cmds.append(["report-periods"] + classify())
        rng.shuffle(cmds)
        # about one command in ten appends its report to the workspace
        with_doc = [i for i, c in enumerate(cmds)
                    if not {"classify-mt", "report-periods"} & set(c)]
        for i in rng.sample(with_doc, round(len(cmds) / 10)):
            cmds[i] = ["--save-report"] + cmds[i]
        return [["--workspace", self.path] + c for c in cmds]

    def reset(self) -> None:
        with open(self.path, "w", encoding="utf-8") as fh:
            fh.write(self.text)

    def run_round(self, r: int, rec: Recorder) -> None:
        self.first = len(rec.ops)
        for argv in self.commands:
            out, err = io.StringIO(), io.StringIO()
            rec.begin()
            t0 = perf_counter()
            try:
                with redirect_stdout(out), redirect_stderr(err):
                    code = cli.main(list(argv))
            except Exception as exc:
                rec.error(r, " ".join(argv[2:]), exc)
                continue
            dt = perf_counter() - t0
            text = out.getvalue()
            try:
                report = json.loads(text) if text.strip() else {"stderr": err.getvalue()}
            except json.JSONDecodeError:
                report = {"stdout": text}
            report.pop("timestamp", None)
            rec.add(r, 1, dt, True, [argv[2:], code, report])

    def after_round(self, r: int, rec: Recorder) -> None:
        """Every command's exit code and report must equal the direct
        library call, and every --save-report must have landed."""
        saves = 0
        for i in range(self.first, len(rec.ops)):
            if not isinstance(rec.outputs[i], list):
                continue  # the command raised and is already counted failed
            argv, code, report = rec.outputs[i]
            key = tuple(argv)
            if key not in self.expected:
                try:
                    self.expected[key] = self.reference(argv)
                except Exception as exc:
                    self.expected[key] = (None, f"{type(exc).__name__}: {exc}")
            want_code, want = self.expected[key]
            if (code, _canon(report)) != (want_code, want):
                rec.fail(i, f"cli {' '.join(argv)}: got {code} {report}, "
                            f"want {want_code} {want}")
            if "--save-report" in argv:
                saves += 1
            _, cmd, _ = self._split(argv)
            if cmd == "equiv":
                rec.verdicts += 1
                rec.undecided += report.get("status") == "unknown"
            elif cmd == "classify-mt" and "attached_unique" in report:
                rec.verdicts += 1
                rec.undecided += report["attached_unique"] == "undecided"
        with open(self.path, "r", encoding="utf-8") as fh:
            logged = len(json.load(fh).get("reports", []))
        if logged != saves:
            rec.fail(self.first, f"cli round {r}: {logged} saved reports, "
                                 f"{saves} requested")

    @staticmethod
    def _split(argv) -> tuple[int, str, list[str]]:
        """(seed, command, its arguments) of a session command line."""
        rest = [a for a in argv if a != "--save-report"]
        seed = 0
        if rest[0] == "--seed":
            seed, rest = int(rest[1]), rest[2:]
        return seed, rest[0], rest[1:]

    # -- the same answers straight from the library -----------------------

    def reference(self, argv) -> tuple[int, dict]:
        seed, cmd, args = self._split(argv)
        opts = {args[i]: args[i + 1] for i in range(len(args)) if args[i].startswith("--")}
        doc = self.doc
        code, rep = 0, None
        if cmd == "validate":
            per = {name: obj.validate() for name, obj in sorted(doc.objects.items())}
            pres_ok = presentations.validate_presentation(doc.presentation).ok
            violations = (0 if pres_ok else 1) + sum(len(v) for v in per.values())
            rep = {"presentation_ok": pres_ok, "objects": per, "violations": violations}
            code = 1 if violations else 0
        elif cmd == "u":
            m = doc.object(args[0])
            if "--p" in opts:
                p = int(opts["--p"])
                rep = {"dim_u_p": galois.u_p_of(m, p).dim, "p": p,
                       "large": blends.is_large_u_p(m, p)}
            else:
                rep = {"dim_u": galois.u_of(m).dim, "large": blends.is_large_u(m),
                       "galois_dim": galois.galois_dim(m)}
        elif cmd == "axioms":
            rep = check_axioms(doc.object(args[0]), int(opts["--p"]),
                               int(opts["--q"])).as_dict()
        elif cmd == "ext":
            m, p = doc.object(args[0]), int(opts["--p"])
            e = cohomology.quotient_class(cohomology.e_p_class(m, p), galois.u_p_of(m, p))
            verdict = cohomology.is_split(e)
            rep = {"p": p, "target_dim": e.target.dim, "class_zero": e.is_zero_class(),
                   "split": verdict.split}
            if verdict.split:
                rep["witness"] = [format_rat(x) for x in verdict.witness]
            elif verdict.certificate is not None:
                rep["certificate"] = [format_rat(x) for x in verdict.certificate]
        elif cmd == "theorem1":
            rep = self._theorem1(doc.object(args[0]), int(opts["--p"]), 5, seed)
            code = 0 if rep["ok"] else 1
        elif cmd == "theorem2":
            m, p, q = doc.object(args[0]), int(opts["--p"]), int(opts["--q"])
            ax = check_axioms(m, p, q)
            s = objects.direct_sum(objects.weight_filtration(m, q).source,
                                   objects.gr_object(m))
            holds = cohomology.originates_from(cohomology.quotient_class(
                cohomology.e_p_class(m, p), galois.u_p_of(m, p)), s).holds
            applicable = ax.ia2 or ax.ia1
            rep = {"p": p, "q": q, "ia1": ax.ia1, "ia2": ax.ia2, "originates": holds,
                   "applicable": applicable, "ok": (not applicable) or holds}
            code = 0 if rep["ok"] else 1
        elif cmd == "theorem3":
            res = blends.theorem3_verify(doc.object(args[0]), int(opts["--p"]))
            rep = res.as_dict()
            rep["ok"] = res.implication_ok and res.converse_ok
            code = 0 if rep["ok"] else 1
        elif cmd == "blend":
            res = blends.blend(doc.pair(args[0]))
            if res.ok:
                diagram_ok = res.diagram.validate() == []
                rep = {"compatible": True, "diagram_ok": diagram_ok,
                       "middle_dim": res.diagram.m.dim,
                       "middle_large_u": blends.is_large_u(res.diagram.m)}
                code = 0 if diagram_ok else 1
            else:
                rep = {"compatible": False,
                       "obstruction_pairs": [list(k) for k in res.obstruction.comps],
                       "certificate": [format_rat(x) for x in res.certificate or []]}
        elif cmd == "equiv":
            res = blends.pair_equivalent(doc.pair(args[0]), doc.pair(args[1]), seed=seed)
            rep = {"status": res.status, "reason": res.reason}
        elif cmd in ("classify-mt", "report-periods"):
            result = mixed_tate.classify_three_dim(
                int(opts["--n"]), int(opts["--k"]),
                opts["--r"] if "--r" in opts else None)
            if cmd == "classify-mt":
                rep = result.as_dict()
                if result.case != "Rejected":
                    rep["blend_ok"] = result.blend_result.ok
                    m = result.representative
                    if m is not None:
                        rep["representative"] = {
                            "dim": m.dim, "large_u": blends.is_large_u(m),
                            "dim_u": galois.u_of(m).dim,
                            "galois_dim": galois.galois_dim(m)}
                    rep["attached_unique"] = mixed_tate.classification_unique(result).status
            else:
                pr = mixed_tate.period_matrix_report(result)
                rep = pr.as_dict()
                rep["case"] = result.case
                rep["matrix_text"] = pr.matrix.render_text()
        rep = {"command": cmd, **rep}
        return code, _canon(rep)

    @staticmethod
    def _theorem1(m, p: int, samples: int, seed: int) -> dict:
        e = cohomology.e_p_class(m, p)
        up = galois.u_p_of(m, p)
        s = objects.direct_sum(objects.weight_filtration(m, p).source,
                               objects.weight_quotient(m, p).target)
        positive = cohomology.originates_from(cohomology.quotient_class(e, up), s).holds
        negatives = []
        if up.dim > 0:
            up_t = cohomology.transport_to_target(e, up.space)
            for k in range(samples):
                a = corpus.sample_stable_subspace(e.target, e.target,
                                                  seed=seed * 101 + k, avoid=up_t)
                if a is not None:
                    negatives.append(not cohomology.originates_from(
                        cohomology.quotient_class(e, a), s).holds)
        return {"p": p, "positive_originates": positive,
                "negative_samples": len(negatives),
                "negative_all_fail": all(negatives) if negatives else None,
                "ok": positive and all(negatives)}


def make(name: str, workdir: str):
    if name == "cli-session":
        return CliSession(os.path.join(workdir, "workspace.json"))
    return {"suites": Suites, "calibration": Calibration, "search": Search}[name]()

