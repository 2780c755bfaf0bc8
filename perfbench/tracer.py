"""Span tracing of panache's public functions, installed from outside.

``install`` wraps every function in ``TARGETS`` and rebinds each alias of it
that a loaded ``panache`` module holds (``from .x import f`` copies, class
attributes and dict values such as ``suites.SUITES``), so a call is recorded
whichever name it goes through.  Nothing in the package changes on disk.

A span is (id, op, name, start, end, parent): ``op`` is the benchmark
operation under way when the span opened, ``parent`` the id of the innermost open span
that caused it (-1 at the top).  Spans stay in memory until ``write``.
A function's self time is its span time minus the time its child spans
cover; the hooks that count extras run outside the span and are charged to
no layer, so they show only as tracing overhead.

``lyndon_words`` is a pure generator that its one caller,
``free_graded_lie``, always exhausts.  A wrapper that timed each resumption
would add its own cost to every one of the 17.4 M items of the calibration
workload, inside the caller's loop.  Instead the caller gets the bare
generator, and the wrapper first runs an identical one to exhaustion in C
(``deque``), which counts the items and times the generator alone.  That
replay is the generator's span and self time.  The caller is credited twice
its length as child time: once for the replay, which is thus charged to no
layer, and once for its own run of the identical generator.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
from collections import deque
from time import perf_counter


def _apply_counts(args, kwargs, result):
    mat = args[0]
    return {"nonzero": sum(1 for row in mat.data for x in row if x),
            "entries": mat.rows * mat.cols}


def _rref_cells(args, kwargs):
    rows = args[0]
    return {"cells_in": len(rows) * len(rows[0]) if rows else 0}


def _load_bytes(args, kwargs):
    try:
        return {"bytes_in": os.path.getsize(args[0])}
    except OSError:
        return {"bytes_in": 0}


def _save_bytes(args, kwargs, result):
    try:
        return {"bytes_out": os.path.getsize(args[1])}
    except OSError:
        return {"bytes_out": 0}


def _undecided(args, kwargs, result):
    return {"undecided": int(result.status == "unknown")}


# (module, attribute path, metric prefix, pre-call hook, post-call hook)
# A pre hook sees (args, kwargs); a post hook sees (args, kwargs, result).
# Methods get the instance as args[0].
TARGETS = [
    ("linalg", "Mat.apply", "linalg.Mat.apply", None, _apply_counts),
    ("linalg", "rref_rows", "linalg.rref_rows", _rref_cells, None),
    ("linalg", "kron", "linalg.kron", None,
     lambda a, k, r: {"cells_out": r.rows * r.cols}),
    ("linalg", "kernel_basis", "linalg.kernel_basis", None, None),
    ("linalg", "intersect_subspaces", "linalg.intersect_subspaces", None, None),
    ("linalg", "solve_linear", "linalg.solve_linear", None, None),
    ("linalg", "commutator", "linalg.commutator", None, None),
    ("presentations", "free_graded_lie", "presentations.free_graded_lie", None,
     lambda a, k, r: {"words_kept": r.n_gens}),
    ("presentations", "lyndon_words", "presentations.lyndon_words", None, None),
    ("presentations", "GroupPresentation.bracket",
     "presentations.GroupPresentation.bracket", None, None),
    ("presentations", "FreeLieEngine.bracket_words",
     "presentations.FreeLieEngine.bracket_words", None, None),
    ("presentations", "validate_presentation",
     "presentations.validate_presentation", None, None),
    ("objects", "internal_hom", "objects.internal_hom", None,
     lambda a, k, r: {"dim_out": r.dim}),
    ("objects", "subquotient", "objects.subquotient", None, None),
    ("objects", "RepObject.validate", "objects.RepObject.validate", None, None),
    ("objects", "random_object", "objects.random_object", None, None),
    ("objects", "direct_sum", "objects.direct_sum", None, None),
    ("objects", "is_isomorphic", "objects.is_isomorphic", None, _undecided),
    ("galois", "u_of", "galois.u_of", None, None),
    ("galois", "u_p_of", "galois.u_p_of", None, None),
    ("galois", "relative_kernel_lie", "galois.relative_kernel_lie", None, None),
    ("galois", "end_block_subspace", "galois.end_block_subspace", None, None),
    ("cohomology", "e_p_class", "cohomology.e_p_class", None, None),
    ("cohomology", "total_class", "cohomology.total_class", None, None),
    ("cohomology", "quotient_class", "cohomology.quotient_class", None, None),
    ("cohomology", "transport_to_target", "cohomology.transport_to_target",
     None, None),
    ("cohomology", "is_split", "cohomology.is_split", None, None),
    ("cohomology", "originates_from", "cohomology.originates_from", None, None),
    ("cohomology", "h1_basis", "cohomology.h1_basis", None, None),
    ("cohomology", "h2_basis", "cohomology.h2_basis", None, None),
    ("cohomology", "ext1_class", "cohomology.ext1_class", None, None),
    ("cohomology", "yoneda_compose", "cohomology.yoneda_compose", None, None),
    ("axioms", "check_axioms", "axioms.check_axioms", None, None),
    ("axioms", "ia3_holds", "axioms.ia3_holds", None, None),
    ("blends", "counterexample_search", "blends.counterexample_search",
     None, None),
    ("blends", "sample_commuting_object", "blends.sample_commuting_object",
     None, None),
    ("blends", "blend", "blends.blend", None, None),
    ("blends", "pair_equivalent", "blends.pair_equivalent", None, _undecided),
    ("blends", "verify_certificate", "blends.verify_certificate", None, None),
    ("blends", "theorem3_verify", "blends.theorem3_verify", None, None),
    ("mixed_tate", "build_mt_model", "mixed_tate.build_mt_model", None, None),
    ("mixed_tate", "classify_three_dim", "mixed_tate.classify_three_dim",
     None, None),
    ("mixed_tate", "build_four_dim_example", "mixed_tate.build_four_dim_example",
     None, None),
    ("mixed_tate", "period_matrix_report", "mixed_tate.period_matrix_report",
     None, None),
    ("corpus", "corpus_instance", "corpus.corpus_instance", None, None),
    ("corpus", "sample_stable_subspace", "corpus.sample_stable_subspace", None,
     lambda a, k, r: {"hits": int(r is not None)}),
    ("workspace", "load_workspace", "workspace.load_workspace", _load_bytes, None),
    ("workspace", "save_workspace", "workspace.save_workspace", None, _save_bytes),
    ("cli", "main", "cli.main", None, None),
]

GENERATORS = {"presentations.lyndon_words"}

# suites are traced one span per suite function, named by suite
SUITE_NAMES = ["total-split", "minimality", "origination", "ia-splitting",
               "theorem-origination", "primed-origination", "up-kernel",
               "gr-decomposition", "yoneda-blend"]

# per-layer metrics beyond .calls and .self_s: (metric, unit, better)
EXTRA_METRICS = [
    ("linalg.Mat.apply.nonzero_ratio", "ratio", "higher"),
    ("linalg.rref_rows.cells_in", "count", "lower"),
    ("linalg.kron.cells_out", "count", "lower"),
    ("presentations.free_graded_lie.words_kept", "count", "lower"),
    ("presentations.lyndon_words.yielded", "count", "lower"),
    ("presentations.kept_ratio", "ratio", "higher"),
    ("presentations.bracket_hit_ratio", "ratio", "higher"),
    ("objects.internal_hom.dim_out", "count", "lower"),
    ("objects.is_isomorphic.undecided", "count", "lower"),
    ("blends.pair_equivalent.undecided", "count", "lower"),
    ("corpus.sample_stable_subspace.hit_ratio", "ratio", "higher"),
    ("workspace.load_workspace.bytes_in", "bytes", "lower"),
    ("workspace.save_workspace.bytes_out", "bytes", "lower"),
]


def metric_specs() -> list[tuple[str, str, str]]:
    """Every per-layer metric the traced run reports, as (name, unit, better)."""
    specs = []
    for _, _, prefix, _, _ in TARGETS:
        specs.append((f"{prefix}.calls", "count", "lower"))
        specs.append((f"{prefix}.self_s", "s", "lower"))
    for suite in SUITE_NAMES:
        specs.append((f"suites.{suite}.self_s", "s", "lower"))
    return specs + EXTRA_METRICS


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.stack: list[int] = []       # ids of open spans
        self.child: list[float] = []     # child time accumulated per open span
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        self.next_id = 0
        self.op = 0
        self.paused = False

    def begin_op(self) -> None:
        self.op += 1

    def _close(self, sid, op, parent, name, t0, t1, child_s) -> None:
        self.spans.append((sid, op, name, t0, t1, parent))
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_s[name] = self.self_s.get(name, 0.0) + (t1 - t0) - child_s

    def _count(self, name, extra) -> None:
        for key, value in extra.items():
            full = f"{name}.{key}"
            self.counts[full] = self.counts.get(full, 0) + value

    def wrap(self, name, fn, pre=None, post=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            t_in = perf_counter()
            extra = pre(args, kwargs) if pre is not None else None
            sid, op = tracer.next_id, tracer.op
            tracer.next_id += 1
            parent = tracer.stack[-1] if tracer.stack else -1
            tracer.stack.append(sid)
            tracer.child.append(0.0)
            t0 = perf_counter()
            t1 = None
            try:
                result = fn(*args, **kwargs)
                t1 = perf_counter()
                if post is not None:
                    tracer._count(name, post(args, kwargs, result))
                return result
            finally:
                if t1 is None:  # fn raised
                    t1 = perf_counter()
                tracer.stack.pop()
                tracer._close(sid, op, parent, name, t0, t1, tracer.child.pop())
                if extra:
                    tracer._count(name, extra)
                if tracer.child:
                    tracer.child[-1] += perf_counter() - t_in

        return traced

    def wrap_generator(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            sid, op = tracer.next_id, tracer.op
            tracer.next_id += 1
            parent = tracer.stack[-1] if tracer.stack else -1
            counter = itertools.count()
            t0 = perf_counter()
            deque(zip(fn(*args, **kwargs), counter), maxlen=0)
            t1 = perf_counter()
            tracer._close(sid, op, parent, name, t0, t1, 0.0)
            tracer._count(name, {"yielded": next(counter)})
            if tracer.child:
                tracer.child[-1] += 2 * (t1 - t0)
            return fn(*args, **kwargs)

        return traced

    # -- derived metrics ----------------------------------------------------

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for _, _, prefix, _, _ in TARGETS:
            out[f"{prefix}.calls"] = self.calls.get(prefix, 0)
            out[f"{prefix}.self_s"] = self.self_s.get(prefix, 0.0)
        for suite in SUITE_NAMES:
            out[f"suites.{suite}.self_s"] = self.self_s.get(f"suites.{suite}", 0.0)
        c = self.counts
        for name, unit, _ in EXTRA_METRICS:
            if unit != "ratio":
                out[name] = c.get(name, 0)
        out["linalg.Mat.apply.nonzero_ratio"] = _ratio(
            c.get("linalg.Mat.apply.nonzero", 0), c.get("linalg.Mat.apply.entries", 0))
        out["presentations.kept_ratio"] = _ratio(
            out["presentations.free_graded_lie.words_kept"],
            out["presentations.lyndon_words.yielded"])
        brackets = out["presentations.GroupPresentation.bracket.calls"]
        out["presentations.bracket_hit_ratio"] = (
            1.0 - out["presentations.FreeLieEngine.bracket_words.calls"] / brackets
            if brackets else 0.0)
        out["corpus.sample_stable_subspace.hit_ratio"] = _ratio(
            c.get("corpus.sample_stable_subspace.hits", 0),
            out["corpus.sample_stable_subspace.calls"])
        return out

    def write(self, path: str) -> None:
        """Write the spans as JSON lines: first {"names": [...]}, then one
        [id, op, name index, start, end, parent] per span, by id."""
        names = sorted({span[2] for span in self.spans})
        index = {name: i for i, name in enumerate(names)}
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"names": names}) + "\n")
            for sid, op, name, t0, t1, parent in sorted(self.spans):
                fh.write(f"[{sid},{op},{index[name]},{t0!r},{t1!r},{parent}]\n")


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def _resolve(module, path):
    owner = module
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def _rebind(original, wrapper) -> None:
    """Replace every alias of ``original`` held by a loaded panache module."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "panache" or mod_name.startswith("panache.")):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapper)
            elif isinstance(value, dict):
                for k, v in list(value.items()):
                    if v is original:
                        value[k] = wrapper


def install() -> Tracer:
    """Wrap every target function and return the tracer recording them."""
    importlib.import_module("panache.cli")  # loads every traced module
    tracer = Tracer()
    for mod_name, path, prefix, pre, post in TARGETS:
        module = importlib.import_module(f"panache.{mod_name}")
        owner, attr = _resolve(module, path)
        original = getattr(owner, attr)
        if prefix in GENERATORS:
            wrapper = tracer.wrap_generator(prefix, original)
        else:
            wrapper = tracer.wrap(prefix, original, pre, post)
        if isinstance(owner, type):
            setattr(owner, attr, wrapper)
        else:
            _rebind(original, wrapper)
    suites = importlib.import_module("panache.suites")
    for suite in SUITE_NAMES:
        original = suites.SUITES[suite]
        _rebind(original, tracer.wrap(f"suites.{suite}", original))
    return tracer
