"""Property suites over the randomized corpus.

Each suite realises one verification contract and returns a structured
result; the command-line driver and the acceptance tests share these
implementations so a green suite means the same thing everywhere.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .axioms import check_axioms, ia3_holds
from .blends import CompatiblePair, blend
from .cohomology import (e_p_class, ext1_class, is_split, originates_from,
                         quotient_class, total_class, transport_to_target,
                         yoneda_compose)
from .corpus import corpus, sample_stable_subspace
from .galois import (gr_leading_span, end_block_subspace, u_geq_of, u_of, u_p_of,
                     relative_kernel_lie)
from .linalg import Subspace
from .objects import (RepObject, direct_sum, gr_object, simple_character,
                      unit_object, weight_filtration, weight_quotient)
from .presentations import abelian_presentation


@dataclass
class SuiteResult:
    name: str
    total: int = 0
    passed: int = 0
    failures: list[dict] = field(default_factory=list)
    notes: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.total > 0 and not self.failures

    def record(self, ok: bool, **info):
        self.total += 1
        if ok:
            self.passed += 1
        else:
            self.failures.append(info)

    def as_dict(self) -> dict:
        return {"suite": self.name, "total": self.total, "passed": self.passed,
                "ok": self.ok, "failures": self.failures[:10], "notes": self.notes}


def _interesting_cuts(m: RepObject) -> list[int]:
    """Occurring weights p with both a nonzero sub and a nonzero quotient."""
    ws = m.weights()
    return [p for p in ws if ws[0] <= p < ws[-1]]


def suite_total_class_split(count: int = 200, seed: int = 0) -> SuiteResult:
    """The total filtration class becomes split after quotienting by the
    span of the action matrices, on every instance."""
    res = SuiteResult("total-split")
    for inst in corpus(count, seed):
        t = total_class(inst.m)
        verdict = is_split(quotient_class(t, u_of(inst.m)))
        res.record(verdict.split, recipe=inst.recipe, seed=inst.seed)
    return res


def suite_minimality(count: int = 200, samples_per: int = 5, seed: int = 0) -> SuiteResult:
    """No strictly smaller stable subspace splits the total class."""
    res = SuiteResult("minimality")
    skipped = 0
    instances = 0
    for inst in corpus(count, seed):
        m = inst.m
        u = u_of(m)
        if u.dim == 0:
            skipped += 1
            continue
        instances += 1
        t = total_class(m)
        u_t = transport_to_target(t, u.space)
        produced = 0
        attempt = 0
        while produced < samples_per and attempt < 12 * samples_per:
            a = sample_stable_subspace(t.target, t.target,
                                       seed=inst.seed * 977 + attempt, avoid=u_t)
            attempt += 1
            if a is None:
                continue
            verdict = is_split(quotient_class(t, a))
            res.record(not verdict.split, recipe=inst.recipe, seed=inst.seed,
                       sample=attempt, a_dim=a.dim)
            produced += 1
        if produced < samples_per:
            res.record(False, recipe=inst.recipe, seed=inst.seed,
                       problem="sampler exhausted", produced=produced)
    res.notes["skipped_semisimple"] = skipped
    res.notes["instances_with_kernel"] = instances
    res.notes["samples_per"] = samples_per
    return res


def suite_origination(count: int = 100, samples_per: int = 5, seed: int = 0) -> SuiteResult:
    """Every filtration class, quotiented by its own kernel block, originates
    from the two-step subcategory; quotients by subspaces missing the kernel
    block do not.  Negative samples are pooled per instance across its cuts,
    always including the zero subspace (the class itself must fail)."""
    res = SuiteResult("origination")
    instances_with_kernel = 0
    negatives = 0
    short_instances = 0
    for inst in corpus(count, seed):
        m = inst.m
        kernel_cuts = []
        for p in _interesting_cuts(m):
            e = e_p_class(m, p)
            # the kernel block u_p in the class target's coordinates
            kernel = transport_to_target(e, u_p_of(m, p).space)
            s = direct_sum(weight_filtration(m, p).source, weight_quotient(m, p).target)
            pos = originates_from(quotient_class(e, kernel), s)
            res.record(pos.holds, recipe=inst.recipe, seed=inst.seed, p=p,
                       direction="positive")
            if kernel.dim > 0:
                kernel_cuts.append((p, e, kernel, s))
        if not kernel_cuts:
            continue
        instances_with_kernel += 1
        produced = 0
        candidates: list = []
        for (p, e, _, s) in kernel_cuts:
            candidates.append((p, e, s, Subspace.zero(e.target.dim)))
        attempt = 0
        seen = set()
        while len(candidates) < samples_per and attempt < 20 * samples_per:
            p, e, kernel, s = kernel_cuts[attempt % len(kernel_cuts)]
            a = sample_stable_subspace(e.target, e.target,
                                       seed=inst.seed * 1013 + 31 * p + attempt,
                                       avoid=kernel)
            attempt += 1
            if a is None or (p, a.basis) in seen:
                continue
            seen.add((p, a.basis))
            candidates.append((p, e, s, a))
        if len(candidates) < samples_per:
            short_instances += 1
        for k, (p, e, s, a) in enumerate(candidates):
            neg = originates_from(quotient_class(e, a), s)
            res.record(not neg.holds, recipe=inst.recipe, seed=inst.seed, p=p,
                       direction="negative", sample=k, a_dim=a.dim)
            produced += 1
        negatives += produced
    res.notes["instances_with_kernel"] = instances_with_kernel
    res.notes["negative_samples"] = negatives
    res.notes["instances_short_of_five"] = short_instances
    return res


def suite_ia_splitting(count: int = 100, seed: int = 0) -> SuiteResult:
    """Under the weight-level independence axiom at every lower cut, the
    individual class quotiented by its kernel block splits."""
    res = SuiteResult("ia-splitting")

    def has_ia2_cut(m: RepObject) -> bool:
        q_min = m.min_weight() - 1
        return any(check_axioms(m, p, q_min).ia2 for p in _interesting_cuts(m))

    for inst in corpus(count, seed, predicate=has_ia2_cut):
        m = inst.m
        q_min = m.min_weight() - 1
        for p in _interesting_cuts(m):
            if not check_axioms(m, p, q_min).ia2:
                continue
            verdict = is_split(quotient_class(e_p_class(m, p), u_p_of(m, p)))
            res.record(verdict.split, recipe=inst.recipe, seed=inst.seed, p=p,
                       clause="ia2-all-q")

    def ia3(m: RepObject) -> bool:
        return ia3_holds(m)[0]

    for inst in corpus(count, seed + 10_000, predicate=ia3):
        m = inst.m
        for p in _interesting_cuts(m):
            verdict = is_split(quotient_class(e_p_class(m, p), u_p_of(m, p)))
            res.record(verdict.split, recipe=inst.recipe, seed=inst.seed, p=p,
                       clause="ia3")
    return res


def suite_theorem_origination(count: int = 100, seed: int = 0) -> SuiteResult:
    """Statement-level check: under the weight axiom at a sampled cut
    (p, q <= p), the quotiented class originates from the subcategory of the
    q-th filtration step plus the associated graded."""
    res = SuiteResult("theorem-origination")
    rng = random.Random(seed)
    for inst in corpus(count, seed):
        m = inst.m
        cuts = _interesting_cuts(m)
        if not cuts:
            continue
        p = cuts[rng.randrange(len(cuts))]
        q = rng.randint(m.min_weight() - 1, p)
        if not check_axioms(m, p, q).ia2:
            continue
        e = e_p_class(m, p)
        s = direct_sum(weight_filtration(m, q).source, gr_object(m))
        verdict = originates_from(quotient_class(e, u_p_of(m, p)), s)
        res.record(verdict.holds, recipe=inst.recipe, seed=inst.seed, p=p, q=q)
    return res


def suite_primed_origination(count: int = 50, seed: int = 0) -> SuiteResult:
    """The q > p variant: under the primed weight axiom, the quotiented class
    originates from the subcategory of the q-th step plus the graded."""
    res = SuiteResult("primed-origination")
    rng = random.Random(seed)
    produced = 0
    attempt = 0
    while produced < count and attempt < 80 * count:
        inst = next(iter(corpus(1, seed + attempt)))
        attempt += 1
        m = inst.m
        cuts = _interesting_cuts(m)
        candidates = [(p, q) for p in cuts for q in range(p + 1, m.max_weight())
                      if check_axioms(m, p, q).ia2]
        if not candidates:
            continue
        p, q = candidates[rng.randrange(len(candidates))]
        e = e_p_class(m, p)
        s = direct_sum(weight_filtration(m, q).source, gr_object(m))
        verdict = originates_from(quotient_class(e, u_p_of(m, p)), s)
        res.record(verdict.holds, recipe=inst.recipe, seed=inst.seed, p=p, q=q)
        produced += 1
    return res


def suite_up_kernel(count: int = 100, seed: int = 0) -> SuiteResult:
    """The kernel block at every cut equals the relative kernel against the
    split two-step object."""
    res = SuiteResult("up-kernel")
    for inst in corpus(count, seed):
        m = inst.m
        for p in m.weights():
            lhs = u_p_of(m, p).space
            two_step = direct_sum(weight_filtration(m, p).source,
                                  weight_quotient(m, p).target)
            rhs = relative_kernel_lie(m, two_step).space
            res.record(lhs == rhs, recipe=inst.recipe, seed=inst.seed, p=p)
    return res


def suite_gr_decomposition(count: int = 100, seed: int = 0) -> SuiteResult:
    """Under the weight axiom at (p, q), the graded of the below-q kernel
    splits across the two weight regions."""
    res = SuiteResult("gr-decomposition")
    rng = random.Random(seed)
    produced = 0
    attempt = 0
    while produced < count and attempt < 60 * count:
        inst = next(iter(corpus(1, seed + attempt)))
        attempt += 1
        m = inst.m
        cuts = _interesting_cuts(m)
        candidates = [(p, q) for p in cuts for q in range(m.min_weight() - 1, p + 1)
                      if check_axioms(m, p, q).ia2]
        if not candidates:
            continue
        p, q = candidates[rng.randrange(len(candidates))]
        gr = gr_leading_span(m, u_geq_of(m, q))
        j1 = end_block_subspace(m, lambda wa, wb: wa <= p < wb)
        j2 = end_block_subspace(
            m, lambda wa, wb: wa < wb and (q < wb <= p or wa > p))
        part1 = gr.meet_coordinates(j1)
        part2 = gr.meet_coordinates(j2)
        ok = part1.add(part2) == gr
        res.record(ok, recipe=inst.recipe, seed=inst.seed, p=p, q=q,
                   dims=(gr.dim, part1.dim, part2.dim))
        produced += 1
    return res


def suite_yoneda_blend(count: int = 100, seed: int = 0) -> SuiteResult:
    """Blend solvability agrees with vanishing of the composition pairing on
    generated pairs, including the rank-two fixtures."""
    res = SuiteResult("yoneda-blend")
    pres = abelian_presentation(1, (-2,), [(1,), (1,)], names=["x", "y"])
    a_obj = simple_character(pres, (1,))
    b_obj = simple_character(pres, (2,))
    c_obj = unit_object(pres)

    def check(l_comps, n_comps, tag):
        l_cls = ext1_class(a_obj, b_obj, l_comps)
        n_cls = ext1_class(c_obj, a_obj, n_comps)
        pair = CompatiblePair(b_obj, a_obj, c_obj, l_cls, n_cls)
        left = blend(pair)
        right = yoneda_compose(l_cls, n_cls).is_zero()
        agree = bool(left.ok) == right
        extra = {}
        if left.ok:
            extra["diagram"] = left.diagram.validate() == []
            agree = agree and extra["diagram"]
        else:
            extra["certificate"] = left.certificate is not None
        res.record(agree, tag=tag, blend=left.ok, yoneda_zero=right, **extra)
        return left, right

    check({0: [1], 1: [0]}, {0: [0], 1: [1]}, "fixture-obstructed")
    check({0: [1], 1: [0]}, {0: [2], 1: [0]}, "fixture-compatible")
    rng = random.Random(seed)
    for k in range(count - 2):
        l_comps = {g: [rng.randint(-2, 2)] for g in (0, 1)}
        n_comps = {g: [rng.randint(-2, 2)] for g in (0, 1)}
        check(l_comps, n_comps, f"random-{k}")
    return res


SUITES = {
    "total-split": suite_total_class_split,
    "minimality": suite_minimality,
    "origination": suite_origination,
    "ia-splitting": suite_ia_splitting,
    "theorem-origination": suite_theorem_origination,
    "primed-origination": suite_primed_origination,
    "up-kernel": suite_up_kernel,
    "gr-decomposition": suite_gr_decomposition,
    "yoneda-blend": suite_yoneda_blend,
}


def run_suite(name: str, count: int | None = None, seed: int = 0) -> SuiteResult:
    if name not in SUITES:
        raise KeyError(name)
    fn = SUITES[name]
    if count is None:
        return fn(seed=seed)
    return fn(count, seed=seed)
