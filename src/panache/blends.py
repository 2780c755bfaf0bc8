"""Large-kernel predicates, blended extensions, pair equivalence, the
three-hypothesis patching theorem, and the counterexample search.

A compatible pair is a pair of extension classes (L, N) against objects
B (low weights), A (pure middle weight) and C (high weights); a blend is a
middle object realising both at once.  The obstruction to blending is the
composition pairing in degree two, and the two facts are checked against
each other as independent oracles.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .linalg import Mat, ONE, ZERO, format_rat, kernel_basis, solve_linear, vec_is_zero
from .objects import (IsoResult, Morphism, RepObject, block_comps, glue, inclusion,
                      internal_hom, invertible_element, is_isomorphic, morphism_space,
                      projection, weight_filtration, weight_quotient)
from .galois import hom_block, strictly_lower_block, u_of, u_p_of
from .cohomology import (ExtClassHandle, H2Class, e_p_class, ext1_class,
                         h1_basis, is_split, min_split_support, quotient_class,
                         yoneda_compose)
from .axioms import check_axioms
from .presentations import abelian_presentation, add_deg


# ---------------------------------------------------------------------------
# largeness and total nonsplitness


def is_large_u(m: RepObject) -> bool:
    """Does the unipotent kernel fill the whole strictly-lowering block?

    Every generator lowers weight, so u(M) lies in the block and u_p(M) in
    its Hom block: equality is a dimension count."""
    return u_of(m).dim == len(strictly_lower_block(m))


def is_large_u_p(m: RepObject, p: int) -> bool:
    return u_p_of(m, p).dim == len(hom_block(m, p))


def is_totally_nonsplit(e: ExtClassHandle) -> bool:
    """Pure target only: every pushforward to a nonzero quotient is nonsplit,
    i.e. the minimal support is everything."""
    return min_split_support(e).dim == e.target.dim


# ---------------------------------------------------------------------------
# compatible pairs and blends


@dataclass
class CompatiblePair:
    b: RepObject
    a: RepObject
    c: RepObject
    l_class: ExtClassHandle   # in Ext^1(A, B)
    n_class: ExtClassHandle   # in Ext^1(C, A)

    def __post_init__(self):
        if self.a.dim == 0 or not _pure(self.a):
            raise ValueError("middle object must be nonzero and pure")
        if self.b.dim and self.b.max_weight() >= self.a.min_weight():
            raise ValueError("weight separation fails between B and A")
        if self.c.dim and self.a.max_weight() >= self.c.min_weight():
            raise ValueError("weight separation fails between A and C")
        for cls, (src, tgt) in ((self.l_class, (self.a, self.b)),
                                (self.n_class, (self.c, self.a))):
            if cls.hom_source is None or cls.hom_source.characters != src.characters \
                    or cls.hom_target.characters != tgt.characters:
                raise ValueError("extension class does not match the pair objects")


def _pure(m: RepObject) -> bool:
    return len(m.weights()) <= 1


@dataclass
class BlendedDiagram:
    """The nine-object exact diagram attached to a compatible pair."""

    b: RepObject
    l_mid: RepObject
    a: RepObject
    m: RepObject
    n_mid: RepObject
    c: RepObject
    iota_l: Morphism     # B -> L
    pi_l: Morphism       # L -> A
    iota_m: Morphism     # B -> M
    pi_m: Morphism       # M -> N
    alpha: Morphism      # L -> M
    beta: Morphism       # M -> C
    iota_n: Morphism     # A -> N
    pi_n: Morphism       # N -> C

    def validate(self) -> list[str]:
        problems = []
        for name, mor in (("iota_l", self.iota_l), ("pi_l", self.pi_l),
                          ("iota_m", self.iota_m), ("pi_m", self.pi_m),
                          ("alpha", self.alpha), ("beta", self.beta),
                          ("iota_n", self.iota_n), ("pi_n", self.pi_n)):
            bad = mor.validate()
            if bad:
                problems.append(f"{name}: {bad[0]}")
        if problems:
            return problems
        rows = [
            ("row L", self.iota_l, self.pi_l),
            ("row M", self.iota_m, self.pi_m),
            ("col M", self.alpha, self.beta),
            ("col N", self.iota_n, self.pi_n),
        ]
        for name, inj, sur in rows:
            if inj.matrix.rank() != inj.source.dim:
                problems.append(f"{name}: first map not injective")
            if sur.matrix.rank() != sur.target.dim:
                problems.append(f"{name}: second map not surjective")
            comp = sur.matrix.matmul(inj.matrix)
            if not comp.is_zero():
                problems.append(f"{name}: not a complex")
            if inj.matrix.rank() + sur.matrix.rank() != inj.target.dim:
                problems.append(f"{name}: rank condition fails")
        if self.alpha.matrix.matmul(self.iota_l.matrix) != self.iota_m.matrix:
            problems.append("square B: alpha∘iota_L != iota_M")
        if self.pi_m.matrix.matmul(self.alpha.matrix) != \
                self.iota_n.matrix.matmul(self.pi_l.matrix):
            problems.append("square A: pi_M∘alpha != iota_N∘pi_L")
        if self.pi_n.matrix.matmul(self.pi_m.matrix) != self.beta.matrix:
            problems.append("square C: pi_N∘pi_M != beta")
        return problems


@dataclass
class BlendResult:
    ok: bool
    diagram: BlendedDiagram | None = None
    obstruction: H2Class | None = None
    certificate: list | None = None

    def __bool__(self):
        return self.ok


def blend(pair: CompatiblePair) -> BlendResult:
    """Solve the corner blocks of the three-step ansatz; on failure return
    the degree-two obstruction with an infeasibility certificate."""
    b_obj, a_obj, c_obj = pair.b, pair.a, pair.c
    p = b_obj.presentation
    lmats = {i: Mat.unflatten(list(v), b_obj.dim, a_obj.dim)
             for i, v in pair.l_class.comps.items()}
    nmats = {i: Mat.unflatten(list(v), a_obj.dim, c_obj.dim)
             for i, v in pair.n_class.comps.items()}

    # corner unknowns: equivariant blocks fiber(C) -> fiber(B)
    layout: list[tuple[int, int, int]] = []   # (gen, row in B, col in C)
    diff_chars = {}
    for a in range(b_obj.dim):
        for c in range(c_obj.dim):
            diff = tuple(x - y for x, y in zip(b_obj.characters[a], c_obj.characters[c]))
            diff_chars.setdefault(diff, []).append((a, c))
    gen_cells: dict[int, list[tuple[int, int]]] = {}
    for diff, cells in diff_chars.items():
        for g in p.gens_of_degree(diff):
            gen_cells[g] = cells
            for (a, c) in cells:
                layout.append((g, a, c))
    layout.sort()
    pos = {key: k for k, key in enumerate(layout)}

    relevant = (set(lmats) | set(nmats) | set(b_obj.actions) |
                set(c_obj.actions) | set(gen_cells))
    pairs = p.pairs_touching(relevant, relevant, {p.degree(g) for g in gen_cells})

    sparse_rows: list[dict[int, Fraction]] = []
    rhs: list[Fraction] = []
    for (i, j) in pairs:
        bi, bj = b_obj.actions.get(i), b_obj.actions.get(j)
        ci, cj = c_obj.actions.get(i), c_obj.actions.get(j)
        bracket = p.bracket(i, j)
        # commutator condition on the (B, C) corner:
        # B_i m_j + L_i N_j + m_i C_j - B_j m_i - L_j N_i - m_j C_i = sum c_k m_k
        cup = Mat.zeros(b_obj.dim, c_obj.dim)
        if i in lmats and j in nmats:
            cup = cup + lmats[i].matmul(nmats[j])
        if j in lmats and i in nmats:
            cup = cup - lmats[j].matmul(nmats[i])
        bracket_hits = [(k, coeff) for k, coeff in bracket.items() if k in gen_cells]
        if bi is None and bj is None and ci is None and cj is None \
                and not bracket_hits and cup.is_zero():
            continue
        for r in range(b_obj.dim):
            for s in range(c_obj.dim):
                row: dict[int, Fraction] = {}

                def put(key, val):
                    k = pos.get(key)
                    if k is not None and val != 0:
                        row[k] = row.get(k, ZERO) + val

                if bi is not None:
                    for t in range(b_obj.dim):
                        put((j, t, s), bi.data[r][t])
                if bj is not None:
                    for t in range(b_obj.dim):
                        put((i, t, s), -bj.data[r][t])
                if cj is not None:
                    for t in range(c_obj.dim):
                        put((i, r, t), cj.data[t][s])
                if ci is not None:
                    for t in range(c_obj.dim):
                        put((j, r, t), -ci.data[t][s])
                for k, coeff in bracket_hits:
                    put((k, r, s), -coeff)
                row = {k: v for k, v in row.items() if v != 0}
                if row or cup.data[r][s] != 0:
                    sparse_rows.append(row)
                    rhs.append(-cup.data[r][s])

    if sparse_rows:
        dense = []
        for row in sparse_rows:
            out = [ZERO] * len(layout)
            for k, v in row.items():
                out[k] = v
            dense.append(out)
        sol = solve_linear(Mat.from_rows(dense), rhs)
    else:
        sol = solve_linear(Mat.zeros(0, len(layout)), [])
    if not sol.feasible:
        obstruction = yoneda_compose(pair.l_class, pair.n_class)
        return BlendResult(False, obstruction=obstruction, certificate=sol.certificate)
    corner: dict[int, list] = {}
    for (g, r, s), k in pos.items():
        if sol.particular[k] != 0:
            corner.setdefault(g, [ZERO] * (b_obj.dim * c_obj.dim))[r * c_obj.dim + s] = \
                sol.particular[k]
    return BlendResult(True, diagram=blend_with_corner(pair, corner))


def blend_with_corner(pair: CompatiblePair, corner: dict[int, Sequence]) -> BlendedDiagram:
    """The diagram whose middle object has the blocks L and N next to the
    diagonal and, for each generator g, the corner ``corner[g]``: the C -> B
    block flattened row-major, as ``glue`` takes it."""
    b_obj, a_obj, c_obj = pair.b, pair.a, pair.c
    l_comps, n_comps = pair.l_class.comps, pair.n_class.comps
    db, da, dc = b_obj.dim, a_obj.dim, c_obj.dim
    dim = db + da + dc
    labels = tuple(f"b.{x}" for x in b_obj.labels) + tuple(f"a.{x}" for x in a_obj.labels) \
        + tuple(f"c.{x}" for x in c_obj.labels)
    m_obj = glue([b_obj, a_obj, c_obj], {(0, 1): l_comps, (1, 2): n_comps, (0, 2): corner},
                 labels)
    l_mid = glue([b_obj, a_obj], {(0, 1): l_comps},
                 tuple(f"L.{x}" for x in b_obj.labels + a_obj.labels))
    n_mid = glue([a_obj, c_obj], {(0, 1): n_comps},
                 tuple(f"N.{x}" for x in a_obj.labels + c_obj.labels))
    return BlendedDiagram(
        b_obj, l_mid, a_obj, m_obj, n_mid, c_obj,
        iota_l=inclusion(b_obj, l_mid, range(db)),
        pi_l=projection(l_mid, a_obj, range(db, db + da)),
        iota_m=inclusion(b_obj, m_obj, range(db)),
        pi_m=projection(m_obj, n_mid, range(db, dim)),
        alpha=inclusion(l_mid, m_obj, range(db + da)),
        beta=projection(m_obj, c_obj, range(db + da, dim)),
        iota_n=inclusion(a_obj, n_mid, range(da)),
        pi_n=projection(n_mid, c_obj, range(da, da + dc)))


@dataclass
class AttachedResult:
    status: str                 # "unique" | "non_unique" | "not_compatible" | "undecided"
    first: RepObject | None = None
    second: RepObject | None = None
    iso: IsoResult | None = None


def attached_unique(pair: CompatiblePair) -> AttachedResult:
    """When Ext^1(C, B) vanishes, two different corner solutions must give
    isomorphic middles, and the attached object is unique."""
    res = blend(pair)
    if not res.ok:
        return AttachedResult("not_compatible")
    obstruction_space = h1_basis(internal_hom(pair.c, pair.b))
    m1 = res.diagram.m
    second = _second_blend(pair, res, obstruction_space)
    if second is None:
        return AttachedResult("unique", m1, m1, is_isomorphic(m1, m1))
    iso = is_isomorphic(m1, second)
    if not obstruction_space and iso.status == "yes":
        return AttachedResult("unique", m1, second, iso)
    if obstruction_space and iso.status == "no":
        return AttachedResult("non_unique", m1, second, iso)
    # an undecided isomorphism, or a perturbation that kept the class
    return AttachedResult("undecided", m1, second, iso)


def _second_blend(pair: CompatiblePair, res: BlendResult, obstruction_space):
    """Perturb the corner by a one-cocycle: a nonzero Ext class if one
    exists, else a coboundary shift; None when the corner is forced."""
    if obstruction_space:
        shift = obstruction_space[0].comps
    else:
        # coboundary of a character-zero hom: exists only with matching chars
        zero_char = tuple([0] * pair.b.presentation.torus_rank)
        hom_cb = internal_hom(pair.c, pair.b)
        shift = next((col for a0 in hom_cb.char_indices(zero_char)
                      if (col := block_comps(hom_cb, range(hom_cb.dim), [a0]))), None)
    if shift is None:
        return None
    m = res.diagram.m
    db, da = pair.b.dim, pair.a.dim
    base = block_comps(m, range(db), range(db + da, m.dim))
    zero = (ZERO,) * (db * pair.c.dim)
    merged = {i: [x + y for x, y in zip(base.get(i, zero), shift.get(i, zero))]
              for i in set(base) | set(shift)}
    return blend_with_corner(pair, merged).m


# ---------------------------------------------------------------------------
# pair equivalence


@dataclass
class EquivalenceResult:
    status: str                 # "equivalent" | "not_equivalent" | "unknown"
    witness: tuple[Mat, Mat, Mat] | None = None   # (fb, fa, fc) for pair_act
    reason: str = ""


def pair_equivalent(p1: CompatiblePair, p2: CompatiblePair,
                    seed: int = 0) -> EquivalenceResult:
    """Orbit equality under Aut(B) × Aut(A) × Aut(C), decided exactly.

    Write (L, N) for the classes of p1 and (L', N') for those of p2.
    ``pair_act(p1, fb, fa, fc)`` equals p2 exactly when L_i·fa = fb·L'_i and
    N_i·fc = fa·N'_i for every generator i.  The classes live in Hom(A, B)
    and Hom(C, A), whose coboundaries come from character-zero vectors;
    there are none, because ``CompatiblePair`` separates the weights of B,
    A and C, so no two of them share a character.  The triples of morphisms
    (fb, fa, fc) in Hom(B', B) × Hom(A', A) × Hom(C', C), which is
    End(B) × End(A) × End(C) when the pairs share their objects, solving
    these equations form a linear space.  The pairs are equivalent exactly
    when it holds an invertible triple (``invertible_element``), and the
    witness is such a triple.  ``seed`` is accepted and ignored."""
    objs = ((p1.b, p2.b), (p1.a, p2.a), (p1.c, p2.c))
    for x, y in objs:
        if x.characters != y.characters:
            raise ValueError("pairs must share the three outer objects")
    assert not set(p1.a.characters) & (set(p1.b.characters) | set(p1.c.characters)), \
        "weight separation leaves A no character in common with B or C"
    offsets = [0]
    for x, y in objs:
        offsets.append(offsets[-1] + x.dim * y.dim)
    # unknowns: the basis morphisms of Hom(B', B), Hom(A', A), Hom(C', C)
    unknowns = [(k, Mat.unflatten(list(r), x.dim, y.dim))
                for k, (x, y) in enumerate(objs) for r in morphism_space(y, x).basis]
    rows = []
    for cls1, cls2, lo, hi in ((p1.l_class, p2.l_class, 0, 1),
                               (p1.n_class, p2.n_class, 1, 2)):
        (x_lo, y_lo), (x_hi, y_hi) = objs[lo], objs[hi]
        for i in sorted(set(cls1.comps) | set(cls2.comps)):
            g1 = Mat.unflatten(list(cls1.component(i)), x_lo.dim, x_hi.dim)
            g2 = Mat.unflatten(list(cls2.component(i)), y_lo.dim, y_hi.dim)
            # g1·f_hi - f_lo·g2 = 0, one row per matrix entry
            terms = [g1.matmul(f) if k == hi else (f.matmul(g2).scale(-1) if k == lo else None)
                     for k, f in unknowns]
            for r in range(x_lo.dim):
                for c in range(y_hi.dim):
                    row = [ZERO if t is None else t.data[r][c] for t in terms]
                    if any(row):
                        rows.append(row)
    basis = []
    for v in kernel_basis(Mat(len(rows), len(unknowns), rows)):
        flat = [ZERO] * offsets[-1]
        for coeff, (k, f) in zip(v, unknowns):
            if coeff:
                for e, x in enumerate(f.flat(), offsets[k]):
                    flat[e] += coeff * x
        basis.append(flat)
    blocks = [(f"{name} {chi}", [[off + a * y.dim + b for b in y.char_indices(chi)]
                                 for a in x.char_indices(chi)])
              for name, off, (x, y) in zip("BAC", offsets, objs)
              for chi in sorted(x.character_set())]
    status, flat, reason = invertible_element(basis, blocks)
    if status != "yes":
        return EquivalenceResult("not_equivalent" if status == "no" else "unknown",
                                 reason=reason)
    return EquivalenceResult("equivalent", witness=tuple(
        Mat.unflatten(flat[off:off + x.dim * y.dim], x.dim, y.dim)
        for off, (x, y) in zip(offsets, objs)))


def extract_pair(m: RepObject, b_cut: int, a_cut: int) -> CompatiblePair:
    """The classification map: read the pair of extension classes off an
    object whose filtration steps at the two cuts separate its weights.

    The lower class comes from the middle filtration step, the upper one
    from the quotient; the object is attached to the extracted pair (its own
    corner blocks solve the blend equations)."""
    b_idx = [i for i in range(m.dim) if m.weight_of(i) <= b_cut]
    a_idx = [i for i in range(m.dim) if b_cut < m.weight_of(i) <= a_cut]
    c_idx = [i for i in range(m.dim) if m.weight_of(i) > a_cut]
    if not b_idx or not a_idx or not c_idx:
        raise ValueError("both cuts must separate nonempty weight layers")
    b_obj = weight_filtration(m, b_cut).source
    step = weight_filtration(m, a_cut).source
    a_obj = weight_quotient(step, b_cut).target
    c_obj = weight_quotient(m, a_cut).target
    return CompatiblePair(b_obj, a_obj, c_obj,
                          ext1_class(a_obj, b_obj, block_comps(m, b_idx, a_idx)),
                          ext1_class(c_obj, a_obj, block_comps(m, a_idx, c_idx)))


def pair_act(pair: CompatiblePair, fb: Mat, fa: Mat, fc: Mat) -> CompatiblePair:
    """The right action of automorphism triples on pairs."""
    fb_inv, fa_inv = fb.inverse(), fa.inverse()
    l2 = {i: tuple(fb_inv.matmul(Mat.unflatten(list(v), pair.b.dim, pair.a.dim)).matmul(fa).flat())
          for i, v in pair.l_class.comps.items()}
    n2 = {i: tuple(fa_inv.matmul(Mat.unflatten(list(v), pair.a.dim, pair.c.dim)).matmul(fc).flat())
          for i, v in pair.n_class.comps.items()}
    return CompatiblePair(pair.b, pair.a, pair.c,
                          ext1_class(pair.a, pair.b, l2),
                          ext1_class(pair.c, pair.a, n2))


# ---------------------------------------------------------------------------
# the patching theorem


@dataclass
class PatchReport:
    p: int
    hyp_sub_large: bool
    hyp_quot_large: bool
    hyp_axiom: bool
    axiom_witness_q: int | None
    conclusion_large: bool
    implication_ok: bool
    converse_ok: bool
    dim_u: int

    def as_dict(self):
        return self.__dict__.copy()


def theorem3_verify(m: RepObject, p: int) -> PatchReport:
    """Evaluate the three patching hypotheses and the largeness conclusion
    independently, plus the unconditional converse direction."""
    wq = weight_quotient(m, p)
    if wq.target.dim != 1 or any(c != 0 for c in wq.target.characters[0]) \
            or wq.target.actions:
        raise ValueError("quotient above the cut must be the unit object")
    grp = [a for a in range(m.dim) if m.weight_of(a) == p]
    if not grp:
        raise ValueError("the cut weight must occur")
    sub = weight_filtration(m, p).source
    quot_above = weight_quotient(m, p - 1).target
    hyp_i = is_large_u(sub)
    hyp_ii = is_large_u(quot_above)
    lo = m.min_weight() - 1
    hyp_iii = True
    witness_q = None
    for q in range(lo, p + 1):
        if not check_axioms(m, p, q).ia1:
            hyp_iii = False
            witness_q = q
            break
    conclusion = is_large_u(m)
    implication_ok = (not (hyp_i and hyp_ii and hyp_iii)) or conclusion
    converse_ok = (not conclusion) or (hyp_i and hyp_ii)
    return PatchReport(p, hyp_i, hyp_ii, hyp_iii, witness_q, conclusion,
                       implication_ok, converse_ok, u_of(m).dim)


# ---------------------------------------------------------------------------
# counterexample search


@dataclass
class SearchOutcome:
    found: bool
    seed: int | None = None
    p: int | None = None
    object_spec: dict | None = None
    certificate: list | None = None
    system: tuple | None = None
    log: dict = field(default_factory=dict)


def abelian_search_presentation(chars: list[int], degrees: list[int]):
    names = [f"x{i}" for i in range(len(degrees))]
    return abelian_presentation(1, (-2,), [(d,) for d in degrees], names=names)


def sample_commuting_object(pres, chars: list[int], seed: int, density: float = 0.85):
    """Sequentially sample equivariant actions for an abelian presentation:
    each new generator is drawn from the commutant of the previous ones."""
    rng = random.Random(seed)
    dim = len(chars)
    char_tuples = [(c,) for c in chars]
    actions: dict[int, Mat] = {}

    def random_equivariant(g):
        delta = pres.degree(g)
        mat = Mat.zeros(dim, dim)
        touched = False
        for a in range(dim):
            for b in range(dim):
                if char_tuples[a] == add_deg(char_tuples[b], delta):
                    if rng.random() < density:
                        mat.data[a][b] = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]))
                        touched = True
        return mat if touched else None

    for g in range(pres.n_gens):
        cand = random_equivariant(g)
        if cand is None:
            continue
        if not actions:
            actions[g] = cand
            continue
        # project onto the commutant: solve [A_h, X] = 0 for X equivariant
        cells = [(a, b) for a in range(dim) for b in range(dim)
                 if char_tuples[a] == add_deg(char_tuples[b], pres.degree(g))]
        rows = []
        for h, ah in actions.items():
            for r in range(dim):
                for s in range(dim):
                    row = []
                    for (a, b) in cells:
                        v = ZERO
                        if b == s and ah.data[r][a] != 0:
                            v += ah.data[r][a]
                        if a == r and ah.data[b][s] != 0:
                            v -= ah.data[b][s]
                        row.append(v)
                    if any(x != 0 for x in row):
                        rows.append(row)
        if rows:
            kern = kernel_basis(Mat.from_rows(rows))
            if not kern:
                continue
            coeffs = [Fraction(rng.randint(-3, 3)) for _ in kern]
            if all(c == 0 for c in coeffs):
                coeffs[0] = ONE
            mat = Mat.zeros(dim, dim)
            for cvec, coeff in zip(kern, coeffs):
                for (cell, val) in zip(cells, cvec):
                    mat.data[cell[0]][cell[1]] += coeff * val
            if not mat.is_zero():
                actions[g] = mat
        else:
            actions[g] = cand
    return RepObject(pres, tuple(f"v{i}" for i in range(dim)), tuple(char_tuples), actions)


def counterexample_search(weight_pattern: list[int],
                          seeds: range,
                          degrees: list[int] | None = None,
                          stop_at_first: bool = True) -> SearchOutcome:
    """Look for instances with the given weights where some filtration class
    stays nonsplit after quotienting by its own kernel block.

    Every Found result carries the re-checkable infeasibility certificate of
    the splitting system.
    """
    if any(w % 2 for w in weight_pattern):
        raise ValueError("the search model uses the even-weight convention")
    chars = sorted({-w // 2 for w in weight_pattern})
    if degrees is None:
        degrees = [1, 1]
    pres = abelian_search_presentation(chars, degrees)
    checked = 0
    found_count = 0
    found: SearchOutcome | None = None
    for seed in seeds:
        m = sample_commuting_object(pres, chars, seed)
        if m.validate():
            continue
        checked += 1
        for p in m.weights()[:-1]:
            e = e_p_class(m, p)
            q = quotient_class(e, u_p_of(m, p))
            verdict = is_split(q)
            if not verdict.split:
                found_count += 1
                out = SearchOutcome(
                    True, seed=seed, p=p,
                    object_spec=_object_spec(m),
                    certificate=verdict.certificate,
                    system=verdict.system,
                    log={"checked": checked, "pattern": weight_pattern})
                if stop_at_first:
                    return out
                if found is None:
                    found = out
                break
    if found is not None:
        found.log["checked"] = checked
        found.log["found_count"] = found_count
        return found
    return SearchOutcome(False, log={"checked": checked, "pattern": weight_pattern,
                                     "seeds": [seeds.start, seeds.stop]})


def _object_spec(m: RepObject) -> dict:
    return {
        "characters": [list(c) for c in m.characters],
        "actions": {m.presentation.name_of(i): [[a, b, format_rat(c)]
                                                for a, b, c in mat.nonzero_entries()]
                    for i, mat in m.actions.items()},
    }


def verify_certificate(system: tuple, certificate: list) -> bool:
    """Re-check an infeasibility certificate: y·A = 0 and y·b != 0."""
    rows, rhs = system
    if not certificate or len(certificate) != len(rows):
        return False
    n = len(rows[0]) if rows else 0
    combo = [ZERO] * n
    acc = ZERO
    for y, row, b in zip(certificate, rows, rhs):
        if y != 0:
            combo = [c + y * x for c, x in zip(combo, row)]
            acc += y * b
    return vec_is_zero(combo) and acc != 0
