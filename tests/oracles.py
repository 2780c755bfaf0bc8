"""Slow reference paths kept as test oracles.

Each function here is a retired or brute-force form of something the
package now does faster or more completely.  Differential tests run both
on the same inputs and require identical answers wherever the reference
decides; nothing under ``src/`` imports this module.
"""

import itertools
import random
from fractions import Fraction
from typing import Sequence
from unittest import mock

from panache import cohomology
from panache.blends import CompatiblePair, EquivalenceResult, pair_act
from panache.cohomology import ExtClassHandle, is_split
from panache.galois import LieSubspace, hom_block, strictly_lower_block, u_of, u_p_of
from panache.linalg import (ONE, ZERO, Mat, Subspace, commutator, intersect_subspaces,
                            rref_basis, solve_linear)
from panache.objects import (IsoResult, Morphism, RepObject, Subquotient, internal_hom,
                             morphism_space)
from panache.presentations import (GroupPresentation, PresentationReport, Violation,
                                   add_deg, standard_factorization)


# ---------------------------------------------------------------------------
# coordinate blocks of End(M) as materialised subspaces


def coordinate_subspace(indices, n):
    """The span of e_i, i in indices, as one identity row per index."""
    rows = [[ONE if a == i else ZERO for a in range(n)] for i in indices]
    return Subspace.from_vectors(rows, n) if rows else Subspace.zero(n)


def is_large_u_by_subspace(m):
    """``is_large_u`` as equality with the materialised block."""
    return u_of(m).space == coordinate_subspace(strictly_lower_block(m), m.dim * m.dim)


def is_large_u_p_by_subspace(m, p):
    """``is_large_u_p`` as equality with the materialised block."""
    return u_p_of(m, p).space == coordinate_subspace(hom_block(m, p), m.dim * m.dim)


# ---------------------------------------------------------------------------
# subquotients through one intersection per character


def subquotient_by_intersection(m, s):
    """``subquotient`` finding the per-character pieces of s by intersecting
    it with one materialised character block each, and the subobject
    coordinates through a matrix inverse."""
    if s.ambient_dim != m.dim:
        raise ValueError("ambient dimension mismatch")
    pieces = []
    total = 0
    for chi in sorted(m.character_set()):
        part = intersect_subspaces(s, coordinate_subspace(m.char_indices(chi), m.dim))
        total += part.dim
        for row in part.basis:
            pieces.append((chi, list(row)))
    if total != s.dim:
        raise ValueError("subspace is not character-homogeneous")
    for i, a in m.actions.items():
        for row in s.basis:
            if not s.contains(a.apply(list(row))):
                raise ValueError(
                    f"subspace is not stable under {m.presentation.name_of(i)}")

    basis_rows = [v for _, v in pieces]
    sub_chars = tuple(chi for chi, _ in pieces)
    k = len(basis_rows)
    incl = Mat.zeros(m.dim, k)
    for col, v in enumerate(basis_rows):
        for a in range(m.dim):
            incl.data[a][col] = v[a]
    span = Subspace.from_vectors(basis_rows, m.dim) if basis_rows else Subspace.zero(m.dim)
    reorder = _reorder_coords(span, basis_rows) if k else Mat.zeros(0, 0)
    sub_actions = {}
    for i, a in m.actions.items():
        mat = Mat.zeros(k, k)
        for col, v in enumerate(basis_rows):
            coords = span.coordinates_of(a.apply(v))
            full = reorder.apply(coords)
            for rr in range(k):
                mat.data[rr][col] = full[rr]
        if not mat.is_zero():
            sub_actions[i] = mat
    sub = RepObject(m.presentation, tuple(f"s{c}" for c in range(k)), sub_chars, sub_actions)
    inclusion = Morphism(sub, m, incl)

    pivots = set(span.pivots())
    comp = [a for a in range(m.dim) if a not in pivots]
    q = len(comp)
    proj = Mat.zeros(q, m.dim)
    for row, cidx in enumerate(comp):
        proj.data[row][cidx] = ONE
    for piv_row, piv_col in zip(span.basis, span.pivots()):
        for row, cidx in enumerate(comp):
            proj.data[row][piv_col] = -piv_row[cidx]
    emb = Mat.zeros(m.dim, q)
    for col, cidx in enumerate(comp):
        emb.data[cidx][col] = ONE
    quo_actions = {}
    for i, a in m.actions.items():
        mat = proj.matmul(a).matmul(emb)
        if not mat.is_zero():
            quo_actions[i] = mat
    quotient = RepObject(m.presentation, tuple(m.labels[a] + "~" for a in comp),
                         tuple(m.characters[a] for a in comp), quo_actions)
    return Subquotient(sub, inclusion, quotient, Morphism(m, quotient, proj))


def _reorder_coords(span, rows):
    """Change of coordinates from the RREF basis of span to the given rows."""
    k = len(rows)
    r = Mat.zeros(k, k)
    for i, v in enumerate(rows):
        for j, c in enumerate(span.coordinates_of(v)):
            r.data[i][j] = c
    # a vector with RREF coords x has coords y in the rows with Rᵗ y = x
    return r.transpose().inverse()


# ---------------------------------------------------------------------------
# quotient classes through the subobject


def quotient_class_by_subquotient(e, a):
    """``quotient_class`` moving an End-coordinate span into the class
    target by one ``solve_linear`` per row, then pushing the class forward
    along the projection of the full subquotient."""
    space = a.space if isinstance(a, LieSubspace) else a
    if space.ambient_dim != e.target.dim:
        if e.embed is None or space.ambient_dim != e.embed.target.dim:
            raise ValueError("subspace coordinates do not match the class target")
        rows = []
        for row in space.basis:
            sol = solve_linear(e.embed.matrix, list(row))
            if not sol.feasible:
                raise ValueError("subspace is not contained in the block target")
            rows.append(sol.particular)
        space = (Subspace.from_vectors(rows, e.target.dim)
                 if rows else Subspace.zero(e.target.dim))
    sq = subquotient_by_intersection(e.target, space)
    return pushforward_class(e, sq.projection)


def pushforward_class(e, f):
    """Push the class forward along a morphism out of its target."""
    if f.source.characters != e.target.characters:
        raise ValueError("pushforward source mismatch")
    comps = {i: tuple(f.matrix.apply(list(v))) for i, v in e.comps.items()}
    return ExtClassHandle(f.target, comps)


# ---------------------------------------------------------------------------
# generator pairs: every i < j, with no pruning


def all_pairs(p):
    return [(i, j) for i in range(p.n_gens) for j in range(i + 1, p.n_gens)]


def validate_all_pairs(m):
    """``RepObject.validate`` checking the Lie-homomorphism identity on
    every generator pair."""
    problems = []
    p = m.presentation
    for i, mat in m.actions.items():
        if mat.shape != (m.dim, m.dim):
            problems.append(f"action {p.name_of(i)} has shape {mat.shape}")
            continue
        delta = p.degree(i)
        for a, b, c in mat.nonzero_entries():
            if m.characters[a] != add_deg(m.characters[b], delta):
                problems.append(f"equivariance: action {p.name_of(i)} entry ({a},{b})")
                break
    if problems:
        return problems
    for i, j in all_pairs(p):
        lhs = commutator(m.action(i), m.action(j))
        rhs = m.action_of_element(p.bracket(i, j))
        if lhs != rhs:
            problems.append(f"lie-hom: pair ({p.name_of(i)},{p.name_of(j)})")
            return problems
    return problems


def cocycle_defects_all_pairs(e):
    """``ExtClassHandle.cocycle_defects`` over every generator pair."""
    x = e.target
    bad = []
    for i, j in all_pairs(x.presentation):
        lhs = x.action(i).apply(list(e.component(j)))
        rhs = x.action(j).apply(list(e.component(i)))
        want = [ZERO] * x.dim
        for k, c in x.presentation.bracket(i, j).items():
            want = [w + c * t for w, t in zip(want, e.component(k))]
        if [a - b for a, b in zip(lhs, rhs)] != want:
            bad.append((i, j))
    return bad


def h1_basis_all_pairs(x):
    """``h1_basis`` with the cocycle constraints of every generator pair."""
    with mock.patch.object(cohomology, "_relevant_pairs",
                           lambda t, extra_support=(): all_pairs(t.presentation)):
        return cohomology.h1_basis(x)


# ---------------------------------------------------------------------------
# generator triples: every i < j < k, with no pruning


def all_triples(p):
    n = p.n_gens
    return [(i, j, k) for i in range(n) for j in range(i + 1, n) for k in range(j + 1, n)]


def validate_presentation_all_triples(p):
    """``validate_presentation`` checking the Jacobi identity on every
    generator triple."""
    if len(p.weight) != p.torus_rank:
        return PresentationReport(False, [Violation(
            "weight-length", (), "weight functional length != torus rank")])
    violations = []
    for i, g in enumerate(p.generators):
        if len(g.degree) != p.torus_rank:
            return PresentationReport(False, [Violation("degree-length", (i,),
                                                        f"generator {g.name}")])
        if p.gen_weight(i) >= 0:
            violations.append(Violation("nonnegative-weight", (i,),
                                        f"generator {g.name} has weight {p.gen_weight(i)}"))
    if violations:
        return PresentationReport(False, violations)
    for i, j in all_pairs(p):
        target = add_deg(p.degree(i), p.degree(j))
        for k, c in p.bracket(i, j).items():
            if c != 0 and p.degree(k) != target:
                return PresentationReport(False, [Violation(
                    "grading", (i, j, k),
                    f"bracket ({i},{j}) hits degree {p.degree(k)} != {target}")])
    for i, j, k in all_triples(p):
        acc = {}
        for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
            for m, coeff in p.bracket(a, b).items():
                p.bracket_into(m, c, acc, coeff)
        if acc:
            return PresentationReport(False, [Violation("jacobi", (i, j, k),
                                                        "Jacobi sum does not vanish")])
    return PresentationReport(True, [])


def h2_basis_all_triples(x):
    """``h2_basis`` with the two-cocycle constraints of every generator
    triple."""
    with mock.patch.object(GroupPresentation, "triples_with_degree_sum",
                           lambda p, degrees: all_triples(p)):
        return cohomology.h2_basis(x)


# ---------------------------------------------------------------------------
# Lyndon words: every word up to a length, filtered by weight


def duval_lyndon_words(alphabet_size, max_len):
    """Duval's generation of all Lyndon words of length <= max_len in
    lexicographic order."""
    w = [-1]
    while w:
        w[-1] += 1
        yield tuple(w)
        m = len(w)
        while len(w) < max_len:
            w.append(w[len(w) - m])
        while w and w[-1] == alphabet_size - 1:
            w.pop()


def filtered_duval(letter_weights, bound):
    max_len = max(1, bound // max(letter_weights))
    return [w for w in duval_lyndon_words(len(letter_weights), max_len)
            if sum(letter_weights[c] for c in w) >= bound]


def recursive_bracket_name(word, gen_names):
    if len(word) == 1:
        return gen_names[word[0]]
    u, v = standard_factorization(word)
    return f"[{recursive_bracket_name(u, gen_names)},{recursive_bracket_name(v, gen_names)}]"


# ---------------------------------------------------------------------------
# W_{-1}End(M) through the general subquotient


def _lower_end_subquotient(m):
    """The strictly-lowering block of End(M) as a ``subquotient``, with the
    map from End coordinates to subobject coordinates (None off the block)."""
    sq = subquotient_by_intersection(
        internal_hom(m, m), coordinate_subspace(strictly_lower_block(m), m.dim * m.dim))
    rows = sq.inclusion.matrix.transpose().data
    span = Subspace.from_vectors(rows, m.dim * m.dim)
    reorder = _reorder_coords(span, rows) if rows else None

    def corestrict(v):
        coords = span.coordinates_of(list(v))
        if coords is None or reorder is None:
            return coords
        return reorder.apply(coords)

    return sq, corestrict


def total_class_by_subquotient(m):
    """``total_class`` with its target built by ``subquotient`` and its
    components read through the subobject's coordinates."""
    sq, corestrict = _lower_end_subquotient(m)
    weights = m.weights()
    comps = {}
    if len(weights) >= 2:
        lo, hi = weights[0], weights[-1]
        for i, mat in m.actions.items():
            flat_end = [ZERO] * (m.dim * m.dim)
            touched = False
            for a, b, c in mat.nonzero_entries():
                wa, wb = m.weight_of(a), m.weight_of(b)
                mult = len([p for p in range(lo, hi) if wa <= p < wb])
                if mult:
                    flat_end[a * m.dim + b] = mult * c
                    touched = True
            if touched:
                comps[i] = tuple(corestrict(flat_end))
    return ExtClassHandle(sq.sub, comps, hom_source=m, hom_target=m,
                          embed=sq.inclusion)


def lower_end_class_by_subquotient(m, e):
    """``lower_end_class`` through the same subquotient."""
    sq, corestrict = _lower_end_subquotient(m)
    comps = {i: tuple(corestrict(e.embed.matrix.apply(list(v))))
             for i, v in e.comps.items()}
    return ExtClassHandle(sq.sub, comps, hom_source=m, hom_target=m,
                          embed=sq.inclusion)


# ---------------------------------------------------------------------------
# stable subspaces: closure by repeated full passes


def sample_stable_subspace_fixed_point(target, seed, avoid=None, tries=40):
    """``sample_stable_subspace`` closing each span by applying every action
    to every basis row until a whole pass adds nothing."""
    rng = random.Random(seed)
    dim = target.dim
    for _ in range(tries):
        k = rng.randint(1, max(1, dim - 1))
        rows = []
        chars = sorted(target.character_set())
        for _ in range(k):
            chi = chars[rng.randrange(len(chars))]
            idx = target.char_indices(chi)
            v = [ZERO] * dim
            for a in idx:
                if rng.random() < 0.6:
                    v[a] = rng.randint(-2, 2)
            if any(x != 0 for x in v):
                rows.append(v)
        if not rows:
            continue
        space = rref_basis(rows, dim)
        changed = True
        while changed:
            changed = False
            new_rows = space.basis_rows()
            for mat in target.actions.values():
                for row in space.basis_rows():
                    img = mat.apply(row)
                    if not space.contains(img):
                        new_rows.append(img)
                        changed = True
            if changed:
                space = rref_basis(new_rows, dim)
        if space.dim in (0, dim):
            continue
        if avoid is not None and space.contains_subspace(avoid):
            continue
        return space
    return None


# ---------------------------------------------------------------------------
# isomorphism and pair equivalence by a parameter ladder, power products and
# seeded random search


def is_isomorphic_ladder(m: RepObject, n: RepObject, max_params_exact: int = 3,
                         random_trials: int = 64, seed: int = 0) -> IsoResult:
    """``is_isomorphic`` as a decision ladder: invariants, then an exact
    polynomial identity test on the morphism space when it has few
    parameters, else seeded random search."""
    if not m.presentation.same_presentation(n.presentation):
        raise ValueError("presentation mismatch")
    if m.dim != n.dim:
        return IsoResult("no", reason="dimension mismatch")
    if m.character_multiset() != n.character_multiset():
        return IsoResult("no", reason="character multiset mismatch")
    if m.dim == 0:
        return IsoResult("yes", Mat.zeros(0, 0))
    space = morphism_space(m, n)
    k = space.dim
    if k == 0:
        return IsoResult("no", reason="zero morphism space")
    mats = [Mat.unflatten(list(r), n.dim, m.dim) for r in space.basis]

    def combo(ts):
        out = Mat.zeros(n.dim, m.dim)
        for t, b in zip(ts, mats):
            if t:
                out = out + b.scale(t)
        return out

    if k <= max_params_exact:
        deg = m.dim
        grids = [range(deg + 1)] * k
        for ts in itertools.product(*grids):
            c = combo([Fraction(t) for t in ts])
            if c.det() != 0:
                return IsoResult("yes", c)
        return IsoResult("no", reason="identically singular morphism pencil")
    rng = random.Random(seed)
    for _ in range(random_trials):
        ts = [Fraction(rng.randint(-8, 8)) for _ in range(k)]
        c = combo(ts)
        if c.det() != 0:
            return IsoResult("yes", c)
    return IsoResult("unknown", reason="random search exhausted")


def _components(m: RepObject) -> list[int]:
    """Connected components of the action graph; automorphisms of a
    multiplicity-free object are constant on them."""
    parent = list(range(m.dim))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for mat in m.actions.values():
        for a, b, c in mat.nonzero_entries():
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb
    return [find(a) for a in range(m.dim)]


def pair_equivalent_power_product(p1: CompatiblePair, p2: CompatiblePair,
                                  random_trials: int = 200,
                                  seed: int = 0) -> EquivalenceResult:
    """``pair_equivalent`` by power products: orbit equality under the
    automorphism scalings of B, A, C.

    Exact in the multiplicity-free regime (all automorphisms are diagonal and
    the orbit equations become solvable power-product systems over Q^*);
    otherwise a bounded seeded search that may return unknown.
    """
    for x, y in ((p1.b, p2.b), (p1.a, p2.a), (p1.c, p2.c)):
        if x.characters != y.characters:
            raise ValueError("pairs must share the three outer objects")
    if is_split(p1.l_class).split != is_split(p2.l_class).split \
            or is_split(p1.n_class).split != is_split(p2.n_class).split:
        return EquivalenceResult("not_equivalent", reason="splitness differs")

    if p1.l_class.same_class(p2.l_class) and p1.n_class.same_class(p2.n_class):
        return EquivalenceResult("equivalent")

    multiplicity_free = all(
        len(obj.character_multiset()) == len(obj.character_set())
        for obj in (p1.b, p1.a, p1.c))
    if not multiplicity_free:
        return _pair_equivalent_random(p1, p2, random_trials, seed)

    # zero patterns must agree (invertible scalings cannot change them)
    def pattern(cls):
        return {(i, k) for i, v in cls.comps.items() for k, x in enumerate(v) if x != 0}

    if pattern(p1.l_class) != pattern(p2.l_class) or \
            pattern(p1.n_class) != pattern(p2.n_class):
        return EquivalenceResult("not_equivalent", reason="support patterns differ")

    comp_b = _components(p1.b)
    comp_a = _components(p1.a)
    comp_c = _components(p1.c)
    var_index: dict[tuple[str, int], int] = {}

    def var(group, comp):
        key = (group, comp)
        if key not in var_index:
            var_index[key] = len(var_index)
        return var_index[key]

    exponent_rows: list[dict[int, int]] = []
    ratios: list[Fraction] = []
    for i, v in p1.l_class.comps.items():
        w = p2.l_class.comps[i]
        for k, x in enumerate(v):
            if x == 0:
                continue
            a_row, a_col = divmod(k, p1.a.dim)
            # L2 = beta_row * L1 * alpha_col
            row = {var("b", comp_b[a_row]): 1, var("a", comp_a[a_col]): 1}
            exponent_rows.append(row)
            ratios.append(w[k] / x)
    for i, v in p1.n_class.comps.items():
        w = p2.n_class.comps[i]
        for k, x in enumerate(v):
            if x == 0:
                continue
            a_row, c_col = divmod(k, p1.c.dim)
            # N2 = alpha_row^{-1} * N1 * gamma_col
            row = {var("a", comp_a[a_row]): -1, var("c", comp_c[c_col]): 1}
            exponent_rows.append(row)
            ratios.append(w[k] / x)

    n_vars = len(var_index)
    dense = [[r.get(j, 0) for j in range(n_vars)] for r in exponent_rows]
    primes = sorted({q for r in ratios for q in _prime_support(r)})
    transpose = [[dense[r][j] for r in range(len(dense))] for j in range(n_vars)]
    for q in primes:
        target = [_valuation(r, q) for r in ratios]
        if lattice_solve(transpose, target) is None:
            return EquivalenceResult("not_equivalent",
                                     reason=f"no scaling matches the {q}-adic pattern")
    signs = [0 if r > 0 else 1 for r in ratios]
    if solve_mod2(transpose, signs) is None:
        return EquivalenceResult("not_equivalent", reason="no scaling matches the signs")
    return EquivalenceResult("equivalent")


def _prime_support(r: Fraction):
    out = set()
    for n in (abs(r.numerator), r.denominator):
        d = 2
        while d * d <= n:
            if n % d == 0:
                out.add(d)
                while n % d == 0:
                    n //= d
            d += 1
        if n > 1:
            out.add(n)
    return out


def _valuation(r: Fraction, q: int) -> int:
    v = 0
    n = abs(r.numerator)
    while n % q == 0:
        n //= q
        v += 1
    d = r.denominator
    while d % q == 0:
        d //= q
        v -= 1
    return v


def _pair_equivalent_random(p1, p2, trials, seed) -> EquivalenceResult:
    rng = random.Random(seed)
    auts = {}
    for name, obj in (("b", p1.b), ("a", p1.a), ("c", p1.c)):
        space = morphism_space(obj, obj)
        auts[name] = [Mat.unflatten(list(r), obj.dim, obj.dim) for r in space.basis]

    def sample(name, obj):
        base = auts[name]
        for _ in range(8):
            m = Mat.zeros(obj.dim, obj.dim)
            for b in base:
                m = m + b.scale(Fraction(rng.randint(-3, 3)))
            if m.det() != 0:
                return m
        return Mat.identity(obj.dim)

    for _ in range(trials):
        fb, fa, fc = sample("b", p1.b), sample("a", p1.a), sample("c", p1.c)
        try:
            cand = pair_act(p1, fb, fa, fc)
        except ValueError:
            continue
        if cand.l_class.same_class(p2.l_class) and cand.n_class.same_class(p2.n_class):
            return EquivalenceResult("equivalent")
    return EquivalenceResult("unknown", reason="random search exhausted")


def lattice_solve(rows: Sequence[Sequence[int]], target: Sequence[int]) -> list[int] | None:
    """Integer coefficients x with x·rows = target, or None.

    Works by Hermite-reducing the generators while tracking the unimodular
    transform, then back-substituting with exact divisibility checks.
    """
    gens = [list(map(int, r)) for r in rows]
    target = list(map(int, target))
    if not gens:
        return [] if all(x == 0 for x in target) else None
    n = len(gens[0])
    if len(target) != n:
        raise ValueError("dimension mismatch")
    m = len(gens)
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    work = [r[:] for r in gens]
    piv = []
    r0 = 0
    for col in range(n):
        live = [r for r in range(r0, m) if work[r][col] != 0]
        if not live:
            continue
        while len(live) > 1:
            live.sort(key=lambda r: abs(work[r][col]))
            base = live[0]
            for r in live[1:]:
                q = work[r][col] // work[base][col]
                if q != 0:
                    work[r] = [x - q * y for x, y in zip(work[r], work[base])]
                    u[r] = [x - q * y for x, y in zip(u[r], u[base])]
            live = [r for r in live if work[r][col] != 0]
        base = live[0]
        if base != r0:
            work[base], work[r0] = work[r0], work[base]
            u[base], u[r0] = u[r0], u[base]
        if work[r0][col] < 0:
            work[r0] = [-x for x in work[r0]]
            u[r0] = [-x for x in u[r0]]
        piv.append((r0, col))
        r0 += 1
    coeffs = [0] * m
    residue = target[:]
    for r, col in piv:
        if residue[col] % work[r][col] != 0:
            return None
        q = residue[col] // work[r][col]
        coeffs[r] = q
        if q != 0:
            residue = [x - q * y for x, y in zip(residue, work[r])]
    if any(x != 0 for x in residue):
        return None
    out = [0] * m
    for r in range(m):
        if coeffs[r]:
            for j in range(m):
                out[j] += coeffs[r] * u[r][j]
    return out


def solve_mod2(rows: Sequence[Sequence[int]], target: Sequence[int]) -> list[int] | None:
    """Solve x·rows = target over F_2 (used for sign patterns)."""
    gens = [[x & 1 for x in r] for r in rows]
    b = [x & 1 for x in target]
    m = len(gens)
    if m == 0:
        return [] if all(x == 0 for x in b) else None
    n = len(gens[0])
    aug = [gens[i] + [1 if j == i else 0 for j in range(m)] for i in range(m)]
    r0 = 0
    pivots = []
    for col in range(n):
        pivot = next((r for r in range(r0, m) if aug[r][col]), None)
        if pivot is None:
            continue
        aug[r0], aug[pivot] = aug[pivot], aug[r0]
        for r in range(m):
            if r != r0 and aug[r][col]:
                aug[r] = [(x + y) & 1 for x, y in zip(aug[r], aug[r0])]
        pivots.append((r0, col))
        r0 += 1
    x = [0] * m
    residue = b[:]
    for r, col in pivots:
        if residue[col]:
            residue = [(u + v) & 1 for u, v in zip(residue, aug[r][:n])]
            for j in range(m):
                x[j] ^= aug[r][n + j]
    if any(residue):
        return None
    return x
