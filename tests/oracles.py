"""Slow reference paths kept as test oracles.

Each function here is a retired or brute-force form of something the
package now does faster.  Differential tests run both on the same inputs
and require identical answers; nothing under ``src/`` imports this module.
"""

import random
from unittest import mock

from panache import cohomology
from panache.cohomology import ExtClassHandle
from panache.galois import strictly_lower_block
from panache.linalg import ZERO, Subspace, commutator, rref_basis
from panache.objects import _reorder_coords, internal_hom, subquotient
from panache.presentations import add_deg, standard_factorization


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
    sq = subquotient(internal_hom(m, m), strictly_lower_block(m))
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
