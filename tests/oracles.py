"""Slow reference paths kept as test oracles.

Each function here is a retired or brute-force form of something the
package now does faster.  Differential tests run both on the same inputs
and require identical answers; nothing under ``src/`` imports this module.
"""

from unittest import mock

from panache import cohomology
from panache.linalg import ZERO, commutator
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
