"""Group presentations: free graded Lie algebras, validation, Hall data."""

import random
from fractions import Fraction

import pytest

from oracles import filtered_duval, recursive_bracket_name
from panache.mixed_tate import build_mt_model
from panache.presentations import (_moebius, abelian_presentation,
                                   explicit_presentation, free_graded_lie,
                                   heisenberg_presentation, lyndon_words,
                                   necklace_count, validate_presentation)


def test_one_generator_is_abelian():
    p = free_graded_lie(1, (-2,), [(1,)], -6)
    assert p.n_gens == 1
    assert validate_presentation(p).ok


def test_heisenberg_shape():
    p = heisenberg_presentation()
    assert p.n_gens == 3
    assert [g.degree for g in p.generators] == [(1,), (1,), (2,)]
    assert p.bracket(0, 1) == {2: Fraction(1)}
    assert p.bracket(1, 0) == {2: Fraction(-1)}
    assert p.bracket(0, 2) == {}
    assert validate_presentation(p).ok


def test_five_dimensional_truncation():
    p = free_graded_lie(1, (-1,), [(1,), (1,)], -3, names=["x", "y"])
    assert p.n_gens == 5
    names = [g.name for g in p.generators]
    assert names[:3] == ["x", "y", "[x,y]"]
    assert set(names[3:]) == {"[x,[x,y]]", "[[x,y],y]"}
    assert validate_presentation(p).ok


@pytest.mark.parametrize("gens,bound", [(2, -4), (3, -4), (4, -3)])
def test_witt_dimensions(gens, bound):
    p = free_graded_lie(1, (-1,), [(1,)] * gens, bound)
    by_degree = {}
    for i in range(p.n_gens):
        by_degree[-p.gen_weight(i)] = by_degree.get(-p.gen_weight(i), 0) + 1
    for d, count in by_degree.items():
        assert count == necklace_count(gens, d)


def test_free_output_always_validates():
    for degrees, bound in [([(1,), (2,)], -5), ([(1,), (1,), (3,)], -4),
                           ([(1, 0), (0, 1)], -3)]:
        rank = len(degrees[0])
        weight = (-1,) * rank
        p = free_graded_lie(rank, weight, degrees, bound)
        assert validate_presentation(p).ok


def test_validate_reports_grading_violation():
    p = explicit_presentation(1, (-2,), [("x", (1,)), ("y", (1,)), ("z", (3,))],
                              {(0, 1): {2: 1}})
    report = validate_presentation(p)
    assert not report.ok
    assert report.first.code == "grading"
    assert report.first.indices == (0, 1, 2)


def test_validate_reports_jacobi_violation():
    # three generators with brackets violating the Jacobi identity on (0,1,2)
    p = explicit_presentation(
        1, (-1,),
        [("a", (1,)), ("b", (1,)), ("c", (1,)), ("ab", (2,)), ("bc", (2,)),
         ("ca", (2,)), ("abc", (3,))],
        {(0, 1): {3: 1}, (1, 2): {4: 1}, (0, 2): {5: -1},
         (0, 4): {6: 1}, (1, 5): {6: 1}, (2, 3): {6: 1}})
    report = validate_presentation(p)
    assert not report.ok
    assert report.first.code == "jacobi"
    assert report.first.indices == (0, 1, 2)


def test_validate_rejects_nonnegative_weight():
    p = explicit_presentation(1, (-1,), [("x", (0,))], {})
    report = validate_presentation(p)
    assert not report.ok
    assert report.first.code == "nonnegative-weight"


def test_abelian_presentation_validates():
    p = abelian_presentation(2, (-1, -1), [(1, 0), (0, 1)])
    assert validate_presentation(p).ok
    assert p.bracket(0, 1) == {}


def test_free_rejects_bad_arguments():
    with pytest.raises(ValueError):
        free_graded_lie(1, (-1,), [], -2)
    with pytest.raises(ValueError):
        free_graded_lie(1, (-1,), [(0,)], -2)
    with pytest.raises(ValueError):
        free_graded_lie(1, (-1,), [(3,)], -2)  # bound would discard a generator


def test_pairs_with_degree_sum_covers_mixed_orders():
    p = free_graded_lie(1, (-1,), [(1,), (2,)], -5)
    pairs = set(p.pairs_with_degree_sum((3,)))
    idx1 = set(p.gens_of_degree((1,)))
    idx2 = set(p.gens_of_degree((2,)))
    expected = {(min(i, j), max(i, j)) for i in idx1 for j in idx2 if i != j}
    assert pairs == expected


def test_pairs_touching_unions_supports_and_degree_sums():
    # basis x0, x1, [x0,x1], [x0,[x0,x1]], ... of degrees 1, 2, 3, 4, 5, 5
    p = free_graded_lie(1, (-1,), [(1,), (2,)], -5)
    # 1 against 0 and 2, then degree 5 = 1 + 4 = 2 + 3
    assert p.pairs_touching([1], [0, 2], [(5,)]) == [(0, 1), (0, 3), (1, 2)]
    # a shared index never pairs with itself, and both orders count once
    assert p.pairs_touching([0, 1], [1, 0], []) == [(0, 1)]


def test_pruned_lyndon_words_match_filtered_duval():
    rng = random.Random(20220115)
    for _ in range(150):
        letter_weights = [-rng.randint(1, 4) for _ in range(rng.randint(1, 5))]
        top = max(letter_weights)
        bound = rng.randint(7 * top + 1, top + 1)
        assert list(lyndon_words(letter_weights, bound)) == \
            filtered_duval(letter_weights, bound), (letter_weights, bound)


def test_lyndon_words_rejects_nonnegative_weight():
    with pytest.raises(ValueError):
        list(lyndon_words([-1, 0], -3))


@pytest.mark.parametrize("rank,weight,degrees,bound", [
    (1, (-1,), [(1,), (1,)], -5),
    (1, (-2,), [(3,), (1,), (1,), (5,)], -12),
    (1, (-1,), [(2,), (1,), (3,)], -7),
    (2, (-1, -1), [(1, 0), (0, 1), (1, 1)], -5),
    (2, (-1, -2), [(0, 1), (1, 0), (1, 1)], -7),
])
def test_free_graded_lie_matches_reference_enumeration(rank, weight, degrees, bound):
    names = [f"g{i}" for i in range(len(degrees))]
    p = free_graded_lie(rank, weight, degrees, bound, names=names)
    letter_weights = [sum(a * b for a, b in zip(weight, d)) for d in degrees]

    def word_weight(w):
        return sum(letter_weights[c] for c in w)

    kept = sorted(filtered_duval(letter_weights, bound),
                  key=lambda w: (-word_weight(w), len(w), w))
    assert p.free_meta.hall_words == tuple(kept)
    assert [g.name for g in p.generators] == \
        [recursive_bracket_name(w, names) for w in kept]
    assert [g.degree for g in p.generators] == \
        [tuple(sum(degrees[c][k] for c in w) for k in range(rank)) for w in kept]
    assert p.table.weights == [word_weight(w) for w in kept]


def graded_witt_dimensions(generator_degrees, max_degree):
    """dim L_n of the free Lie algebra on generators of the given positive
    degrees, for n <= max_degree: n dim L_n = sum_{d | n} mu(n/d) d c_d with
    c_N the coefficient of t^N in sum_m f(t)^m / m, f(t) = sum_i t^(deg_i)."""
    f = [0] * (max_degree + 1)
    for d in generator_degrees:
        f[d] += 1
    c = [Fraction(0)] * (max_degree + 1)
    power = [1] + [0] * max_degree          # f(t)^m, truncated
    for m in range(1, max_degree + 1):
        power = [sum(power[i] * f[n - i] for i in range(n + 1))
                 for n in range(max_degree + 1)]
        for n in range(max_degree + 1):
            c[n] += Fraction(power[n], m)
    dims = {}
    for n in range(1, max_degree + 1):
        total = sum(_moebius(n // d) * d * c[d] for d in range(1, n + 1) if n % d == 0)
        assert total.denominator == 1 and total.numerator % n == 0
        dims[n] = total.numerator // n
    return dims


def test_calibration_model_counts_match_graded_witt_formula():
    p = build_mt_model(9, 4)
    counts = {}
    for g in p.generators:
        counts[g.degree[0]] = counts.get(g.degree[0], 0) + 1
    expected = graded_witt_dimensions([3, 5, 7, 9, 1, 1, 1, 1], 9)
    assert counts == {n: d for n, d in expected.items() if d}
    assert sum(counts.values()) == 46_571
