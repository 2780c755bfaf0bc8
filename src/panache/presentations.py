"""Ambient group presentations: a split torus acting on a graded nilpotent
Lie algebra.

A presentation records the torus rank, the weight functional, an ordered
basis of the Lie algebra (each element carries a degree in Z^r with strictly
negative weight) and the structure constants.  Truncated free algebras are
built on a Lyndon-word basis; their structure constants are computed lazily
by rewriting in the tensor algebra, which stays exact and caches aggressively
so that large calibration models never materialise what they do not touch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Collection, Iterable, Sequence

from .linalg import ONE, ZERO, rat

Degree = tuple[int, ...]
Word = tuple[int, ...]


@dataclass(frozen=True)
class Generator:
    name: str
    degree: Degree


def dot(w: Sequence[int], d: Sequence[int]) -> int:
    return sum(a * b for a, b in zip(w, d, strict=True))


def add_deg(a: Degree, b: Degree) -> Degree:
    return tuple(x + y for x, y in zip(a, b, strict=True))


# ---------------------------------------------------------------------------
# free Lie machinery on Lyndon words


def _is_lyndon(w: Word) -> bool:
    return all(w < w[i:] for i in range(1, len(w)))


def lyndon_words(letter_weights: Sequence[int], weight_bound: int) -> Iterable[Word]:
    """The Lyndon words of weight >= ``weight_bound`` in lexicographic order,
    where letter c weighs ``letter_weights[c]`` and a word the sum of its
    letters.

    A depth-first walk of the prenecklace tree (Cattell, Ruskey, Sawada,
    Serra, Miers 2000) on an explicit stack: a node is a prenecklace w with
    its period p, its children are w·j for letters j >= w[len(w) - p], and
    it is Lyndon exactly when p == len(w).  Every letter weight is negative,
    so a prefix below the bound is cut together with its whole subtree and
    only prenecklaces of weight >= ``weight_bound`` are visited.
    """
    if any(lw >= 0 for lw in letter_weights):
        raise ValueError("letter weights must be negative")
    top = len(letter_weights) - 1
    # (word, period, weight); children are pushed in reverse letter order
    # so that they pop in lexicographic order
    stack = [((j,), 1, letter_weights[j]) for j in range(top, -1, -1)
             if letter_weights[j] >= weight_bound]
    while stack:
        w, p, wt = stack.pop()
        n = len(w)
        if p == n:
            yield w
        first = w[n - p]
        for j in range(top, first - 1, -1):
            child_wt = wt + letter_weights[j]
            if child_wt >= weight_bound:
                stack.append((w + (j,), p if j == first else n + 1, child_wt))


def standard_factorization(w: Word) -> tuple[Word, Word]:
    """Split a Lyndon word as u·v with v the lexicographically least
    proper suffix; both factors are Lyndon and define the bracketing."""
    assert len(w) >= 2
    v = min(w[i:] for i in range(1, len(w)))
    return w[: len(w) - len(v)], v


class FreeLieEngine:
    """Bracket arithmetic for a free Lie algebra on an ordered alphabet.

    Basis elements are Lyndon words.  ``expand`` gives the tensor-algebra
    expansion of the bracketing of a Lyndon word; ``rewrite`` inverts it by
    eliminating lexicographically minimal words, using the triangularity of
    the Lyndon basis.
    """

    def __init__(self, alphabet_size: int):
        self.alphabet_size = alphabet_size
        self._expansions: dict[Word, dict[Word, Fraction]] = {}

    def expand(self, w: Word) -> dict[Word, Fraction]:
        cached = self._expansions.get(w)
        if cached is not None:
            return cached
        if len(w) == 1:
            out = {w: ONE}
        else:
            u, v = standard_factorization(w)
            out = self._commute(self.expand(u), self.expand(v))
        self._expansions[w] = out
        return out

    @staticmethod
    def _commute(p: dict[Word, Fraction], q: dict[Word, Fraction]) -> dict[Word, Fraction]:
        out: dict[Word, Fraction] = {}
        for wa, ca in p.items():
            for wb, cb in q.items():
                c = ca * cb
                for word, sign in ((wa + wb, c), (wb + wa, -c)):
                    acc = out.get(word, ZERO) + sign
                    if acc == 0:
                        out.pop(word, None)
                    else:
                        out[word] = acc
        return out

    def bracket_words(self, a: Word, b: Word) -> dict[Word, Fraction]:
        """[b(a), b(b)] expressed in the Lyndon basis."""
        if a == b:
            return {}
        poly = self._commute(self.expand(a), self.expand(b))
        return self.rewrite(poly)

    def rewrite(self, poly: dict[Word, Fraction]) -> dict[Word, Fraction]:
        """Rewrite a Lie element of the tensor algebra in the Lyndon basis."""
        work = dict(poly)
        out: dict[Word, Fraction] = {}
        while work:
            w = min(work)
            c = work.pop(w)
            if c == 0:
                continue
            if not _is_lyndon(w):
                raise ArithmeticError(f"non-Lie element: stray word {w}")
            out[w] = out.get(w, ZERO) + c
            for word, coeff in self.expand(w).items():
                if word == w:
                    continue
                acc = work.get(word, ZERO) - c * coeff
                if acc == 0:
                    work.pop(word, None)
                else:
                    work[word] = acc
        return {w: c for w, c in out.items() if c != 0}


@dataclass
class FreeMeta:
    """Marks a presentation as a weight-truncated free Lie algebra."""

    generator_degrees: tuple[Degree, ...]
    weight_bound: int
    hall_words: tuple[Word, ...]
    engine: FreeLieEngine
    word_index: dict[Word, int]

    def generator_indices(self) -> list[int]:
        return [i for i, w in enumerate(self.hall_words) if len(w) == 1]


class _ExplicitTable:
    def __init__(self, table: dict[tuple[int, int], dict[int, Fraction]]):
        self.table = {k: dict(v) for k, v in table.items()}

    def bracket(self, i: int, j: int) -> dict[int, Fraction]:
        return self.table.get((i, j), {})


class _FreeTable:
    """Lazy structure constants backed by a FreeLieEngine."""

    def __init__(self, meta: FreeMeta, weights: Sequence[int], weight_bound: int):
        self.meta = meta
        self.weights = list(weights)
        self.weight_bound = weight_bound
        self._cache: dict[tuple[int, int], dict[int, Fraction]] = {}

    def bracket(self, i: int, j: int) -> dict[int, Fraction]:
        key = (i, j)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        if self.weights[i] + self.weights[j] < self.weight_bound:
            out: dict[int, Fraction] = {}
        else:
            words = self.meta.engine.bracket_words(self.meta.hall_words[i],
                                                   self.meta.hall_words[j])
            out = {self.meta.word_index[w]: c for w, c in words.items()}
        self._cache[key] = out
        return out


@dataclass
class GroupPresentation:
    """The ambient group: a rank-r torus acting on a graded nilpotent Lie
    algebra with the given basis and structure constants."""

    torus_rank: int
    weight: tuple[int, ...]
    generators: tuple[Generator, ...]
    table: object
    free_meta: FreeMeta | None = None
    _by_degree: dict[Degree, list[int]] | None = field(default=None, repr=False)
    _name_index: dict[str, int] | None = field(default=None, repr=False)

    # -- basic queries ------------------------------------------------------

    @property
    def n_gens(self) -> int:
        return len(self.generators)

    def degree(self, i: int) -> Degree:
        return self.generators[i].degree

    def gen_weight(self, i: int) -> int:
        return dot(self.weight, self.generators[i].degree)

    def name_of(self, i: int) -> str:
        return self.generators[i].name

    def index_of(self, name: str) -> int:
        if self._name_index is None:
            self._name_index = {g.name: i for i, g in enumerate(self.generators)}
        return self._name_index[name]

    def gens_of_degree(self, degree: Degree) -> list[int]:
        if self._by_degree is None:
            by_degree: dict[Degree, list[int]] = {}
            for i, g in enumerate(self.generators):
                by_degree.setdefault(g.degree, []).append(i)
            self._by_degree = by_degree
        return self._by_degree.get(tuple(degree), [])

    def occurring_degrees(self) -> list[Degree]:
        self.gens_of_degree(tuple([0] * self.torus_rank))
        return sorted(self._by_degree.keys())

    def signature(self) -> tuple:
        return (self.torus_rank, self.weight, self.generators)

    def same_presentation(self, other: GroupPresentation) -> bool:
        return self is other or self.signature() == other.signature()

    # -- brackets -----------------------------------------------------------

    def bracket(self, i: int, j: int) -> dict[int, Fraction]:
        """[b_i, b_j] as a sparse coefficient vector (any index order)."""
        if i == j:
            return {}
        if i < j:
            return self.table.bracket(i, j)
        return {k: -c for k, c in self.table.bracket(j, i).items()}

    def bracket_into(self, i: int, j: int, out: dict[int, Fraction], scale: Fraction) -> None:
        for k, c in self.bracket(i, j).items():
            acc = out.get(k, ZERO) + scale * c
            if acc == 0:
                out.pop(k, None)
            else:
                out[k] = acc

    def pairs_with_degree_sum(self, degree: Degree) -> set[tuple[int, int]]:
        """All pairs i < j with degree(i) + degree(j) == degree."""
        pairs = set()
        for d1 in self.occurring_degrees():
            seconds = self.gens_of_degree(tuple(x - y for x, y in zip(degree, d1)))
            pairs.update((min(i, j), max(i, j))
                         for i in self.gens_of_degree(d1) for j in seconds if i != j)
        return pairs

    def triples_with_degree_sum(self, degrees: Iterable[Degree]) -> list[tuple[int, int, int]]:
        """The sorted triples i < j < k with degree(i) + degree(j) +
        degree(k) in ``degrees``: each occurring degree for k, then the
        pairs on what is left."""
        triples = set()
        for d in set(degrees):
            for d3 in self.occurring_degrees():
                pairs = self.pairs_with_degree_sum(tuple(x - y for x, y in zip(d, d3)))
                triples.update(tuple(sorted((i, j, k))) for k in self.gens_of_degree(d3)
                               for i, j in pairs if k != i and k != j)
        return sorted(triples)

    def pairs_touching(self, left: Collection[int], right: Collection[int],
                       degree_sums: Iterable[Degree]) -> list[tuple[int, int]]:
        """The sorted pairs i < j with one index in ``left`` and the other in
        ``right``, or with degree(i) + degree(j) in ``degree_sums``.

        A Lie-homomorphism or cocycle identity lives on the degree sum, so it
        can fail only where that sum is a degree the object sees, and passes
        no supports; ``blend`` passes its acting generators, since its cup
        term L_i N_j is not graded by the sum alone.  This needs the grading
        invariant of ``validate_presentation`` (every b_k in [b_i, b_j] has
        degree(k) = degree(i) + degree(j)), which free and abelian
        presentations meet by construction and ``presentation_from_json``
        checks before any object loads.  Sorting keeps the first failing pair
        the one an all-pairs scan reports.
        """
        pairs = {(min(i, j), max(i, j)) for i in left for j in right if i != j}
        for d in degree_sums:
            pairs |= self.pairs_with_degree_sum(d)
        return sorted(pairs)

    def materialized_brackets(self) -> dict[tuple[int, int], dict[int, Fraction]]:
        out = {}
        for i in range(self.n_gens):
            for j in range(i + 1, self.n_gens):
                b = self.bracket(i, j)
                if b:
                    out[(i, j)] = b
        return out


def explicit_presentation(torus_rank: int,
                          weight: Sequence[int],
                          generators: Sequence[tuple[str, Sequence[int]]],
                          brackets: dict[tuple[int, int], dict[int, object]] | None = None,
                          ) -> GroupPresentation:
    gens = tuple(Generator(name, tuple(int(x) for x in deg)) for name, deg in generators)
    table = _ExplicitTable({
        (i, j): {int(k): rat(c) for k, c in coeffs.items() if rat(c) != 0}
        for (i, j), coeffs in (brackets or {}).items()
    })
    return GroupPresentation(torus_rank, tuple(int(x) for x in weight), gens, table)


def tate_convention() -> tuple[int, tuple[int, ...]]:
    """Rank-1 torus with weight functional (-2): character a has weight -2a."""
    return 1, (-2,)


def free_graded_lie(torus_rank: int,
                    weight: Sequence[int],
                    generator_degrees: Sequence[Sequence[int]],
                    weight_bound: int,
                    names: Sequence[str] | None = None) -> GroupPresentation:
    """Free graded Lie algebra on the given generators, truncated by
    discarding every Lyndon-basis element of weight below ``weight_bound``.

    Only the kept Lyndon words are enumerated (``lyndon_words`` prunes every
    prefix below the bound).  Basis order: weight descending (towards the
    bound), then word length, then the generating word itself.  The standard
    factors of a word weigh more than the word, so they precede it, and one
    pass over the sorted basis builds each name and degree from theirs.
    Elements of one degree share one degree tuple and one weight int.
    """
    weight = tuple(int(x) for x in weight)
    degrees = [tuple(int(x) for x in d) for d in generator_degrees]
    if not degrees:
        raise ValueError("empty generator list")
    gen_weights = [dot(weight, d) for d in degrees]
    for d, gw in zip(degrees, gen_weights):
        if gw >= 0:
            raise ValueError(f"generator degree {d} has nonnegative weight {gw}")
        if weight_bound > gw:
            raise ValueError("weight_bound must not discard a generator")
    if names is None:
        names = [f"x{i}" for i in range(len(degrees))]

    kept = sorted(lyndon_words(gen_weights, weight_bound),
                  key=lambda w: (-sum(gen_weights[c] for c in w), len(w), w))
    word_index = {w: i for i, w in enumerate(kept)}

    shared: dict[Degree, tuple[Degree, int]] = {}
    gens: list[Generator] = []
    weights: list[int] = []
    for w in kept:
        if len(w) == 1:
            name, degree = names[w[0]], degrees[w[0]]
        else:
            u, v = standard_factorization(w)
            a, b = gens[word_index[u]], gens[word_index[v]]
            name, degree = f"[{a.name},{b.name}]", add_deg(a.degree, b.degree)
        entry = shared.get(degree)
        if entry is None:
            entry = shared[degree] = (degree, dot(weight, degree))
        degree, wt = entry
        gens.append(Generator(name, degree))
        weights.append(wt)

    engine = FreeLieEngine(len(degrees))
    meta = FreeMeta(tuple(degrees), int(weight_bound), tuple(kept), engine, word_index)
    table = _FreeTable(meta, weights, int(weight_bound))
    return GroupPresentation(torus_rank, weight, tuple(gens), table, free_meta=meta)


# ---------------------------------------------------------------------------
# validation


@dataclass
class Violation:
    code: str
    indices: tuple
    detail: str


@dataclass
class PresentationReport:
    ok: bool
    violations: list[Violation]

    @property
    def first(self) -> Violation | None:
        return self.violations[0] if self.violations else None


def validate_presentation(p: GroupPresentation) -> PresentationReport:
    """Check the presentation invariants; violations are report payload."""
    violations: list[Violation] = []

    if len(p.weight) != p.torus_rank:
        violations.append(Violation("weight-length", (), "weight functional length != torus rank"))
        return PresentationReport(False, violations)

    for i, g in enumerate(p.generators):
        if len(g.degree) != p.torus_rank:
            violations.append(Violation("degree-length", (i,), f"generator {g.name}"))
            return PresentationReport(False, violations)
        if p.gen_weight(i) >= 0:
            violations.append(
                Violation("nonnegative-weight", (i,),
                          f"generator {g.name} has weight {p.gen_weight(i)}"))

    if violations:
        return PresentationReport(False, violations)

    n = p.n_gens
    for i in range(n):
        for j in range(i + 1, n):
            target = add_deg(p.degree(i), p.degree(j))
            for k, c in p.bracket(i, j).items():
                if c != 0 and p.degree(k) != target:
                    violations.append(
                        Violation("grading", (i, j, k),
                                  f"bracket ({i},{j}) hits degree {p.degree(k)} != {target}"))
                    return PresentationReport(False, violations)

    # the Jacobi sum of b_i, b_j, b_k lives on the degree sum
    for i, j, k in p.triples_with_degree_sum(p.occurring_degrees()):
        acc: dict[int, Fraction] = {}
        for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
            for m, coeff in p.bracket(a, b).items():
                p.bracket_into(m, c, acc, coeff)
        if acc:
            violations.append(Violation("jacobi", (i, j, k), "Jacobi sum does not vanish"))
            return PresentationReport(False, violations)

    return PresentationReport(True, [])


def necklace_count(g: int, d: int) -> int:
    """Witt dimension of the degree-d slice of the free Lie algebra on g
    equal-degree generators; used as an independent cross-check."""
    total = 0
    for e in range(1, d + 1):
        if d % e == 0:
            total += _moebius(e) * g ** (d // e)
    return total // d


@lru_cache(maxsize=None)
def _moebius(n: int) -> int:
    if n == 1:
        return 1
    result = 1
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            result = -result
        p += 1
    if m > 1:
        result = -result
    return result


def heisenberg_presentation() -> GroupPresentation:
    """Two weight -1 generators plus their bracket (smallest nonabelian case)."""
    return free_graded_lie(1, (-1,), [(1,), (1,)], -2, names=["x", "y"])


def abelian_presentation(torus_rank: int, weight: Sequence[int],
                         degrees: Sequence[Sequence[int]],
                         names: Sequence[str] | None = None) -> GroupPresentation:
    """Abelian Lie algebra on the given generators (all brackets zero)."""
    if names is None:
        names = [f"x{i}" for i in range(len(degrees))]
    return explicit_presentation(torus_rank, weight,
                                 list(zip(names, degrees)), {})
