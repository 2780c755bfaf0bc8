"""Objects and morphisms of the model category: multigraded vector spaces
with equivariant nilpotent actions.

An object stores a character for every basis vector and one action matrix
per Lie algebra basis element (sparsely: absent means zero).  The weight of
a basis vector is the weight functional applied to its character, and the
weight filtration is the span of basis vectors of weight <= n.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .linalg import (Mat, ONE, ZERO, Subspace, commutator, intersect_subspaces,
                     kernel_basis)
from .presentations import GroupPresentation, add_deg, dot

Character = tuple[int, ...]


@dataclass
class RepObject:
    presentation: GroupPresentation
    labels: tuple[str, ...]
    characters: tuple[Character, ...]
    actions: dict[int, Mat] = field(default_factory=dict)

    def __post_init__(self):
        self.actions = {i: m for i, m in self.actions.items() if not m.is_zero()}

    # -- basic queries ------------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self.characters)

    def weight_of(self, a: int) -> int:
        return dot(self.presentation.weight, self.characters[a])

    def weights(self) -> list[int]:
        return sorted({self.weight_of(a) for a in range(self.dim)})

    def min_weight(self) -> int:
        return min(self.weights()) if self.dim else 0

    def max_weight(self) -> int:
        return max(self.weights()) if self.dim else 0

    def character_set(self) -> set[Character]:
        return set(self.characters)

    def character_multiset(self) -> tuple[Character, ...]:
        return tuple(sorted(self.characters))

    def action(self, i: int) -> Mat:
        m = self.actions.get(i)
        return m if m is not None else Mat.zeros(self.dim, self.dim)

    def action_support(self) -> list[int]:
        return sorted(self.actions.keys())

    def action_of_element(self, coeffs: dict[int, Fraction]) -> Mat:
        out = Mat.zeros(self.dim, self.dim)
        for i, c in coeffs.items():
            m = self.actions.get(i)
            if m is not None and c != 0:
                out = out + m.scale(c)
        return out

    def indices_of_weight_leq(self, n: int) -> list[int]:
        return [a for a in range(self.dim) if self.weight_of(a) <= n]

    def char_indices(self, chi: Character) -> list[int]:
        return [a for a in range(self.dim) if self.characters[a] == tuple(chi)]

    def is_semisimple_model(self) -> bool:
        """In the model, semisimple = all actions vanish."""
        return not self.actions

    # -- validation ---------------------------------------------------------

    def validate(self) -> list[str]:
        """Equivariance and Lie-homomorphism checks; empty list means pass.
        [A_i, A_j] = A_[b_i,b_j] is checked, in index order, only where it can
        fail: both generators act, or degree(i) + degree(j) is a nonzero
        character difference (``GroupPresentation.pairs_touching``)."""
        problems: list[str] = []
        p = self.presentation
        for i, m in self.actions.items():
            if m.shape != (self.dim, self.dim):
                problems.append(f"action {p.name_of(i)} has shape {m.shape}")
                continue
            delta = p.degree(i)
            for a, b, c in m.nonzero_entries():
                if self.characters[a] != add_deg(self.characters[b], delta):
                    problems.append(
                        f"equivariance: action {p.name_of(i)} entry ({a},{b})")
                    break
        if problems:
            return problems
        chars, support = self.character_set(), self.action_support()
        char_diffs = {tuple(x - y for x, y in zip(ca, cb))
                      for ca in chars for cb in chars if ca != cb}
        for i, j in p.pairs_touching(support, support, char_diffs):
            lhs = commutator(self.action(i), self.action(j))
            rhs = self.action_of_element(p.bracket(i, j))
            if lhs != rhs:
                problems.append(f"lie-hom: pair ({p.name_of(i)},{p.name_of(j)})")
                return problems
        return problems


@dataclass
class Morphism:
    source: RepObject
    target: RepObject
    matrix: Mat

    def validate(self) -> list[str]:
        problems = []
        f = self.matrix
        if f.shape != (self.target.dim, self.source.dim):
            return [f"shape {f.shape} does not map {self.source.dim} -> {self.target.dim}"]
        for a, b, c in f.nonzero_entries():
            if self.target.characters[a] != self.source.characters[b]:
                problems.append(f"character mismatch at ({a},{b})")
                return problems
        for i in set(self.source.actions) | set(self.target.actions):
            if f.matmul(self.source.action(i)) != self.target.action(i).matmul(f):
                problems.append(f"does not intertwine generator {self.source.presentation.name_of(i)}")
                return problems
        return problems

    @staticmethod
    def identity(m: RepObject) -> Morphism:
        return Morphism(m, m, Mat.identity(m.dim))


# ---------------------------------------------------------------------------
# constructors


def unit_object(p: GroupPresentation) -> RepObject:
    chi = tuple([0] * p.torus_rank)
    return RepObject(p, ("1",), (chi,), {})


def simple_character(p: GroupPresentation, chi) -> RepObject:
    if isinstance(chi, int):
        chi = (chi,) * 1 if p.torus_rank == 1 else None
        if chi is None:
            raise ValueError("integer character only valid at torus rank 1")
    chi = tuple(int(x) for x in chi)
    if len(chi) != p.torus_rank:
        raise ValueError("character length mismatch")
    label = "Q(" + ",".join(str(x) for x in chi) + ")"
    return RepObject(p, (label,), (chi,), {})


def direct_sum(m: RepObject, n: RepObject) -> RepObject:
    _same_presentation(m, n)
    labels = tuple(f"l.{x}" for x in m.labels) + tuple(f"r.{x}" for x in n.labels)
    chars = m.characters + n.characters
    actions: dict[int, Mat] = {}
    for i in set(m.actions) | set(n.actions):
        out = Mat.zeros(m.dim + n.dim, m.dim + n.dim)
        for a, b, c in m.action(i).nonzero_entries():
            out.data[a][b] = c
        for a, b, c in n.action(i).nonzero_entries():
            out.data[m.dim + a][m.dim + b] = c
        actions[i] = out
    return RepObject(m.presentation, labels, chars, actions)


def tensor_product(m: RepObject, n: RepObject) -> RepObject:
    _same_presentation(m, n)
    labels = tuple(f"{x}*{y}" for x in m.labels for y in n.labels)
    chars = tuple(add_deg(cm, cn) for cm in m.characters for cn in n.characters)
    actions: dict[int, Mat] = {}
    eye_m, eye_n = Mat.identity(m.dim), Mat.identity(n.dim)
    from .linalg import kron
    for i in set(m.actions) | set(n.actions):
        actions[i] = kron(m.action(i), eye_n) + kron(eye_m, n.action(i))
    return RepObject(m.presentation, labels, chars, actions)


def dual(m: RepObject) -> RepObject:
    labels = tuple(f"{x}^" for x in m.labels)
    chars = tuple(tuple(-x for x in chi) for chi in m.characters)
    actions = {i: a.transpose().scale(-1) for i, a in m.actions.items()}
    return RepObject(m.presentation, labels, chars, actions)


def internal_hom(m: RepObject, n: RepObject) -> RepObject:
    """Hom(M, N): basis e_(a,b) at index a*dim(M)+b, character chi_N(a)-chi_M(b),
    action f -> rho_N f - f rho_M."""
    _same_presentation(m, n)
    labels = tuple(f"{ln}@{lm}" for ln in n.labels for lm in m.labels)
    chars = tuple(tuple(x - y for x, y in zip(cn, cm))
                  for cn in n.characters for cm in m.characters)
    from .linalg import kron
    eye_m, eye_n = Mat.identity(m.dim), Mat.identity(n.dim)
    actions: dict[int, Mat] = {}
    for i in set(m.actions) | set(n.actions):
        actions[i] = kron(n.action(i), eye_m) - kron(eye_n, m.action(i).transpose())
    return RepObject(m.presentation, labels, chars, actions)


def _same_presentation(m: RepObject, n: RepObject) -> None:
    if not m.presentation.same_presentation(n.presentation):
        raise ValueError("presentation mismatch")


# ---------------------------------------------------------------------------
# weight filtration, subquotients


def weight_filtration(m: RepObject, n: int) -> Morphism:
    """Inclusion of W_n M = span of basis vectors of weight <= n."""
    idx = m.indices_of_weight_leq(n)
    sub = _restrict(m, idx, suffix=f"|w<={n}")
    incl = Mat.zeros(m.dim, len(idx))
    for col, a in enumerate(idx):
        incl.data[a][col] = ONE
    return Morphism(sub, m, incl)


def weight_quotient(m: RepObject, n: int) -> Morphism:
    """Projection M -> M / W_n M (spanned by the basis vectors of weight > n)."""
    idx = [a for a in range(m.dim) if m.weight_of(a) > n]
    quo = _restrict(m, idx, suffix=f"|w>{n}")
    proj = Mat.zeros(len(idx), m.dim)
    for row, a in enumerate(idx):
        proj.data[row][a] = ONE
    return Morphism(m, quo, proj)


def _restrict(m: RepObject, idx: list[int], suffix: str = "") -> RepObject:
    labels = tuple(m.labels[a] + suffix for a in idx)
    chars = tuple(m.characters[a] for a in idx)
    actions = {}
    for i, a in m.actions.items():
        out = Mat.zeros(len(idx), len(idx))
        for r, ar in enumerate(idx):
            for c, ac in enumerate(idx):
                out.data[r][c] = a.data[ar][ac]
        if not out.is_zero():
            actions[i] = out
    return RepObject(m.presentation, labels, chars, actions)


def gr_object(m: RepObject) -> RepObject:
    """Associated graded: same graded space, all actions zeroed."""
    return RepObject(m.presentation, tuple(f"gr.{x}" for x in m.labels), m.characters, {})


@dataclass
class Subquotient:
    sub: RepObject
    inclusion: Morphism
    quotient: RepObject
    projection: Morphism


def subquotient(m: RepObject, s: Subspace) -> Subquotient:
    """Subobject on an action-stable character-homogeneous subspace, plus the
    quotient, with canonical maps."""
    if s.ambient_dim != m.dim:
        raise ValueError("ambient dimension mismatch")
    # homogeneity: the span must decompose across characters
    pieces: list[tuple[Character, list[Fraction]]] = []
    total = 0
    for chi in sorted(m.character_set()):
        coords = m.char_indices(chi)
        block = Subspace.from_vectors(
            [[ONE if a == c else ZERO for a in range(m.dim)] for c in coords], m.dim)
        part = intersect_subspaces(s, block)
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

    # quotient on the complement of the pivot coordinates
    pivots = set(span.pivots())
    comp = [a for a in range(m.dim) if a not in pivots]
    q = len(comp)
    proj = Mat.zeros(q, m.dim)
    for row, cidx in enumerate(comp):
        proj.data[row][cidx] = ONE
    for piv_row, piv_col in zip(span.basis, span.pivots()):
        # e_{piv_col} = (basis row) - (its non-pivot tail); reduce classes accordingly
        for row, cidx in enumerate(comp):
            proj.data[row][piv_col] = -piv_row[cidx]
    emb = Mat.zeros(m.dim, q)
    for col, cidx in enumerate(comp):
        emb.data[cidx][col] = ONE
    quo_chars = tuple(m.characters[a] for a in comp)
    quo_actions = {}
    for i, a in m.actions.items():
        mat = proj.matmul(a).matmul(emb)
        if not mat.is_zero():
            quo_actions[i] = mat
    quotient = RepObject(m.presentation, tuple(m.labels[a] + "~" for a in comp),
                         quo_chars, quo_actions)
    projection = Morphism(m, quotient, proj)
    return Subquotient(sub, inclusion, quotient, projection)


def _reorder_coords(span: Subspace, rows: list[list[Fraction]]) -> Mat:
    """Change of coordinates from the RREF basis of span to the given rows."""
    k = len(rows)
    # rows expressed in RREF coordinates form the matrix R with rows = coords
    r = Mat.zeros(k, k)
    for i, v in enumerate(rows):
        coords = span.coordinates_of(v)
        for j, c in enumerate(coords):
            r.data[i][j] = c
    # vector with RREF coords x corresponds to homogeneous coords y with Rᵗ y = x
    return r.transpose().inverse()


# ---------------------------------------------------------------------------
# morphism spaces and isomorphism testing


def morphism_space(m: RepObject, n: RepObject) -> Subspace:
    """Subspace of Hom(ωM, ωN) (flat row-major coords) intertwining the actions."""
    _same_presentation(m, n)
    allowed = [(a, b) for a in range(n.dim) for b in range(m.dim)
               if n.characters[a] == m.characters[b]]
    if not allowed:
        return Subspace.zero(n.dim * m.dim)
    pos = {ab: k for k, ab in enumerate(allowed)}
    rows = []
    for i in sorted(set(m.actions) | set(n.actions)):
        am, an = m.action(i), n.action(i)
        # F A_m - A_n F = 0, one equation per (row a, col b)
        for a in range(n.dim):
            for b in range(m.dim):
                row = [ZERO] * len(allowed)
                touched = False
                for (x, y), k in pos.items():
                    c = ZERO
                    if x == a and am.data[y][b] != 0:
                        c += am.data[y][b]
                    if y == b and an.data[a][x] != 0:
                        c -= an.data[a][x]
                    if c != 0:
                        row[k] = c
                        touched = True
                if touched:
                    rows.append(row)
    if rows:
        sol = kernel_basis(Mat.from_rows(rows))
    else:
        sol = [[ONE if i == k else ZERO for i in range(len(allowed))] for k in range(len(allowed))]
    full = []
    for v in sol:
        flat = [ZERO] * (n.dim * m.dim)
        for k, (a, b) in enumerate(allowed):
            flat[a * m.dim + b] = v[k]
        full.append(flat)
    return Subspace.from_vectors(full, n.dim * m.dim) if full else Subspace.zero(n.dim * m.dim)


@dataclass
class IsoResult:
    status: str  # "yes" | "no" | "unknown"
    witness: Mat | None = None
    reason: str = ""

    def __bool__(self):
        return self.status == "yes"


def is_isomorphic(m: RepObject, n: RepObject, max_params_exact: int = 3,
                  random_trials: int = 64, seed: int = 0) -> IsoResult:
    """Decision ladder: invariants, then an exact polynomial identity test on
    the morphism space when it has few parameters, else seeded random search."""
    _same_presentation(m, n)
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
        import itertools as _it
        for ts in _it.product(*grids):
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


# ---------------------------------------------------------------------------
# random objects


def random_object(p: GroupPresentation,
                  character_multiset: Sequence[Sequence[int] | int],
                  density: float,
                  seed: int) -> RepObject:
    """Random object on a truncated-free presentation, deterministic in seed.

    Free generators get random sparse equivariant matrices; every other basis
    element acts by the corresponding bracket.  Characters must have pairwise
    weight differences within the truncation bound, which is exactly the
    regime where a free assignment always extends.
    """
    meta = p.free_meta
    if meta is None:
        raise ValueError("random_object requires a truncated-free presentation")
    chars: list[Character] = []
    for chi in character_multiset:
        if isinstance(chi, int):
            if p.torus_rank != 1:
                raise ValueError("integer characters only at torus rank 1")
            chars.append((chi,))
        else:
            chars.append(tuple(int(x) for x in chi))
    for ca in chars:
        for cb in chars:
            d = dot(p.weight, tuple(x - y for x, y in zip(ca, cb)))
            if d < 0 and d < meta.weight_bound:
                raise ValueError(
                    f"character spread exceeds the truncation bound: gap {d} < {meta.weight_bound}")
    rng = random.Random(seed)
    dim = len(chars)
    actions: dict[int, Mat] = {}
    for g in meta.generator_indices():
        delta = p.degree(g)
        mat = Mat.zeros(dim, dim)
        touched = False
        for a in range(dim):
            for b in range(dim):
                if chars[a] == add_deg(chars[b], delta):
                    if rng.random() < density:
                        num = rng.choice([-3, -2, -1, 1, 2, 3])
                        den = rng.choice([1, 1, 2])
                        mat.data[a][b] = Fraction(num, den)
                        touched = True
        if touched:
            actions[g] = mat
    # extend along the basis: every longer word acts by the bracket of its parts
    obj = RepObject(p, tuple(f"v{i}" for i in range(dim)), tuple(chars), actions)
    _extend_free_actions(obj)
    return obj


def _extend_free_actions(obj: RepObject) -> None:
    p = obj.presentation
    meta = p.free_meta
    order = sorted(range(p.n_gens), key=lambda i: len(meta.hall_words[i]))
    for i in order:
        w = meta.hall_words[i]
        if len(w) == 1:
            continue
        u, v = _factor_indices(p, w)
        au, av = obj.actions.get(u), obj.actions.get(v)
        if au is None or av is None:
            continue
        m = commutator(au, av)
        if not m.is_zero():
            obj.actions[i] = m


def _factor_indices(p: GroupPresentation, w) -> tuple[int, int]:
    from .presentations import standard_factorization
    u, v = standard_factorization(w)
    return p.free_meta.word_index[u], p.free_meta.word_index[v]
