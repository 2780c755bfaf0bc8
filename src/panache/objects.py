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
from math import gcd
from typing import Callable, Sequence

from .linalg import (Mat, ONE, ZERO, Subspace, commutator, kernel_basis, kron,
                     pivot_columns, rref_rows)
from .presentations import GroupPresentation, add_deg, dot, standard_factorization

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
        fail: once the actions are equivariant, both sides move each
        character by degree(i) + degree(j), so that sum must be a nonzero
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
        chars = self.character_set()
        char_diffs = {tuple(x - y for x, y in zip(ca, cb))
                      for ca in chars for cb in chars if ca != cb}
        for i, j in p.pairs_touching((), (), char_diffs):
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
    labels = tuple(f"l.{x}" for x in m.labels) + tuple(f"r.{x}" for x in n.labels)
    return glue([m, n], {}, labels)


def glue(parts: Sequence[RepObject], blocks: dict[tuple[int, int], dict[int, Sequence]],
         labels: Sequence[str]) -> RepObject:
    """The block upper-triangular object with ``parts`` on the diagonal.

    Part k occupies the basis indices from the sum of the earlier parts'
    dimensions on.  For each block ``(r, c)`` with r < c, generator i acts
    from part c into part r by ``blocks[(r, c)][i]``: the dim(part r) ×
    dim(part c) matrix flattened row-major, as ``ExtClassHandle.comps``
    stores a class in Hom(part c, part r).  ``block_comps`` reads a block
    back."""
    p = parts[0].presentation
    offsets = [0]
    for part in parts:
        _same_presentation(parts[0], part)
        offsets.append(offsets[-1] + part.dim)
    dim = offsets[-1]
    cells: dict[int, list] = {}
    for part, off in zip(parts, offsets):
        for i, mat in part.actions.items():
            cells.setdefault(i, []).extend(
                (off + a, off + b, x) for a, b, x in mat.nonzero_entries())
    for (r, c), comps in blocks.items():
        if not 0 <= r < c < len(parts):
            raise ValueError(f"block ({r}, {c}) is not above the diagonal of "
                             f"{len(parts)} parts")
        rows, cols = parts[r].dim, parts[c].dim
        for i, flat in comps.items():
            if len(flat) != rows * cols:
                raise ValueError(f"block ({r}, {c}) of {p.name_of(i)} has {len(flat)} "
                                 f"entries, not {rows}×{cols}")
            cells.setdefault(i, []).extend(
                (offsets[r] + e // cols, offsets[c] + e % cols, x)
                for e, x in enumerate(flat) if x)
    actions = {}
    for i in sorted(cells):
        mat = Mat.zeros(dim, dim)
        for a, b, x in cells[i]:
            mat.data[a][b] = x
        actions[i] = mat
    chars = tuple(chi for part in parts for chi in part.characters)
    return RepObject(p, tuple(labels), chars, actions)


def block_comps(m: RepObject, rows: Sequence[int], cols: Sequence[int]) -> dict[int, tuple]:
    """The (rows, cols) block of every action, flattened row-major as in
    ``glue``; all-zero blocks are left out."""
    out = {}
    for i, mat in m.actions.items():
        v = tuple(mat.data[r][c] for r in rows for c in cols)
        if any(v):
            out[i] = v
    return out


def inclusion(sub: RepObject, m: RepObject, idx: Sequence[int]) -> Morphism:
    """The coordinate map sending basis vector j of ``sub`` to e_idx[j] of m."""
    mat = Mat.zeros(m.dim, sub.dim)
    for j, a in enumerate(idx):
        mat.data[a][j] = ONE
    return Morphism(sub, m, mat)


def projection(m: RepObject, quo: RepObject, idx: Sequence[int]) -> Morphism:
    """The coordinate map reading coordinate idx[j] of m as coordinate j of
    ``quo``: the transpose of the inclusion."""
    return Morphism(m, quo, inclusion(quo, m, idx).matrix.transpose())


def tensor_product(m: RepObject, n: RepObject) -> RepObject:
    _same_presentation(m, n)
    labels = tuple(f"{x}*{y}" for x in m.labels for y in n.labels)
    chars = tuple(add_deg(cm, cn) for cm in m.characters for cn in n.characters)
    actions: dict[int, Mat] = {}
    eye_m, eye_n = Mat.identity(m.dim), Mat.identity(n.dim)
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
    return inclusion(_restrict(m, idx, suffix=f"|w<={n}"), m, idx)


def weight_quotient(m: RepObject, n: int) -> Morphism:
    """Projection M -> M / W_n M (spanned by the basis vectors of weight > n)."""
    idx = [a for a in range(m.dim) if m.weight_of(a) > n]
    return projection(m, _restrict(m, idx, suffix=f"|w>{n}"), idx)


def _restrict(m: RepObject, idx: Sequence[int], suffix: str = "") -> RepObject:
    labels = tuple(m.labels[a] + suffix for a in idx)
    chars = tuple(m.characters[a] for a in idx)
    actions = {i: Mat.unflatten(v, len(idx), len(idx))
               for i, v in block_comps(m, idx, idx).items()}
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


def quotient_by(m: RepObject, s: Subspace) -> tuple[RepObject, Callable]:
    """Quotient of m by an action-stable character-homogeneous subspace s,
    with the map sending a vector of m to its quotient coordinates.

    The quotient basis is the images of e_a at the non-pivot coordinates a
    of s.  A vector's class is its reduction ``s.reduce(v)`` read at those
    coordinates; since an RREF row vanishes at every other row's pivot, the
    reduction subtracts v[p] times row p for each pivot p.  s is
    character-homogeneous exactly when each RREF row lies on one character.
    Rows are kept sparse and each action is read from its nonzero entries,
    so stability costs one reduction per action and basis row."""
    if s.ambient_dim != m.dim:
        raise ValueError("ambient dimension mismatch")
    tails = {}
    for row, p in zip(s.basis, s.pivots()):
        tail = [(a, x) for a, x in enumerate(row) if x and a != p]
        if any(m.characters[a] != m.characters[p] for a, _ in tail):
            raise ValueError("subspace is not character-homogeneous")
        tails[p] = tail

    def reduce(v: dict) -> dict:
        out = {a: x for a, x in v.items() if a not in tails}
        for p, c in v.items():
            for a, x in tails.get(p, ()):
                out[a] = out.get(a, ZERO) - c * x
        return out

    columns = {}
    for i, mat in m.actions.items():
        cols: dict[int, list] = {}
        for r, c, x in mat.nonzero_entries():
            cols.setdefault(c, []).append((r, x))
        columns[i] = cols
        for p, tail in tails.items():
            image: dict[int, Fraction] = {}
            for c, y in [(p, ONE)] + tail:
                for r, x in cols.get(c, ()):
                    image[r] = image.get(r, ZERO) + x * y
            if any(reduce(image).values()):
                raise ValueError(
                    f"subspace is not stable under {m.presentation.name_of(i)}")

    comp = [a for a in range(m.dim) if a not in tails]
    where = {a: j for j, a in enumerate(comp)}
    quo_actions = {}
    for i, cols in columns.items():
        mat = Mat.zeros(len(comp), len(comp))
        for j, c in enumerate(comp):
            for a, x in reduce(dict(cols.get(c, ()))).items():
                mat.data[where[a]][j] = x
        quo_actions[i] = mat
    quotient = RepObject(m.presentation, tuple(m.labels[a] + "~" for a in comp),
                         tuple(m.characters[a] for a in comp), quo_actions)

    def project(v: Sequence[Fraction]) -> tuple[Fraction, ...]:
        out = reduce({a: x for a, x in enumerate(v) if x})
        return tuple(out.get(a, ZERO) for a in comp)

    return quotient, project


def subquotient(m: RepObject, s: Subspace) -> Subquotient:
    """Subobject on an action-stable character-homogeneous subspace, plus the
    quotient, with canonical maps.

    The quotient and its projection come from ``quotient_by``, which also
    checks homogeneity and stability.  The subobject basis is ``s.basis``
    reordered by character, keeping the RREF order within a character."""
    quotient, project = quotient_by(m, s)
    row_chars = [m.characters[p] for p in s.pivots()]
    order = sorted(range(s.dim), key=lambda r: row_chars[r])
    basis_rows = [list(s.basis[r]) for r in order]
    sub_chars = tuple(row_chars[r] for r in order)
    k = len(basis_rows)
    incl = Mat.zeros(m.dim, k)
    for col, v in enumerate(basis_rows):
        for a in range(m.dim):
            incl.data[a][col] = v[a]
    sub_actions = {}
    for i, a in m.actions.items():
        mat = Mat.zeros(k, k)
        for col, v in enumerate(basis_rows):
            coords = s.coordinates_of(a.apply(v))
            for rr, r in enumerate(order):
                mat.data[rr][col] = coords[r]
        if not mat.is_zero():
            sub_actions[i] = mat
    sub = RepObject(m.presentation, tuple(f"s{c}" for c in range(k)), sub_chars, sub_actions)
    columns = [project([ONE if b == a else ZERO for b in range(m.dim)]) for a in range(m.dim)]
    proj = Mat(quotient.dim, m.dim, [[col[r] for col in columns] for r in range(quotient.dim)])
    return Subquotient(sub, Morphism(sub, m, incl), quotient, Morphism(m, quotient, proj))


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


def is_isomorphic(m: RepObject, n: RepObject) -> IsoResult:
    """Invariants first, then the exact decision whether the morphism space
    holds an invertible map (``invertible_element``); a ``yes`` carries that
    isomorphism as its witness."""
    _same_presentation(m, n)
    if m.dim != n.dim:
        return IsoResult("no", reason="dimension mismatch")
    if m.character_multiset() != n.character_multiset():
        return IsoResult("no", reason="character multiset mismatch")
    blocks = [(f"character {chi}", [[a * m.dim + b for b in m.char_indices(chi)]
                                    for a in n.char_indices(chi)])
              for chi in sorted(m.character_set())]
    status, flat, reason = invertible_element(morphism_space(m, n).basis, blocks)
    return IsoResult(status, None if flat is None else Mat.unflatten(flat, n.dim, m.dim),
                     reason)


# Grid points tried per block before a decision is given up.  Every "no"
# on a block of size <= 3 fits: a space of singular 3×3 matrices has
# dimension at most 6 (Dieudonné), so its grid {0..3}^k has at most 4^6
# points.
GRID_CAP = 4096


def invertible_element(basis: Sequence[Sequence[Fraction]],
                       blocks: Sequence[tuple[str, Sequence[Sequence[int]]]]
                       ) -> tuple[str, list[Fraction] | None, str]:
    """Does the span V of ``basis`` hold an element whose every block is
    invertible?  Returns ``(status, element, reason)`` with status "yes"
    (and such an element), "no" or "unknown" (with the reason).

    Each basis vector is a flat tuple of block-diagonal matrices; ``blocks``
    gives each square block a label and the table of its flat positions.
    Morphisms preserve characters, so det = Π_χ det_χ over the character
    blocks, and each factor is decided alone.

    - **No.**  An m×m block projects V onto a span of rank k <= m², with
      coordinates s_1..s_k.  det_χ has degree at most m in each s_l, so if
      it vanishes on the grid {0..m}^k it vanishes identically (Alon,
      *Combinatorial Nullstellensatz*, 1999, Lemma 2.1).  Otherwise the
      grid point found is the block's witness, a point of V.
    - **Yes.**  V's coordinates are then fixed one at a time.  With the
      other coordinates held at a block's witness, det_χ is a polynomial
      of degree at most m in the free one, nonzero at the witness.  So at
      most D = Σ m values kill some block, and one value in {0..D} keeps
      every block's det nonzero; every witness moves to it.  Once all
      coordinates are fixed, the witnesses agree on one element.

    Each grid is walked lazily, up to the first nonzero det, by a
    golden-ratio stride: a bijection of the grid that changes most
    coordinates from one point to the next.  The status is "unknown",
    naming the block, only when a grid has more than ``GRID_CAP`` points
    and none of the first ``GRID_CAP`` has a nonzero det."""
    projections = [(label, len(pos), [[v[p] for row in pos for p in row] for v in basis])
                   for label, pos in blocks if pos]
    witnesses = []
    capped = None
    for label, m, proj in projections:
        found, size = _block_witness(proj, m)
        if found is not None:
            witnesses.append(found)
        elif size <= GRID_CAP:
            return "no", None, (f"the det of block {label} vanishes on its "
                                f"{size}-point grid, so identically")
        elif capped is None:
            capped = f"the grid of block {label} has {size} points, past the cap {GRID_CAP}"
    if capped is not None:
        return "unknown", None, capped
    bound = sum(m for _, m, _ in projections)
    for j in range(len(basis)):
        for x in range(bound + 1):
            moved = [w[:j] + [x] + w[j + 1:] for w in witnesses]
            if all(_block_det(proj, t, m) for (_, m, proj), t in zip(projections, moved)):
                witnesses = moved
                break
    t = witnesses[0] if witnesses else [0] * len(basis)
    n = len(basis[0]) if basis else 0
    return "yes", [sum((c * v[e] for c, v in zip(t, basis) if c), ZERO) for e in range(n)], ""


def _block_witness(proj: list[list[Fraction]], m: int) -> tuple[list[int] | None, int]:
    """Coordinates t on V with det(Σ t_i P_i) != 0, where P_i = ``proj[i]``
    is the flat m×m block of basis vector i, and the size of the grid
    searched: {0..m} on a maximal independent set of the P_i.  None means
    the det vanishes on the whole grid, or, when the size exceeds
    ``GRID_CAP``, on the part searched."""
    chosen = pivot_columns(rref_rows([[p[e] for p in proj] for e in range(m * m)]))
    side = m + 1
    size = side ** len(chosen)
    stride = size * 618_033_988_749_895 // 10 ** 15
    while gcd(stride, size) != 1:
        stride += 1
    for count in range(min(size, GRID_CAP)):
        code = count * stride % size
        t = [0] * len(proj)
        for i in chosen:
            code, t[i] = divmod(code, side)
        if _block_det(proj, t, m):
            return t, size
    return None, size


def _block_det(proj: list[list[Fraction]], t: Sequence[int], m: int) -> Fraction:
    """det of the m×m block of Σ t_i (basis vector i)."""
    flat = [ZERO] * (m * m)
    for c, p in zip(t, proj):
        if c:
            flat = [x + c * y for x, y in zip(flat, p)]
    return Mat(m, m, [flat[r * m:(r + 1) * m] for r in range(m)]).det()


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
    u, v = standard_factorization(w)
    return p.free_meta.word_index[u], p.free_meta.word_index[v]
