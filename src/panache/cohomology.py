"""Extension groups as equivariant Lie algebra cohomology of the nilpotent
part, one-cocycle handles for the filtration classes, splitting/origination
tests, and the composition pairing into degree two.

An extension of the unit object by X is stored as a family of vectors, one
per Lie algebra basis element, each supported on the matching character part
of the fiber of X.  Splitting asks for a character-zero vector v with
c_i = A_i v; origination from a subcategory generalises this to invariance
under the kernel of the restriction to that subcategory (torus part decided
by lattice membership of characters, nilpotent part by linear conditions).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

from .linalg import (IntLattice, Mat, ONE, ZERO, Subspace, kernel_basis, rat,
                     rref_basis, solve_linear)
from .objects import (Morphism, RepObject, _restrict, block_comps, glue, inclusion,
                      internal_hom, projection, quotient_by, unit_object,
                      weight_filtration, weight_quotient)
from .galois import LieSubspace, hom_block, strictly_lower_block
from .presentations import dot


FlatKey = tuple[int, int]          # (generator index, basis index of X)
PairKey = tuple[tuple[int, int], int]  # ((i, j), basis index), i < j


# ---------------------------------------------------------------------------
# sparse reduction helpers


def _sparse_reduce(v: dict, basis: list[dict]) -> dict:
    v = dict(v)
    for row in basis:
        piv = row["_pivot"]
        c = v.get(piv)
        if c:
            for k, x in row.items():
                if k == "_pivot":
                    continue
                acc = v.get(k, ZERO) - c * x
                if acc == 0:
                    v.pop(k, None)
                else:
                    v[k] = acc
    return v


def _sparse_insert(v: dict, basis: list[dict]) -> bool:
    """Reduce v against basis; if nonzero, normalise and insert. Returns
    True when the vector enlarged the span."""
    v = _sparse_reduce(v, basis)
    v = {k: x for k, x in v.items() if x != 0}
    if not v:
        return False
    piv = min(v)
    inv = ONE / v[piv]
    row = {k: x * inv for k, x in v.items()}
    # back-reduce existing rows
    for other in basis:
        c = other.get(piv)
        if c:
            for k, x in row.items():
                acc = other.get(k, ZERO) - c * x
                if acc == 0:
                    other.pop(k, None)
                else:
                    other[k] = acc
    row["_pivot"] = piv
    basis.append(row)
    basis.sort(key=lambda r: r["_pivot"])
    return True


def _sparse_basis(rows: Iterable[dict]) -> list[dict]:
    basis: list[dict] = []
    for r in rows:
        _sparse_insert(r, basis)
    return basis


# ---------------------------------------------------------------------------
# one-cochains and extension classes


def _clean_comps(target: RepObject, comps: dict[int, Sequence[Fraction]]) -> dict[int, tuple]:
    p = target.presentation
    out = {}
    for i, v in comps.items():
        v = tuple(rat(x) for x in v)
        if len(v) != target.dim:
            raise ValueError("component length mismatch")
        if all(x == 0 for x in v):
            continue
        delta = p.degree(i)
        for a, x in enumerate(v):
            if x != 0 and target.characters[a] != delta:
                raise ValueError(
                    f"component of {p.name_of(i)} not supported on character {delta}")
        out[i] = v
    return out


@dataclass
class ExtClassHandle:
    """An extension of the unit object by ``target``, as a normalized
    equivariant one-cocycle."""

    target: RepObject
    comps: dict[int, tuple]
    hom_source: RepObject | None = None   # set when target = Hom(source, hom_target)
    hom_target: RepObject | None = None
    embed: Morphism | None = None         # monomorphism target -> End(M) block
    normal: dict = field(default=None, repr=False)

    def __post_init__(self):
        self.comps = _clean_comps(self.target, self.comps)
        if self.normal is None:
            self.normal = _normal_form(self.target, self.comps)

    # -- queries -------------------------------------------------------------

    def component(self, i: int) -> tuple:
        v = self.comps.get(i)
        return v if v is not None else tuple([ZERO] * self.target.dim)

    def support(self) -> list[int]:
        return sorted(self.comps)

    def is_zero_class(self) -> bool:
        return not self.normal

    def same_class(self, other: ExtClassHandle) -> bool:
        return (self.target.characters == other.target.characters
                and self.normal == other.normal)

    # -- group structure ------------------------------------------------------

    def add(self, other: ExtClassHandle) -> ExtClassHandle:
        if self.target.characters != other.target.characters:
            raise ValueError("target mismatch")
        comps = {}
        for i in set(self.comps) | set(other.comps):
            v = [a + b for a, b in zip(self.component(i), other.component(i))]
            comps[i] = tuple(v)
        return ExtClassHandle(self.target, comps, self.hom_source, self.hom_target)

    def scale(self, c) -> ExtClassHandle:
        c = Fraction(c)
        return ExtClassHandle(self.target,
                              {i: tuple(c * x for x in v) for i, v in self.comps.items()},
                              self.hom_source, self.hom_target)

    def negate(self) -> ExtClassHandle:
        return self.scale(-1)

    def cocycle_defects(self) -> list[tuple[int, int]]:
        """Pairs where the cocycle identity fails (empty for honest classes),
        in index order; only the pairs ``_relevant_pairs`` names can fail."""
        x = self.target
        bad = []
        for i, j in _relevant_pairs(x):
            lhs = x.action(i).apply(list(self.component(j)))
            rhs = x.action(j).apply(list(self.component(i)))
            want = [ZERO] * x.dim
            for k, c in x.presentation.bracket(i, j).items():
                want = [w + c * t for w, t in zip(want, self.component(k))]
            if [a - b for a, b in zip(lhs, rhs)] != want:
                bad.append((i, j))
        return bad


def ext1_class(source: RepObject, target: RepObject,
               comps: dict[int, Sequence[Fraction]]) -> ExtClassHandle:
    """A class in Ext^1(source, target) stored against Hom(source, target);
    component matrices are flattened row-major."""
    hom = internal_hom(source, target)
    return ExtClassHandle(hom, {i: tuple(v) for i, v in comps.items()},
                          hom_source=source, hom_target=target)


def _coboundary_rows(x: RepObject) -> list[dict]:
    rows = []
    zero_char = tuple([0] * x.presentation.torus_rank)
    for a in x.char_indices(zero_char):
        row: dict = {}
        for i, mat in x.actions.items():
            for r in range(x.dim):
                val = mat.data[r][a]
                if val != 0:
                    row[(i, r)] = val
        if row:
            rows.append(row)
    return _sparse_basis(rows)


def _normal_form(x: RepObject, comps: dict[int, tuple]) -> dict:
    flat = {}
    for i, v in comps.items():
        for a, c in enumerate(v):
            if c != 0:
                flat[(i, a)] = c
    reduced = _sparse_reduce(flat, _coboundary_rows(x))
    return {k: v for k, v in reduced.items() if v != 0}


def _relevant_pairs(x: RepObject) -> list[tuple[int, int]]:
    """The pairs where A_i c_j - A_j c_i = c([b_i, b_j]) can fail: every
    term lives on character degree(i) + degree(j), so that sum must be a
    nonzero character of X."""
    return x.presentation.pairs_touching((), (), [chi for chi in x.character_set() if any(chi)])


# ---------------------------------------------------------------------------
# cohomology bases


def h1_basis(x: RepObject) -> list[ExtClassHandle]:
    """Basis of Ext^1(1, X), computed in the equivariant part.

    On weight-truncated free presentations with a one-dimensional zero-action
    target, the cocycles are exactly the duals of the free generators of the
    matching degree: brackets of basis elements only ever produce basis
    elements of word length at least two, and each such element is itself the
    bracket of its standard factors, so the constraint span is precisely the
    span of the longer words.  The generic path computes the same kernel by
    elimination and is cross-checked against this shortcut in the tests.
    """
    p = x.presentation
    if x.dim == 0:
        return []
    if p.free_meta is not None and x.dim == 1 and not x.actions:
        chi = x.characters[0]
        if all(c == 0 for c in chi):
            return []
        out = []
        for g in p.gens_of_degree(chi):
            if len(p.free_meta.hall_words[g]) == 1:
                out.append(ExtClassHandle(x, {g: (ONE,)}))
        return out
    layout = _layout1(x)
    if not layout:
        return []
    pos = {key: k for k, key in enumerate(layout)}
    rows = []
    for i, j in _relevant_pairs(x):
        for row in _pair_constraint_rows(x, i, j, pos):
            rows.append({pos[key]: v for key, v in row.items()})
    if rows:
        dense = [_densify(r, len(layout)) for r in rows]
        kernel = kernel_basis(Mat.from_rows(dense))
    else:
        kernel = [[ONE if t == k else ZERO for t in range(len(layout))]
                  for k in range(len(layout))]
    cob = _coboundary_rows(x)
    taken: list[dict] = [dict(r) for r in cob]
    out = []
    for v in kernel:
        flat = {layout[k]: c for k, c in enumerate(v) if c != 0}
        if _sparse_insert(flat, taken):
            comps: dict[int, list] = {}
            for (i, a), c in flat.items():
                comps.setdefault(i, [ZERO] * x.dim)[a] = c
            out.append(ExtClassHandle(x, {i: tuple(v) for i, v in comps.items()}))
    return out


def _layout1(x: RepObject) -> list[FlatKey]:
    p = x.presentation
    layout = []
    gens = sorted({g for chi in x.character_set() for g in p.gens_of_degree(chi)})
    for i in gens:
        for a in x.char_indices(p.degree(i)):
            layout.append((i, a))
    return layout


def _pair_constraint_rows(x: RepObject, i: int, j: int, pos: dict) -> Iterable[dict]:
    """Rows of the cocycle condition A_i c_j - A_j c_i - c([b_i,b_j]) = 0."""
    p = x.presentation
    ai, aj = x.actions.get(i), x.actions.get(j)
    bracket = p.bracket(i, j)
    for r in range(x.dim):
        row: dict = {}
        if ai is not None:
            for b in range(x.dim):
                if (j, b) in pos and ai.data[r][b] != 0:
                    row[(j, b)] = row.get((j, b), ZERO) + ai.data[r][b]
        if aj is not None:
            for b in range(x.dim):
                if (i, b) in pos and aj.data[r][b] != 0:
                    row[(i, b)] = row.get((i, b), ZERO) - aj.data[r][b]
        for k, c in bracket.items():
            if (k, r) in pos:
                row[(k, r)] = row.get((k, r), ZERO) - c
        row = {k: v for k, v in row.items() if v != 0}
        if row:
            yield row


def _densify(row: dict, n: int) -> list:
    out = [ZERO] * n
    for k, v in row.items():
        out[k] = v
    return out


def h2_basis(x: RepObject) -> list[dict]:
    """Basis of the degree-two cohomology in the equivariant part; classes
    are sparse dicts keyed by ((i, j), basis index)."""
    p = x.presentation
    if x.dim == 0:
        return []
    if p.free_meta is not None and x.dim == 1 and not x.actions \
            and dot(p.weight, x.characters[0]) >= p.free_meta.weight_bound:
        # within the truncation window the algebra has no relations
        return []
    layout = _layout2(x)
    if not layout:
        return []
    pos = {key: k for k, key in enumerate(layout)}
    rows = []
    # a row of the two-cocycle condition on (i, j, k) lives on the degree sum
    for triple in p.triples_with_degree_sum(chi for chi in x.character_set() if any(chi)):
        for row in _triple_constraint_rows(x, triple, pos):
            rows.append({pos[key]: v for key, v in row.items()})
    if rows:
        dense = [_densify(r, len(layout)) for r in rows]
        kernel = kernel_basis(Mat.from_rows(dense))
    else:
        kernel = [[ONE if t == k else ZERO for t in range(len(layout))]
                  for k in range(len(layout))]
    image = _d1_image_rows(x, pos)
    taken = [dict(r) for r in image]
    out = []
    for v in kernel:
        flat = {layout[k]: c for k, c in enumerate(v) if c != 0}
        if _sparse_insert(flat, taken):
            out.append({k: c for k, c in flat.items() if k != "_pivot"})
    return out


def _layout2(x: RepObject) -> list[PairKey]:
    p = x.presentation
    layout = []
    for chi in sorted(x.character_set()):
        if all(c == 0 for c in chi):
            continue
        idx = x.char_indices(chi)
        for (i, j) in sorted(p.pairs_with_degree_sum(chi)):
            for a in idx:
                layout.append(((i, j), a))
    return layout


def _pair_lookup(pos: dict, i: int, j: int, a: int):
    """Signed position of the (i, j) component (antisymmetric storage)."""
    if i == j:
        return None, ONE
    if i < j:
        key = ((i, j), a)
        sign = ONE
    else:
        key = ((j, i), a)
        sign = -ONE
    if key not in pos:
        return None, ONE
    return key, sign


def _triple_constraint_rows(x: RepObject, triple, pos) -> Iterable[dict]:
    i, j, k = triple
    p = x.presentation
    for r in range(x.dim):
        row: dict = {}

        def acc(key, val):
            if key is None or val == 0:
                return
            cur = row.get(key, ZERO) + val
            if cur == 0:
                row.pop(key, None)
            else:
                row[key] = cur

        # action terms: + A_i w_{jk} - A_j w_{ik} + A_k w_{ij}
        for gen, (u, v), sgn in ((i, (j, k), ONE), (j, (i, k), -ONE), (k, (i, j), ONE)):
            a_mat = x.actions.get(gen)
            if a_mat is None:
                continue
            for b in range(x.dim):
                coeff = a_mat.data[r][b]
                if coeff == 0:
                    continue
                key, sign = _pair_lookup(pos, u, v, b)
                acc(key, sgn * sign * coeff)
        # bracket terms: - w([ij], k) + w([ik], j) - w([jk], i)
        for (u, v), other, sgn in (((i, j), k, -ONE), ((i, k), j, ONE), ((j, k), i, -ONE)):
            for mgen, c in p.bracket(u, v).items():
                key, sign = _pair_lookup(pos, mgen, other, r)
                acc(key, sgn * sign * c)
        if row:
            yield row


def _d1_image_rows(x: RepObject, pos: dict) -> list[dict]:
    """Span of the differentials of equivariant one-cochains, in pair coords."""
    rows = []
    for (i0, a0) in _layout1(x):
        row: dict = {}
        # d c (i, j) = A_i c_j - A_j c_i - c([b_i, b_j]); c = unit at (i0, a0)
        for i, mat in x.actions.items():
            if i == i0:
                continue
            for r in range(x.dim):
                coeff = mat.data[r][a0]
                if coeff == 0:
                    continue
                key, sign = _pair_lookup(pos, i, i0, r)
                if key is not None:
                    row[key] = row.get(key, ZERO) + sign * coeff
        for key in pos:
            (i, j), r = key
            if r != a0:
                continue
            c = x.presentation.bracket(i, j).get(i0)
            if c:
                row[key] = row.get(key, ZERO) - c
        row = {k: v for k, v in row.items() if v != 0}
        if row:
            rows.append(row)
    return _sparse_basis(rows)


# ---------------------------------------------------------------------------
# filtration classes


def e_p_class(m: RepObject, p: int) -> ExtClassHandle:
    """The extension of the unit by Hom(M/W_p M, W_p M) cut out by the weight
    filtration: the cocycle is the family of off-diagonal action blocks."""
    sub = weight_filtration(m, p).source
    quo_idx = [a for a in range(m.dim) if m.weight_of(a) > p]
    quo = weight_quotient(m, p).target
    out = ext1_class(quo, sub, block_comps(m, m.indices_of_weight_leq(p), quo_idx))
    out.embed = inclusion(out.target, internal_hom(m, m), hom_block(m, p))
    return out


def dagger_object(m: RepObject, p: int) -> tuple[RepObject, Morphism]:
    """The middle object of the defining sequence of the p-th filtration
    class, with its surjection onto the unit."""
    wq = weight_quotient(m, p)
    if wq.target.dim == 0:
        u = unit_object(m.presentation)
        return u, Morphism(u, u, Mat.identity(1))
    e = e_p_class(m, p)
    ext, _, surj = extension_object(e)
    return ext, surj


def extension_object(e: ExtClassHandle) -> tuple[RepObject, Morphism, Morphism]:
    """The middle object E of 0 -> X -> E -> 1 -> 0 plus both maps."""
    x = e.target
    unit = unit_object(x.presentation)
    ext = glue([x, unit], {(0, 1): e.comps}, x.labels + ("e",))
    return ext, inclusion(x, ext, range(x.dim)), projection(ext, unit, [x.dim])


def _lower_end(m: RepObject) -> tuple[RepObject, Morphism, list[int]]:
    """End(M) restricted to its strictly-lowering indices (see
    ``total_class``), with the coordinate inclusion and those indices."""
    end = internal_hom(m, m)
    idx = sorted(strictly_lower_block(m), key=lambda k: (end.characters[k], k))
    target = _restrict(end, idx)
    return target, inclusion(target, end, idx), idx


def total_class(m: RepObject) -> ExtClassHandle:
    """Sum over every integer cut of the pushforwards of the filtration
    classes into the strictly-lowering part of End(M).

    The target is End(M) restricted to the indices k = a*dim(M) + b with
    w(a) < w(b), ordered by (character of e_k, k).  That block is a subobject
    because every generator has negative weight (``validate_presentation``'s
    ``nonnegative-weight`` check).  Entry (a, b) of an action lies in
    Hom(M/W_p M, W_p M) for the w(b) - w(a) cuts w(a) <= p < w(b)."""
    target, incl, idx = _lower_end(m)
    d = m.dim
    comps = {}
    for i, mat in m.actions.items():
        v = tuple((m.weight_of(k % d) - m.weight_of(k // d)) * mat.data[k // d][k % d]
                  for k in idx)
        if any(v):
            comps[i] = v
    return ExtClassHandle(target, comps, hom_source=m, hom_target=m, embed=incl)


def lower_end_class(m: RepObject, e: ExtClassHandle) -> ExtClassHandle:
    """Pushforward of a block class along its embedding into the
    strictly-lowering part of End(M)."""
    pos = _block_positions(e)
    target, incl, idx = _lower_end(m)
    where = {k: j for j, k in enumerate(idx)}
    comps = {}
    for i, v in e.comps.items():
        out = [ZERO] * len(idx)
        for j, x in enumerate(v):
            if x:
                col = where.get(pos[j])
                if col is None:
                    raise ValueError("class is not supported on the strictly-lowering block")
                out[col] = x
        comps[i] = tuple(out)
    return ExtClassHandle(target, comps, hom_source=m, hom_target=m, embed=incl)


def _block_positions(e: ExtClassHandle) -> list[int]:
    """The End(M) index of each target coordinate of a block class.

    Every embedding built here is a coordinate inclusion (``e_p_class``,
    ``_lower_end``): each column holds one ONE and nothing else."""
    if e.embed is None:
        raise ValueError("class carries no block embedding")
    mat = e.embed.matrix
    pos: list[int | None] = [None] * mat.cols
    for k, row in enumerate(mat.data):
        for j, x in enumerate(row):
            if x:
                if x != ONE or pos[j] is not None:
                    raise ValueError("block embedding is not a coordinate inclusion")
                pos[j] = k
    if None in pos:
        raise ValueError("block embedding is not a coordinate inclusion")
    return pos


def quotient_class(e: ExtClassHandle, a: Subspace | LieSubspace) -> ExtClassHandle:
    """Pushforward along the quotient of the target by an action-stable
    homogeneous subspace.

    The subspace may be given either in the target's own coordinates or, for
    block classes carrying an embedding into End(M), in End coordinates (in
    which case it must lie inside the embedded block).  That embedding must
    be a coordinate inclusion (see ``transport_to_target``).  Component c_i
    of the image is the reduction of c_i modulo the subspace, read at its
    non-pivot coordinates (``objects.quotient_by``)."""
    space = a.space if isinstance(a, LieSubspace) else a
    quotient, project = quotient_by(e.target, transport_to_target(e, space))
    return ExtClassHandle(quotient, {i: project(v) for i, v in e.comps.items()})


def transport_to_target(e: ExtClassHandle, space: Subspace) -> Subspace:
    """A subspace in the class target's coordinates, given in them or in
    End(M) coordinates.

    A block class's embedding into End(M) is a coordinate inclusion, one ONE
    per column, so an End-coordinate row moves by index lookup; an entry off
    the block means the row is not in the image.  Any other embedding is
    rejected."""
    if space.ambient_dim == e.target.dim:
        return space
    if e.embed is None or space.ambient_dim != e.embed.target.dim:
        raise ValueError("subspace coordinates do not match the class target")
    where = {k: j for j, k in enumerate(_block_positions(e))}
    rows = []
    for row in space.basis:
        v = [ZERO] * e.target.dim
        for k, x in enumerate(row):
            if x:
                col = where.get(k)
                if col is None:
                    raise ValueError("subspace is not contained in the block target")
                v[col] = x
        rows.append(v)
    return (Subspace.from_vectors(rows, e.target.dim)
            if rows else Subspace.zero(e.target.dim))


# ---------------------------------------------------------------------------
# splitting and origination


@dataclass
class SplitResult:
    split: bool
    witness: list | None = None
    certificate: list | None = None
    system: tuple | None = None

    def __bool__(self):
        return self.split


def is_split(e: ExtClassHandle) -> SplitResult:
    """Split iff c_i = A_i v for some character-zero v in the fiber of X."""
    x = e.target
    zero_char = tuple([0] * x.presentation.torus_rank)
    cols = x.char_indices(zero_char)
    relevant = sorted(set(e.comps) | set(x.actions))
    rows = []
    rhs = []
    for i in relevant:
        mat = x.actions.get(i)
        comp = e.component(i)
        for r in range(x.dim):
            row = [mat.data[r][c] if mat is not None else ZERO for c in cols]
            if any(v != 0 for v in row) or comp[r] != 0:
                rows.append(row)
                rhs.append(comp[r])
    if not rows:
        return SplitResult(True, witness=[ZERO] * x.dim)
    sol = solve_linear(Mat.from_rows(rows) if cols else Mat.zeros(len(rows), 0), rhs)
    if not sol.feasible:
        return SplitResult(False, certificate=sol.certificate, system=(rows, rhs))
    witness = [ZERO] * x.dim
    for c, val in zip(cols, sol.particular):
        witness[c] = val
    return SplitResult(True, witness=witness)


@dataclass
class KernelDirections:
    """The Lie directions of the kernel of the restriction to a subcategory:
    generators acting by zero plus kernel combinations of the acting ones."""

    free_gens: list[int]
    coupled_support: list[int]
    coupled_kernel: list[list[Fraction]]

    def directions(self) -> Iterable[dict[int, Fraction]]:
        for i in self.free_gens:
            yield {i: ONE}
        for combo in self.coupled_kernel:
            yield {i: c for i, c in zip(self.coupled_support, combo) if c != 0}


def kernel_directions(s: RepObject, interesting: Sequence[int]) -> KernelDirections:
    """Directions annihilating S, restricted to the generators named in
    ``interesting`` plus all of S's own support (others never matter to the
    caller because every related datum vanishes there)."""
    support_s = s.action_support()
    support_set = set(support_s)
    free = [i for i in sorted(set(interesting)) if i not in support_set]
    if support_s:
        cols = [s.actions[i].flat() for i in support_s]
        coupled = kernel_basis(Mat.from_rows(cols).transpose())
    else:
        coupled = []
    return KernelDirections(free, support_s, coupled)


def character_lattice(s: RepObject) -> IntLattice:
    chars = sorted(s.character_set())
    return IntLattice.from_rows(chars, s.presentation.torus_rank)


@dataclass
class OriginationResult:
    holds: bool
    witness: list | None = None
    reason: str = ""

    def __bool__(self):
        return self.holds


def originates_from(e: ExtClassHandle, s: RepObject) -> OriginationResult:
    """Does the extension come from the subcategory generated by S?

    Build the middle object, and ask for a vector mapping to 1 that is fixed
    by the kernel of the restriction to the subcategory: supported on
    characters inside the lattice of S and annihilated by the Lie directions
    killing S.
    """
    x = e.target
    lat = character_lattice(s)
    allowed = [a for a in range(x.dim) if lat.member(x.characters[a])]
    interesting = sorted(set(e.comps) | set(x.actions))
    dirs = kernel_directions(s, interesting)
    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    for xi in dirs.directions():
        act = Mat.zeros(x.dim, x.dim)
        cvec = [ZERO] * x.dim
        touched = False
        for i, coeff in xi.items():
            mat = x.actions.get(i)
            if mat is not None:
                act = act + mat.scale(coeff)
                touched = True
            comp = e.comps.get(i)
            if comp is not None:
                cvec = [a + coeff * b for a, b in zip(cvec, comp)]
                touched = True
        if not touched:
            continue
        for r in range(x.dim):
            row = [act.data[r][c] for c in allowed]
            if any(v != 0 for v in row) or cvec[r] != 0:
                rows.append(row)
                rhs.append(-cvec[r])
    if not rows:
        return OriginationResult(True, witness=[ZERO] * x.dim)
    sol = solve_linear(Mat.from_rows(rows) if allowed else Mat.zeros(len(rows), 0), rhs)
    if not sol.feasible:
        return OriginationResult(False, reason="no invariant lift of 1")
    witness = [ZERO] * x.dim
    for c, val in zip(allowed, sol.particular):
        witness[c] = val
    return OriginationResult(True, witness=witness)


def in_subcategory(m: RepObject, s: RepObject) -> bool:
    """True iff the kernel of the restriction to the subcategory generated
    by S acts trivially on the fiber of M."""
    if not m.presentation.same_presentation(s.presentation):
        raise ValueError("presentation mismatch")
    lat = character_lattice(s)
    if not all(lat.member(chi) for chi in m.character_set()):
        return False
    dirs = kernel_directions(s, m.action_support())
    for xi in dirs.directions():
        if not m.action_of_element(dict(xi)).is_zero():
            return False
    return True


def min_split_support(e: ExtClassHandle) -> Subspace:
    """Smallest subobject of a zero-action target supporting the class."""
    x = e.target
    if x.actions:
        raise ValueError("minimal support requires a pure (zero-action) target")
    rows = [list(v) for v in e.comps.values()]
    return rref_basis(rows, x.dim) if rows else Subspace.zero(x.dim)


# ---------------------------------------------------------------------------
# composition pairing


@dataclass
class H2Class:
    """A degree-two class with values in Hom(C, B), stored antisymmetrically
    on pairs i < j."""

    target: RepObject
    comps: dict[tuple[int, int], tuple]
    hom_source: RepObject | None = None
    hom_target: RepObject | None = None

    def support(self):
        return sorted(self.comps)

    def is_zero(self) -> bool:
        """Membership of the cochain in the span of one-cochain differentials."""
        return not self.normal_form()

    def normal_form(self) -> dict:
        x = self.target
        layout = _layout2(x)
        pos = {key: k for k, key in enumerate(layout)}
        flat: dict = {}
        for (i, j), v in self.comps.items():
            for a, c in enumerate(v):
                if c != 0:
                    key, sign = _pair_lookup(pos, i, j, a)
                    if key is None:
                        raise ValueError("two-cochain outside the equivariant layout")
                    flat[key] = flat.get(key, ZERO) + sign * c
        reduced = _sparse_reduce(flat, _d1_image_rows(x, pos))
        return {k: v for k, v in reduced.items() if v != 0}


def yoneda_compose(l: ExtClassHandle, n: ExtClassHandle) -> H2Class:
    """Composition pairing Ext^1(A,B) x Ext^1(C,A) -> Ext^2(C,B): the cup
    cochain (i, j) -> L_i N_j - L_j N_i."""
    if l.hom_source is None or n.hom_source is None:
        raise ValueError("composition needs Hom-typed classes")
    a_obj, b_obj = l.hom_source, l.hom_target
    c_obj = n.hom_source
    if n.hom_target.characters != a_obj.characters:
        raise ValueError("object mismatch in composition")
    target = internal_hom(c_obj, b_obj)
    lmats = {i: Mat.unflatten(list(v), b_obj.dim, a_obj.dim) for i, v in l.comps.items()}
    nmats = {j: Mat.unflatten(list(v), a_obj.dim, c_obj.dim) for j, v in n.comps.items()}
    comps: dict[tuple[int, int], tuple] = {}
    for i in sorted(set(lmats) | set(nmats)):
        for j in sorted(set(lmats) | set(nmats)):
            if i >= j:
                continue
            term = Mat.zeros(b_obj.dim, c_obj.dim)
            if i in lmats and j in nmats:
                term = term + lmats[i].matmul(nmats[j])
            if j in lmats and i in nmats:
                term = term - lmats[j].matmul(nmats[i])
            if not term.is_zero():
                comps[(i, j)] = tuple(term.flat())
    return H2Class(target, comps, hom_source=c_obj, hom_target=b_obj)


# ---------------------------------------------------------------------------
# exponentials


def nilpotent_exp(x: Mat) -> Mat:
    """Exact exponential of a nilpotent matrix (finite series)."""
    if x.rows != x.cols:
        raise ValueError("square matrix required")
    n = x.rows
    out = Mat.identity(n)
    term = Mat.identity(n)
    for k in range(1, n + 1):
        term = term.matmul(x).scale(Fraction(1, k))
        if term.is_zero():
            return out
        out = out + term
    if not term.matmul(x).is_zero():
        raise ValueError("matrix is not nilpotent")
    return out


def nilpotent_log(u: Mat) -> Mat:
    """Exact logarithm of a unipotent matrix (finite series)."""
    if u.rows != u.cols:
        raise ValueError("square matrix required")
    n = u.rows
    x = u - Mat.identity(n)
    out = Mat.zeros(n, n)
    term = Mat.identity(n)
    for k in range(1, n + 1):
        term = term.matmul(x)
        if term.is_zero():
            return out
        out = out + term.scale(Fraction((-1) ** (k + 1), k))
    if not term.matmul(x).is_zero():
        raise ValueError("matrix is not unipotent")
    return out


def exp_ratio(x: Mat) -> Mat:
    """(exp(x) - 1)/x as the finite series sum x^k / (k+1)!."""
    if x.rows != x.cols:
        raise ValueError("square matrix required")
    n = x.rows
    out = Mat.identity(n)
    term = Mat.identity(n)
    fact = 1
    for k in range(1, n + 1):
        term = term.matmul(x)
        if term.is_zero():
            return out
        fact *= k + 1
        out = out + term.scale(Fraction(1, fact))
    if not term.matmul(x).is_zero():
        raise ValueError("matrix is not nilpotent")
    return out
