"""Fundamental-group Lie algebras at the fiber level.

The unipotent kernel attached to an object is just the span of its action
matrices inside End of the fiber; relative kernels against another object on
the same presentation are computed by solving the linear vanishing conditions
on the torus directions and on the nilpotent part, then mapping back into
End of the first fiber.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .linalg import Mat, ONE, ZERO, Subspace, commutator, kernel_basis, rref_basis
from .objects import RepObject

@dataclass
class LieSubspace:
    """A subspace of End(fiber of M), flat row-major coordinates."""

    ambient: RepObject
    space: Subspace
    bracket_closed: bool | None = None

    @property
    def dim(self) -> int:
        return self.space.dim

    def matrices(self) -> list[Mat]:
        d = self.ambient.dim
        return [Mat.unflatten(list(r), d, d) for r in self.space.basis]

    def check_bracket_closed(self) -> bool:
        mats = self.matrices()
        for i, a in enumerate(mats):
            for b in mats[i:]:
                if not self.space.contains(commutator(a, b).flat()):
                    return False
        return True


def end_block_subspace(m: RepObject, predicate) -> list[int]:
    """Coordinate block of End(fiber) on the entries (a, b) selected by
    predicate(weight_a, weight_b), as its sorted flat indices a * dim + b.

    A block is a coordinate subspace in the weight basis, so the index list
    is all of it: meet a subspace with it through
    ``Subspace.meet_coordinates``, and take its dimension as its length."""
    d = m.dim
    w = [m.weight_of(a) for a in range(d)]
    return [a * d + b for a in range(d) for b in range(d) if predicate(w[a], w[b])]


def strictly_lower_block(m: RepObject) -> list[int]:
    """W_{-1} End block: strictly weight-lowering matrices."""
    return end_block_subspace(m, lambda wa, wb: wa < wb)


def hom_block(m: RepObject, p: int) -> list[int]:
    """Hom(M/W_p M, W_p M) block: entries from weight > p into weight <= p."""
    return end_block_subspace(m, lambda wa, wb: wa <= p < wb)


def geq_block(m: RepObject, q: int) -> list[int]:
    """Hom(M/W_q M, M) ∩ W_{-1}End block: strictly lowering entries that
    vanish on W_q M."""
    return end_block_subspace(m, lambda wa, wb: wa < wb and wb > q)


def u_of(m: RepObject) -> LieSubspace:
    """Span of the action matrices: the unipotent kernel of the restriction
    to the associated graded."""
    rows = [m.actions[i].flat() for i in m.action_support()]
    d = m.dim
    space = Subspace.from_vectors(rows, d * d) if rows else Subspace.zero(d * d)
    return LieSubspace(m, space, bracket_closed=True)


def relative_kernel_lie(m: RepObject, n: RepObject) -> LieSubspace:
    """Image in End(fiber of M) of the Lie directions acting trivially on N."""
    if not m.presentation.same_presentation(n.presentation):
        raise ValueError("presentation mismatch")
    p = m.presentation
    d = m.dim
    rows: list[list[Fraction]] = []

    # torus directions killing every character of N, realised as diagonals on M
    char_rows = [list(map(Fraction, chi)) for chi in sorted(n.character_set())]
    if char_rows:
        torus_kernel = kernel_basis(Mat.from_rows(char_rows))
    else:
        torus_kernel = [[ONE if i == j else ZERO for i in range(p.torus_rank)]
                        for j in range(p.torus_rank)]
    for t in torus_kernel:
        diag = Mat.zeros(d, d)
        for a in range(d):
            diag.data[a][a] = sum((x * c for x, c in zip(t, m.characters[a])), ZERO)
        if not diag.is_zero():
            rows.append(diag.flat())

    # nilpotent directions: free on generators not acting on N, plus the
    # kernel of the action map restricted to the generators that do act
    support_n = n.action_support()
    for i in m.action_support():
        if i not in support_n:
            rows.append(m.actions[i].flat())
    if support_n:
        cols = [n.actions[i].flat() for i in support_n]
        constraint = Mat.from_rows(cols).transpose()
        for x in kernel_basis(constraint):
            combo = Mat.zeros(d, d)
            for coeff, i in zip(x, support_n):
                a = m.actions.get(i)
                if a is not None and coeff != 0:
                    combo = combo + a.scale(coeff)
            if not combo.is_zero():
                rows.append(combo.flat())

    space = Subspace.from_vectors(rows, d * d) if rows else Subspace.zero(d * d)
    return LieSubspace(m, space, bracket_closed=True)


def u_p_of(m: RepObject, p: int) -> LieSubspace:
    return LieSubspace(m, u_of(m).space.meet_coordinates(hom_block(m, p)),
                       bracket_closed=True)


def u_geq_of(m: RepObject, q: int) -> LieSubspace:
    return LieSubspace(m, u_of(m).space.meet_coordinates(geq_block(m, q)),
                       bracket_closed=True)


def galois_dim(m: RepObject) -> int:
    """dim of the unipotent part plus the rank of the character lattice."""
    if m.dim == 0:
        return 0
    chars = Mat.from_rows([list(map(Fraction, chi)) for chi in sorted(m.character_set())])
    return u_of(m).dim + chars.rank()


def gr_leading_span(m: RepObject, s: LieSubspace | Subspace) -> Subspace:
    """Associated graded of a subspace of End(fiber), embedded by leading
    weight-homogeneous components."""
    space = s.space if isinstance(s, LieSubspace) else s
    d = m.dim
    coord_weight = [m.weight_of(a) - m.weight_of(b) for a in range(d) for b in range(d)]
    weights = sorted(set(coord_weight))
    out_rows: list[list[Fraction]] = []
    for n in weights:
        part = space.meet_coordinates([k for k, wt in enumerate(coord_weight) if wt <= n])
        for row in part.basis:
            lead = [x if coord_weight[k] == n else ZERO for k, x in enumerate(row)]
            if any(x != 0 for x in lead):
                out_rows.append(lead)
    return rref_basis(out_rows, d * d) if out_rows else Subspace.zero(d * d)
