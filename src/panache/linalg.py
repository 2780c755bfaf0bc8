"""Exact rational and integer linear algebra.

Everything here is over Q (``fractions.Fraction``) or Z (python ints); no
floating point is used anywhere in the package.  Matrices are dense, which is
fine at desk scale (ambient dimensions of a few dozen).  Canonical subspace
representatives are reduced row-echelon bases, so subspace equality is plain
structural comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

Rat = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


def rat(x) -> Fraction:
    """Coerce ints, strings and Fractions to a Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return parse_rat(x)
    raise TypeError(f"cannot interpret {x!r} as a rational")


def parse_rat(s: str) -> Fraction:
    """Parse "p/q" or "p" with canonical sign on the numerator."""
    s = s.strip()
    if "/" in s:
        num_s, den_s = s.split("/", 1)
        num, den = int(num_s), int(den_s)
        if den == 0:
            raise ValueError(f"malformed rational {s!r}: zero denominator")
        return Fraction(num, den)
    return Fraction(int(s))


def format_rat(q: Fraction) -> str:
    """Canonical string form: "p" for integers, "p/q" otherwise."""
    q = rat(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def vec(entries: Iterable) -> list[Fraction]:
    return [rat(x) for x in entries]


def vec_add(a: Sequence[Fraction], b: Sequence[Fraction]) -> list[Fraction]:
    return [x + y for x, y in zip(a, b, strict=True)]


def vec_sub(a: Sequence[Fraction], b: Sequence[Fraction]) -> list[Fraction]:
    return [x - y for x, y in zip(a, b, strict=True)]


def vec_scale(c: Fraction, a: Sequence[Fraction]) -> list[Fraction]:
    return [c * x for x in a]


def vec_is_zero(a: Sequence[Fraction]) -> bool:
    return all(x == 0 for x in a)


def vec_dot(a: Sequence[Fraction], b: Sequence[Fraction]) -> Fraction:
    return sum((x * y for x, y in zip(a, b, strict=True)), ZERO)


class Mat:
    """Dense matrix of Fractions."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, data: list[list[Fraction]]):
        if len(data) != rows or any(len(r) != cols for r in data):
            raise ValueError("entry count does not match shape")
        self.rows = rows
        self.cols = cols
        self.data = data

    @staticmethod
    def from_rows(rows: Sequence[Sequence]) -> Mat:
        data = [vec(r) for r in rows]
        ncols = len(data[0]) if data else 0
        return Mat(len(data), ncols, data)

    @staticmethod
    def zeros(rows: int, cols: int) -> Mat:
        return Mat(rows, cols, [[ZERO] * cols for _ in range(rows)])

    @staticmethod
    def identity(n: int) -> Mat:
        m = Mat.zeros(n, n)
        for i in range(n):
            m.data[i][i] = ONE
        return m

    def copy(self) -> Mat:
        return Mat(self.rows, self.cols, [row[:] for row in self.data])

    def __getitem__(self, ij: tuple[int, int]) -> Fraction:
        return self.data[ij[0]][ij[1]]

    def __setitem__(self, ij: tuple[int, int], value) -> None:
        self.data[ij[0]][ij[1]] = rat(value)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Mat)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(tuple(r) for r in self.data)))

    def __add__(self, other: Mat) -> Mat:
        self._check_shape(other)
        return Mat(self.rows, self.cols,
                   [vec_add(a, b) for a, b in zip(self.data, other.data)])

    def __sub__(self, other: Mat) -> Mat:
        self._check_shape(other)
        return Mat(self.rows, self.cols,
                   [vec_sub(a, b) for a, b in zip(self.data, other.data)])

    def __neg__(self) -> Mat:
        return self.scale(Fraction(-1))

    def _check_shape(self, other: Mat) -> None:
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError(f"shape mismatch {self.shape} vs {other.shape}")

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def scale(self, c) -> Mat:
        c = rat(c)
        return Mat(self.rows, self.cols, [vec_scale(c, r) for r in self.data])

    def __mul__(self, other):
        if isinstance(other, Mat):
            return self.matmul(other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def matmul(self, other: Mat) -> Mat:
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.shape} * {other.shape}")
        out = Mat.zeros(self.rows, other.cols)
        for i in range(self.rows):
            row = self.data[i]
            acc = out.data[i]
            for k in range(self.cols):
                c = row[k]
                if c == 0:
                    continue
                brow = other.data[k]
                for j in range(other.cols):
                    if brow[j] != 0:
                        acc[j] += c * brow[j]
        return out

    def apply(self, v: Sequence[Fraction]) -> list[Fraction]:
        if len(v) != self.cols:
            raise ValueError("vector length mismatch")
        return [vec_dot(row, v) for row in self.data]

    def transpose(self) -> Mat:
        return Mat(self.cols, self.rows,
                   [[self.data[i][j] for i in range(self.rows)] for j in range(self.cols)])

    def is_zero(self) -> bool:
        return all(vec_is_zero(r) for r in self.data)

    def flat(self) -> list[Fraction]:
        """Row-major flattening; index (i, j) -> i * cols + j."""
        return [x for row in self.data for x in row]

    @staticmethod
    def unflatten(entries: Sequence[Fraction], rows: int, cols: int) -> Mat:
        if len(entries) != rows * cols:
            raise ValueError("entry count does not match shape")
        return Mat(rows, cols, [vec(entries[i * cols:(i + 1) * cols]) for i in range(rows)])

    def nonzero_entries(self) -> list[tuple[int, int, Fraction]]:
        return [(i, j, self.data[i][j])
                for i in range(self.rows) for j in range(self.cols)
                if self.data[i][j] != 0]

    def rank(self) -> int:
        return len(rref_rows([row[:] for row in self.data]))

    def det(self) -> Fraction:
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        a = [row[:] for row in self.data]
        n = self.rows
        det = ONE
        for col in range(n):
            piv = next((r for r in range(col, n) if a[r][col] != 0), None)
            if piv is None:
                return ZERO
            if piv != col:
                a[col], a[piv] = a[piv], a[col]
                det = -det
            det *= a[col][col]
            inv = ONE / a[col][col]
            for r in range(col + 1, n):
                f = a[r][col] * inv
                if f != 0:
                    for c in range(col, n):
                        a[r][c] -= f * a[col][c]
        return det

    def inverse(self) -> Mat:
        if self.rows != self.cols:
            raise ValueError("inverse of a non-square matrix")
        n = self.rows
        eye = Mat.identity(n)
        aug = [self.data[i][:] + eye.data[i] for i in range(n)]
        rows = rref_rows(aug)
        if len(rows) != n:
            raise ValueError("matrix is singular")
        for i in range(n):
            if rows[i][:n] != [ONE if j == i else ZERO for j in range(n)]:
                raise ValueError("matrix is singular")
        return Mat(n, n, [row[n:] for row in rows])

    def __repr__(self):
        body = "; ".join(" ".join(format_rat(x) for x in row) for row in self.data)
        return f"Mat({self.rows}x{self.cols}: {body})"


def commutator(a: Mat, b: Mat) -> Mat:
    return a.matmul(b) - b.matmul(a)


def kron(p: Mat, q: Mat) -> Mat:
    """Kronecker product with row-major pairing: out[(a,b),(c,d)] = p[a,c] q[b,d]."""
    out = Mat.zeros(p.rows * q.rows, p.cols * q.cols)
    for a in range(p.rows):
        for c in range(p.cols):
            x = p.data[a][c]
            if x == 0:
                continue
            for b in range(q.rows):
                for d in range(q.cols):
                    y = q.data[b][d]
                    if y != 0:
                        out.data[a * q.rows + b][c * q.cols + d] = x * y
    return out


def rref_rows(rows: list[list[Fraction]]) -> list[list[Fraction]]:
    """In-place reduced row echelon form; returns the nonzero rows."""
    if not rows:
        return []
    n_cols = len(rows[0])
    piv_r = 0
    for col in range(n_cols):
        pivot = next((r for r in range(piv_r, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[piv_r], rows[pivot] = rows[pivot], rows[piv_r]
        inv = ONE / rows[piv_r][col]
        if inv != 1:
            rows[piv_r] = [x * inv for x in rows[piv_r]]
        for r in range(len(rows)):
            if r != piv_r and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[piv_r])]
        piv_r += 1
        if piv_r == len(rows):
            break
    return [row for row in rows[:piv_r]]


def pivot_columns(rref: Sequence[Sequence[Fraction]]) -> list[int]:
    pivots = []
    for row in rref:
        for j, x in enumerate(row):
            if x != 0:
                pivots.append(j)
                break
    return pivots


@dataclass(frozen=True)
class Subspace:
    """A subspace of Q^n, canonically represented by its RREF basis."""

    ambient_dim: int
    basis: tuple[tuple[Fraction, ...], ...]

    @staticmethod
    def from_vectors(vectors: Iterable[Sequence], ambient_dim: int | None = None) -> Subspace:
        rows = [vec(v) for v in vectors]
        if ambient_dim is None:
            if not rows:
                raise ValueError("ambient dimension required for an empty span")
            ambient_dim = len(rows[0])
        for r in rows:
            if len(r) != ambient_dim:
                raise ValueError("dimension mismatch in spanning set")
        reduced = rref_rows(rows)
        return Subspace(ambient_dim, tuple(tuple(r) for r in reduced))

    @staticmethod
    def zero(ambient_dim: int) -> Subspace:
        return Subspace(ambient_dim, ())

    @staticmethod
    def full(ambient_dim: int) -> Subspace:
        return Subspace.from_vectors(Mat.identity(ambient_dim).data, ambient_dim)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def basis_rows(self) -> list[list[Fraction]]:
        return [list(r) for r in self.basis]

    def pivots(self) -> list[int]:
        return pivot_columns(self.basis)

    def contains(self, v: Sequence) -> bool:
        return self.coordinates_of(v) is not None

    def coordinates_of(self, v: Sequence) -> list[Fraction] | None:
        """Coefficients of v in the RREF basis, or None if v is outside."""
        v = vec(v)
        if len(v) != self.ambient_dim:
            raise ValueError("dimension mismatch")
        coords = []
        pivots = self.pivots()
        for row, p in zip(self.basis, pivots):
            c = v[p]
            coords.append(c)
            if c != 0:
                v = [x - c * y for x, y in zip(v, row)]
        if not vec_is_zero(v):
            return None
        return coords

    def contains_subspace(self, other: Subspace) -> bool:
        return all(self.contains(list(r)) for r in other.basis)

    def add(self, other: Subspace) -> Subspace:
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("dimension mismatch")
        return Subspace.from_vectors(self.basis_rows() + other.basis_rows(), self.ambient_dim)

    def reduce(self, v: Sequence) -> list[Fraction]:
        """Canonical coset representative of v modulo this subspace."""
        v = vec(v)
        for row, p in zip(self.basis, self.pivots()):
            if v[p] != 0:
                c = v[p]
                v = [x - c * y for x, y in zip(v, row)]
        return v

    def meet_coordinates(self, indices: Sequence[int]) -> Subspace:
        """Intersection with the coordinate subspace spanned by e_i, i in
        indices.

        One RREF with the other columns ordered first: its rows that vanish
        on them span the intersection, and they are already in RREF in the
        original column order."""
        n = self.ambient_dim
        keep = set(indices)
        order = [j for j in range(n) if j not in keep] + sorted(keep)
        cut = n - len(keep)
        rows = rref_rows([[row[j] for j in order] for row in self.basis])
        out = []
        for row in rows:
            if any(row[:cut]):
                continue
            v = [ZERO] * n
            for j, x in zip(order[cut:], row[cut:]):
                v[j] = x
            out.append(tuple(v))
        return Subspace(n, tuple(out))


def rref_basis(vectors: Iterable[Sequence], ambient_dim: int | None = None) -> Subspace:
    """Canonical RREF basis of the span; idempotent on its own output."""
    return Subspace.from_vectors(vectors, ambient_dim)


def intersect_subspaces(a: Subspace, b: Subspace) -> Subspace:
    """Canonical basis of a ∩ b via the kernel of the stacked system."""
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("dimension mismatch")
    n = a.ambient_dim
    if a.dim == 0 or b.dim == 0:
        return Subspace.zero(n)
    # coefficient vectors (x, y) with x·A - y·B = 0 give intersection vectors x·A
    stacked = Mat.from_rows(a.basis_rows() + [vec_scale(Fraction(-1), r) for r in b.basis_rows()])
    combos = kernel_basis(stacked.transpose())
    vecs = []
    for c in combos:
        x = c[:a.dim]
        v = [ZERO] * n
        for coeff, row in zip(x, a.basis):
            if coeff != 0:
                v = [s + coeff * t for s, t in zip(v, row)]
        vecs.append(v)
    return Subspace.from_vectors(vecs, n)


def kernel_basis(m: Mat) -> list[list[Fraction]]:
    """Basis of {v : m v = 0}, from the RREF free variables."""
    rows = rref_rows([row[:] for row in m.data])
    pivots = pivot_columns(rows)
    pivot_set = set(pivots)
    basis = []
    for j in range(m.cols):
        if j in pivot_set:
            continue
        v = [ZERO] * m.cols
        v[j] = ONE
        for row, p in zip(rows, pivots):
            v[p] = -row[j]
        basis.append(v)
    return basis


@dataclass
class LinearSolution:
    """Outcome of solve_linear: a particular solution plus the kernel, or an
    infeasibility certificate y with y·A = 0 and y·b != 0."""

    feasible: bool
    particular: list[Fraction] | None
    kernel: Subspace
    certificate: list[Fraction] | None = None


def solve_linear(a: Mat, b: Sequence) -> LinearSolution:
    """Solve a x = b over Q, with full solution-space description."""
    b = vec(b)
    if len(b) != a.rows:
        raise ValueError(f"shape mismatch: {a.rows} rows vs {len(b)} entries")
    m, n = a.rows, a.cols
    work = [a.data[i][:] + [b[i]] for i in range(m)]
    transform = Mat.identity(m).data
    piv_r = 0
    pivots = []
    for col in range(n):
        pivot = next((r for r in range(piv_r, m) if work[r][col] != 0), None)
        if pivot is None:
            continue
        work[piv_r], work[pivot] = work[pivot], work[piv_r]
        transform[piv_r], transform[pivot] = transform[pivot], transform[piv_r]
        inv = ONE / work[piv_r][col]
        if inv != 1:
            work[piv_r] = [x * inv for x in work[piv_r]]
            transform[piv_r] = [x * inv for x in transform[piv_r]]
        for r in range(m):
            if r != piv_r and work[r][col] != 0:
                f = work[r][col]
                work[r] = [x - f * y for x, y in zip(work[r], work[piv_r])]
                transform[r] = [x - f * y for x, y in zip(transform[r], transform[piv_r])]
        pivots.append(col)
        piv_r += 1
        if piv_r == m:
            break
    for r in range(piv_r, m):
        if work[r][n] != 0:
            # transform[r] · A = 0 while transform[r] · b != 0
            return LinearSolution(False, None, _kernel_from_rref(work, pivots, n),
                                  certificate=transform[r][:])
    particular = [ZERO] * n
    for row, p in zip(work[:piv_r], pivots):
        particular[p] = row[n]
    return LinearSolution(True, particular, _kernel_from_rref(work, pivots, n))


def _kernel_from_rref(work, pivots, n) -> Subspace:
    pivot_set = set(pivots)
    basis = []
    for j in range(n):
        if j in pivot_set:
            continue
        v = [ZERO] * n
        v[j] = ONE
        for row, p in zip(work, pivots):
            v[p] = -row[j]
        basis.append(v)
    return Subspace.from_vectors(basis, n) if basis else Subspace.zero(n)


# ---------------------------------------------------------------------------
# integer lattices


def hermite_normal_form(rows: Sequence[Sequence[int]]) -> list[list[int]]:
    """Row Hermite normal form (same integer row span, pivots positive,
    entries above each pivot reduced into [0, pivot))."""
    work = [list(map(int, r)) for r in rows if any(x != 0 for x in r)]
    if not work:
        return []
    n = len(work[0])
    h: list[list[int]] = []
    for col in range(n):
        while True:
            live = [r for r in work if r[col] != 0]
            if len(live) <= 1:
                break
            live.sort(key=lambda r: abs(r[col]))
            base = live[0]
            for r in live[1:]:
                q = r[col] // base[col]
                if q != 0:
                    for c in range(n):
                        r[c] -= q * base[c]
            work = [r for r in work if any(x != 0 for x in r)]
        live = [r for r in work if r[col] != 0]
        if not live:
            continue
        pivot = live[0]
        work = [r for r in work if r is not pivot]
        if pivot[col] < 0:
            pivot = [-x for x in pivot]
        for r in h:
            q = r[col] // pivot[col]
            if q != 0:
                for c in range(n):
                    r[c] -= q * pivot[c]
        h.append(pivot)
    return h


@dataclass(frozen=True)
class IntLattice:
    """Integer row span with a cached Hermite normal form."""

    ambient_rank: int
    generators: tuple[tuple[int, ...], ...]
    hermite_form: tuple[tuple[int, ...], ...] = field(init=False)

    def __post_init__(self):
        for g in self.generators:
            if len(g) != self.ambient_rank:
                raise ValueError("generator length mismatch")
        h = hermite_normal_form(self.generators)
        object.__setattr__(self, "hermite_form", tuple(tuple(r) for r in h))

    @staticmethod
    def from_rows(rows: Iterable[Sequence[int]], ambient_rank: int) -> IntLattice:
        return IntLattice(ambient_rank, tuple(tuple(int(x) for x in r) for r in rows))

    @property
    def rank(self) -> int:
        return len(self.hermite_form)

    def member(self, v: Sequence[int]) -> bool:
        """True iff v lies in the integer row span (HNF back-substitution)."""
        v = list(map(int, v))
        if len(v) != self.ambient_rank:
            raise ValueError("dimension mismatch")
        for row in self.hermite_form:
            col = next(c for c, x in enumerate(row) if x != 0)
            if v[col] % row[col] == 0:
                q = v[col] // row[col]
                if q != 0:
                    v = [x - q * y for x, y in zip(v, row)]
        return all(x == 0 for x in v)


def lattice_member(lattice: IntLattice, v: Sequence[int]) -> bool:
    return lattice.member(v)


def smith_normal_form(a: Sequence[Sequence[int]]) -> list[int]:
    """Invariant factors d_1 | d_2 | ... of an integer matrix.

    Only the diagonal is returned; it is what quotient-torsion questions need.
    Subgroup membership goes through the cheaper Hermite form instead.
    """
    d = [list(map(int, row)) for row in a]
    m = len(d)
    n = len(d[0]) if m else 0
    diag: list[int] = []
    k = 0
    while k < min(m, n):
        found = next(((i, j) for i in range(k, m) for j in range(k, n) if d[i][j] != 0), None)
        if found is None:
            break
        i, j = found
        d[k], d[i] = d[i], d[k]
        if j != k:
            for row in d:
                row[k], row[j] = row[j], row[k]
        while True:
            for i in range(k + 1, m):
                while d[i][k] != 0:
                    q = d[i][k] // d[k][k]
                    d[i] = [x - q * y for x, y in zip(d[i], d[k])]
                    if d[i][k] != 0:
                        d[k], d[i] = d[i], d[k]
            col_clean = True
            for j in range(k + 1, n):
                while d[k][j] != 0:
                    q = d[k][j] // d[k][k]
                    for row in d:
                        row[j] -= q * row[k]
                    if d[k][j] != 0:
                        for row in d:
                            row[k], row[j] = row[j], row[k]
                        col_clean = False
            if col_clean and all(d[i][k] == 0 for i in range(k + 1, m)):
                break
        diag.append(abs(d[k][k]))
        k += 1
    changed = True
    while changed:
        changed = False
        for i in range(len(diag) - 1):
            g = math.gcd(diag[i], diag[i + 1])
            l = diag[i] // g * diag[i + 1] if g else 0
            if (g, l) != (diag[i], diag[i + 1]):
                diag[i], diag[i + 1] = g, l
                changed = True
    return diag
