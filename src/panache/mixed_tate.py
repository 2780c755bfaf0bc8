"""Mixed-Tate layer: extension-dimension rules, the three-case
classification of three-step objects with full unipotent kernel, Kummer
class canonicalisation, model realisations, and symbolic period matrices.

Period entries are formal monomials in powers of 2*pi*i, zeta values at
integers, logarithms of rationals, and named opaque unknowns; nothing is
ever evaluated numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .linalg import ONE, format_rat, rat
from .objects import (RepObject, dual, is_isomorphic, simple_character,
                      tensor_product, unit_object, weight_filtration)
from .galois import galois_dim, u_of
from .cohomology import ExtClassHandle, e_p_class, ext1_class
from .blends import BlendResult, CompatiblePair, attached_unique, blend, is_large_u
from .axioms import ia3_holds
from .presentations import GroupPresentation, free_graded_lie, tate_convention

PRIMES = (2, 3, 5, 7, 11, 13, 17, 19)
DEFAULT_DESK_RANK = 8


# ---------------------------------------------------------------------------
# dimension rules and Kummer classes


@dataclass(frozen=True)
class ExtDimRule:
    kind: str                    # "zero" | "one" | "kummer"
    desk_rank: int = 0

    def dim(self) -> int:
        return {"zero": 0, "one": 1, "kummer": self.desk_rank}[self.kind]


def ext_dim_rule(n: int, desk_rank: int = DEFAULT_DESK_RANK) -> ExtDimRule:
    """Dimension of the space of extensions of the unit by the n-th twist."""
    if n == 1:
        return ExtDimRule("kummer", desk_rank)
    if n >= 3 and n % 2 == 1:
        return ExtDimRule("one")
    return ExtDimRule("zero")


def _factor(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


@dataclass(frozen=True)
class KummerClass:
    """A canonical Kummer parameter: r = prod p^e with gcd of exponents one
    and value > 1."""

    exponents: tuple[tuple[int, int], ...]

    def value(self) -> Fraction:
        out = Fraction(1)
        for p, e in self.exponents:
            out *= Fraction(p) ** e
        return out

    def primes(self) -> list[int]:
        return [p for p, _ in self.exponents]


def exponent_vector(r: Fraction) -> dict[int, int]:
    r = rat(r)
    if r <= 0:
        raise ValueError("positive rationals only")
    num = _factor(r.numerator)
    den = _factor(r.denominator)
    out = dict(num)
    for p, e in den.items():
        out[p] = out.get(p, 0) - e
    return {p: e for p, e in out.items() if e}


def kummer_canonical(r) -> KummerClass:
    """Divide the exponent vector by its gcd and normalise the value above 1."""
    r = rat(r)
    if r == 1:
        raise ValueError("the trivial class has no canonical representative")
    exps = exponent_vector(r)
    g = 0
    for e in exps.values():
        g = math.gcd(g, abs(e))
    exps = {p: e // g for p, e in exps.items()}
    value = Fraction(1)
    for p, e in exps.items():
        value *= Fraction(p) ** e
    if value < 1:
        exps = {p: -e for p, e in exps.items()}
    return KummerClass(tuple(sorted(exps.items())))


# ---------------------------------------------------------------------------
# the model


def build_mt_model(max_twist: int, kummer_rank: int = 1) -> GroupPresentation:
    """Free graded model whose twist cohomology matches the dimension rule
    below the truncation: odd generators from degree 3 up, plus one degree-1
    generator per small prime."""
    if max_twist < 3:
        raise ValueError("max_twist must be at least 3")
    if not (1 <= kummer_rank <= len(PRIMES)):
        raise ValueError("kummer_rank out of range")
    rank, weight = tate_convention()
    degrees: list[tuple[int, ...]] = []
    names: list[str] = []
    for d in range(3, max_twist + 1, 2):
        degrees.append((d,))
        names.append(f"s{d}")
    for p in PRIMES[:kummer_rank]:
        degrees.append((1,))
        names.append(f"k{p}")
    return free_graded_lie(rank, weight, degrees, -2 * max_twist, names=names)


def tate_object(model: GroupPresentation, n: int) -> RepObject:
    return simple_character(model, (n,))


def sigma_class(model: GroupPresentation, n: int,
                source: RepObject | None = None) -> ExtClassHandle:
    """The generator class of the one-dimensional extension space at an odd
    twist n >= 3, optionally twisted to a class against a source object."""
    if source is None:
        source = unit_object(model)
    k = source.characters[0][0]
    target = tate_object(model, n + k)
    idx = model.index_of(f"s{n}")
    return ext1_class(source, target, {idx: [ONE]})


def kummer_class(model: GroupPresentation, r,
                 source: RepObject | None = None) -> ExtClassHandle:
    """The Kummer class of a positive rational, against Q(source twist + 1)."""
    exps = exponent_vector(rat(r))
    if source is None:
        source = unit_object(model)
    k = source.characters[0][0]
    target = tate_object(model, k + 1)
    comps = {}
    for p, e in exps.items():
        try:
            idx = model.index_of(f"k{p}")
        except KeyError:
            raise ValueError(f"model lacks the degree-one generator for prime {p}")
        comps[idx] = [Fraction(e)]
    return ext1_class(source, target, comps)


# ---------------------------------------------------------------------------
# period symbols


@dataclass(frozen=True)
class Monomial:
    two_pi_i: int = 0
    zetas: tuple[int, ...] = ()
    logs: tuple[Fraction, ...] = ()
    stars: tuple[str, ...] = ()

    def render(self) -> str:
        parts = []
        if self.two_pi_i:
            parts.append(f"(2pi*i)^{self.two_pi_i}")
        parts.extend(f"zeta({m})" for m in self.zetas)
        parts.extend(f"log({format_rat(x)})" for x in self.logs)
        parts.extend(f"*{s}*" for s in self.stars)
        return " ".join(parts) if parts else "1"

    def as_dict(self) -> dict:
        return {
            "two_pi_i": self.two_pi_i,
            "zetas": list(self.zetas),
            "logs": [format_rat(x) for x in self.logs],
            "stars": list(self.stars),
        }


PeriodEntry = tuple[tuple[Fraction, Monomial], ...]


def entry(*terms) -> PeriodEntry:
    return tuple((rat(c), m) for c, m in terms)


ZERO_ENTRY: PeriodEntry = ()


@dataclass
class PeriodMatrix:
    """Square matrix of formal period sums; rows ordered by ascending weight,
    upper-triangular, diagonal entries pure powers of 2*pi*i."""

    row_weights: tuple[int, ...]
    entries: list[list[PeriodEntry]]

    def __post_init__(self):
        n = len(self.row_weights)
        if len(self.entries) != n or any(len(r) != n for r in self.entries):
            raise ValueError("entry grid does not match the weight list")
        if list(self.row_weights) != sorted(self.row_weights):
            raise ValueError("rows must be ordered by ascending weight")
        for i in range(n):
            for j in range(n):
                if j < i and self.entries[i][j]:
                    raise ValueError("matrix must be weight-upper-triangular")
        for i in range(n):
            diag = self.entries[i][i]
            if len(diag) != 1:
                raise ValueError("diagonal entries must be single monomials")
            coeff, mono = diag[0]
            if coeff != 1 or mono.zetas or mono.logs or mono.stars:
                raise ValueError("diagonal entries must be pure powers of 2*pi*i")

    @property
    def size(self) -> int:
        return len(self.row_weights)

    def symbol_set(self) -> set[str]:
        out = set()
        for row in self.entries:
            for ent in row:
                for _, m in ent:
                    out.add(m.render())
        out.discard("1")
        return out

    def render_text(self) -> str:
        cells = [[" + ".join(
            (f"{format_rat(c)}*" if c != 1 else "") + m.render() for c, m in ent)
            or "0" for ent in row] for row in self.entries]
        widths = [max(len(cells[i][j]) for i in range(self.size)) for j in range(self.size)]
        lines = []
        for row in cells:
            lines.append("[ " + "  ".join(c.ljust(w) for c, w in zip(row, widths)) + " ]")
        return "\n".join(lines)

    def as_dict(self) -> dict:
        return {
            "row_weights": list(self.row_weights),
            "entries": [[[[format_rat(c), m.as_dict()] for c, m in ent]
                         for ent in row] for row in self.entries],
        }


def _p(k: int) -> Monomial:
    return Monomial(two_pi_i=k)


def _diag(k: int) -> PeriodEntry:
    return entry((1, _p(k)))


# ---------------------------------------------------------------------------
# classification


@dataclass
class ClassificationResult:
    case: str                     # "I" | "II" | "III" | "Rejected"
    n: int
    k: int
    reason: str = ""
    parameter_space: str = ""
    r: Fraction | None = None
    model: GroupPresentation | None = None
    pair: CompatiblePair | None = None
    blend_result: BlendResult | None = None

    @property
    def representative(self) -> RepObject | None:
        if self.blend_result is not None and self.blend_result.ok:
            return self.blend_result.diagram.m
        return None

    def as_dict(self) -> dict:
        out = {"case": self.case, "n": self.n, "k": self.k}
        if self.reason:
            out["reason"] = self.reason
        if self.parameter_space:
            out["parameter_space"] = self.parameter_space
        if self.r is not None:
            out["r"] = format_rat(self.r)
        return out


KUMMER_FAMILY = "canonical Kummer parameters r > 1 not of the form s^a, a > 1"


def _required_rank(r: Fraction | None) -> int:
    if r is None:
        return 1
    primes = [p for p, _ in kummer_canonical(r).exponents]
    need = max(PRIMES.index(p) for p in primes) + 1 if primes else 1
    return need


def classify_three_dim(n: int, k: int, r=None,
                       model: GroupPresentation | None = None) -> ClassificationResult:
    """Classify three-step objects with graded pieces at twists n > k > 0 and
    full unipotent kernel, building a model representative by blending."""
    if not (isinstance(n, int) and isinstance(k, int) and n > k > 0):
        raise ValueError("need integers n > k > 0")
    if ext_dim_rule(k).kind == "zero" or ext_dim_rule(n - k).kind == "zero":
        # no pair with both entries nonsplit exists; when n = 2k the failing
        # twist is k itself, which is the independence-axiom boundary case
        reason = "n = 2k" if n == 2 * k else (
            f"no nonsplit extension of 1 by the twist {k}"
            if ext_dim_rule(k).kind == "zero"
            else f"no nonsplit extension at the twist gap {n - k}")
        return ClassificationResult("Rejected", n, k, reason=reason)
    caveat = ""
    if n == 2 * k:
        caveat = ("independence axiom fails (n = 2k): existence and uniqueness "
                  "still hold, but a full unipotent kernel is not guaranteed")

    r_frac = rat(r) if r is not None else (Fraction(2) if (k == 1 or n == k + 1) else None)
    if model is None:
        model = build_mt_model(max(n, 3), _required_rank(r_frac))

    b_obj = tate_object(model, n)
    a_obj = tate_object(model, k)
    c_obj = unit_object(model)
    if n - k == 1:
        l_cls = kummer_class(model, r_frac, source=a_obj)
    else:
        l_cls = sigma_class(model, n - k, source=a_obj)
    if k == 1:
        n_cls = kummer_class(model, r_frac, source=c_obj)
    else:
        n_cls = sigma_class(model, k, source=c_obj)
    pair = CompatiblePair(b_obj, a_obj, c_obj, l_cls, n_cls)
    res = blend(pair)

    if k == 1:
        case, space = "I", KUMMER_FAMILY
    elif n == k + 1:
        case, space = "III", KUMMER_FAMILY
    else:
        case, space = "II", "a single object up to isomorphism"
    return ClassificationResult(case, n, k, reason=caveat, parameter_space=space,
                                r=r_frac, model=model, pair=pair, blend_result=res)


def classification_unique(result: ClassificationResult):
    if result.pair is None:
        raise ValueError("no pair on a rejected classification")
    return attached_unique(result.pair)


# ---------------------------------------------------------------------------
# period reports


@dataclass
class PeriodReport:
    matrix: PeriodMatrix
    independent_symbols: list[str]
    galois_dimension: int
    notes: list[str] = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "matrix": self.matrix.as_dict(),
            "independent_symbols": self.independent_symbols,
            "galois_dimension": self.galois_dimension,
            "notes": self.notes,
        }


def period_matrix_report(result: ClassificationResult) -> PeriodReport:
    """The symbolic period matrix of a classified three-step object, plus the
    predicted algebraically independent symbols."""
    if result.case == "Rejected":
        raise ValueError("rejected classifications have no period matrix")
    n, k = result.n, result.k
    rep = result.representative
    gdim = galois_dim(rep) if rep is not None else 4
    star = Monomial(stars=(_star_name(result),))
    notes = []
    if result.case == "I":
        rv = result.r
        matrix = PeriodMatrix(
            (-2 * n, -2, 0),
            [[_diag(-n), entry((1, Monomial(-n, zetas=(n - 1,)))), entry((1, star))],
             [ZERO_ENTRY, _diag(-1), entry((1, Monomial(-1, logs=(rv,))))],
             [ZERO_ENTRY, ZERO_ENTRY, _diag(0)]])
        symbols = ["2pi*i", f"zeta({n - 1})", f"log({format_rat(rv)})", star.render()]
    elif result.case == "II":
        matrix = PeriodMatrix(
            (-2 * n, -2 * k, 0),
            [[_diag(-n), entry((1, Monomial(-n, zetas=(n - k,)))), entry((1, star))],
             [ZERO_ENTRY, _diag(-k), entry((1, Monomial(-k, zetas=(k,))))],
             [ZERO_ENTRY, ZERO_ENTRY, _diag(0)]])
        symbols = ["2pi*i", f"zeta({n - k})", f"zeta({k})", star.render()]
    else:
        rv = result.r
        matrix = PeriodMatrix(
            (-2 * n, -2 * k, 0),
            [[_diag(-n), entry((1, Monomial(-n, logs=(rv,)))), entry((1, star))],
             [ZERO_ENTRY, _diag(-k), entry((1, Monomial(-k, zetas=(k,))))],
             [ZERO_ENTRY, ZERO_ENTRY, _diag(0)]])
        symbols = ["2pi*i", f"log({format_rat(rv)})", f"zeta({k})", star.render()]
    if result.case == "I" and (n, result.r) == (4, Fraction(2)):
        notes.append(
            "algebraic independence of 2pi*i, zeta(3) and log(2) rules out any "
            "rational identity zeta(3) = a*log(2)^3 + b*pi^2*log(2)")
    notes.append("the starred entry is a new period left opaque by design")
    return PeriodReport(matrix, symbols, gdim, notes)


def _star_name(result: ClassificationResult) -> str:
    if result.case == "II":
        return f"Z({result.n},{result.k})"
    tag = "M" if result.case == "I" else "M'"
    return f"{tag}({result.n},{format_rat(result.r)})"


# ---------------------------------------------------------------------------
# duality


def duality_check(n: int, r) -> bool:
    """Build the twist-(n, n-1) family member, dualise, twist back up, and
    compare with the (n, 1) family member at the same parameter."""
    k = n - 1
    if not (k > 1 and ext_dim_rule(k).kind != "zero"):
        raise ValueError("duality check needs the adjacent-twist case")
    r_frac = rat(r)
    model = build_mt_model(max(n, 3), _required_rank(r_frac))
    case3 = classify_three_dim(n, k, r_frac, model=model)
    case1 = classify_three_dim(n, 1, r_frac, model=model)
    m3, m1 = case3.representative, case1.representative
    if m3 is None or m1 is None:
        raise RuntimeError("blend unexpectedly obstructed")
    twisted = tensor_product(dual(m3), tate_object(model, n))
    return is_isomorphic(twisted, m1).status == "yes"


# ---------------------------------------------------------------------------
# the four-dimensional example


@dataclass
class FourDimReport:
    object: RepObject
    ia3: bool
    large: bool
    dim_u: int
    galois_dimension: int
    period: PeriodReport

    def as_dict(self) -> dict:
        return {
            "ia3": self.ia3,
            "large": self.large,
            "dim_u": self.dim_u,
            "galois_dimension": self.galois_dimension,
            "period": self.period.as_dict(),
        }


def build_four_dim_example(r=2, model: GroupPresentation | None = None) -> FourDimReport:
    """Blend the weight filtration of the (4, r) representative, twisted five
    steps up, against a nonsplit extension at twist five."""
    r_frac = rat(r)
    if model is None:
        model = build_mt_model(9, _required_rank(r_frac))
    case1 = classify_three_dim(4, 1, r_frac, model=model)
    m4 = case1.representative
    if m4 is None:
        raise RuntimeError("the three-dimensional blend is obstructed")
    sub = weight_filtration(m4, -2).source          # twists {4, 1}
    five = tate_object(model, 5)
    b_obj = tensor_product(sub, five)               # twists {9, 6}
    a_obj = five
    c_obj = unit_object(model)
    base = e_p_class(m4, -2)
    l_cls = ext1_class(a_obj, b_obj, {i: list(v) for i, v in base.comps.items()})
    n_cls = sigma_class(model, 5)
    pair = CompatiblePair(b_obj, a_obj, c_obj, l_cls, n_cls)
    res = blend(pair)
    if not res.ok:
        raise RuntimeError("the four-dimensional blend is obstructed")
    m_tilde = res.diagram.m
    ia3, _ = ia3_holds(m_tilde)
    large = is_large_u(m_tilde)
    star4 = Monomial(stars=(f"M~(9,6,5;{format_rat(r_frac)})",))
    star_m = Monomial(two_pi_i=-5, stars=(f"M(4,{format_rat(r_frac)})",))
    star_p = Monomial(stars=(f"M'(6,{format_rat(r_frac)})",))
    matrix = PeriodMatrix(
        (-18, -12, -10, 0),
        [[_diag(-9), entry((1, Monomial(-9, zetas=(3,)))), entry((1, star_m)),
          entry((1, star4))],
         [ZERO_ENTRY, _diag(-6), entry((1, Monomial(-6, logs=(r_frac,)))),
          entry((1, star_p))],
         [ZERO_ENTRY, ZERO_ENTRY, _diag(-5), entry((1, Monomial(-5, zetas=(5,))))],
         [ZERO_ENTRY, ZERO_ENTRY, ZERO_ENTRY, _diag(0)]])
    gdim = galois_dim(m_tilde)
    symbols = ["2pi*i", "zeta(3)", "zeta(5)", f"log({format_rat(r_frac)})",
               f"*M(4,{format_rat(r_frac)})*", f"*M'(6,{format_rat(r_frac)})*",
               f"*M~(9,6,5;{format_rat(r_frac)})*"]
    period = PeriodReport(matrix, symbols, gdim,
                          notes=["five is the smallest twist step whose shift "
                                 "keeps all weight differences distinct"])
    return FourDimReport(m_tilde, ia3, large, u_of(m_tilde).dim, gdim, period)
