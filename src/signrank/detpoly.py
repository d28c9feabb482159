"""The symbolic determinant polynomial of a graph's adjacency matrix.

With variable x_k on edge e_k, the determinant of the symbolic adjacency
matrix expands over nonzero transversals, which correspond to {1,2}-factors:
a factor with a K2 components and cycles of lengths l_1..l_c contributes the
monomial with exponent 2 on its K2 edges and 1 on its cycle edges, with
coefficient (-1)^a * prod_j (-1)^(l_j - 1) * 2^c (one term per orientation
of each cycle, all equal).  Distinct factors give distinct monomials, so the
polynomial has exactly one term per factor and is homogeneous of degree n.

Terms are stored as a dict from dense exponent tuples (entries in {0,1,2})
to integer coefficients; zero coefficients are never stored.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence, Union

from .assignments import EdgeAssignment
from .errors import InvalidAssignmentError, ResourceCapError
from .graph_core import Graph
from .factors import LISTING_CAP, count_factors, iter_factors


@dataclass(frozen=True, eq=True)
class DetPolynomial:
    """Sparse integer polynomial in m edge variables, exponents 0..2."""

    m: int
    terms: dict[tuple[int, ...], int] = field(default_factory=dict)

    def __post_init__(self):
        for exp, coeff in self.terms.items():
            if len(exp) != self.m:
                raise ValueError("exponent vector length must equal m")
            if coeff == 0:
                raise ValueError("zero coefficients must not be stored")

    def term_count(self) -> int:
        return len(self.terms)


def det_poly(g: Graph, max_terms: int = LISTING_CAP) -> DetPolynomial:
    """Build the determinant polynomial from the factor expansion.

    One term per {1,2}-factor; raises ResourceCapError, before listing any
    factor, if the exact factor count exceeds max_terms (the polynomial can
    be exponentially large).
    """
    if count_factors(g) > max_terms:
        raise ResourceCapError(
            f"determinant polynomial exceeds {max_terms} terms; raise max_terms")
    m = g.m
    terms: dict[tuple[int, ...], int] = {}
    for f in iter_factors(g):
        exp = [0] * m
        for i in f.k2_edges:
            exp[i] = 2
        sign = -1 if f.k2_count % 2 else 1
        for cyc in f.cycles:
            for i in cyc:
                exp[i] = 1
            if len(cyc) % 2 == 0:
                sign = -sign
        coeff = sign * (1 << f.cycle_count)
        key = tuple(exp)
        assert key not in terms  # factor -> monomial is injective
        assert sum(key) == g.n  # homogeneous of degree n
        terms[key] = coeff
    return DetPolynomial(m, terms)


def reduce_squares(p: DetPolynomial) -> DetPolynomial:
    """Replace every squared variable by 1, merging coefficients.

    The result is multilinear; terms cancelling to zero are dropped."""
    out: dict[tuple[int, ...], int] = {}
    for exp, coeff in p.terms.items():
        if any(e > 2 for e in exp):
            raise ValueError("reduce_squares requires exponents <= 2")
        key = tuple(0 if e == 2 else e for e in exp)
        out[key] = out.get(key, 0) + coeff
    return DetPolynomial(p.m, {k: c for k, c in out.items() if c != 0})


def edge_degree_split(p: DetPolynomial, i: int) -> tuple[DetPolynomial, DetPolynomial, DetPolynomial]:
    """Split p by its degree in variable i: p = x_i^2*quad + x_i*lin + const.

    The three parts are polynomials in the remaining variables (variable i's
    exponent is zeroed in their keys)."""
    quad: dict[tuple[int, ...], int] = {}
    lin: dict[tuple[int, ...], int] = {}
    const: dict[tuple[int, ...], int] = {}
    for exp, coeff in p.terms.items():
        d = exp[i]
        key = exp[:i] + (0,) + exp[i + 1:]
        if d == 2:
            quad[key] = coeff
        elif d == 1:
            lin[key] = coeff
        else:
            const[key] = coeff
    return DetPolynomial(p.m, quad), DetPolynomial(p.m, lin), DetPolynomial(p.m, const)


def evaluate(p: DetPolynomial, w: Union[EdgeAssignment, Sequence[int]]) -> int:
    """Exact value of p at an integer point (zeros allowed)."""
    values = w.values if isinstance(w, EdgeAssignment) else tuple(int(x) for x in w)
    if len(values) != p.m:
        raise InvalidAssignmentError(f"point has {len(values)} coordinates, polynomial has {p.m}")
    total = 0
    for exp, coeff in p.terms.items():
        term = coeff
        for e, v in zip(exp, values):
            if e == 1:
                term *= v
            elif e == 2:
                term *= v * v
            if term == 0:
                break
        total += term
    return total


def is_zero_polynomial(p: DetPolynomial) -> bool:
    return not p.terms


def is_single_monomial(p: DetPolynomial) -> bool:
    return len(p.terms) == 1


def to_text(p: DetPolynomial) -> str:
    """Deterministic textual dump: monomials sorted by descending exponent
    tuple, variables printed 1-based as x1..xm."""
    if not p.terms:
        return "0"
    parts = []
    for exp, coeff in sorted(p.terms.items(), reverse=True):
        factors = []
        for i, e in enumerate(exp):
            if e == 1:
                factors.append(f"x{i + 1}")
            elif e == 2:
                factors.append(f"x{i + 1}^2")
        mono = "*".join(factors)
        if not mono:
            body = str(abs(coeff))
        elif abs(coeff) == 1:
            body = mono
        else:
            body = f"{abs(coeff)}*{mono}"
        parts.append(("- " if coeff < 0 else "+ ") + body)
    head = parts[0]
    text = head[2:] if head.startswith("+ ") else "-" + head[2:]
    return " ".join([text] + parts[1:])
