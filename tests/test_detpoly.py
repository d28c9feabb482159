"""The determinant polynomial of the symbolic adjacency matrix: its factor
expansion (tests/oracles.py) against the exact determinant, and the one
monomial that the weight search prints when a graph has a single factor."""

import random
import re

from signrank.exact_linalg import adjacency_matrix, det, matrix_at_point
from signrank.factors import count_factors, count_factors_at_most
from signrank.graph_core import Graph
from signrank.weight_search import find_singular_weight

from conftest import complete, cycle, path
from oracles import edge_membership, expansion_at, factor_expansion


def split(terms: dict, i: int) -> tuple[dict, dict, dict]:
    """The parts of degree 2, 1 and 0 in x_i, with x_i's exponent zeroed:
    f = x_i^2 * quad + x_i * lin + const."""
    parts = ({}, {}, {})
    for exp, coeff in terms.items():
        parts[2 - exp[i]][exp[:i] + (0,) + exp[i + 1:]] = coeff
    return parts


def reason_monomial(g: Graph) -> str:
    """The monomial in the weight search's t = 1 impossibility reason."""
    out = find_singular_weight(g)
    assert out.witness is None
    return re.fullmatch(r"unique factor: determinant polynomial is the single monomial "
                        r"(\S+), nonzero at every nowhere-zero point",
                        out.certificate_impossible).group(1)


def parse_monomial(text: str, m: int) -> dict[tuple[int, ...], int]:
    """The printed monomial back as a one-term expansion."""
    coeff, exp = -1 if text.startswith("-") else 1, [0] * m
    for part in text.lstrip("-").split("*"):
        if part.startswith("x"):
            var, _, power = part[1:].partition("^")
            exp[int(var) - 1] = int(power or 1)
        else:
            coeff *= int(part)
    return {tuple(exp): coeff}


class TestConstruction:
    def test_k2(self):
        assert factor_expansion(complete(2)) == {(2,): -1}

    def test_k3(self):
        assert factor_expansion(complete(3)) == {(1, 1, 1): 2}

    def test_c4(self):
        assert factor_expansion(cycle(4)) == {
            (2, 0, 0, 2): 1,
            (0, 2, 2, 0): 1,
            (1, 1, 1, 1): -2,
        }

    def test_p3_is_zero(self):
        assert factor_expansion(path(3)) == {}

    def test_null_graph_is_constant_one(self):
        assert factor_expansion(Graph(0, ())) == {(): 1}

    def test_one_term_per_factor_and_homogeneous(self, corpus_le5):
        for g in corpus_le5:
            terms = factor_expansion(g)
            assert len(terms) == count_factors(g)
            assert all(sum(exp) == g.n for exp in terms)


class TestEdgeDegreeSplit:
    def test_c4_edge0(self):
        quad, lin, const = split(factor_expansion(cycle(4)), 0)
        assert quad == {(0, 0, 0, 2): 1}
        assert lin == {(0, 1, 1, 1): -2}
        assert const == {(0, 2, 2, 0): 1}

    def test_k2(self):
        assert split(factor_expansion(complete(2)), 0) == ({(0,): -1}, {}, {})

    def test_k3(self):
        assert split(factor_expansion(complete(3)), 0) == ({}, {(0, 1, 1): 2}, {})

    def test_recombines(self):
        rng = random.Random(3)
        for g in (cycle(4), complete(4), cycle(5)):
            terms = factor_expansion(g)
            for i in range(g.m):
                quad, lin, const = split(terms, i)
                for _ in range(5):
                    w = [rng.randint(-5, 5) for _ in range(g.m)]
                    xi = w[i]
                    assert expansion_at(terms, w) == (
                        xi * xi * expansion_at(quad, w)
                        + xi * expansion_at(lin, w)
                        + expansion_at(const, w)
                    )


class TestEvaluate:
    def test_c4_all_ones(self):
        assert expansion_at(factor_expansion(cycle(4)), (1, 1, 1, 1)) == 0

    def test_k3(self):
        assert expansion_at(factor_expansion(complete(3)), (1, 2, 3)) == 12

    def test_all_zero_gives_constant_term(self):
        assert expansion_at({(0, 0): 7, (1, 1): 3}, (0, 0)) == 7


class TestPredicates:
    """The weight search tells t = 0 and t = 1 apart by count_factors_at_most,
    never by building the polynomial."""

    def test_single_monomial(self, corpus_le6):
        for g in corpus_le6:
            assert (len(factor_expansion(g)) == 1) == (count_factors_at_most(g, 2) == 1)

    def test_zero(self, corpus_le6):
        for g in corpus_le6:
            assert (not factor_expansion(g)) == (count_factors_at_most(g, 2) == 0)


class TestText:
    """The t = 1 reason names the determinant's one monomial."""

    def test_k2(self):
        assert reason_monomial(complete(2)) == "-x1^2"

    def test_k3(self):
        assert reason_monomial(complete(3)) == "2*x1*x2*x3"

    def test_null_graph(self):
        assert reason_monomial(Graph(0, ())) == "1"

    def test_triangle_plus_edge(self):
        # one K2 and one odd cycle: coefficient -1 * 2
        g = Graph(5, ((0, 1), (0, 2), (1, 2), (3, 4)))
        assert reason_monomial(g) == "-2*x1*x2*x3*x4^2"

    def test_monomial_is_the_determinant(self, corpus_le7):
        rng = random.Random(17)
        unique = [g for g in corpus_le7 if count_factors_at_most(g, 2) == 1]
        assert len(unique) == sum(1 for g in corpus_le7 if count_factors(g) == 1) > 100
        for g in unique:
            terms = parse_monomial(reason_monomial(g), g.m)
            assert terms == factor_expansion(g)
            for _ in range(5):
                w = [rng.choice((1, -1)) * rng.randint(1, 9) for _ in range(g.m)]
                assert expansion_at(terms, w) == det(adjacency_matrix(g, w))


class TestCrossValidation:
    def test_matches_determinant_small_sweep(self, corpus_le5):
        rng = random.Random(42)
        for g in corpus_le5:
            terms = factor_expansion(g)
            for _ in range(10):
                w = [rng.randint(-9, 9) for _ in range(g.m)]
                assert expansion_at(terms, w) == det(matrix_at_point(g, w))

    def test_homogeneity(self):
        rng = random.Random(8)
        for g in (cycle(4), complete(4), cycle(5), complete(5)):
            terms = factor_expansion(g)
            for _ in range(10):
                w = [rng.choice((1, -1)) * rng.randint(1, 5) for _ in range(g.m)]
                lam = rng.choice((-3, -2, -1, 2, 3))
                scaled = [lam * x for x in w]
                assert expansion_at(terms, scaled) == lam ** g.n * expansion_at(terms, w)

    def test_split_semantics_match_factor_membership(self, corpus_le5):
        # x_i-quadratic part vanishes iff edge i is never a K2 component;
        # linear part vanishes iff never on a cycle; constant part vanishes
        # iff edge i is in every factor (each side computed independently)
        for g in corpus_le5:
            terms = factor_expansion(g)
            prof = edge_membership(g)
            if count_factors(g) == 0:
                assert not terms
                continue
            for i in range(g.m):
                quad, lin, const = split(terms, i)
                assert (not quad) == (not prof.in_k2[i])
                assert (not lin) == (not prof.in_cycle[i])
                assert (not const) == prof.in_all[i]
