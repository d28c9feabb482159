import random

import pytest

from signrank import detpoly
from signrank.detpoly import (
    DetPolynomial,
    det_poly,
    edge_degree_split,
    evaluate,
    is_single_monomial,
    is_zero_polynomial,
    reduce_squares,
    to_text,
)
from signrank.errors import ResourceCapError
from signrank.exact_linalg import det, matrix_at_point
from signrank.factors import edge_membership

from conftest import complete, cycle, path


class TestConstruction:
    def test_k2(self):
        p = det_poly(complete(2))
        assert p.terms == {(2,): -1}

    def test_k3(self):
        p = det_poly(complete(3))
        assert p.terms == {(1, 1, 1): 2}

    def test_c4(self):
        p = det_poly(cycle(4))
        assert p.terms == {
            (2, 0, 2, 0): 1,
            (0, 2, 0, 2): 1,
            (1, 1, 1, 1): -2,
        }

    def test_p3_is_zero(self):
        assert is_zero_polynomial(det_poly(path(3)))

    def test_null_graph_is_constant_one(self):
        from signrank.graph_core import Graph

        assert det_poly(Graph(0, ())).terms == {(): 1}

    def test_term_cap(self):
        with pytest.raises(ResourceCapError):
            det_poly(cycle(4), max_terms=2)

    def test_term_cap_checked_before_listing(self, monkeypatch):
        def no_listing(g):
            raise AssertionError("listed factors above the cap")

        monkeypatch.setattr(detpoly, "iter_factors", no_listing)
        with pytest.raises(ResourceCapError):
            det_poly(complete(8), max_terms=6201)

    def test_default_cap_is_the_listing_cap(self, monkeypatch):
        # t(K11) = 5,238,370 exceeds factors.LISTING_CAP
        def no_listing(g):
            raise AssertionError("listed factors above the cap")

        monkeypatch.setattr(detpoly, "iter_factors", no_listing)
        with pytest.raises(ResourceCapError, match="500000 terms"):
            det_poly(complete(11))

    def test_term_cap_is_inclusive(self):
        # t(C4) = 3 terms fit a cap of 3
        assert det_poly(cycle(4), max_terms=3).term_count() == 3

    def test_one_term_per_factor_and_homogeneous(self, corpus_le5):
        from signrank.factors import count_factors

        for g in corpus_le5:
            p = det_poly(g)
            assert p.term_count() == count_factors(g)
            assert all(sum(exp) == g.n for exp in p.terms)


class TestReduceSquares:
    def test_k2(self):
        assert reduce_squares(det_poly(complete(2))).terms == {(0,): -1}

    def test_c4(self):
        assert reduce_squares(det_poly(cycle(4))).terms == {
            (0, 0, 0, 0): 2,
            (1, 1, 1, 1): -2,
        }

    def test_multilinear_unchanged(self):
        p = det_poly(complete(3))
        assert reduce_squares(p).terms == p.terms

    def test_exponent_above_two_rejected(self):
        p = DetPolynomial(1, {(3,): 1})
        with pytest.raises(ValueError):
            reduce_squares(p)


class TestEdgeDegreeSplit:
    def test_c4_edge0(self):
        quad, lin, const = edge_degree_split(det_poly(cycle(4)), 0)
        assert quad.terms == {(0, 0, 2, 0): 1}
        assert lin.terms == {(0, 1, 1, 1): -2}
        assert const.terms == {(0, 2, 0, 2): 1}

    def test_k2(self):
        quad, lin, const = edge_degree_split(det_poly(complete(2)), 0)
        assert quad.terms == {(0,): -1}
        assert is_zero_polynomial(lin) and is_zero_polynomial(const)

    def test_k3(self):
        quad, lin, const = edge_degree_split(det_poly(complete(3)), 0)
        assert is_zero_polynomial(quad) and is_zero_polynomial(const)
        assert lin.terms == {(0, 1, 1): 2}

    def test_recombines(self):
        rng = random.Random(3)
        for g in (cycle(4), complete(4), cycle(5)):
            p = det_poly(g)
            for i in range(g.m):
                quad, lin, const = edge_degree_split(p, i)
                for _ in range(5):
                    w = [rng.randint(-5, 5) for _ in range(g.m)]
                    xi = w[i]
                    assert evaluate(p, w) == (
                        xi * xi * evaluate(quad, w)
                        + xi * evaluate(lin, w)
                        + evaluate(const, w)
                    )


class TestEvaluate:
    def test_c4_all_ones(self):
        assert evaluate(det_poly(cycle(4)), (1, 1, 1, 1)) == 0

    def test_k3(self):
        assert evaluate(det_poly(complete(3)), (1, 2, 3)) == 12

    def test_all_zero_gives_constant_term(self):
        p = DetPolynomial(2, {(0, 0): 7, (1, 1): 3})
        assert evaluate(p, (0, 0)) == 7

    def test_wrong_arity(self):
        from signrank.errors import InvalidAssignmentError

        with pytest.raises(InvalidAssignmentError):
            evaluate(det_poly(cycle(4)), (1, 1, 1))


class TestPredicates:
    def test_single_monomial(self):
        assert is_single_monomial(det_poly(complete(3)))
        assert not is_single_monomial(det_poly(cycle(4)))

    def test_zero(self):
        assert is_zero_polynomial(det_poly(path(3)))
        assert not is_zero_polynomial(det_poly(complete(3)))


class TestText:
    def test_c4_golden(self):
        assert to_text(det_poly(cycle(4))) == "x1^2*x3^2 - 2*x1*x2*x3*x4 + x2^2*x4^2"

    def test_k2(self):
        assert to_text(det_poly(complete(2))) == "-x1^2"

    def test_zero(self):
        assert to_text(det_poly(path(3))) == "0"


class TestCrossValidation:
    def test_matches_determinant_small_sweep(self, corpus_le5):
        rng = random.Random(42)
        for g in corpus_le5:
            p = det_poly(g)
            for _ in range(10):
                w = [rng.randint(-9, 9) for _ in range(g.m)]
                assert evaluate(p, w) == det(matrix_at_point(g, w))

    def test_homogeneity(self):
        rng = random.Random(8)
        for g in (cycle(4), complete(4), cycle(5), complete(5)):
            p = det_poly(g)
            for _ in range(10):
                w = [rng.choice((1, -1)) * rng.randint(1, 5) for _ in range(g.m)]
                lam = rng.choice((-3, -2, -1, 2, 3))
                scaled = [lam * x for x in w]
                assert evaluate(p, scaled) == lam ** g.n * evaluate(p, w)

    def test_split_semantics_match_factor_membership(self, corpus_le5):
        # x_i-quadratic part vanishes iff edge i is never a K2 component;
        # linear part vanishes iff never on a cycle; constant part vanishes
        # iff edge i is in every factor (each side computed independently)
        for g in corpus_le5:
            p = det_poly(g)
            prof = edge_membership(g)
            if prof.factor_total == 0:
                assert is_zero_polynomial(p)
                continue
            for i in range(g.m):
                quad, lin, const = edge_degree_split(p, i)
                assert is_zero_polynomial(quad) == (not prof.in_k2[i])
                assert is_zero_polynomial(lin) == (not prof.in_cycle[i])
                assert is_zero_polynomial(const) == prof.in_all[i]
