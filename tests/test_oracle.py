import math

import pytest

import graphmat as gm
from graphmat import kernels
from graphmat.errors import GraphMatError

import oracle
from conftest import random_matrix

ARITH = gm.semiring_by_name("arith-real")
MINPLUS = gm.semiring_by_name("min-plus")


class TestConversions:
    def test_sparsify_densify_roundtrip(self, rng):
        for _ in range(20):
            a = random_matrix(ARITH, rng, rng.randint(1, 8),
                              rng.randint(1, 8))
            d = oracle.densify(a, 0.0)
            assert oracle.sparsify(d, 0.0, ARITH.domain) == a

    def test_densify_empty(self):
        d = oracle.densify(gm.empty_matrix(ARITH, 2, 3), 0.0)
        assert d.data == [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]

    def test_size_cap(self):
        with pytest.raises(GraphMatError):
            oracle.DenseMatrix(200, 2, 0.0)


class TestDenseMxm:
    def test_one_by_one(self):
        a = oracle.DenseMatrix(1, 1, 0.0)
        b = oracle.DenseMatrix(1, 1, 0.0)
        a[0, 0] = 3.0
        b[0, 0] = 4.0
        assert oracle.dense_mxm(ARITH, a, b)[0, 0] == 12.0

    def test_two_by_two_hand_computed(self):
        a = oracle.DenseMatrix(2, 2, 0.0)
        b = oracle.DenseMatrix(2, 2, 0.0)
        a.data = [[1.0, 2.0], [3.0, 4.0]]
        b.data = [[5.0, 6.0], [7.0, 8.0]]
        c = oracle.dense_mxm(ARITH, a, b)
        assert c.data == [[19.0, 22.0], [43.0, 50.0]]

    def test_min_plus_two_by_two(self):
        a = oracle.DenseMatrix(2, 2, math.inf)
        a.data = [[0.0, 2.0], [math.inf, 0.0]]
        c = oracle.dense_mxm(MINPLUS, a, a)
        assert c.data == [[0.0, 2.0], [math.inf, 0.0]]


    @pytest.mark.parametrize("sr,inf", [(ARITH, math.inf),
                                        (MINPLUS, -math.inf)])
    def test_implicit_zero_times_inf_agrees_with_mxm(self, sr, inf):
        # 0 * inf and inf + -inf are NaN: an implicit 0-element of one
        # operand must never meet the other's stored inf
        cases = [  # A empty times B = [inf]; then only k = 1 in both
            (gm.empty_matrix(sr, 1, 1),
             gm.build(sr, (1, 1), ([0], [0], [inf]))),
            (gm.build(sr, (1, 2), ([0], [1], [2.0])),
             gm.build(sr, (2, 1), ([0, 1], [0, 0], [inf, 3.0]))),
        ]
        for a, b in cases:
            c = oracle.dense_mxm(sr, oracle.densify(a, sr.zero),
                                 oracle.densify(b, sr.zero))
            assert oracle.sparsify(c, sr.zero, sr.domain) == \
                kernels.mxm(sr, a, b)


class TestDenseEwise:
    def test_add_identity_semantics(self):
        a = oracle.DenseMatrix(1, 2, 0.0)
        b = oracle.DenseMatrix(1, 2, 0.0)
        a.data = [[3.0, 0.0]]
        b.data = [[0.0, 4.0]]
        c = oracle.dense_ewise_add(ARITH.add, 0.0, a, b)
        assert c.data == [[3.0, 4.0]]

    def test_mult_intersection_semantics(self):
        a = oracle.DenseMatrix(1, 2, 0.0)
        b = oracle.DenseMatrix(1, 2, 0.0)
        a.data = [[3.0, 5.0]]
        b.data = [[0.0, 4.0]]
        c = oracle.dense_ewise_mult(ARITH.mul, 0.0, a, b)
        assert c.data == [[0.0, 20.0]]


class TestDenseGraph:
    def test_bfs_three_cycle(self):
        a = oracle.DenseMatrix(3, 3, 0.0)
        a.data = [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]
        assert oracle.dense_bfs(a, [0], 0.0) == [0, 1, 2]

    def test_bfs_unreached_is_none(self):
        a = oracle.DenseMatrix(3, 3, 0.0)
        a.data = [[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]
        assert oracle.dense_bfs(a, [0], 0.0) == [0, 1, None]

    def test_dijkstra_hand_example(self):
        a = oracle.DenseMatrix(3, 3, math.inf)
        a.data = [[math.inf, 5.0, 1.0],
                  [math.inf, math.inf, math.inf],
                  [math.inf, 2.0, math.inf]]
        assert oracle.dense_sssp(a, 0, math.inf) == [0.0, 3.0, 1.0]

    def test_extract_and_assign_hand_examples(self):
        a = oracle.DenseMatrix(2, 2, 0.0)
        a.data = [[1.0, 2.0], [3.0, 4.0]]
        sub = oracle.dense_extract(a, [1], [0, 1], 0.0)
        assert sub.data == [[3.0, 4.0]]
        patch = oracle.DenseMatrix(1, 1, 0.0)
        patch[0, 0] = 9.0
        out = oracle.dense_assign(a, [0], [1], patch, 0.0)
        assert out.data == [[1.0, 9.0], [3.0, 4.0]]
