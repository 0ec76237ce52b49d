import numpy as np
import pytest

from rrmgnn.hetgraph import HetGraph, NodePermutation, permute_graph, split_complex

from gradcheck_util import merge_complex


def random_graph(rng, m, k, d_tx=2, d_rx=3, d_e=4):
    return HetGraph(rng.normal(size=(m, d_tx)), rng.normal(size=(k, d_rx)),
                    rng.normal(size=(m, k, d_e)))


def graphs_equal(a, b):
    return (np.array_equal(a.f_tx, b.f_tx) and np.array_equal(a.f_rx, b.f_rx)
            and np.array_equal(a.e, b.e))


def test_construction_requires_nodes():
    with pytest.raises(ValueError):
        HetGraph(np.ones((0, 1)), np.ones((1, 1)), np.zeros((0, 1, 1)))


def test_split_merge_complex_roundtrip():
    rng = np.random.default_rng(0)
    c = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
    np.testing.assert_array_equal(merge_complex(split_complex(c)), c)
    np.testing.assert_array_equal(split_complex(np.array([3.0 + 0j])), [3.0, 0.0])


def test_permute_identity():
    rng = np.random.default_rng(1)
    g = random_graph(rng, 2, 3)
    out = permute_graph(g, NodePermutation(np.arange(2), np.arange(3)))
    assert graphs_equal(out, g)


def test_permute_swap_moves_fiber():
    rng = np.random.default_rng(2)
    g = random_graph(rng, 2, 2)
    p = NodePermutation([1, 0], [1, 0])
    out = permute_graph(g, p)
    np.testing.assert_array_equal(out.e[1, 1], g.e[0, 0])
    np.testing.assert_array_equal(out.f_tx[1], g.f_tx[0])
    np.testing.assert_array_equal(out.f_rx[0], g.f_rx[1])


def test_permute_then_inverse_roundtrip_exact():
    rng = np.random.default_rng(3)
    for _ in range(20):
        g = random_graph(rng, 3, 4)
        p = NodePermutation.random(3, 4, rng)
        back = permute_graph(permute_graph(g, p),
                             NodePermutation(np.argsort(p.pi_tx), np.argsort(p.pi_rx)))
        assert graphs_equal(back, g)


def test_neighbor_sets_commute_with_permutation():
    # each edge fiber lands where the permutation sends its edge
    rng = np.random.default_rng(6)
    for _ in range(10):
        g = random_graph(rng, 4, 3)
        p = NodePermutation.random(4, 3, rng)
        pg = permute_graph(g, p)
        np.testing.assert_array_equal(pg.e[np.ix_(p.pi_tx, p.pi_rx)], g.e)
