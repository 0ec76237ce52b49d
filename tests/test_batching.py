"""A stacked minibatch runs the same lines as one instance: forward, loss and
gradients of a stack match the per-instance calls, equivariance holds per
batch element, and the kernel's aggregations differentiate on (B, M, K, d)."""

import numpy as np
import pytest

from gradcheck_util import check_op

from rrmgnn import chansim, engnn, numkernel as nk, objectives
from rrmgnn.chansim import GeometryConfig
from rrmgnn.hetgraph import HetGraph, NodePermutation, permute_graph

B = 5
CASES = [
    ("ic", GeometryConfig(n_tx=3, n_rx=3, n_antennas=2), "edge"),
    ("ibc", GeometryConfig(n_tx=2, n_rx=2, n_antennas=4), "edge"),
    ("ibc", GeometryConfig(n_tx=2, n_rx=2, n_antennas=4), "tx_node"),
    ("coop", GeometryConfig(n_tx=3, n_rx=2, n_antennas=2), "edge"),
]


def _net(kind, geo, head):
    # input scales bring watts, noise deviations and channels to O(1), so the
    # outputs depend on the instance
    return engnn.config_for_scenario(
        kind, geo.n_antennas, hidden=5, layers=2, output_head=head,
        input_scale_tx=1.0 / float(chansim.dbm_to_watts(geo.budget_dbm)),
        input_scale_rx=1.0 / np.sqrt(float(chansim.dbm_to_watts(geo.noise_dbm))),
        input_scale_e=1e6)


def _pass(inst, net, params):
    """Forward -> variables -> rates, then backward of the mean sum rate."""
    raw = engnn.forward(chansim.graph_of(inst), net, params)
    variables = objectives.normalize(engnn.extract_variables(raw, inst, net), inst)
    rates = objectives.evaluate(inst, variables).sum_rate
    nk.backward(nk.tsum(rates) * (1.0 / rates.size))
    grads = [np.zeros_like(t.data) if t.grad is None else t.grad.copy()
             for t in params.tensors()]
    return variables.data, rates.data, grads


def _rel(got, want):
    return float(np.max(np.abs(got - want)) / max(np.max(np.abs(want)), 1e-300))


@pytest.mark.parametrize("kind,geo,head", CASES)
def test_stacked_pass_matches_mean_of_single_passes(kind, geo, head):
    net = _net(kind, geo, head)
    params = engnn.init_params(net, seed=7)
    singles = [_pass(chansim.build_instance(kind, geo, [7, i])[0], net, params)
               for i in range(B)]
    v, rates, grads = _pass(chansim.sample_instances(kind, geo, [[7, i] for i in range(B)]),
                            net, params)

    assert rates.shape == (B,)
    for b, (v_b, rate_b, _) in enumerate(singles):
        assert _rel(v[b], v_b) <= 1e-12
        assert _rel(rates[b], rate_b) <= 1e-12
    for g, *per_sample in zip(grads, *(s[2] for s in singles)):
        want = np.mean(per_sample, axis=0)
        if np.any(want):
            assert _rel(g, want) <= 1e-12
        else:
            assert not np.any(g)


@pytest.mark.parametrize("kind,geo,head", [c for c in CASES if c[2] == "edge"])
def test_stacked_forward_is_equivariant_per_element(kind, geo, head):
    rng = np.random.default_rng(11)
    net = _net(kind, geo, head)
    params = engnn.init_params(net, seed=11)
    graphs = [chansim.build_instance(kind, geo, [11, i])[1] for i in range(B)]
    perms = [NodePermutation.random(graphs[0].m, graphs[0].k, rng) for _ in range(B)]

    def stack(gs):
        return HetGraph(*(np.stack([getattr(g, f) for g in gs])
                          for f in ("f_tx", "f_rx", "e", "edge_mask")))

    base = engnn.forward(stack(graphs), net, params).xi.data
    moved = engnn.forward(stack([permute_graph(g, p) for g, p in zip(graphs, perms)]),
                          net, params).xi.data
    for b, p in enumerate(perms):
        assert np.max(np.abs(moved[b][np.ix_(p.pi_tx, p.pi_rx)] - base[b])) <= 1e-9


def test_graph_of_stack_is_stack_of_graphs():
    for kind, geo, _ in CASES:
        graphs = [chansim.build_instance(kind, geo, [13, i])[1] for i in range(B)]
        g = chansim.graph_of(chansim.sample_instances(kind, geo, [[13, i] for i in range(B)]))
        for f in ("f_tx", "f_rx", "e", "edge_mask"):
            assert np.array_equal(getattr(g, f), np.stack([getattr(h, f) for h in graphs]))


def test_gradcheck_masked_agg_axis_batched():
    rng = np.random.default_rng(19)
    for _ in range(5):
        x = rng.normal(size=(3, 4, 5, 2)) * 2.0
        mask = rng.random((3, 4, 5)) < 0.7               # a mask per element
        for axis in (0, 1):
            cc = rng.normal(size=(3, 5, 2) if axis == 0 else (3, 4, 2))
            check_op(lambda t, axis=axis, cc=cc: nk.tsum(
                nk.masked_agg_axis(t, mask, axis) * nk.constant(cc)), x)
            got = nk.masked_agg_axis(nk.constant(x), mask, axis).data
            for b in range(3):
                assert np.array_equal(
                    got[b], nk.masked_agg_axis(nk.constant(x[b]), mask[b], axis).data)


def test_gradcheck_pair_excl_agg_batched():
    rng = np.random.default_rng(23)
    for _ in range(5):
        t5 = rng.normal(size=(3, 4, 3, 2)) * 2.0
        t6 = rng.normal(size=(3, 4, 3, 2)) * 2.0
        mask = rng.random((3, 4, 3)) < 0.8
        c = rng.normal(size=t5.shape)
        check_op(lambda t: nk.tsum(
            nk.pair_excl_agg(t, nk.constant(t6), mask) * nk.constant(c)), t5)
        check_op(lambda t: nk.tsum(
            nk.pair_excl_agg(nk.constant(t5), t, mask) * nk.constant(c)), t6)
        got = nk.pair_excl_agg(nk.constant(t5), nk.constant(t6), mask).data
        for b in range(3):
            assert np.array_equal(got[b], nk.pair_excl_agg(
                nk.constant(t5[b]), nk.constant(t6[b]), mask[b]).data)
