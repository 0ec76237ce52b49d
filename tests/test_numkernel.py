"""Kernel tests: hand-computed forwards, finite-difference gradient oracles,
and loop-reference cross-checks for the masked aggregation primitives."""

from contextlib import nullcontext

import numpy as np
import pytest

from gradcheck_util import check_op

from rrmgnn import numkernel as nk


# ---------------------------------------------------------------------------
# mlp_forward


def test_mlp_zero_weights_zero_input():
    w = [(np.zeros((3, 2)), np.zeros(3)), (np.zeros((3, 3)), np.zeros(3)),
         (np.zeros((4, 3)), np.zeros(4))]
    layers = [(nk.constant(a), nk.constant(b)) for a, b in w]
    out = nk.mlp_forward(nk.constant([0.0, 0.0]), layers)
    np.testing.assert_array_equal(out.data, np.zeros(4))


def test_mlp_identity_chain():
    layers = [(nk.constant([[1.0]]), nk.constant([0.0]))] * 3
    out = nk.mlp_forward(nk.constant([1.0]), layers)
    np.testing.assert_array_equal(out.data, [1.0])


def test_mlp_hand_evaluated():
    # ReLU(1*1 + 1*(-1)) = 0; ReLU(-2*0 + 1) = 1; ReLU(1*1 + 0) = 1
    layers = [(nk.constant([[1.0, 1.0]]), nk.constant([0.0])),
              (nk.constant([[-2.0]]), nk.constant([1.0])),
              (nk.constant([[1.0]]), nk.constant([0.0]))]
    out = nk.mlp_forward(nk.constant([1.0, -1.0]), layers)
    np.testing.assert_array_equal(out.data, [1.0])


def test_mlp_dimension_mismatch():
    layers = [(nk.constant(np.ones((3, 2))), nk.constant(np.zeros(3))),
              (nk.constant(np.ones((3, 4))), nk.constant(np.zeros(3)))]
    with pytest.raises(ValueError):
        nk.mlp_forward(nk.constant([1.0, 2.0]), layers)


def test_mlp_batched_rows_match_single():
    rng = np.random.default_rng(3)
    layers = [(nk.constant(rng.normal(size=(5, 3))), nk.constant(rng.normal(size=5))),
              (nk.constant(rng.normal(size=(4, 5))), nk.constant(rng.normal(size=4))),
              (nk.constant(rng.normal(size=(2, 4))), nk.constant(rng.normal(size=2)))]
    xs = rng.normal(size=(6, 3))
    batched = nk.mlp_forward(nk.constant(xs), layers).data
    for i in range(6):
        row = nk.mlp_forward(nk.constant(xs[i]), layers).data
        np.testing.assert_allclose(batched[i], row, rtol=1e-14, atol=0)


# ---------------------------------------------------------------------------
# masked_max_aggregate


def test_masked_max_basic():
    out = nk.masked_max_aggregate(nk.constant([[1.0, 5.0], [3.0, 2.0]]), [True, True])
    np.testing.assert_array_equal(out.data, [3.0, 5.0])


def test_masked_max_singleton():
    out = nk.masked_max_aggregate(nk.constant([[-1.0, -2.0]]), [True])
    np.testing.assert_array_equal(out.data, [-1.0, -2.0])


def test_masked_max_empty_set_is_zero():
    items = nk.Tensor([[1.0, 2.0], [3.0, 4.0]], requires_grad=True)
    out = nk.masked_max_aggregate(items, [False, False])
    np.testing.assert_array_equal(out.data, [0.0, 0.0])
    nk.backward(nk.tsum(out))
    np.testing.assert_array_equal(items.grad, np.zeros((2, 2)))


def test_masked_max_permutation_invariant():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n, d = rng.integers(1, 8), rng.integers(1, 6)
        items = rng.normal(size=(n, d))
        present = rng.random(n) < 0.7
        base = nk.masked_max_aggregate(nk.constant(items), present).data
        perm = rng.permutation(n)
        permuted = nk.masked_max_aggregate(nk.constant(items[perm]), present[perm]).data
        np.testing.assert_array_equal(base, permuted)


def test_masked_max_tie_routes_to_lowest_index():
    items = nk.Tensor([[2.0, 0.0], [2.0, 1.0], [1.0, 1.0]], requires_grad=True)
    out = nk.masked_max_aggregate(items, [True, True, True])
    nk.backward(nk.tsum(out))
    # column 0 ties between rows 0 and 1 -> row 0; column 1 ties rows 1, 2 -> row 1
    np.testing.assert_array_equal(items.grad, [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])


# ---------------------------------------------------------------------------
# backward basics


def test_backward_sum_is_ones():
    x = nk.Tensor([2.0, 3.0], requires_grad=True)
    nk.backward(nk.tsum(x))
    np.testing.assert_array_equal(x.grad, [1.0, 1.0])


def test_backward_quadratic():
    x = nk.Tensor([1.0, -2.0], requires_grad=True)
    nk.backward(nk.dot(x, x))
    np.testing.assert_array_equal(x.grad, [2.0, -4.0])


def test_backward_rejects_nonscalar():
    x = nk.Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(ValueError):
        nk.backward(x + 1.0)


def test_backward_shared_subexpression_accumulates():
    x = nk.Tensor([1.5], requires_grad=True)
    y = x * x  # used twice below
    nk.backward(nk.tsum(y + y))
    np.testing.assert_allclose(x.grad, [2 * 2 * 1.5])


def test_second_backward_resets_grads():
    x = nk.Tensor([1.0, 2.0], requires_grad=True)
    nk.backward(nk.tsum(nk.square(x)))
    first = x.grad.copy()
    nk.backward(nk.tsum(nk.square(x)))
    np.testing.assert_array_equal(x.grad, first)


# ---------------------------------------------------------------------------
# finite-difference oracle over every differentiable primitive


def _away_from_kinks(rng, shape, lo=0.2):
    """Random values bounded away from 0 so ReLU/max branches stay fixed."""
    x = rng.uniform(lo, 1.5, size=shape)
    return x * rng.choice([-1.0, 1.0], size=shape)


UNARY_CASES = [
    ("neg", nk.neg, (-3, 3)),
    ("square", nk.square, (-3, 3)),
    ("sqrt", nk.sqrt, (0.2, 4)),
    ("exp", nk.exp, (-2, 2)),
    ("log1p", nk.log1p, (-0.5, 3)),
    ("sigmoid", nk.sigmoid, (-4, 4)),
]


@pytest.mark.parametrize("name,op,rng_range", UNARY_CASES)
def test_gradcheck_unary(name, op, rng_range):
    rng = np.random.default_rng(hash(name) % 2**32)
    for _ in range(20):
        x = rng.uniform(rng_range[0], rng_range[1], size=(5,))
        c = rng.normal(size=5)

        def build(t):
            return nk.tsum(op(t) * nk.constant(c))

        check_op(build, x)


def test_gradcheck_binary_and_shapes():
    rng = np.random.default_rng(7)
    for _ in range(20):
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(3, 4)) + 3.0  # keep divisors away from zero
        cw = rng.normal(size=(3, 4))

        for op in (nk.add, nk.sub, nk.mul, nk.div):
            def build(t, op=op):
                return nk.tsum(op(t, nk.constant(b)) * nk.constant(cw))

            check_op(build, a)

            def build_rhs(t, op=op):
                return nk.tsum(op(nk.constant(b), t) * nk.constant(cw))

            check_op(build_rhs, a)


def test_gradcheck_broadcast_add_mul():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(4, 1, 3))
    b = rng.normal(size=(4, 5, 3))
    c = rng.normal(size=(4, 5, 3))

    def build(t):
        return nk.tsum(nk.mul(nk.add(t, nk.constant(b)), nk.constant(c)))

    check_op(build, a)

    def build_b(t):
        return nk.tsum(nk.mul(nk.constant(a), nk.add(t, nk.constant(a))) * nk.constant(c))

    check_op(build_b, b)


def test_gradcheck_relu_and_maximum_away_from_kinks():
    rng = np.random.default_rng(13)
    for _ in range(20):
        x = _away_from_kinks(rng, (6,))
        c = rng.normal(size=6)

        def build(t):
            return nk.tsum(nk.relu(t) * nk.constant(c))

        check_op(build, x)

        other = _away_from_kinks(rng, (6,)) + 2.5  # ensure clear gaps

        def build_max(t):
            return nk.tsum(nk.maximum(t, nk.constant(other)) * nk.constant(c))

        check_op(build_max, x)


def test_maximum_routes_ties_to_a_and_nan_to_b():
    # training never ties (budgets against exact norms), so only this pins the rule
    a = nk.Tensor([1.0, 2.0, 3.0, np.nan], requires_grad=True)
    b = nk.Tensor([[1.0, 0.0, 5.0, 1.0]] * 2, requires_grad=True)
    nk.backward(nk.tsum(nk.maximum(a, b)))
    np.testing.assert_array_equal(a.grad, [2.0, 2.0, 0.0, 0.0])
    np.testing.assert_array_equal(b.grad, [[0.0, 0.0, 1.0, 1.0]] * 2)


def test_gradcheck_matmul_linear_dot():
    rng = np.random.default_rng(17)
    for _ in range(10):
        x = rng.normal(size=(4, 3))
        w = rng.normal(size=(5, 3))
        b = rng.normal(size=5)
        c = rng.normal(size=(4, 5))

        def build_x(t):
            return nk.tsum(nk.linear(t, nk.constant(w), nk.constant(b)) * nk.constant(c))

        check_op(build_x, x)

        def build_w(t):
            return nk.tsum(nk.linear(nk.constant(x), t, nk.constant(b)) * nk.constant(c))

        check_op(build_w, w)

        def build_b(t):
            return nk.tsum(nk.linear(nk.constant(x), nk.constant(w), t) * nk.constant(c))

        check_op(build_b, b)

        m = rng.normal(size=(3, 4))
        cm = rng.normal(size=(3, 3))

        def build_mm(t):
            return nk.tsum(nk.matmul(t, nk.constant(x)) * nk.constant(cm))

        check_op(build_mm, m)

        v = rng.normal(size=3)
        cv = rng.normal(size=3)

        def build_dot(t):
            return nk.dot(t, nk.constant(cv))

        check_op(build_dot, v)


def test_gradcheck_reshape_take_concat_sum_axis():
    rng = np.random.default_rng(19)
    x = rng.normal(size=(3, 4, 2))
    c = rng.normal(size=(3, 4, 2))
    c2 = rng.normal(size=(3, 4, 2))
    other_half = rng.normal(size=(3, 4, 2))
    idx = (np.array([0, 2, 1, 0]), np.array([1, 3, 0, 1]))
    c3 = rng.normal(size=(4, 2))

    def build_reshape(t):
        return nk.tsum(nk.reshape(t, (12, 2)) * nk.constant(c.reshape(12, 2)))

    check_op(build_reshape, x)

    def build_take(t):
        return nk.tsum(nk.take(t, idx) * nk.constant(c3))

    check_op(build_take, x)

    def build_concat(t):
        joined = nk.concat([t, nk.constant(other_half)], axis=0)
        return nk.tsum(joined * nk.constant(np.concatenate([c, c2], axis=0)))

    check_op(build_concat, x)

    def build_sum_axis(t):
        return nk.tsum(nk.tsum(t, axis=1) * nk.constant(c[:, 0, :]))

    check_op(build_sum_axis, x)

    def build_sum_tuple(t):
        return nk.tsum(nk.tsum(t, axis=(0, 2)) * nk.constant(c[0, :, 0]))

    check_op(build_sum_tuple, x)

    def build_broadcast(t):
        small = nk.reshape(t, (3, 4, 2))
        return nk.tsum(nk.broadcast_to(nk.reshape(nk.tsum(small, axis=1), (3, 1, 2)),
                                       (3, 4, 2)) * nk.constant(c))

    check_op(build_broadcast, x)


def test_gradcheck_masked_aggregates():
    rng = np.random.default_rng(23)
    for _ in range(10):
        items = _away_from_kinks(rng, (5, 3)) * rng.uniform(0.5, 2.0)
        present = rng.random(5) < 0.7
        c = rng.normal(size=3)

        def build(t):
            return nk.tsum(nk.masked_max_aggregate(t, present) * nk.constant(c))

        check_op(build, items)

    for _ in range(10):
        x = rng.normal(size=(4, 5, 3)) * 2.0
        mask = rng.random((4, 5)) < 0.8
        for axis in (0, 1):
            cc = rng.normal(size=(5, 3) if axis == 0 else (4, 3))

            def build_axis(t, axis=axis, cc=cc):
                return nk.tsum(nk.masked_agg_axis(t, mask, axis) * nk.constant(cc))

            check_op(build_axis, x)


def test_gradcheck_pair_excl_agg():
    rng = np.random.default_rng(29)
    for _ in range(8):
        m, k, d = 4, 3, 2
        t5 = rng.normal(size=(m, k, d)) * 2.0
        t6 = rng.normal(size=(m, k, d)) * 2.0
        mask = rng.random((m, k)) < 0.8
        c = rng.normal(size=(m, k, d))

        def build5(t):
            return nk.tsum(nk.pair_excl_agg(t, nk.constant(t6), mask) * nk.constant(c))

        check_op(build5, t5)

        def build6(t):
            return nk.tsum(nk.pair_excl_agg(nk.constant(t5), t, mask) * nk.constant(c))

        check_op(build6, t6)


# ---------------------------------------------------------------------------
# vectorized aggregations against the per-set reference


def reference_agg_axis(x, mask, axis):
    m, k = x.shape[:2]
    out_n = k if axis == 0 else m
    rows = []
    for i in range(out_n):
        items = x[:, i, :] if axis == 0 else x[i, :, :]
        present = mask[:, i] if axis == 0 else mask[i, :]
        rows.append(nk.masked_max_aggregate(nk.constant(items), present).data)
    return np.stack(rows)


def reference_pair_excl(t5, t6, mask):
    m, k = t5.shape[:2]
    out = np.zeros_like(t5)
    for mi in range(m):
        for ki in range(k):
            if not mask[mi, ki]:
                continue
            cands, present = [], []
            for k1 in range(k):
                if k1 != ki:
                    cands.append(t5[mi, k1])
                    present.append(mask[mi, k1])
            for m1 in range(m):
                if m1 != mi:
                    cands.append(t6[m1, ki])
                    present.append(mask[m1, ki])
            if not cands:
                continue
            out[mi, ki] = nk.masked_max_aggregate(nk.constant(np.stack(cands)),
                                                  np.array(present)).data
    return out


def test_agg_axis_matches_reference():
    rng = np.random.default_rng(31)
    for _ in range(25):
        m, k, d = rng.integers(1, 6), rng.integers(1, 6), rng.integers(1, 5)
        x = rng.normal(size=(m, k, d))
        mask = rng.random((m, k)) < 0.7
        for axis in (0, 1):
            got = nk.masked_agg_axis(nk.constant(x), mask, axis).data
            np.testing.assert_allclose(got, reference_agg_axis(x, mask, axis),
                                       rtol=0, atol=1e-15)


def test_pair_excl_agg_matches_reference():
    rng = np.random.default_rng(37)
    for _ in range(25):
        m, k, d = rng.integers(1, 6), rng.integers(1, 6), rng.integers(1, 5)
        t5 = rng.normal(size=(m, k, d))
        t6 = rng.normal(size=(m, k, d))
        mask = rng.random((m, k)) < 0.7
        got = nk.pair_excl_agg(nk.constant(t5), nk.constant(t6), mask).data
        np.testing.assert_allclose(got, reference_pair_excl(t5, t6, mask),
                                   rtol=0, atol=1e-15)


def test_pair_excl_agg_gradient_matches_reference_with_ties():
    # duplicated values force ties; both routes must pick the same candidate
    rng = np.random.default_rng(41)
    for _ in range(10):
        m, k, d = 3, 4, 2
        base = rng.integers(0, 3, size=(m, k, d)).astype(float)
        t5 = nk.Tensor(base, requires_grad=True)
        t6 = nk.Tensor(base[::-1].copy(), requires_grad=True)
        mask = rng.random((m, k)) < 0.85
        c = rng.normal(size=(m, k, d))
        nk.backward(nk.tsum(nk.pair_excl_agg(t5, t6, mask) * nk.constant(c)))
        got5, got6 = t5.grad.copy(), t6.grad.copy()

        r5 = nk.Tensor(base, requires_grad=True)
        r6 = nk.Tensor(base[::-1].copy(), requires_grad=True)
        total = None
        for mi in range(m):
            for ki in range(k):
                if not mask[mi, ki]:
                    continue
                cands, present = [], []
                for k1 in range(k):
                    if k1 != ki:
                        cands.append(nk.reshape(nk.take(r5, (mi, k1)), (1, d)))
                        present.append(mask[mi, k1])
                for m1 in range(m):
                    if m1 != mi:
                        cands.append(nk.reshape(nk.take(r6, (m1, ki)), (1, d)))
                        present.append(mask[m1, ki])
                if not cands:
                    continue
                agg = nk.masked_max_aggregate(nk.concat(cands, axis=0), np.array(present))
                term = nk.tsum(agg * nk.constant(c[mi, ki]))
                total = term if total is None else total + term
        if total is None:
            continue
        nk.backward(total)
        np.testing.assert_array_equal(got5, r5.grad)
        np.testing.assert_array_equal(got6, r6.grad)


@pytest.mark.parametrize("batch", [(), (3,)])
def test_max_aggregations_propagate_nan(batch):
    # one family all NaN, the other all ones, on a full 2x2 mask: every
    # present edge has a NaN candidate, so every output is NaN; on the
    # inference path and on the taped one
    mask = np.ones(batch + (2, 2), bool)
    nan, ones = np.full(batch + (2, 2, 1), np.nan), np.ones(batch + (2, 2, 1))
    for mode in (nk.no_grad, nullcontext):
        with mode():
            for t_row, t_col in ((nan, ones), (ones, nan)):
                out = nk.pair_excl_agg(nk.Tensor(t_row, requires_grad=True),
                                       nk.Tensor(t_col, requires_grad=True), mask).data
                assert np.isnan(out).all()
            for axis in (0, 1):
                agg = nk.masked_agg_axis(nk.Tensor(nan, requires_grad=True), mask, axis)
                assert np.isnan(agg.data).all()


@pytest.mark.parametrize("batch", [(), (3,)])
def test_max_aggregations_single_nan(batch):
    # one NaN at edge (0, 0) of the same-TX family on a full 2x3 mask, every
    # same-RX entry 2: edge (0, 0) excludes its own entry, so its output is
    # finite; the other edges of TX row 0 see the NaN, those of row 1 do not
    mask = np.ones(batch + (2, 3), bool)
    t_row, t_col = np.ones(batch + (2, 3, 1)), np.full(batch + (2, 3, 1), 2.0)
    t_row[..., 0, 0, :] = np.nan
    sees_nan = np.array([[False, True, True], [False, False, False]])
    for mode in (nk.no_grad, nullcontext):
        with mode():
            out = nk.pair_excl_agg(nk.Tensor(t_row, requires_grad=True),
                                   nk.Tensor(t_col, requires_grad=True), mask).data
            x = nk.Tensor(t_row, requires_grad=True)
            by_tx = nk.masked_agg_axis(x, mask, 1).data[..., 0]   # over K, per TX
            by_rx = nk.masked_agg_axis(x, mask, 0).data[..., 0]   # over M, per RX
        assert (np.isnan(out[..., 0]) == sees_nan).all()
        assert (out[..., 0][..., ~sees_nan] == 2.0).all()
        assert (np.isnan(by_tx) == [True, False]).all()
        assert (np.isnan(by_rx) == [True, False, False]).all()


def _routed_values(op, inputs):
    """The parent entry each output element's gradient route selects, with 0
    where no route leaves it: backward a one-hot output gradient per element
    and read the one parent entry that receives it."""
    with nk.no_grad():
        shape = op(*(nk.constant(x) for x in inputs)).data.shape
    picked = np.zeros(shape)
    for e in range(picked.size):
        parents = [nk.Tensor(x, requires_grad=True) for x in inputs]
        hot = np.zeros(shape)
        hot.flat[e] = 1.0
        nk.backward(nk.tsum(op(*parents) * nk.constant(hot)))
        hits = [(x, i) for x, p in zip(inputs, parents) if p.grad is not None
                for i in np.flatnonzero(p.grad) if p.grad.flat[i] == 1.0]
        assert sum(p.grad is not None and np.count_nonzero(p.grad) for p in parents) \
            == len(hits) <= 1, "one output element, at most one route"
        for x, i in hits:
            picked.flat[e] = x.flat[i]
    return picked


def _tie_heavy_cases(rng):
    """Small integers (many ties) on (2, 3, 4, 2) stacks: batch 0 has TX row 2
    masked out, batch 1 an isolated edge (0, 0) with no neighbor at all, and
    single NaNs at a present edge of either family."""
    for case in range(6):
        mask = rng.random((2, 3, 4)) < 0.75
        mask[0, 2, :] = False
        mask[1, 0, :], mask[1, :, 0] = False, False
        mask[1, 0, 0] = True
        t_row = rng.integers(0, 3, size=(2, 3, 4, 2)).astype(float)
        t_col = rng.integers(0, 3, size=(2, 3, 4, 2)).astype(float)
        if case % 3:
            b, m, k = np.argwhere(mask)[rng.integers(mask.sum())]
            (t_row if case % 3 == 1 else t_col)[b, m, k, rng.integers(2)] = np.nan
        yield t_row, t_col, mask


def test_value_only_forwards_match_their_gradient_routes():
    # the forwards compute values alone and the VJPs find the routes; each
    # output must be, byte for byte, the entry its route selects (the one
    # allowed difference, the sign of a zero among -0.0/0.0 ties, needs -0.0
    # inputs, which these are not)
    rng = np.random.default_rng(47)
    for t_row, t_col, mask in _tie_heavy_cases(rng):
        with nk.no_grad():
            out = nk.pair_excl_agg(nk.constant(t_row), nk.constant(t_col), mask).data
        routed = _routed_values(lambda a, b: nk.pair_excl_agg(a, b, mask),
                                [t_row, t_col])
        assert out.tobytes() == routed.tobytes()
        for axis in (0, 1):
            with nk.no_grad():
                agg = nk.masked_agg_axis(nk.constant(t_row), mask, axis).data
            routed = _routed_values(lambda a: nk.masked_agg_axis(a, mask, axis),
                                    [t_row])
            assert agg.tobytes() == routed.tobytes()


# ---------------------------------------------------------------------------
# optimizer


def test_rmsprop_zero_gradient_keeps_params():
    p = nk.Tensor([1.0, -2.0], requires_grad=True)
    state = nk.RMSPropState(learning_rate=1e-4)
    nk.rmsprop_step([p], [np.zeros(2)], state)
    np.testing.assert_array_equal(p.data, [1.0, -2.0])
    nk.rmsprop_step([p], [np.ones(2)], state)
    v_after = state.square_avg[0].copy()
    nk.rmsprop_step([p], [np.zeros(2)], state)
    np.testing.assert_allclose(state.square_avg[0], 0.99 * v_after)


def test_rmsprop_single_step_hand_computed():
    p = nk.Tensor([0.0], requires_grad=True)
    state = nk.RMSPropState(learning_rate=1e-4)
    nk.rmsprop_step([p], [np.array([1.0])], state)
    np.testing.assert_allclose(state.square_avg[0], [0.01])
    expected = 1e-4 * 1.0 / (np.sqrt(0.01) + 1e-8)
    np.testing.assert_allclose(p.data, [expected])
    assert abs(expected - 1e-3) < 1e-6


def test_rmsprop_symmetry():
    p = nk.Tensor([0.3, 0.3], requires_grad=True)
    state = nk.RMSPropState(learning_rate=1e-4)
    for _ in range(5):
        nk.rmsprop_step([p], [np.array([0.7, 0.7])], state)
    assert p.data[0] == p.data[1]


def test_rmsprop_shape_mismatch():
    p = nk.Tensor([0.0, 1.0], requires_grad=True)
    state = nk.RMSPropState(learning_rate=1e-4)
    with pytest.raises(ValueError):
        nk.rmsprop_step([p], [np.zeros(3)], state)


# ---------------------------------------------------------------------------
# determinism and finiteness


def test_forward_determinism_bit_identical():
    def run():
        rng = np.random.default_rng(123)
        x = nk.Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        w = nk.Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        out = nk.tsum(nk.relu(nk.linear(x, w, nk.constant(np.zeros(5)))))
        nk.backward(out)
        return out.data.copy(), x.grad.copy()

    o1, g1 = run()
    o2, g2 = run()
    assert o1.tobytes() == o2.tobytes()
    assert g1.tobytes() == g2.tobytes()


def test_forward_outputs_finite_on_finite_inputs():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(6, 4))
    layers = [(nk.constant(rng.normal(size=(8, 4))), nk.constant(rng.normal(size=8))),
              (nk.constant(rng.normal(size=(8, 8))), nk.constant(rng.normal(size=8))),
              (nk.constant(rng.normal(size=(3, 8))), nk.constant(rng.normal(size=3)))]
    out = nk.mlp_forward(nk.constant(x), layers)
    assert np.isfinite(out.data).all()


def test_no_grad_blocks_tape():
    x = nk.Tensor([1.0, 2.0], requires_grad=True)
    with nk.no_grad():
        y = nk.tsum(nk.square(x))
    assert not y.requires_grad
