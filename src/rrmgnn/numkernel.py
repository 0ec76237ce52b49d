"""Minimal dense-tensor kernel with reverse-mode autodiff and an RMSProp optimizer.

Everything is float64 and CPU/numpy. The op set is sized for small MLPs,
masked max aggregations, and the rate objectives built on top of them; it is
not a general-purpose framework (no GPU, no conv, only the broadcasting the
ops below need).

Graph tensors count their axes from the end: edge tensors are (..., M, K, d)
with an (..., M, K) mask, node tensors (..., M, d) or (..., K, d). Any leading
axes (a minibatch axis B) ride along, so one graph and a stack of equally
shaped graphs run the same code. `axis=0/1` of the aggregations names the M
or the K axis, wherever they sit.
"""

import numpy as np

_grad_enabled = True


class no_grad:
    """Context manager that disables tape recording (inference/timing path)."""

    def __enter__(self):
        global _grad_enabled
        self._prev = _grad_enabled
        _grad_enabled = False
        return self

    def __exit__(self, *exc):
        global _grad_enabled
        _grad_enabled = self._prev
        return False


class Tensor:
    """Dense float64 array participating in reverse-mode differentiation.

    `data` is row-major (C order). Tensors produced by ops hold references to
    their parents and a backward closure; `backward(loss)` replays them.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, _parents=(), _backward=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = _parents
        self._backward = _backward

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def item(self):
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # small operator surface; everything routes through the module-level ops
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, idx):
        return take(self, idx)

    def reshape(self, shape):
        return reshape(self, shape)

    def sum(self, axis=None):
        return tsum(self, axis)


def as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def constant(x):
    """Wrap an array as a non-differentiable tensor."""
    return Tensor(np.asarray(x, dtype=np.float64))


def _make(data, parents, backward):
    """Build an op result; prunes the tape when grads are off or unneeded."""
    if _grad_enabled and any(p.requires_grad for p in parents):
        return Tensor(data, requires_grad=True, _parents=parents, _backward=backward)
    return Tensor(data)


def _unbroadcast(grad, shape):
    """Reduce `grad` back to `shape` after a numpy-broadcast forward op."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and grad.shape[ax] != 1:
            grad = grad.sum(axis=ax, keepdims=True)
    return grad


# ---------------------------------------------------------------------------
# elementwise arithmetic


def add(a, b):
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data + b.data

    def backward(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g, a.data.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g, b.data.shape))

    return _make(out_data, (a, b), backward)


def sub(a, b):
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data - b.data

    def backward(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g, a.data.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(-g, b.data.shape))

    return _make(out_data, (a, b), backward)


def mul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data * b.data

    def backward(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g * a.data, b.data.shape))

    return _make(out_data, (a, b), backward)


def div(a, b):
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data / b.data

    def backward(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g / b.data, a.data.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape))

    return _make(out_data, (a, b), backward)


def neg(a):
    a = as_tensor(a)

    def backward(g):
        if a.requires_grad:
            _accumulate(a, -g)

    return _make(-a.data, (a,), backward)


def square(a):
    a = as_tensor(a)

    def backward(g):
        if a.requires_grad:
            _accumulate(a, 2.0 * a.data * g)

    return _make(a.data * a.data, (a,), backward)


def sqrt(a):
    a = as_tensor(a)
    out_data = np.sqrt(a.data)

    def backward(g):
        if a.requires_grad:
            _accumulate(a, 0.5 * g / out_data)

    return _make(out_data, (a,), backward)


def exp(a):
    a = as_tensor(a)
    out_data = np.exp(a.data)

    def backward(g):
        if a.requires_grad:
            _accumulate(a, g * out_data)

    return _make(out_data, (a,), backward)


def log1p(a):
    a = as_tensor(a)

    def backward(g):
        if a.requires_grad:
            _accumulate(a, g / (1.0 + a.data))

    return _make(np.log1p(a.data), (a,), backward)


def sigmoid(a):
    a = as_tensor(a)
    x = a.data
    out_data = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                        np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))

    def backward(g):
        if a.requires_grad:
            _accumulate(a, g * out_data * (1.0 - out_data))

    return _make(out_data, (a,), backward)


def relu(a):
    """Rectified linear unit; the subgradient at 0 is taken as 0."""
    a = as_tensor(a)

    def backward(g):
        if a.requires_grad:
            _accumulate(a, g * (a.data > 0))

    return _make(np.maximum(a.data, 0.0), (a,), backward)


def maximum(a, b):
    """Elementwise max of two tensors; on ties the gradient routes to `a`."""
    a, b = as_tensor(a), as_tensor(b)
    pick_a = a.data >= b.data
    out_data = np.where(pick_a, a.data, b.data)

    def backward(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g * pick_a, a.data.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g * ~pick_a, b.data.shape))

    return _make(out_data, (a, b), backward)


# ---------------------------------------------------------------------------
# shape / indexing / reductions


def reshape(a, shape):
    a = as_tensor(a)

    def backward(g):
        if a.requires_grad:
            _accumulate(a, g.reshape(a.data.shape))

    return _make(a.data.reshape(shape), (a,), backward)


def take(a, idx):
    """Numpy-style indexing (basic or advanced); backward scatter-adds."""
    a = as_tensor(a)
    out_data = a.data[idx]

    def backward(g):
        if a.requires_grad:
            buf = np.zeros_like(a.data)
            np.add.at(buf, idx, g)
            _accumulate(a, buf)

    return _make(out_data, (a,), backward)


def concat(tensors, axis=0):
    tensors = [as_tensor(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum(sizes)[:-1]

    def backward(g):
        pieces = np.split(g, offsets, axis=axis)
        for t, piece in zip(tensors, pieces):
            if t.requires_grad:
                _accumulate(t, piece)

    return _make(out_data, tuple(tensors), backward)


def broadcast_to(a, shape):
    a = as_tensor(a)

    def backward(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g, a.data.shape))

    return _make(np.broadcast_to(a.data, shape).copy(), (a,), backward)


def tsum(a, axis=None):
    """Sum over all elements (axis=None) or over an axis / tuple of axes."""
    a = as_tensor(a)
    out_data = a.data.sum(axis=axis)

    def backward(g):
        if a.requires_grad:
            if axis is None:
                _accumulate(a, np.broadcast_to(g, a.data.shape).copy())
            else:
                axes = axis if isinstance(axis, tuple) else (axis,)
                g_exp = np.expand_dims(g, axes)
                _accumulate(a, np.broadcast_to(g_exp, a.data.shape).copy())

    return _make(out_data, (a,), backward)


def dot(a, b):
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim != 1 or b.data.ndim != 1 or a.data.shape != b.data.shape:
        raise ValueError(f"dot expects equal-length 1-D tensors, got {a.shape} and {b.shape}")

    def backward(g):
        if a.requires_grad:
            _accumulate(a, g * b.data)
        if b.requires_grad:
            _accumulate(b, g * a.data)

    return _make(a.data @ b.data, (a, b), backward)


def matmul(a, b):
    """Matrix product of two (..., n, k) and (..., k, p) stacks; leading axes
    broadcast as in numpy."""
    a, b = as_tensor(a), as_tensor(b)
    ad, bd = a.data, b.data
    if ad.ndim < 2 or bd.ndim < 2:
        raise ValueError(f"matmul expects (..., n, k) @ (..., k, p); got {ad.shape} @ {bd.shape}")
    out_data = ad @ bd

    def backward(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g @ np.swapaxes(bd, -1, -2), ad.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(np.swapaxes(ad, -1, -2) @ g, bd.shape))

    return _make(out_data, (a, b), backward)


def linear(x, w, b):
    """Affine map x @ w.T + b over the last axis of x, (..., d_in) -> (..., d_out).

    The leading axes are flattened into the rows of one matrix product.
    """
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    d_out, d_in = w.data.shape
    if x.data.shape[-1] != d_in:
        raise ValueError(f"linear: input width {x.data.shape[-1]} does not match "
                         f"weight shape {w.data.shape}")
    rows = x.data.reshape(-1, d_in)
    out_data = (rows @ w.data.T + b.data).reshape(x.data.shape[:-1] + (d_out,))

    def backward(g):
        g_rows = g.reshape(-1, d_out)
        if x.requires_grad:
            _accumulate(x, (g_rows @ w.data).reshape(x.data.shape))
        if w.requires_grad:
            _accumulate(w, g_rows.T @ rows)
        if b.requires_grad:
            _accumulate(b, g_rows.sum(axis=0))

    return _make(out_data, (x, w, b), backward)


def mlp_forward(x, layers):
    """Chain of affine layers each followed by a ReLU (three in this project).

    `layers` is a sequence of (w, b) pairs; widths must chain, otherwise a
    ValueError is raised by the underlying affine op.
    """
    out = as_tensor(x)
    for w, b in layers:
        out = relu(linear(out, w, b))
    return out


# ---------------------------------------------------------------------------
# masked aggregation primitives


def masked_max_aggregate(items, present):
    """Elementwise max over the rows of `items` (n, d) where `present` is true.

    The empty set aggregates to the zero vector. The subgradient routes to one
    argmax per element, ties broken by the lowest row index.
    """
    items = as_tensor(items)
    if items.data.ndim != 2:
        raise ValueError(f"masked_max_aggregate expects (n, d) items, got {items.shape}")
    present = np.asarray(present, dtype=bool)
    if present.shape != (items.data.shape[0],):
        raise ValueError("present mask length does not match item count")
    d = items.data.shape[1]
    if not present.any():
        return _make(np.zeros(d), (items,), lambda g: None)
    masked = np.where(present[:, None], items.data, -np.inf)
    arg = np.argmax(masked, axis=0)  # first occurrence = lowest index
    out_data = masked[arg, np.arange(d)]

    def backward(g):
        if items.requires_grad:
            buf = np.zeros_like(items.data)
            np.add.at(buf, (arg, np.arange(d)), g)
            _accumulate(items, buf)

    return _make(out_data, (items,), backward)


def _graph_shapes(name, x, mask):
    if x.data.ndim < 3 or mask.shape != x.data.shape[:-1]:
        raise ValueError(f"{name} expects (..., M, K, d) with an (..., M, K) mask, got "
                         f"{x.shape} and {mask.shape}")


def masked_agg_axis(x, mask, axis, kind="max"):
    """Aggregate an (..., M, K, d) tensor over its M (axis=0) or K (axis=1)
    axis under an (..., M, K) mask.

    kind="max" is the element-wise maximum with lowest-index tie routing,
    kind="mean" the arithmetic mean; empty slices aggregate to zeros. A NaN
    among the present items makes the aggregate NaN.
    """
    x = as_tensor(x)
    mask = np.asarray(mask, dtype=bool)
    _graph_shapes("masked_agg_axis", x, mask)
    if axis not in (0, 1):
        raise ValueError("axis must be 0 or 1")
    ax = axis - 3                       # M = -3, K = -2 on (..., M, K, d)
    mask3 = mask[..., None]
    counts = mask.sum(axis=axis - 2)    # (..., K) for axis=0, (..., M) for axis=1

    if kind == "max":
        masked = np.where(mask3, x.data, -np.inf)
        arg = np.expand_dims(np.argmax(masked, axis=ax), ax)  # first = lowest index
        out_data = np.take_along_axis(masked, arg, ax).squeeze(ax)
        out_data[counts == 0] = 0.0

        def backward(g):
            if x.requires_grad:
                buf = np.zeros_like(x.data)
                g_eff = np.where((counts > 0)[..., None], g, 0.0)
                np.put_along_axis(buf, arg, np.expand_dims(g_eff, ax), ax)
                _accumulate(x, buf)

    elif kind == "mean":
        denom = np.maximum(counts, 1)[..., None]
        out_data = (x.data * mask3).sum(axis=ax) / denom

        def backward(g):
            if x.requires_grad:
                _accumulate(x, np.expand_dims(g / denom, ax) * mask3)

    else:
        raise ValueError(f"unknown aggregation kind {kind!r}")

    return _make(out_data, (x,), backward)


def _excl_top2(masked, axis):
    """Per-slice max excluding each own index, via top-2 along `axis` (-3 or -2)."""
    a1 = np.expand_dims(np.argmax(masked, axis=axis), axis)
    t1 = np.take_along_axis(masked, a1, axis)
    wo = np.copy(masked)
    np.put_along_axis(wo, a1, -np.inf, axis)
    a2 = np.expand_dims(np.argmax(wo, axis=axis), axis)
    t2 = np.take_along_axis(wo, a2, axis)
    pos = np.arange(masked.shape[axis]).reshape((-1,) + (1,) * (-1 - axis))
    is_a1 = pos == a1
    return np.where(is_a1, t2, t1), np.where(is_a1, a2, a1)


def pair_excl_agg(t_row, t_col, mask, kind="max"):
    """Joint neighborhood aggregation for edge updates on a bipartite graph.

    For each present edge (m, k) the candidate set is the union of
    t_row[m, k1] over present k1 != k (same-TX family, listed first) and
    t_col[m1, k] over present m1 != m (same-RX family). kind="max" takes the
    element-wise maximum with ties routed to the earliest candidate in that
    order, and a NaN candidate makes it NaN; kind="mean" averages. An empty
    union yields the zero vector. Output fibers on absent edges are zero.
    Tensors are (..., M, K, d) with an (..., M, K) mask.
    """
    t_row, t_col = as_tensor(t_row), as_tensor(t_col)
    mask = np.asarray(mask, dtype=bool)
    if t_row.data.shape != t_col.data.shape:
        raise ValueError("pair_excl_agg expects two tensors of equal shape")
    _graph_shapes("pair_excl_agg", t_row, mask)
    mask3 = mask[..., None]
    row_cnt = mask.sum(axis=-1, keepdims=True) - mask  # neighbors excluding self
    col_cnt = mask.sum(axis=-2, keepdims=True) - mask

    if kind == "max":
        row_vals, row_args = _excl_top2(np.where(mask3, t_row.data, -np.inf), axis=-2)
        col_vals, col_args = _excl_top2(np.where(mask3, t_col.data, -np.inf), axis=-3)
        # tie -> same-TX family (listed first); a NaN in either family wins
        use_row = (row_vals >= col_vals) | np.isnan(row_vals)
        live = mask3 & (row_cnt + col_cnt > 0)[..., None]
        out_data = np.where(live, np.where(use_row, row_vals, col_vals), 0.0)

        def backward(g):
            idx = np.indices(g.shape, sparse=True)
            if t_row.requires_grad:
                buf = np.zeros_like(t_row.data)
                np.add.at(buf, (*idx[:-2], row_args, idx[-1]),
                          np.where(use_row & live, g, 0.0))
                _accumulate(t_row, buf)
            if t_col.requires_grad:
                buf = np.zeros_like(t_col.data)
                np.add.at(buf, (*idx[:-3], col_args, *idx[-2:]),
                          np.where(~use_row & live, g, 0.0))
                _accumulate(t_col, buf)

    elif kind == "mean":
        total = np.maximum(row_cnt + col_cnt, 1)[..., None]
        row_sum = (t_row.data * mask3).sum(axis=-2, keepdims=True) - t_row.data * mask3
        col_sum = (t_col.data * mask3).sum(axis=-3, keepdims=True) - t_col.data * mask3
        out_data = (row_sum + col_sum) / total * mask3

        def backward(g):
            g_eff = g * mask3 / total
            if t_row.requires_grad:
                buf = (g_eff.sum(axis=-2, keepdims=True) - g_eff) * mask3
                _accumulate(t_row, buf)
            if t_col.requires_grad:
                buf = (g_eff.sum(axis=-3, keepdims=True) - g_eff) * mask3
                _accumulate(t_col, buf)

    else:
        raise ValueError(f"unknown aggregation kind {kind!r}")

    return _make(out_data, (t_row, t_col), backward)


# ---------------------------------------------------------------------------
# backward pass


def _accumulate(t, g):
    if t.grad is None:
        t.grad = np.array(g, dtype=np.float64)
    else:
        t.grad += g


class GradTape:
    """Ordered record of the primitive ops reachable from a result tensor.

    Replaying the record backward produces a gradient for every tensor with
    requires_grad that contributed to the result.
    """

    def __init__(self, nodes):
        self.nodes = nodes

    @classmethod
    def trace(cls, root):
        nodes, visited = [], set()
        stack = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                nodes.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in visited:
                    stack.append((p, False))
        return cls(nodes)  # topological order, root last

    def backward(self, root):
        for n in self.nodes:
            n.grad = None
        root.grad = np.ones_like(root.data)
        for n in reversed(self.nodes):
            if n._backward is not None and n.grad is not None:
                n._backward(n.grad)


def backward(loss):
    """Populate .grad on every requires_grad tensor reachable from `loss`."""
    if not isinstance(loss, Tensor):
        raise ValueError("backward expects a Tensor")
    if loss.data.size != 1:
        raise ValueError(f"backward expects a scalar loss, got shape {loss.shape}")
    if not loss.requires_grad:
        raise ValueError("loss does not require grad; nothing to differentiate")
    GradTape.trace(loss).backward(loss)


# ---------------------------------------------------------------------------
# optimizer


class RMSPropState:
    """Running mean of squared gradients plus the step hyperparameters."""

    def __init__(self, learning_rate=1e-4, decay=0.99, epsilon=1e-8):
        if not (0.0 < decay < 1.0):
            raise ValueError("decay must lie in (0, 1)")
        if learning_rate <= 0 or epsilon <= 0:
            raise ValueError("learning_rate and epsilon must be positive")
        self.learning_rate = learning_rate
        self.decay = decay
        self.epsilon = epsilon
        self.square_avg = None

    def _init(self, params):
        self.square_avg = [np.zeros_like(p.data) for p in params]


def rmsprop_step(params, grads, state):
    """One RMSProp ascent step: v <- rho v + (1-rho) g^2, theta += lr g/(sqrt(v)+eps).

    `grads` must be aligned one-to-one with `params` and hold the gradient of
    the objective to MAXIMIZE.
    """
    if len(params) != len(grads):
        raise ValueError("params and grads must align one-to-one")
    if state.square_avg is None:
        state._init(params)
    if len(state.square_avg) != len(params):
        raise ValueError("optimizer state does not match parameter count")
    rho, lr, eps = state.decay, state.learning_rate, state.epsilon
    for p, g, v in zip(params, grads, state.square_avg):
        g = np.asarray(g, dtype=np.float64)
        if g.shape != p.data.shape:
            raise ValueError(f"gradient shape {g.shape} does not match parameter "
                             f"shape {p.data.shape}")
        v *= rho
        v += (1.0 - rho) * g * g
        p.data += lr * g / (np.sqrt(v) + eps)
