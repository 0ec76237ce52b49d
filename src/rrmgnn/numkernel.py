"""Minimal dense-tensor kernel with reverse-mode autodiff and an RMSProp optimizer.

Everything is float64 and CPU/numpy. The op set is sized for small MLPs,
masked max aggregations, and the rate objectives built on top of them; it is
not a general-purpose framework (no GPU, no conv, only the broadcasting the
ops below need).
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
    """Matrix product for 2-D x 2-D, 2-D x 1-D, or 1-D x 2-D operands."""
    a, b = as_tensor(a), as_tensor(b)
    ad, bd = a.data, b.data
    if ad.ndim not in (1, 2) or bd.ndim not in (1, 2) or (ad.ndim == 1 and bd.ndim == 1):
        raise ValueError(f"matmul supports 2Dx2D, 2Dx1D, 1Dx2D; got {ad.shape} @ {bd.shape}")
    out_data = ad @ bd

    def backward(g):
        if ad.ndim == 2 and bd.ndim == 2:
            if a.requires_grad:
                _accumulate(a, g @ bd.T)
            if b.requires_grad:
                _accumulate(b, ad.T @ g)
        elif ad.ndim == 2 and bd.ndim == 1:
            if a.requires_grad:
                _accumulate(a, np.outer(g, bd))
            if b.requires_grad:
                _accumulate(b, ad.T @ g)
        else:  # 1-D @ 2-D
            if a.requires_grad:
                _accumulate(a, bd @ g)
            if b.requires_grad:
                _accumulate(b, np.outer(ad, g))

    return _make(out_data, (a, b), backward)


def linear(x, w, b):
    """Affine map x @ w.T + b for x of shape (n, d_in) or (d_in,)."""
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    if x.data.shape[-1] != w.data.shape[1]:
        raise ValueError(f"linear: input width {x.data.shape[-1]} does not match "
                         f"weight shape {w.data.shape}")
    out_data = x.data @ w.data.T + b.data

    def backward(g):
        if x.requires_grad:
            _accumulate(x, g @ w.data)
        if w.requires_grad:
            if x.data.ndim == 1:
                _accumulate(w, np.outer(g, x.data))
            else:
                _accumulate(w, g.T @ x.data)
        if b.requires_grad:
            _accumulate(b, g if g.ndim == 1 else g.sum(axis=0))

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


def masked_agg_axis(x, mask, axis, kind="max"):
    """Aggregate a (M, K, d) tensor over `axis` (0 or 1) with a (M, K) mask.

    kind="max" is the element-wise maximum with lowest-index tie routing,
    kind="mean" the arithmetic mean; empty slices aggregate to zeros.
    """
    x = as_tensor(x)
    mask = np.asarray(mask, dtype=bool)
    if x.data.ndim != 3 or mask.shape != x.data.shape[:2]:
        raise ValueError(f"masked_agg_axis expects (M, K, d) with (M, K) mask, got "
                         f"{x.shape} and {mask.shape}")
    if axis not in (0, 1):
        raise ValueError("axis must be 0 or 1")
    mask3 = mask[:, :, None]
    counts = mask.sum(axis=axis)  # length K (axis=0) or M (axis=1)

    if kind == "max":
        masked = np.where(mask3, x.data, -np.inf)
        arg = np.argmax(masked, axis=axis)  # (K, d) or (M, d)
        out_data = np.take_along_axis(masked, np.expand_dims(arg, axis), axis).squeeze(axis)
        out_data[counts == 0] = 0.0

        def backward(g):
            if x.requires_grad:
                buf = np.zeros_like(x.data)
                g_eff = np.where((counts > 0)[:, None], g, 0.0)
                other = np.arange(out_data.shape[0])
                dd = np.arange(out_data.shape[1])
                if axis == 0:
                    np.add.at(buf, (arg, other[:, None], dd[None, :]), g_eff)
                else:
                    np.add.at(buf, (other[:, None], arg, dd[None, :]), g_eff)
                _accumulate(x, buf)

    elif kind == "mean":
        denom = np.maximum(counts, 1)[:, None]
        out_data = (x.data * mask3).sum(axis=axis) / denom

        def backward(g):
            if x.requires_grad:
                g_scaled = g / denom
                buf = np.expand_dims(g_scaled, axis) * mask3
                _accumulate(x, buf)

    else:
        raise ValueError(f"unknown aggregation kind {kind!r}")

    return _make(out_data, (x,), backward)


def _excl_top2(masked, axis):
    """Per-slice max excluding each own index, via top-2 along `axis`."""
    a1 = np.argmax(masked, axis=axis)
    t1 = np.take_along_axis(masked, np.expand_dims(a1, axis), axis).squeeze(axis)
    wo = np.copy(masked)
    np.put_along_axis(wo, np.expand_dims(a1, axis), -np.inf, axis)
    a2 = np.argmax(wo, axis=axis)
    t2 = np.take_along_axis(wo, np.expand_dims(a2, axis), axis).squeeze(axis)
    n = masked.shape[axis]
    pos = np.arange(n).reshape((-1, 1, 1) if axis == 0 else (1, -1, 1))
    is_a1 = pos == np.expand_dims(a1, axis)
    vals = np.where(is_a1, np.expand_dims(t2, axis), np.expand_dims(t1, axis))
    args = np.where(is_a1, np.expand_dims(a2, axis), np.expand_dims(a1, axis))
    return vals, args


def pair_excl_agg(t_row, t_col, mask, kind="max"):
    """Joint neighborhood aggregation for edge updates on a bipartite graph.

    For each present edge (m, k) the candidate set is the union of
    t_row[m, k1] over present k1 != k (same-TX family, listed first) and
    t_col[m1, k] over present m1 != m (same-RX family). kind="max" takes the
    element-wise maximum with ties routed to the earliest candidate in that
    order; kind="mean" averages. An empty union yields the zero vector.
    Output fibers on absent edges are zero.
    """
    t_row, t_col = as_tensor(t_row), as_tensor(t_col)
    mask = np.asarray(mask, dtype=bool)
    if t_row.data.shape != t_col.data.shape or t_row.data.ndim != 3:
        raise ValueError("pair_excl_agg expects two (M, K, d) tensors of equal shape")
    if mask.shape != t_row.data.shape[:2]:
        raise ValueError("mask shape does not match")
    m_n, k_n, d = t_row.data.shape
    mask3 = mask[:, :, None]

    if kind == "max":
        row_masked = np.where(mask3, t_row.data, -np.inf)
        col_masked = np.where(mask3, t_col.data, -np.inf)
        row_vals, row_args = _excl_top2(row_masked, axis=1)
        col_vals, col_args = _excl_top2(col_masked, axis=0)
        use_row = row_vals >= col_vals  # tie -> same-TX family (listed first)
        out_data = np.where(use_row, row_vals, col_vals)
        empty = ~np.isfinite(out_data)
        out_data[empty] = 0.0
        out_data *= mask3

        def backward(g):
            g = g * mask3
            mm = np.arange(m_n)[:, None, None]
            kk = np.arange(k_n)[None, :, None]
            dd = np.arange(d)[None, None, :]
            if t_row.requires_grad:
                sel = use_row & ~empty & mask3
                buf = np.zeros_like(t_row.data)
                np.add.at(buf, (mm + 0 * row_args, row_args, dd + 0 * row_args),
                          np.where(sel, g, 0.0))
                _accumulate(t_row, buf)
            if t_col.requires_grad:
                sel = ~use_row & ~empty & mask3
                buf = np.zeros_like(t_col.data)
                np.add.at(buf, (col_args, kk + 0 * col_args, dd + 0 * col_args),
                          np.where(sel, g, 0.0))
                _accumulate(t_col, buf)

    elif kind == "mean":
        row_cnt = mask.sum(axis=1, keepdims=True) - mask  # neighbors excluding self
        col_cnt = mask.sum(axis=0, keepdims=True) - mask
        total = np.maximum(row_cnt + col_cnt, 1)[:, :, None]
        row_sum = (t_row.data * mask3).sum(axis=1, keepdims=True) - t_row.data * mask3
        col_sum = (t_col.data * mask3).sum(axis=0, keepdims=True) - t_col.data * mask3
        out_data = (row_sum + col_sum) / total * mask3

        def backward(g):
            g_eff = g * mask3 / total
            if t_row.requires_grad:
                buf = (g_eff.sum(axis=1, keepdims=True) - g_eff) * mask3
                _accumulate(t_row, buf)
            if t_col.requires_grad:
                buf = (g_eff.sum(axis=0, keepdims=True) - g_eff) * mask3
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
