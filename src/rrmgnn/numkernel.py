"""Minimal dense-tensor kernel with reverse-mode autodiff and an RMSProp optimizer.

Everything is float64 and CPU/numpy. The op set is sized for small MLPs,
masked max aggregations, and the rate objectives built on top of them; it is
not a general-purpose framework (no GPU, no conv, only the broadcasting the
ops below need).

An op is its value plus one VJP (vector-Jacobian product) per parent:
`vjp(g, y, *parents)` maps the output gradient g, the output tensor y and the
parent tensors to that parent's gradient, possibly still at the broadcast
output shape. Ops never touch `.grad`: replaying the tape reduces each VJP
back to its parent's shape and accumulates it, for the parents that require
grad. So a forward computes values only; whatever only a gradient needs, such
as the max aggregations' argmax routes, is worked out inside the VJP.

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
    their parents and one VJP per parent; `backward(loss)` replays them.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_vjps")

    def __init__(self, data, requires_grad=False, _parents=(), _vjps=()):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = _parents
        self._vjps = _vjps

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


def _make(data, parents, vjps):
    """Build an op result; prunes the tape when grads are off or unneeded."""
    if _grad_enabled and any(p.requires_grad for p in parents):
        return Tensor(data, requires_grad=True, _parents=parents, _vjps=vjps)
    return Tensor(data)


def _unbroadcast(grad, shape):
    """Reduce `grad` back to `shape` after a numpy-broadcast forward op."""
    if grad.shape == shape:
        return grad
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and grad.shape[ax] != 1:
            grad = grad.sum(axis=ax, keepdims=True)
    return grad


# ---------------------------------------------------------------------------
# VJPs of the ops without parameters of their own, one per parent


def _pass(g, y, *parents):
    return g


def _flip(g, y, *parents):
    return -g


_ADD, _SUB, _NEG, _BROADCAST_TO = (_pass, _pass), (_pass, _flip), (_flip,), (_pass,)
_MUL = (lambda g, y, a, b: g * b.data, lambda g, y, a, b: g * a.data)
_DIV = (lambda g, y, a, b: g / b.data,
        lambda g, y, a, b: -g * a.data / (b.data * b.data))
_SQUARE = (lambda g, y, a: 2.0 * a.data * g,)
_SQRT = (lambda g, y, a: 0.5 * g / y.data,)
_EXP = (lambda g, y, a: g * y.data,)
_LOG1P = (lambda g, y, a: g / (1.0 + a.data),)
_SIGMOID = (lambda g, y, a: g * y.data * (1.0 - y.data),)
_RELU = (lambda g, y, a: g * (a.data > 0),)
_MAXIMUM = (lambda g, y, a, b: g * (a.data >= b.data),
            lambda g, y, a, b: g * ~(a.data >= b.data))
_RESHAPE = (lambda g, y, a: g.reshape(a.data.shape),)
_MATMUL = (lambda g, y, a, b: g @ np.swapaxes(b.data, -1, -2),
           lambda g, y, a, b: np.swapaxes(a.data, -1, -2) @ g)
_LINEAR = (lambda g, y, x, w, b: (g.reshape(-1, len(w.data)) @ w.data).reshape(x.data.shape),
           lambda g, y, x, w, b: (g.reshape(-1, len(w.data)).T
                                  @ x.data.reshape(-1, w.data.shape[1])),
           lambda g, y, x, w, b: g.reshape(-1, len(w.data)).sum(axis=0))


# ---------------------------------------------------------------------------
# elementwise arithmetic


def add(a, b):
    a, b = as_tensor(a), as_tensor(b)
    return _make(a.data + b.data, (a, b), _ADD)


def sub(a, b):
    a, b = as_tensor(a), as_tensor(b)
    return _make(a.data - b.data, (a, b), _SUB)


def mul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    return _make(a.data * b.data, (a, b), _MUL)


def div(a, b):
    a, b = as_tensor(a), as_tensor(b)
    return _make(a.data / b.data, (a, b), _DIV)


def neg(a):
    a = as_tensor(a)
    return _make(-a.data, (a,), _NEG)


def square(a):
    a = as_tensor(a)
    return _make(a.data * a.data, (a,), _SQUARE)


def sqrt(a):
    a = as_tensor(a)
    return _make(np.sqrt(a.data), (a,), _SQRT)


def exp(a):
    a = as_tensor(a)
    return _make(np.exp(a.data), (a,), _EXP)


def log1p(a):
    a = as_tensor(a)
    return _make(np.log1p(a.data), (a,), _LOG1P)


def sigmoid(a):
    a = as_tensor(a)
    x = a.data
    out_data = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                        np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))
    return _make(out_data, (a,), _SIGMOID)


def relu(a):
    """Rectified linear unit; the subgradient at 0 is taken as 0."""
    a = as_tensor(a)
    return _make(np.maximum(a.data, 0.0), (a,), _RELU)


def maximum(a, b):
    """Elementwise max of two tensors; on ties the gradient routes to `a`."""
    a, b = as_tensor(a), as_tensor(b)
    return _make(np.where(a.data >= b.data, a.data, b.data), (a, b), _MAXIMUM)


# ---------------------------------------------------------------------------
# shape / indexing / reductions


def reshape(a, shape):
    a = as_tensor(a)
    return _make(a.data.reshape(shape), (a,), _RESHAPE)


def take(a, idx):
    """Numpy-style indexing (basic or advanced); backward scatter-adds."""
    a = as_tensor(a)

    def vjp(g, y, a):
        buf = np.zeros_like(a.data)
        np.add.at(buf, idx, g)
        return buf

    return _make(a.data[idx], (a,), (vjp,))


def concat(tensors, axis=0):
    tensors = tuple(as_tensor(t) for t in tensors)

    def piece(i):
        def vjp(g, y, *parents):
            start = sum(p.data.shape[axis] for p in parents[:i])
            cut = [slice(None)] * g.ndim
            cut[axis] = slice(start, start + parents[i].data.shape[axis])
            return g[tuple(cut)]
        return vjp

    return _make(np.concatenate([t.data for t in tensors], axis=axis), tensors,
                 [piece(i) for i in range(len(tensors))])


def broadcast_to(a, shape):
    a = as_tensor(a)
    return _make(np.broadcast_to(a.data, shape).copy(), (a,), _BROADCAST_TO)


def tsum(a, axis=None):
    """Sum over all elements (axis=None) or over an axis / tuple of axes."""
    a = as_tensor(a)

    def vjp(g, y, a):
        return np.broadcast_to(g if axis is None else np.expand_dims(g, axis), a.data.shape)

    return _make(a.data.sum(axis=axis), (a,), (vjp,))


def dot(a, b):
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim != 1 or b.data.ndim != 1 or a.data.shape != b.data.shape:
        raise ValueError(f"dot expects equal-length 1-D tensors, got {a.shape} and {b.shape}")
    return _make(a.data @ b.data, (a, b), _MUL)


def matmul(a, b):
    """Matrix product of two (..., n, k) and (..., k, p) stacks; leading axes
    broadcast as in numpy."""
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ValueError(f"matmul expects (..., n, k) @ (..., k, p); got {a.shape} @ {b.shape}")
    return _make(a.data @ b.data, (a, b), _MATMUL)


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
    return _make(out_data, (x, w, b), _LINEAR)


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
    arg = None
    if present.any():
        masked = np.where(present[:, None], items.data, -np.inf)
        arg = np.argmax(masked, axis=0)  # first occurrence = lowest index
        out_data = masked[arg, np.arange(d)]
    else:
        out_data = np.zeros(d)

    def vjp(g, y, a):
        buf = np.zeros_like(a.data)
        if arg is not None:
            np.add.at(buf, (arg, np.arange(d)), g)
        return buf

    return _make(out_data, (items,), (vjp,))


def _graph_shapes(name, x, mask):
    if x.data.ndim < 3 or mask.shape != x.data.shape[:-1]:
        raise ValueError(f"{name} expects (..., M, K, d) with an (..., M, K) mask, got "
                         f"{x.shape} and {mask.shape}")


def masked_agg_axis(x, mask, axis):
    """Element-wise maximum of an (..., M, K, d) tensor over its M (axis=0) or
    K (axis=1) axis under an (..., M, K) mask, with lowest-index tie routing.

    Empty slices aggregate to zeros. A NaN among the present items makes the
    aggregate NaN. The forward takes the value alone; its VJP finds the argmax.
    The two agree byte for byte except on the sign of a zero when -0.0 and 0.0
    tie for the top.
    """
    x = as_tensor(x)
    mask = np.asarray(mask, dtype=bool)
    _graph_shapes("masked_agg_axis", x, mask)
    if axis not in (0, 1):
        raise ValueError("axis must be 0 or 1")
    ax = axis - 3                       # M = -3, K = -2 on (..., M, K, d)
    counts = mask.sum(axis=axis - 2)    # (..., K) for axis=0, (..., M) for axis=1
    masked = np.where(mask[..., None], x.data, -np.inf)
    out_data = masked.max(axis=ax)
    out_data[counts == 0] = 0.0

    def vjp(g, y, a):
        arg = np.expand_dims(np.argmax(masked, axis=ax), ax)  # first = lowest index
        buf = np.zeros_like(a.data)
        g_eff = np.where((counts > 0)[..., None], g, 0.0)
        np.put_along_axis(buf, arg, np.expand_dims(g_eff, ax), ax)
        return buf

    return _make(out_data, (x,), (vjp,))


def _excl_max(masked, axis):
    """Per-slice max along `axis` (-3 or -2) excluding each own entry: the
    runner-up where the entry is the top (a NaN counts as the top), else the top."""
    top = np.sort(masked, axis=axis)  # NaNs sort last
    t1 = np.take(top, [-1], axis)
    t2 = np.take(top, [-2], axis) if top.shape[axis] > 1 else np.full_like(t1, -np.inf)
    return np.where((masked == t1) | (np.isnan(masked) & np.isnan(t1)), t2, t1)


def _excl_max_routes(masked, axis):
    """Where each entry's _excl_max value sits, as an offset along `axis`: the
    slice's first argmax a1, or for the entry at a1, the first argmax of the rest."""
    a1 = np.expand_dims(np.argmax(masked, axis=axis), axis)
    pos = np.arange(masked.shape[axis]).reshape((-1,) + (1,) * (-1 - axis))
    at_a1 = pos == a1
    a2 = np.expand_dims(np.argmax(np.where(at_a1, -np.inf, masked), axis=axis), axis)
    return np.where(at_a1, a2, a1) - pos


def pair_excl_agg(t_row, t_col, mask):
    """Joint neighborhood aggregation for edge updates on a bipartite graph.

    For each present edge (m, k) the candidate set is the union of
    t_row[m, k1] over present k1 != k (same-TX family, listed first) and
    t_col[m1, k] over present m1 != m (same-RX family). The result is the
    element-wise maximum with ties routed to the earliest candidate in that
    order, and a NaN candidate makes it NaN. An empty union yields the zero
    vector. Output fibers on absent edges are zero. Tensors are (..., M, K, d)
    with an (..., M, K) mask. The forward takes each family's values from one
    sort; each family's VJP finds its routes. The two agree byte for byte
    except on the sign of a zero when -0.0 and 0.0 tie for the top.
    """
    t_row, t_col = as_tensor(t_row), as_tensor(t_col)
    mask = np.asarray(mask, dtype=bool)
    if t_row.data.shape != t_col.data.shape:
        raise ValueError("pair_excl_agg expects two tensors of equal shape")
    _graph_shapes("pair_excl_agg", t_row, mask)
    mask3 = mask[..., None]
    row_cnt = mask.sum(axis=-1, keepdims=True) - mask  # neighbors excluding self
    col_cnt = mask.sum(axis=-2, keepdims=True) - mask
    row_m = np.where(mask3, t_row.data, -np.inf)
    col_m = np.where(mask3, t_col.data, -np.inf)
    row_vals, col_vals = _excl_max(row_m, -2), _excl_max(col_m, -3)
    # tie -> same-TX family (listed first); a NaN in either family wins
    use_row = (row_vals >= col_vals) | np.isnan(row_vals)
    live = mask3 & (row_cnt + col_cnt > 0)[..., None]
    out_data = np.where(live, np.where(use_row, row_vals, col_vals), 0.0)

    def family(axis):
        # the winning family's argmax along `axis` takes the gradient
        def vjp(g, y, *parents):
            masked, pick = (row_m, use_row) if axis == -2 else (col_m, ~use_row)
            step = int(np.prod(g.shape[axis + 1:]))  # flat-index stride of `axis`
            to = np.arange(g.size) + (_excl_max_routes(masked, axis) * step).ravel()
            buf = np.zeros(g.size)
            np.add.at(buf, to, np.where(pick & live, g, 0.0).ravel())
            return buf.reshape(g.shape)
        return vjp

    return _make(out_data, (t_row, t_col), (family(-2), family(-3)))


# ---------------------------------------------------------------------------
# backward pass


def _accumulate(t, g):
    if t.grad is None:
        t.grad = np.array(g, dtype=np.float64)
    else:
        t.grad += g


class GradTape:
    """Ordered record of the primitive ops reachable from a result tensor.

    Replaying the record backward routes every gradient: each op's VJP for a
    parent that requires grad is reduced to that parent's shape and summed
    into its `.grad`.
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
        if not root.requires_grad:
            raise ValueError("loss does not require grad; nothing to differentiate")
        for n in self.nodes:
            n.grad = None
        root.grad = np.ones_like(root.data)
        for n in reversed(self.nodes):
            g, parents = n.grad, n._parents
            for p, vjp in zip(parents, n._vjps):
                if p.requires_grad:
                    _accumulate(p, _unbroadcast(vjp(g, n, *parents), p.data.shape))


def backward(loss):
    """Populate .grad on every requires_grad tensor reachable from `loss`."""
    if not isinstance(loss, Tensor):
        raise ValueError("backward expects a Tensor")
    if loss.data.size != 1:
        raise ValueError(f"backward expects a scalar loss, got shape {loss.shape}")
    GradTape.trace(loss).backward(loss)


# ---------------------------------------------------------------------------
# optimizer


_RMSPROP_DECAY = 0.99
_RMSPROP_EPSILON = 1e-8


class RMSPropState:
    """Running mean of squared gradients plus the learning rate."""

    def __init__(self, learning_rate):
        if learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        self.learning_rate = learning_rate
        self.square_avg = None

    def _init(self, params):
        self.square_avg = [np.zeros_like(p.data) for p in params]


def rmsprop_step(params, grads, state):
    """One RMSProp ascent step: v <- d v + (1-d) g^2, theta += lr g/(sqrt(v)+eps),
    with the decay d = 0.99 and eps = 1e-8.

    `grads` must be aligned one-to-one with `params` and hold the gradient of
    the objective to MAXIMIZE.
    """
    if len(params) != len(grads):
        raise ValueError("params and grads must align one-to-one")
    if state.square_avg is None:
        state._init(params)
    if len(state.square_avg) != len(params):
        raise ValueError("optimizer state does not match parameter count")
    lr = state.learning_rate
    for p, g, v in zip(params, grads, state.square_avg):
        g = np.asarray(g, dtype=np.float64)
        if g.shape != p.data.shape:
            raise ValueError(f"gradient shape {g.shape} does not match parameter "
                             f"shape {p.data.shape}")
        v *= _RMSPROP_DECAY
        v += (1.0 - _RMSPROP_DECAY) * g * g
        p.data += lr * g / (np.sqrt(v) + _RMSPROP_EPSILON)
