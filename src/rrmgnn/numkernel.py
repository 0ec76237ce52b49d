"""Minimal dense-tensor kernel with reverse-mode autodiff and an RMSProp optimizer.

Everything is float64 and CPU/numpy. The op set is sized for small MLPs,
max aggregations over complete bipartite graphs, and the rate objectives built
on top of them; it is not a general-purpose framework (no GPU, no conv, only
the broadcasting the ops below need).

An op is its value plus one VJP (vector-Jacobian product) per parent:
`vjp(g, y, *parents)` maps the output gradient g, the output tensor y and the
parent tensors to that parent's gradient, possibly still at the broadcast
output shape. Ops never touch `.grad`: replaying the tape reduces each VJP
back to its parent's shape and accumulates it, for the parents that require
grad. So a forward computes values only; whatever only a gradient needs, such
as the max aggregations' argmax routes, is worked out inside the VJP.

A tensor's `.grad` is a result to read, never to write into: a first gradient
is kept as its VJP returned it and later ones are added out of place, so a
`.grad` may share memory with another tensor's gradient (an `add` hands the
same array to both parents) or be a read-only broadcast view.

Graph tensors count their axes from the end: edge tensors are (..., M, K, d),
node tensors (..., M, d) or (..., K, d). Any leading axes (a minibatch axis B)
ride along, so one graph and a stack of equally shaped graphs run the same
code. `axis=0/1` of the aggregations names the M or the K axis, wherever they
sit. `concat` joins on the last axis only and broadcasts the others, so node
rows given a length-1 edge axis, (..., M, 1, d) or (..., 1, K, d), join an
edge tensor without being copied onto every edge first.
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

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # small operator surface; everything routes through the module-level ops
    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __truediv__(self, other):
        return div(self, other)

    def __getitem__(self, idx):
        return take(self, idx)


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


_ADD, _SUB = (_pass, _pass), (_pass, _flip)
_MUL = (lambda g, y, a, b: g * b.data, lambda g, y, a, b: g * a.data)
_DIV = (lambda g, y, a, b: g / b.data,
        lambda g, y, a, b: -g * a.data / (b.data * b.data))
_SQUARE = (lambda g, y, a: 2.0 * a.data * g,)
_SQRT = (lambda g, y, a: 0.5 * g / y.data,)
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


def square(a):
    a = as_tensor(a)
    return _make(a.data * a.data, (a,), _SQUARE)


def sqrt(a):
    a = as_tensor(a)
    return _make(np.sqrt(a.data), (a,), _SQRT)


def log1p(a):
    a = as_tensor(a)
    return _make(np.log1p(a.data), (a,), _LOG1P)


def sigmoid(a):
    a = as_tensor(a)
    z = np.exp(-np.abs(a.data))      # in (0, 1]: never overflows
    return _make(np.where(a.data >= 0, 1.0, z) / (1.0 + z), (a,), _SIGMOID)


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


def concat(tensors):
    """Join tensors along the last axis. The other axes broadcast as in numpy,
    so a part with a length-1 axis repeats along it; each part's VJP is its
    slice of the output gradient, which the tape sums back to the part's shape."""
    tensors = tuple(as_tensor(t) for t in tensors)
    widths = [t.data.shape[-1] for t in tensors]
    out = np.empty(np.broadcast(*(t.data[..., 0] for t in tensors)).shape + (sum(widths),))
    vjps, end = [], 0
    for t, width in zip(tensors, widths):
        start, end = end, end + width
        out[..., start:end] = t.data
        vjps.append(lambda g, y, *parents, cut=slice(start, end): g[..., cut])
    return _make(out, tensors, vjps)


def tsum(a, axis=None):
    """Sum over all elements (axis=None) or over an axis / tuple of axes."""
    a = as_tensor(a)

    def vjp(g, y, a):
        shape = a.data.shape
        if axis is not None:   # g at the keepdims shape: 1 on every summed axis
            summed = [ax % len(shape) for ax in (axis if isinstance(axis, tuple) else (axis,))]
            g = g.reshape([1 if i in summed else n for i, n in enumerate(shape)])
        return np.broadcast_to(g, shape)

    return _make(a.data.sum(axis=axis), (a,), (vjp,))


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
# max aggregation primitives


def _graph_shape(name, x):
    if x.data.ndim < 3:
        raise ValueError(f"{name} expects an (..., M, K, d) tensor, got {x.shape}")


def max_agg_axis(x, axis):
    """Element-wise maximum of an (..., M, K, d) tensor over its M (axis=0) or
    K (axis=1) axis, with lowest-index tie routing.

    A NaN in a slice makes its aggregate NaN. The forward takes the value
    alone; its VJP finds the argmax. The two agree byte for byte except on the
    sign of a zero when -0.0 and 0.0 tie for the top.
    """
    x = as_tensor(x)
    _graph_shape("max_agg_axis", x)
    if axis not in (0, 1):
        raise ValueError("axis must be 0 or 1")
    ax = axis - 3                       # M = -3, K = -2 on (..., M, K, d)

    def vjp(g, y, a):
        arg = np.expand_dims(np.argmax(a.data, axis=ax), ax)  # first = lowest index
        buf = np.zeros_like(a.data)
        np.put_along_axis(buf, arg, np.expand_dims(g, ax), ax)
        return buf

    return _make(x.data.max(axis=ax), (x,), (vjp,))


def _excl_max(x, axis):
    """Per-slice max along `axis` (-3 or -2) excluding each own entry: the
    runner-up where the entry is the top (a NaN counts as the top), else the
    top; -inf where the slice holds the entry alone."""
    top = np.sort(x, axis=axis)  # NaNs sort last
    t1 = np.take(top, [-1], axis)
    t2 = np.take(top, [-2], axis) if top.shape[axis] > 1 else np.full_like(t1, -np.inf)
    return np.where((x == t1) | (np.isnan(x) & np.isnan(t1)), t2, t1)


def _excl_max_routes(x, axis):
    """Where each entry's _excl_max value sits, as an offset along `axis`: the
    slice's first argmax a1, or for the entry at a1, the first argmax of the rest."""
    a1 = np.expand_dims(np.argmax(x, axis=axis), axis)
    pos = np.arange(x.shape[axis]).reshape((-1,) + (1,) * (-1 - axis))
    at_a1 = pos == a1
    a2 = np.expand_dims(np.argmax(np.where(at_a1, -np.inf, x), axis=axis), axis)
    return np.where(at_a1, a2, a1) - pos


def pair_excl_agg(t_row, t_col):
    """Joint neighborhood aggregation for edge updates on a complete bipartite
    graph.

    For each edge (m, k) the candidate set is the union of t_row[m, k1] over
    k1 != k (same-TX family, listed first) and t_col[m1, k] over m1 != m
    (same-RX family). The result is the element-wise maximum with ties routed
    to the earliest candidate in that order, and a NaN candidate makes it NaN.
    A 1 x 1 graph, whose one edge has no candidate, yields the zero vector.
    Tensors are (..., M, K, d). The forward takes each family's values from
    one sort; each family's VJP finds its routes. The two agree byte for byte
    except on the sign of a zero when -0.0 and 0.0 tie for the top.
    """
    t_row, t_col = as_tensor(t_row), as_tensor(t_col)
    if t_row.data.shape != t_col.data.shape:
        raise ValueError("pair_excl_agg expects two tensors of equal shape")
    _graph_shape("pair_excl_agg", t_row)
    row_vals, col_vals = _excl_max(t_row.data, -2), _excl_max(t_col.data, -3)
    # tie -> same-TX family (listed first); a NaN in either family wins
    use_row = (row_vals >= col_vals) | np.isnan(row_vals)
    live = t_row.data.shape[-3] + t_row.data.shape[-2] > 2   # False only for 1 x 1
    out_data = np.where(live, np.where(use_row, row_vals, col_vals), 0.0)

    def family(axis):
        # the winning family's argmax along `axis` takes the gradient
        def vjp(g, y, *parents):
            x, pick = (t_row.data, use_row) if axis == -2 else (t_col.data, ~use_row)
            step = int(np.prod(g.shape[axis + 1:]))  # flat-index stride of `axis`
            to = np.arange(g.size) + (_excl_max_routes(x, axis) * step).ravel()
            buf = np.zeros(g.size)
            np.add.at(buf, to, np.where(pick & live, g, 0.0).ravel())
            return buf.reshape(g.shape)
        return vjp

    return _make(out_data, (t_row, t_col), (family(-2), family(-3)))


# ---------------------------------------------------------------------------
# backward pass


def _accumulate(t, g):
    # out of place: a first gradient is kept as the VJP returned it, so it may
    # be the very array another tensor holds as its gradient
    t.grad = g if t.grad is None else t.grad + g


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
    """Running mean of squared gradients plus the learning rate. `square_avg`
    is one flat array over the parameters, in order, each one raveled."""

    def __init__(self, learning_rate):
        if not 0 < learning_rate < np.inf:
            raise ValueError(f"learning_rate must be finite and > 0, got {learning_rate!r}")
        self.learning_rate = learning_rate
        self.square_avg = None


def rmsprop_step(params, grads, state):
    """One RMSProp ascent step: v <- d v + (1-d) g^2, theta += lr g/(sqrt(v)+eps),
    with the decay d = 0.99 and eps = 1e-8.

    `grads` must be aligned one-to-one with `params` and hold the gradient of
    the objective to MAXIMIZE. The rule runs once over the flat concatenation
    of the gradients, then each parameter adds its slice of the step.
    """
    if len(params) != len(grads):
        raise ValueError("params and grads must align one-to-one")
    for i, (p, g) in enumerate(zip(params, grads)):
        if g is None:
            raise ValueError(f"parameter {i} of shape {p.data.shape} has no gradient: "
                             "the loss does not reach it")
        if np.shape(g) != p.data.shape:
            raise ValueError(f"gradient shape {np.shape(g)} does not match parameter "
                             f"shape {p.data.shape}")
    g = np.concatenate([np.ravel(g) for g in grads], dtype=np.float64)
    if state.square_avg is None:
        state.square_avg = np.zeros_like(g)
    v = state.square_avg
    if v.shape != g.shape:
        raise ValueError(f"optimizer state holds {v.size} values, the parameters {g.size}")
    v *= _RMSPROP_DECAY
    v += (1.0 - _RMSPROP_DECAY) * g * g
    step = state.learning_rate * g / (np.sqrt(v) + _RMSPROP_EPSILON)
    end = 0
    for p in params:
        start, end = end, end + p.data.size
        p.data += step[start:end].reshape(p.data.shape)
