"""Shared test helpers: the finite-difference gradient oracle for the kernel
tests, and the inverse of `hetgraph.split_complex`."""

import numpy as np

from rrmgnn import numkernel as nk


def merge_complex(x):
    """Complex array of split [Re; Im] reals along the last axis."""
    half = x.shape[-1] // 2
    return x[..., :half] + 1j * x[..., half:]


def fd_grad(f, x, h=1e-6):
    """Central finite differences of a scalar-valued f at x (numpy array)."""
    # a C-ordered copy: `reshape(-1)` of any other layout copies, and the
    # perturbations would then never reach f
    x = np.array(x, dtype=np.float64, order="C")
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x)
        flat[i] = orig - h
        fm = f(x)
        flat[i] = orig
        gf[i] = (fp - fm) / (2 * h)
    return g


def analytic_grad(build, x):
    """Gradient of scalar build(Tensor) at x via the tape."""
    t = nk.Tensor(x, requires_grad=True)
    nk.backward(build(t))
    return t.grad


def check_op(build, x, h=1e-6, rtol=1e-6):
    """Assert the tape gradient of build() matches central differences."""
    got = analytic_grad(build, np.array(x, dtype=np.float64))
    want = fd_grad(lambda a: float(build(nk.Tensor(a)).data), np.array(x, dtype=np.float64), h)
    scale = np.maximum(np.abs(want), 1.0)
    assert np.max(np.abs(got - want) / scale) <= rtol, (got, want)


def primitive_gradcheck_sweep(rtol=1e-6, points_per_op=100, seed=12345):
    """FD-check every differentiable primitive at random off-kink points.

    Returns the number of (op, point) checks performed; raises on mismatch.
    """
    rng = np.random.default_rng(seed)
    checked = 0

    def away(shape, lo=0.25):
        x = rng.uniform(lo, 1.5, size=shape)
        return x * rng.choice([-1.0, 1.0], size=shape)

    unary = [
        (nk.square, lambda: rng.normal(size=5)),
        (nk.sqrt, lambda: rng.uniform(0.3, 3.0, size=5)),
        (nk.log1p, lambda: rng.uniform(-0.5, 3.0, size=5)),
        (nk.sigmoid, lambda: rng.uniform(-4, 4, size=5)),
        (nk.relu, lambda: away(5)),
    ]
    for op, draw in unary:
        for _ in range(points_per_op):
            x = draw()
            c = rng.normal(size=x.shape)
            check_op(lambda t, op=op, c=c: nk.tsum(op(t) * nk.constant(c)), x, rtol=rtol)
            checked += 1

    for op in (nk.add, nk.sub, nk.mul, nk.div):
        for _ in range(points_per_op // 2):
            a = away((3, 4))              # the divisor of div(b, t): off its pole
            b = rng.normal(size=(3, 4)) + 3.0
            c = rng.normal(size=(3, 4))
            check_op(lambda t, op=op, b=b, c=c:
                     nk.tsum(op(t, nk.constant(b)) * nk.constant(c)), a, rtol=rtol)
            check_op(lambda t, op=op, b=b, c=c:
                     nk.tsum(op(nk.constant(b), t) * nk.constant(c)), a, rtol=rtol)
            checked += 2

    for _ in range(points_per_op):
        x = rng.normal(size=(4, 3))
        w = rng.normal(size=(5, 3))
        bb = rng.normal(size=5)
        c = rng.normal(size=(4, 5))
        check_op(lambda t, w=w, bb=bb, c=c:
                 nk.tsum(nk.linear(t, nk.constant(w), nk.constant(bb)) * nk.constant(c)),
                 x, rtol=rtol)
        check_op(lambda t, x=x, bb=bb, c=c:
                 nk.tsum(nk.linear(nk.constant(x), t, nk.constant(bb)) * nk.constant(c)),
                 w, rtol=rtol)
        m2 = rng.normal(size=(3, 4))
        c2 = rng.normal(size=(3, 3))
        check_op(lambda t, x=x, c2=c2:
                 nk.tsum(nk.matmul(t, nk.constant(x)) * nk.constant(c2)), m2, rtol=rtol)
        xb = away((6,))
        other = away((6,)) + 2.5
        cb = rng.normal(size=6)
        check_op(lambda t, other=other, cb=cb:
                 nk.tsum(nk.maximum(t, nk.constant(other)) * nk.constant(cb)), xb,
                 rtol=rtol)
        checked += 4

    for _ in range(points_per_op):
        x3 = rng.normal(size=(4, 5, 3)) * 2.0
        for axis in (0, 1):
            cc = rng.normal(size=(5, 3) if axis == 0 else (4, 3))
            check_op(lambda t, axis=axis, cc=cc:
                     nk.tsum(nk.max_agg_axis(t, axis) * nk.constant(cc)), x3, rtol=rtol)
        t5 = rng.normal(size=(4, 3, 2)) * 2.0
        t6 = rng.normal(size=(4, 3, 2)) * 2.0
        cp = rng.normal(size=(4, 3, 2))
        check_op(lambda t, t6=t6, cp=cp:
                 nk.tsum(nk.pair_excl_agg(t, nk.constant(t6)) * nk.constant(cp)),
                 t5, rtol=rtol)
        checked += 3
    return checked
