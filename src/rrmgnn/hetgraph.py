"""Bipartite TX/RX graph data model and permutation machinery.

Edges are stored densely as M x K feature tensors: all three supported
scenarios are complete bipartite, since every TX reaches every UE through a
channel, and dense storage keeps the aggregations vectorizable.
Complex features are split into real/imag halves before they enter the graph,
so every array here is real float64.
"""

from dataclasses import dataclass

import numpy as np


def split_complex(c):
    """[Re(c); Im(c)] along the last axis, doubling its width."""
    c = np.asarray(c)
    return np.concatenate([c.real, c.imag], axis=-1).astype(np.float64)


@dataclass(frozen=True)
class HetGraph:
    """Complete heterogeneous bipartite graph: M TX-nodes, K RX-nodes, an edge
    fiber on every (TX, RX) pair.

    f_tx: (M, d_tx), f_rx: (K, d_rx), e: (M, K, d_e). A stack of equally
    shaped graphs carries one more leading axis B on all three.
    """

    f_tx: np.ndarray
    f_rx: np.ndarray
    e: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "f_tx", np.ascontiguousarray(self.f_tx, dtype=np.float64))
        object.__setattr__(self, "f_rx", np.ascontiguousarray(self.f_rx, dtype=np.float64))
        object.__setattr__(self, "e", np.ascontiguousarray(self.e, dtype=np.float64))
        if self.f_tx.ndim not in (2, 3) or self.f_rx.ndim != self.f_tx.ndim \
                or self.e.ndim != self.f_tx.ndim + 1:
            raise ValueError("f_tx/f_rx must be 2-D and e must be 3-D, plus an "
                             "optional leading batch axis on all of them")
        m, k = self.m, self.k
        if m < 1 or k < 1:   # so that no max aggregation slice is empty
            raise ValueError("graph needs at least one TX-node and one RX-node")
        batch = self.f_tx.shape[:-2]
        if self.f_rx.shape[:-2] != batch or self.e.shape[:-1] != batch + (m, k):
            raise ValueError(f"edge fibers must be shaped {batch + (m, k)} (+ fiber width)")

    @property
    def m(self):
        return self.f_tx.shape[-2]

    @property
    def k(self):
        return self.f_rx.shape[-2]

    @property
    def edge_mask(self):
        """Which (TX, RX) pairs are edges: all of them."""
        return np.ones(self.e.shape[:-1], bool)

    @property
    def widths(self):
        return self.f_tx.shape[-1], self.f_rx.shape[-1], self.e.shape[-1]


@dataclass(frozen=True)
class NodePermutation:
    """A pair of bijections on TX indices {0..M-1} and RX indices {0..K-1}."""

    pi_tx: np.ndarray
    pi_rx: np.ndarray

    def __post_init__(self):
        for name in ("pi_tx", "pi_rx"):
            p = np.asarray(getattr(self, name), dtype=np.intp)
            object.__setattr__(self, name, p)
            if p.ndim != 1 or not np.array_equal(np.sort(p), np.arange(p.size)):
                raise ValueError(f"{name} is not a bijection on 0..{p.size - 1}")

    @classmethod
    def random(cls, m, k, rng):
        return cls(rng.permutation(m), rng.permutation(k))


def _relabel(a, *pis):
    """Scatter the leading axes: out[pi_0[i], pi_1[j], ...] = a[i, j, ...].

    None passes through, so optional instance fields need no special case.
    """
    if a is None:
        return None
    out = np.empty_like(a)
    out[np.ix_(*pis)] = a
    return out


def permute_graph(g, p):
    """Relabel nodes of one graph: output node pi(m) carries input node m's features."""
    if p.pi_tx.size != g.m or p.pi_rx.size != g.k:
        raise ValueError(f"permutation sizes ({p.pi_tx.size}, {p.pi_rx.size}) do not "
                         f"match graph ({g.m}, {g.k})")
    return HetGraph(_relabel(g.f_tx, p.pi_tx), _relabel(g.f_rx, p.pi_rx),
                    _relabel(g.e, p.pi_tx, p.pi_rx))
