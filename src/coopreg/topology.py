"""Switching digraphs over a leader-follower node set and their normalized
weighted adjacency matrices.

Node 0 is always the leader; nodes 1..N are followers.  A weighted digraph
has entry ``weights[i, j] = a_ij``, the weight of the edge from node j to
node i (information flows j -> i).  Normalization produces the row-stochastic
matrix with

    omega_ii = 1 / (1 + sum_j a_ij)
    omega_ij = a_ij / (1 + sum_j a_ij),   i != j

whose lower-right N x N sub-block (the follower block) drives every
convergence argument in this toolkit: under joint connectivity, products of
follower blocks contract to zero at a geometric rate.

Both are stored as their edges: (source, receiver, weight) arrays sorted by
receiver, then source, so memory is linear in the number of edges.  A dense
matrix is built only when asked for.

All types are immutable after construction and all operations are pure,
so concurrent read access is safe.
"""

from __future__ import annotations

import operator
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import accumulate
from typing import Callable, Iterable, Sequence, TypeVar

import numpy as np


T = TypeVar("T")


class DimensionError(ValueError):
    """Raised when matrix or vector dimensions are inconsistent."""


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float, copy=True)
    out.setflags(write=False)
    return out


def _frozen(*arrays: np.ndarray) -> None:
    for a in arrays:
        a.setflags(write=False)


def _dense(n: int, src: np.ndarray, dst: np.ndarray, w: np.ndarray) -> np.ndarray:
    out = np.zeros((n, n))
    out[dst, src] = w
    return out


@dataclass(frozen=True, eq=False, init=False)
class WeightedDigraph:
    """Weighted digraph over nodes {0, .., N} with leader node 0.

    Built from the dense ``weights`` (``weights[i, j]`` is the weight of the
    edge (j, i), i.e. of the link that lets node i read node j) or from
    edges; either way it keeps only its edges, as read-only (source,
    receiver, weight) arrays sorted by receiver, then source.  Weights are
    finite and positive on an edge, and there are no self-loops.
    """

    node_count: int
    _src: np.ndarray = field(repr=False)
    _dst: np.ndarray = field(repr=False)
    _w: np.ndarray = field(repr=False)

    def __init__(self, weights: np.ndarray):
        w = np.asarray(weights, dtype=float)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise DimensionError(f"weight matrix must be square, got shape {w.shape}")
        dst, src = np.divmod(np.flatnonzero(w), w.shape[0])  # row-major: by receiver, then source
        self._adopt(w.shape[0], src, dst, w[dst, src])

    @classmethod
    def _of_edges(cls, n: int, src: np.ndarray, dst: np.ndarray, w: np.ndarray):
        g = cls.__new__(cls)
        g._adopt(n, src, dst, w)
        return g

    def _adopt(self, n: int, src: np.ndarray, dst: np.ndarray, w: np.ndarray) -> None:
        if n < 1:
            raise DimensionError("graph needs at least the leader node")
        # a NaN fails every comparison, so each test is inverted to catch it
        if not np.isfinite(w).all():
            raise ValueError("edge weights must be finite")
        if not (w >= 0).all():
            raise ValueError("edge weights must be nonnegative")
        if (src == dst).any():
            raise ValueError("diagonal weights (self-loops) must be zero")
        _frozen(src, dst, w)
        for name, value in (("node_count", n), ("_src", src), ("_dst", dst), ("_w", w)):
            object.__setattr__(self, name, value)

    @property
    def n_followers(self) -> int:
        return self.node_count - 1

    @property
    def weights(self) -> np.ndarray:
        """The dense (N+1, N+1) weight matrix, rebuilt (read-only) on each call."""
        w = _dense(self.node_count, self._src, self._dst, self._w)
        w.setflags(write=False)
        return w

    @property
    def edges(self) -> list[tuple[int, int]]:
        """Present edges as (source, receiver) pairs, sorted."""
        return sorted(zip(self._src.tolist(), self._dst.tolist()))

    @classmethod
    def from_edges(
        cls,
        node_count: int,
        edges: Iterable[tuple[int, int]],
        weight: float = 1.0,
    ) -> "WeightedDigraph":
        """Build a digraph from (source, receiver) pairs with uniform weight."""
        pairs = []
        for j, i in edges:
            if not (0 <= i < node_count and 0 <= j < node_count):
                raise ValueError(f"edge ({j}, {i}) outside node range 0..{node_count - 1}")
            if i == j:
                raise ValueError(f"self-loop ({j}, {i}) not allowed")
            pairs.append((j, i))
        src, dst = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
        if weight == 0:  # a zero weight is no edge
            src = dst = src[:0]
        return cls._of_edges(node_count, *_merged(node_count, src, dst,
                                                  np.full(src.shape, float(weight))))


def _merged(n: int, src: np.ndarray, dst: np.ndarray, w: np.ndarray):
    """Edges sorted by receiver, then source; a repeated edge keeps its
    largest weight."""
    key = dst * n + src
    order = np.argsort(key, kind="stable")
    first = np.flatnonzero(np.diff(key[order], prepend=-1))
    w = np.maximum.reduceat(w[order], first) if first.size else w[order]
    return src[order][first], dst[order][first], w


# An adjacency mixes over its in-neighbour edge table when
# EDGE_TABLE_FACTOR * max(k_max, 8) <= N + 1, that is when N + 1 >= 256 and
# EDGE_TABLE_FACTOR * k_max <= N + 1, k_max being the largest off-diagonal
# in-degree of a follower row, and over the dense Omega otherwise.  The
# gather costs O(N k_max) per mixed column and the matmul O((N+1)^2), but the
# gather pays four numpy calls per table column, so it loses on small or
# dense graphs.  Measured with scripts/bench_observer_sweep.py (the
# "crossover" tables of BENCH_8.json and BENCH_12.json: 4 and 16 columns,
# one BLAS thread, 2-vCPU VM): from N+1 = 512 to 2048 the gather wins or
# ties at (N+1) / k_max = 32 (by 1.0-4.2x), and at 16 it loses or ties in 5
# of 6 cases.  Below 256 nodes, where Omega stays in cache, either form
# takes a few µs: the matmul wins from k_max = 2 up, and at k_max = 1 the
# records disagree (64 nodes, 4 columns: 5.4 against 7.8 µs in BENCH_8.json,
# 4.4 against 4.0 µs in BENCH_12.json).
EDGE_TABLE_FACTOR = 32


def _in_edge_table(adj: "NormalizedAdjacency") -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """The follower rows' off-diagonal in-edges of Omega as k_max columns.

    Column k pairs an (N,) array of source nodes with an (N, 1) array of the
    weights omega_ij, taken from the adjacency's edge arrays bit for bit; a
    row with fewer than k_max in-edges is padded with its own node and
    weight 0.
    """
    n = adj.node_count - 1
    first = int(np.searchsorted(adj._dst, 1))  # receiver-sorted: node 0's in-edges lead
    rows, cols = adj._dst[first:] - 1, adj._src[first:]
    degree = np.bincount(rows, minlength=n)
    k_max = int(degree.max(initial=0))
    # an edge's rank within its row is its offset from the row's first edge
    rank = np.arange(rows.shape[0]) - (np.cumsum(degree) - degree)[rows]
    src = np.tile(np.arange(1, n + 1), (k_max, 1))
    src[rank, rows] = cols
    weight = np.zeros((k_max, n, 1))
    weight[rank, rows, 0] = adj._w[first:]
    _frozen(src, weight)
    return tuple(zip(src, weight))


@dataclass(frozen=True, eq=False)
class NormalizedAdjacency:
    """Row-stochastic normalization of a weighted digraph, built only by
    ``normalize_adjacency``.

    Stored per edge: the off-diagonal entries omega_ij of the receiver-sorted
    edges, and the strictly positive diagonal, all read-only.  The dense
    (N+1, N+1) ``omega`` is built on first use and cached, and
    ``lambda_block`` is a view of it, so the two cannot disagree.  A sparse
    adjacency also keeps its in-neighbour edge table, which the observer's
    neighbour mix reads in place of Omega (see ``EDGE_TABLE_FACTOR``); it is
    None when the dense Omega is used.
    """

    node_count: int
    _src: np.ndarray = field(repr=False)
    _dst: np.ndarray = field(repr=False)
    _w: np.ndarray = field(repr=False)
    _diag: np.ndarray = field(repr=False)
    _edges: tuple[tuple[np.ndarray, np.ndarray], ...] | None = field(default=None, repr=False)

    @cached_property
    def omega(self) -> np.ndarray:
        """The dense read-only (N+1, N+1) Omega, built on first use."""
        om = _dense(self.node_count, self._src, self._dst, self._w)
        np.fill_diagonal(om, self._diag)
        om.setflags(write=False)
        return om

    @property
    def lambda_block(self) -> np.ndarray:
        """(N, N) follower sub-block: the read-only view ``omega[1:, 1:]``."""
        return self.omega[1:, 1:]


def normalize_adjacency(g: WeightedDigraph) -> NormalizedAdjacency:
    """Normalize a weighted digraph into its row-stochastic form.

    Row i is divided by 1 + (sum of the in-edge weights of node i, added in
    source order), and the freed mass is placed on the diagonal, so every
    row sums to 1 and the diagonal stays strictly positive.  The result
    keeps an in-neighbour edge table when ``EDGE_TABLE_FACTOR`` selects one.
    Raises ValueError when the in-edge weights of a node, each finite, sum
    past the float range.
    """
    n = g.node_count
    row = np.zeros(n)
    with np.errstate(over="ignore"):
        np.add.at(row, g._dst, g._w)  # in edge order, with no edge-length temporary
    if not np.isfinite(row).all():
        raise ValueError("the in-edge weights of a node must have a finite sum")
    scale = np.add(1.0, row, out=row)
    w = scale[g._dst]
    np.divide(g._w, w, out=w)
    diag = 1.0 / scale
    _frozen(w, diag)
    adj = NormalizedAdjacency(n, g._src, g._dst, w, diag)
    if EDGE_TABLE_FACTOR * 8 > n:  # no in-degree can select the table
        return adj
    # receiver-sorted, so a row's in-degree is the gap between its first edges
    k_max = int(np.diff(np.searchsorted(g._dst, np.arange(1, n + 1))).max(initial=0))
    if EDGE_TABLE_FACTOR * max(k_max, 8) <= n:
        adj = replace(adj, _edges=_in_edge_table(adj))
    return adj


def union_digraph(graphs: Sequence[WeightedDigraph]) -> WeightedDigraph:
    """Union of digraphs: an edge is present iff present in any input.

    The union weight is the maximum of the input weights; any positive
    convention would do since only reachability is read off the union.
    """
    if not graphs:
        raise ValueError("union of an empty graph list")
    n = graphs[0].node_count
    for g in graphs[1:]:
        if g.node_count != n:
            raise DimensionError(
                f"union over mismatched node counts: {n} vs {g.node_count}"
            )
    arrays = (np.concatenate([getattr(g, a) for g in graphs]) for a in ("_src", "_dst", "_w"))
    return WeightedDigraph._of_edges(n, *_merged(n, *arrays))


def leader_reachable(g: WeightedDigraph) -> np.ndarray:
    """Boolean mask of nodes reachable from node 0 by directed paths (BFS)."""
    order = np.argsort(g._src, kind="stable")
    succ = g._dst[order].tolist()
    # the successors of node j are succ[start[j]:start[j + 1]]
    start = np.searchsorted(g._src[order], np.arange(g.node_count + 1)).tolist()
    seen = [False] * g.node_count
    seen[0] = True
    queue = deque([0])
    while queue:
        j = queue.popleft()
        for i in succ[start[j]:start[j + 1]]:
            if not seen[i]:
                seen[i] = True
                queue.append(i)
    return np.array(seen)


@dataclass(frozen=True)
class ConnectivityResult:
    """Outcome of a joint-connectivity check.

    ``witness`` is the first (start time, unreachable node) pair when the
    check fails, None otherwise.  ``checked_up_to`` records the last time
    step the check read; every later window repeats one read before it.
    """

    connected: bool
    witness: tuple[int, int] | None
    checked_up_to: int

    def __bool__(self) -> bool:
        return self.connected


def _integer(x, what: str) -> int:
    """``x`` as an int; a value that ``int()`` would truncate is refused."""
    try:
        return operator.index(x)
    except TypeError:
        raise ValueError(f"{what} {x!r} is not an integer") from None


@dataclass(frozen=True, eq=False)
class SwitchingSignal:
    """Piecewise-constant map from time to a mode index in {1, .., n0}.

    Two descriptions are supported: a periodic schedule given by
    (mode, length) segments that repeat forever, or an explicit per-step
    table with a default tail mode after the table ends.  The dwell time is
    the minimum interval length of the description.

    A periodic signal caches the end offsets of its segments within one
    period (the last one is the period), so a lookup costs O(log segments)
    and the cache stays O(segments) however long a segment is.
    """

    segments: tuple[tuple[int, int], ...] | None = None
    table: tuple[int, ...] | None = None
    tail_mode: int | None = None
    _ends: tuple[int, ...] | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if (self.segments is None) == (self.table is None):
            raise ValueError("signal needs exactly one of segments / table")
        if self.segments is not None:
            segs = tuple((_integer(m, "mode index"), _integer(l, "segment length"))
                         for m, l in self.segments)
            if not segs:
                raise ValueError("periodic signal needs at least one segment")
            for m, l in segs:
                if m < 1:
                    raise ValueError(f"mode index {m} must be >= 1")
                if l < 1:
                    raise ValueError(f"segment length {l} must be >= 1")
            object.__setattr__(self, "segments", segs)
            object.__setattr__(self, "_ends", tuple(accumulate(l for _, l in segs)))
        else:
            tab = tuple(_integer(m, "mode index") for m in self.table)
            if self.tail_mode is None:
                raise ValueError("table signal needs a tail mode")
            tail = _integer(self.tail_mode, "tail mode")
            if any(m < 1 for m in tab) or tail < 1:
                raise ValueError("mode indices must be >= 1")
            object.__setattr__(self, "table", tab)
            object.__setattr__(self, "tail_mode", tail)

    @classmethod
    def periodic(cls, segments: Iterable[tuple[int, int]]) -> "SwitchingSignal":
        return cls(segments=tuple(segments))

    @classmethod
    def from_table(cls, modes: Iterable[int], tail_mode: int) -> "SwitchingSignal":
        return cls(table=tuple(modes), tail_mode=tail_mode)

    @property
    def is_periodic(self) -> bool:
        return self.segments is not None

    @property
    def period(self) -> int | None:
        if self.segments is None:
            return None
        return self._ends[-1]

    @property
    def dwell(self) -> int:
        """Minimum dwell time implied by the description."""
        if self.segments is not None:
            runs = [l for _, l in self.segments]
        else:
            runs = [l for _, l in _runs(self.table)] or [1]
        return min(runs)

    @property
    def max_mode(self) -> int:
        if self.segments is not None:
            return max(m for m, _ in self.segments)
        return max(max(self.table, default=1), self.tail_mode)

    def mode_at(self, t: int) -> int:
        """Active mode index (1-based) at time t >= 0."""
        if t < 0:
            raise ValueError("time index must be nonnegative")
        if self.segments is not None:
            return self.segments[bisect_right(self._ends, t % self._ends[-1])][0]
        if t < len(self.table):
            return self.table[t]
        return self.tail_mode

    def modes(self, t0: int, t1: int) -> np.ndarray:
        """Active mode indices at times t0, .., t1 - 1 as an int array."""
        if t0 < 0:
            raise ValueError("time index must be nonnegative")
        if t1 < t0:
            raise ValueError("t1 must be >= t0")
        if self.segments is not None:
            r = np.arange(t0, t1) % self._ends[-1]
            seg_modes = np.array([m for m, _ in self.segments], dtype=int)
            return seg_modes[np.searchsorted(self._ends, r, side="right")]
        out = np.full(t1 - t0, self.tail_mode, dtype=int)
        head = self.table[t0:t1]
        out[: len(head)] = head
        return out


def _runs(seq: Sequence[int]) -> list[tuple[int, int]]:
    out: list[tuple[int, int]] = []
    for m in seq:
        if out and out[-1][0] == m:
            out[-1] = (m, out[-1][1] + 1)
        else:
            out.append((m, 1))
    return out


@dataclass(frozen=True, eq=False)
class SwitchingTopology:
    """A finite family of weighted digraphs plus a switching signal."""

    graphs: tuple[WeightedDigraph, ...]
    signal: SwitchingSignal
    _normalized: tuple[NormalizedAdjacency, ...] = field(init=False, repr=False)

    def __post_init__(self):
        graphs = tuple(self.graphs)
        if not graphs:
            raise ValueError("topology needs at least one graph")
        n = graphs[0].node_count
        for g in graphs[1:]:
            if g.node_count != n:
                raise DimensionError("all graphs in a topology must share node_count")
        if self.signal.max_mode > len(graphs):
            raise ValueError(
                f"signal uses mode {self.signal.max_mode} but only "
                f"{len(graphs)} graphs are defined"
            )
        object.__setattr__(self, "graphs", graphs)
        object.__setattr__(
            self, "_normalized", tuple(normalize_adjacency(g) for g in graphs)
        )

    @property
    def node_count(self) -> int:
        return self.graphs[0].node_count

    @property
    def n_followers(self) -> int:
        return self.node_count - 1

    @property
    def n_modes(self) -> int:
        return len(self.graphs)

    def adjacency_at(self, t: int) -> NormalizedAdjacency:
        """Normalized adjacency of the active graph (precomputed per mode)."""
        return self._normalized[self.signal.mode_at(t) - 1]

    def adjacency_of_mode(self, mode: int) -> NormalizedAdjacency:
        return self._normalized[mode - 1]

    def per_step(self, t0: int, t1: int, of: Callable[[NormalizedAdjacency], T]) -> list[T]:
        """``of`` of the active adjacency at each time t0, .., t1 - 1, called
        once per mode that occurs, so that a step loop reads its operands
        without a lookup."""
        modes = self.signal.modes(t0, t1).tolist()
        operands = {m: of(self._normalized[m - 1]) for m in dict.fromkeys(modes)}
        return [operands[m] for m in modes]


def is_jointly_connected(topo: SwitchingTopology, window: int) -> ConnectivityResult:
    """Check that every follower is reachable from the leader in every
    sliding union window of the schedule.

    For each start time t in [0, horizon - window], the union digraph over
    modes active at t, .., t + window is built and reachability from node 0
    is decided by BFS.  A window's verdict depends only on its set of modes,
    so each distinct set is decided once.  The horizon is one period plus
    the window for a periodic signal, and the table's length plus the window
    for a table signal: every later window repeats one already checked (a
    table's tail repeats one window forever), so the verdict holds for all
    time.

    Returns a ConnectivityResult whose witness is the first failing
    (start time, node) pair.
    """
    if window < 0:
        raise ValueError("window must be >= 0")
    sig = topo.signal
    horizon = (sig.period if sig.is_periodic else len(sig.table)) + window
    schedule = sig.modes(0, horizon + 1).tolist()
    reached: dict[frozenset[int], np.ndarray] = {}
    for t in range(horizon - window + 1):
        modes = frozenset(schedule[t : t + window + 1])
        if modes not in reached:
            union = union_digraph([topo.graphs[m - 1] for m in modes])
            reached[modes] = leader_reachable(union)
        seen = reached[modes]
        if not seen[1:].all():
            bad = int(np.nonzero(~seen)[0][0])
            return ConnectivityResult(False, (t, bad), horizon)
    return ConnectivityResult(True, None, horizon)


def find_connectivity_window(topo: SwitchingTopology, t_max: int) -> int | None:
    """Smallest window T in [0, t_max] for which the topology verifies as
    jointly connected, or None if none does."""
    for window in range(t_max + 1):
        if is_jointly_connected(topo, window):
            return window
    return None


def consensus_step(adj: NormalizedAdjacency, x: np.ndarray) -> np.ndarray:
    """One synchronous averaging step x -> omega @ x over all N+1 nodes."""
    x = np.asarray(x, dtype=float)
    if x.shape[0] != adj.node_count:
        raise DimensionError(
            f"state has {x.shape[0]} entries for {adj.node_count} nodes"
        )
    return adj.omega @ x


def transition_product(topo: SwitchingTopology, t0: int, t: int) -> np.ndarray:
    """Product of active follower blocks Lambda(t-1) Lambda(t-2) .. Lambda(t0).

    Returns the (N, N) identity when t == t0.
    """
    if t < t0:
        raise ValueError("t must be >= t0")
    out = np.eye(topo.n_followers)
    for lam in topo.per_step(t0, t, lambda adj: adj.lambda_block):
        out = lam @ out
    return out
