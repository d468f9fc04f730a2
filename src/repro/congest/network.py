"""Static network topology for the CONGEST simulator.

A :class:`Network` is an immutable undirected graph with nodes ``0..n-1``.
Per the KT0 model of Awerbuch et al., every node additionally has an
arbitrary unique O(log n)-bit identifier (``uid``) which is initially known
only to itself; node programs must treat array indices as *ports* (a node
may talk to a neighbor without knowing the neighbor's uid until told).

Edge weights, when present, are positive integers in [1, poly(n)] as the
paper requires for MST / min-cut / SSSP instances.

Storage layout (the 100k-node regime): adjacency is kept in CSR form — one
flat ``array('i')`` of neighbors plus an offsets array — built by one
numpy sort of the directed edge keys.  Everything derived from it
(``edges``, ``neighbors``, ``neighbor_sets``, ``_edge_set``, the uid
tables) is materialized lazily on first use and then cached, so a network
that is only ever walked through the CSR arrays never pays for the Python
object forms.  The lazily produced views are bit-for-bit identical to the
eager ones (sorted neighbor order, lexicographically sorted ``edges``),
which is what keeps every ledger value unchanged.
"""

from __future__ import annotations

import random
from array import array
from functools import cached_property
from itertools import chain
from typing import Dict, Iterable, List, Optional, Tuple

from .message import message_bit_limit

Edge = Tuple[int, int]

#: Reusable empty adjacency tuple (isolated nodes share one object).
_EMPTY: Tuple[int, ...] = ()


def canonical_edge(u: int, v: int) -> Edge:
    """Return the canonical (min, max) form of an undirected edge."""
    return (u, v) if u <= v else (v, u)


class Network:
    """An undirected communication graph with metered CONGEST semantics.

    Parameters
    ----------
    edges:
        Iterable of (u, v) pairs over nodes ``0..n-1``, or an int array of
        such rows (shape ``(m, 2)``).  Self-loops and duplicate edges are
        rejected: the CONGEST model is defined on simple graphs.
    n:
        Number of nodes.  If omitted, inferred as ``max node + 1``.
    weights:
        Optional mapping from canonical edge to a positive integer weight.
    rng / uid_seed:
        Source of randomness for assigning the arbitrary unique node ids.
        By default uids are a seeded random permutation of
        ``[n, 2n)`` — distinct from indices, so code that confuses
        uids with indices fails loudly in tests.
    """

    def __init__(
        self,
        edges: Iterable[Edge],
        n: Optional[int] = None,
        weights: Optional[Dict[Edge, int]] = None,
        uid_seed: int = 0x5EED,
    ) -> None:
        import numpy as np

        if isinstance(edges, np.ndarray):
            ends = edges.astype(np.int64).reshape(-1)
        else:
            ends = np.frombuffer(
                array("q", chain.from_iterable(edges)), dtype=np.int64
            )
        if ends.size % 2:
            raise ValueError("an edge is a pair of node ids")
        lo = np.minimum(ends[0::2], ends[1::2])
        hi = np.maximum(ends[0::2], ends[1::2])
        loops = np.flatnonzero(lo == hi)
        if loops.size:
            raise ValueError(
                f"self-loop at node {int(lo[loops[0]])} is not allowed"
            )
        m = int(lo.size)
        if m and int(lo.min()) < 0:
            raise ValueError(f"negative node id {int(lo.min())} in edge list")
        max_node = int(hi.max()) if m else -1
        if n is None:
            n = max_node + 1
        if n <= 0:
            raise ValueError("network must have at least one node")
        if max_node >= n:
            raise ValueError(f"edge endpoint {max_node} >= n = {n}")

        self.n: int = n
        self.m: int = m
        self._uid_seed: int = uid_seed

        # CSR construction: one sort of the directed keys ``src * n + dst``
        # orders the slots by source and each node's neighbors ascending —
        # the "neighbors in ascending order" contract activation and send
        # order all over the codebase depend on — and puts a duplicate
        # edge's two slots side by side.
        keys = np.sort(np.concatenate((lo * n + hi, hi * n + lo)))
        dup = np.flatnonzero(keys[1:] == keys[:-1])
        if dup.size:
            v, w = divmod(int(keys[dup[0]]), n)
            raise ValueError(f"duplicate edge {canonical_edge(v, w)}")
        bounds = np.zeros(n + 1, dtype=np.intc)
        np.cumsum(np.bincount(lo, minlength=n) + np.bincount(hi, minlength=n),
                  out=bounds[1:])
        offsets, adj = array("i"), array("i")
        offsets.frombytes(bounds.tobytes())
        adj.frombytes((keys % n).astype(np.intc).tobytes())
        self._offsets: array = offsets
        self._adj: array = adj

        if weights is not None:
            normalized: Dict[Edge, int] = {}
            for (u, v), w in weights.items():
                e = canonical_edge(u, v)
                if not self.has_edge(*e):
                    raise ValueError(f"weight given for non-edge {e}")
                if not isinstance(w, int) or w < 1:
                    raise ValueError(
                        f"edge weight must be a positive integer, got {w!r}"
                    )
                normalized[e] = w
            if len(normalized) < m:
                missing = self._edge_set - normalized.keys()
                raise ValueError(
                    f"missing weights for edges: {sorted(missing)[:5]}"
                )
            self.weights: Optional[Dict[Edge, int]] = normalized
        else:
            self.weights = None

        self.message_bits: int = message_bit_limit(n)

    # ------------------------------------------------------------------
    # Lazily materialized views (identical to the former eager forms)
    # ------------------------------------------------------------------
    @cached_property
    def edges(self) -> Tuple[Edge, ...]:
        """All edges as canonical (min, max) tuples, lexicographically sorted."""
        adj = self._adj
        offsets = self._offsets
        out: List[Edge] = []
        append = out.append
        for u in range(self.n):
            for k in range(offsets[u], offsets[u + 1]):
                v = adj[k]
                if v > u:
                    append((u, v))
        return tuple(out)

    @cached_property
    def neighbors(self) -> Tuple[Tuple[int, ...], ...]:
        """Per-node neighbor tuples in ascending order."""
        adj = self._adj
        offsets = self._offsets
        return tuple(
            tuple(adj[offsets[v]:offsets[v + 1]]) if degree else _EMPTY
            for v, degree in enumerate(self.degrees())
        )

    @cached_property
    def neighbor_sets(self) -> Tuple[frozenset, ...]:
        """Per-node neighbor sets: O(1) membership in the send hot path."""
        adj = self._adj
        offsets = self._offsets
        return tuple(
            frozenset(adj[offsets[v]:offsets[v + 1]])
            for v in range(self.n)
        )

    @cached_property
    def _edge_set(self) -> frozenset:
        return frozenset(self.edges)

    @cached_property
    def array_views(self) -> "NetworkArrays":
        """Flat numpy views of the topology for the array-native engine.

        Derived once from the same CSR storage the scalar paths walk, so
        both engines see byte-identical structure.  See
        :class:`NetworkArrays` for the exact layout.
        """
        import numpy as np

        offsets = np.frombuffer(self._offsets, dtype=np.intc).astype(np.int64)
        adj = (
            np.frombuffer(self._adj, dtype=np.intc).astype(np.int64)
            if len(self._adj)
            else np.empty(0, dtype=np.int64)
        )
        degrees = np.diff(offsets)
        src_of_slot = np.repeat(np.arange(self.n, dtype=np.int64), degrees)
        # Directed-edge keys src * n + dst for every CSR slot.  Slots are
        # grouped by ascending src and each group lists dst ascending, so
        # the key array is already sorted — searchsorted gives O(log m)
        # membership without a hash table.
        edge_keys = src_of_slot * self.n + adj
        uid = np.array(self.uid, dtype=np.int64)
        return NetworkArrays(
            offsets=offsets,
            adj=adj,
            degrees=degrees,
            src_of_slot=src_of_slot,
            edge_keys=edge_keys,
            uid=uid,
        )

    @cached_property
    def slot_weights(self):
        """Edge weight of every CSR slot of :attr:`array_views` (int64).

        All ones when the network is unweighted, like :meth:`weight`.
        """
        import numpy as np

        views = self.array_views
        ends = zip(views.src_of_slot.tolist(), views.adj.tolist())
        return np.array([self.weight(u, v) for u, v in ends], dtype=np.int64)

    @cached_property
    def uid(self) -> Tuple[int, ...]:
        """KT0 unique ids: a seeded random permutation of [n, 2n)."""
        rng = random.Random(self._uid_seed)
        uids = list(range(self.n, 2 * self.n))
        rng.shuffle(uids)
        return tuple(uids)

    @cached_property
    def _uid_to_node(self) -> Dict[int, int]:
        return {u: i for i, u in enumerate(self.uid)}

    # ------------------------------------------------------------------
    # Topology queries
    # ------------------------------------------------------------------
    def adjacency_csr(self) -> Tuple[array, array]:
        """The raw CSR arrays ``(offsets, adjacency)``.

        ``adjacency[offsets[v]:offsets[v + 1]]`` lists v's neighbors in
        ascending order.  Exposed for array-friendly bulk consumers; the
        arrays are the network's own storage and must not be mutated.
        """
        return self._offsets, self._adj

    def has_edge(self, u: int, v: int) -> bool:
        """True iff (u, v) is an edge of the network (one hash lookup)."""
        return 0 <= u < self.n and v in self.neighbor_sets[u]

    def degree(self, v: int) -> int:
        """Degree of node ``v``."""
        if v < 0:
            v += self.n
        if not 0 <= v < self.n:
            raise IndexError(f"node {v} out of range")
        return self._offsets[v + 1] - self._offsets[v]

    def degrees(self) -> List[int]:
        """All node degrees (one O(n) pass over the offsets array)."""
        offsets = self._offsets
        return [offsets[v + 1] - offsets[v] for v in range(self.n)]

    def weight(self, u: int, v: int) -> int:
        """Weight of edge (u, v); 1 if the network is unweighted."""
        if self.weights is None:
            return 1
        return self.weights[canonical_edge(u, v)]

    def node_of_uid(self, uid: int) -> int:
        """Inverse of ``self.uid`` (orchestrator convenience, not node-local)."""
        return self._uid_to_node[uid]

    # ------------------------------------------------------------------
    # Global structure (orchestrator-side helpers; used for validation,
    # test oracles, and workload setup -- never inside node programs)
    # ------------------------------------------------------------------
    def is_connected(self) -> bool:
        """True iff the network is connected (DFS from node 0 over the CSR)."""
        if self.n == 1:
            return True
        adj = self._adj
        offsets = self._offsets
        seen = bytearray(self.n)
        seen[0] = 1
        stack = [0]
        count = 1
        while stack:
            u = stack.pop()
            for k in range(offsets[u], offsets[u + 1]):
                v = adj[k]
                if not seen[v]:
                    seen[v] = 1
                    count += 1
                    stack.append(v)
        return count == self.n

    def bfs_depths(self, root: int) -> List[int]:
        """Hop distances from ``root`` (-1 for unreachable nodes)."""
        adj = self._adj
        offsets = self._offsets
        depth = [-1] * self.n
        depth[root] = 0
        frontier = [root]
        while frontier:
            nxt = []
            append = nxt.append
            for u in frontier:
                du = depth[u] + 1
                for k in range(offsets[u], offsets[u + 1]):
                    v = adj[k]
                    if depth[v] < 0:
                        depth[v] = du
                        append(v)
            frontier = nxt
        return depth

    def eccentricity(self, root: int) -> int:
        """Maximum hop distance from ``root`` to any reachable node."""
        return max(self.bfs_depths(root))

    def diameter_estimate(self) -> int:
        """A 2-approximation of the hop diameter via double-BFS.

        This is the same estimate distributed algorithms themselves can
        compute in O(D) rounds, so using it for thresholds (e.g. the
        ``|P_i| < D`` test of Algorithm 1) is model-faithful.
        """
        ecc0 = self.eccentricity(0)
        depths = self.bfs_depths(0)
        far = max(range(self.n), key=lambda v: depths[v])
        return max(ecc0, self.eccentricity(far), 1)

    def exact_diameter(self) -> int:
        """Exact hop diameter (O(nm); test/benchmark oracle only)."""
        best = 0
        for v in range(self.n):
            ecc = self.eccentricity(v)
            if ecc > best:
                best = ecc
        return max(best, 1)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "weighted" if self.weights is not None else "unweighted"
        return f"Network(n={self.n}, m={self.m}, {kind})"


class NetworkArrays:
    """Numpy mirrors of a :class:`Network`'s CSR topology.

    ``adj[offsets[v]:offsets[v + 1]]`` lists v's neighbors ascending (the
    same slots as ``adjacency_csr``), ``src_of_slot[k]`` is the node whose
    slice slot ``k`` belongs to, and ``edge_keys`` packs each slot's
    directed edge as ``src * n + dst`` in globally ascending order (so
    ``np.searchsorted`` is an exact edge-membership test).  All arrays are
    int64 and must be treated as immutable.
    """

    __slots__ = ("offsets", "adj", "degrees", "src_of_slot", "edge_keys", "uid")

    def __init__(self, offsets, adj, degrees, src_of_slot, edge_keys, uid) -> None:
        self.offsets = offsets
        self.adj = adj
        self.degrees = degrees
        self.src_of_slot = src_of_slot
        self.edge_keys = edge_keys
        self.uid = uid
