"""Tree-restricted low-congestion shortcuts (Definitions 2.1-2.3).

A shortcut assigns to each part ``P_i`` a set of spanning-tree edges
``H_i ⊆ E[T]`` that the part may use for routing.  We represent the
assignment node-locally, as the distributed constructions produce it:

* ``up_parts[v]`` — the set of part ids whose ``H_i`` contains the tree
  edge (v, parent(v)).  Node ``v`` knows this for its own parent edge, and
  (because claims physically crossed the edge) the parent knows it for each
  child edge.  This is exactly the knowledge the PA wave needs to route
  block messages up and down.

Quality measures:

* **congestion** ``c`` — max over tree edges of how many parts use it
  (Definition 2.1, condition 1);
* **block parameter** ``b`` — max over parts of the number of *nontrivial*
  blocks: connected components of ``(P_i ∪ V(H_i), H_i)`` containing at
  least one edge (Definition 2.3).  Components that are isolated vertices
  are not counted: counting them would make ``b = Θ(|P_i|)`` for every
  shortcut and trivialize the measure, whereas the paper's own Figure 1
  example has ``b = 2`` for multi-node parts, and the role of ``b`` in the
  analysis (Lemma 4.4: "b iterations suffice", one new block activated per
  wave) concerns edge-bearing blocks only.

Block annotations (the block-root depth per (node, part), which the
BlockRoute scheduling of Lemma 4.2 prioritizes on, and one counting token
per block) are established by a distributed annotation phase in
:mod:`repro.core.blocks`.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, List, Sequence, Tuple

import numpy as np

from ..congest.errors import ShortcutValidationError
from ..graphs.partitions import Partition
from .trees import RootedForest


class Shortcut:
    """A ``T``-restricted shortcut: per-node sets of parts using the parent edge.

    ``up_parts[v]`` may be any iterable of part ids; the root's entry must
    be empty (the root has no parent edge).
    """

    def __init__(
        self,
        tree: RootedForest,
        partition: Partition,
        up_parts: Sequence[Iterable[int]],
    ) -> None:
        if len(tree.roots) != 1:
            raise ShortcutValidationError(
                "tree-restricted shortcuts require a single spanning tree"
            )
        if len(up_parts) != tree.net.n:
            raise ShortcutValidationError("up_parts must cover all nodes")
        self.tree = tree
        self.partition = partition
        self.up_parts: Tuple[FrozenSet[int], ...] = tuple(
            frozenset(parts) for parts in up_parts
        )
        root = tree.roots[0]
        if self.up_parts[root]:
            raise ShortcutValidationError("the tree root has no parent edge")
        for v, parts in enumerate(self.up_parts):
            if parts and tree.parent[v] < 0:
                raise ShortcutValidationError(
                    f"node {v} has shortcut parts but no parent edge"
                )
            for pid in parts:
                if not 0 <= pid < partition.num_parts:
                    raise ShortcutValidationError(f"unknown part id {pid}")

    # ------------------------------------------------------------------
    # Quality measures (orchestrator-side; the distributed counterpart is
    # Algorithm 2 run as PA, corefast.verify_block_parameters)
    #
    # ``up_parts`` is immutable after construction, so everything derived
    # from it is computed once and cached.  Every per-part measure comes
    # from one vectorized pass over the sorted up-edge keys
    # (:meth:`up_key_array`).
    # ------------------------------------------------------------------
    def congestion(self) -> int:
        """Max number of parts sharing one tree edge (>= 1 by convention)."""
        cached = self.__dict__.get("_congestion")
        if cached is None:
            cached = max((len(parts) for parts in self.up_parts), default=0) or 1
            self._congestion = cached
        return cached

    def block_parameters(self) -> List[int]:
        """Block parameter of every part.

        Computed for all parts in one vectorized pass: ``H_i`` is a
        subforest of ``T`` (edges are distinct parent edges), so its
        edge-bearing component count is ``#distinct endpoints - #edges``
        — every counted endpoint has an incident edge, and a forest with
        ``V`` vertices and ``E`` edges has ``V - E`` components.
        """
        cached = self.__dict__.get("_block_parameters")
        if cached is None:
            num_parts = self.partition.num_parts
            up_keys = self.up_key_array()
            if not up_keys.size:
                cached = [1] * num_parts
            else:
                P = max(1, num_parts)
                child = up_keys // P
                pid_arr = up_keys % P
                par = np.asarray(self.tree.parent, dtype=np.int64)[child]
                stride = self.tree.net.n + 1
                endpoints = np.unique(
                    np.concatenate(
                        [pid_arr * stride + child, pid_arr * stride + par]
                    )
                )
                vertex_counts = np.bincount(
                    endpoints // stride, minlength=num_parts
                )
                edge_counts = np.bincount(pid_arr, minlength=num_parts)
                cached = np.maximum(
                    1, vertex_counts - edge_counts
                ).tolist()
            self._block_parameters = cached
        return list(cached)

    def max_block_parameter(self) -> int:
        """The shortcut's block parameter ``b`` (max over parts)."""
        return max(self.block_parameters())

    def quality(self) -> Tuple[int, int]:
        """(block parameter b, congestion c) of this shortcut (cached)."""
        cached = self.__dict__.get("_quality")
        if cached is None:
            cached = self._quality = (
                self.max_block_parameter(), self.congestion()
            )
        return cached

    # ------------------------------------------------------------------
    def down_csr(self) -> Tuple["np.ndarray", ...]:
        """Cached down-edge CSR for the array kernels.

        Returns ``(keys, starts, counts, children)``: unique sorted keys
        ``parent * P + pid`` (``P = num_parts``), and for each key the
        ascending child nodes whose parent edge belongs to ``H_pid`` —
        the "which child edges belong to H_i" knowledge a node needs to
        forward block messages downward (learned when the claims crossed
        the edge), shared by every array kernel built on this (immutable)
        shortcut.
        """
        cached = self.__dict__.get("_down_csr")
        if cached is None:
            P = max(1, self.partition.num_parts)
            up_keys = self.up_key_array()
            children = up_keys // P
            keys = (
                np.asarray(self.tree.parent, dtype=np.int64)[children] * P
                + up_keys % P
            )
            if keys.size:
                order = np.lexsort((children, keys))
                skeys = keys[order]
                schildren = children[order]
                ukeys, starts = np.unique(skeys, return_index=True)
                counts = np.diff(np.append(starts, skeys.size))
            else:
                ukeys = starts = counts = schildren = keys
            cached = self._down_csr = (ukeys, starts, counts, schildren)
        return cached

    def up_key_array(self) -> "np.ndarray":
        """Cached sorted int64 keys ``v * P + pid`` over all up-edges."""
        cached = self.__dict__.get("_up_key_array")
        if cached is None:
            P = max(1, self.partition.num_parts)
            key_list: List[int] = []
            for v, parts in enumerate(self.up_parts):
                if parts:
                    base = v * P
                    key_list.extend(base + pid for pid in parts)
            cached = self._up_key_array = np.sort(
                np.asarray(key_list, dtype=np.int64)
            )
        return cached

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        b, c = self.quality()
        return f"Shortcut(parts={self.partition.num_parts}, b={b}, c={c})"


def relabel_shortcut(
    tree: RootedForest,
    shortcut: Shortcut,
    new_partition: Partition,
    image: Sequence[Sequence[int]],
) -> Shortcut:
    """Project a shortcut onto a coarsening or refinement of its partition,
    on ``tree`` (its own, or its parent array on an updated network).

    ``image[old_pid]`` lists the new parts old part ``old_pid``'s members
    land in: one shared id when parts merged, the fragment ids when a part
    split.  Every new part inherits the whole edge set of each old part it
    draws members from — ``H'_j = union of H_i over old i with j in
    image[i]`` — which node-locally is a relabeling of each ``up_parts``
    entry, as in the distributed counterpart: a node substitutes the new
    ids on its parent edge when its part learns them, at no extra
    communication (the merge / split broadcast carries the ids anyway).

    Under merges congestion can only shrink (relabeled sets dedupe) while
    a merged part's block parameter can grow up to the sum of its
    constituents'; under splits a tree edge carried by a part that broke
    into ``f`` fragments is carried by all ``f`` (congestion multiplies)
    and a fragment keeps blocks its members never touch.  The runtime
    session therefore holds the block count to a budget (verified with PA
    itself, Algorithm 2, unless the previous counts imply it) and
    re-checks congestion, building afresh when either is over.
    """
    # One relabeled set per distinct value, shared by the nodes that hold
    # it: a carried setup allocates per distinct edge load, not per node.
    relabeled = {
        parts: frozenset(new for pid in parts for new in image[pid])
        for parts in set(shortcut.up_parts)
    }
    return Shortcut(
        tree, new_partition, [relabeled[parts] for parts in shortcut.up_parts]
    )

