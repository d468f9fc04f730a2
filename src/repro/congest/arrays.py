"""Array-native execution state for the CONGEST engine.

The scalar engine dispatches one Python object per message; at 50k+ nodes
the interpreter, not the algorithms, is the ceiling.  This module is the
flat-array replacement for that hot loop: a tick's entire traffic lives in
parallel int64 *columns* (``src``, ``dst``, plus kernel-defined payload
columns) instead of per-message tuples, and delivery, capacity audits, bit
audits and activation ordering are all whole-tick numpy passes over the
CSR views in :class:`~repro.congest.network.NetworkArrays`.

Parity contract (pinned by ``tests/congest/test_array_parity.py`` and the
fuzz harness's engine axis): for every program pair (scalar program, array
kernel) the phase ledger — name, rounds, messages, ticks — and all
program outputs are bit-for-bit identical.  The rules that make this hold:

* a kernel emits messages in exactly the order the scalar program would
  have called ``ctx.send``; the engine's delivery sort is *stable* by
  ``(dst, src)`` (and skipped for a batch that arrives in that order),
  which therefore reproduces the scalar inbox order (stably sender-sorted
  mailboxes) including the order of same-edge messages;
* per-directed-edge capacity is enforced on the sorted batch before the
  kernel sees any of it (the whole tick is materialized first, so a
  violation surfaces before any node of that tick runs);
* payload bits are charged at emit time from kernel-supplied bit columns
  (:func:`int_bits_array` matches :func:`~repro.congest.message.int_bits`
  exactly, including at int64 extremes), so ``strict_bits`` raises on the
  same message the scalar engine would have;
* quiescence, the timer wheel, idle fast-forward and the round-limit check
  replicate ``Engine._run_loop`` tick for tick.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import repeat
from operator import is_not
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..obs.tracer import current_tracer
from .errors import (
    BandwidthExceededError,
    ChannelCapacityError,
    NotAnEdgeError,
    RoundLimitExceededError,
)
from .ledger import PhaseStats

#: ``2**i`` for i < 64: a magnitude's ``bit_length`` is how many it reaches.
_POW2 = np.left_shift(np.uint64(1), np.arange(64, dtype=np.uint64))


def int_bits_array(values) -> np.ndarray:
    """Vectorized :func:`~repro.congest.message.int_bits`, exact on int64.

    ``bit_length`` is the float64 exponent (``np.frexp``), exact below
    2**53; an array reaching 2**53 is counted in integer arithmetic
    instead, as the number of powers of two at or below each magnitude.
    The magnitude is read as ``uint64``, where ``abs`` of the int64
    minimum is exactly 2**63.
    """
    v = np.asarray(values, dtype=np.int64)
    mag = np.abs(v).view(np.uint64)
    if mag.size and mag.max() >> 53:
        bits = np.searchsorted(_POW2, mag, side="right")
    else:
        bits = np.frexp(mag.astype(np.float64))[1]
    return np.maximum(bits, 1, dtype=np.int64) + (v < 0)


def tuple_bits(*component_bits) -> np.ndarray:
    """Bit cost of a tuple payload from its components' bit costs.

    Mirrors ``payload_bits``: one ``TUPLE_OVERHEAD_BITS`` per nesting
    level plus the sum of the items.  Scalars broadcast, so constant
    components (tags, ``None``) can be passed as plain ints.
    """
    from .message import TUPLE_OVERHEAD_BITS

    total = np.asarray(TUPLE_OVERHEAD_BITS, dtype=np.int64)
    for bits in component_bits:
        total = total + np.asarray(bits, dtype=np.int64)
    return total


class KernelDecline(Exception):
    """A payload list that no column layout holds: a kernel's constructor
    raises it and the phase does not run (``phase`` names it once
    :func:`~repro.core.treeops.build_phase` has seen it).  The wave value
    store and the cross round's ``merged`` choose on it instead: a factor
    they cannot fold on columns is merged in Python.

    ``reason`` is one of ``none_value`` (a ``None`` where the kernel needs
    a value), ``non_int`` (a component that is not an int or bool),
    ``overflow`` (a value outside int64, or a fold over magnitudes, a
    total or a packed key at or beyond 2**62), ``unsupported_agg`` (no
    ufunc computes the aggregation), ``mixed_shape`` (entries that do not
    share one tuple shape, tag and component types).
    """

    def __init__(self, reason: str, phase: Optional[str] = None) -> None:
        super().__init__(reason if phase is None else f"{phase}: {reason}")
        self.reason = reason
        self.phase = phase


def note_kernel_fallback(
    phase: str, reason: str, factor: Optional[str] = None
) -> None:
    """Record on the trace that the wave value store folds a list for
    ``phase``: the values (or, in a product, one ``factor``, named by its
    aggregation) that no column layout holds, and why.

    Called once per such solve and factor, so tracing costs one
    ``enabled`` check and nothing on any ledger.
    """
    tracer = current_tracer()
    if tracer.enabled:
        args = {"phase": phase, "reason": reason}
        if factor is not None:
            args["factor"] = factor
        tracer.instant("kernel_fallback", "engine.fallback", args)


#: Magnitudes a fold keeps below, so that sums, min/max sentinels and
#: packed lexicographic keys stay exact in int64.
COLUMN_LIMIT = 1 << 62


class PayloadColumns(Sequence):
    """A homogeneous list of payloads held as int64 columns.

    The layout every multi-column kernel shares.  Each entry is ``None``
    or has the one shape the list has: a bare int/bool (``bare``, one
    column), or a tuple of an optional constant ``tag`` string followed by
    ``k`` int/bool components, one column each.  ``present`` marks the
    non-``None`` entries (``None`` when every entry is present; the
    columns hold 0 where it is false).  As a :class:`Sequence` it reads
    back as the payload list it stands for, so a scalar program can
    consume what a kernel produced.
    """

    __slots__ = ("cols", "is_bool", "tag", "bare", "present", "size", "_list")

    def __init__(
        self,
        cols: Sequence[np.ndarray],
        is_bool: Optional[Sequence[bool]] = None,
        tag: Optional[str] = None,
        bare: bool = False,
        present: Optional[np.ndarray] = None,
        size: Optional[int] = None,
    ) -> None:
        self.cols = list(cols)
        self.is_bool = (
            tuple(is_bool) if is_bool is not None else (False,) * len(self.cols)
        )
        self.tag = tag
        self.bare = bare
        self.present = present
        #: Number of entries (given only for a tag-only layout, ``k == 0``).
        self.size = self.cols[0].size if self.cols else size
        self._list: Optional[list] = None

    @classmethod
    def pack(cls, payloads: Sequence[object]) -> "PayloadColumns":
        """Columns for ``payloads``, or :class:`KernelDecline`."""
        if isinstance(payloads, cls):
            return payloads
        size = len(payloads)
        kinds = set(map(type, payloads))
        some, present = payloads, None
        if type(None) in kinds:
            kinds.discard(type(None))
            some = [p for p in payloads if p is not None]
            present = np.fromiter(
                map(is_not, payloads, repeat(None)), dtype=bool, count=size
            )
        if not kinds:
            return cls(
                [np.zeros(size, dtype=np.int64)], bare=True, present=present
            )
        tag = None
        bare = kinds == {int} or kinds == {bool}
        if bare:
            columns = [some]
        elif kinds == {tuple}:
            if len(set(map(len, some))) != 1:
                raise KernelDecline("mixed_shape")
            columns = list(zip(*some))
            if columns and type(columns[0][0]) is str:
                tag = columns[0][0]
                if set(columns.pop(0)) != {tag}:
                    raise KernelDecline("mixed_shape")
        elif kinds <= {int, bool, tuple}:
            raise KernelDecline("mixed_shape")
        else:
            raise KernelDecline("non_int")
        cols, is_bool = [], []
        for column in columns:
            if not bare:
                kinds = set(map(type, column))
            if kinds != {int} and kinds != {bool}:
                if kinds == {int, bool}:
                    raise KernelDecline("mixed_shape")
                raise KernelDecline(
                    "none_value" if type(None) in kinds else "non_int"
                )
            try:
                cols.append(np.array(column, dtype=np.int64))
            except OverflowError:
                raise KernelDecline("overflow") from None
            is_bool.append(kinds == {bool})
        packed = cls(cols, is_bool, tag, bare, size=len(some))
        return packed if present is None else packed.scatter(size, present)

    def scatter(self, size: int, at: np.ndarray) -> "PayloadColumns":
        """``size`` entries: these at ``at`` (indices or a mask), else ``None``."""
        cols = []
        for col in self.cols:
            dense = np.zeros(size, dtype=np.int64)
            dense[at] = col
            cols.append(dense)
        present = np.zeros(size, dtype=bool)
        present[at] = True if self.present is None else self.present
        return PayloadColumns(
            cols, self.is_bool, self.tag, self.bare, present, size
        )

    def take(self, rows) -> "PayloadColumns":
        """The entries at ``rows`` (an index array or a slice), in that order."""
        cols = [col[rows] for col in self.cols]
        return PayloadColumns(
            cols, self.is_bool, self.tag, self.bare,
            None if self.present is None else self.present[rows],
            None if cols else np.arange(self.size)[rows].size,
        )

    def bits(self) -> np.ndarray:
        """Per-entry payload bits, exactly ``payload_bits`` of each entry."""
        from .message import TAG_BITS

        if self.bare:
            out = int_bits_array(self.cols[0])
        else:
            out = np.broadcast_to(
                tuple_bits(
                    0 if self.tag is None else TAG_BITS,
                    *(int_bits_array(col) for col in self.cols),
                ),
                (self.size,),
            )
        if self.present is not None:
            out = np.where(self.present, out, 1)
        return out

    def tolist(self) -> list:
        """The payload list, decoded once and kept."""
        if self._list is None:
            lists = [
                col.astype(bool).tolist() if flag else col.tolist()
                for col, flag in zip(self.cols, self.is_bool)
            ]
            if self.bare:
                out = lists[0]
            elif self.tag is None:
                out = list(zip(*lists)) if lists else [()] * self.size
            else:
                out = list(zip(repeat(self.tag, self.size), *lists))
            if self.present is not None:
                out = [
                    p if ok else None
                    for p, ok in zip(out, self.present.tolist())
                ]
            self._list = out
        return self._list

    def __len__(self) -> int:
        return self.size

    def __getitem__(self, index):
        return self.tolist()[index]

    def __iter__(self):
        return iter(self.tolist())


def tag_payloads(tag: str, values: Sequence[object]) -> Sequence[object]:
    """``[(tag, v) for v in values]``, kept as columns when ``values`` are."""
    if (
        isinstance(values, PayloadColumns)
        and values.bare
        and values.present is None
    ):
        return PayloadColumns(values.cols, values.is_bool, tag=tag)
    return [(tag, value) for value in values]


class ColumnArena:
    """Growable parallel int64 columns with an explicit live prefix.

    The array engine's analogue of the scalar engine's reusable mailbox
    arenas: buffers double on demand, ``clear`` resets the live count
    without releasing (or scrubbing) storage, and every read goes through
    a live-prefix view — so slots beyond the live count are *masked*:
    stale data from a previous phase can never leak into the next one.
    The masked-slot property tests poison the dead region and assert it
    stays invisible.
    """

    __slots__ = ("_cols", "_live", "_capacity")

    def __init__(self, names: Tuple[str, ...], capacity: int = 64) -> None:
        if not names:
            raise ValueError("a ColumnArena needs at least one column")
        capacity = max(1, capacity)
        self._cols: Dict[str, np.ndarray] = {
            name: np.empty(capacity, dtype=np.int64) for name in names
        }
        self._live = 0
        self._capacity = capacity

    def __len__(self) -> int:
        return self._live

    @property
    def names(self) -> Tuple[str, ...]:
        return tuple(self._cols)

    @property
    def capacity(self) -> int:
        return self._capacity

    def _grow_to(self, needed: int) -> None:
        # Geometric growth from the needed size: one allocation even when
        # a single append batch exceeds the capacity many times over.
        new_cap = max(self._capacity * 2, needed)
        for name, col in self._cols.items():
            grown = np.empty(new_cap, dtype=np.int64)
            grown[: self._live] = col[: self._live]
            self._cols[name] = grown
        self._capacity = new_cap

    def append(self, **values) -> None:
        """Append one batch of rows; scalar values broadcast.

        Every column must be provided.  At least one value must carry the
        batch length (all-scalar appends are a single row).
        """
        if set(values) != set(self._cols):
            raise ValueError(
                f"append must set exactly the columns {sorted(self._cols)}"
            )
        arrays = {k: np.asarray(v, dtype=np.int64) for k, v in values.items()}
        count = max((a.size for a in arrays.values() if a.ndim), default=1)
        if count == 0:
            return
        if self._live + count > self._capacity:
            self._grow_to(self._live + count)
        lo, hi = self._live, self._live + count
        for name, arr in arrays.items():
            self._cols[name][lo:hi] = arr
        self._live = hi

    def column(self, name: str) -> np.ndarray:
        """Live view of one column (no copy; valid until the next append)."""
        return self._cols[name][: self._live]

    def rows(self) -> Dict[str, np.ndarray]:
        """Live views of all columns."""
        return {name: col[: self._live] for name, col in self._cols.items()}

    def take(self) -> Dict[str, np.ndarray]:
        """Copy out the live rows and clear the arena."""
        out = {name: col[: self._live].copy() for name, col in self._cols.items()}
        self._live = 0
        return out

    def clear(self) -> None:
        """Reset the live count; buffers are retained for reuse."""
        self._live = 0


class Delivered:
    """One tick's delivered traffic, sorted stably by ``(dst, src)``.

    ``cols`` holds the kernel's payload columns in the same order.
    ``active`` is the sorted, deduplicated activation set for the tick —
    nodes with mail, explicitly woken nodes, and due timers — i.e. the
    exact node sequence the scalar engine would have dispatched.
    """

    __slots__ = ("src", "dst", "cols", "active")

    def __init__(
        self,
        src: np.ndarray,
        dst: np.ndarray,
        cols: Dict[str, np.ndarray],
        active: np.ndarray,
    ) -> None:
        self.src = src
        self.dst = dst
        self.cols = cols
        self.active = active

    def __len__(self) -> int:
        return self.src.size


_EMPTY_I64 = np.empty(0, dtype=np.int64)


def _as_column(values, shape) -> np.ndarray:
    """``values`` as an int64 column of ``shape`` (scalars fill it)."""
    if (
        type(values) is np.ndarray
        and values.dtype == np.int64
        and values.shape == shape
    ):
        return values
    values = np.asarray(values, dtype=np.int64)
    if values.ndim == 0:
        return np.full(shape, values, dtype=np.int64)
    return np.broadcast_to(values, shape)


class ArrayContext:
    """Per-phase API handed to :class:`~repro.congest.engine.ArrayProgram`.

    The array analogue of :class:`~repro.congest.engine.Context`: kernels
    ``emit`` whole batches for next-tick delivery and wake whole node
    arrays.  Audits run at the same point their scalar twins do — edge
    membership and bit budgets at emit time (first offender in emission
    order raises), per-edge capacity at delivery time.
    """

    __slots__ = (
        "network",
        "arrays",
        "n",
        "tick",
        "capacity",
        "rounds_per_tick",
        "strict",
        "bit_limit",
        "_src_parts",
        "_dst_parts",
        "_col_parts",
        "_sent",
        "_bits",
        "_wake_parts",
        "_timers",
    )

    def __init__(
        self,
        network,
        strict: bool,
        capacity: int,
        rounds_per_tick: int,
    ) -> None:
        self.network = network
        self.arrays = network.array_views
        self.n = network.n
        self.tick = 0
        self.capacity = capacity
        self.rounds_per_tick = rounds_per_tick
        #: Both audits (edge membership and bit budget), one flag: the
        #: engine's ``strict_bits`` and ``strict_edges`` are always equal.
        self.strict = strict
        self.bit_limit = network.message_bits
        self._src_parts: List[np.ndarray] = []
        self._dst_parts: List[np.ndarray] = []
        self._col_parts: List[Dict[str, np.ndarray]] = []
        self._sent = 0
        # Cumulative payload bits of all emissions this phase; maintained
        # only under ``strict`` (the audit materializes the per-row bit
        # column anyway), 0 when untracked — same rule as the scalar
        # contexts.
        self._bits = 0
        self._wake_parts: List[np.ndarray] = []
        self._timers: Dict[int, List[np.ndarray]] = {}

    # ------------------------------------------------------------------
    # Kernel-facing API
    # ------------------------------------------------------------------
    def emit(
        self,
        src,
        dst,
        cols: Optional[Dict[str, np.ndarray]] = None,
        bits: Optional[np.ndarray] = None,
    ) -> None:
        """Schedule a batch of messages for next-tick delivery.

        ``src``/``dst`` are parallel node arrays (scalars broadcast);
        ``cols`` are the payload columns, which must use one consistent
        schema across a phase.  Emission order is the wire order: it must
        match the scalar program's ``ctx.send`` order, and it is what the
        audits report against.  ``bits`` (per-message payload bit counts)
        is required when the engine runs with its audits on.
        """
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        if src.ndim == 0 and dst.ndim == 0:
            src = src.reshape(1)
            dst = dst.reshape(1)
        elif src.ndim == 0:
            src = np.full(dst.shape, src, dtype=np.int64)
        elif dst.ndim == 0:
            dst = np.full(src.shape, dst, dtype=np.int64)
        count = src.size
        if count == 0:
            return
        if self.strict:
            table = self.arrays.edge_keys
            if table.size == 0:
                raise NotAnEdgeError(int(src[0]), int(dst[0]))
            keys = src * self.n + dst
            pos = table.searchsorted(keys)
            np.minimum(pos, table.size - 1, out=pos)
            # One unsigned maximum range-checks src from both sides.
            if (
                not (table[pos] == keys).all()
                or int(src.view(np.uint64).max()) >= self.n
            ):
                ok = (src >= 0) & (src < self.n) & (table[pos] == keys)
                i = int(np.argmax(~ok))
                raise NotAnEdgeError(int(src[i]), int(dst[i]))
            if bits is None:
                raise ValueError(
                    "audited engines require per-message bit counts; "
                    "the kernel must pass bits= to emit()"
                )
            bits = _as_column(bits, src.shape)
            if bits.max() > self.bit_limit:
                i = int(np.argmax(bits > self.bit_limit))
                raise BandwidthExceededError(
                    int(src[i]), int(dst[i]), int(bits[i]), self.bit_limit
                )
            self._bits += int(bits.sum())
        self._src_parts.append(src)
        self._dst_parts.append(dst)
        self._col_parts.append(
            {}
            if cols is None
            else {k: _as_column(v, src.shape) for k, v in cols.items()}
        )
        self._sent += count

    def wake(self, nodes) -> None:
        """Activate ``nodes`` (an array or scalar) next tick."""
        arr = np.asarray(nodes, dtype=np.int64).reshape(-1)
        if arr.size:
            self._wake_parts.append(arr)

    def wake_at(self, nodes, tick: int) -> None:
        """Activate ``nodes`` at the absolute future tick ``tick``."""
        if tick <= self.tick:
            raise ValueError(
                f"wake_at requires a future tick (now {self.tick}, got {tick})"
            )
        arr = np.asarray(nodes, dtype=np.int64).reshape(-1)
        if arr.size:
            self._timers.setdefault(tick, []).append(arr)

    # ------------------------------------------------------------------
    # Engine-facing internals
    # ------------------------------------------------------------------
    def _drain(self) -> Tuple[np.ndarray, np.ndarray, Dict[str, np.ndarray]]:
        """Concatenate and clear the emission buffers (emission order)."""
        if not self._src_parts:
            return _EMPTY_I64, _EMPTY_I64, {}
        if len(self._src_parts) == 1:
            src = self._src_parts[0]
            dst = self._dst_parts[0]
            cols = dict(self._col_parts[0])
        else:
            src = np.concatenate(self._src_parts)
            dst = np.concatenate(self._dst_parts)
            names = self._col_parts[0].keys()
            for part in self._col_parts[1:]:
                if part.keys() != names:
                    raise ValueError(
                        "all emissions of a tick must share one column schema"
                    )
            cols = {
                name: np.concatenate([part[name] for part in self._col_parts])
                for name in names
            }
        self._src_parts = []
        self._dst_parts = []
        self._col_parts = []
        return src, dst, cols


def run_array_phase(
    engine,
    program,
    max_ticks: int,
    capacity: int,
    rounds_per_tick: int,
    phase_name: str,
    tracer,
    pulses,
) -> PhaseStats:
    """Execute an ``ArrayProgram`` to quiescence; the array twin of
    ``Engine._run_loop`` with identical accounting.  ``tracer`` is the
    recording tracer or None; ``pulses`` is the asynchronous engine's
    synchronizer (it sees every tick's record first, and the rows, wakes
    and timers its fault plan drops never reach the kernel) or None.
    """
    actx = ArrayContext(
        engine.network,
        engine.strict_bits,
        capacity,
        rounds_per_tick,
    )
    n = actx.n
    timers = actx._timers
    total_messages = 0
    ticks = 0
    bits_mark = 0

    program.array_start(actx)

    while actx._sent or actx._wake_parts or timers:
        if not actx._sent and not actx._wake_parts:
            # Only future timers remain: fast-forward the clock, charging
            # the skipped ticks as rounds exactly like the scalar loop.
            next_tick = min(timers)
            if tracer is not None and next_tick - 1 > ticks:
                tracer.instant(
                    "fast_forward",
                    "engine.ff",
                    {
                        "phase": phase_name,
                        "from_tick": ticks,
                        "to_tick": next_tick,
                        "skipped": next_tick - 1 - ticks,
                    },
                )
            ticks = next_tick - 1
        if ticks >= max_ticks:
            raise RoundLimitExceededError(phase_name, max_ticks)
        ticks += 1
        actx.tick = ticks

        src, dst, cols = actx._drain()
        in_flight = actx._sent
        actx._sent = 0
        wake_parts = actx._wake_parts
        actx._wake_parts = []
        if pulses is not None:
            wakes = np.concatenate(wake_parts) if wake_parts else _EMPTY_I64
            masked = pulses.tick(ticks, src, dst, wakes, timers)
            if masked is not None:
                keep, wakes, due = masked
                src, dst = src[keep], dst[keep]
                cols = {name: col[keep] for name, col in cols.items()}
                wake_parts = [wakes, due]
                timers.pop(ticks, None)
        due = timers.pop(ticks, None)
        if due is not None:
            wake_parts = wake_parts + due

        total_messages += in_flight

        if src.size:
            # Stable order by (dst, src): same-edge messages keep emission
            # order, reproducing the scalar engine's sender-sorted inbox.
            # Sorted only when the batch arrives out of order.
            key = dst * n + src
            if (key[1:] < key[:-1]).any():
                order = np.argsort(key, kind="stable")
                key = key[order]
                src = src[order]
                dst = dst[order]
                cols = {name: col[order] for name, col in cols.items()}
            if capacity < key.size:
                # Per-directed-edge load = run length of equal keys in the
                # sorted batch: a run longer than ``capacity`` has a row
                # equal to the one ``capacity`` places before it.
                over = key[capacity:] == key[:-capacity]
                if over.any():
                    i = int(np.argmax(over))
                    raise ChannelCapacityError(
                        int(src[i]), int(dst[i]), capacity + 1, capacity
                    )
            # dst is sorted, so dedup by run boundaries (cheaper than
            # np.unique's hash table on the full delivery batch).
            keep = np.empty(dst.size, dtype=bool)
            keep[0] = True
            np.not_equal(dst[1:], dst[:-1], out=keep[1:])
            touched = dst[keep]
        else:
            touched = _EMPTY_I64

        if wake_parts:
            active = np.concatenate([touched] + wake_parts)
            active.sort()
            if active.size > 1:
                keep = np.empty(active.size, dtype=bool)
                keep[0] = True
                np.not_equal(active[1:], active[:-1], out=keep[1:])
                active = active[keep]
        else:
            active = touched
        if tracer is not None:
            delivered_bits = actx._bits - bits_mark
            bits_mark = actx._bits
            tracer.counter(
                phase_name,
                {
                    "tick": ticks,
                    "messages": in_flight,
                    "bits": delivered_bits,
                    "activations": int(active.size),
                },
            )

        program.array_tick(actx, Delivered(src, dst, cols, active))

    return PhaseStats(
        name=phase_name,
        rounds=ticks * rounds_per_tick,
        messages=total_messages,
        ticks=ticks,
        bits=actx._bits,
    )
