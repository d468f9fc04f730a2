"""Broadcast, convergecast and claiming BFS programs."""

import ast
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

import repro

from repro.congest import CostLedger, Engine
from repro.core import (
    ABSENT,
    MAX,
    MAX_TUPLE,
    MIN,
    MIN_TUPLE,
    ROOT,
    RootedForest,
    SUM,
    claim_bfs,
)
from repro.core.array_kernels import (
    BroadcastArrayKernel,
    ClaimBfsArrayKernel,
    ConvergecastArrayKernel,
    CrossRoundArrayKernel,
    FloodMinArrayKernel,
)
from repro.core.treeops import (
    ClaimBfsProgram,
    FloodMinProgram,
    cross_round,
    flood_min,
    run_broadcast,
    run_convergecast,
)
from repro.graphs import (
    grid_2d,
    path_graph,
    random_connected,
    random_regular,
)
from oracles import TwinEngine, complete_graph, restrict_roots, root_of, star_graph


def line_forest(net):
    return RootedForest(net, [ROOT] + list(range(net.n - 1)))


def test_broadcast_reaches_everyone(path10, ledger):
    engine = Engine(path10)
    forest = line_forest(path10)
    received = run_broadcast(engine, forest, {0: "hello"}, ledger).received
    assert all(received[v] == "hello" for v in range(10))
    stats = ledger.phases()[0]
    assert stats.rounds == forest.height()
    assert stats.messages == 9


def test_broadcast_multiple_trees(path10, ledger):
    engine = Engine(path10)
    parent = [ROOT, 0, 1, ROOT, 3, 4, ROOT, 6, 7, 8]
    forest = RootedForest(path10, parent)
    received = run_broadcast(
        engine, forest, {0: "a", 3: "b", 6: "c"}, ledger
    ).received
    assert received[2] == "a" and received[5] == "b" and received[9] == "c"


def test_convergecast_sum(path10, ledger):
    engine = Engine(path10)
    forest = line_forest(path10)
    program = run_convergecast(engine, forest, SUM, [1] * 10, ledger)
    assert program.at_root[0] == 10
    assert program.partial[5] == 5  # subtree 5..9
    stats = ledger.phases()[0]
    assert stats.messages == 9


def test_convergecast_skips_none(path10, ledger):
    engine = Engine(path10)
    forest = line_forest(path10)
    values = [None] * 10
    values[7] = 42
    at_root = run_convergecast(engine, forest, MIN, values, ledger).at_root
    assert at_root[0] == 42


def test_convergecast_star(ledger):
    net = star_graph(8)
    engine = Engine(net)
    forest = RootedForest(net, [ROOT] + [0] * 7)
    at_root = run_convergecast(
        engine, forest, SUM, list(range(8)), ledger
    ).at_root
    assert at_root[0] == sum(range(8))
    assert ledger.phases()[0].rounds <= 2


def test_claim_bfs_builds_spanning_tree(grid4x6, ledger):
    engine = Engine(grid4x6)
    program = claim_bfs(engine, grid4x6, {0: grid4x6.uid[0]}, ledger)
    forest = program.forest()
    assert len(forest.order) == grid4x6.n
    assert forest.height() == grid4x6.bfs_depths(0)[23] or forest.height() >= 1
    # BFS depths are exact hop distances.
    depths = grid4x6.bfs_depths(0)
    for v in range(grid4x6.n):
        assert program.depth_of[v] == depths[v]


def test_claim_bfs_competition_prefers_smaller_token(path10, ledger):
    engine = Engine(path10)
    program = claim_bfs(
        engine, path10, {0: 5, 9: 1}, ledger
    )
    # Token 1 (from node 9) wins ties at equal distance; the middle nodes
    # split by arrival time.
    assert program.token_of[9] == 1
    assert program.token_of[0] == 5
    assert program.token_of[4] == 5  # distance 4 from node 0, 5 from node 9
    assert program.token_of[5] == 1


def test_claim_bfs_max_depth(path10, ledger):
    engine = Engine(path10)
    program = claim_bfs(
        engine, path10, {0: 0}, ledger, max_depth=3
    )
    assert program.token_of[3] == 0
    assert program.token_of[4] is None


def test_claim_bfs_restricted(path10, ledger):
    engine = Engine(path10)
    program = claim_bfs(
        engine, path10, {0: 0}, ledger,
        edge_mask=path10.array_views.adj != 5,
    )
    assert program.token_of[4] == 0
    assert program.token_of[5] is None


def test_flood_min_agrees_on_minimum(grid4x6):
    engine = Engine(grid4x6)
    flood = FloodMinProgram(
        grid4x6, {v: grid4x6.uid[v] for v in range(grid4x6.n)}
    )
    engine.run(flood, max_ticks=grid4x6.n + 2)
    target = min(grid4x6.uid)
    assert all(flood.best[v] == target for v in range(grid4x6.n))


# ----------------------------------------------------------------------
# Kernel twins of broadcast / convergecast / cross round: same outputs in
# the same order, same ledger, on random forests and payloads
# ----------------------------------------------------------------------
_SMALL = st.integers(-1000, 1000)


@st.composite
def _forests(draw):
    """A random forest over a complete graph (every parent is an edge)."""
    n = draw(st.integers(5, 12))  # >= 48 bits a message: three ints fit
    net = complete_graph(n, uid_seed=draw(st.integers(0, 5)))
    label = draw(st.permutations(range(n)))
    parent = [ABSENT] * n
    for rank, v in enumerate(label):
        kind = draw(st.sampled_from(["root", "child", "child", "absent"]))
        earlier = [u for u in label[:rank] if parent[u] != ABSENT]
        if kind == "child" and earlier:
            parent[v] = draw(st.sampled_from(earlier))
        elif kind != "absent" or rank == 0:
            parent[v] = ROOT
    return net, RootedForest(net, parent)


def _payloads(draw, count):
    """``count`` payloads of one drawn shape, some of them ``None``."""
    width = draw(st.integers(0, 3))
    if width == 0:
        value = _SMALL
    else:
        value = st.tuples(*[_SMALL] * width)
    return draw(st.lists(st.none() | value, min_size=count, max_size=count))


def _both_engines(net, run):
    """``run`` on a scalar and an array engine: [(outputs, phase log)]."""
    out = []
    for engine in (TwinEngine(net), Engine(net)):
        ledger = CostLedger()
        outputs = run(engine, ledger)
        log = [
            (p.name, p.rounds, p.messages, p.ticks, p.bits)
            for p in ledger.phases()
        ]
        out.append((outputs, log))
    return out


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_convergecast_kernel_matches_the_scalar_program_and_fold(data):
    net, forest = data.draw(_forests())
    values = _payloads(data.draw, net.n)
    bare = all(type(v) is int for v in values if v is not None)
    agg = data.draw(st.sampled_from(
        [MIN, MAX, MIN_TUPLE, MAX_TUPLE] + ([SUM] if bare else [])
    ))

    def run(engine, ledger):
        program = run_convergecast(engine, forest, agg, values, ledger)
        assert isinstance(program, ConvergecastArrayKernel) == engine.runs_kernels
        return list(program.at_root.items()), list(program.partial.items())

    (scalar, scalar_log), (array, array_log) = _both_engines(net, run)
    assert array == scalar
    assert array_log == scalar_log
    trees = restrict_roots(forest)
    assert dict(array[0]) == {
        root: agg.fold(values[v] for v in members)
        for root, members in trees.items()
    }


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_broadcast_kernel_matches_the_scalar_program(data):
    net, forest = data.draw(_forests())
    roots = data.draw(st.lists(
        st.sampled_from(forest.roots), unique=True, max_size=len(forest.roots)
    ))
    tagged = data.draw(st.booleans())
    root_values = dict(zip(roots, _payloads(data.draw, len(roots))))
    if tagged:  # ("v", components..., a bool), as Algorithm 6's ("cpl", flag)
        root_values = {
            root: None if value is None else (
                ("v",) + (value if type(value) is tuple else (value,))
                + (root % 2 == 0,)
            )
            for root, value in root_values.items()
        }
    asked = data.draw(st.lists(st.integers(0, net.n - 1), max_size=6))

    def run(engine, ledger):
        program = run_broadcast(engine, forest, root_values, ledger)
        assert isinstance(program, BroadcastArrayKernel) == engine.runs_kernels
        return list(program.received.items()), list(program.received_at(asked))

    (scalar, scalar_log), (array, array_log) = _both_engines(net, run)
    assert array == scalar
    assert array_log == scalar_log
    assert dict(array[0]) == {
        v: root_values[root_of(forest, v)]
        for v in forest.members() if root_of(forest, v) in root_values
    }


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_cross_round_kernel_matches_the_scalar_program(data):
    n = data.draw(st.integers(5, 9))
    net = complete_graph(n)
    edges = data.draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
            lambda e: e[0] != e[1]
        ),
        unique=True, max_size=20,
    ))
    values = data.draw(
        st.lists(_SMALL, min_size=len(edges), max_size=len(edges))
    )
    shape = data.draw(st.sampled_from(["tagged", "tag-only", "bare", "pair"]))
    wrap = {
        "tagged": lambda x: ("up", x), "tag-only": lambda x: ("mark",),
        "bare": lambda x: x, "pair": lambda x: (x, x < 0),
    }[shape]
    sends = [(u, v, wrap(value)) for (u, v), value in zip(edges, values)]
    agg = data.draw(st.sampled_from([SUM, MIN, MAX]))

    def run(engine, ledger):
        program = cross_round(engine, sends, ledger, name="x")
        assert isinstance(program, CrossRoundArrayKernel) == engine.runs_kernels
        src, dst, payloads = program.delivered
        rows = list(zip(src.tolist(), dst.tolist(), payloads))
        merged = list(program.merged(agg, n)) if shape == "tagged" else None
        return (
            [(v, list(inbox)) for v, inbox in program.received.items()],
            rows, merged,
        )

    (scalar, scalar_log), (array, array_log) = _both_engines(net, run)
    assert array == scalar
    assert array_log == scalar_log
    received, rows, merged = array
    assert rows == [(u, v, p) for v, inbox in received for u, p in inbox]
    if shape == "tagged":
        assert merged == [
            agg.fold(value for (u, w), value in zip(edges, values) if w == v)
            for v in range(n)
        ]


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_masked_claim_bfs_kernel_matches_the_scalar_program(data):
    n = data.draw(st.integers(5, 12))
    net = complete_graph(n, uid_seed=data.draw(st.integers(0, 5)))
    arrays = net.array_views
    # A random symmetric restriction, or a lopsided one: a mask is per
    # directed slot, so u -> v may be allowed where v -> u is not.
    edge_mask = np.array(
        data.draw(st.lists(
            st.booleans(), min_size=arrays.adj.size, max_size=arrays.adj.size
        )),
        dtype=bool,
    )
    if data.draw(st.booleans()):
        edge_mask &= edge_mask[np.searchsorted(
            arrays.edge_keys, arrays.adj * n + arrays.src_of_slot
        )]
    sources = data.draw(st.lists(
        st.integers(0, n - 1), unique=True, min_size=1, max_size=4
    ))
    tokens = {v: net.uid[v] for v in sources}
    max_depth = data.draw(st.none() | st.integers(1, 4))

    def run(engine, ledger):
        program = claim_bfs(
            engine, net, tokens, ledger, edge_mask=edge_mask,
            max_depth=max_depth, name="masked",
        )
        assert isinstance(program, ClaimBfsArrayKernel) == engine.runs_kernels
        return (
            list(program.token_of), list(program.parent_of),
            list(program.depth_of),
        )

    (scalar, scalar_log), (array, array_log) = _both_engines(net, run)
    assert array == scalar
    assert array_log == scalar_log
    token_of, parent_of, depth_of = array
    slot_of = dict(zip(arrays.edge_keys.tolist(), range(arrays.adj.size)))
    for v in range(n):
        if parent_of[v] >= 0:  # claimed over an allowed edge, one hop deeper
            assert edge_mask[slot_of[parent_of[v] * n + v]]
            assert depth_of[v] == depth_of[parent_of[v]] + 1
            assert token_of[v] == token_of[parent_of[v]]


# ----------------------------------------------------------------------
# The token floods tell a token only to neighbors that might not hold it.
# The rules they ran before are kept here as the oracle: flood-min
# re-announcing to every neighbor, claim BFS sparing only the chosen
# parent.  Every send the new rule skips reached a node that ignores it,
# so the outputs are the oracle's, at no more messages, and in the same
# rounds or one fewer (when the last layer's echoes vanish).
# ----------------------------------------------------------------------
class _EveryNeighborFloodMin(FloodMinProgram):
    """Flood-min re-announcing to every neighbor."""

    def on_node(self, ctx, node, inbox):
        improved = False
        for sender, token in inbox:
            if self.best[node] is None or token < self.best[node]:
                self.best[node] = token
                self.parent_of[node] = sender
                improved = True
        if improved:
            self._announce(ctx, node)


class _SpareTheParentClaimBfs(ClaimBfsProgram):
    """Claim BFS spreading to every allowed neighbor but the parent."""

    def on_node(self, ctx, node, inbox):
        best = None
        for sender, payload in inbox:
            if payload[0] == "claim":
                candidate = (payload[1], payload[2], sender)
                if best is None or candidate < best:
                    best = candidate
        if best is None or self.token_of[node] is not None:
            return
        token, depth, sender = best
        self.token_of[node] = token
        self.parent_of[node] = sender
        self.depth_of[node] = depth
        ctx.send(node, sender, ("child", token))
        self._spread(ctx, node, depth, (sender,))


@st.composite
def _connected(draw):
    """A random connected graph: a spanning tree plus random chords."""
    return random_connected(
        draw(st.integers(2, 40)), draw(st.sampled_from([0.0, 0.08, 0.3])),
        seed=draw(st.integers(0, 10**6)), uid_seed=draw(st.integers(0, 50)),
    )


def _oracle(net, program, max_ticks):
    """The oracle program run on a scalar engine, and its one phase."""
    ledger = CostLedger()
    ledger.charge(Engine(net).run(program, max_ticks=max_ticks))
    return program, ledger.phases()[0]


def _twins(net, run):
    """``run`` on both engines, strict bits on: (outputs, phase) of one;
    the two agree in outputs and in every ledger field, bits included."""
    out = []
    for engine in (TwinEngine(net, strict_bits=True), Engine(net, strict_bits=True)):
        ledger = CostLedger()
        outputs = run(engine, ledger)
        (phase,) = ledger.phases()
        out.append((outputs, phase))
    (scalar, s_phase), (array, a_phase) = out
    assert array == scalar
    assert (a_phase.rounds, a_phase.messages, a_phase.ticks, a_phase.bits) == (
        s_phase.rounds, s_phase.messages, s_phase.ticks, s_phase.bits
    )
    return scalar, s_phase


def _no_worse(phase, oracle):
    assert phase.messages <= oracle.messages
    assert oracle.rounds - 1 <= phase.rounds <= oracle.rounds


@settings(max_examples=100, deadline=None)
@given(_connected(), st.data())
def test_flood_min_skips_who_told_it_and_keeps_the_oracles_outputs(net, data):
    # Some nodes start with a token, ties included; the rest only relay.
    holders = data.draw(st.lists(
        st.integers(0, net.n - 1), unique=True, min_size=1, max_size=net.n
    ))
    tokens = {v: data.draw(st.integers(0, 9)) for v in holders}

    def run(engine, ledger):
        flood = flood_min(engine, net, tokens, ledger)
        assert isinstance(flood, FloodMinArrayKernel) == engine.runs_kernels
        return list(flood.best), list(flood.parent_of)

    outputs, phase = _twins(net, run)
    oracle, oracle_phase = _oracle(
        net, _EveryNeighborFloodMin(net, tokens), net.n + 2
    )
    assert outputs == (oracle.best, oracle.parent_of)
    assert set(outputs[0]) == {min(tokens.values())}
    _no_worse(phase, oracle_phase)


@settings(max_examples=100, deadline=None)
@given(_connected(), st.data())
def test_claim_bfs_skips_its_claimants_and_keeps_the_oracles_outputs(
    net, data
):
    arrays = net.array_views
    sources = data.draw(st.lists(
        st.integers(0, net.n - 1), unique=True, min_size=1, max_size=5
    ))
    tokens = {v: net.uid[v] for v in sources}
    edge_mask = None
    if data.draw(st.booleans()):  # per directed slot, so possibly lopsided
        edge_mask = np.array(data.draw(st.lists(
            st.booleans(), min_size=arrays.adj.size, max_size=arrays.adj.size
        )), dtype=bool)
    max_depth = data.draw(st.none() | st.integers(1, 5))

    def outputs(program):
        return (
            list(program.token_of), list(program.parent_of),
            list(program.depth_of),
        )

    def run(engine, ledger):
        program = claim_bfs(
            engine, net, tokens, ledger, edge_mask=edge_mask,
            max_depth=max_depth,
        )
        assert isinstance(program, ClaimBfsArrayKernel) == engine.runs_kernels
        return outputs(program)

    got, phase = _twins(net, run)
    oracle, oracle_phase = _oracle(
        net, _SpareTheParentClaimBfs(net, tokens, edge_mask, max_depth),
        (max_depth or net.n) + 3,
    )
    assert got == outputs(oracle)
    _no_worse(phase, oracle_phase)


class _Sends:
    """A scalar context that notes every send before passing it on."""

    def __init__(self, ctx):
        self.ctx = ctx
        self.sent = []

    def send(self, src, dst, payload):
        self.sent.append((dst, payload))
        self.ctx.send(src, dst, payload)


class _Emits:
    """An array context that notes every emitted row before passing it on."""

    def __init__(self, actx):
        self.actx = actx
        self.rows = []

    def __getattr__(self, name):
        return getattr(self.actx, name)

    def emit(self, src, dst, cols, bits=None):
        kind = np.broadcast_to(cols.get("kind", 0), src.shape)
        self.rows += zip(
            src.tolist(), dst.tolist(), kind.tolist(), cols["tok"].tolist()
        )
        self.actx.emit(src, dst, cols=cols, bits=bits)


def _token(payload):
    """What a payload hands over: a flood token, or a (tag, token) pair."""
    return payload[:2] if isinstance(payload, tuple) else payload


def _echo_counting(program_class):
    """``program_class`` counting the sends that hand a token back, in the
    same tick, to a neighbor that delivered that token."""

    if issubclass(program_class, (FloodMinArrayKernel, ClaimBfsArrayKernel)):
        class Spied(program_class):
            echoes = 0

            def array_tick(self, actx, d):
                emits = _Emits(actx)
                super().array_tick(emits, d)
                kind = d.cols.get("kind", np.zeros(len(d), dtype=np.int64))
                heard = set(zip(
                    d.dst.tolist(), d.src.tolist(), kind.tolist(),
                    d.cols["tok"].tolist(),
                ))
                self.echoes += sum(row in heard for row in emits.rows)
    else:
        class Spied(program_class):
            echoes = 0

            def on_node(self, ctx, node, inbox):
                sends = _Sends(ctx)
                super().on_node(sends, node, inbox)
                heard = {(sender, _token(p)) for sender, p in inbox}
                self.echoes += sum(
                    (dst, _token(p)) in heard for dst, p in sends.sent
                )
    return Spied


def test_no_node_hands_a_token_back_to_who_just_delivered_it():
    """A spy on every send of both twins: no node sends a token to a
    neighbor whose message carried that token to it in the same tick —
    while the oracle rules, on the same graphs, do."""
    for net in (grid_2d(9, 11), random_regular(60, 4, seed=5)):
        tokens = dict(enumerate(net.uid))
        claims = {v: net.uid[v] for v in (0, net.n // 2, net.n - 1)}
        for cls, args, echoes in [
            (FloodMinProgram, (net, tokens), False),
            (FloodMinArrayKernel, (net, tokens), False),
            (ClaimBfsProgram, (net, claims), False),
            (ClaimBfsArrayKernel, (net, claims), False),
            (_EveryNeighborFloodMin, (net, tokens), True),
            (_SpareTheParentClaimBfs, (net, claims), True),
        ]:
            program = _echo_counting(cls)(*args)
            Engine(net).run(program, max_ticks=net.n + 3)
            assert bool(program.echoes) == echoes, cls.__name__


def test_one_dispatch_seam():
    """Kernel or scalar twin is chosen in one function.

    ``Engine.runs_kernels`` is read only by ``treeops._kernel``: no other
    function under ``src/repro`` loads the attribute or spells its name
    (the engines define it; nothing carries it).
    """
    root = Path(repro.__file__).parent
    readers = []
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        tree = ast.parse(path.read_text())
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.Lambda)):
                continue
            for node in ast.walk(func):
                attribute = (
                    isinstance(node, ast.Attribute) and node.attr == "runs_kernels"
                    and isinstance(node.ctx, ast.Load)
                )
                spelled = isinstance(node, ast.Constant) and node.value == "runs_kernels"
                if attribute or spelled:
                    readers.append((rel, getattr(func, "name", "<lambda>")))
    assert readers == [("core/treeops.py", "_kernel")]
