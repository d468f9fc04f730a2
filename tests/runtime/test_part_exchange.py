"""The session's part exchange against a node-level model of what it says.

Every setup ``PASession.prepare_incremental`` builds over a previous one
opens with one engine-run ``part_exchange`` round: a node whose part
leader changed sends its new leader's uid — after a merge-only change to
the neighbors outside its old part, otherwise to every neighbor — and a
cache hit sends nothing.  The claim behind the rule is that afterwards
every node knows every neighbor's new leader.  Here each node keeps a view
of its neighbors' leaders (one entry per CSR slot) and updates it only
from what it can know:

* the messages ``part_exchange`` delivered to it (a spy on the engine);
* after a merge, its own new leader for the neighbors of its old part —
  the merge broadcast that told it told them the same;
* on a cache hit, the view it held when it last had that partition.

Random connected graphs run random sequences of merges, connected splits,
unrelated regroupings and re-presented partitions (random leaders or the
default), on a reuse session and a bare one, on both synchronous engines.
After every step the view must equal the truth on every edge, no merge
message may stay inside the sender's old part, a cache hit adds no phase,
and the scalar and array engines' setup ledgers must be equal.
"""

import random

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import PASession, PASolver
from repro.graphs import random_connected, random_connected_partition
from repro.graphs.partitions import partition_from_component_labels
from repro.runtime.session import _kind, _partition_image, partition_fingerprint

from twins import twin_phases


OPS = ("merge", "split", "regroup", "re_present")


def _merge(net, partition, rng):
    part_of = partition.part_of
    across = [(u, v) for u, v in net.edges if part_of[u] != part_of[v]]
    if not across:
        return None
    u, v = rng.choice(across)
    a, b = part_of[u], part_of[v]
    return partition_from_component_labels(
        [a if p == b else p for p in part_of]
    )


def _split(net, partition, rng):
    """Cut one edge of a BFS tree of a part: both sides stay connected."""
    big = [m for m in partition.members if len(m) >= 2]
    if not big:
        return None
    members = set(rng.choice(big))
    root = min(members)
    parent, order = {root: None}, [root]
    for u in order:
        for nb in net.neighbors[u]:
            if nb in members and nb not in parent:
                parent[nb] = u
                order.append(nb)
    cut = {rng.choice(order[1:])}
    for u in order:
        if parent[u] in cut:
            cut.add(u)
    labels = list(partition.part_of)
    for u in cut:
        labels[u] = partition.num_parts
    return partition_from_component_labels(labels)


def _steps(net, rng, k, ops):
    """The (partition, leaders) sequence a case replays on every session."""
    def leaders_for(partition):
        if rng.random() < 0.5:
            return None
        return [rng.choice(members) for members in partition.members]

    first = random_connected_partition(net, k, seed=rng.randrange(1000))
    steps = [(first, leaders_for(first))]
    for op in ops:
        current = steps[-1][0]
        if op == "re_present":
            steps.append(rng.choice(steps))
            continue
        if op == "merge":
            nxt = _merge(net, current, rng)
        elif op == "split":
            nxt = _split(net, current, rng)
        else:
            nxt = random_connected_partition(
                net, rng.randint(1, max(1, net.n // 3)),
                seed=rng.randrange(1000),
            )
        if nxt is not None:
            steps.append((nxt, leaders_for(nxt)))
    return steps


def _replay(net, steps, reuse):
    """Run ``steps`` on one session, holding the node views to the truth;
    returns every built setup's ledger, phase by phase."""
    session = PASession(net, solver=PASolver(net, seed=1), reuse=reuse)
    engine = session.engine
    captured = []
    real_run = engine.run

    def spy(program, *args, **kwargs):
        stats = real_run(program, *args, **kwargs)
        if program.name == "part_exchange":
            captured.append(program)
        return stats

    engine.run = spy
    views = net.array_views
    src, dst, uid = views.src_of_slot, views.adj, views.uid

    def leader_uid(setup):
        return uid[np.asarray(setup.leaders)[np.asarray(setup.partition.part_of)]]

    setup = session.prepare(*steps[0])
    view = leader_uid(setup)[dst]  # what the first exchange taught
    memo = {partition_fingerprint(*steps[0]): view.copy()}
    ledgers = []
    for partition, leaders in steps[1:]:
        key = partition_fingerprint(partition, leaders)
        hits = session.stats.cache_hits
        captured.clear()
        new = session.prepare_incremental(setup, partition, leaders)
        phases = [
            (p.name, p.rounds, p.messages, p.ticks, p.bits)
            for p in new.setup_ledger.phases()
        ]
        now = leader_uid(new)
        if session.stats.cache_hits > hits:
            assert not captured and phases == []
            view = memo[key].copy()
        else:
            image = _partition_image(setup.partition, partition)
            merge = image is not None and _kind(image) == "coarsen"
            old = np.asarray(setup.partition.part_of)
            if merge:
                mates = old[src] == old[dst]
                view[mates] = now[src[mates]]
            assert len(captured) <= 1
            for program in captured:
                for node, inbox in program.received.items():
                    for sender, payload in inbox:
                        assert not (merge and old[sender] == old[node])
                        slot = np.searchsorted(
                            views.edge_keys, node * net.n + sender
                        )
                        view[slot] = payload
            names = [name for name, *_ in phases]
            assert ("part_exchange" in names) == bool(captured)
            if captured:
                assert names.index("part_exchange") == 0
                assert names.count("part_exchange") == 1
        assert (view == now[dst]).all()
        memo[key] = view.copy()
        ledgers.append(phases)
        setup = new
    return ledgers


@settings(max_examples=20, deadline=None)
@given(
    graph_seed=st.integers(0, 10_000),
    n=st.integers(8, 26),
    k=st.integers(2, 8),
    ops=st.lists(st.sampled_from(OPS), min_size=1, max_size=6),
    seed=st.integers(0, 10_000),
)
def test_views_follow_the_part_exchange(graph_seed, n, k, ops, seed):
    net = random_connected(n, 0.15, seed=graph_seed)
    steps = _steps(net, random.Random(seed), min(k, n), ops)
    for reuse in (True, False):
        with twin_phases():
            scalar = _replay(net, steps, reuse)
        assert _replay(net, steps, reuse) == scalar


def test_a_previous_over_another_node_set_sends_nothing():
    net = random_connected(20, 0.15, seed=3)
    other = random_connected(24, 0.15, seed=4)
    setup = PASession(other, seed=1).prepare(
        random_connected_partition(other, 4, seed=2)
    )
    for reuse in (True, False):
        session = PASession(net, seed=1, reuse=reuse)
        fresh = session.prepare_incremental(
            setup, random_connected_partition(net, 5, seed=2)
        )
        assert "part_exchange" not in {
            p.name for p in fresh.setup_ledger.phases()
        }
