"""Algorithm 5: star joinings over sub-part trees; the merge step's pick,
decode and push, whatever carries them."""

import random

from hypothesis import given, settings, strategies as st

from repro.congest import CostLedger, Engine
from repro.core import MIN, PASolver, spanning_forest_of_subsets
from repro.core.no_leader import PASuperOps
from repro.core.star_joining import (
    TreeSuperOps,
    chosen_edges,
    compute_star_joining,
    outgoing_picks,
)
from repro.graphs import (
    Partition,
    path_graph,
    random_connected,
    with_random_weights,
)


def ring_of_subparts(n_groups, group_size):
    """Path network partitioned into consecutive groups, each a sub-part."""
    net = path_graph(n_groups * group_size)
    groups = [
        list(range(g * group_size, (g + 1) * group_size))
        for g in range(n_groups)
    ]
    forest = spanning_forest_of_subsets(net, groups)
    return net, groups, forest


def chain_edges(net, groups, forest):
    """Each group points at the next group via the connecting path edge."""
    chosen = {}
    for g in range(len(groups) - 1):
        u = groups[g][-1]
        v = groups[g + 1][0]
        sid = forest.root_of(u)
        target = forest.root_of(v)
        chosen[sid] = (u, v, target)
    return chosen


def test_star_joining_resolves_every_participant():
    net, groups, forest = ring_of_subparts(7, 3)
    chosen = chain_edges(net, groups, forest)
    engine = Engine(net)
    ledger = CostLedger()
    ops = TreeSuperOps(engine, net, forest, chosen, ledger)
    ops.announce_requests()
    receivers, joins = compute_star_joining(ops, set(chosen))
    participants = set(chosen)
    for sid in participants:
        assert (sid in receivers) != (sid in joins), (
            "every participant is exactly one of receiver/joiner"
        )


def test_joiners_point_at_receivers():
    net, groups, forest = ring_of_subparts(9, 2)
    chosen = chain_edges(net, groups, forest)
    engine = Engine(net)
    ops = TreeSuperOps(engine, net, forest, chosen, CostLedger())
    ops.announce_requests()
    receivers, joins = compute_star_joining(ops, set(chosen))
    for sid, (_u, _v, target) in joins.items():
        assert target in receivers


def test_constant_fraction_merges():
    net, groups, forest = ring_of_subparts(12, 2)
    chosen = chain_edges(net, groups, forest)
    engine = Engine(net)
    ops = TreeSuperOps(engine, net, forest, chosen, CostLedger())
    ops.announce_requests()
    _receivers, joins = compute_star_joining(ops, set(chosen))
    # Lemma 6.3: at least a third of the chain participants join.
    assert len(joins) >= len(chosen) // 3


def test_in_degree_two_makes_receiver():
    # Groups 0 and 2 both point at group 1.
    net, groups, forest = ring_of_subparts(3, 3)
    sid = [forest.root_of(g[0]) for g in groups]
    chosen = {
        sid[0]: (groups[0][-1], groups[1][0], sid[1]),
        sid[2]: (groups[2][0], groups[1][-1], sid[1]),
    }
    engine = Engine(net)
    ops = TreeSuperOps(engine, net, forest, chosen, CostLedger())
    ops.announce_requests()
    receivers, joins = compute_star_joining(ops, set(chosen))
    assert sid[1] in receivers  # in-degree 2, despite not participating
    assert set(joins) == {sid[0], sid[2]}


def test_nonparticipant_target_is_receiver():
    net, groups, forest = ring_of_subparts(2, 4)
    sid = [forest.root_of(g[0]) for g in groups]
    chosen = {sid[0]: (groups[0][-1], groups[1][0], sid[1])}
    engine = Engine(net)
    ops = TreeSuperOps(engine, net, forest, chosen, CostLedger())
    ops.announce_requests()
    receivers, joins = compute_star_joining(ops, {sid[0]})
    assert sid[1] in receivers
    assert sid[0] in joins


def test_two_cycle_resolves():
    """Mutual pointers (the MOE 2-cycle case) resolve via Cole-Vishkin."""
    net, groups, forest = ring_of_subparts(2, 3)
    sid = [forest.root_of(g[0]) for g in groups]
    chosen = {
        sid[0]: (groups[0][-1], groups[1][0], sid[1]),
        sid[1]: (groups[1][0], groups[0][-1], sid[0]),
    }
    engine = Engine(net)
    ops = TreeSuperOps(engine, net, forest, chosen, CostLedger())
    ops.announce_requests()
    receivers, joins = compute_star_joining(ops, set(chosen))
    assert len(receivers & set(sid)) == 1
    assert len(joins) == 1


def _forest_ops(use_arrays):
    net, groups, forest = ring_of_subparts(6, 3)
    chosen = chain_edges(net, groups, forest)
    ledger = CostLedger()
    engine = Engine(net, use_arrays=use_arrays)
    ops = TreeSuperOps(engine, net, forest, chosen, ledger)
    return forest.roots, chosen, ledger, ops


def _pa_ops(use_arrays):
    """The same chain of six groups, as PA parts with PA solves between."""
    net, groups, _forest = ring_of_subparts(6, 3)
    chosen = {g: (groups[g][-1], groups[g + 1][0], g + 1) for g in range(5)}
    solver = PASolver(
        net, seed=41, engine_impl="array" if use_arrays else "scalar"
    )
    setup = solver.prepare(Partition([v // 3 for v in range(net.n)]))
    ledger = CostLedger()
    ops = PASuperOps(solver.engine, solver.solve, setup, chosen, ledger)
    return range(6), chosen, ledger, ops


def test_pushes_agree_across_engines_whatever_the_values():
    """Int values ride the kernels, anything else the scalar programs —
    over the forest transport and over the PA transport alike."""
    for make_ops in (_forest_ops, _pa_ops):
        sids, chosen, _ledger, _ops = make_ops(False)
        for values in (
            {sid: 3 * sid + 1 for sid in sids},              # columns all the way
            {sid: sid / 2 for sid in sids},                  # floats: no layout
            {sid: (sid, -sid) for sid in list(chosen)[::2]},  # tuples, some sids
        ):
            outcomes = []
            for use_arrays in (False, True):
                _sids, _chosen, ledger, ops = make_ops(use_arrays)
                outcomes.append((
                    ops.push_down(values), ops.push_up(values, MIN),
                    [(p.name, p.rounds, p.messages, p.bits)
                     for p in ledger.phases()],
                ))
            assert outcomes[0] == outcomes[1]
            down, up, _log = outcomes[0]
            # A source hears its target's value; a target the least of its
            # sources'.
            assert down == {
                sid: values[t]
                for sid, (_u, _v, t) in chosen.items() if t in values
            }
            assert up == {
                t: values[sid]
                for sid, (_u, _v, t) in chosen.items() if sid in values
            }


def _reference_picks(net, comp, weighted=False, sources=None, within=None):
    """The per-node nested loop the four cluster-merging callers each wrote
    out before :func:`outgoing_picks`."""
    picks = [None] * net.n
    for v in range(net.n):
        if sources is not None and not sources[v]:
            continue
        for nb in net.neighbors[v]:
            if comp[nb] == comp[v]:
                continue
            if within is not None and within[nb] != within[v]:
                continue
            cand = (net.uid[v], net.uid[nb])
            if weighted:
                cand = (net.weight(v, nb),) + cand
            if picks[v] is None or cand < picks[v]:
                picks[v] = cand
    return picks


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(2, 28),
    density=st.floats(0.05, 0.5),
    clusters=st.integers(1, 9),
    seed=st.integers(0, 10_000),
)
def test_outgoing_picks_match_the_nested_loop(n, density, clusters, seed):
    rng = random.Random(seed)
    # Few distinct weights, so ties fall through to the uids.
    net = with_random_weights(
        random_connected(n, density, seed=seed), max_weight=4, seed=seed
    )
    comp = [rng.randrange(clusters) for _ in range(n)]
    sources = [rng.random() < 0.6 for _ in range(n)]
    within = [rng.randrange(3) for _ in range(n)]
    for form in (
        {}, {"weighted": True}, {"sources": sources}, {"within": within},
        {"weighted": True, "sources": sources, "within": within},
    ):
        assert outgoing_picks(net, comp, **form) == _reference_picks(
            net, comp, **form
        ), form

    # The decode of the per-cluster minimum is the least cluster-leaving
    # edge, found here by brute force over every edge in both directions.
    picks = outgoing_picks(net, comp, weighted=True)
    aggregates = {
        c: min((picks[v] for v in range(n) if comp[v] == c and picks[v]),
               default=None)
        for c in set(comp)
    }
    brute = {}
    for a, b in net.edges:
        for u, v in ((a, b), (b, a)):
            if comp[u] != comp[v]:
                key = (net.weight(u, v), net.uid[u], net.uid[v])
                best = brute.get(comp[u])
                if best is None or key < best[0]:
                    brute[comp[u]] = (key, (u, v, comp[v]))
    assert chosen_edges(net, comp, aggregates) == {
        c: edge for c, (_key, edge) in brute.items()
    }
