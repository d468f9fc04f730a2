"""Star joinings — by rank under a public seed, and Algorithm 5 over
sub-part trees; the merge step's pick, decode and push, whatever carries
them."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms import minimum_spanning_tree
from repro.analysis import kruskal_mst
from repro.congest import CostLedger, Engine, Network
from repro.core import MIN, MIN_TUPLE, SUM, PASolver
from repro.core.cole_vishkin import cv_iterations_needed, cv_step, shift_down_step
from repro.core.no_leader import PASuperOps
from repro.core.star_joining import (
    NO_PICK,
    TreeSuperOps,
    chosen_edges,
    compute_star_joining,
    outgoing_picks,
    rank_join,
    rank_joins,
)
from repro.graphs import (
    Partition,
    grid_2d,
    path_graph,
    random_connected,
    random_connected_partition,
    random_regular,
    with_distinct_weights,
    with_random_weights,
)
from oracles import ENGINE_OF, root_of, spanning_forest_of_subsets


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
        sid = root_of(forest, u)
        target = root_of(forest, v)
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
    sid = [root_of(forest, g[0]) for g in groups]
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
    sid = [root_of(forest, g[0]) for g in groups]
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
    sid = [root_of(forest, g[0]) for g in groups]
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


def _forest_ops(impl):
    net, groups, forest = ring_of_subparts(6, 3)
    chosen = chain_edges(net, groups, forest)
    ledger = CostLedger()
    engine = ENGINE_OF[impl](net)
    ops = TreeSuperOps(engine, net, forest, chosen, ledger)
    return forest.roots, chosen, ledger, ops


def _pa_ops(impl):
    """The same chain of six groups, as PA parts with PA solves between."""
    net, groups, _forest = ring_of_subparts(6, 3)
    chosen = {g: (groups[g][-1], groups[g + 1][0], g + 1) for g in range(5)}
    solver = PASolver(net, seed=41, engine=ENGINE_OF[impl](net))
    setup = solver.prepare(Partition([v // 3 for v in range(net.n)]))
    ledger = CostLedger()
    ops = PASuperOps(solver.engine, solver.solve, setup, chosen, ledger)
    return range(6), chosen, ledger, ops


def test_pushes_agree_across_engines_whatever_the_values():
    """Int values ride the kernels, anything else the scalar programs —
    over the forest transport and over the PA transport alike."""
    for make_ops in (_forest_ops, _pa_ops):
        sids, chosen, _ledger, _ops = make_ops("scalar")
        for values in (
            {sid: 3 * sid + 1 for sid in sids},              # columns all the way
            {sid: sid / 2 for sid in sids},                  # floats: no layout
            {sid: (sid, -sid) for sid in list(chosen)[::2]},  # tuples, some sids
        ):
            outcomes = []
            for impl in ("scalar", "array"):
                _sids, _chosen, ledger, ops = make_ops(impl)
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


# ---------------------------------------------------------------------------
# Joining by rank
# ---------------------------------------------------------------------------

@st.composite
def pick_graphs(draw):
    """An arbitrary functional pick graph: per cluster its target (another
    cluster; once in a while ``None``, which no connected loop produces)
    and a distinct id — cycles of any length, as CDS's unweighted picks can
    make them."""
    k = draw(st.integers(2, 24))
    targets = [
        draw(st.one_of(
            st.none() if draw(st.integers(0, 3)) == 0 else st.nothing(),
            st.integers(0, k - 2).map(lambda t, c=c: t + (t >= c)),
        ))
        for c in range(k)
    ]
    # O(log k)-bit ids, like uids: the exchange runs under the bit audit
    ids = draw(st.lists(st.integers(0, 4 * k - 1), min_size=k, max_size=k,
                        unique=True))
    return targets, ids


def _joiners(seed, round_no, targets, ids):
    """The rule, cluster by cluster, on ids alone."""
    out = set()
    for c, t in enumerate(targets):
        if t is None:
            continue
        beyond = NO_PICK if targets[t] is None else ids[targets[t]]
        if rank_join(seed, round_no, ids[c], ids[t], beyond):
            out.add(c)
    return out


def _joiners_on_the_wire(seed, round_no, targets, ids, lose=()):
    """The same round run by :func:`rank_joins`: clusters are the nodes of
    a network whose edges are the picks, every node holding what its
    cluster's aggregation would have handed it."""
    k = len(targets)
    edges = {tuple(sorted((c, t))) for c, t in enumerate(targets) if t is not None}
    net = Network(sorted(edges), n=k)
    chosen = {c: (c, t, t) for c, t in enumerate(targets) if t is not None}
    heard = [None if t is None else (ids[c], ids[t], ids[t])
             for c, t in enumerate(targets)]
    seed_at = {c: seed for c in range(k) if c not in lose}
    ledger = CostLedger()
    joins = rank_joins(
        Engine(net), ledger, "t", round_no, seed_at, ids, heard, chosen
    )
    assert all(joins[c] == chosen[c] for c in joins)
    (phase,) = ledger.phases()
    assert (phase.name, phase.rounds, phase.messages) == (
        "t_target_exchange", int(bool(edges)), 2 * len(edges)
    )
    return set(joins)


@settings(max_examples=150, deadline=None)
@given(graph=pick_graphs(), seed=st.integers(0, 2 ** 40),
       round_no=st.integers(1, 60))
def test_rank_joining_is_a_star_joining(graph, seed, round_no):
    targets, ids = graph
    k = len(targets)
    joiners = _joiners(seed, round_no, targets, ids)
    # a star: no joiner is the target of a joiner
    assert not {targets[c] for c in joiners} & joiners
    # every component of the pick graph in which every cluster picked — it
    # has an edge, hence a cycle — yields a join
    root = list(range(k))

    def find(x):
        while root[x] != x:
            root[x] = root[root[x]]
            x = root[x]
        return x

    for c, t in enumerate(targets):
        if t is not None:
            root[find(c)] = find(t)
    open_ended = {find(c) for c, t in enumerate(targets) if t is None}
    cyclic = {find(c) for c in range(k)} - open_ended
    assert cyclic <= {find(c) for c in joiners}
    # the engine-run round decides what the rule says, on delivered data
    assert _joiners_on_the_wire(seed, round_no, targets, ids) == joiners


@settings(max_examples=60, deadline=None)
@given(graph=pick_graphs(), seed=st.integers(0, 2 ** 40),
       round_no=st.integers(1, 60), shuffle=st.randoms(use_true_random=False))
def test_rank_joining_depends_on_seed_round_and_ids_only(
    graph, seed, round_no, shuffle
):
    targets, ids = graph
    k = len(targets)
    # renumber the clusters (sids), ids travelling with them
    new = list(range(k))
    shuffle.shuffle(new)
    moved_targets, moved_ids = [None] * k, [None] * k
    for c, t in enumerate(targets):
        moved_targets[new[c]] = None if t is None else new[t]
        moved_ids[new[c]] = ids[c]
    want = {ids[c] for c in _joiners_on_the_wire(seed, round_no, targets, ids)}
    got = _joiners_on_the_wire(seed, round_no, moved_targets, moved_ids)
    assert {moved_ids[c] for c in got} == want
    # another round is another draw: over many rounds every cluster that
    # has a pick joins at some point
    ever = set()
    for r in range(1, 200):
        ever |= _joiners(seed, r, targets, ids)
    assert ever == {c for c, t in enumerate(targets) if t is not None}


def test_rank_joining_joins_a_third_of_a_long_path():
    # 0 -> 1 -> ... -> 9999 <-> 9998: every interior cluster joins with
    # probability 1/3, the mutual pair at the end with 1/2.
    k = 10_000
    targets = [c + 1 for c in range(k - 1)] + [k - 2]
    ids = [k + (c * 7919) % k for c in range(k)]
    for seed, round_no in ((17, 1), (17, 2), (0xB0B, 5)):
        joiners = _joiners(seed, round_no, targets, ids)
        assert len(joiners) >= 0.30 * k
        assert (k - 1 in joiners) != (k - 2 in joiners)


def test_a_lost_seed_or_answer_means_no_join():
    # 0 <-> 1 and 2 -> 1: whoever does not hold the seed stays put, the
    # others decide as before; with everyone deaf the round joins nobody.
    targets, ids = [1, 0, 1], [40, 41, 42]
    for seed in range(20):
        full = _joiners_on_the_wire(seed, 3, targets, ids)
        assert len(full & {0, 1}) == 1
        for deaf in (0, 1, 2):
            assert _joiners_on_the_wire(
                seed, 3, targets, ids, lose={deaf}
            ) == full - {deaf}
        assert _joiners_on_the_wire(seed, 3, targets, ids, lose={0, 1, 2}) == set()


@pytest.mark.parametrize("n, make", [
    (4, lambda: grid_2d(2, 2)),
    (16, lambda: grid_2d(4, 4)),
    (512, lambda: random_regular(512, 4, seed=3)),
])
def test_four_column_pick_fits_the_bit_budget(n, make):
    """Strict bits, the widest pick there is: the largest weight
    ``with_distinct_weights`` produces, beside three largest uids."""
    net = with_distinct_weights(make(), seed=4)
    widest = (net.m, 2 * n - 1, 2 * n - 1, 2 * n - 1)
    solver = PASolver(net, seed=5)  # strict_bits is the default
    halves = random_connected_partition(net, 2, seed=6)
    result = solver.solve(solver.prepare(halves), [widest] * n, MIN_TUPLE)
    assert set(result.aggregates.values()) == {widest}
    # ... and a whole run under the audit, exchange and seed included
    mst = minimum_spanning_tree(net, seed=5, merging="rank")
    assert set(mst.output) == kruskal_mst(net)
    names = {p.name for p in mst.ledger.phases()}
    assert {"mst_seed", "mst_target_exchange"} <= names


# ---------------------------------------------------------------------------
# Algorithm 5 speaks only on news
# ---------------------------------------------------------------------------

def _placeholder_star_joining(ops, participants):
    """Algorithm 5 as it ran before a super-node spoke only on news: every
    super-node publishes a status (0 / 1) and a color (-1 outside the
    residual), every push gathers everywhere, and a residual super-node's
    successor is read off the pick graph itself.  The oracle for
    :func:`compute_star_joining`."""
    edges, supernodes = ops.chosen, list(ops.leaders)
    target_of = {sid: edges[sid][2] for sid in participants}
    indeg = ops.push_up(dict.fromkeys(participants, 1), SUM)
    receivers = {sid for sid, count in indeg.items() if count >= 2}
    receivers |= set(target_of.values()) - set(participants)
    joins = {}

    def absorb(residual):
        heard = ops.push_down({s: int(s in receivers) for s in supernodes})
        new = {s for s in residual - receivers if heard.get(s) == 1}
        joins.update((s, edges[s]) for s in new)
        return residual - new - receivers

    residual = absorb(set(participants))
    if residual:
        colors = {s: ops.initial_color(s) for s in residual}
        live = {s: target_of[s] in residual for s in residual}

        def succ():
            got = ops.push_down({**dict.fromkeys(supernodes, -1), **colors})
            return {s: got.get(s) if live[s] else None for s in residual}

        for _ in range(cv_iterations_needed(max(colors.values()))):
            after = succ()
            colors = {s: cv_step(c, after[s]) for s, c in colors.items()}
        for high in (5, 4, 3):
            after, before = succ(), ops.push_up(colors, MIN)
            colors = {
                s: shift_down_step(c, before.get(s), after[s], high)
                for s, c in colors.items()
            }
        for k in (0, 1, 2):
            receivers |= {s for s in residual if colors[s] == k}
            residual = absorb(residual)
            if not residual:
                break
    assert not residual
    return receivers, joins


def _super_graph(targets, sizes):
    """Groups of ``sizes[g]`` nodes (each a path) whose picks are network
    edges, with a backbone between consecutive groups so that the network
    is connected; returns the network, the groups and per group its pick
    edge ``(u, v, target group)``."""
    first = [sum(sizes[:g]) for g in range(len(sizes))]
    groups = [list(range(f, f + size)) for f, size in zip(first, sizes)]
    picks = {
        g: (first[g] + t % sizes[g], first[t] + g % sizes[t], t)
        for g, t in enumerate(targets) if t is not None
    }
    edges = {(a, a + 1) for group in groups for a in group[:-1]}
    edges |= {tuple(sorted(pick[:2])) for pick in picks.values()}
    edges |= {(a, b) for a, b in zip(first, first[1:])}
    return Network(sorted(edges), n=sum(sizes)), groups, picks


def _both_rules(make_ops, participants):
    out = []
    for rule in (compute_star_joining, _placeholder_star_joining):
        ledger = CostLedger()
        ops = make_ops(ledger)
        ops.announce_requests()
        out.append((rule(ops, set(participants)), ledger))
    (got, spoke), (want, placeheld) = out
    return got, want, spoke, placeheld


@settings(max_examples=40, deadline=None)
@given(graph=pick_graphs(), sizes=st.lists(st.integers(1, 3), min_size=24,
                                           max_size=24))
def test_news_only_star_joining_is_the_placeholder_rule(graph, sizes):
    """Receivers and joins are those of the rule that published
    placeholders, over sub-part trees and over PA parts alike; and
    speaking only on news never costs more, in either currency."""
    targets, _ids = graph
    k = len(targets)
    net, groups, picks = _super_graph(targets, sizes[:k])
    forest = spanning_forest_of_subsets(net, groups)
    root = [group[0] for group in groups]
    chosen = {root[g]: (u, v, root[t]) for g, (u, v, t) in picks.items()}
    got, want, spoke, placeheld = _both_rules(
        lambda ledger: TreeSuperOps(Engine(net), net, forest, chosen, ledger),
        chosen,
    )
    assert got == want
    assert spoke.messages <= placeheld.messages
    assert spoke.rounds <= placeheld.rounds

    if k > 12:
        return  # the PA transport: smaller pick graphs, same rule
    solver = PASolver(net, seed=k)
    parts = Partition([g for g, group in enumerate(groups) for _v in group])
    got, want, spoke, placeheld = _both_rules(
        # a setup each: the first solve on a setup learns its route
        lambda ledger: PASuperOps(
            solver.engine, solver.solve, solver.prepare(parts), picks, ledger
        ),
        picks,
    )
    assert got == want
    assert spoke.messages <= placeheld.messages
    assert spoke.rounds <= placeheld.rounds
