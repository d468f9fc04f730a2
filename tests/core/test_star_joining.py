"""Algorithm 5: star joinings over sub-part trees."""

from repro.congest import CostLedger, Engine
from repro.core import MIN, spanning_forest_of_subsets
from repro.core.star_joining import TreeSuperOps, compute_star_joining
from repro.graphs import Partition, grid_2d, path_graph


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


def test_pushes_agree_across_engines_whatever_the_values():
    """Int values ride the kernels, anything else the scalar programs."""
    net, groups, forest = ring_of_subparts(6, 3)
    chosen = chain_edges(net, groups, forest)
    for values in (
        {sid: 3 * sid + 1 for sid in forest.roots},        # columns all the way
        {sid: sid / 2 for sid in forest.roots},            # floats: no layout
        {sid: (sid, -sid) for sid in list(chosen)[::2]},   # tuples, some roots
    ):
        outcomes = []
        for use_arrays in (False, True):
            ledger = CostLedger()
            ops = TreeSuperOps(
                Engine(net, use_arrays=use_arrays), net, forest, chosen, ledger
            )
            outcomes.append((
                ops.push_down(values), ops.push_up(values, MIN),
                [(p.name, p.rounds, p.messages, p.bits) for p in ledger.phases()],
            ))
        assert outcomes[0] == outcomes[1]
        down, up, _log = outcomes[0]
        # A source hears its target's value; a target the least of its sources'.
        assert down == {
            sid: values[t] for sid, (_u, _v, t) in chosen.items() if t in values
        }
        assert up == {
            t: values[sid] for sid, (_u, _v, t) in chosen.items() if sid in values
        }
