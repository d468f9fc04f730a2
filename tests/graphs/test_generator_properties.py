"""Property-based generator checks: invariants across a seed sweep.

The fixed-seed structure tests in ``test_generators.py`` pin single
instances; these sweep seeds (and sizes) and assert the *invariants*
every instance must satisfy — exact degrees, exact edge counts,
connectivity, simplicity, planarity bounds, and cross-seed determinism —
for the randomized workload generators ``random_regular`` and
``preferential_attachment``, and for the ``random_planar`` fixture
(``tests/oracles.py``) that the tree and division pins are taken on.
"""

from __future__ import annotations

import pytest

from repro.graphs import preferential_attachment, random_regular
from oracles import random_planar

SEEDS = list(range(10))


def _assert_simple(net):
    """No self-loops, no duplicate edges (in either orientation)."""
    seen = set()
    for u, v in net.edges:
        assert u != v, f"self-loop at {u}"
        key = (min(u, v), max(u, v))
        assert key not in seen, f"duplicate edge {key}"
        seen.add(key)


# ---------------------------------------------------------------------------
# random_regular: exact d-regularity, connectivity, simplicity
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n,degree", [(16, 3), (20, 4), (31, 4)])
def test_random_regular_invariants(n, degree, seed):
    if n * degree % 2:
        n += 1  # the generator requires an even degree sum
    net = random_regular(n, degree, seed=seed)
    assert net.n == n
    assert net.m == n * degree // 2
    assert all(net.degree(v) == degree for v in range(n))
    assert net.is_connected()
    _assert_simple(net)


def test_random_regular_determinism_and_seed_sensitivity():
    a = random_regular(18, 3, seed=4)
    b = random_regular(18, 3, seed=4)
    assert list(a.edges) == list(b.edges)
    edge_sets = {tuple(random_regular(18, 3, seed=s).edges) for s in SEEDS}
    assert len(edge_sets) > 1  # seeds actually vary the draw


def test_random_regular_rejects_bad_parameters():
    with pytest.raises(ValueError):
        random_regular(10, 2)       # degree < 3
    with pytest.raises(ValueError):
        random_regular(4, 5)        # n <= degree
    with pytest.raises(ValueError):
        random_regular(9, 3)        # odd degree sum


# ---------------------------------------------------------------------------
# preferential_attachment: exact edge count, connectivity, hub growth
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n,attach", [(20, 1), (30, 2), (30, 3)])
def test_preferential_attachment_invariants(n, attach, seed):
    net = preferential_attachment(n, attach=attach, seed=seed)
    assert net.n == n
    # A star on attach+1 nodes, then attach edges per later node.
    assert net.m == attach + (n - attach - 1) * attach
    assert net.is_connected()
    _assert_simple(net)
    # Every non-seed node has degree >= attach (its own attachments).
    assert all(net.degree(v) >= attach for v in range(attach + 1, n))


@pytest.mark.parametrize("seed", SEEDS)
def test_preferential_attachment_grows_hubs(seed):
    net = preferential_attachment(60, attach=2, seed=seed)
    max_deg = max(net.degree(v) for v in range(net.n))
    assert max_deg >= 6  # heavy tail: some hub well above the attach rate


# ---------------------------------------------------------------------------
# random_planar: exact n, connectivity, Euler planarity bound
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n,hole_prob", [(12, 0.0), (30, 0.25), (47, 0.6)])
def test_random_planar_invariants(n, hole_prob, seed):
    net = random_planar(n, seed=seed, hole_prob=hole_prob)
    assert net.n == n
    assert net.is_connected()
    _assert_simple(net)
    assert net.m <= 3 * n - 6  # Euler bound, the planarity sanity check
    assert net.m >= n - 1      # the intact grid skeleton spans the graph


@pytest.mark.parametrize("gen,kwargs", [
    (preferential_attachment, {"n": 25, "attach": 2}),
    (random_planar, {"n": 25}),
])
def test_generators_are_deterministic_per_seed(gen, kwargs):
    for seed in SEEDS[:5]:
        a = gen(seed=seed, **kwargs)
        b = gen(seed=seed, **kwargs)
        assert list(a.edges) == list(b.edges)
        assert list(a.uid) == list(b.uid)


@pytest.mark.parametrize("gen,kwargs", [
    (preferential_attachment, {"n": 25, "attach": 2}),
    (random_planar, {"n": 25, "hole_prob": 0.4}),
])
def test_generators_vary_across_seeds(gen, kwargs):
    edge_sets = {tuple(gen(seed=s, **kwargs).edges) for s in SEEDS}
    assert len(edge_sets) > 1
