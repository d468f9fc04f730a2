"""Cole-Vishkin logic: step properties and full chain coloring."""

from typing import Dict, Optional

import pytest
from hypothesis import given, strategies as st

from repro.core.cole_vishkin import (
    cv_iterations_needed,
    cv_step,
    shift_down_step,
)


def three_color_chain(
    successor_of: Dict[int, Optional[int]], initial_colors: Dict[int, int]
) -> Dict[int, int]:
    """Sequential Cole-Vishkin over a functional chain graph, from the
    shipped transitions: ``cv_step`` to colors < 6, then the shift-downs.

    ``successor_of`` maps each node to its out-neighbor (or None); in-degree
    must be at most 1.
    """
    nodes = list(successor_of)
    colors = dict(initial_colors)
    predecessor_of: Dict[int, Optional[int]] = {v: None for v in nodes}
    for v, s in successor_of.items():
        if s is not None:
            if predecessor_of.get(s) is not None:
                raise ValueError("chain graph has in-degree > 1")
            predecessor_of[s] = v
    for _ in range(cv_iterations_needed(max(colors.values(), default=1))):
        colors = {
            v: cv_step(colors[v], colors.get(successor_of[v]))
            for v in nodes
        }
    for high in (5, 4, 3):
        colors = {
            v: shift_down_step(
                colors[v], colors.get(predecessor_of[v]),
                colors.get(successor_of[v]), high,
            )
            for v in nodes
        }
    return colors


def validate_coloring(
    successor_of: Dict[int, Optional[int]], colors: Dict[int, int]
) -> None:
    """Assert that ``colors`` is a proper 3-coloring of the chain edges."""
    for v, s in successor_of.items():
        assert s is None or colors[v] != colors[s], f"edge ({v}, {s})"
        assert colors[v] in (0, 1, 2), f"color {colors[v]} at {v}"


def test_cv_step_produces_differing_colors():
    a, b = 0b1010, 0b1000
    new_a = cv_step(a, b)
    new_b = cv_step(b, a ^ 0b1)  # some other differing successor
    assert new_a != cv_step(b, a) or True  # sanity: no exception
    # The key invariant: if successor differs, my new color differs from
    # the successor's new color computed against ITS successor whenever
    # they'd collide on the same bit-index/bit pair.
    assert cv_step(a, b) != cv_step(b, a)


def test_cv_step_rejects_equal_colors():
    with pytest.raises(ValueError):
        cv_step(5, 5)


def test_cv_step_chain_end_uses_pseudo_successor():
    assert isinstance(cv_step(12, None), int)


def test_iterations_needed_is_loglog_small():
    assert cv_iterations_needed(5) <= 3
    assert cv_iterations_needed(1 << 20) <= 8


def test_shift_down_step():
    assert shift_down_step(5, 0, 1, high=5) == 2
    assert shift_down_step(4, None, 0, high=4) == 1
    assert shift_down_step(2, 0, 1, high=5) == 2  # not high: unchanged


def test_three_color_path():
    successor = {i: i + 1 for i in range(9)}
    successor[9] = None
    colors = three_color_chain(successor, {i: 100 + 7 * i for i in range(10)})
    validate_coloring(successor, colors)


def test_three_color_cycle():
    n = 12
    successor = {i: (i + 1) % n for i in range(n)}
    colors = three_color_chain(successor, {i: 3 * i + 11 for i in range(n)})
    validate_coloring(successor, colors)


def test_three_color_rejects_high_in_degree():
    successor = {0: 2, 1: 2, 2: None}
    with pytest.raises(ValueError):
        three_color_chain(successor, {0: 1, 1: 2, 2: 3})


@given(st.integers(min_value=2, max_value=60), st.randoms())
def test_three_color_random_chain_graphs(n, rng):
    """Any union of paths/cycles with distinct ids gets a proper 3-coloring."""
    nodes = list(range(n))
    rng.shuffle(nodes)
    successor = {}
    i = 0
    while i < n:
        size = min(n - i, rng.randint(1, 6))
        chunk = nodes[i:i + size]
        close = rng.random() < 0.5 and size >= 2
        for j, v in enumerate(chunk):
            if j + 1 < size:
                successor[v] = chunk[j + 1]
            else:
                successor[v] = chunk[0] if close else None
        i += size
    ids = {v: 1000 + 13 * v for v in range(n)}
    colors = three_color_chain(successor, ids)
    validate_coloring(successor, colors)
