"""Cole-Vishkin deterministic coin tossing (3-coloring of oriented chains).

Section 6.1 uses the Cole-Vishkin [4] algorithm to 3-color the super-graph
of sub-parts (a union of directed paths and cycles, max out-degree 1) in
O(log* n) communication steps.  This module holds the *logic* — the color
transition functions — as pure functions, so the same code drives both the
direct CONGEST program (on networks that literally are paths/cycles, used
in tests) and the simulated version where each "node" is a whole sub-part
or part whose leader computes the transition (Algorithms 5, 6 and 9).

The classic reduction: starting from O(log n)-bit distinct colors, each
step a node compares its color with its successor's, finds the lowest
differing bit index ``k``, and re-colors itself ``2k + bit_k``.  After
O(log* n) steps colors fit in {0..5}; three shift-down steps then remove
colors 5, 4, 3, using knowledge of both neighbors' colors.
"""

from __future__ import annotations

from typing import Optional


def cv_step(own: int, successor: Optional[int]) -> int:
    """One Cole-Vishkin color transition.

    ``successor`` is the color of the node's out-neighbor, or ``None`` for
    chain ends; ends use a pseudo-successor that provably differs from
    their own color, preserving the invariant that adjacent colors differ.
    """
    if successor is None:
        successor = own + 1  # differs from own in bit 0 at least
    if own == successor:
        raise ValueError("Cole-Vishkin requires adjacent colors to differ")
    diff = own ^ successor
    k = (diff & -diff).bit_length() - 1  # lowest differing bit index
    bit = (own >> k) & 1
    return 2 * k + bit


def cv_iterations_needed(max_color: int) -> int:
    """Number of cv_step iterations to reach colors < 6 from ``max_color``.

    Each step maps colors bounded by ``2^L`` to colors bounded by ``2L``;
    a small fixed-point loop computes when the bound stops shrinking.
    """
    bound = max(max_color, 1)
    steps = 0
    while bound >= 6:
        bits = bound.bit_length()
        new_bound = 2 * bits - 1
        steps += 1
        if new_bound >= bound:
            break
        bound = new_bound
    return steps + 2  # two extra steps to be safe at the fixed point


def shift_down_step(
    own: int, predecessor: Optional[int], successor: Optional[int], high: int
) -> int:
    """One color-elimination step: nodes colored ``high`` pick a free color.

    With colors already < 6 and proper along the chain, a node colored
    ``high`` re-colors itself the smallest color in {0, 1, 2} unused by its
    two chain neighbors; all other nodes keep their color.  Applying this
    for high = 5, 4, 3 yields a proper 3-coloring.
    """
    if own != high:
        return own
    forbidden = {predecessor, successor}
    for candidate in (0, 1, 2):
        if candidate not in forbidden:
            return candidate
    raise AssertionError("two neighbors cannot forbid three colors")
