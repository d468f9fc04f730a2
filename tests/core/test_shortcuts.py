"""Tree-restricted shortcut structures (Definitions 2.1-2.3, Figure 1)."""

import pytest

from repro.congest import ShortcutValidationError
from repro.core import ROOT, RootedForest, Shortcut
from repro.graphs import Partition, grid_2d, path_graph
from twins import down_parts
from oracles import (
    block_parameter,
    blocks_of_part,
    empty_shortcut,
    star_shortcut_for_parts,
    total_shortcut_edges,
    validate_shortcut,
)


def line_tree(net):
    return RootedForest(net, [ROOT] + list(range(net.n - 1)))


def test_constructor_validates_root_and_part_ids(path10):
    tree = line_tree(path10)
    part = Partition([0] * 10)
    with pytest.raises(ShortcutValidationError):
        # The root has no parent edge to assign parts to.
        Shortcut(tree, part, [{0}] + [set()] * 9)
    with pytest.raises(ShortcutValidationError):
        Shortcut(tree, part, [set()] * 9 + [{7}])  # unknown part id


def test_congestion_and_blocks_on_path(path10):
    tree = line_tree(path10)
    part = Partition([0, 0, 0, 0, 0, 1, 1, 1, 1, 1])
    # Part 0 uses edges (6,5) and (7,6); part 1 uses (6,5): congestion 2.
    up = [set() for _ in range(10)]
    up[6] = {0, 1}
    up[7] = {0}
    sc = Shortcut(tree, part, up)
    assert sc.congestion() == 2
    blocks0 = blocks_of_part(sc, 0)
    assert len(blocks0) == 1
    assert blocks0[0] == {5, 6, 7}
    assert block_parameter(sc, 0) == 1
    assert block_parameter(sc, 1) == 1
    validate_shortcut(sc)


def test_disjoint_blocks_counted(path10):
    tree = line_tree(path10)
    part = Partition([0] * 10)
    up = [set() for _ in range(10)]
    up[2] = {0}
    up[7] = {0}  # two separate H_0 components
    sc = Shortcut(tree, part, up)
    assert block_parameter(sc, 0) == 2
    assert sc.max_block_parameter() == 2


def test_empty_shortcut_has_conventional_quality(path10):
    tree = line_tree(path10)
    part = Partition([0, 0, 0, 0, 0, 1, 1, 1, 1, 1])
    sc = empty_shortcut(tree, part)
    assert sc.quality() == (1, 1)
    assert total_shortcut_edges(sc) == 0


def test_star_shortcut_single_block(grid4x6):
    from repro.graphs import random_connected_partition

    part = random_connected_partition(grid4x6, 4, seed=3)
    from repro.congest import CostLedger, Engine
    from repro.core import bfs_tree

    tree = bfs_tree(Engine(grid4x6), grid4x6, 0, CostLedger()).tree
    sc = star_shortcut_for_parts(tree, part, range(4))
    for pid in range(4):
        assert block_parameter(sc, pid) == 1
    validate_shortcut(sc)


def test_figure1_style_instance():
    """A 4-part instance realizing the paper's Figure 1 quantities.

    We build a tree-restricted shortcut over 4 parts in which the busiest
    tree edge carries 3 parts (c = 3) and the worst part splits into two
    blocks (b = 2) -- the quantities in the Figure 1 caption.
    """
    # A spanning tree that is just a path 0..11 over a path network.
    net = path_graph(12)
    tree = line_tree(net)
    part = Partition([0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3])
    up = [set() for _ in range(12)]
    # Part 0 climbs nowhere (its nodes are at the root end).
    # Part 1 claims edges (4,3),(5,4) -> one block.
    up[4] = {1}
    up[5] = {1}
    # Part 2 claims (7,6),(8,7) and separately shares edges below.
    up[7] = {2}
    up[8] = {2}
    # Part 3 claims a long run (9,8),(10,9),(11,10) and also (4,3), giving
    # it two blocks; edge (4,3) now carries parts {1,3}, and we add part 2
    # to it as well to reach congestion 3.
    up[9] = {3}
    up[10] = {3}
    up[11] = {3}
    up[4] |= {3, 2}
    sc = Shortcut(tree, part, up)
    assert sc.congestion() == 3
    assert block_parameter(sc, 3) == 2
    assert sc.max_block_parameter() == 2
    assert sc.quality() == (2, 3)


def test_down_parts_mirrors_up(path10):
    tree = line_tree(path10)
    part = Partition([0] * 10)
    up = [set() for _ in range(10)]
    up[3] = {0}
    sc = Shortcut(tree, part, up)
    down = down_parts(sc)
    assert down[2] == {3: frozenset({0})}
