"""Every cost charged by formula: a ratchet on ``charge_local`` sites.

A phase charged with :meth:`~repro.congest.ledger.CostLedger.charge_local`
never runs on an engine, so no synchronizer delays it, no fault plan
drops it, the bit audit never sees its payload and a trace holds no span
for it.  The audit walks ``src/repro`` and lists every ``charge_local(``
call by file and phase name (the name argument as written).  A new site
fails it, and so does an entry below whose site is gone: run the phase
on the engine instead, or delete the entry with the site.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: (module, phase name as written) -> why it is still a formula.
SITES = {
    ("algorithms/cds.py", "'cds_status_exchange'"):
        "the greedy phase's status round; folded into the span count",
    ("algorithms/cds.py", "'cds_join_announce'"):
        "joiners tell their neighborhoods; the greedy loop reads oracle-side",
    ("algorithms/cds.py", "'cds_cluster_assign'"):
        "dominated nodes pick their cluster; read oracle-side",
    ("algorithms/mincut.py", "'mincut_interval_exchange'"):
        "tree-interval labels across every edge; read oracle-side",
    ("algorithms/mincut.py", "'mincut_side_broadcast'"):
        "the chosen side down the packed tree; a broadcast not yet run",
    ("algorithms/verification.py", "'bip_parity_exchange'"):
        "parity across every subgraph edge; read oracle-side",
    ("runtime/recovery.py", "f'attempt{attempt}:{rec.name}'"):
        "replays the engine's own overhead records of an aborted attempt",
    ("runtime/session.py", "'edge_update_notify'"):
        "the link layer reports a changed edge to its two endpoints",
}


def _name_argument(call: ast.Call) -> str:
    if call.args:
        return ast.unparse(call.args[0])
    named = [k.value for k in call.keywords if k.arg == "name"]
    return ast.unparse(named[0]) if named else "<no name>"


def _charge_local_sites():
    for path in sorted(SRC.rglob("*.py")):
        module = str(path.relative_to(SRC))
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "charge_local"
            ):
                yield module, _name_argument(node)


def test_every_charge_local_site_is_listed_once():
    found = Counter(_charge_local_sites())
    assert {site for site, k in found.items() if k > 1} == set(), (
        "a phase name charged at two sites"
    )
    assert set(found) - set(SITES) == set(), (
        "new formula charge: run the phase on the engine "
        "(treeops.cross_round / run_broadcast) instead"
    )
    assert set(SITES) - set(found) == set(), (
        "stale entry: the site is gone, delete it here too"
    )
    assert len(found) == 8
