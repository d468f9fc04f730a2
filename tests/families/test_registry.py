"""Family registry: single-sourced envelopes, hints, the one factory."""

import math

import pytest

from repro.analysis import TABLE1, TABLE2_DETERMINISTIC, TABLE2_RANDOMIZED
from repro.core.pa import build_general_shortcut
from repro.families import (
    FAMILIES,
    FamilyProvider,
    family_hint,
    get_family,
    provider_for,
)


def test_registry_covers_table1():
    assert set(FAMILIES) == set(TABLE1)


def test_registry_reuses_theory_objects():
    # The envelopes have a single source of truth: a row copies nothing
    # from analysis.theory — Tables 1 and 2 are read by the row's name.
    for name, family in FAMILIES.items():
        assert name in TABLE2_DETERMINISTIC and name in TABLE2_RANDOMIZED
        for copied in ("bounds", "det_rounds", "rand_rounds"):
            assert not hasattr(family, copied)


def test_hint_is_ceil_of_table1():
    for name, family in FAMILIES.items():
        b, c = family_hint(name, 500, 30)
        p = family.default_param
        assert b == max(1, math.ceil(TABLE1[name].block_parameter(500, 30, p)))
        assert c == max(1, math.ceil(TABLE1[name].congestion(500, 30, p)))


def test_hint_param_override():
    b4, c4 = family_hint("treewidth", 256, 10, param=4)
    b2, c2 = family_hint("treewidth", 256, 10, param=2)
    assert b4 == 4 and b2 == 2 and c4 == 2 * c2


def test_unknown_family_raises_with_known_list():
    with pytest.raises(KeyError, match="hyperbolic"):
        family_hint("hyperbolic", 100, 10)
    with pytest.raises(KeyError, match="planar"):
        get_family("hyperbolic")


def test_provider_factories():
    # The general row's provider *is* the default pipeline's function.
    assert provider_for("general").build is build_general_shortcut
    assert provider_for("general").name == "general"
    for name, param, provider_name in (
        ("planar", 1, "tree_restricted"),
        ("genus", 1, "tree_restricted"),
        ("treewidth", 3, "treewidth"),
        ("pathwidth", 2, "pathwidth"),
    ):
        provider = provider_for(name)
        assert isinstance(provider, FamilyProvider)
        assert provider.family is FAMILIES[name]
        assert (provider.param, provider.name) == (param, provider_name)
    assert provider_for("genus", param=3).param == 3


def test_provider_for_plumbs_claim_small():
    # Default: the exemption applies.
    for name in ("planar", "genus", "treewidth", "pathwidth"):
        assert provider_for(name).claim_small is False
        assert provider_for(name, claim_small=True).claim_small is True
    # general has no exemption toggle (structural in Algorithm 4): the
    # flag is accepted and ignored rather than mutating the provider.
    assert not hasattr(provider_for("general", claim_small=True), "claim_small")


def test_genus_param_widens_cap():
    cap = get_family("genus").cap
    assert cap(1000, 20, 9, 1) >= 3 * cap(1000, 20, 1, 1) - 3
    # genus <= 1 is the planar construction: same cap, same phase name
    assert cap(1000, 20, 1, 1) == get_family("planar").cap(1000, 20, 1, 1)
    assert get_family("genus").claims(1) == "planar"
    assert get_family("genus").claims(2) == "genus"
