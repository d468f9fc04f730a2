"""PA-as-a-service: query serving and multi-tenant batching.

The layer above :mod:`repro.runtime`: a :class:`PAService` owns one
session over an evolving graph and serves per-part aggregation query
streams from multiple tenants — micro-batching concurrent queries into
shared ``solve_many`` waves, absorbing partition changes by incremental
coarsening/refinement and edge changes by tree-preserving repair, with
shared-cost per-tenant ledger attribution on ``tenant:<name>`` obs
streams.  See docs/architecture.md, "Service layer".
"""

from .queries import (
    AggregateQuery,
    KINDS,
    max_query,
    min_query,
    sum_query,
    top_k_aggregation,
    top_k_query,
)
from .service import PAService, QueryResult, ServiceStats

__all__ = [
    "AggregateQuery",
    "KINDS",
    "PAService",
    "QueryResult",
    "ServiceStats",
    "max_query",
    "min_query",
    "sum_query",
    "top_k_aggregation",
    "top_k_query",
]
