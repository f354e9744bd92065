"""repro.query — the read side of the platform (§8's data service).

Turns sealed archive segments into a queryable, cacheable service:
per-segment indexes (distinct prefixes and origins, per-VP record
counts) built at seal time or lazily, a planner that reads only
segments that can match, per-segment views that decode, sort and
render a verified segment once, an LRU result cache invalidated by
the archive watermark, and a stdlib HTTP JSON API
(``repro-bgp serve``).
"""

from .cache import WatermarkLRUCache
from .engine import (
    DirectoryCatalog,
    QueryEngine,
    WriterCatalog,
    open_catalog,
    update_to_json,
)
from .index import (
    SegmentIndex,
    build_index,
    ensure_index,
    index_path,
    load_index,
)
from .planner import QueryPlan, QuerySpec, plan_query
from .server import QueryAPIServer
from .stats import QueryStats, QueryStatsSnapshot, render_query_stats

__all__ = [
    "DirectoryCatalog",
    "QueryAPIServer",
    "QueryEngine",
    "QueryPlan",
    "QuerySpec",
    "QueryStats",
    "QueryStatsSnapshot",
    "SegmentIndex",
    "WatermarkLRUCache",
    "WriterCatalog",
    "build_index",
    "ensure_index",
    "index_path",
    "load_index",
    "open_catalog",
    "plan_query",
    "render_query_stats",
    "update_to_json",
]
