"""Cache-miss-oblivious shuffling on a deterministic cache simulator."""

from .cache import (
    CacheConfig,
    CacheSim,
    PinViolationError,
    Trace,
    TraceEvent,
)
from .layout import (
    ConflictReport,
    LayoutInfeasibleError,
    LayoutPlan,
    Region,
    SetLoads,
    check_conflicts,
    decl_from_plan,
    plan_layout,
)
from .shuffle import (
    BucketOverflowError,
    MalformedIntermediateError,
    ShuffleEngine,
    ShuffleParams,
    bubble_shuffle,
    gen_perm,
    melbourne_shuffle,
    naive_shuffle,
)
from .txn import (
    AccessProbability,
    CapacityError,
    RetryCapExceededError,
    TxnDeclaration,
    TxnStats,
    UndeclaredAccessError,
    run_txn,
)
from .verify import (
    ObliviousnessReport,
    capture_trace,
    oracle_apply_perm,
    probe_cache_sizes,
    verify_obliviousness,
)

__version__ = "0.1.0"

__all__ = [
    "AccessProbability",
    "BucketOverflowError",
    "CacheConfig",
    "CacheSim",
    "CapacityError",
    "ConflictReport",
    "LayoutInfeasibleError",
    "LayoutPlan",
    "MalformedIntermediateError",
    "ObliviousnessReport",
    "PinViolationError",
    "Region",
    "RetryCapExceededError",
    "SetLoads",
    "ShuffleEngine",
    "ShuffleParams",
    "Trace",
    "TraceEvent",
    "TxnDeclaration",
    "TxnStats",
    "UndeclaredAccessError",
    "bubble_shuffle",
    "capture_trace",
    "check_conflicts",
    "decl_from_plan",
    "gen_perm",
    "melbourne_shuffle",
    "naive_shuffle",
    "oracle_apply_perm",
    "plan_layout",
    "probe_cache_sizes",
    "run_txn",
    "verify_obliviousness",
]
