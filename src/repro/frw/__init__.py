"""The floating-random-walk core: walk engine, estimators, the Alg. 1
baseline and Alg. 2 reproducible schemes, schedulers, and the solver
facade."""

from .alg1_baseline import extract_row_alg1
from .alg2_reproducible import (
    RowProgress,
    RunStats,
    extract_row_alg2,
    machine_rng,
    make_streams,
)
from .context import ExtractionContext, SharedAssets, StructureView, build_context
from .cross_master import extract_rows_interleaved
from .engine import (
    StageTimers,
    WalkPipeline,
    WalkResults,
    run_segments,
    run_walks,
)
from .estimator import CapacitanceRow, RowAccumulator
from .parallel import (
    BatchRunner,
    PersistentExecutor,
    make_batch_runner,
    resolve_start_method,
    resolve_workers,
    stream_spec,
    streams_from_spec,
)
from .shm import (
    ContextManifest,
    attach_context,
    publish_context,
    published_blocks,
    release_all,
    release_manifest,
)
from .scheduler import (
    ScheduleResult,
    jittered_durations,
    simulate_dynamic_queue,
    simulate_static_blocks,
)
from .solver import ExtractionResult, FRWSolver, extract
from .walk import WalkTrace, run_single_walk, trace_walks

__all__ = [
    "BatchRunner",
    "CapacitanceRow",
    "ContextManifest",
    "ExtractionContext",
    "ExtractionResult",
    "FRWSolver",
    "PersistentExecutor",
    "RowAccumulator",
    "RowProgress",
    "RunStats",
    "ScheduleResult",
    "SharedAssets",
    "StructureView",
    "WalkPipeline",
    "WalkResults",
    "WalkTrace",
    "attach_context",
    "build_context",
    "extract",
    "extract_row_alg1",
    "extract_row_alg2",
    "extract_rows_interleaved",
    "jittered_durations",
    "machine_rng",
    "make_batch_runner",
    "make_streams",
    "publish_context",
    "published_blocks",
    "release_all",
    "release_manifest",
    "run_single_walk",
    "StageTimers",
    "resolve_start_method",
    "resolve_workers",
    "run_segments",
    "run_walks",
    "simulate_dynamic_queue",
    "simulate_static_blocks",
    "stream_spec",
    "streams_from_spec",
    "trace_walks",
]
