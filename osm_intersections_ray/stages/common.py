"""Shared batch utilities for the engine stages (pyarrow-first, vectorized)."""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa

# data_rank phase offsets: wayData order = named rows (way order), then
# propagated links (adoption order), then fake-named ways (way order)
# (js/geo.js:392-595).  Monotone composite ranks replace list append order.
RANK_NAMED = 0
RANK_PROPAGATED = 1 << 40
RANK_FAKE = 1 << 41

# emit_rank of a node = lexicographic (data_rank, position-in-way) of its
# first appearance while scanning wayData (Map insertion order stand-in).
POS_BITS = 20  # ways here have << 1M vertices


_BROADCAST_CACHE: dict = {}


def cached_get(ref):
    """Per-worker-process cache around ``ray.get`` for broadcast objects.

    Lets broadcast-consuming stages stay STATELESS TASKS (no actor-pool CPU
    reservation): the first task on a worker deserializes the object, later
    tasks on the same worker reuse it.  Actor pools are reserved for stages
    where per-actor state is heavy or mutable; a pipeline whose every stage
    is an actor pool can deadlock when the sum of pool minimums exceeds the
    cluster's CPUs."""
    import ray

    if not isinstance(ref, ray.ObjectRef):
        return ref
    key = ref.hex()
    if key not in _BROADCAST_CACHE:
        _BROADCAST_CACHE[key] = ray.get(ref)
    return _BROADCAST_CACHE[key]


def map_tasks(ds, cls, *args, **map_kwargs):
    """``ds.map_batches`` running ``cls(*args)(batch)`` as plain tasks.

    The task form of a stage whose only state is broadcast refs: ``cls``
    resolves its refs with :func:`cached_get`, so building it per batch is
    cheap and each worker deserializes a ref once.  No pool is sized, so no
    pool can hold the CPUs its upstream tasks need."""
    def run(b: pa.Table) -> pa.Table:
        return cls(*args)(b)

    run.__name__ = cls.__name__  # operator name in Ray's stats
    return ds.map_batches(run, batch_format="pyarrow", **map_kwargs)


def drop_empty_blocks(mat_ds):
    """Strip zero-row blocks from a MATERIALIZED dataset.

    Ray's sort/aggregate exchanges emit empty blocks with NO schema for
    empty output partitions (the bench-log "RefBundle with a different
    schema ... new schema: ." warning).  Feeding such a dataset into
    ``Dataset.join`` can place a schema-less table into a hash partition,
    and pyarrow's Acero join then fails with "No match or multiple matches
    for key field reference".  Block refs stay in the object store — nothing
    is collected to the driver."""
    import ray.data as rd

    refs = []
    for bundle in mat_ds.iter_internal_ref_bundles():
        for ref, meta in bundle.blocks:
            if meta.num_rows is None or meta.num_rows > 0:
                refs.append(ref)
    if not refs:
        return mat_ds
    return rd.from_arrow_refs(refs)


def explode_lists(batch: pa.Table, list_cols: list[str], keep_cols: list[str]) -> dict:
    """Explode parallel list columns; returns dict of numpy/python arrays with
    ``keep_cols`` repeated per element plus flattened ``list_cols`` and a
    ``pos`` array (index within the parent list).  Vectorized via Arrow
    offsets + np.repeat."""
    col0 = batch[list_cols[0]].combine_chunks()
    if isinstance(col0, pa.ChunkedArray):
        col0 = col0.chunk(0) if col0.num_chunks else pa.array([], col0.type)
    lengths = np.asarray(col0.value_lengths())
    out: dict = {}
    for c in keep_cols:
        vals = batch[c].to_numpy(zero_copy_only=False)
        out[c] = np.repeat(vals, lengths)
    for c in list_cols:
        arr = batch[c].combine_chunks()
        if isinstance(arr, pa.ChunkedArray):
            arr = arr.chunk(0) if arr.num_chunks else pa.array([], arr.type)
        out[c] = np.asarray(arr.flatten())
    total = int(lengths.sum())
    starts = np.zeros(len(lengths), dtype=np.int64)
    np.cumsum(lengths[:-1], out=starts[1:] if len(lengths) > 1 else starts[1:])
    out["pos"] = np.arange(total, dtype=np.int64) - np.repeat(starts, lengths)
    return out


def cap_join_partitions(requested: int) -> int:
    """Clamp a ``Dataset.join`` ``num_partitions`` to the cluster's CPU
    count.  Ray's hash join spawns a pool of shuffle-aggregator actors
    sized from the partition count; on a cluster with fewer CPUs than that
    pool wants, the aggregators reserve the CPUs the upstream map tasks
    need and the join wedges with zero blocks flowing (observed: a
    num_partitions=32 join on a 2-CPU cluster sat 50+ minutes with the
    feeding read backpressured at 0 output blocks).  At real cluster sizes
    the requested value is returned unchanged."""
    import ray

    try:
        cpus = int(ray.cluster_resources().get("CPU", requested))
    except Exception:  # not initialized: let Ray's own default apply
        return requested
    return max(2, min(requested, cpus))


def n_shards(floor: int = 64) -> int:
    """Shard count for the shard-fold exchange pattern (key % n_shards ->
    per-shard C hash groupby), derived from the CLUSTER's CPU count at
    pipeline-build time.

    Round 3 hard-coded 64 everywhere; on a 4N-node cluster with more than
    64 total cores that single exchange caps the fold's parallelism
    (VERDICT r3 finding #3).  The fold kernels are shard-count-invariant by
    construction — every fold emits per-REAL-KEY results, the shard id only
    routes rows — so this can scale with the cluster without moving any
    hash (pinned by tests/test_invariants.py over n_shards in {7, 64, 256}).

    Called on the DRIVER while building the pipeline (Ray is initialized
    there); the value is captured into the batch closure, so workers never
    pay a GCS lookup.  ``OSMRAY_N_SHARDS`` overrides for tests.
    """
    env = os.environ.get("OSMRAY_N_SHARDS")
    if env:
        return int(env)
    import ray

    try:
        cpus = int(ray.cluster_resources().get("CPU", 0))
    except Exception:
        cpus = 0
    # 2x total cores: enough shards that the biggest shard cannot dominate
    # a core's worth of fold work, few enough that the exchange's sort sees
    # a trivial key domain.
    return max(floor, 2 * cpus)
