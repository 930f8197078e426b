//! Everything the benchmark pins. `BENCHMARK.json` has a fixed schema with
//! no room for these, so they live here, in one file, and are echoed into
//! every result file's `provenance` block. Changing any of them changes
//! what the numbers mean: do it in a PR of its own that claims no gain.

use std::time::Duration;

/// Worker shards of the sharded runtime (per endpoint on `fleet-durable`).
pub const SHARDS: usize = 2;
/// HTTP worker threads of `OrderServer`.
pub const HTTP_WORKERS: usize = 4;
/// Threads of the shared signature `VerifyPool`.
pub const VERIFY_POOL: usize = 2;
/// Generator threads: `min(nproc, LOAD_THREADS_MAX)`, never more.
pub const LOAD_THREADS_MAX: usize = 2;
/// Items per order. Every order is seeded with all of them during set-up and
/// the workloads only overwrite, so state size (and hashing cost) is steady.
pub const CATALOGUE: usize = 8;

/// Fresh set-ups per untraced run, `setup_s` being their median: at least
/// `SETUPS_MIN`, then more while they have taken under `SETUPS_BUDGET_S` in
/// all, up to `SETUPS_MAX`. A 60 ms set-up varies by a third from one to the
/// next, so the small workloads get nine; `order-mixed`'s 3 s ones get three.
pub const SETUPS_MIN: usize = 3;
pub const SETUPS_MAX: usize = 9;
pub const SETUPS_BUDGET_S: f64 = 6.0;
/// Timed slices of an untraced run; every rate/latency is a median of these.
pub const SLICES: usize = 7;
/// Slices of a traced run, alternating traced (even) and untraced (odd), so
/// `bench.trace_overhead_share` compares like with like on one set-up.
pub const TRACED_RUN_SLICES: usize = 5;
/// Warm-up before the first slice.
pub const WARMUP: Duration = Duration::from_millis(2000);
/// Warm-up and slice length under `--smoke`.
pub const SMOKE_WARMUP: Duration = Duration::from_millis(500);
pub const SMOKE_SLICES: usize = 3;

/// Offered rate of the open-loop `order-mixed` workload, ops/s.
pub const MIXED_RATE: f64 = 900.0;
/// Latency limit of `order-mixed`; `bench.slo_miss_share` counts ops over it.
pub const MIXED_SLO_US: u64 = 20_000;
/// Zipf exponent of order popularity on `order-mixed`.
pub const ZIPF_S: f64 = 0.99;
/// Shares of the `order-mixed` mix: reads, valid mutations; the rest invalid.
pub const MIX_READ: f64 = 0.60;
pub const MIX_VALID: f64 = 0.30;

/// Colliding write pairs in the contention burst after `order-mixed`'s
/// slices. Few, because on today's runtime most of them stall for a second.
pub const BURST_PAIRS: usize = 4;

/// Updates per bulk request on `order-bulk` (also its `batch_max`).
pub const BULK_WINDOW: usize = 64;
/// Updates per engine window on `fleet-durable` (the default `batch_max`).
pub const FLEET_WINDOW: usize = 16;
/// Groups crashed in fault phase (a) of `fleet-durable`.
pub const FAULT_GROUPS: usize = 64;
/// How long the crashed members stay down before `recover`.
pub const FAULT_DOWNTIME: Duration = Duration::from_millis(200);

/// Calls per `*_us` probe.
pub const PROBE_CALLS: usize = 10_000;
/// Rounds of the `engine_round_p50_us` probe: a round costs a hundred times
/// a hash, so this probe alone gets fewer calls to stay inside the run.
pub const PROBE_ROUND_CALLS: usize = 2_000;
/// Signatures per `verify_batch` probe call.
pub const PROBE_VERIFY_BATCH: usize = 64;
/// Records per group-commit batch in the `file_append_flush_us` probe.
pub const PROBE_WAL_BATCH: usize = 8;
/// Snapshot keys the `file_snapshot_put_us` probe cycles through: the reply
/// checkpoints one store of `fleet-durable` holds.
pub const PROBE_SNAPSHOT_KEYS: usize = 24;

/// How the load reaches the system.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Shape {
    /// HTTP, closed loop, one `mode=sync` mutation at a time per client.
    SyncHttp,
    /// HTTP, closed loop, one deferred bulk window + one long-poll per op.
    BulkHttp,
    /// HTTP, open loop at [`MIXED_RATE`], reads + valid + invalid mutations.
    MixedHttp,
    /// Engine level over loopback TCP with `FileStore`s, closed loop.
    FleetEngine,
}

/// One named workload.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub shape: Shape,
    /// Orders (= coordination groups).
    pub groups: usize,
    /// Organisations per order.
    pub parties: usize,
    /// `CoordinatorConfig::batch_max`; everything else stays default.
    pub batch_max: usize,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "order-sync",
        shape: Shape::SyncHttp,
        groups: 128,
        parties: 2,
        batch_max: 16,
    },
    Workload {
        name: "order-bulk",
        shape: Shape::BulkHttp,
        groups: 64,
        parties: 2,
        batch_max: BULK_WINDOW,
    },
    Workload {
        name: "order-mixed",
        shape: Shape::MixedHttp,
        groups: 2048,
        parties: 4,
        batch_max: 16,
    },
    Workload {
        name: "fleet-durable",
        shape: Shape::FleetEngine,
        groups: 256,
        parties: 2,
        batch_max: FLEET_WINDOW,
    },
];

pub fn workload(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// Generator threads on this box.
pub fn load_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(LOAD_THREADS_MAX)
}
