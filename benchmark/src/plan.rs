//! The run plan every workload follows, and what a finished run hands back.

use crate::config;
use crate::gen::Model;
use crate::measure::{sleep_until, Boundary, Sample};
use crate::trace::{SpanBuf, TraceSwitch};
use b2b_telemetry::{MetricsSnapshot, Telemetry};
use std::time::{Duration, Instant};

/// Set-ups, warm-up and slices of one run. The same on every commit: run
/// length comes from `--seconds` (fixed in `BENCHMARK.json`) alone.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    /// Set-ups: at least `.0`, at most `.1`, see [`Plan::another_setup`].
    pub setups: (usize, usize),
    pub warmup: Duration,
    pub slice: Duration,
    pub slices: usize,
    /// Traced run: even slices record spans, odd ones do not.
    pub traced: bool,
    /// Calls per layer probe, rounds of the engine-round probe, and pairs of
    /// the contention burst: the pinned counts, a tenth under `--smoke`.
    pub probe_calls: usize,
    pub round_calls: usize,
    pub burst_pairs: usize,
}

impl Plan {
    /// `seconds` of measurement: all of it timed slices when untraced; when
    /// traced, slices of the same length take their share and the layer
    /// probes use what is left.
    pub fn new(seconds: f64, traced: bool, smoke: bool) -> Plan {
        if smoke {
            return Plan {
                setups: (1, 1),
                warmup: config::SMOKE_WARMUP,
                slice: Duration::from_secs(1),
                slices: config::SMOKE_SLICES,
                traced,
                probe_calls: config::PROBE_CALLS / 10,
                round_calls: config::PROBE_ROUND_CALLS / 10,
                burst_pairs: 2,
            };
        }
        Plan {
            setups: if traced {
                (1, 1)
            } else {
                (config::SETUPS_MIN, config::SETUPS_MAX)
            },
            warmup: config::WARMUP,
            slice: Duration::from_secs_f64(seconds / config::SLICES as f64),
            slices: if traced {
                config::TRACED_RUN_SLICES
            } else {
                config::SLICES
            },
            traced,
            probe_calls: config::PROBE_CALLS,
            round_calls: config::PROBE_ROUND_CALLS,
            burst_pairs: config::BURST_PAIRS,
        }
    }

    /// Whether to set up once more after set-ups that took `so_far` seconds.
    pub fn another_setup(&self, so_far: &[f64]) -> bool {
        let (min, max) = self.setups;
        so_far.len() < min
            || (so_far.len() < max && so_far.iter().sum::<f64>() < config::SETUPS_BUDGET_S)
    }

    /// When the last slice ends, from the start of the warm-up.
    pub fn end(&self) -> Duration {
        self.warmup + self.slice * self.slices as u32
    }

    pub fn describe(&self) -> String {
        format!(
            "{}-{} set-ups, {:.1} s warm-up, {} slices x {:.3} s{}",
            self.setups.0,
            self.setups.1,
            self.warmup.as_secs_f64(),
            self.slices,
            self.slice.as_secs_f64(),
            if self.traced {
                " (even slices traced, odd untraced)"
            } else {
                ""
            }
        )
    }
}

/// Walks the main thread through the plan's boundaries while the clients
/// run: at each one it flips the trace switch and takes the readings;
/// `registry` is snapshotted at the first and last.
pub fn walk_boundaries(
    plan: &Plan,
    t0: Instant,
    switch: &TraceSwitch,
    telemetry: &Telemetry,
) -> (Vec<Boundary>, MetricsSnapshot, MetricsSnapshot) {
    let mut bounds = Vec::with_capacity(plan.slices + 1);
    let mut first = MetricsSnapshot::default();
    for j in 0..=plan.slices {
        sleep_until(t0, plan.warmup + plan.slice * j as u32);
        switch.set(plan.traced && j < plan.slices && j % 2 == 0);
        if j == 0 {
            first = telemetry.metrics().snapshot();
        }
        bounds.push(Boundary::now(t0));
    }
    (bounds, first, telemetry.metrics().snapshot())
}

/// Everything a workload's timed part produced.
pub struct Measured {
    pub samples: Vec<Sample>,
    pub bounds: Vec<Boundary>,
    pub registry_before: MetricsSnapshot,
    pub registry_after: MetricsSnapshot,
    pub spans: Vec<SpanBuf>,
}

/// What one client thread returns when it stops.
pub type ClientResult = (Vec<Sample>, SpanBuf, Model);

/// Joins the client threads (thread `c` of `n` owns orders `o % n == c`) and
/// pools their samples, spans and the orders each one's model owns.
pub fn join_clients(
    handles: Vec<std::thread::JoinHandle<ClientResult>>,
    orders: usize,
) -> (Vec<Sample>, Vec<SpanBuf>, Model) {
    let clients = handles.len();
    let mut model = Model::seeded(orders);
    let mut samples = Vec::new();
    let mut spans = Vec::new();
    for (c, h) in handles.into_iter().enumerate() {
        let (s, b, m) = h.join().expect("client thread");
        samples.extend(s);
        spans.push(b);
        model.merge_owned(&m, clients, c);
    }
    (samples, spans, model)
}
