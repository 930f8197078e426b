//! The repo benchmark. See `benchmark/README.md`.
//!
//! ```text
//! b2b-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! b2b-benchmark suite [--seed <n>] [--seconds <s>] [--smoke]
//! b2b-benchmark aa [--runs <n>] [--seed <n>] [--seconds <s>]
//! ```

mod aa;
mod catalog;
mod config;
mod fleet;
mod gen;
mod http;
mod measure;
mod oracle;
mod plan;
mod probes;
mod report;
mod store;
mod trace;

use config::{Shape, Workload};
use measure::{slice_median, slice_spread, slice_stats, Delta, SliceStats};
use plan::{Measured, Plan};
use report::{Readings, Report};
use std::path::PathBuf;
use std::time::Instant;
use trace::TraceSwitch;

/// Where results, traces and temporary stores go: `benchmark/out/`, inside
/// the checkout the binary was built from.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// A fresh directory under [`out_dir`] for the runs tagged `tag`: whatever
/// the previous such run left there is removed first. For a handful of files
/// only; `fleet-durable`'s thousands of stores live in `fleet::store_root`,
/// which never unlinks.
pub fn scratch_dir(tag: &str) -> PathBuf {
    let dir = out_dir().join(format!("tmp-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch directory");
    dir
}

pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub runs: usize,
}

fn usage() -> ! {
    eprintln!(
        "usage: b2b-benchmark --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--smoke]\n\
         \x20      b2b-benchmark suite [--seed <n>] [--seconds <s>] [--smoke]\n\
         \x20      b2b-benchmark aa [--runs <n>] [--seed <n>] [--seconds <s>]",
        config::WORKLOADS.map(|w| w.name).join("|")
    );
    std::process::exit(2);
}

fn parse(args: &[String]) -> Args {
    let mut out = Args {
        workload: None,
        seed: 1,
        seconds: report::run_seconds(),
        trace: false,
        smoke: false,
        runs: 5,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage()).as_str();
        match flag.as_str() {
            "--workload" => out.workload = Some(value().to_string()),
            "--seed" => out.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => out.seconds = value().parse().unwrap_or_else(|_| usage()),
            "--trace" => out.trace = value() == "1",
            "--runs" => out.runs = value().parse().unwrap_or_else(|_| usage()),
            "--smoke" => out.smoke = true,
            _ => usage(),
        }
    }
    if out.seconds.is_nan() || out.seconds <= 0.0 || out.runs == 0 {
        usage();
    }
    out
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let code = match argv.first().map(String::as_str) {
        Some("suite") => aa::suite(&parse(&argv[1..])),
        Some("aa") => aa::aa(&parse(&argv[1..])),
        _ => {
            let args = parse(&argv);
            let Some(w) = args.workload.as_deref().and_then(config::workload) else {
                usage()
            };
            let report = run(&w, &args);
            report.write_files();
            report.print();
            i32::from(!report.correct)
        }
    };
    std::process::exit(code);
}

/// Counts per installed update over the timed slices, from the public
/// telemetry registry. Fleet-wide counters count every party's share, so a
/// two-party round adds 2 to `rounds_committed`-style counters.
fn layer_counts(m: &Measured, updates: f64, stores: fleet::StoreDelta) -> Readings {
    use b2b_telemetry::names as n;
    let d = Delta {
        before: &m.registry_before,
        after: &m.registry_after,
    };
    let per = |x: f64| x / updates.max(1.0);
    let (rounds, occupancy_sum) = d.histogram(n::BATCH_OCCUPANCY);
    let requests = d.counter(n::SERVE_REQUESTS);
    let verifies = d.counter(n::SIG_VERIFY_COUNT);
    let hits = d.counter(n::SIG_CACHE_HITS);
    let (first, last) = (&m.bounds[0], &m.bounds[m.bounds.len() - 1]);
    vec![
        ("server.requests_per_update", per(requests)),
        (
            "server.backpressure_429_share",
            d.counter(n::SERVE_BACKPRESSURE_429) / requests.max(1.0),
        ),
        (
            "net.shard_events_per_update",
            per(d.counter_prefix(n::SHARD_EVENTS)),
        ),
        (
            "net.timer_fires_per_update",
            per(d.counter(n::SHARD_TIMER_FIRES)),
        ),
        ("net.inbox_full_stalls", d.counter(n::INBOX_FULL_STALLS)),
        ("net.retransmits_per_update", per(d.counter(n::RETRANSMITS))),
        ("net.dedup_drops_per_update", per(d.counter(n::DEDUP_DROPS))),
        (
            "net.mux_frames_per_update",
            per(d.counter(n::MUX_FRAMES_SENT)),
        ),
        (
            "net.mux_bytes_per_update",
            per(d.counter(n::MUX_BYTES_SENT)),
        ),
        (
            "net.mux_write_syscalls_per_update",
            per(d.counter(n::MUX_WRITE_SYSCALLS)),
        ),
        ("net.mux_read_stalls", d.counter(n::MUX_READ_STALLS)),
        ("core.rounds_per_update", per(rounds)),
        ("core.batch_occupancy_mean", occupancy_sum / rounds.max(1.0)),
        (
            "core.rounds_retried_per_update",
            per(d.counter(n::ROUNDS_RETRIED)),
        ),
        (
            "core.rounds_aborted_per_update",
            per(d.counter(n::ROUNDS_ABORTED)),
        ),
        // Every party of a round signs exactly once (m1 or m2; m3 reveals
        // an authenticator instead), and counts one `rounds_started`.
        ("crypto.signs_per_update", per(d.counter(n::ROUNDS_STARTED))),
        ("crypto.sig_verifies_per_update", per(verifies)),
        (
            "crypto.sig_batch_verifies_per_update",
            per(d.counter(n::SIG_BATCH_VERIFIES)),
        ),
        (
            "crypto.sig_cache_hit_share",
            hits / (hits + verifies).max(1.0),
        ),
        (
            "crypto.canonical_cache_hits_per_update",
            per(d.counter(n::CANONICAL_CACHE_HITS)),
        ),
        (
            "evidence.records_per_update",
            per(d.counter(n::EVIDENCE_RECORDS_APPENDED)),
        ),
        (
            "evidence.wal_flushes_per_update",
            per(d.counter(n::WAL_FLUSHES)),
        ),
        (
            "evidence.wal_bytes_per_update",
            per(stores.wal_bytes as f64),
        ),
        (
            "evidence.snapshot_puts_per_update",
            per(stores.snapshot_puts as f64),
        ),
        (
            "evidence.rss_kb_per_kupdate",
            (last.rss_kb as f64 - first.rss_kb as f64) / (updates.max(1.0) / 1e3),
        ),
    ]
}

/// Wall time per phase of a run, for stderr and the result file.
pub struct Phases {
    last: Instant,
    pub done: Vec<(&'static str, f64)>,
}

impl Phases {
    fn mark(&mut self, name: &'static str) {
        self.done.push((name, self.last.elapsed().as_secs_f64()));
        self.last = Instant::now();
    }
}

/// What the workload-specific part of a run hands to the common part.
struct Ran {
    measured: Measured,
    setup_s: Vec<f64>,
    setup_rss_kb: u64,
    join_ms_per_group: f64,
    layer: Readings,
    misses: Vec<String>,
    spans: Vec<trace::SpanBuf>,
}

/// The run's environment, shared by both workload families.
struct Ctx<'a> {
    w: &'a Workload,
    args: &'a Args,
    plan: Plan,
    switch: TraceSwitch,
    scratch: PathBuf,
}

fn run_http(ctx: &Ctx, spans: &mut trace::SpanBuf, phases: &mut Phases) -> Ran {
    let (w, args) = (ctx.w, ctx.args);
    let mut setup_s = Vec::new();
    let mut setup_rss_kb = None;
    let mut svc: Option<http::Service> = None;
    while ctx.plan.another_setup(&setup_s) {
        if let Some(previous) = svc.take() {
            previous.server.shutdown();
        }
        let s = http::setup(w, spans);
        setup_s.push(s.setup_s);
        svc = Some(s);
        // After the first set-up only: later ones sit on whatever the
        // allocator kept of their predecessors.
        setup_rss_kb.get_or_insert_with(measure::rss_kb);
    }
    let mut svc = svc.expect("at least one set-up");
    let setup_rss_kb = setup_rss_kb.expect("at least one set-up");
    phases.mark("setups");

    ctx.switch.set(false);
    let (measured, mut model) = http::run(w, &mut svc, args.seed, &ctx.plan, &ctx.switch);
    let mut layer = layer_counts(
        &measured,
        installed_in_slices(&measured),
        fleet::StoreDelta::default(),
    );
    phases.mark("slices");

    ctx.switch.set(args.trace);
    let mut extra_spans = Vec::new();
    if w.shape == Shape::MixedHttp {
        let (latencies, retries, burst_spans) =
            http::contention_burst(&mut svc, &mut model, ctx.plan.burst_pairs, &ctx.switch);
        extra_spans = burst_spans;
        layer.push(("contended_write_p50_us", measure::median(&latencies)));
        layer.push(("core.contended_retries_per_write", retries));
        phases.mark("burst");
    }
    let misses = http::check(w, &svc, &model);
    phases.mark("oracles");
    if args.trace {
        layer.extend(probes::http_rtts(
            w,
            args.seed,
            ctx.plan.probe_calls,
            svc.addr,
            spans,
        ));
        let h = svc.server.handle(0, 0);
        layer.push((
            "net.shard_invoke_rtt_p50_us",
            probes::shard_invoke(&h, ctx.plan.probe_calls, spans),
        ));
        phases.mark("probes-live");
    }
    let join_ms_per_group = svc.start_s * 1e3 / w.groups as f64;
    svc.server.shutdown();
    phases.mark("teardown");
    Ran {
        measured,
        setup_s,
        setup_rss_kb,
        join_ms_per_group,
        layer,
        misses,
        spans: extra_spans,
    }
}

fn run_fleet(ctx: &Ctx, spans: &mut trace::SpanBuf, phases: &mut Phases) -> Ran {
    let (w, args) = (ctx.w, ctx.args);
    let mut setup_s = Vec::new();
    let mut setup_rss_kb = None;
    let mut fleet: Option<fleet::Fleet> = None;
    while ctx.plan.another_setup(&setup_s) {
        let i = setup_s.len();
        if let Some(previous) = fleet.take() {
            previous.discard();
        }
        let f = fleet::setup(w, &ctx.scratch, i, spans);
        setup_s.push(f.setup_s);
        fleet = Some(f);
        setup_rss_kb.get_or_insert_with(measure::rss_kb);
    }
    let fleet = fleet.expect("at least one set-up");
    let setup_rss_kb = setup_rss_kb.expect("at least one set-up");
    let join_ms_per_group = fleet.setup_s * 1e3 / w.groups as f64;
    phases.mark("setups");

    ctx.switch.set(false);
    let (measured, mut model, stores) = fleet.run(w, args.seed, &ctx.plan, &ctx.switch);
    let mut layer = layer_counts(&measured, installed_in_slices(&measured), stores);
    phases.mark("slices");

    ctx.switch.set(args.trace);
    let mut misses = fleet.check(w, &model);
    phases.mark("oracles");
    let (blackouts, faults) = fleet.crash_and_recover(w, args.seed, &mut model, spans);
    misses.extend(faults);
    misses.extend(fleet.check(w, &model));
    layer.push(("recover_blackout_p50_ms", measure::median(&blackouts)));
    phases.mark("fault-recover");
    if args.trace {
        let h = fleet.probe_handle();
        layer.push((
            "net.shard_invoke_rtt_p50_us",
            probes::shard_invoke(&h, ctx.plan.probe_calls, spans),
        ));
        phases.mark("probes-live");
    }
    let (reopen_rate, records, faults) = fleet.torn_tail_reopen(args.seed, spans);
    eprintln!("reopened {records} records at {reopen_rate:.0}/s");
    misses.extend(faults);
    layer.push(("reopen_records_per_s", reopen_rate));
    phases.mark("fault-reopen");
    Ran {
        measured,
        setup_s,
        setup_rss_kb,
        join_ms_per_group,
        layer,
        misses,
        spans: Vec::new(),
    }
}

/// Runs one workload once, to the plan.
fn run(w: &Workload, args: &Args) -> Report {
    let started = Instant::now();
    let ctx = Ctx {
        w,
        args,
        plan: Plan::new(args.seconds, args.trace, args.smoke),
        switch: TraceSwitch::new(started),
        scratch: if w.shape == Shape::FleetEngine {
            fleet::store_root(w)
        } else {
            scratch_dir(w.name)
        },
    };
    let mut spans = ctx.switch.buf(0);
    let mut phases = Phases {
        last: started,
        done: Vec::new(),
    };
    let temp_fs = measure::filesystem_of(&ctx.scratch);
    eprintln!("{}: seed {}, {}", w.name, args.seed, ctx.plan.describe());

    // Set-up spans are recorded in a traced run; the slices flip the switch
    // themselves.
    ctx.switch.set(args.trace);
    let Ran {
        measured,
        setup_s,
        setup_rss_kb,
        join_ms_per_group,
        mut layer,
        mut misses,
        spans: extra_spans,
    } = if w.shape == Shape::FleetEngine {
        run_fleet(&ctx, &mut spans, &mut phases)
    } else {
        run_http(&ctx, &mut spans, &mut phases)
    };
    if args.trace {
        layer.extend(probes::offline(
            w,
            args.seed,
            ctx.plan.probe_calls,
            &ctx.scratch,
            &mut spans,
        ));
        layer.push((
            "core.engine_round_p50_us",
            probes::engine_round(w, args.seed, ctx.plan.round_calls, &mut spans),
        ));
        phases.mark("probes-offline");
    }

    let slices = slice_stats(&measured.samples, &measured.bounds);
    let med = |pick: fn(&SliceStats) -> f64| slice_median(&slices, pick);
    let end_to_end: Readings = vec![
        ("setup_s", measure::median(&setup_s)),
        ("setup_rss_mb", setup_rss_kb as f64 / 1024.0),
        ("updates_per_s", med(|s| s.updates_per_s)),
        ("cpu_ms_per_kupdate", med(|s| s.cpu_ms_per_kupdate)),
        ("op_p50_us", med(|s| s.op_p50_us)),
    ];

    layer.push(("op_p95_us", med(|s| s.op_p95_us)));
    layer.push(("op_p99_us", med(|s| s.op_p99_us)));
    layer.push(("read_p50_us", med(|s| s.read_p50_us)));
    layer.push(("read_p99_us", med(|s| s.read_p99_us)));
    layer.push(("veto_p50_us", med(|s| s.veto_p50_us)));
    layer.push(("core.join_ms_per_group", join_ms_per_group));
    layer.push(("bench.sched_lag_p99_us", med(|s| s.lag_p99_us)));
    layer.push(("bench.slice_spread", slice_spread(&slices)));
    layer.push(("bench.samples_per_slice", med(|s| s.ops as f64)));
    if w.shape == Shape::MixedHttp {
        // Over the whole timed part, not a median of slices: one stall in
        // one slice must show.
        let timed: Vec<&measure::Sample> = {
            let (from, to) = slice_window(&measured);
            measured
                .samples
                .iter()
                .filter(|s| s.at_ns >= from && s.at_ns < to)
                .collect()
        };
        let missed = timed
            .iter()
            .filter(|s| !s.ok || s.latency_ns > config::MIXED_SLO_US * 1_000)
            .count();
        layer.push((
            "bench.slo_miss_share",
            missed as f64 / timed.len().max(1) as f64,
        ));
    }
    if args.trace {
        // Even slices ran with spans on, odd ones with spans off.
        let side = |parity: usize| -> Vec<SliceStats> {
            slices.iter().skip(parity).step_by(2).cloned().collect()
        };
        let cost = |s: &[SliceStats]| slice_median(s, |x| x.cpu_ms_per_kupdate);
        layer.push((
            "bench.trace_overhead_share",
            cost(&side(0)) / cost(&side(1)).max(f64::MIN_POSITIVE) - 1.0,
        ));
        let derived = {
            let get = |name: &str| report::reading(&layer, name);
            let est = get("crypto.signs_per_update") * get("crypto.sign_us")
                + get("crypto.sig_verifies_per_update") * get("crypto.verify_us");
            let mut derived: Readings = vec![("crypto.est_us_per_update", est)];
            if w.shape == Shape::SyncHttp {
                let op_p50 = med(|s| s.op_p50_us);
                let covered = get("net.httpd_rtt_p50_us")
                    + get("net.shard_invoke_rtt_p50_us")
                    + est
                    + get("evidence.records_per_update") * get("evidence.mem_append_us")
                    + (w.parties - 1) as f64 * get("apps.order_validate_us")
                    + w.parties as f64 * get("apps.order_apply_us");
                derived.push((
                    "server.sync_overhead_us",
                    op_p50 - get("core.engine_round_p50_us"),
                ));
                derived.push(("bench.unattributed_share", 1.0 - covered / op_p50));
            }
            derived
        };
        layer.extend(derived);
    }

    let attempted = measured.samples.len() as u64;
    let failed = measured.samples.iter().filter(|s| !s.ok).count() as u64;
    if failed > 0 {
        misses.push(format!("{failed} of {attempted} operations failed"));
    }
    for m in &misses {
        eprintln!("ORACLE MISS: {m}");
    }
    eprintln!("set-ups took {setup_s:.3?} s");
    for (name, secs) in &phases.done {
        eprintln!("phase {name:<16} {secs:>7.2} s");
    }
    let mut all_spans = vec![spans];
    all_spans.extend(measured.spans);
    all_spans.extend(extra_spans);
    Report {
        workload: w.name,
        seed: args.seed,
        seconds: args.seconds,
        traced: args.trace,
        smoke: args.smoke,
        plan: ctx.plan.describe(),
        temp_fs,
        wall_s: started.elapsed().as_secs_f64(),
        phases: phases.done,
        correct: misses.is_empty(),
        misses,
        attempted: attempted.max(1),
        failed,
        end_to_end,
        per_layer: layer,
        slices,
        spans: all_spans,
    }
}

/// `[from, to)` of the timed slices, ns since the run's start.
fn slice_window(m: &Measured) -> (u64, u64) {
    (m.bounds[0].at_ns, m.bounds[m.bounds.len() - 1].at_ns)
}

fn installed_in_slices(m: &Measured) -> f64 {
    let (from, to) = slice_window(m);
    m.samples
        .iter()
        .filter(|s| s.at_ns >= from && s.at_ns < to)
        .map(|s| s.installed as f64)
        .sum()
}
