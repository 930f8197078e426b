//! Regenerates the experiment tables recorded in `EXPERIMENTS.md`.
//!
//! Usage: `cargo run -p b2b-bench --release --bin exp -- <e1|...|e10|etcp|all>`
//! (`exp-tcp` is accepted as an alias for `etcp`)
//!
//! Two more subcommands sit beside the benchmark sweeps:
//!
//! * `exp -- check --budget 500` — the E-CHK table (schedule exploration /
//!   mutation kills); a model-checking run, not a benchmark sweep. Optional
//!   `--seed S`, `--scenario ID` and `--emit DIR` (write the shrunk
//!   counterexample artifacts as JSON, each with a Chrome trace-event view
//!   of its distributed trace alongside).
//! * `exp -- trace [--seed S]` — runs the Figure-5 sharing scenario on the
//!   deterministic simulator with a fleet-wide flight recorder, prints an
//!   ASCII timeline per distributed trace and writes Chrome trace-event
//!   JSON (load in `chrome://tracing` or Perfetto) to `target/metrics/`.
//! * `exp -- eshard [--max-groups N] [--shards S]` — the E-SHARD sweep:
//!   16…10k coordination groups multiplexed over a fixed worker pool
//!   (`b2b-net::shard`), aggregate pipelined-update throughput per group
//!   count × batch k, recorded in the repo-root `BENCH_shard.json`.
//! * `exp -- eserve [--clients N] [--orders M] [--ops K]` — the E-SERVE
//!   closed-loop sweep against the `b2b-server` HTTP/JSON order service:
//!   N client threads over M orders in each of the three §3.3 modes,
//!   throughput and p50/p95/p99 per-request latency per mode, gated ≥ 1×
//!   the E-SHARD tcp per-group update rate at the same group count,
//!   recorded in the repo-root `BENCH_serve.json`.
//!
//! Besides its markdown table, every experiment merges the fleet-wide
//! metrics registries of all the fleets it ran and writes the result as
//! a JSON sidecar to `target/metrics/<exp>.metrics.json` (see
//! `EXPERIMENTS.md` for the format). Each sidecar carries a provenance
//! header — git commit, base seed, scenario, fabric — and a p50/p95/p99
//! digest of every histogram, so a stray file on disk is always
//! attributable to the build and run that produced it.

use b2b_bench::{append_blob_factory, counter_factory, enc, party, Crypto, Fleet};
use b2b_core::{ConnectStatus, Coordinator, CoordinatorConfig, DecisionRule, ObjectId, Outcome};
use b2b_crypto::{KeyPair, KeyRing, Signer, TimeMs};
use b2b_net::{FaultPlan, TcpConfig, TcpNet, ThreadedNet};
use b2b_telemetry::{names, MetricsSnapshot, Telemetry};
use std::time::{Duration, Instant};

fn main() {
    let mut which = std::env::args().nth(1).unwrap_or_else(|| "all".into());
    if which == "exp-tcp" {
        which = "etcp".into();
    }
    if which == "check" {
        let (base_seed, metrics) = echk_model_check(std::env::args().skip(2).collect());
        write_sidecar("echk", "sim", base_seed, &metrics);
        return;
    }
    if which == "trace" {
        trace_figure5(std::env::args().skip(2).collect());
        return;
    }
    if which == "eshard" {
        let (metrics, fabric) = eshard_sharded_fleet(std::env::args().skip(2).collect());
        let label = format!("sharded-{}", fabric.label());
        write_sidecar("eshard", &label, ESHARD_SEED, &metrics);
        return;
    }
    if which == "eserve" {
        let metrics = eserve_http_service(std::env::args().skip(2).collect());
        write_sidecar("eserve", "http+inproc", ESERVE_SEED, &metrics);
        return;
    }
    let known = [
        "all", "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "etcp",
    ];
    if !known.contains(&which.as_str()) {
        eprintln!(
            "unknown experiment '{which}'; expected one of: {} (or the check/trace subcommands)",
            known.join(", ")
        );
        std::process::exit(2);
    }
    let all = which == "all";
    type Experiment = fn() -> MetricsSnapshot;
    // (name, fabric, base seed, runner) — fabric and seed feed the sidecar
    // provenance header.
    let experiments: [(&str, &str, u64, Experiment); 11] = [
        ("e1", "sim", 1, e1_message_complexity),
        ("e2", "sim", 2, e2_protocol_latency),
        ("e3", "sim", 3, e3_overwrite_vs_update),
        ("e4", "sim", 4, e4_crypto_ablation),
        ("e5", "sim", 5, e5_modes),
        ("e6", "sim", 100, e6_liveness_under_faults),
        ("e7", "sim", 42, e7_recovery),
        ("e8", "sim", 7, e8_membership),
        ("e9", "sim", 9, e9_termination),
        ("e10", "sim+threaded", 10, e10_throughput),
        ("etcp", "tcp", 20, etcp_tcp_loopback),
    ];
    for (name, fabric, seed, run) in experiments {
        if all || which == name {
            let metrics = run();
            write_sidecar(name, fabric, seed, &metrics);
        }
    }
}

/// Best-effort commit id of the working tree; `"unknown"` outside git.
fn git_sha() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Minimal JSON string encoder for the hand-formatted sidecar envelope.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `{"<hist>":{"p50":..,"p95":..,"p99":..},...}` for every histogram in
/// the snapshot.
fn percentiles_json(metrics: &MetricsSnapshot) -> String {
    let mut out = String::from("{");
    for (i, (name, h)) in metrics.histograms.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{}:{{\"p50\":{},\"p95\":{},\"p99\":{}}}",
            json_str(name),
            h.p50(),
            h.p95(),
            h.p99()
        ));
    }
    out.push('}');
    out
}

/// Writes the merged metrics of one experiment as a JSON sidecar under
/// `target/metrics/` and prints the human-readable table.
///
/// The sidecar wraps the raw registry snapshot in a provenance header
/// (git commit, base seed, scenario, fabric) and a p50/p95/p99 digest of
/// every histogram.
fn write_sidecar(name: &str, fabric: &str, seed: u64, metrics: &MetricsSnapshot) {
    let dir = std::path::Path::new("target").join("metrics");
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("cannot create {}: {e}", dir.display());
        return;
    }
    let path = dir.join(format!("{name}.metrics.json"));
    let body = format!(
        "{{\"provenance\":{{\"git_sha\":{},\"seed\":{seed},\"scenario\":{},\"fabric\":{}}},\"percentiles\":{},\"metrics\":{}}}",
        json_str(&git_sha()),
        json_str(name),
        json_str(fabric),
        percentiles_json(metrics),
        metrics.to_json(),
    );
    match std::fs::write(&path, body) {
        Ok(()) => {
            println!("\nmetrics sidecar: {}", path.display());
            println!("{}", metrics.render_table());
        }
        Err(e) => eprintln!("cannot write {}: {e}", path.display()),
    }
}

/// `exp -- trace [--seed S]` — the Figure-5 sharing scenario with a
/// fleet-wide flight recorder: three organisations bring up a shared
/// counter (two sponsored connection rounds), coordinate three state
/// runs, and org2 leaves voluntarily. Every delivered message extends the
/// causal DAG of its round, so the assembler reconstructs one distributed
/// trace per root — printed as ASCII timelines and written as Chrome
/// trace-event JSON for `chrome://tracing` / Perfetto.
fn trace_figure5(args: Vec<String>) {
    use b2b_telemetry::{assemble, chrome_trace_json, RingRecorder};
    use std::sync::Arc;

    let mut seed = 5u64;
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--seed" => {
                seed = it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--seed takes a number");
                    std::process::exit(2);
                })
            }
            other => {
                eprintln!("unknown trace flag '{other}' (expected --seed)");
                std::process::exit(2);
            }
        }
    }

    let recorder = Arc::new(RingRecorder::new(16_384));
    let telemetry = Telemetry::with_sink(recorder.clone());
    let mut fleet = Fleet::with_telemetry(
        3,
        seed,
        CoordinatorConfig::default(),
        FaultPlan::new(),
        Crypto::Ed25519,
        true,
        telemetry,
    );
    fleet.setup_object("ledger", counter_factory);
    for (who, v) in [(0usize, 41u64), (1, 42), (2, 43)] {
        fleet.propose(who, "ledger", enc(v));
    }
    let oid = ObjectId::new("ledger");
    fleet.net.invoke(&party(2), move |c, ctx| {
        c.request_disconnect(&oid, ctx).unwrap();
    });
    fleet.run();

    let traces = assemble(&recorder.events());
    println!("\n## Distributed traces — Figure-5 sharing scenario (sim, seed {seed})\n");
    for t in &traces {
        println!("{}", t.ascii_timeline());
    }

    let dir = std::path::Path::new("target").join("metrics");
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("cannot create {}: {e}", dir.display());
        return;
    }
    let path = dir.join(format!("trace-sim-{seed}.trace.json"));
    match std::fs::write(&path, chrome_trace_json(&traces)) {
        Ok(()) => println!(
            "chrome trace: {} ({} traces) — open in chrome://tracing or ui.perfetto.dev",
            path.display(),
            traces.len()
        ),
        Err(e) => eprintln!("cannot write {}: {e}", path.display()),
    }
}

/// E1 — §7 message-efficiency claim: a state run costs 3(n−1) messages.
fn e1_message_complexity() -> MetricsSnapshot {
    let mut metrics = MetricsSnapshot::default();
    println!("\n## E1 — messages per state-coordination run vs group size\n");
    println!("| n parties | measured msgs | model 3(n-1) | bytes on wire |");
    println!("|---|---|---|---|");
    for n in [2usize, 4, 8, 12, 16] {
        let mut fleet = Fleet::new(n, 1);
        fleet.setup_object("c", counter_factory);
        let msgs_before = fleet.total_protocol_messages();
        let bytes_before = fleet.net.stats().bytes_sent;
        fleet.propose(0, "c", enc(7));
        let msgs = fleet.total_protocol_messages() - msgs_before;
        let bytes = fleet.net.stats().bytes_sent - bytes_before;
        println!("| {n} | {msgs} | {} | {bytes} |", 3 * (n - 1));
        metrics.merge(&fleet.metrics());
    }
    metrics
}

/// E2 — three-step protocol: completion latency vs group size and link delay.
fn e2_protocol_latency() -> MetricsSnapshot {
    let mut metrics = MetricsSnapshot::default();
    println!("\n## E2 — state-run completion latency (virtual time)\n");
    println!("| n parties | link delay | latency (all installed) | model 3d |");
    println!("|---|---|---|---|");
    for n in [2usize, 4, 8, 16] {
        for delay in [1u64, 10, 50] {
            let mut fleet = Fleet::with_options(
                n,
                2,
                CoordinatorConfig::default(),
                FaultPlan::new().delay(TimeMs(delay), TimeMs(delay)),
                Crypto::Ed25519,
                true,
            );
            fleet.setup_object("c", counter_factory);
            let t0 = fleet.net.now();
            let oid = ObjectId::new("c");
            fleet.net.invoke(&party(0), move |c, ctx| {
                c.propose_overwrite(&oid, enc(5), ctx).unwrap();
            });
            // Run until every party has installed.
            loop {
                let done = (0..n).all(|w| {
                    fleet.net.node(&party(w)).agreed_state(&ObjectId::new("c")) == Some(enc(5))
                });
                if done || !fleet.net.step() {
                    break;
                }
            }
            let latency = fleet.net.now() - t0;
            println!("| {n} | {delay}ms | {latency} | {}ms |", 3 * delay);
            metrics.merge(&fleet.metrics());
        }
    }
    metrics
}

/// E3 — §4.3.1 overwrite vs update for growing state.
fn e3_overwrite_vs_update() -> MetricsSnapshot {
    let mut metrics = MetricsSnapshot::default();
    println!("\n## E3 — overwrite vs update (64 B appended to a large state)\n");
    println!("| state size | mode | wire bytes/run | wall time/run |");
    println!("|---|---|---|---|");
    for size in [1usize << 10, 1 << 14, 1 << 18, 1 << 20] {
        for update_mode in [false, true] {
            let mut fleet = Fleet::new(3, 3);
            fleet.setup_object("blob", append_blob_factory);
            // Pre-grow the state to `size`.
            let base = vec![0xAB; size];
            fleet.propose(0, "blob", base.clone());
            let chunk = vec![0xCD; 64];
            let bytes_before = fleet.net.stats().bytes_sent;
            let t = Instant::now();
            let runs = 5;
            for i in 0..runs {
                if update_mode {
                    fleet.propose_update(i % 3, "blob", chunk.clone());
                } else {
                    let mut next = fleet
                        .net
                        .node(&party(0))
                        .agreed_state(&ObjectId::new("blob"))
                        .unwrap();
                    next.extend_from_slice(&chunk);
                    fleet.propose(i % 3, "blob", next);
                }
            }
            let wall = t.elapsed() / runs as u32;
            let wire = (fleet.net.stats().bytes_sent - bytes_before) / runs as u64;
            println!(
                "| {} KiB | {} | {} | {:?} |",
                size / 1024,
                if update_mode { "update" } else { "overwrite" },
                wire,
                wall
            );
            metrics.merge(&fleet.metrics());
        }
    }
    metrics
}

/// E4 — the cost of the non-repudiation machinery.
fn e4_crypto_ablation() -> MetricsSnapshot {
    let mut metrics = MetricsSnapshot::default();
    println!("\n## E4 — crypto ablation: Ed25519+TSA vs insecure signer\n");
    println!("| n parties | crypto | wall time / run |");
    println!("|---|---|---|");
    for n in [2usize, 4, 8] {
        for (label, crypto, tsa) in [
            ("ed25519 + TSA", Crypto::Ed25519, true),
            ("ed25519, no TSA", Crypto::Ed25519, false),
            ("insecure", Crypto::Insecure, false),
        ] {
            let mut fleet = Fleet::with_options(
                n,
                4,
                CoordinatorConfig::default(),
                FaultPlan::default(),
                crypto,
                tsa,
            );
            fleet.setup_object("c", counter_factory);
            let runs = 20u64;
            let t = Instant::now();
            for i in 0..runs {
                fleet.propose((i % n as u64) as usize, "c", enc(i + 1));
            }
            println!("| {n} | {label} | {:?} |", t.elapsed() / runs as u32);
            metrics.merge(&fleet.metrics());
        }
    }
    metrics
}

/// E5 — communication modes: sequential blocking vs pipelined deferred.
fn e5_modes() -> MetricsSnapshot {
    let mut metrics = MetricsSnapshot::default();
    println!("\n## E5 — sync (sequential) vs deferred (pipelined across objects)\n");
    println!("| objects | mode | virtual time for one update each |");
    println!("|---|---|---|");
    for k in [1usize, 4, 8, 16] {
        // Synchronous: one object, k sequential runs.
        let mut fleet = Fleet::new(2, 5);
        for i in 0..k {
            fleet.setup_object(&format!("obj{i}"), counter_factory);
        }
        let t0 = fleet.net.now();
        for i in 0..k {
            fleet.propose(0, &format!("obj{i}"), enc(1)); // runs to quiescence: sequential
        }
        let sync_time = fleet.net.now() - t0;
        metrics.merge(&fleet.metrics());
        // Deferred: fire all proposals, then drive once.
        let mut fleet = Fleet::new(2, 6);
        for i in 0..k {
            fleet.setup_object(&format!("obj{i}"), counter_factory);
        }
        let t0 = fleet.net.now();
        for i in 0..k {
            let oid = ObjectId::new(format!("obj{i}"));
            fleet.net.invoke(&party(0), move |c, ctx| {
                c.propose_overwrite(&oid, enc(1), ctx).unwrap();
            });
        }
        fleet.run();
        let deferred_time = fleet.net.now() - t0;
        metrics.merge(&fleet.metrics());
        println!("| {k} | sync | {sync_time} |");
        println!("| {k} | deferred | {deferred_time} |");
    }
    metrics
}

/// E6 — liveness despite temporary failures: completion under loss.
///
/// The retransmit column shows the cost of achieving that liveness. The
/// "fixed 200 ms" rows pin the backoff ceiling to the base interval,
/// reproducing the old constant-rate retransmitter; the "exp backoff"
/// rows are the default policy (base 200 ms, doubling per attempt,
/// capped at 32×). Liveness is identical; the retransmit count under
/// 30%+ loss is what changes.
fn e6_liveness_under_faults() -> MetricsSnapshot {
    let mut metrics = MetricsSnapshot::default();
    println!("\n## E6 — liveness under message loss (3 parties, retransmit base 200 ms)\n");
    println!("| retransmit policy | loss rate | runs completed | median completion (virtual) | retransmits (10 runs) |");
    println!("|---|---|---|---|---|");
    for (policy, cap) in [
        ("fixed 200 ms", Some(TimeMs(200))),
        ("exp backoff (default)", None),
    ] {
        for loss in [0.0f64, 0.1, 0.3, 0.5] {
            let mut completions = Vec::new();
            let mut completed = 0;
            let mut retransmits = 0u64;
            let total = 10;
            for seed in 0..total {
                let mut config = CoordinatorConfig::default();
                if let Some(max) = cap {
                    config = config.retransmit_max(max);
                }
                let mut fleet = Fleet::with_options(
                    3,
                    100 + seed,
                    config,
                    FaultPlan::new()
                        .drop_rate(loss)
                        .delay(TimeMs(1), TimeMs(10)),
                    Crypto::Ed25519,
                    false,
                );
                fleet.setup_object("c", counter_factory);
                let t0 = fleet.net.now();
                let run = fleet.propose(0, "c", enc(9));
                let installed_everywhere = (0..3).all(|w| {
                    fleet
                        .outcome(w, &run)
                        .map(|o| o.is_installed())
                        .unwrap_or(false)
                });
                if installed_everywhere {
                    completed += 1;
                    completions.push((fleet.net.now() - t0).as_millis());
                }
                let snap = fleet.metrics();
                retransmits += snap.counter(names::RETRANSMITS);
                metrics.merge(&snap);
            }
            completions.sort_unstable();
            let median = completions
                .get(completions.len() / 2)
                .map(|m| format!("{m}ms"))
                .unwrap_or_else(|| "-".into());
            println!(
                "| {policy} | {loss:.0}% | {completed}/{total} | {median} | {retransmits} |",
                loss = loss * 100.0
            );
        }
    }

    // Under iid loss a frame is retransmitted until acked, so both
    // policies pay roughly the lost-frame count. The storm the backoff
    // exists to tame is a *sustained* outage: the fixed-interval policy
    // probes an unreachable peer at a constant rate for the whole outage,
    // the backoff probes a logarithmic number of times.
    println!("\n### E6b — probe cost across a temporary partition (3 parties, one isolated)\n");
    println!("| retransmit policy | outage | run completes after heal | retransmits |");
    println!("|---|---|---|---|");
    for (policy, cap) in [
        ("fixed 200 ms", Some(TimeMs(200))),
        ("exp backoff (default)", None),
    ] {
        for outage in [2_000u64, 10_000, 30_000] {
            let mut config = CoordinatorConfig::default();
            if let Some(max) = cap {
                config = config.retransmit_max(max);
            }
            let mut fleet =
                Fleet::with_options(3, 42, config, FaultPlan::default(), Crypto::Ed25519, false);
            fleet.setup_object("c", counter_factory);
            let before = fleet.metrics().counter(names::RETRANSMITS);
            let t0 = fleet.net.now();
            fleet
                .net
                .partition([party(2)], [party(0), party(1)], t0 + TimeMs(outage));
            let run = fleet.propose(0, "c", enc(9));
            let ok = (0..3).all(|w| {
                fleet
                    .outcome(w, &run)
                    .map(|o| o.is_installed())
                    .unwrap_or(false)
            });
            let snap = fleet.metrics();
            let probes = snap.counter(names::RETRANSMITS) - before;
            println!("| {policy} | {outage}ms | {ok} | {probes} |");
            metrics.merge(&snap);
        }
    }
    metrics
}

/// E7 — crash recovery: a recipient crashes mid-run, recovers, completes.
fn e7_recovery() -> MetricsSnapshot {
    let mut metrics = MetricsSnapshot::default();
    println!("\n## E7 — recipient crash + recovery during a run\n");
    println!("| downtime | run completes | completion after recovery |");
    println!("|---|---|---|");
    for downtime in [500u64, 2_000, 10_000] {
        let mut fleet = Fleet::new(2, 7);
        fleet.setup_object("c", counter_factory);
        let t0 = fleet.net.now();
        fleet.net.crash_at(t0 + TimeMs(1), party(1));
        fleet.net.recover_at(t0 + TimeMs(downtime), party(1));
        let run = fleet.propose(0, "c", enc(5));
        let ok = (0..2).all(|w| {
            fleet
                .outcome(w, &run)
                .map(|o| o.is_installed())
                .unwrap_or(false)
        });
        let after_recovery = (fleet.net.now() - t0).saturating_sub(TimeMs(downtime));
        println!("| {downtime}ms | {ok} | +{after_recovery} |");
        metrics.merge(&fleet.metrics());
    }
    metrics
}

/// E8 — membership protocol cost vs group size.
fn e8_membership() -> MetricsSnapshot {
    let mut metrics = MetricsSnapshot::default();
    println!("\n## E8 — membership change cost vs group size\n");
    println!("| group n | change | measured msgs | model |");
    println!("|---|---|---|---|");
    for n in [2usize, 4, 8, 12] {
        // Connection into a group of n: 1 request + 3(n−1) + welcome.
        let mut fleet = Fleet::new(n + 1, 8);
        let joiner = n;
        // Build group of n first.
        let sub: Vec<usize> = (0..n).collect();
        fleet.net.invoke(&party(0), |c, _| {
            c.register_object(ObjectId::new("c"), Box::new(counter_factory))
                .unwrap();
        });
        for i in 1..n {
            let sponsor = party(i - 1);
            fleet.net.invoke(&party(i), move |c, ctx| {
                c.request_connect(ObjectId::new("c"), Box::new(counter_factory), sponsor, ctx)
                    .unwrap();
            });
            fleet.run();
        }
        let before = fleet.total_protocol_messages();
        let sponsor = party(n - 1);
        fleet.net.invoke(&party(joiner), move |c, ctx| {
            c.request_connect(ObjectId::new("c"), Box::new(counter_factory), sponsor, ctx)
                .unwrap();
        });
        fleet.run();
        assert_eq!(
            fleet
                .net
                .node(&party(joiner))
                .connect_status(&ObjectId::new("c")),
            Some(&ConnectStatus::Member)
        );
        let connect_msgs = fleet.total_protocol_messages() - before;
        println!("| {n} | connect | {connect_msgs} | 3n-1 = {} |", 3 * n - 1);

        // Eviction of one member from the (n+1)-group by the sponsor.
        let before = fleet.total_protocol_messages();
        let evictee = party(0);
        fleet.net.invoke(&party(joiner), move |c, ctx| {
            c.request_evict(&ObjectId::new("c"), vec![evictee], ctx)
                .unwrap();
        });
        fleet.run();
        let evict_msgs = fleet.total_protocol_messages() - before;
        println!(
            "| {} | evict 1 (by sponsor) | {evict_msgs} | 3(n-1) = {} |",
            n + 1,
            3 * (n + 1 - 2)
        );
        let _ = sub;
        metrics.merge(&fleet.metrics());
    }
    metrics
}

/// E9 — §7 termination extensions: deadlines and majority decision.
fn e9_termination() -> MetricsSnapshot {
    let mut metrics = MetricsSnapshot::default();
    println!("\n## E9 — termination extensions (one silent party)\n");
    println!("| rule | deadline | outcome at proposer | time to resolution |");
    println!("|---|---|---|---|");
    for (rule, ttp, label) in [
        (DecisionRule::Unanimous, false, "unanimous (local abort)"),
        (
            DecisionRule::Unanimous,
            true,
            "unanimous + TTP (certified abort)",
        ),
        (DecisionRule::Majority, false, "majority (resolve)"),
    ] {
        for deadline in [500u64, 2_000] {
            let mut config = CoordinatorConfig::new()
                .decision_rule(rule)
                .run_deadline(TimeMs(deadline));
            if ttp {
                config = config.ttp(b2b_crypto::PartyId::new("notary"));
            }
            let mut fleet =
                Fleet::with_options(5, 9, config, FaultPlan::default(), Crypto::Ed25519, false);
            if ttp {
                b2b_bench::add_notary(&mut fleet, 77);
            }
            fleet.setup_object("c", counter_factory);
            let t0 = fleet.net.now();
            // org4 goes silent forever.
            fleet.net.partition(
                [party(4)],
                (0..4).map(party).collect::<Vec<_>>(),
                TimeMs(u64::MAX),
            );
            let oid = ObjectId::new("c");
            let run = fleet.net.invoke(&party(0), move |c, ctx| {
                c.propose_overwrite(&oid, enc(5), ctx).unwrap()
            });
            // Step until the proposer records an outcome (the silent peer
            // keeps retransmission alive forever, so quiescence never comes).
            let resolved_at = loop {
                if fleet.outcome(0, &run).is_some() {
                    break Some(fleet.net.now());
                }
                if fleet.net.now() - t0 > TimeMs(60_000) || !fleet.net.step() {
                    break None;
                }
            };
            let outcome = match fleet.outcome(0, &run) {
                Some(Outcome::Installed { .. }) => "installed",
                Some(Outcome::Invalidated { .. }) => "invalidated",
                Some(Outcome::Aborted { .. }) => "aborted",
                None => "blocked",
            };
            let elapsed = resolved_at
                .map(|t| (t - t0).to_string())
                .unwrap_or_else(|| ">60000ms".into());
            println!("| {label} | {deadline}ms | {outcome} | {elapsed} |");
            metrics.merge(&fleet.metrics());
        }
    }
    metrics
}

// ---------------------------------------------------------------------
// E10 — protocol throughput (the perf-pass regression anchor)
// ---------------------------------------------------------------------

/// Pre-optimisation reference numbers for the E10 workload, measured on
/// this machine class at the commit immediately before the perf pass
/// (memoized canonical digests, signature-verification cache, multicast
/// fan-out, group-commit WAL) landed, release build, identical seeds.
/// They are recorded in `BENCH_protocol.json` so future PRs can
/// regress-check the trajectory.
mod e10_baseline {
    /// Simulator transport, n=4 sync update workload: runs per second.
    pub const SIM_RUNS_PER_SEC: f64 = 32.99;
    /// Simulator transport: signature verifications per run.
    pub const SIM_VERIFIES_PER_RUN: f64 = 15.0;
    /// Threaded transport, n=4 sync update workload: runs per second.
    pub const THREADED_RUNS_PER_SEC: f64 = 63.59;
    /// Threaded transport: signature verifications per run.
    pub const THREADED_VERIFIES_PER_RUN: f64 = 15.0;
    /// Pre-batching sync-workload throughput (the commit immediately
    /// before pipelined/batched rounds landed) — the k=1 regression gate:
    /// the pipelined path at `batch_max = 1` losing more than 10% against
    /// these numbers fails the bench job.
    pub const PRE_BATCH_SIM_RUNS_PER_SEC: f64 = 56.31;
    /// Threaded-transport counterpart of the k=1 regression gate anchor.
    pub const PRE_BATCH_THREADED_RUNS_PER_SEC: f64 = 85.61;
}

/// One transport's measured E10 numbers.
struct E10Sample {
    transport: &'static str,
    runs: u64,
    wall: Duration,
    sig_verifies: u64,
    cache_hits: u64,
    canonical_hits: u64,
    fanout_avoided: u64,
}

impl E10Sample {
    fn runs_per_sec(&self) -> f64 {
        self.runs as f64 / self.wall.as_secs_f64()
    }
    fn per_run(&self, count: u64) -> f64 {
        count as f64 / self.runs as f64
    }
}

/// Counter deltas between two snapshots, attributed to the measured loop.
fn e10_delta(tel: &Telemetry, before: &MetricsSnapshot, name: &str) -> u64 {
    tel.metrics().snapshot().counter(name) - before.counter(name)
}

/// `(count, sum)` delta of a histogram between two snapshots.
fn e10_hist_delta(tel: &Telemetry, before: &MetricsSnapshot, name: &str) -> (u64, u64) {
    let get = |snap: &MetricsSnapshot| {
        snap.histogram(name)
            .map(|h| (h.count, h.sum))
            .unwrap_or((0, 0))
    };
    let (c0, s0) = get(before);
    let (c1, s1) = get(&tel.metrics().snapshot());
    (c1 - c0, s1 - s0)
}

const E10_N: usize = 4;
const E10_CHUNK: usize = 16;

/// Sync-mode update workload on the deterministic simulator.
fn e10_sim(runs: u64) -> (E10Sample, MetricsSnapshot) {
    let mut fleet = Fleet::with_options(
        E10_N,
        10,
        CoordinatorConfig::default(),
        FaultPlan::default(),
        Crypto::Ed25519,
        false,
    );
    fleet.setup_object("blob", append_blob_factory);
    for i in 0..3u64 {
        // Warm-up: populate caches/pages outside the measured window.
        fleet.propose_update((i % E10_N as u64) as usize, "blob", vec![0xEE; E10_CHUNK]);
    }
    let before = fleet.metrics();
    let t = Instant::now();
    for i in 0..runs {
        fleet.propose_update((i % E10_N as u64) as usize, "blob", vec![0xEE; E10_CHUNK]);
    }
    let wall = t.elapsed();
    let tel = &fleet.telemetry;
    let sample = E10Sample {
        transport: "sim",
        runs,
        wall,
        sig_verifies: e10_delta(tel, &before, names::SIG_VERIFY_COUNT),
        cache_hits: e10_delta(tel, &before, names::SIG_CACHE_HITS),
        canonical_hits: e10_delta(tel, &before, names::CANONICAL_CACHE_HITS),
        fanout_avoided: e10_delta(tel, &before, names::FANOUT_SERIALIZATIONS_AVOIDED),
    };
    (sample, fleet.metrics())
}

/// Sync-mode update workload over real threads and channels.
fn e10_threaded(runs: u64) -> (E10Sample, MetricsSnapshot) {
    let telemetry = Telemetry::new();
    let mut ring = KeyRing::new();
    let mut keys = Vec::new();
    for i in 0..E10_N {
        let kp = KeyPair::generate_from_seed(1000 + i as u64);
        ring.register(party(i), kp.public_key());
        keys.push(kp);
    }
    let nodes = keys
        .into_iter()
        .enumerate()
        .map(|(i, kp)| {
            Coordinator::builder(party(i), kp)
                .ring(ring.clone())
                .seed(10 + i as u64)
                .telemetry(telemetry.clone())
                .build()
        })
        .collect();
    let net = ThreadedNet::spawn(nodes);
    let oid = ObjectId::new("blob");
    net.handle(&party(0)).invoke({
        let oid = oid.clone();
        move |c, _| {
            c.register_object(oid, Box::new(append_blob_factory))
                .unwrap();
        }
    });
    for i in 1..E10_N {
        let sponsor = party(i - 1);
        let h = net.handle(&party(i));
        let o = oid.clone();
        h.invoke(move |c, ctx| {
            c.request_connect(o, Box::new(append_blob_factory), sponsor, ctx)
                .unwrap();
        });
        let o = oid.clone();
        assert!(
            h.wait_until(Duration::from_secs(30), move |c| c.is_member(&o)),
            "org{i} failed to join"
        );
    }
    // Sync mode: every proposal comes from org0 and the next one starts
    // only once org0 has its outcome (per-link FIFO keeps recipients in
    // step). The proposer's own replica goes idle a beat after the
    // outcome lands, so wait out that window before proposing again.
    let h0 = net.handle(&party(0)).clone();
    let one_run = |i: u64| {
        let o = oid.clone();
        h0.wait_until(Duration::from_secs(30), move |c| !c.is_busy(&o));
        let o = oid.clone();
        let run =
            h0.invoke(move |c, ctx| c.propose_update(&o, vec![0xEE; E10_CHUNK], ctx).unwrap());
        assert!(
            h0.wait_until(Duration::from_secs(30), move |c| c
                .outcome_of(&run)
                .is_some()),
            "run {i} did not complete"
        );
    };
    for i in 0..3 {
        one_run(i);
    }
    let before = telemetry.metrics().snapshot();
    let t = Instant::now();
    for i in 0..runs {
        one_run(i);
    }
    let wall = t.elapsed();
    let sample = E10Sample {
        transport: "threaded",
        runs,
        wall,
        sig_verifies: e10_delta(&telemetry, &before, names::SIG_VERIFY_COUNT),
        cache_hits: e10_delta(&telemetry, &before, names::SIG_CACHE_HITS),
        canonical_hits: e10_delta(&telemetry, &before, names::CANONICAL_CACHE_HITS),
        fanout_avoided: e10_delta(&telemetry, &before, names::FANOUT_SERIALIZATIONS_AVOIDED),
    };
    let snap = telemetry.metrics().snapshot();
    net.shutdown();
    (sample, snap)
}

/// One (transport, batch_max) cell of the E10 batch axis: `updates`
/// application updates pushed through `submit_update` while earlier
/// rounds are still in flight, so queued updates coalesce into batched
/// rounds of at most `k`.
struct BatchSample {
    transport: &'static str,
    k: usize,
    updates: u64,
    wall: Duration,
    /// Proposer-side rounds (the `batch_occupancy` histogram count —
    /// `rounds_started` counts every party's view of a round).
    rounds: u64,
    coalesced: u64,
    sig_verifies: u64,
}

impl BatchSample {
    fn updates_per_sec(&self) -> f64 {
        self.updates as f64 / self.wall.as_secs_f64()
    }
    fn verifies_per_update(&self) -> f64 {
        self.sig_verifies as f64 / self.updates as f64
    }
    fn mean_occupancy(&self) -> f64 {
        self.updates as f64 / self.rounds.max(1) as f64
    }
}

/// Pipelined update workload on the deterministic simulator: all updates
/// submitted up front, the coordinator batches the backlog.
fn e10_batched_sim(updates: u64, k: usize) -> (BatchSample, MetricsSnapshot) {
    let mut fleet = Fleet::with_options(
        E10_N,
        10,
        CoordinatorConfig::default().batch_max(k),
        FaultPlan::default(),
        Crypto::Ed25519,
        false,
    );
    fleet.setup_object("blob", append_blob_factory);
    for i in 0..3u64 {
        fleet.propose_update((i % E10_N as u64) as usize, "blob", vec![0xEE; E10_CHUNK]);
    }
    let before = fleet.metrics();
    let t = Instant::now();
    let oid = ObjectId::new("blob");
    let tickets = fleet.net.invoke(&party(0), move |c, ctx| {
        (0..updates)
            .map(|_| c.submit_update(&oid, vec![0xEE; E10_CHUNK], ctx).unwrap())
            .collect::<Vec<_>>()
    });
    fleet.run();
    let wall = t.elapsed();
    let installed = {
        let node = fleet.net.node(&party(0));
        tickets
            .iter()
            .filter(|t| node.outcome_of_ticket(t).is_some_and(|o| o.is_installed()))
            .count() as u64
    };
    assert_eq!(installed, updates, "every pipelined update must install");
    let tel = &fleet.telemetry;
    let (rounds, occupancy_sum) = e10_hist_delta(tel, &before, names::BATCH_OCCUPANCY);
    assert_eq!(
        occupancy_sum, updates,
        "every update rode exactly one round"
    );
    let sample = BatchSample {
        transport: "sim",
        k,
        updates,
        wall,
        rounds,
        coalesced: e10_delta(tel, &before, names::ROUNDS_COALESCED),
        sig_verifies: e10_delta(tel, &before, names::SIG_VERIFY_COUNT),
    };
    (sample, fleet.metrics())
}

/// Pipelined update workload over real threads and channels, with one
/// shared signature-verification pool attached to every coordinator (the
/// cross-group parallel-verify configuration: many coordinators, one
/// worker pool).
fn e10_batched_threaded(updates: u64, k: usize) -> (BatchSample, MetricsSnapshot) {
    use b2b_core::TicketId;
    let telemetry = Telemetry::new();
    let pool = std::sync::Arc::new(b2b_crypto::VerifyPool::with_default_parallelism());
    let mut ring = KeyRing::new();
    let mut keys = Vec::new();
    for i in 0..E10_N {
        let kp = KeyPair::generate_from_seed(1000 + i as u64);
        ring.register(party(i), kp.public_key());
        keys.push(kp);
    }
    let nodes = keys
        .into_iter()
        .enumerate()
        .map(|(i, kp)| {
            Coordinator::builder(party(i), kp)
                .ring(ring.clone())
                .config(CoordinatorConfig::default().batch_max(k))
                .seed(10 + i as u64)
                .telemetry(telemetry.clone())
                .verify_pool(pool.clone())
                .build()
        })
        .collect();
    let net = ThreadedNet::spawn(nodes);
    let oid = ObjectId::new("blob");
    net.handle(&party(0)).invoke({
        let oid = oid.clone();
        move |c, _| {
            c.register_object(oid, Box::new(append_blob_factory))
                .unwrap();
        }
    });
    for i in 1..E10_N {
        let sponsor = party(i - 1);
        let h = net.handle(&party(i));
        let o = oid.clone();
        h.invoke(move |c, ctx| {
            c.request_connect(o, Box::new(append_blob_factory), sponsor, ctx)
                .unwrap();
        });
        let o = oid.clone();
        assert!(
            h.wait_until(Duration::from_secs(30), move |c| c.is_member(&o)),
            "org{i} failed to join"
        );
    }
    let h0 = net.handle(&party(0)).clone();
    for _ in 0..3 {
        // Warm-up (sync): caches hot, channels established. The replica
        // goes idle a beat after the previous outcome lands, so wait out
        // that window rather than racing a busy-rejection.
        let o = oid.clone();
        h0.wait_until(Duration::from_secs(30), move |c| !c.is_busy(&o));
        let o = oid.clone();
        let run =
            h0.invoke(move |c, ctx| c.propose_update(&o, vec![0xEE; E10_CHUNK], ctx).unwrap());
        assert!(h0.wait_until(Duration::from_secs(30), move |c| c
            .outcome_of(&run)
            .is_some()));
    }
    let before = telemetry.metrics().snapshot();
    let t = Instant::now();
    let o = oid.clone();
    let tickets: Vec<TicketId> = h0.invoke(move |c, ctx| {
        (0..updates)
            .map(|_| c.submit_update(&o, vec![0xEE; E10_CHUNK], ctx).unwrap())
            .collect()
    });
    let watched = tickets.clone();
    assert!(
        h0.wait_until(Duration::from_secs(60), move |c| watched
            .iter()
            .all(|t| c.outcome_of_ticket(t).is_some())),
        "pipelined updates did not all complete"
    );
    let wall = t.elapsed();
    let installed = h0.read({
        let tickets = tickets.clone();
        move |c| {
            tickets
                .iter()
                .filter(|t| c.outcome_of_ticket(t).is_some_and(|o| o.is_installed()))
                .count() as u64
        }
    });
    assert_eq!(installed, updates, "every pipelined update must install");
    let (rounds, occupancy_sum) = e10_hist_delta(&telemetry, &before, names::BATCH_OCCUPANCY);
    assert_eq!(
        occupancy_sum, updates,
        "every update rode exactly one round"
    );
    let sample = BatchSample {
        transport: "threaded",
        k,
        updates,
        wall,
        rounds,
        coalesced: e10_delta(&telemetry, &before, names::ROUNDS_COALESCED),
        sig_verifies: e10_delta(&telemetry, &before, names::SIG_VERIFY_COUNT),
    };
    let snap = telemetry.metrics().snapshot();
    net.shutdown();
    (sample, snap)
}

/// E10 — k back-to-back update runs over n parties on both transports:
/// runs/sec, verifications per run, and cache work avoided, with the
/// pre-optimisation baseline recorded alongside in `BENCH_protocol.json`.
/// The batch axis then re-runs the workload through the pipelined
/// `submit_update` path at `batch_max` ∈ {1, 4, 16}.
fn e10_throughput() -> MetricsSnapshot {
    let mut metrics = MetricsSnapshot::default();
    println!("\n## E10 — protocol throughput (n=4, sync update workload)\n");
    println!("| transport | runs | runs/sec | sig verifies/run | cache hits/run | canonical memo hits/run | fan-out serialisations avoided/run |");
    println!("|---|---|---|---|---|---|---|");
    let (sim, sim_metrics) = e10_sim(200);
    let (threaded, threaded_metrics) = e10_threaded(240);
    for s in [&sim, &threaded] {
        println!(
            "| {} | {} | {:.1} | {:.2} | {:.2} | {:.2} | {:.2} |",
            s.transport,
            s.runs,
            s.runs_per_sec(),
            s.per_run(s.sig_verifies),
            s.per_run(s.cache_hits),
            s.per_run(s.canonical_hits),
            s.per_run(s.fanout_avoided),
        );
    }
    metrics.merge(&sim_metrics);
    metrics.merge(&threaded_metrics);

    println!("\n## E10 batch axis — pipelined `submit_update`, batched rounds (n=4)\n");
    println!("| transport | batch_max | updates | updates/sec | rounds | mean occupancy | rounds coalesced | sig verifies/update |");
    println!("|---|---|---|---|---|---|---|---|");
    let mut batch = Vec::new();
    for k in [1usize, 4, 16] {
        let (s, m) = e10_batched_sim(192, k);
        metrics.merge(&m);
        batch.push(s);
        let (s, m) = e10_batched_threaded(192, k);
        metrics.merge(&m);
        batch.push(s);
    }
    batch.sort_by_key(|s| (s.transport, s.k));
    for s in &batch {
        println!(
            "| {} | {} | {} | {:.1} | {} | {:.2} | {} | {:.2} |",
            s.transport,
            s.k,
            s.updates,
            s.updates_per_sec(),
            s.rounds,
            s.mean_occupancy(),
            s.coalesced,
            s.verifies_per_update(),
        );
    }

    // The k=1 regression gate: the pipelined path with batching disabled
    // must stay within 10% of this run's own sync throughput on the same
    // transport. A round is now ~1.5 ms of work, so a single sub-second
    // sample can lose 10% to scheduler noise alone; a transport that
    // fails the first comparison gets re-measured on fresh fleets — a
    // real k=1 regression fails every attempt, noise does not. Set
    // E10_NO_GATE=1 to record without enforcing (noisy shared machines).
    let first_gate = |transport: &str| {
        let anchor = match transport {
            "sim" => sim.runs_per_sec(),
            _ => threaded.runs_per_sec(),
        };
        batch
            .iter()
            .filter(|s| s.k == 1 && s.transport == transport)
            .all(|s| s.updates_per_sec() >= 0.9 * anchor)
    };
    let mut gate_attempts = 1u32;
    let mut gate_ok = true;
    for transport in ["sim", "threaded"] {
        let mut ok = first_gate(transport);
        let mut attempt = 1;
        while !ok && attempt < 3 {
            attempt += 1;
            gate_attempts = gate_attempts.max(attempt);
            let (anchor, k1) = match transport {
                "sim" => (e10_sim(200).0.runs_per_sec(), {
                    let (s, m) = e10_batched_sim(192, 1);
                    metrics.merge(&m);
                    s.updates_per_sec()
                }),
                _ => (e10_threaded(240).0.runs_per_sec(), {
                    let (s, m) = e10_batched_threaded(192, 1);
                    metrics.merge(&m);
                    s.updates_per_sec()
                }),
            };
            ok = k1 >= 0.9 * anchor;
            println!(
                "gate re-measure ({transport}, attempt {attempt}): k=1 {k1:.1}/s vs sync {anchor:.1}/s → {}",
                if ok { "pass" } else { "fail" }
            );
        }
        gate_ok &= ok;
    }
    write_bench_protocol(&sim, &threaded, &batch, gate_ok, gate_attempts);
    if !gate_ok {
        eprintln!(
            "E10 FAIL: k=1 pipelined throughput regressed >10% against the pre-batching baseline"
        );
        if std::env::var_os("E10_NO_GATE").is_none() {
            std::process::exit(1);
        }
        eprintln!("(E10_NO_GATE set: recording the regression without failing)");
    }
    metrics
}

/// Writes the repo-root `BENCH_protocol.json` trajectory file: the fixed
/// pre-optimisation baseline plus this run's measurement and the batch
/// axis, so future PRs can regress-check both the deterministic counters
/// and the indicative wall-clock throughput. `gate_ok`/`gate_attempts`
/// record the caller's k=1 regression-gate verdict (see
/// [`e10_throughput`]) in the trajectory document.
fn write_bench_protocol(
    sim: &E10Sample,
    threaded: &E10Sample,
    batch: &[BatchSample],
    gate_ok: bool,
    gate_attempts: u32,
) {
    // The vendored serde_json is a minimal encoder (no Value/json! macro),
    // so the trajectory document is formatted by hand.
    let entry = |s: &E10Sample, base_rps: f64, base_vpr: f64| {
        let speedup = if base_rps > 0.0 {
            s.runs_per_sec() / base_rps
        } else {
            0.0
        };
        format!(
            concat!(
                "{{\n",
                "      \"runs\": {},\n",
                "      \"wall_ms\": {:.3},\n",
                "      \"runs_per_sec\": {:.2},\n",
                "      \"sig_verifies_per_run\": {:.3},\n",
                "      \"sig_cache_hits_per_run\": {:.3},\n",
                "      \"canonical_cache_hits_per_run\": {:.3},\n",
                "      \"fanout_serializations_avoided_per_run\": {:.3},\n",
                "      \"baseline\": {{ \"runs_per_sec\": {:.2}, \"sig_verifies_per_run\": {:.3} }},\n",
                "      \"speedup_vs_baseline\": {:.3}\n",
                "    }}"
            ),
            s.runs,
            s.wall.as_secs_f64() * 1e3,
            s.runs_per_sec(),
            s.per_run(s.sig_verifies),
            s.per_run(s.cache_hits),
            s.per_run(s.canonical_hits),
            s.per_run(s.fanout_avoided),
            base_rps,
            base_vpr,
            speedup,
        )
    };
    let pre_batch = |s: &BatchSample| match s.transport {
        "sim" => e10_baseline::PRE_BATCH_SIM_RUNS_PER_SEC,
        _ => e10_baseline::PRE_BATCH_THREADED_RUNS_PER_SEC,
    };
    let batch_entries: Vec<String> = batch
        .iter()
        .map(|s| {
            format!(
                concat!(
                    "    \"{}_k{}\": {{\n",
                    "      \"batch_max\": {},\n",
                    "      \"updates\": {},\n",
                    "      \"wall_ms\": {:.3},\n",
                    "      \"updates_per_sec\": {:.2},\n",
                    "      \"rounds\": {},\n",
                    "      \"rounds_coalesced\": {},\n",
                    "      \"mean_batch_occupancy\": {:.3},\n",
                    "      \"sig_verifies_per_update\": {:.3},\n",
                    "      \"speedup_vs_pre_batch_sync\": {:.3}\n",
                    "    }}"
                ),
                s.transport,
                s.k,
                s.k,
                s.updates,
                s.wall.as_secs_f64() * 1e3,
                s.updates_per_sec(),
                s.rounds,
                s.coalesced,
                s.mean_occupancy(),
                s.verifies_per_update(),
                s.updates_per_sec() / pre_batch(s),
            )
        })
        .collect();
    let body = format!(
        concat!(
            "{{\n",
            "  \"experiment\": \"e10\",\n",
            "  \"workload\": {{\n",
            "    \"parties\": {},\n",
            "    \"mode\": \"sync update\",\n",
            "    \"chunk_bytes\": {},\n",
            "    \"crypto\": \"ed25519, no TSA\"\n",
            "  }},\n",
            "  \"transports\": {{\n",
            "    \"sim\": {},\n",
            "    \"threaded\": {}\n",
            "  }},\n",
            "  \"batch_axis\": {{\n",
            "{}\n",
            "  }},\n",
            "  \"batch_gate\": {{\n",
            "    \"pre_batch_sync_runs_per_sec\": {{ \"sim\": {:.2}, \"threaded\": {:.2} }},\n",
            "    \"sync_anchor_this_run\": {{ \"sim\": {:.2}, \"threaded\": {:.2} }},\n",
            "    \"measure_attempts\": {},\n",
            "    \"k1_within_10_percent_of_sync\": {}\n",
            "  }}\n",
            "}}\n"
        ),
        E10_N,
        E10_CHUNK,
        entry(
            sim,
            e10_baseline::SIM_RUNS_PER_SEC,
            e10_baseline::SIM_VERIFIES_PER_RUN
        ),
        entry(
            threaded,
            e10_baseline::THREADED_RUNS_PER_SEC,
            e10_baseline::THREADED_VERIFIES_PER_RUN
        ),
        batch_entries.join(",\n"),
        e10_baseline::PRE_BATCH_SIM_RUNS_PER_SEC,
        e10_baseline::PRE_BATCH_THREADED_RUNS_PER_SEC,
        sim.runs_per_sec(),
        threaded.runs_per_sec(),
        gate_attempts,
        gate_ok,
    );
    match std::fs::write("BENCH_protocol.json", body) {
        Ok(()) => println!("\ntrajectory file: BENCH_protocol.json"),
        Err(e) => eprintln!("cannot write BENCH_protocol.json: {e}"),
    }
}

// ---------------------------------------------------------------------
// E-TCP — latency and throughput over real loopback sockets
// ---------------------------------------------------------------------

/// E-TCP — sync-run latency and throughput over `b2b-net::tcp` loopback
/// sockets: the same n=2/n=4 counter workload the other transports run,
/// but with every protocol message crossing a real OS socket (framing,
/// syscalls, kernel loopback scheduling). The frames/bytes columns come
/// from the transport's own counters, so the wire cost per run is exact;
/// the `tcp_*` columns are the same counters as seen by the telemetry
/// registry, which a live Prometheus scrape endpoint serves for the
/// duration of each sweep.
fn etcp_tcp_loopback() -> MetricsSnapshot {
    use b2b_net::ScrapeServer;
    let mut metrics = MetricsSnapshot::default();
    println!("\n## E-TCP — sync-run latency and throughput over TCP loopback sockets\n");
    println!("| n parties | runs | median latency | mean latency | runs/sec | frames on wire | bytes on wire | connects | reconnects | tcp_frames_sent | tcp_bytes_sent |");
    println!("|---|---|---|---|---|---|---|---|---|---|---|");
    for n in [2usize, 4] {
        let telemetry = Telemetry::new();
        let scrape = ScrapeServer::bind(telemetry.metrics().clone()).ok();
        if let Some(s) = &scrape {
            println!();
            println!(
                "live metrics while n={n} runs: curl http://{}/metrics",
                s.addr()
            );
        }
        let mut ring = KeyRing::new();
        let mut keys = Vec::new();
        for i in 0..n {
            let kp = KeyPair::generate_from_seed(1000 + i as u64);
            ring.register(party(i), kp.public_key());
            keys.push(kp);
        }
        let nodes: Vec<Coordinator> = keys
            .into_iter()
            .enumerate()
            .map(|(i, kp)| {
                Coordinator::builder(party(i), kp)
                    .ring(ring.clone())
                    .seed(20 + i as u64)
                    .telemetry(telemetry.clone())
                    .build()
            })
            .collect();
        let net = TcpNet::spawn_loopback_with(nodes, TcpConfig::new().telemetry(telemetry.clone()))
            .expect("bind loopback listeners");
        let oid = ObjectId::new("c");
        net.handle(&party(0)).invoke({
            let oid = oid.clone();
            move |c, _| {
                c.register_object(oid, Box::new(counter_factory)).unwrap();
            }
        });
        for i in 1..n {
            let sponsor = party(i - 1);
            let h = net.handle(&party(i));
            let o = oid.clone();
            h.invoke(move |c, ctx| {
                c.request_connect(o, Box::new(counter_factory), sponsor, ctx)
                    .unwrap();
            });
            let o = oid.clone();
            assert!(
                h.wait_until(Duration::from_secs(30), move |c| c.is_member(&o)),
                "org{i} failed to join over TCP"
            );
        }
        // Sync workload: org0 proposes, waits for its outcome, repeats.
        let h0 = net.handle(&party(0)).clone();
        let one_run = |v: u64| -> Duration {
            // The outcome lands at the proposer a beat before its replica
            // goes idle; wait out that window so the next proposal is
            // never busy-rejected.
            let o = oid.clone();
            h0.wait_until(Duration::from_secs(30), move |c| !c.is_busy(&o));
            let o = oid.clone();
            let t = Instant::now();
            let run = h0.invoke(move |c, ctx| c.propose_overwrite(&o, enc(v), ctx).unwrap());
            assert!(
                h0.wait_until(Duration::from_secs(30), move |c| c
                    .outcome_of(&run)
                    .is_some()),
                "run for value {v} did not complete"
            );
            t.elapsed()
        };
        for v in 1..=3u64 {
            one_run(v); // warm-up: connections established, caches hot
        }
        let runs = 50u64;
        let frames_before = net.stats().sent;
        let bytes_before = net.stats().bytes_sent;
        let mut latencies = Vec::with_capacity(runs as usize);
        let t = Instant::now();
        for v in 0..runs {
            latencies.push(one_run(10 + v));
        }
        let wall = t.elapsed();
        let stats = net.stats();
        latencies.sort_unstable();
        let median = latencies[latencies.len() / 2];
        let mean = wall / runs as u32;
        let snap = telemetry.metrics().snapshot();
        println!(
            "| {n} | {runs} | {median:?} | {mean:?} | {:.1} | {} | {} | {} | {} | {} | {} |",
            runs as f64 / wall.as_secs_f64(),
            stats.sent - frames_before,
            stats.bytes_sent - bytes_before,
            stats.connects,
            stats.reconnects,
            snap.counter(names::TCP_FRAMES_SENT),
            snap.counter(names::TCP_BYTES_SENT),
        );
        metrics.merge(&snap);
        net.shutdown();
        if let Some(s) = scrape {
            s.shutdown();
        }
    }
    metrics
}

/// E-CHK — the schedule explorer as an experiment: mutation kills (one
/// ablated §4.2 check per row — found, shrunk, replayed) and the clean
/// sweep (the unmutated build over the same seeds, expected silent).
/// Returns `(base_seed, metrics)` so the sidecar provenance can name the
/// seed actually used.
fn echk_model_check(args: Vec<String>) -> (u64, MetricsSnapshot) {
    use b2b_check::{explore, kill_matrix, scenarios, CheckConfig};
    use b2b_core::MutationFlags;

    let mut budget = 500u64;
    let mut base_seed = 1u64;
    let mut only: Option<String> = None;
    let mut emit: Option<std::path::PathBuf> = None;
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next().unwrap_or_else(|| {
                eprintln!("missing value for {flag}");
                std::process::exit(2);
            })
        };
        match flag.as_str() {
            "--budget" => budget = value().parse().expect("--budget takes a number"),
            "--seed" => base_seed = value().parse().expect("--seed takes a number"),
            "--scenario" => only = Some(value()),
            "--emit" => emit = Some(value().into()),
            other => {
                eprintln!(
                    "unknown check flag '{other}' (expected --budget/--seed/--scenario/--emit)"
                );
                std::process::exit(2);
            }
        }
    }
    let wanted = |id: &str| only.as_deref().map(|o| o == id).unwrap_or(true);
    let mut metrics = MetricsSnapshot::default();
    let mut failures = 0u32;

    println!("\n## E-CHK — schedule exploration and mutation kills (budget {budget}, base seed {base_seed})\n");
    println!("| scenario | ablated check | schedules to kill | shrink steps | shrunk events | violation | schedules/s |");
    println!("|---|---|---|---|---|---|---|");
    for (scenario, flags, label) in kill_matrix() {
        if !wanted(scenario.id()) {
            continue;
        }
        let telemetry = Telemetry::default();
        let cfg = CheckConfig {
            base_seed,
            budget,
            mutation: flags,
            telemetry: telemetry.clone(),
        };
        let t = Instant::now();
        let out = explore(scenario, &cfg);
        let wall = t.elapsed();
        let total_runs = out.schedules_run + out.shrink_steps + 1; // +1: final replay
        let rate = total_runs as f64 / wall.as_secs_f64();
        match out.counterexample {
            Some(cx) => {
                let replays = cx.replay().is_ok();
                println!(
                    "| {} | {label} | {} | {} | {} | {} | {rate:.0} |",
                    scenario.id(),
                    out.schedules_run,
                    out.shrink_steps,
                    cx.plan.events.len(),
                    if replays {
                        cx.violations.first().cloned().unwrap_or_default()
                    } else {
                        "REPLAY DIVERGED".into()
                    },
                );
                if !replays {
                    failures += 1;
                }
                if let Some(dir) = &emit {
                    std::fs::create_dir_all(dir).expect("create --emit dir");
                    let path = dir.join(format!("{}.json", scenario.id()));
                    std::fs::write(&path, cx.to_json()).expect("write counterexample");
                    // A Chrome trace-event view of the shrunk schedule's
                    // distributed trace rides along — load it in
                    // chrome://tracing to watch the counterexample unfold.
                    let tpath = dir.join(format!("{}.trace.json", scenario.id()));
                    let traces = b2b_telemetry::assemble(&cx.trace);
                    std::fs::write(&tpath, b2b_telemetry::chrome_trace_json(&traces))
                        .expect("write counterexample trace");
                    println!("  -> wrote {} and {}", path.display(), tpath.display());
                }
            }
            None => {
                println!(
                    "| {} | {label} | NOT FOUND in {budget} | - | - | - | {rate:.0} |",
                    scenario.id()
                );
                failures += 1;
            }
        }
        metrics.merge(&telemetry.metrics().snapshot());
    }

    println!("\n| scenario (unmutated) | schedules | violations | schedules/s |");
    println!("|---|---|---|---|");
    for scenario in scenarios() {
        if !wanted(scenario.id()) {
            continue;
        }
        let telemetry = Telemetry::default();
        let cfg = CheckConfig {
            base_seed,
            budget,
            mutation: MutationFlags::default(),
            telemetry: telemetry.clone(),
        };
        let t = Instant::now();
        let out = explore(scenario, &cfg);
        let rate = out.schedules_run as f64 / t.elapsed().as_secs_f64();
        let found = out.counterexample.is_some() as u32;
        println!(
            "| {} | {} | {found} | {rate:.0} |",
            scenario.id(),
            out.schedules_run
        );
        if found != 0 {
            failures += 1; // a clean-build violation is a middleware bug
        }
        metrics.merge(&telemetry.metrics().snapshot());
    }
    if failures > 0 {
        eprintln!("\nE-CHK FAILED: {failures} row(s) off expectation");
        std::process::exit(1);
    }
    (base_seed, metrics)
}

// ---------------------------------------------------------------------
// E-SHARD — multi-group aggregate throughput on the sharded runtime
// ---------------------------------------------------------------------

/// Base seed recorded in the E-SHARD sidecar provenance header.
const ESHARD_SEED: u64 = 11;
/// Delta payload size for E-SHARD updates (matches E10).
const ESHARD_CHUNK: usize = 16;
/// Members per coordination group.
const ESHARD_PER_GROUP: usize = 2;

/// One measured cell of the E-SHARD sweep.
struct ShardSample {
    groups: usize,
    k: usize,
    updates: u64,
    setup: Duration,
    wall: Duration,
    stalls: u64,
}

impl ShardSample {
    fn updates_per_sec(&self) -> f64 {
        self.updates as f64 / self.wall.as_secs_f64()
    }
}

/// Runs one cell: `groups` two-party groups on a fixed pool, `batch_max
/// = k`, a burst of pipelined updates per group, aggregate wall-clock
/// from first submit to last outcome. Every group shares one key ring,
/// one verify pool and one metrics registry.
fn eshard_cell(
    groups: usize,
    k: usize,
    shards: Option<usize>,
    fabric: b2b_bench::sharded::WorldFabric,
    metrics: &MetricsSnapshot,
) -> (ShardSample, MetricsSnapshot) {
    use b2b_bench::sharded::{ShardedWorld, ShardedWorldOptions};
    // Enough updates per group to exercise coalescing at k=16 without
    // making the 10k cell take minutes at k=1.
    let per_group_updates: u64 = if k > 1 { k as u64 } else { 4 };
    let setup_start = Instant::now();
    let world = ShardedWorld::new(
        ShardedWorldOptions {
            groups,
            per_group: ESHARD_PER_GROUP,
            config: CoordinatorConfig::default().batch_max(k),
            verify_pool: Some(std::sync::Arc::new(
                b2b_crypto::VerifyPool::with_default_parallelism(),
            )),
            shards,
            fabric,
            ..ShardedWorldOptions::default()
        },
        "blob",
        append_blob_factory,
    );
    let setup = setup_start.elapsed();
    let before = world.metrics();
    let t = Instant::now();
    let tickets: Vec<Vec<_>> = (0..groups)
        .map(|g| world.submit_updates(g, per_group_updates, vec![0xEE; ESHARD_CHUNK]))
        .collect();
    let mut installed = 0;
    for (g, tickets) in tickets.iter().enumerate() {
        installed += world.await_tickets(g, tickets, Duration::from_secs(600));
    }
    let wall = t.elapsed();
    let updates = groups as u64 * per_group_updates;
    if installed != updates {
        // Surface a few failure diagnostics before dying.
        let mut shown = 0;
        for (g, tickets) in tickets.iter().enumerate() {
            if shown >= 5 {
                break;
            }
            let watched = tickets.clone();
            let reasons: Vec<String> = world.handle(g, 0).read(move |c| {
                watched
                    .iter()
                    .filter_map(|t| c.outcome_of_ticket(t))
                    .filter(|o| !o.is_installed())
                    .map(|o| format!("{o:?}"))
                    .collect()
            });
            for r in reasons {
                eprintln!("E-SHARD group {g}: {r}");
                shown += 1;
            }
        }
        panic!("E-SHARD: {installed}/{updates} updates installed");
    }
    let after = world.metrics();
    let stalls = after.counter(names::INBOX_FULL_STALLS) - before.counter(names::INBOX_FULL_STALLS);
    world.shutdown();
    let mut merged = metrics.clone();
    merged.merge(&after);
    (
        ShardSample {
            groups,
            k,
            updates,
            setup,
            wall,
            stalls,
        },
        merged,
    )
}

/// Measures the single-group throughput anchor: one group on the same
/// runtime driving the classic one-update-per-signed-round path (k = 1,
/// submit → await each update), over enough sequential rounds for a
/// stable wall-clock.
fn eshard_sync_anchor(
    shards: Option<usize>,
    fabric: b2b_bench::sharded::WorldFabric,
    metrics: &MetricsSnapshot,
) -> (ShardSample, MetricsSnapshot) {
    use b2b_bench::sharded::{ShardedWorld, ShardedWorldOptions};
    const ROUNDS: u64 = 64;
    let setup_start = Instant::now();
    let world = ShardedWorld::new(
        ShardedWorldOptions {
            groups: 1,
            per_group: ESHARD_PER_GROUP,
            config: CoordinatorConfig::default().batch_max(1),
            verify_pool: Some(std::sync::Arc::new(
                b2b_crypto::VerifyPool::with_default_parallelism(),
            )),
            shards,
            fabric,
            ..ShardedWorldOptions::default()
        },
        "blob",
        append_blob_factory,
    );
    let setup = setup_start.elapsed();
    let t = Instant::now();
    for _ in 0..ROUNDS {
        let tickets = world.submit_updates(0, 1, vec![0xEE; ESHARD_CHUNK]);
        assert_eq!(world.await_tickets(0, &tickets, Duration::from_secs(60)), 1);
    }
    let wall = t.elapsed();
    let after = world.metrics();
    world.shutdown();
    let mut merged = metrics.clone();
    merged.merge(&after);
    (
        ShardSample {
            groups: 1,
            k: 1,
            updates: ROUNDS,
            setup,
            wall,
            stalls: after.counter(names::INBOX_FULL_STALLS),
        },
        merged,
    )
}

/// Measures the **threaded single-connection** TCP anchor: one two-party
/// group over the legacy thread-per-connection transport
/// ([`b2b_net::TcpNet`]), one update per signed round, sync. This is the
/// operating point the multiplexed fabric must not regress below: a
/// 1k-group sweep over ONE socket pair has to at least match what a
/// dedicated socket pair delivers to a single group.
fn eshard_threaded_anchor(metrics: &MetricsSnapshot) -> (ShardSample, MetricsSnapshot) {
    const ROUNDS: u64 = 64;
    let telemetry = Telemetry::new();
    let setup_start = Instant::now();
    let mut ring = KeyRing::new();
    let mut keys = Vec::new();
    for i in 0..ESHARD_PER_GROUP {
        let kp = KeyPair::generate_from_seed(1000 + i as u64);
        ring.register(party(i), kp.public_key());
        keys.push(kp);
    }
    let nodes: Vec<Coordinator> = keys
        .into_iter()
        .enumerate()
        .map(|(i, kp)| {
            Coordinator::builder(party(i), kp)
                .ring(ring.clone())
                .config(CoordinatorConfig::default().batch_max(1))
                .seed(10 + i as u64)
                .telemetry(telemetry.clone())
                .build()
        })
        .collect();
    let net = TcpNet::spawn_loopback_with(nodes, TcpConfig::new().telemetry(telemetry.clone()))
        .expect("bind loopback listeners");
    let oid = ObjectId::new("blob");
    net.handle(&party(0)).invoke({
        let oid = oid.clone();
        move |c, _| {
            c.register_object(oid, Box::new(append_blob_factory))
                .unwrap();
        }
    });
    for i in 1..ESHARD_PER_GROUP {
        let sponsor = party(i - 1);
        let h = net.handle(&party(i));
        let o = oid.clone();
        h.invoke(move |c, ctx| {
            c.request_connect(o, Box::new(append_blob_factory), sponsor, ctx)
                .unwrap();
        });
        let o = oid.clone();
        assert!(
            h.wait_until(Duration::from_secs(30), move |c| c.is_member(&o)),
            "org{i} failed to join over TCP"
        );
    }
    let setup = setup_start.elapsed();
    let h0 = net.handle(&party(0)).clone();
    let t = Instant::now();
    for _ in 0..ROUNDS {
        let o = oid.clone();
        let ticket =
            h0.invoke(move |c, ctx| c.submit_update(&o, vec![0xEE; ESHARD_CHUNK], ctx).unwrap());
        let tk = ticket;
        assert!(
            h0.wait_until(Duration::from_secs(60), move |c| c
                .outcome_of_ticket(&tk)
                .is_some()),
            "threaded-TCP anchor round did not complete"
        );
    }
    let wall = t.elapsed();
    let after = telemetry.metrics().snapshot();
    net.shutdown();
    let mut merged = metrics.clone();
    merged.merge(&after);
    (
        ShardSample {
            groups: 1,
            k: 1,
            updates: ROUNDS,
            setup,
            wall,
            stalls: 0,
        },
        merged,
    )
}

/// E-SHARD — aggregate pipelined-update throughput across {16…10k}
/// concurrent coordination groups multiplexed over a fixed worker pool.
/// The anchor is the single-group sync operating point (one update per
/// signed round — what one shared object achieves on its own); the gate
/// requires the 1k-group batched (k = 16) aggregate to clear 5× that
/// anchor, i.e. the runtime must actually compound cross-group
/// pipelining with in-round batching instead of serialising groups.
/// `ESHARD_NO_GATE` records a miss without failing.
///
/// `--fabric tcp` runs the identical sweep with every inter-party frame
/// crossing the multiplexed loopback socket; there the anchor — and the
/// gate — is the **threaded single-connection** transport at 1×: one
/// socket pair carrying 1k groups must not fall below what a dedicated
/// socket pair gives a single group.
fn eshard_sharded_fleet(args: Vec<String>) -> (MetricsSnapshot, b2b_bench::sharded::WorldFabric) {
    use b2b_bench::sharded::WorldFabric;
    let mut max_groups = 10_000usize;
    let mut shards: Option<usize> = None;
    let mut fabric = WorldFabric::Inproc;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--max-groups" => {
                max_groups = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--max-groups needs a positive integer"));
            }
            "--shards" => {
                shards = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| die("--shards needs a positive integer")),
                );
            }
            "--fabric" => {
                fabric = match it.next().map(String::as_str) {
                    Some("inproc") => WorldFabric::Inproc,
                    Some("tcp") => WorldFabric::Tcp,
                    _ => die("--fabric needs 'inproc' or 'tcp'"),
                };
            }
            other => die(&format!("unknown eshard flag '{other}'")),
        }
    }
    let pool = shards.unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
    });
    println!(
        "## E-SHARD — multi-group sharded runtime ({pool}-shard pool, {ESHARD_PER_GROUP}-party groups, ed25519, {} fabric)\n",
        fabric.label()
    );
    println!("| groups | k | updates | setup ms | wall ms | agg updates/s | inbox stalls |");
    println!("|-------:|--:|--------:|---------:|--------:|--------------:|-------------:|");
    let mut metrics = MetricsSnapshot::default();
    // The gate anchor: the sharded runtime's own single-group sync point
    // on the in-process fabric, the threaded single-connection transport
    // on TCP (the socket model the multiplexed fabric replaces).
    let (anchor, m) = match fabric {
        WorldFabric::Inproc => eshard_sync_anchor(shards, fabric, &metrics),
        WorldFabric::Tcp => eshard_threaded_anchor(&metrics),
    };
    metrics = m;
    let anchor_label = match fabric {
        WorldFabric::Inproc => "1 (sync anchor)",
        WorldFabric::Tcp => "1 (threaded single-connection anchor)",
    };
    println!(
        "| {anchor_label} | 1 | {} | {:.0} | {:.0} | {:.1} | {} |",
        anchor.updates,
        anchor.setup.as_secs_f64() * 1e3,
        anchor.wall.as_secs_f64() * 1e3,
        anchor.updates_per_sec(),
        anchor.stalls,
    );
    let mut rows: Vec<ShardSample> = Vec::new();
    for &k in &[1usize, 16] {
        for &groups in &[16usize, 256, 1000, 4000, 10_000] {
            if groups > max_groups {
                continue;
            }
            let (row, m) = eshard_cell(groups, k, shards, fabric, &metrics);
            metrics = m;
            println!(
                "| {} | {} | {} | {:.0} | {:.0} | {:.1} | {} |",
                row.groups,
                row.k,
                row.updates,
                row.setup.as_secs_f64() * 1e3,
                row.wall.as_secs_f64() * 1e3,
                row.updates_per_sec(),
                row.stalls,
            );
            rows.push(row);
        }
    }
    // Scaling gate: the 1k-group batched cell vs the fabric's anchor.
    // In-process must compound pipelining with batching (5x); the
    // multiplexed socket must at least match the dedicated-socket
    // operating point it replaces (1x).
    let threshold = match fabric {
        WorldFabric::Inproc => 5.0,
        WorldFabric::Tcp => 1.0,
    };
    let mut gate_ok = true;
    let mut gates = Vec::new();
    if let Some(row) = rows.iter().find(|r| r.groups == 1000 && r.k == 16) {
        let anchor_ups = anchor.updates_per_sec();
        let factor = row.updates_per_sec() / anchor_ups;
        let ok = factor >= threshold;
        gate_ok &= ok;
        println!(
            "\nE-SHARD gate ({}): 1k-group k=16 aggregate {:.1} u/s vs anchor {:.1} u/s — {:.1}x, need {threshold}x ({})",
            fabric.label(),
            row.updates_per_sec(),
            anchor_ups,
            factor,
            if ok { "pass" } else { "FAIL" },
        );
        gates.push((16usize, anchor_ups, row.updates_per_sec(), factor, ok));
    }
    rows.insert(0, anchor);
    write_bench_shard(pool, fabric, threshold, &rows, &gates, gate_ok);
    if !gate_ok {
        eprintln!(
            "E-SHARD FAIL: 1k-group aggregate throughput below {threshold}x the {} anchor",
            fabric.label()
        );
        if std::env::var_os("ESHARD_NO_GATE").is_none() {
            std::process::exit(1);
        }
        eprintln!("(ESHARD_NO_GATE set: recording the miss without failing)");
    }
    (metrics, fabric)
}

fn die(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

// ---------------------------------------------------------------------
// E-SERVE — closed-loop HTTP load against the b2b-server order service
// ---------------------------------------------------------------------

/// Base seed recorded in the E-SERVE sidecar provenance header.
const ESERVE_SEED: u64 = 12;
/// In-flight window per client in the deferred/async modes: how many
/// submitted-but-unresolved tickets one client keeps open. One bulk
/// request carries the whole window; the coordinator drains it as a
/// back-to-back pipeline of `batch_max` rounds. Sync is always 1 (the
/// request blocks for the round).
const ESERVE_WINDOW: usize = 64;

/// One measured mode of the E-SERVE sweep.
struct ServeSample {
    mode: &'static str,
    ops: u64,
    wall: Duration,
    retries_429: u64,
    p50_us: u64,
    p95_us: u64,
    p99_us: u64,
}

impl ServeSample {
    fn updates_per_sec(&self) -> f64 {
        self.ops as f64 / self.wall.as_secs_f64()
    }
    fn per_group(&self, groups: usize) -> f64 {
        self.updates_per_sec() / groups as f64
    }
}

/// Pulls the integer array `"key":[n,n,…]` out of a JSON body.
fn eserve_int_array(body: &str, key: &str) -> Vec<u64> {
    let tag = format!("\"{key}\":[");
    let Some(at) = body.find(&tag) else {
        return Vec::new();
    };
    let rest = &body[at + tag.len()..];
    let Some(end) = rest.find(']') else {
        return Vec::new();
    };
    rest[..end]
        .split(',')
        .filter_map(|s| s.trim().parse().ok())
        .collect()
}

/// Runs one mode of the closed-loop sweep: every client thread owns a
/// disjoint slice of the orders (client c drives orders c, c+N, …) and
/// performs `ops` customer line updates against them — one in flight in
/// sync mode, a sliding window of [`ESERVE_WINDOW`] tickets in the
/// deferred/async modes (that is what those modes are *for*: §3.3 hides
/// round latency behind the application's own progress, and the
/// coordinator coalesces the window into batched rounds). Every op must
/// end `installed`; a veto or a lost ticket fails the run. Per-op
/// latency (submit → observed terminal status) is collected as exact
/// microsecond samples for the BENCH percentiles, and mirrored in
/// milliseconds into the mode's `serve_latency_ms_*` histogram of the
/// server's own registry (the 1-2-5 bucket ladder is ms-grained — raw
/// microseconds would all land in the overflow bucket).
#[allow(clippy::too_many_arguments)]
fn eserve_run_mode(
    addr: std::net::SocketAddr,
    telemetry: &Telemetry,
    mode: &'static str,
    hist: &'static str,
    clients: usize,
    orders: usize,
    ops: u64,
    salt: u64,
) -> (Duration, u64, Vec<u64>) {
    use b2b_net::HttpClient;
    let t = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|cidx| {
            let telemetry = telemetry.clone();
            std::thread::spawn(move || {
                let mut http = HttpClient::connect(addr).expect("E-SERVE: connect");
                let owned: Vec<usize> = (cidx..orders).step_by(clients).collect();
                assert!(!owned.is_empty(), "more clients than orders");
                let mut retries = 0u64;
                let mut samples: Vec<u64> = Vec::with_capacity(ops as usize);
                // Long-poll a whole window to terminal in one request:
                // the server parks the request on the groups' condvars
                // until every ticket resolves, so draining costs one
                // round-trip per window, not per op.
                let drain = |http: &mut HttpClient, tickets: &[u64]| {
                    let ids = tickets
                        .iter()
                        .map(|t| t.to_string())
                        .collect::<Vec<_>>()
                        .join(",");
                    loop {
                        let (status, body) = http
                            .get(&format!("/tickets?ids={ids}&wait_ms=5000"))
                            .expect("E-SERVE: poll");
                        assert_eq!(status, 200, "{body}");
                        if body.matches("\"status\":\"installed\"").count() == tickets.len() {
                            return;
                        }
                        assert!(
                            !body.contains("invalidated") && !body.contains("aborted"),
                            "E-SERVE must be lossless, window ended: {body}"
                        );
                    }
                };
                // All of an order's ops go out back-to-back: in the
                // deferred/async modes a whole window travels in one
                // bulk request and coalesces into batched signed rounds
                // (§3.3 — the round latency hides behind the client's
                // own progress), while sync pays one blocking round per
                // op by definition.
                let per_order = (ops as usize).div_ceil(owned.len());
                for (oidx, &g) in owned.iter().enumerate() {
                    let todo = (ops as usize).min((oidx + 1) * per_order) - oidx * per_order;
                    let mut done = 0usize;
                    while done < todo {
                        if mode == "sync" {
                            let path = format!("/orders/{g}/lines?mode=sync");
                            let body = format!(
                                "{{\"item\":\"c{cidx}i{}\",\"qty\":{}}}",
                                done % 4,
                                salt + done as u64 + 1
                            );
                            let t0 = Instant::now();
                            loop {
                                let (status, rbody) =
                                    http.post(&path, &body).expect("E-SERVE: post");
                                match status {
                                    200 => break,
                                    429 => {
                                        retries += 1;
                                        std::thread::sleep(Duration::from_millis(1));
                                    }
                                    other => {
                                        panic!("E-SERVE: unexpected status {other}: {rbody}")
                                    }
                                }
                            }
                            let us = (t0.elapsed().as_micros() as u64).max(1);
                            samples.push(us);
                            telemetry.observe_ms(hist, (us / 1000).max(1));
                            done += 1;
                            continue;
                        }
                        let n = (todo - done).min(ESERVE_WINDOW);
                        let elems: Vec<String> = (0..n)
                            .map(|i| {
                                format!(
                                    "{{\"op\":\"line\",\"item\":\"c{cidx}i{}\",\"qty\":{}}}",
                                    (done + i) % 4,
                                    salt + (done + i) as u64 + 1
                                )
                            })
                            .collect();
                        let body = format!("{{\"ops\":[{}]}}", elems.join(","));
                        let path = format!("/orders/{g}/bulk?mode={mode}");
                        let t0 = Instant::now();
                        let tickets = loop {
                            let (status, rbody) = http.post(&path, &body).expect("E-SERVE: post");
                            match status {
                                202 => break eserve_int_array(&rbody, "tickets"),
                                429 => {
                                    retries += 1;
                                    std::thread::sleep(Duration::from_millis(1));
                                }
                                other => panic!("E-SERVE: unexpected status {other}: {rbody}"),
                            }
                        };
                        assert!(!tickets.is_empty(), "202 with no tickets");
                        // A partially accepted batch (backpressure) just
                        // shrinks this window; the remainder goes out in
                        // the next one.
                        drain(&mut http, &tickets);
                        let us = (t0.elapsed().as_micros() as u64).max(1);
                        for _ in &tickets {
                            samples.push(us);
                            telemetry.observe_ms(hist, (us / 1000).max(1));
                        }
                        done += tickets.len();
                    }
                }
                (retries, samples)
            })
        })
        .collect();
    let mut retries = 0u64;
    let mut samples: Vec<u64> = Vec::new();
    for h in handles {
        let (r, s) = h.join().expect("E-SERVE client thread");
        retries += r;
        samples.extend(s);
    }
    (t.elapsed(), retries, samples)
}

/// Nearest-rank percentile over exact samples; `samples` is sorted by
/// the caller.
fn eserve_pct(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// E-SERVE — the order service under closed-loop HTTP load: N client
/// threads × M orders × the three §3.3 modes. Every order is one
/// coordination group on the sharded runtime; every op is a signed
/// two-party round reached through `POST /orders/:id/lines`. The sweep
/// must be lossless (every op installs, replicas converge, the evidence
/// audit stays clean) and the gate requires the best mode to sustain at
/// least 1× the E-SHARD **tcp** per-group update rate at the same group
/// count — the HTTP face on the in-process fabric must not fall below
/// what the raw sharded runtime delivers per group across a socket. A
/// miss is re-measured once; `ESERVE_NO_GATE` records it without
/// failing.
fn eserve_http_service(args: Vec<String>) -> MetricsSnapshot {
    use b2b_net::HttpClient;
    use b2b_server::{OrderServer, OrderServerOptions};
    let mut clients = 64usize;
    let mut orders = 256usize;
    let mut ops: u64 = 256;
    let mut shards: Option<usize> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--clients" => {
                clients = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--clients needs a positive integer"));
            }
            "--orders" => {
                orders = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--orders needs a positive integer"));
            }
            "--ops" => {
                ops = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--ops needs a positive integer"));
            }
            "--shards" => {
                shards = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| die("--shards needs a positive integer")),
                );
            }
            other => die(&format!("unknown eserve flag '{other}'")),
        }
    }
    assert!(clients <= orders, "each client needs at least one order");

    println!(
        "## E-SERVE — HTTP/JSON order service under closed-loop load \
         ({clients} clients, {orders} orders, 2-party, ed25519)\n"
    );
    let telemetry = Telemetry::new();
    let setup_start = Instant::now();
    let server = OrderServer::start(OrderServerOptions {
        orders,
        parties: 2,
        shards,
        // Batch a whole client window into one signed round: the bulk
        // endpoint enqueues the window before dispatching, so no linger
        // is needed (and sync ops stay un-lingered).
        config: CoordinatorConfig::default().batch_max(ESERVE_WINDOW),
        // One worker per load connection plus headroom for the
        // provisioning/scrape connection — a keep-alive connection pins
        // its worker for its whole lifetime.
        http_workers: clients + 8,
        telemetry: telemetry.clone(),
        verify_pool: Some(std::sync::Arc::new(
            b2b_crypto::VerifyPool::with_default_parallelism(),
        )),
        sync_timeout: Duration::from_secs(60),
        ..OrderServerOptions::default()
    })
    .expect("E-SERVE: server boots");
    let addr = server.addr();
    let mut http = HttpClient::connect(addr).expect("E-SERVE: connect");
    for _ in 0..orders {
        let (status, body) = http.post("/orders", "").expect("E-SERVE: create order");
        assert_eq!(status, 201, "{body}");
    }
    let setup = setup_start.elapsed();
    println!(
        "setup: {} orders provisioned (group + membership rounds) in {:.0} ms\n",
        orders,
        setup.as_secs_f64() * 1e3
    );

    println!("| mode | ops | wall ms | agg updates/s | per-group u/s | p50 µs | p95 µs | p99 µs | 429 retries |");
    println!("|------|----:|--------:|--------------:|--------------:|-------:|-------:|-------:|------------:|");
    const MODES: [(&str, &str); 3] = [
        ("sync", names::SERVE_LATENCY_MS_SYNC),
        ("deferred", names::SERVE_LATENCY_MS_DEFERRED),
        ("async", names::SERVE_LATENCY_MS_ASYNC),
    ];
    let total_ops = clients as u64 * ops;
    let run_salt = std::sync::atomic::AtomicU64::new(0);
    let run_one = |mode: &'static str, hist: &'static str| -> ServeSample {
        // Distinct quantity range per run: a re-run proposing the exact
        // agreed state would (correctly) draw §4.4 null-transition
        // vetoes.
        let salt = run_salt.fetch_add(1, std::sync::atomic::Ordering::SeqCst) * 1_000_000;
        let (wall, retries_429, mut samples) =
            eserve_run_mode(addr, &telemetry, mode, hist, clients, orders, ops, salt);
        assert!(
            server.wait_converged(Duration::from_secs(120)),
            "E-SERVE {mode}: replicas did not converge"
        );
        samples.sort_unstable();
        let (p50_us, p95_us, p99_us) = (
            eserve_pct(&samples, 50.0),
            eserve_pct(&samples, 95.0),
            eserve_pct(&samples, 99.0),
        );
        ServeSample {
            mode,
            ops: total_ops,
            wall,
            retries_429,
            p50_us,
            p95_us,
            p99_us,
        }
    };
    let mut rows: Vec<ServeSample> = Vec::new();
    for (mode, hist) in MODES {
        let row = run_one(mode, hist);
        println!(
            "| {} | {} | {:.0} | {:.1} | {:.2} | {} | {} | {} | {} |",
            row.mode,
            row.ops,
            row.wall.as_secs_f64() * 1e3,
            row.updates_per_sec(),
            row.per_group(orders),
            row.p50_us,
            row.p95_us,
            row.p99_us,
            row.retries_429,
        );
        rows.push(row);
    }

    // Liveness of the observability face: /metrics answers from the same
    // process and already carries the serve counters. Fresh connection —
    // the provisioning one idled through three mode runs.
    let mut http = HttpClient::connect(addr).expect("E-SERVE: reconnect");
    let (status, body) = http.get("/metrics").expect("E-SERVE: scrape /metrics");
    assert_eq!(status, 200);
    assert!(
        body.contains(names::SERVE_REQUESTS),
        "live /metrics must expose the serve counters"
    );

    // The gate anchor: the raw sharded runtime over the multiplexed TCP
    // fabric at the SAME group count, k = 16 batched — E-SHARD's tcp
    // operating point per group.
    let (anchor, _) = eshard_cell(
        orders,
        16,
        shards,
        b2b_bench::sharded::WorldFabric::Tcp,
        &MetricsSnapshot::default(),
    );
    let anchor_per_group = anchor.updates_per_sec() / orders as f64;
    println!(
        "\nanchor: E-SHARD tcp {orders}-group k=16 — {:.1} u/s aggregate, {:.2} u/s per group",
        anchor.updates_per_sec(),
        anchor_per_group,
    );
    let best = |rows: &[ServeSample]| -> (usize, f64) {
        rows.iter()
            .enumerate()
            .map(|(i, r)| (i, r.per_group(orders)))
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .expect("at least one mode")
    };
    let (mut best_i, mut best_rate) = best(&rows);
    let mut gate_attempts = 1u32;
    let mut factor = best_rate / anchor_per_group;
    if factor < 1.0 {
        // One re-measure of the best mode before concluding a miss: the
        // first run also paid cache warmup and allocator churn.
        gate_attempts += 1;
        let (mode, hist) = MODES[best_i];
        eprintln!("E-SERVE gate miss ({factor:.2}x) — re-measuring {mode} once");
        let row = run_one(mode, hist);
        println!(
            "| {} (re-measure) | {} | {:.0} | {:.1} | {:.2} | {} | {} | {} | {} |",
            row.mode,
            row.ops,
            row.wall.as_secs_f64() * 1e3,
            row.updates_per_sec(),
            row.per_group(orders),
            row.p50_us,
            row.p95_us,
            row.p99_us,
            row.retries_429,
        );
        rows.push(row);
        let (i, rate) = best(&rows);
        best_i = i;
        best_rate = rate;
        factor = best_rate / anchor_per_group;
    }
    let gate_ok = factor >= 1.0;
    println!(
        "\nE-SERVE gate: best mode '{}' {:.2} u/s per group vs anchor {:.2} — {:.2}x, need 1x ({})",
        rows[best_i].mode,
        best_rate,
        anchor_per_group,
        factor,
        if gate_ok { "pass" } else { "FAIL" },
    );

    // Non-repudiation after the whole sweep: every store audits clean.
    let (clean, records) = server.audit();
    assert!(clean, "E-SERVE: evidence audit must be clean");
    let vetoed = telemetry.metrics().snapshot().counter(names::SERVE_VETOED);
    assert_eq!(vetoed, 0, "E-SERVE must be lossless: {vetoed} ops vetoed");
    let metrics = telemetry.metrics().snapshot();
    server.shutdown();

    write_bench_serve(
        clients,
        orders,
        ops,
        shards,
        &rows,
        &anchor,
        anchor_per_group,
        factor,
        gate_attempts,
        gate_ok,
        records,
    );
    if !gate_ok {
        eprintln!("E-SERVE FAIL: best mode below 1x the E-SHARD tcp per-group rate");
        if std::env::var_os("ESERVE_NO_GATE").is_none() {
            std::process::exit(1);
        }
        eprintln!("(ESERVE_NO_GATE set: recording the miss without failing)");
    }
    metrics
}

/// Writes the repo-root `BENCH_serve.json` trajectory file for the
/// E-SERVE sweep (hand-formatted: the vendored serde_json has no
/// `Value`).
#[allow(clippy::too_many_arguments)]
fn write_bench_serve(
    clients: usize,
    orders: usize,
    ops: u64,
    shards: Option<usize>,
    rows: &[ServeSample],
    anchor: &ShardSample,
    anchor_per_group: f64,
    factor: f64,
    gate_attempts: u32,
    gate_ok: bool,
    evidence_records: usize,
) {
    let mode_entries: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                concat!(
                    "    {{ \"mode\": \"{}\", \"ops\": {}, \"wall_ms\": {:.3}, ",
                    "\"updates_per_sec\": {:.2}, \"per_group_updates_per_sec\": {:.3}, ",
                    "\"p50_us\": {}, \"p95_us\": {}, \"p99_us\": {}, \"retries_429\": {} }}"
                ),
                r.mode,
                r.ops,
                r.wall.as_secs_f64() * 1e3,
                r.updates_per_sec(),
                r.per_group(orders),
                r.p50_us,
                r.p95_us,
                r.p99_us,
                r.retries_429,
            )
        })
        .collect();
    let body = format!(
        concat!(
            "{{\n",
            "  \"experiment\": \"eserve\",\n",
            "  \"commit\": {},\n",
            "  \"fabric\": \"http+inproc\",\n",
            "  \"workload\": {{\n",
            "    \"clients\": {},\n",
            "    \"orders\": {},\n",
            "    \"ops_per_client\": {},\n",
            "    \"parties\": 2,\n",
            "    \"window\": {},\n",
            "    \"shards\": {},\n",
            "    \"crypto\": \"ed25519, shared ring, shared verify pool\"\n",
            "  }},\n",
            "  \"modes\": [\n",
            "{}\n",
            "  ],\n",
            "  \"anchor\": {{\n",
            "    \"source\": \"eshard tcp k=16\",\n",
            "    \"groups\": {},\n",
            "    \"updates_per_sec\": {:.2},\n",
            "    \"per_group_updates_per_sec\": {:.3}\n",
            "  }},\n",
            "  \"gate\": {{ \"threshold\": 1.0, \"factor\": {:.3}, \"attempts\": {}, \"pass\": {} }},\n",
            "  \"lossless\": true,\n",
            "  \"audit_clean\": true,\n",
            "  \"evidence_records\": {}\n",
            "}}\n"
        ),
        json_str(&git_sha()),
        clients,
        orders,
        ops,
        ESERVE_WINDOW,
        shards
            .map(|s| s.to_string())
            .unwrap_or_else(|| "null".into()),
        mode_entries.join(",\n"),
        anchor.groups,
        anchor.updates_per_sec(),
        anchor_per_group,
        factor,
        gate_attempts,
        gate_ok,
        evidence_records,
    );
    match std::fs::write("BENCH_serve.json", body) {
        Ok(()) => println!("\ntrajectory file: BENCH_serve.json"),
        Err(e) => eprintln!("cannot write BENCH_serve.json: {e}"),
    }
}

/// Writes the repo-root `BENCH_shard.json` trajectory file for the
/// E-SHARD sweep (hand-formatted: the vendored serde_json has no
/// `Value`).
fn write_bench_shard(
    pool: usize,
    fabric: b2b_bench::sharded::WorldFabric,
    gate_threshold: f64,
    rows: &[ShardSample],
    gates: &[(usize, f64, f64, f64, bool)],
    gate_ok: bool,
) {
    let row_entries: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                concat!(
                    "    {{ \"groups\": {}, \"k\": {}, \"updates\": {}, ",
                    "\"setup_ms\": {:.3}, \"wall_ms\": {:.3}, ",
                    "\"updates_per_sec\": {:.2}, \"inbox_full_stalls\": {} }}"
                ),
                r.groups,
                r.k,
                r.updates,
                r.setup.as_secs_f64() * 1e3,
                r.wall.as_secs_f64() * 1e3,
                r.updates_per_sec(),
                r.stalls,
            )
        })
        .collect();
    let gate_entries: Vec<String> = gates
        .iter()
        .map(|(k, anchor, agg, factor, ok)| {
            format!(
                concat!(
                    "    {{ \"k\": {}, \"anchor_updates_per_sec\": {:.2}, ",
                    "\"aggregate_updates_per_sec_at_1k\": {:.2}, ",
                    "\"scaling_factor\": {:.3}, \"pass\": {} }}"
                ),
                k, anchor, agg, factor, ok,
            )
        })
        .collect();
    let body = format!(
        concat!(
            "{{\n",
            "  \"experiment\": \"eshard\",\n",
            "  \"commit\": {},\n",
            "  \"fabric\": {},\n",
            "  \"gate_threshold\": {},\n",
            "  \"workload\": {{\n",
            "    \"per_group\": {},\n",
            "    \"chunk_bytes\": {},\n",
            "    \"shards\": {},\n",
            "    \"crypto\": \"ed25519, shared ring, shared verify pool\"\n",
            "  }},\n",
            "  \"sweep\": [\n",
            "{}\n",
            "  ],\n",
            "  \"scaling_gate_at_1k_groups\": [\n",
            "{}\n",
            "  ],\n",
            "  \"gate_ok\": {}\n",
            "}}\n"
        ),
        json_str(&git_sha()),
        json_str(fabric.label()),
        gate_threshold,
        ESHARD_PER_GROUP,
        ESHARD_CHUNK,
        pool,
        row_entries.join(",\n"),
        gate_entries.join(",\n"),
        gate_ok,
    );
    match std::fs::write("BENCH_shard.json", body) {
        Ok(()) => println!("\ntrajectory file: BENCH_shard.json"),
        Err(e) => eprintln!("cannot write BENCH_shard.json: {e}"),
    }
}
