//! Regenerates the experiment tables recorded in `EXPERIMENTS.md`.
//!
//! Usage: `cargo run -p b2b-bench --release --bin exp -- <e1|...|e9|all>`
//!
//! More subcommands sit beside the paper's experiments:
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
//! * `exp -- eshard [--max-groups N] [--shards S] [--fabric inproc|tcp]` —
//!   the E-SHARD sweep: 16…10k coordination groups multiplexed over a
//!   fixed worker pool (`b2b-net::shard`), aggregate pipelined-update
//!   throughput per group count × batch k. Performance claims rest on the
//!   repo benchmark (`BENCHMARK.json`), not on this table.
//!
//! Besides its markdown table, every experiment merges the fleet-wide
//! metrics registries of all the fleets it ran and writes the result as
//! a JSON sidecar to `target/metrics/<exp>.metrics.json` (see
//! `EXPERIMENTS.md` for the format). Each sidecar carries a provenance
//! header — git commit, base seed, scenario, fabric — and a p50/p95/p99
//! digest of every histogram, so a stray file on disk is always
//! attributable to the build and run that produced it.

use b2b_bench::{append_blob_factory, counter_factory, enc, party, Crypto, Fleet};
use b2b_core::{ConnectStatus, CoordinatorConfig, DecisionRule, ObjectId, Outcome};
use b2b_crypto::TimeMs;
use b2b_net::FaultPlan;
use b2b_telemetry::{names, MetricsSnapshot, Telemetry};
use serde::json::write_str;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

fn main() {
    let which = std::env::args().nth(1).unwrap_or_else(|| "all".into());
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
    let known = ["all", "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9"];
    if !known.contains(&which.as_str()) {
        eprintln!(
            "unknown experiment '{which}'; expected one of: {} (or the check/trace/eshard subcommands)",
            known.join(", ")
        );
        std::process::exit(2);
    }
    let all = which == "all";
    type Experiment = fn() -> MetricsSnapshot;
    // (name, fabric, base seed, runner) — fabric and seed feed the sidecar
    // provenance header.
    let experiments: [(&str, &str, u64, Experiment); 9] = [
        ("e1", "sim", 1, e1_message_complexity),
        ("e2", "sim", 2, e2_protocol_latency),
        ("e3", "sim", 3, e3_overwrite_vs_update),
        ("e4", "sim", 4, e4_crypto_ablation),
        ("e5", "sim", 5, e5_modes),
        ("e6", "sim", 100, e6_liveness_under_faults),
        ("e7", "sim", 42, e7_recovery),
        ("e8", "sim", 7, e8_membership),
        ("e9", "sim", 9, e9_termination),
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

/// Appends `{"<hist>":{"p50":..,"p95":..,"p99":..},...}` for every
/// histogram in the snapshot.
fn write_percentiles(metrics: &MetricsSnapshot, out: &mut String) {
    out.push('{');
    for (i, (name, h)) in metrics.histograms.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_str(name, out);
        let _ = write!(
            out,
            ":{{\"p50\":{},\"p95\":{},\"p99\":{}}}",
            h.p50(),
            h.p95(),
            h.p99()
        );
    }
    out.push('}');
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
    let mut body = String::from("{\"provenance\":{\"git_sha\":");
    write_str(&git_sha(), &mut body);
    let _ = write!(body, ",\"seed\":{seed},\"scenario\":");
    write_str(name, &mut body);
    body.push_str(",\"fabric\":");
    write_str(fabric, &mut body);
    body.push_str("},\"percentiles\":");
    write_percentiles(metrics, &mut body);
    body.push_str(",\"metrics\":");
    body.push_str(&metrics.to_json());
    body.push('}');
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
/// Delta payload size for E-SHARD updates.
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

/// E-SHARD — aggregate pipelined-update throughput across {16…10k}
/// concurrent coordination groups multiplexed over a fixed worker pool,
/// printed beside the single-group sync operating point (one update per
/// signed round — what one shared object achieves on its own) on the
/// same fabric. `--fabric tcp` runs the identical sweep with every
/// inter-party frame crossing the multiplexed loopback socket.
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
    let (anchor, mut metrics) = eshard_sync_anchor(shards, fabric, &MetricsSnapshot::default());
    println!(
        "| 1 (sync anchor) | 1 | {} | {:.0} | {:.0} | {:.1} | {} |",
        anchor.updates,
        anchor.setup.as_secs_f64() * 1e3,
        anchor.wall.as_secs_f64() * 1e3,
        anchor.updates_per_sec(),
        anchor.stalls,
    );
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
        }
    }
    (metrics, fabric)
}

fn die(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}
