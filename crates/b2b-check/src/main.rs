//! The schedule explorer as a command line.
//!
//! * `b2b-check check [--budget N] [--seed S] [--scenario ID] [--emit DIR]`
//!   prints the E-CHK tables: one row per ablated §4.2 check (found,
//!   shrunk, replayed) and the clean sweep of every scenario on the
//!   unmutated build. Exits 1 on a missed kill, a replay that diverges or
//!   a clean-build violation. `--emit DIR` writes each shrunk
//!   counterexample as `<scenario>.json` with its Chrome trace-event view
//!   beside it as `<scenario>.trace.json`.
//! * `b2b-check trace [--seed S]` runs the Figure-5 sharing scenario —
//!   three organisations, three proposals, then org2 leaves voluntarily —
//!   prints one ASCII timeline per distributed trace and writes Chrome
//!   trace-event JSON (for `chrome://tracing` or Perfetto) under
//!   `target/traces/`.
//!
//! Run it in release: `cargo run -p b2b-check --release -- check`.

use b2b_check::{explore, kill_matrix, scenarios, CheckConfig, Fleet};
use b2b_core::MutationFlags;
use b2b_telemetry::{assemble, chrome_trace_json};
use std::path::{Path, PathBuf};
use std::process::exit;
use std::time::Instant;

fn main() {
    let mut args = std::env::args().skip(1);
    let command = args.next().unwrap_or_default();
    let flags = parse_flags(args.collect());
    let seed = |default: u64| flags.number("--seed").unwrap_or(default);
    match command.as_str() {
        "check" => check(
            flags.number("--budget").unwrap_or(500),
            seed(1),
            flags.value("--scenario"),
            flags.value("--emit").map(PathBuf::from),
        ),
        "trace" => trace(seed(5)),
        other => die(&format!(
            "unknown command '{other}'; expected check or trace"
        )),
    }
}

/// `--flag value` pairs, in order.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn value(&self, name: &str) -> Option<String> {
        self.0
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.clone())
    }

    fn number(&self, name: &str) -> Option<u64> {
        let v = self.value(name)?;
        Some(
            v.parse()
                .unwrap_or_else(|_| die(&format!("{name} takes a number"))),
        )
    }
}

fn parse_flags(args: Vec<String>) -> Flags {
    const KNOWN: [&str; 4] = ["--budget", "--seed", "--scenario", "--emit"];
    let mut it = args.into_iter();
    let mut out = Vec::new();
    while let Some(flag) = it.next() {
        if !KNOWN.contains(&flag.as_str()) {
            die(&format!("unknown flag '{flag}'"));
        }
        let value = it
            .next()
            .unwrap_or_else(|| die(&format!("missing value for {flag}")));
        out.push((flag, value));
    }
    Flags(out)
}

fn die(msg: &str) -> ! {
    eprintln!("{msg}");
    exit(2);
}

/// E-CHK: the kill matrix, then the clean sweep over the same seeds.
fn check(budget: u64, base_seed: u64, only: Option<String>, emit: Option<PathBuf>) {
    let wanted = |id: &str| only.as_deref().is_none_or(|o| o == id);
    let config = |mutation| CheckConfig {
        base_seed,
        budget,
        mutation,
        ..CheckConfig::new()
    };
    let mut failures = 0u32;

    println!("\n## E-CHK — schedule exploration and mutation kills (budget {budget}, base seed {base_seed})\n");
    println!("| scenario | ablated check | schedules to kill | shrink steps | shrunk events | violation | schedules/s |");
    println!("|---|---|---|---|---|---|---|");
    for (scenario, flags, label) in kill_matrix() {
        if !wanted(scenario.id()) {
            continue;
        }
        let t = Instant::now();
        let out = explore(scenario, &config(flags));
        // The final replay counts as one more schedule.
        let rate = (out.schedules_run + out.shrink_steps + 1) as f64 / t.elapsed().as_secs_f64();
        let Some(cx) = out.counterexample else {
            println!(
                "| {} | {label} | NOT FOUND in {budget} | - | - | - | {rate:.0} |",
                scenario.id()
            );
            failures += 1;
            continue;
        };
        let violation = if cx.replay().is_ok() {
            cx.violations.first().cloned().unwrap_or_default()
        } else {
            failures += 1;
            "REPLAY DIVERGED".into()
        };
        println!(
            "| {} | {label} | {} | {} | {} | {violation} | {rate:.0} |",
            scenario.id(),
            out.schedules_run,
            out.shrink_steps,
            cx.plan.events.len(),
        );
        if let Some(dir) = &emit {
            let path = dir.join(format!("{}.json", scenario.id()));
            let tpath = dir.join(format!("{}.trace.json", scenario.id()));
            write(&path, &cx.to_json());
            write(&tpath, &chrome_trace_json(&assemble(&cx.trace)));
            println!("  -> wrote {} and {}", path.display(), tpath.display());
        }
    }

    println!("\n| scenario (unmutated) | schedules | violations | schedules/s |");
    println!("|---|---|---|---|");
    for scenario in scenarios() {
        if !wanted(scenario.id()) {
            continue;
        }
        let t = Instant::now();
        let out = explore(scenario, &config(MutationFlags::default()));
        let rate = out.schedules_run as f64 / t.elapsed().as_secs_f64();
        let found = u32::from(out.counterexample.is_some());
        println!(
            "| {} | {} | {found} | {rate:.0} |",
            scenario.id(),
            out.schedules_run
        );
        // A clean-build violation is a middleware bug.
        failures += found;
    }
    if failures > 0 {
        eprintln!("\nE-CHK FAILED: {failures} row(s) off expectation");
        exit(1);
    }
}

/// The Figure-5 sharing scenario under the fleet's flight recorder.
fn trace(seed: u64) {
    let mut fleet = Fleet::new(3, seed, MutationFlags::default());
    for (who, v) in [(0, 41), (1, 42), (2, 43)] {
        fleet.propose(who, v);
    }
    let oid = fleet.object();
    fleet
        .net
        .invoke(&b2b_check::harness::party(2), move |c, ctx| {
            c.request_disconnect(&oid, ctx).expect("org2 is a member");
        });
    fleet.run();

    let traces = assemble(&fleet.trace_events());
    println!("\n## Distributed traces — Figure-5 sharing scenario (sim, seed {seed})\n");
    for t in &traces {
        println!("{}", t.ascii_timeline());
    }
    let path = Path::new("target")
        .join("traces")
        .join(format!("trace-sim-{seed}.trace.json"));
    write(&path, &chrome_trace_json(&traces));
    println!(
        "chrome trace: {} ({} traces) — open in chrome://tracing or ui.perfetto.dev",
        path.display(),
        traces.len()
    );
}

fn write(path: &Path, body: &str) {
    let dir = path.parent().expect("a file path");
    if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(path, body)) {
        die(&format!("cannot write {}: {e}", path.display()));
    }
}
