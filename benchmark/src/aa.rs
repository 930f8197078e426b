//! `suite`: every workload once, in child processes, as one table.
//! `aa`: the suite N times twice, interleaved, to show that two sets of runs
//! of one commit agree within the benchmark's own bounds.

use crate::catalog::{END_TO_END, PER_LAYER};
use crate::config::WORKLOADS;
use crate::measure::median;
use crate::report::{benchmark_json, field, number};
use crate::Args;
use serde::Value;
use std::process::{Command, Stdio};

/// One child run, as its result file tells it.
struct ChildRun {
    end_to_end: Vec<(String, f64)>,
    per_layer: Vec<(String, f64)>,
}

impl ChildRun {
    fn get(&self, name: &str) -> Option<f64> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }
}

/// Runs one workload once in a child process and reads its result file;
/// `None` if the run failed, was wrong, or its file's `smoke` stamp is not
/// the one asked for.
fn child(workload: &str, seed: u64, seconds: f64, trace: bool, smoke: bool) -> Option<ChildRun> {
    let exe = std::env::current_exe().expect("own path");
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdout(Stdio::null())
        .stderr(Stdio::null());
    if smoke {
        cmd.arg("--smoke");
    }
    // `status` waits for the child to end.
    if !cmd.status().expect("spawn benchmark run").success() {
        return None;
    }
    let file = crate::out_dir().join(format!("result-{workload}-trace{}.json", u8::from(trace)));
    let result: Value = serde_json::from_str(&std::fs::read_to_string(file).ok()?).ok()?;
    let stamped =
        |key: &str, want: bool| matches!(field(&result, key), Some(Value::Bool(b)) if *b == want);
    if !stamped("correct", true) || !stamped("smoke", smoke) {
        return None;
    }
    let table = |key: &str| -> Option<Vec<(String, f64)>> {
        Some(
            field(&result, key)?
                .as_map()?
                .iter()
                .filter_map(|(name, m)| Some((name.clone(), number(field(m, "value")?)?)))
                .collect(),
        )
    };
    Some(ChildRun {
        end_to_end: table("end_to_end")?,
        per_layer: table("per_layer")?,
    })
}

fn print_table(workload: &str, catalog: &[(&str, &str)], run: &ChildRun) {
    for (name, unit) in catalog {
        if let Some(value) = run.get(name) {
            println!("{workload:<14} {name:<40} {value:>16.4} {unit}");
        }
    }
}

/// Runs every workload, untraced for the end-to-end metrics and traced for
/// the per-layer ones, and prints every metric by name with its unit. Under
/// `--smoke` one traced run per workload gives both. Returns the exit code.
pub fn suite(args: &Args) -> i32 {
    let mut code = 0;
    for w in WORKLOADS {
        let mut failed = |trace: bool| {
            println!("{:<14} FAILED (trace {})", w.name, u8::from(trace));
            code = 1;
        };
        if !args.smoke {
            match child(w.name, args.seed, args.seconds, false, false) {
                Some(run) => print_table(w.name, &END_TO_END, &run),
                None => failed(false),
            }
        }
        match child(w.name, args.seed, args.seconds, true, args.smoke) {
            Some(run) => {
                if args.smoke {
                    print_table(w.name, &END_TO_END, &run);
                }
                print_table(w.name, &PER_LAYER, &run);
            }
            None => failed(true),
        }
    }
    if args.smoke {
        println!("smoke: true -- these figures are not measurements");
    }
    code
}

/// `(bound, lower-is-better)` of every end-to-end metric in
/// `BENCHMARK.json`.
fn bounds() -> Vec<(String, f64, bool)> {
    let doc = benchmark_json().expect("BENCHMARK.json at the root of the checkout");
    let Some(Value::Seq(list)) = field(&doc, "end_to_end") else {
        panic!("BENCHMARK.json has no end_to_end list");
    };
    list.iter()
        .map(|m| {
            let text = |k: &str| match field(m, k) {
                Some(Value::Str(s)) => s.clone(),
                _ => panic!("end_to_end entry without {k}"),
            };
            let bound = field(m, "bound").and_then(number).expect("bound");
            (text("name"), bound, text("better") == "lower")
        })
        .collect()
}

/// Two interleaved sets (A B A B …) of `runs` untraced suites each, every
/// run on its own seed. Prints per workload × end-to-end metric both
/// medians, how much worse B's is than A's, and the bound; exits non-zero if
/// any pair exceeds its bound.
pub fn aa(args: &Args) -> i32 {
    if args.smoke {
        eprintln!("aa refuses --smoke: smoke figures are not measurements");
        return 2;
    }
    let bounds = bounds();
    let mut code = 0;
    println!(
        "| workload | metric | median A | median B | B worse by | bound | slice spread | verdict |\n|---|---|---:|---:|---:|---:|---:|---|"
    );
    for w in WORKLOADS {
        let mut sides: [Vec<ChildRun>; 2] = [Vec::new(), Vec::new()];
        for i in 0..args.runs {
            for (side, runs) in sides.iter_mut().enumerate() {
                let seed = args.seed + (2 * i + side) as u64;
                match child(w.name, seed, args.seconds, false, false) {
                    Some(m) => runs.push(m),
                    None => {
                        println!(
                            "| {} | run with seed {seed} failed | | | | | | FAIL |",
                            w.name
                        );
                        code = 1;
                    }
                }
            }
        }
        let spread = median(
            &sides
                .iter()
                .flatten()
                .filter_map(|r| r.get("bench.slice_spread"))
                .collect::<Vec<_>>(),
        );
        for (name, bound, lower_better) in &bounds {
            let med = |runs: &[ChildRun]| {
                median(&runs.iter().filter_map(|r| r.get(name)).collect::<Vec<_>>())
            };
            let (a, b) = (med(&sides[0]), med(&sides[1]));
            let worse = if *lower_better {
                b / a - 1.0
            } else {
                1.0 - b / a
            };
            let ok = worse <= *bound;
            if !ok {
                code = 1;
            }
            println!(
                "| {} | {name} | {a:.4} | {b:.4} | {:+.2} % | {:.0} % | {spread:.3} | {} |",
                w.name,
                worse * 100.0,
                bound * 100.0,
                if ok { "ok" } else { "EXCEEDS" }
            );
        }
    }
    code
}

#[cfg(test)]
mod tests {
    #[test]
    fn every_end_to_end_metric_has_a_bound() {
        let bounds = super::bounds();
        assert_eq!(bounds.len(), super::END_TO_END.len());
        assert!(bounds.iter().all(|(_, b, _)| *b > 0.0 && *b <= 0.25));
    }
}
