//! The schedule-exploration loop: generate, run, judge, shrink.

use crate::artifact::Counterexample;
use crate::harness::{party, Fleet};
use crate::oracle;
use crate::plan::SchedulePlan;
use crate::scenario::Scenario;
use crate::shrink;
use b2b_core::MutationFlags;
use b2b_telemetry::{names, Telemetry, TraceEvent};

/// Exploration budget and instrumentation for one [`explore`] call.
#[derive(Clone)]
pub struct CheckConfig {
    /// First seed; schedule `k` uses `base_seed + k`.
    pub base_seed: u64,
    /// Maximum number of schedules to run.
    pub budget: u64,
    /// §4.2 ablations under which the fleet is built (all-false = the
    /// production protocol).
    pub mutation: MutationFlags,
    /// Telemetry for the `schedules_explored` / `violations_found` /
    /// `shrink_steps` counters.
    pub telemetry: Telemetry,
}

impl CheckConfig {
    /// A default-budget configuration (500 schedules from seed 1).
    pub fn new() -> CheckConfig {
        CheckConfig {
            base_seed: 1,
            budget: 500,
            mutation: MutationFlags::default(),
            telemetry: Telemetry::default(),
        }
    }
}

impl Default for CheckConfig {
    fn default() -> Self {
        CheckConfig::new()
    }
}

/// The oracles' verdict on one schedule, in replay-comparable form.
#[derive(Clone, Debug, PartialEq)]
pub struct RunVerdict {
    /// Rendered oracle violations (empty = the schedule passed).
    pub violations: Vec<String>,
    /// Per-party hex digests over the full serialized evidence logs —
    /// the determinism fingerprint a replayed counterexample must match.
    pub evidence_digests: Vec<String>,
    /// The merged flight-recorder events of the schedule (everything after
    /// the plan was applied) — the distributed trace a counterexample
    /// ships for replay and visualisation.
    pub trace: Vec<TraceEvent>,
}

impl RunVerdict {
    /// `true` when any oracle fired.
    pub fn violated(&self) -> bool {
        !self.violations.is_empty()
    }
}

/// Result of one [`explore`] call.
#[derive(Debug)]
pub struct CheckOutcome {
    /// Schedules actually run (≤ budget; stops at the first violation).
    pub schedules_run: u64,
    /// Shrink candidates evaluated (0 when no violation was found).
    pub shrink_steps: u64,
    /// The shrunk, replayable counterexample, if any oracle fired.
    pub counterexample: Option<Counterexample>,
}

/// Runs one complete schedule — build the fleet under `mutation`, apply
/// `plan`, drive the scenario, settle, judge — and returns the verdict.
/// Fully deterministic: the same `(scenario, plan, mutation)` triple
/// always yields the same verdict and the same evidence digests.
pub fn run_schedule(
    scenario: &dyn Scenario,
    plan: &SchedulePlan,
    mutation: MutationFlags,
) -> RunVerdict {
    let mut fleet = Fleet::new_grouped(
        scenario.parties() / scenario.groups(),
        scenario.groups(),
        plan.seed,
        mutation,
    );
    fleet.apply(plan);
    let ops = scenario.drive(&mut fleet);
    fleet.run();
    let violations = oracle::check_all(&fleet, scenario, &ops)
        .iter()
        .map(|v| v.to_string())
        .collect();
    let evidence_digests = (0..fleet.len()).map(|i| fleet.evidence_digest(i)).collect();
    let trace = fleet.trace_events();
    RunVerdict {
        violations,
        evidence_digests,
        trace,
    }
}

/// Explores up to `cfg.budget` schedules of `scenario`. Stops at the
/// first violating schedule, shrinks its plan, and packages the result
/// as a replayable [`Counterexample`].
pub fn explore(scenario: &dyn Scenario, cfg: &CheckConfig) -> CheckOutcome {
    let parties: Vec<_> = (0..scenario.parties()).map(party).collect();
    let protected = scenario.protected();
    for k in 0..cfg.budget {
        let plan = SchedulePlan::generate(cfg.base_seed.wrapping_add(k), &parties, &protected);
        let verdict = run_schedule(scenario, &plan, cfg.mutation);
        cfg.telemetry.inc(names::SCHEDULES_EXPLORED);
        if verdict.violated() {
            cfg.telemetry.inc(names::VIOLATIONS_FOUND);
            let (shrunk, steps) = shrink::shrink(scenario, &plan, cfg.mutation, &cfg.telemetry);
            let final_verdict = run_schedule(scenario, &shrunk, cfg.mutation);
            debug_assert!(final_verdict.violated(), "shrinking must preserve failure");
            return CheckOutcome {
                schedules_run: k + 1,
                shrink_steps: steps,
                counterexample: Some(Counterexample {
                    scenario: scenario.id().to_string(),
                    mutation: cfg.mutation,
                    plan: shrunk,
                    violations: final_verdict.violations,
                    evidence_digests: final_verdict.evidence_digests,
                    trace: final_verdict.trace,
                }),
            };
        }
    }
    CheckOutcome {
        schedules_run: cfg.budget,
        shrink_steps: 0,
        counterexample: None,
    }
}
