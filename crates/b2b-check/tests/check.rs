//! The explorer's acceptance suite: the mutation self-test (every
//! ablated §4.2 invariant is found and shrunk within a fixed
//! deterministic budget, while the unmutated build reports the same
//! seeds clean), replay byte-identity, and the committed counterexample
//! fixtures as regression tests.

use b2b_check::{
    explore, kill_matrix, run_schedule, scenarios, CheckConfig, Counterexample, SchedulePlan,
};
use b2b_core::MutationFlags;
use b2b_telemetry::{names, Telemetry};

/// The acceptance budget: a kill must land within this many schedules.
const KILL_BUDGET: u64 = 500;

/// Schedules swept per scenario on the unmutated build. This always
/// covers every seed a kill run visited (kills land on the very first
/// seeds), and the CI smoke job sweeps a larger window.
const CLEAN_BUDGET: u64 = 60;

/// Every seed is pinned so the suite is deterministic end to end.
const BASE_SEED: u64 = 1;

#[test]
fn each_ablated_invariant_is_killed_and_shrunk_within_budget() {
    for (scenario, flags, label) in kill_matrix() {
        let telemetry = Telemetry::default();
        let cfg = CheckConfig {
            base_seed: BASE_SEED,
            budget: KILL_BUDGET,
            mutation: flags,
            telemetry: telemetry.clone(),
        };
        let out = explore(scenario, &cfg);
        let cx = out
            .counterexample
            .unwrap_or_else(|| panic!("{label}: no violation within {KILL_BUDGET} schedules"));
        assert!(
            out.schedules_run <= KILL_BUDGET,
            "{label}: budget overrun ({})",
            out.schedules_run
        );
        assert!(
            cx.plan.events.len() <= 8,
            "{label}: shrunk plan still has {} fault events",
            cx.plan.events.len()
        );
        assert!(!cx.violations.is_empty(), "{label}: empty violation list");

        // The explorer's own instrumentation moved.
        let snap = telemetry.metrics().snapshot();
        assert_eq!(snap.counter(names::SCHEDULES_EXPLORED), out.schedules_run);
        assert_eq!(snap.counter(names::VIOLATIONS_FOUND), 1);
        assert_eq!(snap.counter(names::SHRINK_STEPS), out.shrink_steps);
        assert!(out.shrink_steps > 0, "{label}: shrinker never ran");

        // The artifact survives a JSON roundtrip and replays to the
        // identical oracle verdict and evidence digests.
        let json = cx.to_json();
        let back = Counterexample::from_json(&json).expect("artifact parses");
        assert_eq!(back, cx);
        back.replay()
            .unwrap_or_else(|e| panic!("{label}: counterexample failed to replay: {e}"));
    }
}

#[test]
fn unmutated_build_reports_the_same_seeds_clean() {
    for scenario in scenarios() {
        let cfg = CheckConfig {
            base_seed: BASE_SEED,
            budget: CLEAN_BUDGET,
            mutation: MutationFlags::default(),
            telemetry: Telemetry::default(),
        };
        let out = explore(scenario, &cfg);
        assert_eq!(
            out.schedules_run,
            CLEAN_BUDGET,
            "{}: clean sweep stopped early: {:?}",
            scenario.id(),
            out.counterexample.map(|cx| cx.violations)
        );
    }
}

#[test]
fn run_schedule_is_deterministic() {
    let (scenario, flags, _) = kill_matrix().remove(0);
    let parties: Vec<_> = (0..scenario.parties())
        .map(|i| b2b_crypto::PartyId::new(format!("org{i}")))
        .collect();
    let plan = SchedulePlan::generate(17, &parties, &scenario.protected());
    let a = run_schedule(scenario, &plan, flags);
    let b = run_schedule(scenario, &plan, flags);
    assert_eq!(
        a, b,
        "identical (scenario, plan, mutation) must replay identically"
    );
}

/// The multi-group smoke scenario models the sharded runtime inside the
/// deterministic explorer: the same seed must replay to the identical
/// verdict (including evidence digests), and the production protocol
/// must hold both groups safe and live under its schedules.
#[test]
fn sharded_pair_smoke_is_deterministic_and_clean() {
    let scenario = b2b_check::scenario("sharded-pair-smoke").expect("registered");
    let parties: Vec<_> = (0..scenario.parties())
        .map(|i| b2b_crypto::PartyId::new(format!("org{i}")))
        .collect();
    for seed in [23, 24, 25] {
        let plan = SchedulePlan::generate(seed, &parties, &scenario.protected());
        let a = run_schedule(scenario, &plan, MutationFlags::default());
        let b = run_schedule(scenario, &plan, MutationFlags::default());
        assert_eq!(
            a, b,
            "seed {seed}: grouped schedule must replay identically"
        );
        assert!(
            !a.violated(),
            "seed {seed}: production protocol fired an oracle: {:?}",
            a.violations
        );
    }
}

/// Every committed counterexample under `tests/fixtures/faultplans/` —
/// including at least one shrunk plan per kill-matrix row — must keep
/// replaying byte-identically: same violations, same evidence digests.
#[test]
fn committed_counterexample_fixtures_still_replay() {
    let dir = format!("{}/tests/fixtures/faultplans", env!("CARGO_MANIFEST_DIR"));
    let mut fixtures: Vec<_> = std::fs::read_dir(&dir)
        .expect("fixture directory present")
        .filter_map(|e| {
            let path = e.unwrap().path();
            (path.extension().map(|x| x == "json") == Some(true)).then_some(path)
        })
        .collect();
    fixtures.sort();
    assert!(
        fixtures.len() >= 5,
        "one promoted counterexample per kill-matrix row expected"
    );
    for path in fixtures {
        let json = std::fs::read_to_string(&path).unwrap();
        let cx =
            Counterexample::from_json(&json).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        cx.replay()
            .unwrap_or_else(|e| panic!("{} no longer replays: {e}", path.display()));
    }
}

/// The history oracle reads a party's evidence log, which a crash does not
/// lose, so a party the schedule crashed is judged like the others.
#[test]
fn a_crashed_party_is_judged_from_its_log() {
    use b2b_check::harness::party;
    use b2b_check::{oracle, scenario, FaultEvent, Fleet, Violation};
    use b2b_core::history::FaultKind;
    use b2b_core::StateId;
    use b2b_crypto::{sha256, CanonicalEncode, TimeMs};
    use b2b_evidence::{EvidenceKind, EvidenceRecord, EvidenceStore};
    let scenario = scenario("temporal-faults").unwrap();
    let mut plan = SchedulePlan::quiescent(3);
    let (at, until) = (TimeMs(1), TimeMs(500));
    plan.events.push(FaultEvent::Crash {
        party: 1,
        at,
        until,
    });
    let mut fleet = Fleet::new(3, plan.seed, MutationFlags::default());
    fleet.apply(&plan);
    let ops = scenario.drive(&mut fleet);
    fleet.run();
    assert_eq!(oracle::check_all(&fleet, scenario, &ops), vec![]);
    // A checkpoint no install accounts for, in the crashed party's log.
    let bogus = StateId::genesis(sha256(b"bogus"), b"99").canonical_bytes();
    let record = EvidenceRecord::new(
        EvidenceKind::Checkpoint,
        "counter",
        "",
        party(1),
        bogus,
        None,
        None,
        TimeMs(0),
    );
    fleet.store(1).append(record).unwrap();
    let violations = oracle::check_all(&fleet, scenario, &ops);
    assert!(
        matches!(
            violations[..],
            [Violation::History {
                party: 1,
                fault: FaultKind::Checkpoint(..),
                ..
            }]
        ),
        "{violations:?}"
    );
}
