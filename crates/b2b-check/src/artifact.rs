//! Replayable counterexample artifacts.
//!
//! A [`Counterexample`] pins everything needed to reproduce a violation:
//! the scenario id, the mutation flags the fleet was built under, the
//! shrunk [`SchedulePlan`] (which embeds the seed), the rendered oracle
//! violations, and the per-party evidence-log digests. [`Counterexample::
//! replay`] re-runs the schedule from scratch and demands byte-identical
//! results — the artifact either reproduces exactly or reports how the
//! replay diverged. Serialized artifacts are committed as regression
//! fixtures under `tests/fixtures/faultplans/`.

use crate::explore::run_schedule;
use crate::plan::SchedulePlan;
use crate::scenario;
use b2b_core::MutationFlags;
use b2b_telemetry::TraceEvent;
use serde::{Deserialize, Serialize};

/// A shrunk, self-contained, replayable protocol violation.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Counterexample {
    /// Id of the scenario that was driven ([`crate::scenario::scenario`]).
    pub scenario: String,
    /// The §4.2 ablations the violating fleet was built under.
    pub mutation: MutationFlags,
    /// The shrunk schedule (embeds the generating seed).
    pub plan: SchedulePlan,
    /// Rendered oracle violations the replay must reproduce verbatim.
    pub violations: Vec<String>,
    /// Per-party evidence-log digests the replay must reproduce.
    pub evidence_digests: Vec<String>,
    /// The distributed trace of the shrunk schedule: the merged per-node
    /// flight-recorder events, replayable byte-identically and exportable
    /// as a Chrome trace (`b2b-check check --emit`).
    pub trace: Vec<TraceEvent>,
}

impl Counterexample {
    /// Serializes to JSON (deterministic emitter — stable bytes).
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("counterexample serialises")
    }

    /// Parses an artifact from JSON.
    pub fn from_json(json: &str) -> Result<Counterexample, String> {
        serde_json::from_str(json).map_err(|e| format!("bad counterexample JSON: {e}"))
    }

    /// Re-runs the recorded schedule and verifies the violation
    /// reproduces with identical oracle output and identical per-party
    /// evidence digests. `Err` describes the first divergence.
    pub fn replay(&self) -> Result<(), String> {
        let scenario = scenario::scenario(&self.scenario)
            .ok_or_else(|| format!("unknown scenario '{}'", self.scenario))?;
        let verdict = run_schedule(scenario, &self.plan, self.mutation);
        if verdict.violations != self.violations {
            return Err(format!(
                "violations diverged on replay: recorded {:?}, got {:?}",
                self.violations, verdict.violations
            ));
        }
        if verdict.evidence_digests != self.evidence_digests {
            return Err(format!(
                "evidence digests diverged on replay: recorded {:?}, got {:?}",
                self.evidence_digests, verdict.evidence_digests
            ));
        }
        if verdict.trace != self.trace {
            return Err(format!(
                "distributed trace diverged on replay: recorded {} events, got {}",
                self.trace.len(),
                verdict.trace.len()
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_roundtrip_is_lossless_and_stable() {
        let cx = Counterexample {
            scenario: "insider-stale-prev".into(),
            mutation: MutationFlags {
                skip_predecessor: true,
                ..MutationFlags::default()
            },
            plan: SchedulePlan::quiescent(77),
            violations: vec!["lineage: org0 …".into()],
            evidence_digests: vec!["aa".into(), "bb".into()],
            trace: vec![TraceEvent {
                time_ms: 1,
                party: "org0".into(),
                span: "state_run".into(),
                phase: "propose".into(),
                detail: "run=ab".into(),
                trace_id: 7,
                span_id: 8,
                parent_span: 0,
            }],
        };
        let json = cx.to_json();
        let back = Counterexample::from_json(&json).unwrap();
        assert_eq!(cx, back);
        assert_eq!(json, back.to_json());
        assert!(Counterexample::from_json("{").is_err());
    }

    #[test]
    fn replay_rejects_unknown_scenarios() {
        let cx = Counterexample {
            scenario: "not-a-scenario".into(),
            mutation: MutationFlags::default(),
            plan: SchedulePlan::quiescent(1),
            violations: vec![],
            evidence_digests: vec![],
            trace: vec![],
        };
        assert!(cx.replay().unwrap_err().contains("unknown scenario"));
    }
}
