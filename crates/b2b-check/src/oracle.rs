//! Safety and liveness oracles evaluated after every schedule.
//!
//! Each oracle checks one promise the paper makes about the coordination
//! protocols, judged only at *correctly behaving* parties (never at a
//! scenario's insider — a misbehaving party's own replica carries no
//! guarantee). A party's history is read through [`b2b_core::history`]
//! from its evidence log, which survives a crash, so the parties a
//! schedule crashed are judged like the others.

use crate::harness::Fleet;
use crate::scenario::{DrivenOp, Scenario};
use b2b_core::history::{self, FaultKind, Install};
use b2b_core::{DecisionRule, StateId};
use b2b_crypto::sha256;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// One oracle violation. `Display` renders the stable one-line form that
/// counterexample artifacts record and replay compares against.
#[derive(Clone, Debug, PartialEq)]
pub enum Violation {
    /// Two correct parties installed different states at the same
    /// sequence number (§4.1: "all parties see the same sequence of
    /// state changes").
    Divergence {
        /// The sequence number both installs claim.
        seq: u64,
        /// First party index and its installed state id.
        a: (usize, StateId),
        /// Second party index and its conflicting state id.
        b: (usize, StateId),
    },
    /// A correct party's evidence log is not a history: a record fails
    /// verification, or installs what the log has not established — a
    /// skipped sequence number, a predecessor other than the installed
    /// tuple, a reused tuple, a decide without a complete, unanimous,
    /// correctly signed response set (§4.2, §4.3).
    History {
        /// The party whose log it is.
        party: usize,
        /// The sequence number of the first record that does not fit.
        record: u64,
        /// What is wrong with it.
        fault: FaultKind,
    },
    /// A correct party's held state bytes do not hash to the state hash
    /// its own agreed [`StateId`] claims (§4.2: the signed proposal pins
    /// the installed bytes; for a batched round, the signed per-update
    /// chain must end at exactly the installed state). Installing such a
    /// state means a receipt vouches for bytes the party never held.
    StateHashMismatch {
        /// The party holding the ill-founded state.
        party: usize,
        /// Hex of the state hash the agreed id claims.
        claimed: String,
        /// Hex of the hash of the bytes actually held.
        actual: String,
    },
    /// Bounded-envelope liveness failure: a driven run never terminated,
    /// or the group failed to converge after the net went quiet.
    Stalled {
        /// What failed to make progress.
        reason: String,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::Divergence { seq, a, b } => write!(
                f,
                "divergence: seq {seq} installed as {:?} at org{} but {:?} at org{}",
                a.1, a.0, b.1, b.0
            ),
            Violation::History {
                party,
                record,
                fault,
            } => write!(f, "history: org{party} record {record}: {fault}"),
            Violation::StateHashMismatch {
                party,
                claimed,
                actual,
            } => write!(
                f,
                "state-hash-mismatch: org{party} holds bytes hashing to {} while its agreed id claims {}",
                &actual[..12.min(actual.len())],
                &claimed[..12.min(claimed.len())]
            ),
            Violation::Stalled { reason } => write!(f, "stalled: {reason}"),
        }
    }
}

/// Runs every oracle against the finished schedule.
pub fn check_all(fleet: &Fleet, scenario: &dyn Scenario, ops: &[DrivenOp]) -> Vec<Violation> {
    let insider = scenario.insider();
    let correct: Vec<usize> = (0..fleet.len()).filter(|&i| Some(i) != insider).collect();
    let mut violations = Vec::new();

    // Oracles 1–6 — each correct party's log is a history: every record
    // verifies, and every install extends what the log established
    // (contiguous sequence numbers, lineage, fresh tuples, a complete
    // unanimous signed decide).
    let (object, tsa) = (fleet.object(), fleet.tsa().public_key());
    let mut by_seq: BTreeMap<(usize, u64), (usize, StateId)> = BTreeMap::new();
    for &i in &correct {
        let log = fleet.store(i).as_ref();
        let history = history::check(
            log,
            &object,
            fleet.ring(),
            Some(&tsa),
            DecisionRule::Unanimous,
        );
        if let Some(fault) = history.fault {
            violations.push(Violation::History {
                party: i,
                record: fault.record,
                fault: fault.kind,
            });
            continue;
        }
        // Install divergence across correct parties, keyed by (group,
        // seq): independent groups advance their own chains.
        for Install { tuple: id, .. } in history.installs {
            let seq = id.seq;
            let (j, other) = *by_seq.entry((fleet.group_of(i), seq)).or_insert((i, id));
            if other != id {
                let (a, b) = ((j, other), (i, id));
                violations.push(Violation::Divergence { seq, a, b });
            }
        }
    }

    // Oracle 7 — held-state well-foundedness: every correct party's
    // agreed bytes hash to exactly what its agreed id claims. This is
    // what a batch-chain forgery that slips past an ablated §4.2 check
    // produces: the signed tuple and the installed bytes disagree.
    for &i in &correct {
        let held = fleet.agreed_state(i);
        let id = fleet.agreed_id(i);
        let actual = sha256(&held);
        if actual != id.state_hash {
            violations.push(Violation::StateHashMismatch {
                party: i,
                claimed: hex::encode(id.state_hash.as_ref()),
                actual: hex::encode(actual.as_ref()),
            });
        }
    }

    // Oracle 8 — bounded-envelope liveness (honest scenarios only).
    if scenario.check_liveness() {
        for (k, op) in ops.iter().enumerate() {
            match &op.run {
                None => violations.push(Violation::Stalled {
                    reason: format!("op {k}: proposal refused at org{}", op.proposer),
                }),
                Some(run) => {
                    if fleet.outcome(op.proposer, run).is_none() {
                        violations.push(Violation::Stalled {
                            reason: format!(
                                "op {k}: run {} never decided at proposing org{}",
                                &run.to_hex()[..12],
                                op.proposer
                            ),
                        });
                    }
                }
            }
        }
        // Convergence is a per-group promise: each group settles on one
        // final state, independent of what its co-scheduled neighbours
        // agreed.
        for g in 0..fleet.groups() {
            let members: Vec<usize> = fleet
                .group_members(g)
                .into_iter()
                .filter(|i| correct.contains(i))
                .collect();
            let ids: BTreeSet<String> = members
                .iter()
                .map(|&i| format!("{:?}", fleet.agreed_id(i)))
                .collect();
            let states: BTreeSet<Vec<u8>> =
                members.iter().map(|&i| fleet.agreed_state(i)).collect();
            if ids.len() > 1 || states.len() > 1 {
                violations.push(Violation::Stalled {
                    reason: format!(
                        "group {g} failed to converge: {} distinct final states",
                        ids.len().max(states.len())
                    ),
                });
            }
        }
    }

    violations
}
