//! Safety and liveness oracles evaluated after every schedule.
//!
//! Each oracle checks one promise the paper makes about the coordination
//! protocols, judged only at *correctly behaving* parties (never at a
//! scenario's insider — a misbehaving party's own replica carries no
//! guarantee). The per-party history oracles (chain contiguity, lineage)
//! additionally skip parties the schedule crashed, because a crash loses
//! the volatile event buffer — not because the guarantee lapses.

use crate::harness::{party, Fleet};
use crate::scenario::{DrivenOp, Scenario};
use b2b_core::messages::{DecideMsg, ProposeMsg, WireMsg};
use b2b_core::{CoordEventKind, Outcome, RunId, StateId};
use b2b_crypto::{sha256, CanonicalDecode};
use b2b_evidence::{EvidenceKind, EvidenceStore, LogAuditor};
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
    /// A correct party's installed sequence numbers skipped a value
    /// (§4.2 invariant 3 is what forbids this end to end).
    ChainGap {
        /// The party whose chain has the gap.
        party: usize,
        /// The sequence number the next install should have carried.
        expected_seq: u64,
        /// The sequence number actually installed.
        got_seq: u64,
    },
    /// A correct party installed a state whose signed proposal names a
    /// predecessor other than the state the party actually held (§4.2
    /// invariant 1 is what forbids this).
    Lineage {
        /// The party that installed the ill-founded state.
        party: usize,
        /// The predecessor named in the proposal on the wire.
        wire_prev: StateId,
        /// The predecessor the party actually held.
        held_prev: StateId,
    },
    /// A correct party installed a run whose proposal tuple
    /// `(seq, H(random))` it had already processed under an earlier,
    /// different run label (§4.4: the tuple "uniquely labels" a
    /// transition; reuse lets one receipt vouch for two states).
    TupleReuse {
        /// The party that accepted the reused tuple.
        party: usize,
        /// The installing run (hex label).
        run: String,
        /// The earlier run that first carried the tuple (hex label).
        earlier_run: String,
        /// The reused sequence number.
        seq: u64,
    },
    /// An installed state is not backed by well-formed unanimous signed
    /// agreement in the party's own evidence log (§4.3: `m3` aggregates
    /// "all decisions and … non-repudiation evidence").
    MalformedDecide {
        /// The party holding the defective evidence.
        party: usize,
        /// The run concerned (hex label).
        run: String,
        /// What was wrong.
        reason: String,
    },
    /// A correct party's evidence log failed the full `b2b-evidence`
    /// audit (missing signatures, broken timestamps, tampered records).
    AuditFault {
        /// The party whose log is defective.
        party: usize,
        /// Number of faulted records.
        faults: usize,
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
            Violation::ChainGap {
                party,
                expected_seq,
                got_seq,
            } => write!(
                f,
                "chain-gap: org{party} installed seq {got_seq} where {expected_seq} was due"
            ),
            Violation::Lineage {
                party,
                wire_prev,
                held_prev,
            } => write!(
                f,
                "lineage: org{party} installed over wire prev {wire_prev:?} while holding {held_prev:?}"
            ),
            Violation::TupleReuse {
                party,
                run,
                earlier_run,
                seq,
            } => write!(
                f,
                "tuple-reuse: org{party} installed run {} reusing the tuple (seq {seq}) of earlier run {}",
                &run[..12.min(run.len())],
                &earlier_run[..12.min(earlier_run.len())]
            ),
            Violation::MalformedDecide { party, run, reason } => write!(
                f,
                "malformed-decide: org{party} run {}: {reason}",
                &run[..12.min(run.len())]
            ),
            Violation::AuditFault { party, faults } => {
                write!(f, "audit-fault: org{party} log has {faults} faulted records")
            }
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

/// One install drained from a party's event stream.
struct Install {
    run: RunId,
    id: StateId,
}

/// Runs every oracle against the finished schedule. Call exactly once
/// per schedule: it drains the coordinators' event buffers.
pub fn check_all(fleet: &mut Fleet, scenario: &dyn Scenario, ops: &[DrivenOp]) -> Vec<Violation> {
    let n = fleet.len();
    let insider = scenario.insider();
    let correct: Vec<usize> = (0..n).filter(|&i| Some(i) != insider).collect();

    // Per-party installs, in event order (volatile: crashed parties lose
    // theirs, which is why the history oracles skip them).
    let installs: Vec<Vec<Install>> = (0..n)
        .map(|i| {
            fleet
                .take_events(i)
                .into_iter()
                .filter_map(|e| match e.event {
                    CoordEventKind::Completed {
                        outcome: Outcome::Installed { state },
                    } => Some(Install {
                        run: e.run,
                        id: state,
                    }),
                    _ => None,
                })
                .collect()
        })
        .collect();

    // First wire appearance of every distinct proposal, by run label:
    // (message, tap position). The tap records at send time — the
    // Dolev-Yao observer's view, independent of later drops.
    let mut m1s: BTreeMap<String, (ProposeMsg, usize)> = BTreeMap::new();
    for (pos, (_, _, msg, _)) in fleet.wire().into_iter().enumerate() {
        if let WireMsg::Propose(m) = msg {
            m1s.entry(m.proposal.run_id().to_hex()).or_insert((m, pos));
        }
    }

    let mut violations = Vec::new();

    // Oracle 1 — install divergence across correct parties. Keyed by
    // (group, seq): independent groups advance their own chains, so the
    // same sequence number legitimately carries different states in
    // different groups.
    let mut by_seq: BTreeMap<(usize, u64), (usize, StateId)> = BTreeMap::new();
    for &i in &correct {
        for ins in &installs[i] {
            match by_seq.get(&(fleet.group_of(i), ins.id.seq)) {
                None => {
                    by_seq.insert((fleet.group_of(i), ins.id.seq), (i, ins.id));
                }
                Some((j, other)) if *other != ins.id => {
                    violations.push(Violation::Divergence {
                        seq: ins.id.seq,
                        a: (*j, *other),
                        b: (i, ins.id),
                    });
                }
                Some(_) => {}
            }
        }
    }

    // Oracles 2+3 — per-party chain contiguity and lineage, judged
    // against the wire tap (correct, never-crashed parties only).
    for &i in &correct {
        if fleet.crashed_ever(i) {
            continue;
        }
        let mut held = fleet.baseline(i);
        for ins in &installs[i] {
            if ins.id.seq != held.seq + 1 {
                violations.push(Violation::ChainGap {
                    party: i,
                    expected_seq: held.seq + 1,
                    got_seq: ins.id.seq,
                });
            }
            if let Some((m1, _)) = m1s.get(&ins.run.to_hex()) {
                if m1.proposal.prev != held {
                    violations.push(Violation::Lineage {
                        party: i,
                        wire_prev: m1.proposal.prev,
                        held_prev: held,
                    });
                }
            }
            held = ins.id;
        }
    }

    // Oracle 4 — proposal-tuple freshness: an install whose tuple an
    // earlier, differently labelled run already carried — and which the
    // party itself demonstrably processed (it logged evidence for the
    // earlier run; tuples it never saw put it under no obligation).
    for &i in &correct {
        for ins in &installs[i] {
            let run_hex = ins.run.to_hex();
            let Some((m1, first_seen)) = m1s.get(&run_hex) else {
                continue;
            };
            let tuple = (m1.proposal.proposed.seq, m1.proposal.proposed.rand_hash);
            for (other_hex, (other, other_seen)) in &m1s {
                if *other_hex == run_hex
                    || (
                        other.proposal.proposed.seq,
                        other.proposal.proposed.rand_hash,
                    ) != tuple
                    || other_seen >= first_seen
                    || fleet.store(i).records_for_run(other_hex).is_empty()
                {
                    continue;
                }
                violations.push(Violation::TupleReuse {
                    party: i,
                    run: run_hex.clone(),
                    earlier_run: other_hex.clone(),
                    seq: tuple.0,
                });
            }
        }
    }

    // Oracle 5 — decide well-formedness: every install is backed by a
    // parseable m3 in the party's own log, revealing the committed
    // authenticator and carrying a complete, unanimous, correctly signed
    // response set.
    for &i in &correct {
        for ins in &installs[i] {
            let run_hex = ins.run.to_hex();
            if let Some(reason) = decide_defect(fleet, i, &run_hex, m1s.get(&run_hex)) {
                violations.push(Violation::MalformedDecide {
                    party: i,
                    run: run_hex,
                    reason,
                });
            }
        }
    }

    // Oracle 6 — the full evidence audit.
    let auditor = LogAuditor::new(fleet.ring().clone(), Some(fleet.tsa().public_key()));
    for &i in &correct {
        let report = auditor.audit(fleet.store(i).as_ref());
        if !report.is_clean() {
            violations.push(Violation::AuditFault {
                party: i,
                faults: report.total.saturating_sub(report.valid),
            });
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

/// Checks one install's decide evidence; `Some(reason)` on any defect.
fn decide_defect(
    fleet: &Fleet,
    i: usize,
    run_hex: &str,
    m1: Option<&(ProposeMsg, usize)>,
) -> Option<String> {
    let records = fleet.store(i).records_for_run(run_hex);
    let rec = records
        .iter()
        .find(|r| r.kind == EvidenceKind::StateDecide)?
        .clone();
    let m3 = match DecideMsg::from_canonical(&rec.payload) {
        Ok(m) => m,
        Err(e) => return Some(format!("undecodable StateDecide evidence: {e}")),
    };
    let Some((m1, _)) = m1 else {
        // No proposal on the tap (pre-plan run): nothing more to check.
        return verify_responses(fleet, &m3, None);
    };
    if sha256(&m3.authenticator) != m1.proposal.auth_commit {
        return Some("revealed authenticator does not match the signed commitment".into());
    }
    verify_responses(fleet, &m3, Some(&m1.proposal.proposer))
}

// A missing StateDecide record would itself be a defect, but `?` above
// returns None (no defect) for it: installs are logged transactionally
// with their decide, so an absent record only occurs for installs that
// predate the tap. Completeness of the response set is still enforced
// whenever the record exists.
fn verify_responses(
    fleet: &Fleet,
    m3: &DecideMsg,
    proposer: Option<&b2b_crypto::PartyId>,
) -> Option<String> {
    let mut seen = BTreeSet::new();
    for r in &m3.responses {
        if r.response.run != m3.run {
            return Some("response for a different run aggregated into the decide".into());
        }
        if !r.response.decision.is_accept() {
            return Some(format!(
                "installed despite a non-accepting response from {}",
                r.response.responder
            ));
        }
        if fleet
            .ring()
            .verify_for(&r.response.responder, &r.response_bytes(), &r.sig)
            .is_err()
        {
            return Some(format!(
                "bad signature on {}'s response",
                r.response.responder
            ));
        }
        if !seen.insert(r.response.responder.clone()) {
            return Some(format!("duplicate response from {}", r.response.responder));
        }
    }
    if let Some(proposer) = proposer {
        // The recipient set is the proposer's *group*, not the whole
        // process — co-scheduled groups never vote in each other's rounds.
        let group = fleet
            .index_of(proposer)
            .map(|i| fleet.group_of(i))
            .expect("proposer is a fleet member");
        let mut expected: BTreeSet<_> = fleet.group_members(group).into_iter().map(party).collect();
        expected.remove(proposer);
        if seen != expected {
            return Some(format!(
                "response set {{{}}} is not the full recipient set",
                seen.iter()
                    .map(|p| p.to_string())
                    .collect::<Vec<_>>()
                    .join(", ")
            ));
        }
    }
    None
}
