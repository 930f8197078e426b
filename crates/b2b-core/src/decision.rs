//! Decisions, outcomes and coordination events.
//!
//! §4.2: "a decision is accept or reject plus optional diagnostic
//! information" — [`Decision`]. A completed protocol run yields an
//! [`Outcome`]; the coordinator reports progress to the application through
//! [`CoordEvent`]s (the paper's `coordCallback`).

use crate::ids::{ObjectId, RunId, StateId};
use b2b_crypto::{
    CanonicalDecode, CanonicalEncode, DecodeError, Decoder, Encoder, PartyId, TimeMs,
};
use std::fmt;

/// Accept or reject.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Verdict {
    /// The transition (or membership change) is locally valid.
    Accept,
    /// The transition is vetoed.
    Reject,
}

/// A party's decision on the validity of a proposal, with optional
/// diagnostics.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Decision {
    /// Accept or reject.
    pub verdict: Verdict,
    /// Optional human-readable diagnostic (carried in evidence).
    pub reason: Option<String>,
}

impl Decision {
    /// An accepting decision.
    pub fn accept() -> Decision {
        Decision {
            verdict: Verdict::Accept,
            reason: None,
        }
    }

    /// A rejecting decision with a diagnostic reason.
    pub fn reject(reason: impl Into<String>) -> Decision {
        Decision {
            verdict: Verdict::Reject,
            reason: Some(reason.into()),
        }
    }

    /// A rejecting decision attributing the fault to one update inside a
    /// batched proposal. The index travels in the signed response's
    /// diagnostic, so the proposer (and any later auditor of the evidence
    /// log) learns *which* update sank the batch, not merely that one did.
    pub fn reject_update(index: usize, reason: impl Into<String>) -> Decision {
        Decision {
            verdict: Verdict::Reject,
            reason: Some(format!("batch[{index}]: {}", reason.into())),
        }
    }

    /// Returns `true` for an accepting decision.
    pub fn is_accept(&self) -> bool {
        self.verdict == Verdict::Accept
    }
}

impl fmt::Display for Decision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (&self.verdict, &self.reason) {
            (Verdict::Accept, _) => write!(f, "accept"),
            (Verdict::Reject, None) => write!(f, "reject"),
            (Verdict::Reject, Some(r)) => write!(f, "reject: {r}"),
        }
    }
}

impl CanonicalEncode for Decision {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u8(match self.verdict {
            Verdict::Accept => 1,
            Verdict::Reject => 0,
        });
        self.reason.encode(enc);
    }
}

impl CanonicalDecode for Decision {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let verdict = if dec.get_bool()? {
            Verdict::Accept
        } else {
            Verdict::Reject
        };
        Ok(Decision {
            verdict,
            reason: Option::<String>::decode(dec)?,
        })
    }
}

/// The final result of a coordination run, as seen by one party.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// Unanimously agreed: the new state (or membership) was installed.
    Installed {
        /// Identifier of the newly agreed state.
        state: StateId,
    },
    /// Vetoed: the proposal was invalidated and replicas keep (or roll
    /// back to) the last agreed state.
    Invalidated {
        /// Every rejecting party with its diagnostic.
        vetoers: Vec<(PartyId, String)>,
    },
    /// Aborted on detected inconsistency or misbehaviour before a group
    /// decision could be computed.
    Aborted {
        /// Description of what was detected.
        reason: String,
    },
}

impl Outcome {
    /// Returns `true` if the run installed new state.
    pub fn is_installed(&self) -> bool {
        matches!(self, Outcome::Installed { .. })
    }
}

/// A progress or completion notification delivered to the application
/// (the `coordCallback` upcall of the paper's API, Figure 4).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CoordEvent {
    /// The object concerned.
    pub object: ObjectId,
    /// The run concerned.
    pub run: RunId,
    /// What happened.
    pub event: CoordEventKind,
    /// Local time of the event.
    pub at: TimeMs,
}

/// The kinds of coordination progress events.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CoordEventKind {
    /// A proposal was dispatched to the group.
    Proposed,
    /// A response was received (progress information).
    ResponseReceived {
        /// The responding party.
        from: PartyId,
        /// Their verdict.
        verdict: Verdict,
    },
    /// The run completed with the given outcome.
    Completed {
        /// The outcome.
        outcome: Outcome,
    },
    /// Membership changed (a connection/disconnection run completed).
    MembershipChanged {
        /// The new member list in join order.
        members: Vec<PartyId>,
    },
}

#[cfg(test)]
mod tests {
    use super::*;
    use b2b_crypto::sha256;

    #[test]
    fn decision_constructors() {
        assert!(Decision::accept().is_accept());
        let d = Decision::reject("not your turn");
        assert!(!d.is_accept());
        assert_eq!(d.to_string(), "reject: not your turn");
        assert_eq!(Decision::accept().to_string(), "accept");
    }

    #[test]
    fn reject_update_carries_batch_index() {
        let d = Decision::reject_update(3, "hash chain mismatch");
        assert!(!d.is_accept());
        assert_eq!(d.to_string(), "reject: batch[3]: hash chain mismatch");
    }

    #[test]
    fn decision_canonical_distinguishes_verdicts() {
        assert_ne!(
            Decision::accept().canonical_bytes(),
            Decision {
                verdict: Verdict::Reject,
                reason: None
            }
            .canonical_bytes()
        );
    }

    #[test]
    fn outcome_is_installed() {
        let st = StateId {
            seq: 1,
            rand_hash: sha256(b"r"),
            state_hash: sha256(b"s"),
        };
        assert!(Outcome::Installed { state: st }.is_installed());
        assert!(!Outcome::Invalidated { vetoers: vec![] }.is_installed());
        assert!(!Outcome::Aborted { reason: "x".into() }.is_installed());
    }
}
