//! Extra-protocol dispute resolution.
//!
//! §4.1: the protocol "is designed to generate the evidence necessary for
//! application-level resolution" and "if necessary, this evidence can be
//! used in extra-protocol arbitration to resolve disputes". The
//! [`Arbiter`] is that arbitration made executable: given a party's
//! non-repudiation log, it rules on claims about state validity.
//!
//! The key §4.1 guarantee this module demonstrates: *"no party can
//! misrepresent the validity of object state, either by claiming that an
//! invalid (vetoed) state is valid or that a valid (unanimously agreed)
//! state is invalid"*. A validity claim is upheld only on a complete set
//! of verified, accepting, signed responses from every other group member;
//! a veto claim is upheld on any verified signed rejection.

use crate::decision::Verdict;
use crate::ids::{members_digest, ObjectId, RunId, StateId};
use crate::messages::DecideMsg;
use b2b_crypto::{CanonicalDecode, CanonicalEncode, KeyRing, PartyId};
use b2b_evidence::{EvidenceKind, EvidenceStore};

/// A claim brought before the arbiter.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Claim {
    /// `proposer` claims that `state` of `object` was unanimously agreed
    /// by the group `members` (join order).
    StateValid {
        /// The object concerned.
        object: ObjectId,
        /// The party that proposed the state.
        proposer: PartyId,
        /// The full group membership at the time, in join order.
        members: Vec<PartyId>,
        /// The state tuple claimed valid.
        state: StateId,
    },
    /// A party claims that run `run` on `object` was vetoed.
    StateVetoed {
        /// The object concerned.
        object: ObjectId,
        /// The run claimed vetoed.
        run: RunId,
    },
}

/// The arbiter's ruling on a claim.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Ruling {
    /// The evidence supports the claim; the listed log sequence numbers
    /// carry the supporting records.
    Upheld {
        /// Supporting evidence record sequence numbers.
        evidence: Vec<u64>,
    },
    /// The submitted log does not support the claim.
    Rejected {
        /// Why the claim fails.
        reason: String,
    },
}

impl Ruling {
    /// Returns `true` for an upheld ruling.
    pub fn is_upheld(&self) -> bool {
        matches!(self, Ruling::Upheld { .. })
    }
}

/// An offline arbiter working purely from submitted non-repudiation logs.
#[derive(Clone, Debug)]
pub struct Arbiter {
    ring: KeyRing,
}

impl Arbiter {
    /// Creates an arbiter trusting `ring` for every party's keys.
    pub fn new(ring: KeyRing) -> Arbiter {
        Arbiter { ring }
    }

    /// Rules on `claim` against the evidence in `store`.
    pub fn judge(&self, claim: &Claim, store: &dyn EvidenceStore) -> Ruling {
        match claim {
            Claim::StateValid {
                object,
                proposer,
                members,
                state,
            } => self.judge_state_valid(object, proposer, members, state, store),
            Claim::StateVetoed { object, run } => self.judge_state_vetoed(object, run, store),
        }
    }

    fn decide_records(
        &self,
        object: &ObjectId,
        store: &dyn EvidenceStore,
    ) -> Vec<(u64, DecideMsg)> {
        store
            .records()
            .into_iter()
            .filter(|r| r.kind == EvidenceKind::StateDecide && r.object == object.as_str())
            .filter_map(|r| {
                DecideMsg::from_canonical(&r.payload)
                    .ok()
                    .map(|d| (r.seq, d))
            })
            .collect()
    }

    fn judge_state_valid(
        &self,
        object: &ObjectId,
        proposer: &PartyId,
        members: &[PartyId],
        state: &StateId,
        store: &dyn EvidenceStore,
    ) -> Ruling {
        if !members.contains(proposer) {
            return Ruling::Rejected {
                reason: "claimed proposer is not in the claimed membership".into(),
            };
        }
        let expected: std::collections::BTreeSet<&PartyId> =
            members.iter().filter(|m| *m != proposer).collect();
        if expected.is_empty() {
            return Ruling::Rejected {
                reason: "a singleton group cannot evidence multi-party agreement".into(),
            };
        }
        let members_hash = members_digest(members);

        for (seq, decide) in self.decide_records(object, store) {
            let mut seen: std::collections::BTreeSet<&PartyId> = Default::default();
            let all_ok = decide.responses.iter().all(|r| {
                r.response.run == decide.run
                    && r.response.proposed == *state
                    && r.response.body_ok
                    && r.response.decision.verdict == Verdict::Accept
                    && r.response.group.members_hash == members_hash
                    && expected.contains(&r.response.responder)
                    && seen.insert(&r.response.responder)
                    && self
                        .ring
                        .verify_for(&r.response.responder, &r.response.canonical_bytes(), &r.sig)
                        .is_ok()
            });
            if all_ok && seen.len() == expected.len() {
                return Ruling::Upheld {
                    evidence: vec![seq],
                };
            }
        }
        Ruling::Rejected {
            reason: "no complete set of verified accepting responses found".into(),
        }
    }

    fn judge_state_vetoed(
        &self,
        object: &ObjectId,
        run: &RunId,
        store: &dyn EvidenceStore,
    ) -> Ruling {
        // A verified signed rejection in the run — either inside a logged
        // decide aggregation or as a directly logged response — upholds
        // the veto claim.
        for (seq, decide) in self.decide_records(object, store) {
            if decide.run != *run {
                continue;
            }
            let vetoed = decide.responses.iter().any(|r| {
                r.response.run == *run
                    && (r.response.decision.verdict == Verdict::Reject || !r.response.body_ok)
                    && self
                        .ring
                        .verify_for(&r.response.responder, &r.response.canonical_bytes(), &r.sig)
                        .is_ok()
            });
            if vetoed {
                return Ruling::Upheld {
                    evidence: vec![seq],
                };
            }
        }
        Ruling::Rejected {
            reason: "no verified rejecting response found for the run".into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decision::Decision;
    use crate::ids::GroupId;
    use crate::messages::{RespondMsg, Response};
    use b2b_crypto::{sha256, KeyPair, Signer, TimeMs};
    use b2b_evidence::{EvidenceRecord, MemStore};

    struct Fixture {
        ring: KeyRing,
        keys: Vec<(PartyId, KeyPair)>,
        object: ObjectId,
        members: Vec<PartyId>,
        group: GroupId,
        state: StateId,
        run: RunId,
    }

    fn fixture() -> Fixture {
        let names = ["a", "b", "c"];
        let mut ring = KeyRing::new();
        let mut keys = Vec::new();
        for (i, n) in names.iter().enumerate() {
            let kp = KeyPair::generate_from_seed(i as u64 + 1);
            ring.register(PartyId::new(*n), kp.public_key());
            keys.push((PartyId::new(*n), kp));
        }
        let members: Vec<PartyId> = names.iter().map(|n| PartyId::new(*n)).collect();
        let group = GroupId {
            seq: 0,
            rand_hash: sha256(b"g"),
            members_hash: members_digest(&members),
        };
        Fixture {
            ring,
            keys,
            object: ObjectId::new("obj"),
            members,
            group,
            state: StateId {
                seq: 1,
                rand_hash: sha256(b"r"),
                state_hash: sha256(b"new"),
            },
            run: RunId(sha256(b"run")),
        }
    }

    fn response(f: &Fixture, who: usize, decision: Decision) -> RespondMsg {
        let (party, kp) = &f.keys[who];
        let response = Response {
            object: f.object.clone(),
            responder: party.clone(),
            group: f.group,
            run: f.run,
            prev: StateId {
                seq: 0,
                rand_hash: sha256(b"p"),
                state_hash: sha256(b"old"),
            },
            proposed: f.state,
            body_ok: true,
            decision,
        };
        let sig = kp.sign(&response.canonical_bytes());
        RespondMsg {
            response,
            sig,
            memo: Default::default(),
        }
    }

    fn log_decide(store: &MemStore, f: &Fixture, responses: Vec<RespondMsg>) {
        let decide = DecideMsg {
            object: f.object.clone(),
            run: f.run,
            authenticator: [9u8; 32],
            responses,
        };
        store
            .append(EvidenceRecord::new(
                b2b_evidence::EvidenceKind::StateDecide,
                f.object.as_str(),
                f.run.to_hex(),
                f.keys[0].0.clone(),
                decide.canonical_bytes(),
                None,
                None,
                TimeMs(0),
            ))
            .unwrap();
    }

    #[test]
    fn valid_claim_upheld_on_complete_accepts() {
        let f = fixture();
        let store = MemStore::new();
        log_decide(
            &store,
            &f,
            vec![
                response(&f, 1, Decision::accept()),
                response(&f, 2, Decision::accept()),
            ],
        );
        let arbiter = Arbiter::new(f.ring.clone());
        let claim = Claim::StateValid {
            object: f.object.clone(),
            proposer: f.members[0].clone(),
            members: f.members.clone(),
            state: f.state,
        };
        assert!(arbiter.judge(&claim, &store).is_upheld());
    }

    #[test]
    fn vetoed_state_cannot_be_claimed_valid() {
        let f = fixture();
        let store = MemStore::new();
        log_decide(
            &store,
            &f,
            vec![
                response(&f, 1, Decision::accept()),
                response(&f, 2, Decision::reject("no")),
            ],
        );
        let arbiter = Arbiter::new(f.ring.clone());
        let valid_claim = Claim::StateValid {
            object: f.object.clone(),
            proposer: f.members[0].clone(),
            members: f.members.clone(),
            state: f.state,
        };
        assert!(!arbiter.judge(&valid_claim, &store).is_upheld());
        // …but the veto claim is upheld by the same log.
        let veto_claim = Claim::StateVetoed {
            object: f.object.clone(),
            run: f.run,
        };
        assert!(arbiter.judge(&veto_claim, &store).is_upheld());
    }

    #[test]
    fn incomplete_response_set_rejected() {
        let f = fixture();
        let store = MemStore::new();
        log_decide(&store, &f, vec![response(&f, 1, Decision::accept())]);
        let arbiter = Arbiter::new(f.ring.clone());
        let claim = Claim::StateValid {
            object: f.object.clone(),
            proposer: f.members[0].clone(),
            members: f.members.clone(),
            state: f.state,
        };
        assert!(!arbiter.judge(&claim, &store).is_upheld());
    }

    #[test]
    fn forged_response_cannot_support_validity() {
        let f = fixture();
        let store = MemStore::new();
        // Party 2's "response" signed with party 1's key: forgery.
        let mut forged = response(&f, 1, Decision::accept());
        forged.response.responder = f.members[2].clone();
        log_decide(
            &store,
            &f,
            vec![response(&f, 1, Decision::accept()), forged],
        );
        let arbiter = Arbiter::new(f.ring.clone());
        let claim = Claim::StateValid {
            object: f.object.clone(),
            proposer: f.members[0].clone(),
            members: f.members.clone(),
            state: f.state,
        };
        assert!(!arbiter.judge(&claim, &store).is_upheld());
    }

    #[test]
    fn valid_state_cannot_be_claimed_vetoed() {
        let f = fixture();
        let store = MemStore::new();
        log_decide(
            &store,
            &f,
            vec![
                response(&f, 1, Decision::accept()),
                response(&f, 2, Decision::accept()),
            ],
        );
        let arbiter = Arbiter::new(f.ring.clone());
        let claim = Claim::StateVetoed {
            object: f.object.clone(),
            run: f.run,
        };
        assert!(!arbiter.judge(&claim, &store).is_upheld());
    }

    #[test]
    fn singleton_group_claims_rejected() {
        let f = fixture();
        let store = MemStore::new();
        let arbiter = Arbiter::new(f.ring.clone());
        let claim = Claim::StateValid {
            object: f.object.clone(),
            proposer: f.members[0].clone(),
            members: vec![f.members[0].clone()],
            state: f.state,
        };
        assert!(!arbiter.judge(&claim, &store).is_upheld());
    }
}
