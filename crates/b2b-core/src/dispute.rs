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
//! state is invalid"*. A validity claim is upheld only when the log's own
//! history ([`crate::history`]) installs the state on a decide — a complete
//! set of verified, accepting, signed responses from every other member of
//! the group the log has established — before the log's first fault; a
//! veto claim is upheld on any verified signed rejection.

use crate::config::DecisionRule;
use crate::history;
use crate::ids::{ObjectId, RunId, StateId};
use crate::messages::DecideMsg;
use b2b_crypto::{CanonicalDecode, KeyRing};
use b2b_evidence::{EvidenceKind, EvidenceStore};

/// A claim brought before the arbiter.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Claim {
    /// `state` of `object` was unanimously agreed. Who proposed it and
    /// which group agreed are what the log's history says.
    StateValid {
        /// The object concerned.
        object: ObjectId,
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
            Claim::StateValid { object, state } => self.judge_state_valid(object, state, store),
            Claim::StateVetoed { object, run } => self.judge_state_vetoed(object, run, store),
        }
    }

    /// Upholds the claim on the decide that installs `state` in the log's
    /// history of a group of two or more, before the log's first fault.
    fn judge_state_valid(
        &self,
        object: &ObjectId,
        state: &StateId,
        store: &dyn EvidenceStore,
    ) -> Ruling {
        let history = history::check(store, object, &self.ring, None, DecisionRule::Unanimous);
        let Some(install) = history.installs.iter().find(|i| {
            i.tuple == *state && i.by == EvidenceKind::StateDecide && i.members.len() >= 2
        }) else {
            let end = history.fault.map_or("the end".into(), |f| f.to_string());
            let reason = format!("no decide of a group of two or more installs it before {end}");
            return Ruling::Rejected { reason };
        };
        Ruling::Upheld {
            evidence: vec![install.record],
        }
    }

    fn judge_state_vetoed(
        &self,
        object: &ObjectId,
        run: &RunId,
        store: &dyn EvidenceStore,
    ) -> Ruling {
        // A verified signed rejection in the run, inside a logged decide,
        // upholds the veto claim.
        for r in store.records() {
            if r.kind != EvidenceKind::StateDecide || r.object != object.as_str() {
                continue;
            }
            let Ok(decide) = DecideMsg::from_canonical(&r.payload) else {
                continue;
            };
            if decide.run != *run {
                continue;
            }
            let vetoed = decide.responses.iter().any(|v| {
                v.response.run == *run
                    && v.vetoes()
                    && self
                        .ring
                        .verify_for(&v.response.responder, &v.response_bytes(), &v.sig)
                        .is_ok()
            });
            if vetoed {
                return Ruling::Upheld {
                    evidence: vec![r.seq],
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
    use crate::ids::{members_digest, GroupId};
    use crate::messages::{
        MemberAnswer, MemberChange, MemberRequest, MemberVerdict, Proposal, ProposalKind,
        RespondMsg, Response,
    };
    use b2b_crypto::{sha256, CanonicalEncode, KeyPair, PartyId, Signer, TimeMs};
    use b2b_evidence::{EvidenceRecord, MemStore};

    /// Three parties `a`, `b`, `c`, and the log of `c`, which `b` admitted
    /// to the group of all three: `c`'s request and `b`'s answer, then
    /// `a`'s proposal of `state` in run `run`. A test appends the decide.
    struct Fixture {
        ring: KeyRing,
        keys: Vec<(PartyId, KeyPair)>,
        object: ObjectId,
        group: GroupId,
        state: StateId,
        run: RunId,
        store: MemStore,
    }

    fn append(store: &MemStore, kind: EvidenceKind, by: &(PartyId, KeyPair), payload: Vec<u8>) {
        let sig = (kind != EvidenceKind::StateDecide).then(|| by.1.sign(&payload));
        let rec = EvidenceRecord::new(kind, "obj", "", by.0.clone(), payload, sig, None, TimeMs(0));
        store.append(rec).unwrap();
    }

    fn fixture() -> Fixture {
        let mut ring = KeyRing::new();
        let keys: Vec<(PartyId, KeyPair)> = ["a", "b", "c"]
            .iter()
            .zip(1..)
            .map(|(n, seed)| (PartyId::new(*n), KeyPair::generate_from_seed(seed)))
            .collect();
        for (party, kp) in &keys {
            ring.register(party.clone(), kp.public_key());
        }
        let members: Vec<PartyId> = keys.iter().map(|k| k.0.clone()).collect();
        let object = ObjectId::new("obj");
        let group = GroupId {
            seq: 2,
            rand_hash: sha256(b"g"),
            members_hash: members_digest(&members),
        };
        let prev = StateId::genesis(sha256(b"p"), b"old");
        let store = MemStore::new();
        let request = MemberRequest {
            object: object.clone(),
            requester: keys[2].0.clone(),
            change: MemberChange::Join,
            nonce_hash: sha256(b"n"),
        };
        append(
            &store,
            EvidenceKind::MemberRequest,
            &keys[2],
            request.canonical_bytes(),
        );
        let verdict = MemberVerdict::Accepted {
            run: RunId(sha256(b"join")),
            group,
            members,
            agreed: prev,
        };
        let answer = MemberAnswer {
            object: object.clone(),
            sponsor: keys[1].0.clone(),
            request_digest: request.canonical_digest(),
            verdict,
        };
        append(
            &store,
            EvidenceKind::MemberAnswer,
            &keys[1],
            answer.canonical_bytes(),
        );
        let state = StateId {
            seq: 1,
            rand_hash: sha256(b"r"),
            state_hash: sha256(b"new"),
        };
        let proposal = Proposal {
            object: object.clone(),
            proposer: keys[0].0.clone(),
            group,
            prev,
            proposed: state,
            auth_commit: sha256(&[9u8; 32]),
            kind: ProposalKind::Overwrite,
        };
        append(
            &store,
            EvidenceKind::StatePropose,
            &keys[0],
            proposal.canonical_bytes(),
        );
        Fixture {
            ring,
            run: proposal.run_id(),
            keys,
            object,
            group,
            state,
            store,
        }
    }

    fn response(f: &Fixture, who: usize, decision: Decision) -> RespondMsg {
        let (party, kp) = &f.keys[who];
        let response = Response {
            object: f.object.clone(),
            responder: party.clone(),
            group: f.group,
            run: f.run,
            prev: StateId::genesis(sha256(b"p"), b"old"),
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

    fn log_decide(f: &Fixture, responses: Vec<RespondMsg>) {
        let decide = DecideMsg {
            object: f.object.clone(),
            run: f.run,
            authenticator: [9u8; 32],
            responses,
        };
        append(
            &f.store,
            EvidenceKind::StateDecide,
            &f.keys[0],
            decide.canonical_bytes(),
        );
    }

    fn valid(f: &Fixture) -> Claim {
        Claim::StateValid {
            object: f.object.clone(),
            state: f.state,
        }
    }

    #[test]
    fn valid_claim_upheld_on_complete_accepts() {
        let f = fixture();
        log_decide(
            &f,
            vec![
                response(&f, 1, Decision::accept()),
                response(&f, 2, Decision::accept()),
            ],
        );
        let arbiter = Arbiter::new(f.ring.clone());
        let ruling = arbiter.judge(&valid(&f), &f.store);
        assert_eq!(ruling, Ruling::Upheld { evidence: vec![3] });
    }

    #[test]
    fn vetoed_state_cannot_be_claimed_valid() {
        let f = fixture();
        log_decide(
            &f,
            vec![
                response(&f, 1, Decision::accept()),
                response(&f, 2, Decision::reject("no")),
            ],
        );
        let arbiter = Arbiter::new(f.ring.clone());
        assert!(!arbiter.judge(&valid(&f), &f.store).is_upheld());
        // …but the veto claim is upheld by the same log.
        let veto_claim = Claim::StateVetoed {
            object: f.object.clone(),
            run: f.run,
        };
        assert!(arbiter.judge(&veto_claim, &f.store).is_upheld());
    }

    #[test]
    fn incomplete_response_set_rejected() {
        let f = fixture();
        log_decide(&f, vec![response(&f, 1, Decision::accept())]);
        let arbiter = Arbiter::new(f.ring.clone());
        assert!(!arbiter.judge(&valid(&f), &f.store).is_upheld());
    }

    #[test]
    fn forged_response_cannot_support_validity() {
        let f = fixture();
        // Party c's "response" signed with party b's key: forgery.
        let mut forged = response(&f, 1, Decision::accept());
        forged.response.responder = f.keys[2].0.clone();
        log_decide(&f, vec![response(&f, 1, Decision::accept()), forged]);
        let arbiter = Arbiter::new(f.ring.clone());
        assert!(!arbiter.judge(&valid(&f), &f.store).is_upheld());
    }

    #[test]
    fn valid_state_cannot_be_claimed_vetoed() {
        let f = fixture();
        log_decide(
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
        assert!(!arbiter.judge(&claim, &f.store).is_upheld());
    }

    #[test]
    fn welcome_from_other_than_the_newest_member_refused() {
        // `a` welcomes `c`, but a join's sponsor is the newest old member,
        // `b`: the log never admits `c`, and proves nothing after.
        let f = fixture();
        let accepts = vec![
            response(&f, 1, Decision::accept()),
            response(&f, 2, Decision::accept()),
        ];
        log_decide(&f, accepts);
        let store = MemStore::new();
        for r in f.store.records() {
            let mut by = f.keys.iter().find(|k| k.0 == r.origin).unwrap();
            let mut payload = r.payload;
            if r.kind == EvidenceKind::MemberAnswer {
                let mut answer = MemberAnswer::from_canonical(&payload).unwrap();
                (by, answer.sponsor) = (&f.keys[0], f.keys[0].0.clone());
                payload = answer.canonical_bytes();
            }
            append(&store, r.kind, by, payload);
        }
        let fault = history::check(&store, &f.object, &f.ring, None, DecisionRule::Unanimous).fault;
        let answer = Some((1, history::FaultKind::Answer));
        assert_eq!(fault.map(|f| (f.record, f.kind)), answer);
        let arbiter = Arbiter::new(f.ring.clone());
        assert!(!arbiter.judge(&valid(&f), &store).is_upheld());
    }

    #[test]
    fn singleton_group_claims_rejected() {
        // A lone founder's proposal polls nobody and installs at once: its
        // log holds no decide, and no agreement by anyone else.
        let f = fixture();
        let store = MemStore::new();
        let founder = &f.keys[0];
        let proposal = Proposal {
            object: f.object.clone(),
            proposer: founder.0.clone(),
            group: GroupId::genesis(sha256(b"g"), std::slice::from_ref(&founder.0)),
            prev: StateId::genesis(sha256(b"p"), b"old"),
            proposed: f.state,
            auth_commit: sha256(&[9u8; 32]),
            kind: ProposalKind::Overwrite,
        };
        append(
            &store,
            EvidenceKind::StatePropose,
            founder,
            proposal.canonical_bytes(),
        );
        append(
            &store,
            EvidenceKind::Checkpoint,
            founder,
            f.state.canonical_bytes(),
        );
        let history = history::check(&store, &f.object, &f.ring, None, DecisionRule::Unanimous);
        let installs = history.installs;
        assert_eq!(history.fault, None);
        assert_eq!(installs.len(), 1, "the lone member installs");
        assert_eq!(installs[0].tuple, f.state);
        let arbiter = Arbiter::new(f.ring.clone());
        assert!(!arbiter.judge(&valid(&f), &store).is_upheld());
    }
}
