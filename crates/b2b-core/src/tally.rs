//! One tally for signed responses.
//!
//! Every round — a state transition (§4.3) or a connect/disconnect (§4.5)
//! — is the same signed two-phase agreement, and both of the paper's
//! promises rest on one rule: a decision stands only on a complete set of
//! verified responses that echo the run. This module is the only place
//! that states it. [`Coordinator::collect_vote`] records a response at the
//! proposer; [`check_set`] checks an aggregated set at a recipient, a
//! welcomed subject, the TTP and the arbiter alike; [`decide`] says who
//! vetoed and whether the set is accepted. Each caller maps what these
//! return to its own misbehaviour record, verdict or ruling.

use crate::config::DecisionRule;
use crate::detect::Misbehaviour;
use crate::ids::{ObjectId, RunId};
use crate::messages::{ProposalKind, RespondMsg};
use crate::replica::Replica;
use crate::Coordinator;
use b2b_crypto::{Digest32, PartyId, Signature};
use b2b_net::NodeCtx;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// The `(responder, reason)` of every vetoing response, in set order; a
/// veto without a diagnostic reads "rejected".
pub(crate) fn vetoers(votes: &[RespondMsg]) -> Vec<(PartyId, String)> {
    votes
        .iter()
        .filter(|v| v.vetoes())
        .map(|v| {
            let reason = v.response.decision.reason.as_deref().unwrap_or("rejected");
            (v.response.responder.clone(), reason.to_owned())
        })
        .collect()
}

/// The rule a round of `kind` is decided under: the `configured` one for
/// a state round, unanimity of the polled members for a membership change
/// (§4.5; a voluntary departure cannot be vetoed, which they enforce by
/// accepting it).
pub(crate) fn rule_for(configured: DecisionRule, kind: &ProposalKind) -> DecisionRule {
    if kind.is_membership() {
        DecisionRule::Unanimous
    } else {
        configured
    }
}

/// Whether `votes` accept the proposal in a group of `group_size`
/// (proposer included), and who vetoed. Under [`DecisionRule::Unanimous`]
/// (the paper, and every membership change) every other member must
/// accept; under majority the accepts plus the proposer, who by
/// definition accepts, must be a strict majority of the whole group.
pub(crate) fn decide(
    rule: DecisionRule,
    group_size: usize,
    votes: &[RespondMsg],
) -> (bool, Vec<(PartyId, String)>) {
    let vetoers = vetoers(votes);
    let accepts = votes.len() - vetoers.len();
    let accepted = match rule {
        DecisionRule::Unanimous => vetoers.is_empty() && accepts == group_size.saturating_sub(1),
        DecisionRule::Majority => (accepts + 1) * 2 > group_size,
    };
    (accepted, vetoers)
}

/// A vote's responder, signed bytes, their digest and its signature: what
/// a signature verifier is handed.
pub(crate) type SignedVote = (PartyId, Arc<[u8]>, Digest32, Signature);

/// Why the one check of an aggregated response set (`check_set`) refused
/// it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Fault {
    /// A response names another run or object, or fails the caller's echo.
    Mismatch,
    /// A response from a party the set does not expect, or a second one
    /// from a party it does.
    Responder(PartyId),
    /// An expected responder is missing.
    Incomplete,
    /// This responder's signature does not verify.
    BadSignature(PartyId),
}

impl Fault {
    /// The misbehaviour a recipient records against the decide of `run`
    /// whose response set fails.
    pub(crate) fn misbehaviour(self, run: RunId) -> Misbehaviour {
        let detail = match self {
            Fault::Mismatch => "response for another run, object or tuple".to_owned(),
            Fault::Responder(who) => format!("unexpected or duplicate responder {who}"),
            Fault::Incomplete => "response set incomplete".to_owned(),
            Fault::BadSignature(claimed) => {
                let message = "aggregated response".to_owned();
                return Misbehaviour::BadSignature { claimed, message };
            }
        };
        Misbehaviour::InconsistentDecide { run, detail }
    }
}

/// Checks an aggregated response set for run `run` on `object`, in this
/// order: every response names the run and the object, passes `echo` and
/// comes from an `expected` party not seen before; the set is complete
/// unless `allow_partial`; and `verify` accepts every signature, naming
/// the first offender otherwise. The first failure is returned.
pub(crate) fn check_set<'a>(
    votes: &[RespondMsg],
    run: RunId,
    object: &ObjectId,
    expected: impl IntoIterator<Item = &'a PartyId>,
    allow_partial: bool,
    echo: impl Fn(&RespondMsg) -> bool,
    verify: impl FnOnce(&[SignedVote]) -> Result<(), PartyId>,
) -> Result<(), Fault> {
    let expected: BTreeSet<&PartyId> = expected.into_iter().collect();
    let mut seen: BTreeSet<&PartyId> = BTreeSet::new();
    for v in votes {
        if v.response.run != run || &v.response.object != object || !echo(v) {
            return Err(Fault::Mismatch);
        }
        let responder = &v.response.responder;
        if !expected.contains(responder) || !seen.insert(responder) {
            return Err(Fault::Responder(responder.clone()));
        }
    }
    if !allow_partial && seen.len() != expected.len() {
        return Err(Fault::Incomplete);
    }
    let items: Vec<SignedVote> = votes
        .iter()
        .map(|v| {
            let (bytes, digest) = v.memo.get_or_encode(&v.response);
            (v.response.responder.clone(), bytes, digest, v.sig.clone())
        })
        .collect();
    verify(&items).map_err(Fault::BadSignature)
}

/// The collecting side of an active round, as [`Coordinator::collect_vote`]
/// sees it.
pub(crate) struct Ballot<'a> {
    /// The responses recorded so far, by responder.
    pub(crate) responses: &'a mut BTreeMap<PartyId, RespondMsg>,
    /// The parties the round polled; their responses complete the set.
    pub(crate) voters: Vec<PartyId>,
    /// Whether the response echoes the round.
    pub(crate) echo: bool,
}
/// What [`Coordinator::collect_vote`] made of a response.
pub(crate) enum Collected {
    /// The sender is not the responder, or the signature fails.
    BadSignature,
    /// Nothing to record: the response is already recorded, its run
    /// completed here and the reply was sent again, or this party holds no
    /// replica of the object.
    Ignored,
    /// No active round of the caller's kind carries the response's run.
    UnknownRun,
    /// The response does not echo the round.
    Echo,
    /// The responder is not one the round polled.
    Unexpected,
    /// A different signed response from a responder already recorded.
    Conflicting,
    /// Recorded, the `got`th of the `want` responses that complete the set.
    Recorded { got: usize, want: usize },
}

impl Coordinator {
    /// Collects one signed response at the proposer of a round. In order:
    /// the signature; a
    /// completed run's reply, re-sent; the active round, which `ballot`
    /// finds in the replica; its echo; an expected responder; a duplicate
    /// or conflicting response. A new response is recorded and the core
    /// checkpoint document marked stale. Evidence, trace events and
    /// counters are the caller's.
    pub(crate) fn collect_vote(
        &mut self,
        from: &PartyId,
        vote: &RespondMsg,
        ctx: &mut NodeCtx,
        ballot: impl FnOnce(&mut Replica) -> Option<Ballot<'_>>,
    ) -> Collected {
        let (bytes, digest) = vote.memo.get_or_encode(&vote.response);
        if from != &vote.response.responder
            || self.verify_cached(from, &bytes, digest, &vote.sig).is_err()
        {
            return Collected::BadSignature;
        }
        let oid = &vote.response.object;
        if self.replay_completed_reply(oid, &vote.response.run, from, ctx) {
            return Collected::Ignored;
        }
        let Some(rep) = self.replicas.get_mut(oid) else {
            return Collected::Ignored;
        };
        let Some(ballot) = ballot(rep) else {
            return Collected::UnknownRun;
        };
        if !ballot.echo {
            return Collected::Echo;
        }
        if !ballot.voters.contains(from) {
            return Collected::Unexpected;
        }
        match ballot.responses.get(from) {
            Some(existing) if existing == vote => Collected::Ignored,
            Some(_) => Collected::Conflicting,
            None => {
                ballot.responses.insert(from.clone(), vote.clone());
                let got = ballot.responses.len();
                let want = ballot.voters.len();
                rep.mark_core_stale();
                Collected::Recorded { got, want }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decision::{Decision, Verdict};
    use crate::ids::{GroupId, StateId};
    use crate::messages::Response;
    use b2b_crypto::{sha256, CanonicalEncode, KeyPair, KeyRing, Signer};

    /// Verifies `items` one by one against `ring`, naming the first
    /// signer whose signature fails.
    fn verify_each(ring: &KeyRing, items: &[SignedVote]) -> Result<(), PartyId> {
        items.iter().try_for_each(|(party, bytes, _, sig)| {
            ring.verify_for(party, bytes, sig)
                .map_err(|_| party.clone())
        })
    }

    /// Four parties `p0`..`p3` in `ring`, all signing for one run on one
    /// object. `p0` is the proposer; `check` expects `p1` and `p2`.
    struct World {
        ring: KeyRing,
        keys: Vec<(PartyId, KeyPair)>,
        run: RunId,
        object: ObjectId,
    }

    fn world() -> World {
        let mut ring = KeyRing::new();
        let keys: Vec<(PartyId, KeyPair)> = (0..4)
            .map(|i| {
                let kp = KeyPair::generate_from_seed(40 + i);
                let party = PartyId::new(format!("p{i}"));
                ring.register(party.clone(), kp.public_key());
                (party, kp)
            })
            .collect();
        World {
            ring,
            keys,
            run: RunId(sha256(b"run")),
            object: ObjectId::new("obj"),
        }
    }

    fn tuple(tag: &[u8]) -> StateId {
        StateId {
            seq: 1,
            rand_hash: sha256(tag),
            state_hash: sha256(tag),
        }
    }

    /// Builds `who`'s signed response.
    fn cast(
        w: &World,
        who: usize,
        run: RunId,
        object: &ObjectId,
        decision: Decision,
    ) -> RespondMsg {
        let (party, kp) = &w.keys[who];
        let response = Response {
            object: object.clone(),
            responder: party.clone(),
            group: GroupId::genesis(sha256(b"group"), &[]),
            run,
            prev: tuple(b"prev"),
            proposed: tuple(b"next"),
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

    fn check(w: &World, votes: &[RespondMsg], allow_partial: bool) -> Result<(), Fault> {
        let expected = [&w.keys[1].0, &w.keys[2].0];
        check_set(
            votes,
            w.run,
            &w.object,
            expected,
            allow_partial,
            // The echo fails on `p2`'s vote when it carries the reason "x".
            |v| {
                !(v.response.responder == w.keys[2].0
                    && v.response.decision.reason.as_deref() == Some("x"))
            },
            |items| verify_each(&w.ring, items),
        )
    }

    /// A case name, the set, whether it may be partial, and the verdict.
    type SetRow = (&'static str, Vec<RespondMsg>, bool, Result<(), Fault>);

    fn set_checks() {
        let w = world();
        let vote = |who: usize| cast(&w, who, w.run, &w.object, Decision::accept());
        let other_run = cast(
            &w,
            2,
            RunId(sha256(b"other")),
            &w.object,
            Decision::accept(),
        );
        let other_object = cast(&w, 2, w.run, &ObjectId::new("other"), Decision::accept());
        let no_echo = cast(&w, 2, w.run, &w.object, Decision::reject("x"));
        let p = |i: usize| w.keys[i].0.clone();
        let table: Vec<SetRow> = vec![
            ("complete", vec![vote(1), vote(2)], false, Ok(())),
            (
                "complete, other order",
                vec![vote(2), vote(1)],
                false,
                Ok(()),
            ),
            ("missing", vec![vote(1)], false, Err(Fault::Incomplete)),
            ("missing, partial allowed", vec![vote(1)], true, Ok(())),
            ("empty", vec![], false, Err(Fault::Incomplete)),
            (
                "duplicate",
                vec![vote(1), vote(1)],
                false,
                Err(Fault::Responder(p(1))),
            ),
            (
                "unexpected",
                vec![vote(1), vote(3)],
                false,
                Err(Fault::Responder(p(3))),
            ),
            (
                "proposer",
                vec![vote(0), vote(1)],
                false,
                Err(Fault::Responder(p(0))),
            ),
            (
                "another run",
                vec![vote(1), other_run],
                false,
                Err(Fault::Mismatch),
            ),
            (
                "another object",
                vec![vote(1), other_object],
                false,
                Err(Fault::Mismatch),
            ),
            (
                "failed echo",
                vec![vote(1), no_echo],
                false,
                Err(Fault::Mismatch),
            ),
        ];
        for (name, votes, partial, want) in table {
            assert_eq!(check(&w, &votes, partial), want, "{name}");
        }
    }

    fn bad_signature_at_each_index() {
        let w = world();
        let expected: Vec<&PartyId> = (1..4).map(|i| &w.keys[i].0).collect();
        for bad in 0..3 {
            let mut votes: Vec<RespondMsg> = (1..4)
                .map(|who| cast(&w, who, w.run, &w.object, Decision::accept()))
                .collect();
            let sig = &mut votes[bad].sig;
            let mut bytes = sig.as_bytes().to_vec();
            bytes[0] ^= 0x01;
            *sig = Signature::new(sig.scheme(), bytes);
            let got = check_set(
                &votes,
                w.run,
                &w.object,
                expected.iter().copied(),
                false,
                |_| true,
                |items| verify_each(&w.ring, items),
            );
            assert_eq!(
                got,
                Err(Fault::BadSignature(w.keys[bad + 1].0.clone())),
                "index {bad}"
            );
        }
    }

    #[test]
    fn set_checks_over_state_responses() {
        set_checks();
    }

    #[test]
    fn bad_signature_is_attributed_at_each_index_of_state_responses() {
        bad_signature_at_each_index();
    }

    /// A case name, the rule, the set, and the expected decision.
    type DecideRow = (
        &'static str,
        DecisionRule,
        Vec<RespondMsg>,
        bool,
        Vec<Vetoer>,
    );
    type Vetoer = (PartyId, String);

    fn decisions() {
        use DecisionRule::{Majority, Unanimous};
        let w = world();
        let acc = |who| cast(&w, who, w.run, &w.object, Decision::accept());
        let rej = |who| cast(&w, who, w.run, &w.object, Decision::reject("no"));
        let bare = |who| {
            let bare = Decision {
                verdict: Verdict::Reject,
                reason: None,
            };
            cast(&w, who, w.run, &w.object, bare)
        };
        let p = |i: usize| w.keys[i].0.clone();
        // Group of four: the proposer and three responders.
        let table: Vec<DecideRow> = vec![
            (
                "all accept",
                Unanimous,
                vec![acc(1), acc(2), acc(3)],
                true,
                vec![],
            ),
            ("one short", Unanimous, vec![acc(1), acc(2)], false, vec![]),
            (
                "one veto",
                Unanimous,
                vec![acc(1), rej(2), acc(3)],
                false,
                vec![(p(2), "no".into())],
            ),
            (
                "bare veto",
                Unanimous,
                vec![acc(1), acc(2), bare(3)],
                false,
                vec![(p(3), "rejected".into())],
            ),
            (
                "majority outvotes one veto",
                Majority,
                vec![acc(1), rej(2), acc(3)],
                true,
                vec![(p(2), "no".into())],
            ),
            (
                "majority short of half",
                Majority,
                vec![acc(1), rej(2), rej(3)],
                false,
                vec![(p(2), "no".into()), (p(3), "no".into())],
            ),
            (
                "majority from a partial set",
                Majority,
                vec![acc(1), acc(2)],
                true,
                vec![],
            ),
        ];
        for (name, rule, votes, accepted, vetoed) in table {
            assert_eq!(decide(rule, 4, &votes), (accepted, vetoed), "{name}");
        }
    }

    #[test]
    fn decisions_over_state_responses() {
        decisions();
    }

    #[test]
    fn a_tampered_body_vetoes_an_accepting_state_response() {
        let w = world();
        let acc = |who| cast(&w, who, w.run, &w.object, Decision::accept());
        let mut tampered = acc(2);
        tampered.response.body_ok = false;
        let votes = vec![acc(1), tampered, acc(3)];
        let vetoed = vec![(w.keys[2].0.clone(), "rejected".to_owned())];
        assert_eq!(
            decide(DecisionRule::Unanimous, 4, &votes),
            (false, vetoed.clone())
        );
        assert_eq!(decide(DecisionRule::Majority, 4, &votes), (true, vetoed));
    }
}
