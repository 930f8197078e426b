//! TTP-certified termination (§7 future work, implemented as an opt-in
//! extension).
//!
//! "The imposition of deadlines requires the involvement of a TTP to
//! guarantee that all honest parties terminate with the same view of
//! agreed state. In effect, a TTP would provide certified abort of a
//! protocol run unless a complete set of responses were available (in
//! which case the TTP would provide a certified decision derived from
//! those responses)."
//!
//! Implementation:
//!
//! * Any blocked party — the proposer with an incomplete response set, or
//!   a recipient that never saw the decide — appeals at its deadline with
//!   the evidence it holds ([`TtpResolveMsg`]).
//! * On a **proposer** appeal the TTP verifies the signed proposal, the
//!   member list against the group identifier's member hash, and every
//!   response signature; a complete set yields a certified decision,
//!   anything less a certified abort.
//! * On a **recipient** appeal the TTP first *pulls evidence from the
//!   proposer* ([`TtpEvidenceRequestMsg`]) — the proposer may have
//!   completed the run and hold the full set, in which case the
//!   resolution is a certified decision and no replica diverges. If the
//!   proposer stays silent past the TTP's own deadline, the run is
//!   certifiably aborted.
//! * Resolutions are cached per run and sent to **every member**, so all
//!   honest parties terminate with the same view; later appeals for the
//!   same run replay the cached certificate.

use crate::config::REPLAY_WINDOW;
use crate::decision::{CoordEventKind, Outcome, Verdict};
use crate::detect::Misbehaviour;
use crate::ids::{members_digest, ObjectId, RunId};
use crate::messages::{
    responses_digest, RespondMsg, TtpEvidence, TtpEvidenceMsg, TtpEvidenceRequest,
    TtpEvidenceRequestMsg, TtpResolution, TtpResolutionMsg, TtpResolveMsg, TtpResolveRequest,
    TtpVerdict, WireMsg,
};
use crate::replica::ActiveRun;
use crate::Coordinator;
use b2b_crypto::{CanonicalEncode, PartyId, TimeMs};
use b2b_evidence::EvidenceKind;
use b2b_net::NodeCtx;

/// How long the TTP waits for the proposer's evidence before certifying an
/// abort on a recipient appeal.
const TTP_EVIDENCE_TIMEOUT: TimeMs = TimeMs(1_000);

/// A run the TTP has dealt with (or is dealing with).
pub(crate) struct TtpCase {
    /// The certified resolution, once issued (replayed on later appeals).
    pub(crate) resolution: Option<TtpResolutionMsg>,
    /// An evidence pull in flight after a recipient appeal.
    pub(crate) pending: Option<PendingTtpCase>,
}

/// The context of a recipient appeal awaiting proposer evidence.
pub(crate) struct PendingTtpCase {
    pub(crate) object: ObjectId,
    pub(crate) members: Vec<PartyId>,
    pub(crate) proposer: PartyId,
    /// The proposed tuple from the (verified, signed) proposal; response
    /// echoes are checked against it.
    pub(crate) proposed: crate::ids::StateId,
}

impl Coordinator {
    /// Appeals to the TTP over a deadline-blocked run, from whichever role
    /// this party holds in it.
    pub(crate) fn appeal_to_ttp(
        &mut self,
        oid: &ObjectId,
        run: RunId,
        ttp: PartyId,
        ctx: &mut NodeCtx,
    ) {
        let Some(rep) = self.replicas.get(oid) else {
            return;
        };
        let (propose, responses) = match &rep.active {
            Some(ActiveRun::Proposer(pr)) if pr.run == run => (
                pr.propose.clone(),
                pr.responses.values().cloned().collect::<Vec<_>>(),
            ),
            Some(ActiveRun::Recipient(rr)) if rr.run == run => {
                (rr.propose.clone(), vec![rr.my_response.clone()])
            }
            _ => return,
        };
        let request = TtpResolveRequest {
            object: oid.clone(),
            run,
            appellant: self.me.clone(),
            members: rep.members.clone(),
        };
        let sig = self.signer.sign(&request.canonical_bytes());
        let msg = TtpResolveMsg {
            propose,
            responses,
            request,
            sig,
        };
        self.log_evidence(
            EvidenceKind::TtpAbort,
            oid,
            &run.to_hex(),
            self.me.clone(),
            msg.request.canonical_bytes(),
            Some(msg.sig.clone()),
            ctx.now(),
        );
        self.send_wire(&ttp, &WireMsg::TtpResolve(msg), ctx);
    }

    /// TTP side: handle an appeal. Any coordinator answers appeals — the
    /// appellants chose whom they appointed, and members only accept
    /// resolutions signed by their configured TTP.
    pub(crate) fn on_ttp_resolve(&mut self, from: &PartyId, msg: TtpResolveMsg, ctx: &mut NodeCtx) {
        let now = ctx.now();
        let oid = msg.request.object.clone();
        let run = msg.request.run;
        let run_hex = run.to_hex();

        let appeal_ok = from == &msg.request.appellant
            && self
                .verify_for(
                    &msg.request.appellant,
                    &msg.request.canonical_bytes(),
                    &msg.sig,
                )
                .is_ok()
            && msg.propose.proposal.run_id() == run
            && msg.propose.proposal.object == oid
            && self
                .verify_for(
                    &msg.propose.proposal.proposer,
                    &msg.propose.proposal.canonical_bytes(),
                    &msg.propose.sig,
                )
                .is_ok()
            && members_digest(&msg.request.members) == msg.propose.proposal.group.members_hash
            && msg.request.members.contains(&msg.request.appellant)
            && msg.request.members.contains(&msg.propose.proposal.proposer);
        if !appeal_ok {
            self.log_misbehaviour(
                &oid,
                &run_hex,
                Misbehaviour::BadSignature {
                    claimed: msg.request.appellant.clone(),
                    message: "ttp-resolve".into(),
                },
                now,
            );
            return;
        }

        // A cached resolution settles any later appeal identically.
        if let Some(case) = self.ttp_cases.get(&run) {
            if let Some(resolution) = case.resolution.clone() {
                self.broadcast_resolution(&msg.request.members, resolution, ctx);
                return;
            }
            if case.pending.is_some() {
                return; // evidence pull already in flight
            }
        }

        let proposer = msg.propose.proposal.proposer.clone();
        if msg.request.appellant == proposer {
            // Proposer appeal: certify from the presented set.
            let verdict = self.ttp_verdict(
                &msg.request.members,
                &proposer,
                run,
                &oid,
                msg.propose.proposal.proposed,
                &msg.responses,
            );
            self.certify_and_broadcast(
                &oid,
                run,
                verdict,
                &msg.responses,
                &msg.request.members,
                ctx,
            );
        } else {
            // Recipient appeal: pull the proposer's evidence first.
            self.ttp_cases.insert(
                run,
                TtpCase {
                    resolution: None,
                    pending: Some(PendingTtpCase {
                        object: oid.clone(),
                        members: msg.request.members.clone(),
                        proposer: proposer.clone(),
                        proposed: msg.propose.proposal.proposed,
                    }),
                },
            );
            let request = TtpEvidenceRequest {
                object: oid,
                run,
                ttp: self.me.clone(),
            };
            let sig = self.signer.sign(&request.canonical_bytes());
            self.send_wire(
                &proposer,
                &WireMsg::TtpEvidenceRequest(TtpEvidenceRequestMsg { request, sig }),
                ctx,
            );
            let timer = self.next_timer;
            self.next_timer += 1;
            self.ttp_timers.insert(timer, run);
            ctx.set_timer(timer, TTP_EVIDENCE_TIMEOUT);
        }
    }

    /// Proposer side: the TTP pulls the response set for a run.
    pub(crate) fn on_ttp_evidence_request(
        &mut self,
        from: &PartyId,
        msg: TtpEvidenceRequestMsg,
        ctx: &mut NodeCtx,
    ) {
        let now = ctx.now();
        let oid = msg.request.object.clone();
        let run = msg.request.run;
        if from != &msg.request.ttp
            || self
                .verify_for(&msg.request.ttp, &msg.request.canonical_bytes(), &msg.sig)
                .is_err()
        {
            self.log_misbehaviour(
                &oid,
                &run.to_hex(),
                Misbehaviour::BadSignature {
                    claimed: msg.request.ttp.clone(),
                    message: "ttp-evidence-request".into(),
                },
                now,
            );
            return;
        }
        // Answer with whatever we hold: an active run's responses, or the
        // response set inside a completed run's decide.
        let responses: Vec<RespondMsg> = match self.replicas.get(&oid) {
            Some(rep) => match (&rep.active, rep.completed_reply(&run)) {
                (Some(ActiveRun::Proposer(pr)), _) if pr.run == run => {
                    pr.responses.values().cloned().collect()
                }
                (_, Some(WireMsg::Decide(d))) => d.responses,
                _ => Vec::new(),
            },
            None => Vec::new(),
        };
        let evidence = TtpEvidence {
            object: oid,
            run,
            proposer: self.me.clone(),
            responses_digest: responses_digest(&responses),
        };
        let sig = self.signer.sign(&evidence.canonical_bytes());
        self.send_wire(
            from,
            &WireMsg::TtpEvidence(TtpEvidenceMsg {
                evidence,
                responses,
                sig,
            }),
            ctx,
        );
    }

    /// TTP side: the proposer's evidence arrives for a pending case.
    pub(crate) fn on_ttp_evidence(
        &mut self,
        from: &PartyId,
        msg: TtpEvidenceMsg,
        ctx: &mut NodeCtx,
    ) {
        let now = ctx.now();
        let run = msg.evidence.run;
        let Some(case) = self.ttp_cases.get(&run) else {
            return;
        };
        let Some(pending) = &case.pending else {
            return;
        };
        if case.resolution.is_some() {
            return;
        }
        let (object, members, proposer, proposed) = (
            pending.object.clone(),
            pending.members.clone(),
            pending.proposer.clone(),
            pending.proposed,
        );
        if from != &proposer
            || msg.evidence.proposer != proposer
            || msg.evidence.responses_digest != responses_digest(&msg.responses)
            || self
                .verify_for(&proposer, &msg.evidence.canonical_bytes(), &msg.sig)
                .is_err()
        {
            self.log_misbehaviour(
                &object,
                &run.to_hex(),
                Misbehaviour::BadSignature {
                    claimed: proposer,
                    message: "ttp-evidence".into(),
                },
                now,
            );
            return;
        }
        let verdict = self.ttp_verdict(&members, &proposer, run, &object, proposed, &msg.responses);
        self.certify_and_broadcast(&object, run, verdict, &msg.responses, &members, ctx);
    }

    /// TTP side: the evidence pull timed out — certify an abort.
    pub(crate) fn on_ttp_timer(&mut self, run: RunId, ctx: &mut NodeCtx) {
        let Some(case) = self.ttp_cases.get(&run) else {
            return;
        };
        if case.resolution.is_some() {
            return;
        }
        let Some(pending) = &case.pending else {
            return;
        };
        let (object, members) = (pending.object.clone(), pending.members.clone());
        self.certify_and_broadcast(&object, run, TtpVerdict::CertifiedAbort, &[], &members, ctx);
    }

    /// Computes the verdict a response set supports: a complete verified
    /// set certifies the decision it implies; anything else aborts.
    fn ttp_verdict(
        &self,
        members: &[PartyId],
        proposer: &PartyId,
        run: RunId,
        object: &ObjectId,
        proposed: crate::ids::StateId,
        responses: &[RespondMsg],
    ) -> TtpVerdict {
        let expected: std::collections::BTreeSet<&PartyId> =
            members.iter().filter(|m| *m != proposer).collect();
        let mut seen: std::collections::BTreeSet<&PartyId> = Default::default();
        for r in responses {
            if r.response.run != run
                || &r.response.object != object
                || r.response.proposed != proposed
                || !expected.contains(&r.response.responder)
                || !seen.insert(&r.response.responder)
                || self
                    .verify_for(&r.response.responder, &r.response.canonical_bytes(), &r.sig)
                    .is_err()
            {
                return TtpVerdict::CertifiedAbort;
            }
        }
        if seen.len() != expected.len() {
            TtpVerdict::CertifiedAbort
        } else if responses
            .iter()
            .all(|r| r.response.decision.verdict == Verdict::Accept && r.response.body_ok)
        {
            TtpVerdict::CertifiedValid
        } else {
            TtpVerdict::CertifiedInvalid
        }
    }

    fn certify_and_broadcast(
        &mut self,
        object: &ObjectId,
        run: RunId,
        verdict: TtpVerdict,
        responses: &[RespondMsg],
        members: &[PartyId],
        ctx: &mut NodeCtx,
    ) {
        let kept: Vec<RespondMsg> = if verdict == TtpVerdict::CertifiedAbort {
            Vec::new()
        } else {
            responses.to_vec()
        };
        let resolution = TtpResolution {
            object: object.clone(),
            run,
            verdict,
            responses_digest: responses_digest(&kept),
        };
        let sig = self.signer.sign(&resolution.canonical_bytes());
        self.log_evidence(
            EvidenceKind::TtpAbort,
            object,
            &run.to_hex(),
            self.me.clone(),
            resolution.canonical_bytes(),
            Some(sig.clone()),
            ctx.now(),
        );
        let msg = TtpResolutionMsg {
            resolution,
            responses: kept,
            sig,
        };
        self.ttp_cases.insert(
            run,
            TtpCase {
                resolution: Some(msg.clone()),
                pending: None,
            },
        );
        self.broadcast_resolution(members, msg, ctx);
    }

    fn broadcast_resolution(
        &mut self,
        members: &[PartyId],
        resolution: TtpResolutionMsg,
        ctx: &mut NodeCtx,
    ) {
        let wire = WireMsg::TtpResolution(resolution);
        for member in members {
            self.send_wire(member, &wire, ctx);
        }
    }

    /// Member side: accept a certified resolution from the appointed TTP
    /// and terminate the blocked run accordingly.
    pub(crate) fn on_ttp_resolution(
        &mut self,
        from: &PartyId,
        msg: TtpResolutionMsg,
        ctx: &mut NodeCtx,
    ) {
        let now = ctx.now();
        let oid = msg.resolution.object.clone();
        let run = msg.resolution.run;
        let run_hex = run.to_hex();

        // Only resolutions signed by the TTP this party appointed count.
        let Some(ttp) = self.config.ttp.clone() else {
            return;
        };
        if from != &ttp
            || self
                .verify_for(&ttp, &msg.resolution.canonical_bytes(), &msg.sig)
                .is_err()
            || msg.resolution.responses_digest != responses_digest(&msg.responses)
        {
            self.log_misbehaviour(
                &oid,
                &run_hex,
                Misbehaviour::BadSignature {
                    claimed: ttp,
                    message: "ttp-resolution".into(),
                },
                now,
            );
            return;
        }
        if self.outcomes.contains_key(&run) {
            return; // already terminated (e.g. the decide arrived after all)
        }
        let Some(rep) = self.replicas.get_mut(&oid) else {
            return;
        };
        let in_run = matches!(
            &rep.active,
            Some(ActiveRun::Proposer(pr)) if pr.run == run
        ) || matches!(
            &rep.active,
            Some(ActiveRun::Recipient(rr)) if rr.run == run
        );
        if !in_run {
            return;
        }

        let outcome = match msg.resolution.verdict {
            TtpVerdict::CertifiedAbort => {
                let agreed = rep.agreed_state.clone();
                rep.object.apply_state(&agreed);
                rep.finish_run();
                Outcome::Aborted {
                    reason: "TTP-certified abort".into(),
                }
            }
            TtpVerdict::CertifiedValid => {
                let pending = match rep.finish_run() {
                    Some(ActiveRun::Proposer(pr)) => {
                        Some((pr.propose.proposal.proposed, pr.new_state))
                    }
                    Some(ActiveRun::Recipient(rr)) => rr
                        .pending_state
                        .clone()
                        .map(|st| (rr.propose.proposal.proposed, st)),
                    _ => None,
                };
                match pending {
                    Some((id, state)) => {
                        rep.install_state(id, state, REPLAY_WINDOW);
                        Outcome::Installed { state: id }
                    }
                    None => Outcome::Aborted {
                        reason: "TTP certified valid but no local body".into(),
                    },
                }
            }
            TtpVerdict::CertifiedInvalid => {
                let agreed = rep.agreed_state.clone();
                rep.object.apply_state(&agreed);
                rep.finish_run();
                let vetoers = msg
                    .responses
                    .iter()
                    .filter(|r| !r.response.decision.is_accept() || !r.response.body_ok)
                    .map(|r| {
                        (
                            r.response.responder.clone(),
                            r.response
                                .decision
                                .reason
                                .clone()
                                .unwrap_or_else(|| "rejected".into()),
                        )
                    })
                    .collect();
                Outcome::Invalidated { vetoers }
            }
        };
        self.log_evidence(
            EvidenceKind::TtpAbort,
            &oid,
            &run_hex,
            from.clone(),
            msg.resolution.canonical_bytes(),
            Some(msg.sig.clone()),
            now,
        );
        if outcome.is_installed() {
            self.checkpoint_evidence(&oid, run, now);
        }
        self.persist(&oid);
        self.outcomes.insert(run, outcome.clone());
        self.emit(&oid, run, CoordEventKind::Completed { outcome }, now);
        self.pump_queue(&oid, ctx);
    }
}
