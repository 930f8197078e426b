//! The connection and disconnection protocols (§4.5): sponsor-coordinated
//! membership changes with non-repudiable agreement on both the membership
//! of the group and the agreed object state.
//!
//! Roles: the **subject** (joining or leaving party) and the **sponsor** —
//! the most recently joined member, who relays the request to the current
//! membership, aggregates their signed decisions, and blocks new
//! coordination requests while one is pending (§4.5.1).
//!
//! The relay, the responses and the decision are the one round of
//! `proto_state`, proposing a [`ProposalKind::Member`]. This module holds
//! what surrounds it: the requester's signed [`MemberRequestMsg`], the
//! sponsor's prologue that turns a request into a round, the body check of
//! a membership proposal, and the signed [`MemberAnswerMsg`] that tells the
//! subject of a join or leave how the group decided.

use crate::coordinator::{ConnectStatus, ObjectFactory, PendingConnect};
use crate::decision::{CoordEventKind, Decision, Outcome};
use crate::detect::Misbehaviour;
use crate::error::CoordError;
use crate::ids::{members_digest, GroupId, ObjectId, RunId};
use crate::messages::{
    DecideMsg, MemberAnswer, MemberAnswerMsg, MemberChange, MemberRequest, MemberRequestMsg,
    MemberVerdict, Proposal, ProposalKind, WireMsg,
};
use crate::object::B2BObject;
use crate::replica::{ActiveRun, LeavingRun, Replica};
use crate::tally;
use crate::Coordinator;
use b2b_crypto::{sha256, CanonicalDecode, CanonicalEncode, Digest32, PartyId, Signature, TimeMs};
use b2b_evidence::{EvidenceKind, RunLabel};
use b2b_net::NodeCtx;
use b2b_telemetry::names;

impl Coordinator {
    // =================================================================
    // Requester side
    // =================================================================

    /// Requests admission to `object`'s sharing group via `sponsor` (the
    /// most recently joined member — any member can name it, see
    /// [`Coordinator::sponsor_of`]).
    ///
    /// `factory` builds this party's replica object; its state is replaced
    /// by the group's agreed state carried in the sponsor's answer.
    /// Outcome is observable through [`Coordinator::connect_status`].
    ///
    /// # Errors
    ///
    /// [`CoordError::DuplicateObject`] if already registered or a request
    /// is already pending.
    pub fn request_connect(
        &mut self,
        object: ObjectId,
        factory: ObjectFactory,
        sponsor: PartyId,
        ctx: &mut NodeCtx,
    ) -> Result<(), CoordError> {
        if self.replicas.contains_key(&object)
            || self
                .cold()
                .is_some_and(|c| c.pending_connects.contains_key(&object))
        {
            return Err(CoordError::DuplicateObject(object));
        }
        self.set_factory(object.clone(), factory);
        let msg = self.member_request(&object, MemberChange::Join, ctx);
        let cold = self.cold_mut();
        cold.pending_connects.insert(
            object.clone(),
            PendingConnect {
                request: msg.clone(),
                sponsor: sponsor.clone(),
            },
        );
        cold.connect_status
            .insert(object.clone(), ConnectStatus::Pending);
        self.trace(ctx.now(), "membership", "connect_request", || {
            format!("object={object} sponsor={sponsor}")
        });
        self.send_wire(&sponsor, &WireMsg::MemberRequest(msg), ctx);
        self.persist_index();
        self.end_episode();
        self.flush_evidence();
        Ok(())
    }

    /// Voluntarily leaves `object`'s sharing group. Completion is
    /// observable via [`Coordinator::is_member`] turning false once the
    /// sponsor's answer arrives.
    ///
    /// # Errors
    ///
    /// [`CoordError::UnknownObject`], [`CoordError::NotMember`] or
    /// [`CoordError::Busy`].
    pub fn request_disconnect(
        &mut self,
        object: &ObjectId,
        ctx: &mut NodeCtx,
    ) -> Result<(), CoordError> {
        let me = self.me.clone();
        let rep = self
            .replicas
            .get_mut(object)
            .ok_or_else(|| CoordError::UnknownObject(object.clone()))?;
        if rep.detached || !rep.members.contains(&me) {
            return Err(CoordError::NotMember {
                party: me,
                object: object.clone(),
            });
        }
        if rep.active.is_some() {
            return Err(CoordError::Busy {
                object: object.clone(),
            });
        }
        let Some(sponsor) = rep.sponsor_for(std::slice::from_ref(&me)).cloned() else {
            // Sole member: leaving is local.
            rep.detach();
            self.persist(object);
            return Ok(());
        };
        let msg = self.member_request(object, MemberChange::Leave, ctx);
        // A voluntary leave cannot be vetoed, but the run can still fail a
        // consistency check at a polled member (a group-id mismatch, a
        // concurrent run); the sponsor's signed rejection then returns this
        // replica to ordinary membership and the application may retry. A
        // leaver may also simply cease cooperation (§4.5.4).
        let rep = self.replicas.get_mut(object).expect("checked above");
        rep.start_run(ActiveRun::Leaving(Box::new(LeavingRun {
            request: msg.clone(),
            sponsor: sponsor.clone(),
        })));
        self.trace(ctx.now(), "membership", "disconnect_request", || {
            format!("object={object} sponsor={sponsor}")
        });
        self.send_wire(&sponsor, &WireMsg::MemberRequest(msg), ctx);
        self.persist(object);
        self.end_episode();
        self.flush_evidence();
        Ok(())
    }

    /// Proposes evicting `subjects` from `object`'s group (§4.5.4,
    /// including subset eviction). The evictees are not consulted; the
    /// remaining members decide.
    ///
    /// # Errors
    ///
    /// [`CoordError::UnknownObject`], [`CoordError::NotMember`] (for this
    /// party or any subject), or [`CoordError::Busy`].
    pub fn request_evict(
        &mut self,
        object: &ObjectId,
        subjects: Vec<PartyId>,
        ctx: &mut NodeCtx,
    ) -> Result<(), CoordError> {
        let me = self.me.clone();
        let sponsor = {
            let rep = self
                .replicas
                .get(object)
                .ok_or_else(|| CoordError::UnknownObject(object.clone()))?;
            if rep.detached || !rep.members.contains(&me) {
                return Err(CoordError::NotMember {
                    party: me.clone(),
                    object: object.clone(),
                });
            }
            if subjects.is_empty() || subjects.contains(&me) {
                return Err(CoordError::NotMember {
                    party: me.clone(),
                    object: object.clone(),
                });
            }
            for s in &subjects {
                if !rep.members.contains(s) {
                    return Err(CoordError::NotMember {
                        party: s.clone(),
                        object: object.clone(),
                    });
                }
            }
            if rep.active.is_some() {
                return Err(CoordError::Busy {
                    object: object.clone(),
                });
            }
            rep.sponsor_for(&subjects)
                .expect("proposer remains")
                .clone()
        };
        let count = subjects.len();
        let msg = self.member_request(object, MemberChange::Evict { subjects }, ctx);
        self.trace(ctx.now(), "membership", "evict_request", || {
            format!("object={object} sponsor={sponsor} subjects={count}")
        });
        if sponsor == me {
            // §4.5.4: when the sponsor proposes the eviction, the request
            // step is omitted.
            self.sponsor_request(msg, ctx);
        } else {
            self.send_wire(&sponsor, &WireMsg::MemberRequest(msg), ctx);
        }
        self.end_episode();
        self.flush_evidence();
        Ok(())
    }

    /// Signs a request by this party for `change` to `object`'s group,
    /// opens its trace and logs it as evidence.
    fn member_request(
        &mut self,
        object: &ObjectId,
        change: MemberChange,
        ctx: &NodeCtx,
    ) -> MemberRequestMsg {
        let request = MemberRequest {
            object: object.clone(),
            requester: self.me.clone(),
            change,
            nonce_hash: sha256(&self.rng.nonce()),
        };
        let sig = self.signer.sign(&request.canonical_bytes());
        let msg = MemberRequestMsg { request, sig };
        // Content-addressed root: the request digest is the same on every
        // fabric, so sim and TCP reconstruct the same membership trace.
        let digest = msg.request.canonical_digest();
        self.begin_root(Coordinator::run_root(&RunId(digest)));
        self.log_evidence(
            EvidenceKind::MemberRequest,
            object,
            RunLabel::Hex(digest.as_bytes()),
            self.me.clone(),
            &msg.request.canonical_bytes(),
            Some(&msg.sig),
            ctx.now(),
        );
        msg
    }

    /// The sponsor's answer to this party's join or leave request. An
    /// accepted join must come from the member admitted just before us
    /// (requests may be forwarded between sponsors, so it need not be the
    /// member we contacted), name the member we contacted, and carry a
    /// complete accepting set; any other answer must come from the sponsor
    /// we asked. Every answer names the digest of the request we signed.
    pub(crate) fn on_member_answer(
        &mut self,
        from: &PartyId,
        msg: MemberAnswerMsg,
        ctx: &mut NodeCtx,
    ) {
        let now = ctx.now();
        let oid = msg.answer.object.clone();
        let (request_digest, asked, joining) =
            match self.cold().and_then(|c| c.pending_connects.get(&oid)) {
                Some(p) => (
                    p.request.request.canonical_digest(),
                    p.sponsor.clone(),
                    true,
                ),
                None => match self.replicas.get(&oid).and_then(|r| r.active.as_ref()) {
                    Some(ActiveRun::Leaving(lr)) => (
                        lr.request.request.canonical_digest(),
                        lr.sponsor.clone(),
                        false,
                    ),
                    // A duplicate after the answer took effect, or stray.
                    _ => return,
                },
            };
        let answer = &msg.answer;
        let (signer, run) = match &answer.verdict {
            MemberVerdict::Accepted { run, members, .. } if joining => {
                let Some(i) = members.len().checked_sub(2) else {
                    return;
                };
                (members[i].clone(), Some(*run))
            }
            MemberVerdict::Accepted { run, .. } => (asked.clone(), Some(*run)),
            // Accepting self-named rejecters would let any key-holding
            // outsider cancel a request it observed.
            MemberVerdict::Rejected => (asked.clone(), None),
        };
        let label = match &run {
            Some(run) => run.label(),
            None => RunLabel::Hex(request_digest.as_bytes()),
        };
        if from != &signer
            || answer.sponsor != signer
            || answer.request_digest != request_digest
            || self
                .verify_for(&signer, &answer.canonical_bytes(), &msg.sig)
                .is_err()
        {
            let message = "member-answer".into();
            let claimed = signer;
            self.log_misbehaviour(
                &oid,
                label,
                Misbehaviour::BadSignature { claimed, message },
                now,
            );
            return;
        }
        // An admitted subject validates the membership and the state it is
        // handed (§4.5.3): it is the newest member; the group id identifies
        // the member list; the state matches the agreed tuple; the member
        // we contacted is in the group — otherwise any key-holding outsider
        // could fabricate a "group" of only itself and us — and every
        // *prior* member's signed response is present (the member list
        // minus the admitting sponsor and us: a vacuous or partial set
        // would let a sponsor admit unilaterally), verifies, accepts and
        // asserts the same agreed tuple.
        if let (
            true,
            MemberVerdict::Accepted {
                run,
                group,
                members,
                agreed,
            },
        ) = (joining, &answer.verdict)
        {
            let me = &self.me;
            let ok = members.last() == Some(me)
                && group.identifies(members)
                && msg.state.as_ref().is_some_and(|s| agreed.identifies(s))
                && members.contains(&asked)
                && msg.decide.as_ref().is_some_and(|d| {
                    tally::check_set(
                        &d.responses,
                        *run,
                        &oid,
                        members.iter().filter(|m| **m != signer && *m != me),
                        false,
                        |r| r.response.prev == *agreed && r.response.decision.is_accept(),
                        |items| self.verify_batch_cached(items),
                    )
                    .is_ok()
                });
            if !ok {
                let detail = "join answer fails verification".into();
                let m = Misbehaviour::InconsistentDecide { run: *run, detail };
                self.log_misbehaviour(&oid, label, m, now);
                return;
            }
        }
        match (joining, &answer.verdict) {
            (true, MemberVerdict::Accepted { .. }) => self.admitted(&oid, msg, now),
            (true, MemberVerdict::Rejected) => {
                let cold = self.cold_mut();
                cold.pending_connects.remove(&oid);
                cold.connect_status
                    .insert(oid.clone(), ConnectStatus::Rejected);
                self.log_answer(&msg.answer, &msg.sig, now);
                self.persist_index();
            }
            (false, verdict) => {
                let rep = self.replicas.get_mut(&oid).expect("matched above");
                rep.finish_run();
                let members = rep.recipients(&self.me);
                let left = match verdict {
                    MemberVerdict::Accepted {
                        run, group, agreed, ..
                    } => {
                        rep.install_membership(members.clone(), *group);
                        rep.detach();
                        Some((*run, *agreed))
                    }
                    // Back to ordinary membership: the group never agreed
                    // to the departure, so we are still a member and may
                    // retry.
                    MemberVerdict::Rejected => None,
                };
                self.log_answer(&msg.answer, &msg.sig, now);
                self.persist(&oid);
                let Some((run, agreed)) = left else {
                    self.trace(now, "membership", "disconnect_rejected", || {
                        format!("object={oid} sponsor={from} back-to-member")
                    });
                    return;
                };
                self.telemetry.inc(names::MEMBERSHIP_CHANGES);
                self.trace(now, "membership", "install", || {
                    format!("object={oid} run={} detached", run.to_hex())
                });
                self.outcomes
                    .insert(run, Outcome::Installed { state: agreed });
                let event = CoordEventKind::MembershipChanged { members };
                self.emit(&oid, run, event, now);
            }
        }
    }

    /// Installs the replica of the group that admitted this party, from a
    /// verified accepting answer.
    fn admitted(&mut self, oid: &ObjectId, msg: MemberAnswerMsg, now: TimeMs) {
        let MemberVerdict::Accepted {
            run,
            group,
            ref members,
            agreed,
        } = msg.answer.verdict
        else {
            return;
        };
        let Some(factory) = self.factory(oid) else {
            return;
        };
        let state = msg.state.clone().unwrap_or_default();
        let mut object = factory();
        object.apply_state(&state);
        let mut replica = Replica::new(oid.clone(), object, members.clone(), group, agreed, state);
        replica.note_seen(run, None);
        replica.joined = true;
        replica.hold_welcome((msg.answer.clone(), msg.sig.clone()));
        self.replicas.insert(oid.clone(), Box::new(replica));
        // The object reaches the index, and the welcome the core document,
        // before the welcome reaches the log: recovery logs a welcome its
        // log lacks. Until it is logged the request stays pending in the
        // index, so recovery asks again for a join whose core document did
        // not land — which is dropped here unlogged.
        self.persist_index();
        self.persist(oid);
        if self.replicas[oid].holds_welcome() {
            self.replicas.remove(oid);
            self.index_stale = true;
            return;
        }
        if let Some(cold) = self.cold.as_deref_mut() {
            cold.pending_connects.remove(oid);
            cold.connect_status.remove(oid);
        }
        self.log_answer(&msg.answer, &msg.sig, now);
        self.persist_index();
        self.telemetry.inc(names::MEMBERSHIP_CHANGES);
        self.trace(now, "membership", "install", || {
            format!(
                "object={oid} run={} joined_as_member members={}",
                run.to_hex(),
                members.len()
            )
        });
        self.outcomes
            .insert(run, Outcome::Installed { state: agreed });
        let event = CoordEventKind::MembershipChanged {
            members: members.clone(),
        };
        self.emit(oid, run, event, now);
    }

    /// Logs a member answer as its sponsor's signed record, filed under
    /// the round it names, or under the request's digest if it rejects.
    pub(crate) fn log_answer(
        &mut self,
        answer: &MemberAnswer,
        sig: &Signature,
        now: TimeMs,
    ) -> Option<u64> {
        let label = match &answer.verdict {
            MemberVerdict::Accepted { run, .. } => run.label(),
            MemberVerdict::Rejected => RunLabel::Hex(answer.request_digest.as_bytes()),
        };
        self.log_evidence(
            EvidenceKind::MemberAnswer,
            &answer.object,
            label,
            answer.sponsor.clone(),
            &answer.canonical_bytes(),
            Some(sig),
            now,
        )
    }

    // =================================================================
    // Sponsor side
    // =================================================================

    pub(crate) fn on_member_request(&mut self, msg: MemberRequestMsg, ctx: &mut NodeCtx) {
        let now = ctx.now();
        let r = &msg.request;
        let oid = r.object.clone();
        // Verify before anything else. The sender need not be the
        // requester: members forward stale-addressed requests to the
        // current sponsor, and the requester's own signature is what
        // authenticates the request either way.
        if self
            .verify_for(&r.requester, &r.canonical_bytes(), &msg.sig)
            .is_err()
        {
            let claimed = r.requester.clone();
            let message = "member-request".into();
            let m = Misbehaviour::BadSignature { claimed, message };
            self.log_misbehaviour(&oid, RunLabel::Text(""), m, now);
            return;
        }
        let Some(rep) = self.replicas.get_mut(&oid) else {
            return;
        };
        if rep.active.is_some() {
            // §4.5.1: block (defer) new coordination requests.
            rep.queue_request(msg);
            self.persist(&oid);
            return;
        }
        self.sponsor_request(msg, ctx);
    }

    /// The sponsor's prologue of a verified request: forwards it to the
    /// legitimate sponsor, refuses it at once, or opens the round that
    /// proposes it. Returns `true` if a polling run was started.
    pub(crate) fn sponsor_request(&mut self, msg: MemberRequestMsg, ctx: &mut NodeCtx) -> bool {
        let now = ctx.now();
        let r = &msg.request;
        let oid = r.object.clone();
        let request_digest = r.canonical_digest();
        let Some(rep) = self.replicas.get(&oid) else {
            return false;
        };
        if rep.detached {
            return false;
        }
        // Only the legitimate sponsor — the most recently joined member not
        // itself leaving (§4.5.1) — may coordinate the change. A member that
        // is not (or no longer) the sponsor, e.g. because an earlier queued
        // change rotated sponsorship, forwards the request rather than
        // dropping it.
        let leavers = r.leavers();
        match rep.sponsor_for(leavers) {
            Some(sponsor) if sponsor == &self.me => {}
            Some(sponsor) => {
                let sponsor = sponsor.clone();
                self.send_wire(&sponsor, &WireMsg::MemberRequest(msg), ctx);
                return false;
            }
            None => return false,
        }
        if leavers.iter().any(|s| !rep.is_member(s)) {
            let detail = "disconnect of non-member".into();
            let m = Misbehaviour::UnexpectedMessage { detail };
            self.log_misbehaviour(&oid, RunLabel::Hex(request_digest.as_bytes()), m, now);
            return false;
        }
        // The sponsor's own verdict: a refused change never goes to a vote.
        let joining = r.change == MemberChange::Join;
        let local = if joining && rep.is_member(&r.requester) {
            Decision::reject("already a member")
        } else {
            validate_change(rep.object.as_ref(), &r.requester, &r.change)
        };
        let (group, agreed) = (rep.group, rep.agreed);
        let members_hash = members_digest(&r.change.new_members(&r.requester, &rep.members));
        // The sponsor files every request it answers or puts to a vote; its
        // own was filed when it signed it.
        if r.requester != self.me {
            self.log_evidence(
                EvidenceKind::MemberRequest,
                &oid,
                RunLabel::Hex(request_digest.as_bytes()),
                r.requester.clone(),
                &r.canonical_bytes(),
                Some(&msg.sig),
                now,
            );
        }
        if !local.is_accept() {
            if joining {
                let answer = self.answer(&oid, request_digest, MemberVerdict::Rejected);
                self.send_answer(&r.requester.clone(), answer, None, None, ctx);
            }
            return false;
        }
        let kind = ProposalKind::Member {
            request_digest,
            requester: r.requester.clone(),
            change: r.change.clone(),
            new_group: GroupId {
                seq: group.seq + 1,
                rand_hash: sha256(&self.rng.nonce()),
                members_hash,
            },
        };
        self.open_round(&oid, agreed, kind, msg.canonical_bytes(), Vec::new(), ctx);
        self.is_busy(&oid)
    }

    /// Tells the subject of a join or leave round, at its sponsor, how the
    /// group decided: an accepted answer carries `decide`, and an accepted
    /// join the agreed state. A voluntary leave cannot be vetoed, but the
    /// run can still fail a consistency check at a polled member; the
    /// rejection returns the leaver's replica from `Leaving` to ordinary
    /// membership instead of leaving it hanging. Evictees are not consulted
    /// and get nothing; nor does anyone for a state round.
    pub(crate) fn answer_subject(
        &mut self,
        oid: &ObjectId,
        run: RunId,
        kind: &ProposalKind,
        accepted: bool,
        decide: DecideMsg,
        ctx: &mut NodeCtx,
    ) {
        let ProposalKind::Member {
            request_digest,
            requester,
            change: change @ (MemberChange::Join | MemberChange::Leave),
            ..
        } = kind
        else {
            return;
        };
        let Some(rep) = self.replicas.get(oid) else {
            return;
        };
        let (verdict, decide, state) = if accepted {
            let verdict = MemberVerdict::Accepted {
                run,
                group: rep.group,
                members: rep.members.clone(),
                agreed: rep.agreed,
            };
            let state = (*change == MemberChange::Join).then(|| rep.agreed_state.clone());
            (verdict, Some(decide), state)
        } else {
            if *change == MemberChange::Leave {
                self.trace(ctx.now(), "membership", "disconnect_reject", || {
                    format!("object={oid} subject={requester}")
                });
            }
            (MemberVerdict::Rejected, None, None)
        };
        let answer = self.answer(oid, *request_digest, verdict);
        self.send_answer(requester, answer, decide, state, ctx);
    }

    /// The signed part of this sponsor's answer to a request.
    fn answer(
        &self,
        oid: &ObjectId,
        request_digest: Digest32,
        verdict: MemberVerdict,
    ) -> MemberAnswer {
        MemberAnswer {
            object: oid.clone(),
            sponsor: self.me.clone(),
            request_digest,
            verdict,
        }
    }

    /// Signs `answer`, logs it and sends it to `subject` with the accepting
    /// round's `decide` and the agreed `state`, when they ride along.
    fn send_answer(
        &mut self,
        subject: &PartyId,
        answer: MemberAnswer,
        decide: Option<DecideMsg>,
        state: Option<Vec<u8>>,
        ctx: &mut NodeCtx,
    ) {
        let sig = self.signer.sign(&answer.canonical_bytes());
        let msg = MemberAnswerMsg {
            answer,
            decide,
            state,
            sig,
        };
        self.log_answer(&msg.answer, &msg.sig, ctx.now());
        self.send_wire(subject, &WireMsg::MemberAnswer(msg), ctx);
    }

    /// The body check of a membership proposal `p`: `body` is the signed
    /// request `p` names by digest, for `p`'s object, asking for exactly the
    /// change proposed, and signed by its requester.
    pub(crate) fn request_ok(&self, p: &Proposal, body: &[u8]) -> bool {
        let ProposalKind::Member {
            request_digest,
            requester,
            change,
            ..
        } = &p.kind
        else {
            return false;
        };
        MemberRequestMsg::from_canonical(body).is_ok_and(|m| {
            let r = &m.request;
            let bytes = r.canonical_bytes();
            sha256(&bytes) == *request_digest
                && r.object == p.object
                && r.requester == *requester
                && r.change == *change
                && self.verify_for(requester, &bytes, &m.sig).is_ok()
        })
    }
}

/// The application's verdict on `change`, requested by `requester`: its
/// connect upcall for a join, the first rejection of an eviction's
/// subjects, and acceptance of a voluntary departure, which "cannot be
/// vetoed" (§4.5.4).
pub(crate) fn validate_change(
    object: &dyn B2BObject,
    requester: &PartyId,
    change: &MemberChange,
) -> Decision {
    match change {
        MemberChange::Join => object.validate_connect(requester),
        MemberChange::Leave => Decision::accept(),
        MemberChange::Evict { subjects } => subjects
            .iter()
            .map(|s| object.validate_disconnect(s, true))
            .find(|d| !d.is_accept())
            .unwrap_or_else(Decision::accept),
    }
}
