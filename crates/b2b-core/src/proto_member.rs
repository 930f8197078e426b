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
//! `proto_state`, proposing a [`ProposalKind::Connect`] or
//! [`ProposalKind::Disconnect`]. This module holds what surrounds it: the
//! subject's request, the sponsor's prologue that turns a request into a
//! round, the body check of a membership proposal, and the welcome, ack
//! or rejection that tells the subject how the group decided.

use crate::coordinator::{ConnectStatus, ObjectFactory, PendingConnect};
use crate::decision::{CoordEventKind, Decision, Outcome};
use crate::detect::Misbehaviour;
use crate::error::CoordError;
use crate::ids::{members_digest, GroupId, ObjectId, RunId};
use crate::messages::{
    ConnectReject, ConnectRejectMsg, ConnectRequest, ConnectRequestMsg, DecideMsg, DisconnectAck,
    DisconnectAckMsg, DisconnectReject, DisconnectRejectMsg, DisconnectRequest,
    DisconnectRequestMsg, Proposal, ProposalKind, Welcome, WelcomeMsg, WireMsg,
};
use crate::object::B2BObject;
use crate::replica::{ActiveRun, LeavingRun, QueuedRequest, Replica};
use crate::tally;
use crate::Coordinator;
use b2b_crypto::{sha256, CanonicalDecode, CanonicalEncode, Digest32, PartyId};
use b2b_evidence::{EvidenceKind, RunLabel};
use b2b_net::NodeCtx;
use b2b_telemetry::names;

impl Coordinator {
    // =================================================================
    // Subject side: joining
    // =================================================================

    /// Requests admission to `object`'s sharing group via `sponsor` (the
    /// most recently joined member — any member can name it, see
    /// [`Coordinator::sponsor_of`]).
    ///
    /// `factory` builds this party's replica object; its state is replaced
    /// by the group's agreed state carried in the sponsor's welcome.
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
        let request = ConnectRequest {
            object: object.clone(),
            subject: self.me.clone(),
            nonce_hash: sha256(&self.rng.nonce()),
        };
        let sig = self.signer.sign(&request.canonical_bytes());
        let msg = ConnectRequestMsg { request, sig };
        // Content-addressed root: the request digest is the same on every
        // fabric, so sim and TCP reconstruct the same membership trace.
        self.begin_root(Coordinator::run_root(&RunId(
            msg.request.canonical_digest(),
        )));
        self.set_factory(object.clone(), factory);
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
        self.log_evidence(
            EvidenceKind::ConnectRequest,
            &object,
            RunLabel::Hex(msg.request.canonical_digest().as_bytes()),
            self.me.clone(),
            &msg.request.canonical_bytes(),
            Some(&msg.sig),
            ctx.now(),
        );
        self.trace(ctx.now(), "membership", "connect_request", || {
            format!("object={object} sponsor={sponsor}")
        });
        self.send_wire(&sponsor, &WireMsg::ConnectRequest(msg), ctx);
        self.persist_index();
        self.end_episode();
        self.flush_evidence();
        Ok(())
    }

    pub(crate) fn on_welcome(&mut self, from: &PartyId, msg: WelcomeMsg, ctx: &mut NodeCtx) {
        let now = ctx.now();
        let oid = msg.welcome.object.clone();
        let run = msg.welcome.run;
        let Some(contacted_sponsor) = self
            .cold()
            .and_then(|c| c.pending_connects.get(&oid))
            .map(|p| p.sponsor.clone())
        else {
            return; // duplicate welcome after installation, or stray
        };
        // The admitting sponsor is the most recently joined member before
        // us (requests may have been forwarded, so it need not be the
        // member we originally contacted). The welcome must come from it
        // and carry its signature.
        let welcome = &msg.welcome;
        let Some(i) = welcome.members.len().checked_sub(2) else {
            return;
        };
        let sponsor = welcome.members[i].clone();
        if from != &sponsor
            || self
                .verify_for(&sponsor, &welcome.canonical_bytes(), &msg.sig)
                .is_err()
        {
            self.log_misbehaviour(
                &oid,
                run.label(),
                Misbehaviour::BadSignature {
                    claimed: sponsor,
                    message: "welcome".into(),
                },
                now,
            );
            return;
        }
        // Structural checks: we are the newest member; the group id
        // identifies the member list; the state matches the agreed tuple;
        // and the member we actually contacted is in the admitted group —
        // otherwise any key-holding outsider could fabricate a "group"
        // consisting only of itself and us. Then every *prior* member's
        // signed response must be present (exactly the member list minus
        // the admitting sponsor and ourselves — a vacuous or partial set
        // would let a sponsor unilaterally admit), must verify, accept, and
        // assert the same agreed state tuple — this is how the subject
        // validates the membership and the state it is handed (§4.5.3).
        let me = self.me.clone();
        let ok = welcome.members.last() == Some(&me)
            && welcome.group.identifies(&welcome.members)
            && welcome.agreed.identifies(&msg.state)
            && welcome.members.contains(&contacted_sponsor)
            && tally::check_set(
                &msg.decide.responses,
                run,
                &oid,
                welcome
                    .members
                    .iter()
                    .filter(|m| **m != sponsor && **m != me),
                false,
                |r| r.response.prev == welcome.agreed && r.response.decision.is_accept(),
                |items| self.verify_batch_cached(items),
            )
            .is_ok();
        if !ok {
            self.log_misbehaviour(
                &oid,
                run.label(),
                Misbehaviour::InconsistentDecide {
                    run,
                    detail: "welcome fails verification".into(),
                },
                now,
            );
            return;
        }

        let Some(factory) = self.factory(&oid) else {
            return;
        };
        let mut object = factory();
        object.apply_state(&msg.state);
        let mut replica = Replica::new(
            oid.clone(),
            object,
            msg.welcome.members.clone(),
            msg.welcome.group,
            msg.welcome.agreed,
            msg.state.clone(),
        );
        replica.note_seen(run, None);
        replica.joined = true;
        self.replicas.insert(oid.clone(), Box::new(replica));
        if let Some(cold) = self.cold.as_deref_mut() {
            cold.pending_connects.remove(&oid);
            cold.connect_status.remove(&oid);
        }
        self.telemetry.inc(names::MEMBERSHIP_CHANGES);
        self.trace(now, "membership", "install", || {
            format!(
                "object={oid} run={} joined_as_member members={}",
                run.to_hex(),
                msg.welcome.members.len()
            )
        });
        self.log_evidence(
            EvidenceKind::ConnectWelcome,
            &oid,
            run.label(),
            from.clone(),
            &msg.welcome.canonical_bytes(),
            Some(&msg.sig),
            now,
        );
        self.persist(&oid);
        self.persist_index();
        self.outcomes.insert(
            run,
            Outcome::Installed {
                state: msg.welcome.agreed,
            },
        );
        self.emit(
            &oid,
            run,
            CoordEventKind::MembershipChanged {
                members: msg.welcome.members,
            },
            now,
        );
    }

    pub(crate) fn on_connect_reject(
        &mut self,
        from: &PartyId,
        msg: ConnectRejectMsg,
        ctx: &mut NodeCtx,
    ) {
        let now = ctx.now();
        let oid = msg.reject.object.clone();
        let Some(pending) = self.cold().and_then(|c| c.pending_connects.get(&oid)) else {
            return;
        };
        let expected_digest = pending.request.request.canonical_digest();
        // Only the member we chose to contact may reject us. Requests may
        // be forwarded between sponsors, so a legitimate rejection from
        // the *actual* sponsor can be lost here — the subject then stays
        // pending and retries — but accepting self-named rejecters would
        // let any key-holding outsider cancel admissions it observed.
        if from != &pending.sponsor
            || from != &msg.reject.sponsor
            || msg.reject.request_digest != expected_digest
            || self
                .verify_for(&msg.reject.sponsor, &msg.reject.canonical_bytes(), &msg.sig)
                .is_err()
        {
            self.log_misbehaviour(
                &oid,
                RunLabel::Hex(expected_digest.as_bytes()),
                Misbehaviour::BadSignature {
                    claimed: msg.reject.sponsor.clone(),
                    message: "connect-reject".into(),
                },
                now,
            );
            return;
        }
        let cold = self.cold_mut();
        cold.pending_connects.remove(&oid);
        cold.connect_status
            .insert(oid.clone(), ConnectStatus::Rejected);
        self.log_evidence(
            EvidenceKind::ConnectReject,
            &oid,
            RunLabel::Hex(expected_digest.as_bytes()),
            from.clone(),
            &msg.reject.canonical_bytes(),
            Some(&msg.sig),
            now,
        );
        self.persist_index();
    }

    // =================================================================
    // Sponsor side: connection
    // =================================================================

    pub(crate) fn on_connect_request(&mut self, msg: ConnectRequestMsg, ctx: &mut NodeCtx) {
        let now = ctx.now();
        let oid = msg.request.object.clone();
        // Verify before anything else. The sender need not be the subject:
        // members forward stale-addressed requests to the current sponsor,
        // and the subject's own signature is what authenticates the
        // request either way.
        if self
            .verify_for(
                &msg.request.subject,
                &msg.request.canonical_bytes(),
                &msg.sig,
            )
            .is_err()
        {
            self.log_misbehaviour(
                &oid,
                RunLabel::Text(""),
                Misbehaviour::BadSignature {
                    claimed: msg.request.subject.clone(),
                    message: "connect-request".into(),
                },
                now,
            );
            return;
        }
        let Some(rep) = self.replicas.get_mut(&oid) else {
            return;
        };
        if rep.active.is_some() {
            // §4.5.1: block (defer) new coordination requests.
            rep.queue_request(QueuedRequest::Connect(msg));
            self.persist(&oid);
            return;
        }
        self.sponsor_connect(msg, ctx);
    }

    /// Starts (or immediately answers) a connection request. Returns
    /// `true` if a polling run was started.
    pub(crate) fn sponsor_connect(&mut self, msg: ConnectRequestMsg, ctx: &mut NodeCtx) -> bool {
        let now = ctx.now();
        let oid = msg.request.object.clone();
        let subject = msg.request.subject.clone();
        let request_digest = msg.request.canonical_digest();

        let Some(rep) = self.replicas.get(&oid) else {
            return false;
        };
        if rep.detached {
            return false;
        }
        // Only the legitimate sponsor may coordinate admissions. A member
        // that is not (or no longer) the sponsor — e.g. because an earlier
        // queued admission rotated sponsorship — forwards the request to
        // the current sponsor rather than dropping it.
        if rep.sponsor() != &self.me {
            let sponsor = rep.sponsor().clone();
            self.send_wire(&sponsor, &WireMsg::ConnectRequest(msg), ctx);
            return false;
        }
        // Immediate rejection: already a member, or local policy says no.
        let local = if rep.is_member(&subject) {
            Decision::reject("already a member")
        } else {
            rep.object.validate_connect(&subject)
        };
        self.log_evidence(
            EvidenceKind::ConnectRequest,
            &oid,
            RunLabel::Hex(request_digest.as_bytes()),
            subject.clone(),
            &msg.request.canonical_bytes(),
            Some(&msg.sig),
            now,
        );
        if !local.is_accept() {
            self.send_connect_reject(&oid, &subject, request_digest, ctx);
            return false;
        }
        self.sponsor_run(&oid, QueuedRequest::Connect(msg), ctx)
    }

    /// The run-start tail of both sponsor prologues: opens the round that
    /// proposes the change `request` asks for, which ends at once when
    /// there is nobody to poll. Returns `true` if a polling run was started.
    fn sponsor_run(&mut self, oid: &ObjectId, request: QueuedRequest, ctx: &mut NodeCtx) -> bool {
        let rep = &self.replicas[oid];
        let group = rep.group;
        let (mut kind, body) = match request {
            QueuedRequest::Connect(m) => (
                ProposalKind::Connect {
                    request_digest: m.request.canonical_digest(),
                    subject: m.request.subject.clone(),
                    new_group: group,
                },
                m.canonical_bytes(),
            ),
            QueuedRequest::Disconnect(m) => (
                ProposalKind::Disconnect {
                    request_digest: m.request.canonical_digest(),
                    subjects: m.request.subjects.clone(),
                    eviction: m.request.eviction,
                    new_group: group,
                },
                m.canonical_bytes(),
            ),
        };
        let members_hash = members_digest(&kind.new_members(&rep.members));
        let agreed = rep.agreed;
        if let ProposalKind::Connect { new_group, .. }
        | ProposalKind::Disconnect { new_group, .. } = &mut kind
        {
            *new_group = GroupId {
                seq: group.seq + 1,
                rand_hash: sha256(&self.rng.nonce()),
                members_hash,
            };
        }
        self.open_round(oid, agreed, kind, body, Vec::new(), ctx);
        self.is_busy(oid)
    }

    /// Tells the subject of a membership round, at its sponsor, how the
    /// group decided: a welcome or a rejection for a connection, an ack or a
    /// rejection for a voluntary departure. A voluntary leave cannot be
    /// vetoed, but the run can still fail a consistency check at a polled
    /// member; the rejection returns the leaver's replica from `Leaving` to
    /// ordinary membership instead of leaving it hanging. Evictees are not
    /// consulted and get nothing; nor does anyone for a state round.
    pub(crate) fn answer_subject(
        &mut self,
        oid: &ObjectId,
        run: RunId,
        kind: &ProposalKind,
        accepted: bool,
        decide: DecideMsg,
        ctx: &mut NodeCtx,
    ) {
        match (kind, accepted) {
            (ProposalKind::Connect { subject, .. }, true) => {
                self.send_welcome(oid, run, subject, decide, ctx);
            }
            (
                ProposalKind::Connect {
                    subject,
                    request_digest,
                    ..
                },
                false,
            ) => self.send_connect_reject(oid, subject, *request_digest, ctx),
            (
                ProposalKind::Disconnect {
                    subjects,
                    eviction: false,
                    ..
                },
                true,
            ) => self.send_disconnect_ack(oid, run, &subjects[0], decide, ctx),
            (
                ProposalKind::Disconnect {
                    subjects,
                    eviction: false,
                    request_digest,
                    ..
                },
                false,
            ) => self.send_disconnect_reject(oid, &subjects[0], *request_digest, ctx),
            _ => {}
        }
    }

    /// The body check of a membership proposal `p`: `body` is the signed
    /// request `p` names by digest, for `p`'s object, asking for exactly the
    /// change proposed — a connection signed by its subject (§4.5.3), a
    /// disconnection signed by its requester, who for a voluntary one is
    /// its only subject (§4.5.4).
    pub(crate) fn request_ok(&self, p: &Proposal, body: &[u8]) -> bool {
        match &p.kind {
            ProposalKind::Connect {
                request_digest,
                subject,
                ..
            } => ConnectRequestMsg::from_canonical(body).is_ok_and(|m| {
                let r = &m.request;
                r.canonical_digest() == *request_digest
                    && r.object == p.object
                    && r.subject == *subject
                    && self
                        .verify_for(subject, &r.canonical_bytes(), &m.sig)
                        .is_ok()
            }),
            ProposalKind::Disconnect {
                request_digest,
                subjects,
                eviction,
                ..
            } => DisconnectRequestMsg::from_canonical(body).is_ok_and(|m| {
                let r = &m.request;
                r.canonical_digest() == *request_digest
                    && r.object == p.object
                    && r.subjects == *subjects
                    && r.eviction == *eviction
                    && (*eviction || (subjects.len() == 1 && r.proposer == subjects[0]))
                    && self
                        .verify_for(&r.proposer, &r.canonical_bytes(), &m.sig)
                        .is_ok()
            }),
            _ => false,
        }
    }

    fn send_connect_reject(
        &mut self,
        oid: &ObjectId,
        subject: &PartyId,
        request_digest: Digest32,
        ctx: &mut NodeCtx,
    ) {
        let reject = ConnectReject {
            object: oid.clone(),
            sponsor: self.me.clone(),
            request_digest,
        };
        let sig = self.signer.sign(&reject.canonical_bytes());
        self.log_evidence(
            EvidenceKind::ConnectReject,
            oid,
            RunLabel::Hex(request_digest.as_bytes()),
            self.me.clone(),
            &reject.canonical_bytes(),
            Some(&sig),
            ctx.now(),
        );
        self.send_wire(
            &subject.clone(),
            &WireMsg::ConnectReject(ConnectRejectMsg { reject, sig }),
            ctx,
        );
    }

    fn send_welcome(
        &mut self,
        oid: &ObjectId,
        run: RunId,
        subject: &PartyId,
        decide: DecideMsg,
        ctx: &mut NodeCtx,
    ) {
        let Some(rep) = self.replicas.get(oid) else {
            return;
        };
        let welcome = Welcome {
            object: oid.clone(),
            run,
            group: rep.group,
            members: rep.members.clone(),
            agreed: rep.agreed,
        };
        let state = rep.agreed_state.clone();
        let sig = self.signer.sign(&welcome.canonical_bytes());
        self.log_evidence(
            EvidenceKind::ConnectWelcome,
            oid,
            run.label(),
            self.me.clone(),
            &welcome.canonical_bytes(),
            Some(&sig),
            ctx.now(),
        );
        let msg = WireMsg::Welcome(WelcomeMsg {
            welcome,
            state,
            decide,
            sig,
        });
        self.send_wire(&subject.clone(), &msg, ctx);
    }

    // =================================================================
    // Disconnection (§4.5.4)
    // =================================================================

    /// Voluntarily leaves `object`'s sharing group. Completion is
    /// observable via [`Coordinator::is_member`] turning false once the
    /// sponsor's acknowledgement arrives.
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
        let Some(sponsor) = rep
            .sponsor_for_disconnect(std::slice::from_ref(&me))
            .cloned()
        else {
            // Sole member: leaving is local.
            rep.detach();
            self.persist(object);
            return Ok(());
        };
        let msg = self.disconnect_request(object, vec![me], false, ctx);
        // If the run is invalidated at the sponsor by a consistency
        // failure (voluntary leaves cannot be vetoed, but e.g. a group-id
        // mismatch or a concurrent run can fail it), the sponsor sends a
        // signed rejection and `on_disconnect_reject` returns this replica
        // to ordinary membership; the application may then retry. A leaver
        // may also simply cease cooperation (§4.5.4).
        let rep = self.replicas.get_mut(object).expect("checked above");
        rep.start_run(ActiveRun::Leaving(Box::new(LeavingRun {
            request: msg.clone(),
            sponsor: sponsor.clone(),
        })));
        self.trace(ctx.now(), "membership", "disconnect_request", || {
            format!("object={object} sponsor={sponsor}")
        });
        self.send_wire(&sponsor, &WireMsg::DisconnectRequest(msg), ctx);
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
            rep.sponsor_for_disconnect(&subjects)
                .expect("proposer remains")
                .clone()
        };
        let count = subjects.len();
        let msg = self.disconnect_request(object, subjects, true, ctx);
        self.trace(ctx.now(), "membership", "evict_request", || {
            format!("object={object} sponsor={sponsor} subjects={count}")
        });
        if sponsor == me {
            // §4.5.4: when the sponsor proposes the eviction, the request
            // step is omitted.
            self.sponsor_disconnect(msg, ctx);
        } else {
            self.send_wire(&sponsor, &WireMsg::DisconnectRequest(msg), ctx);
        }
        self.end_episode();
        self.flush_evidence();
        Ok(())
    }

    /// Signs a disconnection request by this party, opens its trace and
    /// logs it as evidence.
    fn disconnect_request(
        &mut self,
        object: &ObjectId,
        subjects: Vec<PartyId>,
        eviction: bool,
        ctx: &NodeCtx,
    ) -> DisconnectRequestMsg {
        let request = DisconnectRequest {
            object: object.clone(),
            proposer: self.me.clone(),
            subjects,
            eviction,
            nonce_hash: sha256(&self.rng.nonce()),
        };
        let sig = self.signer.sign(&request.canonical_bytes());
        let msg = DisconnectRequestMsg { request, sig };
        let digest = msg.request.canonical_digest();
        self.begin_root(Coordinator::run_root(&RunId(digest)));
        self.log_evidence(
            EvidenceKind::DisconnectRequest,
            object,
            RunLabel::Hex(digest.as_bytes()),
            self.me.clone(),
            &msg.request.canonical_bytes(),
            Some(&msg.sig),
            ctx.now(),
        );
        msg
    }

    pub(crate) fn on_disconnect_request(&mut self, msg: DisconnectRequestMsg, ctx: &mut NodeCtx) {
        let now = ctx.now();
        let oid = msg.request.object.clone();
        // As with connection requests, the proposer's signature (not the
        // sender identity) authenticates a possibly-forwarded request.
        if self
            .verify_for(
                &msg.request.proposer,
                &msg.request.canonical_bytes(),
                &msg.sig,
            )
            .is_err()
        {
            self.log_misbehaviour(
                &oid,
                RunLabel::Text(""),
                Misbehaviour::BadSignature {
                    claimed: msg.request.proposer.clone(),
                    message: "disconnect-request".into(),
                },
                now,
            );
            return;
        }
        // Voluntary requests must come from their subject.
        if !msg.request.eviction
            && (msg.request.subjects.len() != 1 || msg.request.subjects[0] != msg.request.proposer)
        {
            self.log_misbehaviour(
                &oid,
                RunLabel::Text(""),
                Misbehaviour::UnexpectedMessage {
                    detail: "voluntary disconnect not initiated by subject".into(),
                },
                now,
            );
            return;
        }
        let Some(rep) = self.replicas.get_mut(&oid) else {
            return;
        };
        if rep.active.is_some() {
            rep.queue_request(QueuedRequest::Disconnect(msg));
            self.persist(&oid);
            return;
        }
        self.sponsor_disconnect(msg, ctx);
    }

    /// Starts (or immediately resolves) a disconnection run at the
    /// sponsor. Returns `true` if a polling run was started.
    pub(crate) fn sponsor_disconnect(
        &mut self,
        msg: DisconnectRequestMsg,
        ctx: &mut NodeCtx,
    ) -> bool {
        let now = ctx.now();
        let oid = msg.request.object.clone();
        let subjects = &msg.request.subjects;
        let request_digest = msg.request.canonical_digest();

        let Some(rep) = self.replicas.get(&oid) else {
            return false;
        };
        if rep.detached {
            return false;
        }
        // Legitimacy: the most recently joined member not itself leaving.
        // Stale addressing (sponsorship rotated while the request was
        // queued or in flight) forwards to the current sponsor.
        if rep.sponsor_for_disconnect(subjects) != Some(&self.me) {
            if let Some(sponsor) = rep.sponsor_for_disconnect(subjects).cloned() {
                self.send_wire(&sponsor, &WireMsg::DisconnectRequest(msg), ctx);
            }
            return false;
        }
        if subjects.iter().any(|s| !rep.members.contains(s)) {
            self.log_misbehaviour(
                &oid,
                RunLabel::Hex(request_digest.as_bytes()),
                Misbehaviour::UnexpectedMessage {
                    detail: "disconnect of non-member".into(),
                },
                now,
            );
            return false;
        }
        // Sponsor's own policy check on evictions (a sponsor veto means the
        // eviction never goes to a vote).
        if msg.request.eviction && !validate_eviction(rep.object.as_ref(), subjects).is_accept() {
            self.log_evidence(
                EvidenceKind::DisconnectRequest,
                &oid,
                RunLabel::Hex(request_digest.as_bytes()),
                msg.request.proposer.clone(),
                &msg.request.canonical_bytes(),
                Some(&msg.sig),
                now,
            );
            return false;
        }
        self.sponsor_run(&oid, QueuedRequest::Disconnect(msg), ctx)
    }

    fn send_disconnect_ack(
        &mut self,
        oid: &ObjectId,
        run: RunId,
        subject: &PartyId,
        decide: DecideMsg,
        ctx: &mut NodeCtx,
    ) {
        let Some(rep) = self.replicas.get(oid) else {
            return;
        };
        let ack = DisconnectAck {
            object: oid.clone(),
            run,
            sponsor: self.me.clone(),
            subject: subject.clone(),
            group: rep.group,
            agreed: rep.agreed,
        };
        let sig = self.signer.sign(&ack.canonical_bytes());
        self.log_evidence(
            EvidenceKind::DisconnectAck,
            oid,
            run.label(),
            self.me.clone(),
            &ack.canonical_bytes(),
            Some(&sig),
            ctx.now(),
        );
        let msg = WireMsg::DisconnectAck(DisconnectAckMsg { ack, decide, sig });
        self.send_wire(&subject.clone(), &msg, ctx);
    }

    pub(crate) fn on_disconnect_ack(
        &mut self,
        from: &PartyId,
        msg: DisconnectAckMsg,
        ctx: &mut NodeCtx,
    ) {
        let now = ctx.now();
        let oid = msg.ack.object.clone();
        let run = msg.ack.run;
        let Some(rep) = self.replicas.get(&oid) else {
            return;
        };
        let Some(ActiveRun::Leaving(lr)) = rep.active.clone() else {
            return;
        };
        if from != &lr.sponsor
            || msg.ack.subject != self.me
            || self
                .verify_for(&lr.sponsor, &msg.ack.canonical_bytes(), &msg.sig)
                .is_err()
        {
            self.log_misbehaviour(
                &oid,
                run.label(),
                Misbehaviour::BadSignature {
                    claimed: lr.sponsor,
                    message: "disconnect-ack".into(),
                },
                now,
            );
            return;
        }
        let members_after: Vec<PartyId>;
        if let Some(rep) = self.replicas.get_mut(&oid) {
            rep.finish_run();
            members_after = rep.recipients(&self.me);
            rep.install_membership(members_after.clone(), msg.ack.group);
            rep.detach();
        } else {
            members_after = Vec::new();
        }
        self.log_evidence(
            EvidenceKind::DisconnectAck,
            &oid,
            run.label(),
            from.clone(),
            &msg.ack.canonical_bytes(),
            Some(&msg.sig),
            now,
        );
        self.persist(&oid);
        self.telemetry.inc(names::MEMBERSHIP_CHANGES);
        self.trace(now, "membership", "install", || {
            format!("object={oid} run={} detached", run.to_hex())
        });
        self.outcomes.insert(
            run,
            Outcome::Installed {
                state: msg.ack.agreed,
            },
        );
        self.emit(
            &oid,
            run,
            CoordEventKind::MembershipChanged {
                members: members_after,
            },
            now,
        );
    }

    fn send_disconnect_reject(
        &mut self,
        oid: &ObjectId,
        subject: &PartyId,
        request_digest: Digest32,
        ctx: &mut NodeCtx,
    ) {
        let reject = DisconnectReject {
            object: oid.clone(),
            sponsor: self.me.clone(),
            request_digest,
        };
        let sig = self.signer.sign(&reject.canonical_bytes());
        self.log_evidence(
            EvidenceKind::DisconnectReject,
            oid,
            RunLabel::Hex(request_digest.as_bytes()),
            self.me.clone(),
            &reject.canonical_bytes(),
            Some(&sig),
            ctx.now(),
        );
        self.trace(ctx.now(), "membership", "disconnect_reject", || {
            format!("object={oid} subject={subject}")
        });
        self.send_wire(
            &subject.clone(),
            &WireMsg::DisconnectReject(DisconnectRejectMsg { reject, sig }),
            ctx,
        );
    }

    pub(crate) fn on_disconnect_reject(
        &mut self,
        from: &PartyId,
        msg: DisconnectRejectMsg,
        ctx: &mut NodeCtx,
    ) {
        let now = ctx.now();
        let oid = msg.reject.object.clone();
        let Some(rep) = self.replicas.get(&oid) else {
            return;
        };
        let Some(ActiveRun::Leaving(lr)) = rep.active.clone() else {
            return; // duplicate after un-sticking, or stray
        };
        let expected_digest = lr.request.request.canonical_digest();
        // Only the sponsor we asked may reject our leave, and only for the
        // exact request we signed — anything else would let an outsider
        // (or a stale rejection) cancel a departure it observed.
        if from != &lr.sponsor
            || from != &msg.reject.sponsor
            || msg.reject.request_digest != expected_digest
            || self
                .verify_for(&msg.reject.sponsor, &msg.reject.canonical_bytes(), &msg.sig)
                .is_err()
        {
            self.log_misbehaviour(
                &oid,
                RunLabel::Hex(expected_digest.as_bytes()),
                Misbehaviour::BadSignature {
                    claimed: msg.reject.sponsor.clone(),
                    message: "disconnect-reject".into(),
                },
                now,
            );
            return;
        }
        if let Some(rep) = self.replicas.get_mut(&oid) {
            // Back to ordinary membership: the group never agreed to the
            // departure, so we are still a member and may retry.
            rep.finish_run();
        }
        self.log_evidence(
            EvidenceKind::DisconnectReject,
            &oid,
            RunLabel::Hex(expected_digest.as_bytes()),
            from.clone(),
            &msg.reject.canonical_bytes(),
            Some(&msg.sig),
            now,
        );
        self.trace(now, "membership", "disconnect_rejected", || {
            format!("object={oid} sponsor={from} back-to-member")
        });
        self.persist(&oid);
    }
}

/// The application's verdict on evicting `subjects`: the first rejection,
/// if any.
pub(crate) fn validate_eviction(object: &dyn B2BObject, subjects: &[PartyId]) -> Decision {
    subjects
        .iter()
        .map(|s| object.validate_disconnect(s, true))
        .find(|d| !d.is_accept())
        .unwrap_or_else(Decision::accept)
}
