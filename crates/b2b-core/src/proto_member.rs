//! The connection and disconnection protocols (§4.5): sponsor-coordinated
//! membership changes with non-repudiable agreement on both the membership
//! of the group and the agreed object state.
//!
//! Roles: the **subject** (joining or leaving party) and the **sponsor** —
//! the most recently joined member, who relays the request to the current
//! membership, aggregates their signed decisions, and blocks new
//! coordination requests while one is pending (§4.5.1).

use crate::config::{DecisionRule, COMPLETED_REPLIES_CAP};
use crate::coordinator::{ConnectStatus, ObjectFactory, PendingConnect};
use crate::decision::{CoordEventKind, Decision, Outcome};
use crate::detect::Misbehaviour;
use crate::error::CoordError;
use crate::ids::{GroupId, ObjectId, RunId};
use crate::messages::{
    ConnectReject, ConnectRejectMsg, ConnectRequest, ConnectRequestMsg, DisconnectAck,
    DisconnectAckMsg, DisconnectReject, DisconnectRejectMsg, DisconnectRequest,
    DisconnectRequestMsg, MemberDecideMsg, MemberRespondMsg, MemberResponse, Welcome, WelcomeMsg,
    WireMsg,
};
use crate::object::B2BObject;
use crate::replica::{
    ActiveRun, LeavingRun, MemberRun, MemberStep, MembershipChange, ProposalFields, QueuedRequest,
    Replica, SponsorRun,
};
use crate::tally::{self, Ballot, Collected};
use crate::Coordinator;
use b2b_crypto::{sha256, CanonicalEncode, PartyId};
use b2b_evidence::EvidenceKind;
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
        if self.replicas.contains_key(&object) || self.pending_connects.contains_key(&object) {
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
        self.factories.insert(object.clone(), factory);
        self.pending_connects.insert(
            object.clone(),
            PendingConnect {
                request: msg.clone(),
                sponsor: sponsor.clone(),
            },
        );
        self.connect_status
            .insert(object.clone(), ConnectStatus::Pending);
        self.log_evidence(
            EvidenceKind::ConnectRequest,
            &object,
            &msg.request.canonical_digest().to_string(),
            self.me.clone(),
            msg.request.canonical_bytes(),
            Some(msg.sig.clone()),
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
        let Some(contacted_sponsor) = self.pending_connects.get(&oid).map(|p| p.sponsor.clone())
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
                &run.to_hex(),
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
                |r| r.response.agreed == welcome.agreed && r.response.decision.is_accept(),
                |items| self.verify_batch_cached(items),
            )
            .is_ok();
        if !ok {
            self.log_misbehaviour(
                &oid,
                &run.to_hex(),
                Misbehaviour::InconsistentDecide {
                    run,
                    detail: "welcome fails verification".into(),
                },
                now,
            );
            return;
        }

        let Some(factory) = self.factories.get(&oid) else {
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
        self.replicas.insert(oid.clone(), replica);
        self.pending_connects.remove(&oid);
        self.connect_status
            .insert(oid.clone(), ConnectStatus::Member);
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
            &run.to_hex(),
            from.clone(),
            msg.welcome.canonical_bytes(),
            Some(msg.sig.clone()),
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
        let Some(pending) = self.pending_connects.get(&oid) else {
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
                &expected_digest.to_string(),
                Misbehaviour::BadSignature {
                    claimed: msg.reject.sponsor.clone(),
                    message: "connect-reject".into(),
                },
                now,
            );
            return;
        }
        self.pending_connects.remove(&oid);
        self.connect_status
            .insert(oid.clone(), ConnectStatus::Rejected);
        self.log_evidence(
            EvidenceKind::ConnectReject,
            &oid,
            &expected_digest.to_string(),
            from.clone(),
            msg.reject.canonical_bytes(),
            Some(msg.sig),
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
                "",
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
            &request_digest.to_string(),
            subject.clone(),
            msg.request.canonical_bytes(),
            Some(msg.sig.clone()),
            now,
        );
        if !local.is_accept() {
            self.send_connect_reject(&oid, &subject, request_digest, ctx);
            return false;
        }
        self.sponsor_run(&oid, QueuedRequest::Connect(msg), ctx)
    }

    /// The run-start tail of both sponsor prologues: proposes the change
    /// `request` asks for to the polled members, or concludes it at once
    /// when there are none. Returns `true` if a polling run was started.
    fn sponsor_run(&mut self, oid: &ObjectId, request: QueuedRequest, ctx: &mut NodeCtx) -> bool {
        let now = ctx.now();
        let me = self.me.clone();
        let rep = self.replicas.get_mut(oid).expect("checked by the prologue");
        let mut change = MembershipChange::draft(request, me.clone(), rep.group, rep.agreed);
        let new_members = change.new_members(&rep.members);
        let new_group = GroupId {
            seq: rep.group.seq + 1,
            rand_hash: sha256(&self.rng.nonce()),
            members_hash: crate::ids::members_digest(&new_members),
        };
        let authenticator = self.rng.nonce();
        change.seal(new_group, sha256(&authenticator), |bytes| {
            self.signer.sign(bytes)
        });
        let ProposalFields { signed, sig, .. } = change.proposal();
        let (run, sig) = (RunId::from_bytes(&signed), sig.clone());
        let polled = change.polled(&rep.members, &me);

        if polled.is_empty() {
            // Nobody to poll: the sponsor's acceptance is the group's.
            rep.note_seen(run, None);
            let decide = MemberDecideMsg {
                object: oid.clone(),
                run,
                authenticator,
                responses: Vec::new(),
                connecting: change.connecting(),
            };
            self.conclude_member_run(&change, new_members, new_group, decide, ctx);
            return false;
        }

        let kind = change.evidence_kind(MemberStep::Propose);
        let detail = change.describe();
        let wire = change.propose_wire();
        rep.start_run(ActiveRun::Sponsor(SponsorRun {
            run,
            change,
            authenticator,
            new_members,
            new_group,
            polled: polled.clone(),
            responses: Default::default(),
            decided: None,
        }));
        self.log_evidence(kind, oid, &run.to_hex(), me, signed, Some(sig), now);
        self.trace(now, "membership", "propose", || {
            format!(
                "object={oid} run={} {detail} polled={}",
                run.to_hex(),
                polled.len()
            )
        });
        self.send_wire_all(&polled, &wire, ctx);
        self.persist(oid);
        true
    }

    /// Installs an agreed change at its sponsor and answers the subject: a
    /// welcome for a join, an ack for a voluntary leave. Evictees are not
    /// consulted and get nothing.
    fn conclude_member_run(
        &mut self,
        change: &MembershipChange,
        new_members: Vec<PartyId>,
        new_group: GroupId,
        decide: MemberDecideMsg,
        ctx: &mut NodeCtx,
    ) {
        let (oid, run) = (decide.object.clone(), decide.run);
        self.install_membership(&oid, run, new_members, new_group, change.leavers(), ctx);
        match change {
            MembershipChange::Connect { subject, .. } => {
                self.send_welcome(&oid, run, subject, decide, ctx);
            }
            MembershipChange::Disconnect {
                subjects,
                eviction: false,
                ..
            } => self.send_disconnect_ack(&oid, run, &subjects[0], decide, ctx),
            MembershipChange::Disconnect { .. } => {}
        }
    }

    fn send_connect_reject(
        &mut self,
        oid: &ObjectId,
        subject: &PartyId,
        request_digest: b2b_crypto::Digest32,
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
            &request_digest.to_string(),
            self.me.clone(),
            reject.canonical_bytes(),
            Some(sig.clone()),
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
        decide: MemberDecideMsg,
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
            &run.to_hex(),
            self.me.clone(),
            welcome.canonical_bytes(),
            Some(sig.clone()),
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

    /// Installs an agreed membership change and emits the event.
    fn install_membership(
        &mut self,
        oid: &ObjectId,
        run: RunId,
        new_members: Vec<PartyId>,
        new_group: GroupId,
        leavers: &[PartyId],
        ctx: &mut NodeCtx,
    ) {
        let me = self.me.clone();
        let now = ctx.now();
        if let Some(rep) = self.replicas.get_mut(oid) {
            rep.finish_run();
            rep.install_membership(new_members.clone(), new_group);
            if leavers.contains(&me) {
                rep.detach();
            }
        }
        self.persist(oid);
        self.telemetry.inc(names::MEMBERSHIP_CHANGES);
        self.trace(now, "membership", "install", || {
            format!(
                "object={oid} run={} members={} leavers={}",
                run.to_hex(),
                new_members.len(),
                leavers.len()
            )
        });
        self.outcomes.insert(
            run,
            Outcome::Installed {
                state: self
                    .replicas
                    .get(oid)
                    .map(|r| r.agreed)
                    .expect("replica exists"),
            },
        );
        self.emit(
            oid,
            run,
            CoordEventKind::MembershipChanged {
                members: new_members,
            },
            now,
        );
    }

    // =================================================================
    // Member side: polled about a membership change
    // =================================================================

    /// A polled member's handling of a connection or disconnection
    /// proposal: one set of checks for both kinds of change, of which only
    /// the attached request and the application upcall differ.
    pub(crate) fn on_member_propose(
        &mut self,
        from: &PartyId,
        change: MembershipChange,
        ctx: &mut NodeCtx,
    ) {
        let now = ctx.now();
        let p = change.proposal();
        let oid = p.object.clone();
        let run = RunId::from_bytes(&p.signed);

        if from != p.sponsor || self.verify_for(p.sponsor, &p.signed, p.sig).is_err() {
            self.log_misbehaviour(
                &oid,
                &run.to_hex(),
                Misbehaviour::BadSignature {
                    claimed: p.sponsor.clone(),
                    message: format!("{}-propose", change.name()),
                },
                now,
            );
            return;
        }
        if self.replay_completed_reply(&oid, &run, from, ctx) {
            return;
        }
        let Some(rep) = self.replicas.get(&oid) else {
            return;
        };
        if let Some(ActiveRun::Member(mr)) = &rep.active {
            if mr.run == run {
                let reply = WireMsg::MemberRespond(mr.my_response.clone());
                self.send_wire(from, &reply, ctx);
                return;
            }
        }
        // As for state proposals: a party that has left the group (or was
        // never in it) has no say and signs nothing.
        if rep.detached || !rep.is_member(&self.me) {
            self.log_misbehaviour(
                &oid,
                &run.to_hex(),
                Misbehaviour::UnexpectedMessage {
                    detail: format!("membership proposal from {from} to non-member"),
                },
                now,
            );
            return;
        }

        // ---- consistency checks ----
        let mut decision = Decision::accept();
        let mut misbehaviours = Vec::new();
        let mut track = true;
        let expected = change.legitimate_sponsor(rep);
        if expected != Some(p.sponsor) {
            misbehaviours.push(Misbehaviour::IllegitimateSponsor {
                claimed: p.sponsor.clone(),
                expected: expected.cloned().unwrap_or_else(|| PartyId::new("?")),
            });
            decision = Decision::reject("illegitimate sponsor");
        }
        if rep.has_seen_run(&run) {
            misbehaviours.push(Misbehaviour::ReplayedProposal { run });
            decision = Decision::reject("replayed membership proposal");
            track = false;
        }
        if p.group != rep.group {
            misbehaviours.push(Misbehaviour::GroupIdMismatch {
                theirs: p.group,
                ours: rep.group,
            });
            if decision.is_accept() {
                decision = Decision::reject("inconsistent group identifier");
            }
        }
        if p.agreed != rep.agreed {
            misbehaviours.push(Misbehaviour::PredecessorMismatch {
                theirs: p.agreed,
                ours: rep.agreed,
            });
            if decision.is_accept() {
                decision = Decision::reject("inconsistent agreed state");
            }
        }
        // The proposed new group must be exactly our members after the
        // change.
        if !p.new_group.identifies(&change.new_members(&rep.members))
            || p.new_group.seq != rep.group.seq + 1
        {
            let detail = if change.connecting() {
                "proposed group does not match members + subject"
            } else {
                "proposed group does not match members - subjects"
            };
            misbehaviours.push(Misbehaviour::InconsistentDecide {
                run,
                detail: detail.into(),
            });
            if decision.is_accept() {
                decision = Decision::reject("inconsistent new group identifier");
            }
        }
        // The attached request must verify: the subject's own signature
        // shows it asked to join, or (for a voluntary disconnect) to leave
        // (§4.5.4).
        let (req_ok, claimed, reason) = match &change {
            MembershipChange::Connect {
                request, propose, ..
            } => (
                request.request.subject == propose.proposal.subject
                    && request.request.canonical_digest() == propose.proposal.request_digest
                    && self
                        .verify_for(
                            &request.request.subject,
                            &request.request.canonical_bytes(),
                            &request.sig,
                        )
                        .is_ok(),
                propose.proposal.subject.clone(),
                "subject request does not verify",
            ),
            MembershipChange::Disconnect {
                subjects,
                eviction,
                request,
                propose,
            } => {
                let req = &request.request;
                (
                    req.canonical_digest() == propose.proposal.request_digest
                        && req.subjects == *subjects
                        && req.eviction == *eviction
                        && (*eviction
                            || (req.subjects.len() == 1 && req.proposer == req.subjects[0]))
                        && self
                            .verify_for(&req.proposer, &req.canonical_bytes(), &request.sig)
                            .is_ok(),
                    req.proposer.clone(),
                    "attached request does not verify",
                )
            }
        };
        if !req_ok {
            misbehaviours.push(Misbehaviour::BadSignature {
                claimed,
                message: format!("attached {}-request", change.name()),
            });
            if decision.is_accept() {
                decision = Decision::reject(reason);
            }
        }
        if rep.active.is_some() {
            if decision.is_accept() {
                decision = Decision::reject("concurrent coordination run active");
            }
            track = false;
        }
        // Application policy. Only joins and evictions are vetoable:
        // "voluntary disconnection cannot be vetoed" (§4.5.4).
        if decision.is_accept() {
            let app = match &change {
                MembershipChange::Connect { subject, .. } => rep.object.validate_connect(subject),
                MembershipChange::Disconnect {
                    subjects,
                    eviction: true,
                    ..
                } => validate_eviction(rep.object.as_ref(), subjects),
                MembershipChange::Disconnect { .. } => Decision::accept(),
            };
            if !app.is_accept() {
                decision = app;
            }
        }

        self.respond_membership(run, decision, track, change, misbehaviours, ctx);
    }

    /// Signs and sends this member's response to a membership proposal,
    /// tracking the run unless it was refused outright.
    fn respond_membership(
        &mut self,
        run: RunId,
        decision: Decision,
        track: bool,
        change: MembershipChange,
        misbehaviours: Vec<Misbehaviour>,
        ctx: &mut NodeCtx,
    ) {
        let now = ctx.now();
        let me = self.me.clone();
        let ProposalFields {
            object,
            sponsor,
            signed,
            sig,
            ..
        } = change.proposal();
        let (oid, sponsor, propose_sig) = (object.clone(), sponsor.clone(), sig.clone());
        let propose_kind = change.evidence_kind(MemberStep::Propose);
        let respond_kind = change.evidence_kind(MemberStep::Respond);
        let Some(rep) = self.replicas.get_mut(&oid) else {
            return;
        };
        let response = MemberResponse {
            object: oid.clone(),
            responder: me.clone(),
            run,
            group: rep.group,
            agreed: rep.agreed,
            decision,
        };
        let sig = self.signer.sign(&response.canonical_bytes());
        let m = MemberRespondMsg { response, sig };
        if track {
            rep.start_run(ActiveRun::Member(MemberRun {
                run,
                change,
                my_response: m.clone(),
            }));
        } else {
            rep.note_seen(run, None);
        }
        self.log_evidence(
            propose_kind,
            &oid,
            &run.to_hex(),
            sponsor.clone(),
            signed,
            Some(propose_sig),
            now,
        );
        self.log_evidence(
            respond_kind,
            &oid,
            &run.to_hex(),
            me,
            m.response.canonical_bytes(),
            Some(m.sig.clone()),
            now,
        );
        for mis in misbehaviours {
            self.log_misbehaviour(&oid, &run.to_hex(), mis, now);
        }
        self.trace(now, "membership", "respond", || {
            format!(
                "object={oid} run={} decision={}",
                run.to_hex(),
                if m.response.decision.is_accept() {
                    "accept"
                } else {
                    "reject"
                }
            )
        });
        self.send_wire(&sponsor, &WireMsg::MemberRespond(m), ctx);
        self.persist(&oid);
    }

    pub(crate) fn on_member_respond(
        &mut self,
        from: &PartyId,
        msg: MemberRespondMsg,
        ctx: &mut NodeCtx,
    ) {
        let now = ctx.now();
        let oid = msg.response.object.clone();
        let run = msg.response.run;
        let mut kind = None;
        let collected = self.collect_vote(from, &msg, ctx, |rep| match &mut rep.active {
            Some(ActiveRun::Sponsor(sr)) if sr.run == run => {
                kind = Some(sr.change.evidence_kind(MemberStep::Respond));
                Some(Ballot {
                    echo: true,
                    responses: &mut sr.responses,
                    voters: &sr.polled,
                })
            }
            _ => None,
        });
        let misbehaviour = match collected {
            Collected::BadSignature => Some(Misbehaviour::BadSignature {
                claimed: msg.response.responder.clone(),
                message: "member-respond".into(),
            }),
            Collected::Ignored => None,
            Collected::UnknownRun => Some(Misbehaviour::UnexpectedMessage {
                detail: format!("membership response for unknown run from {from}"),
            }),
            Collected::Echo | Collected::Unexpected => Some(Misbehaviour::UnexpectedMessage {
                detail: format!("membership response from unpolled {from}"),
            }),
            Collected::Conflicting => Some(Misbehaviour::InconsistentDecide {
                run,
                detail: format!("conflicting membership responses from {from}"),
            }),
            Collected::Recorded { got, want } => {
                self.log_evidence(
                    kind.expect("recorded in a sponsor run"),
                    &oid,
                    &run.to_hex(),
                    from.clone(),
                    msg.response.canonical_bytes(),
                    Some(msg.sig.clone()),
                    now,
                );
                if got == want {
                    self.finalize_member_run(&oid, run, ctx);
                    return;
                }
                None
            }
        };
        if let Some(m) = misbehaviour {
            self.log_misbehaviour(&oid, &run.to_hex(), m, now);
        }
        self.persist(&oid);
    }

    fn finalize_member_run(&mut self, oid: &ObjectId, run: RunId, ctx: &mut NodeCtx) {
        let now = ctx.now();
        let me = self.me.clone();
        let Some(rep) = self.replicas.get_mut(oid) else {
            return;
        };
        let Some(ActiveRun::Sponsor(sr)) = rep.finish_run() else {
            return;
        };
        let responses: Vec<MemberRespondMsg> = sr.responses.values().cloned().collect();
        // Membership changes always require unanimity among polled members
        // (voluntary disconnection cannot be vetoed, which the member side
        // enforces by always accepting).
        let (accepted, vetoers) =
            tally::decide(DecisionRule::Unanimous, sr.polled.len() + 1, &responses);
        let connecting = sr.change.connecting();
        let decide = MemberDecideMsg {
            object: oid.clone(),
            run,
            authenticator: sr.authenticator,
            responses,
            connecting,
        };
        rep.remember_reply(
            run,
            WireMsg::MemberDecide(decide.clone()),
            COMPLETED_REPLIES_CAP,
        );

        let wire = WireMsg::MemberDecide(decide.clone());
        self.send_wire_all(&sr.polled, &wire, ctx);
        self.trace(now, "membership", "decide", || {
            format!(
                "object={oid} run={} connecting={connecting} accepted={accepted}",
                run.to_hex()
            )
        });
        self.log_evidence(
            sr.change.evidence_kind(MemberStep::Decide),
            oid,
            &run.to_hex(),
            me.clone(),
            decide.canonical_bytes(),
            None,
            now,
        );

        if accepted {
            self.conclude_member_run(&sr.change, sr.new_members, sr.new_group, decide, ctx);
        } else {
            self.outcomes.insert(run, Outcome::Invalidated { vetoers });
            match &sr.change {
                MembershipChange::Connect {
                    subject, request, ..
                } => {
                    let digest = request.request.canonical_digest();
                    self.send_connect_reject(oid, subject, digest, ctx);
                }
                // A voluntary leave cannot be vetoed, but the run can still
                // fail a consistency check at a polled member. Tell the
                // leaver, so its replica returns from `Leaving` to ordinary
                // membership instead of hanging until the application
                // intervenes. Evictees are not consulted and get nothing.
                MembershipChange::Disconnect {
                    subjects,
                    eviction: false,
                    request,
                    ..
                } => {
                    let digest = request.request.canonical_digest();
                    self.send_disconnect_reject(oid, &subjects[0], digest, ctx);
                }
                MembershipChange::Disconnect { .. } => {}
            }
            self.persist(oid);
        }
        self.pump_queue(oid, ctx);
    }

    pub(crate) fn on_member_decide(
        &mut self,
        from: &PartyId,
        msg: MemberDecideMsg,
        ctx: &mut NodeCtx,
    ) {
        let now = ctx.now();
        let oid = msg.object.clone();
        let run = msg.run;
        if self.outcomes.contains_key(&run) {
            return;
        }
        let Some(rep) = self.replicas.get(&oid) else {
            return;
        };
        let Some(ActiveRun::Member(mr)) = rep.active.clone() else {
            return;
        };
        if mr.run != run {
            return;
        }
        let change = &mr.change;
        let ProposalFields {
            sponsor,
            new_group,
            auth_commit,
            ..
        } = change.proposal();
        let expected_polled = change.polled(&rep.members, sponsor);
        let new_members = change.new_members(&rep.members);
        if from != sponsor {
            return;
        }
        if sha256(&msg.authenticator) != auth_commit {
            self.log_misbehaviour(
                &oid,
                &run.to_hex(),
                Misbehaviour::AuthenticatorMismatch { run },
                now,
            );
            return;
        }
        // Verify the aggregated responses.
        let set = tally::check_set(
            &msg.responses,
            run,
            &oid,
            &expected_polled,
            false,
            |_| true,
            |items| self.verify_batch_cached(items),
        );
        let mut fault = set
            .err()
            .map(|fault| fault.misbehaviour(run, "membership response"));
        if fault.is_none()
            && !msg
                .responses
                .iter()
                .any(|r| r.response.responder == self.me && r == &mr.my_response)
        {
            fault = Some(Misbehaviour::ResponseMisrepresented { run });
        }
        if let Some(f) = fault {
            self.log_misbehaviour(&oid, &run.to_hex(), f, now);
            return;
        }

        let (accepted, vetoers) = tally::decide(
            DecisionRule::Unanimous,
            expected_polled.len() + 1,
            &msg.responses,
        );
        self.log_evidence(
            change.evidence_kind(MemberStep::Decide),
            &oid,
            &run.to_hex(),
            sponsor.clone(),
            msg.canonical_bytes(),
            None,
            now,
        );
        if accepted {
            self.install_membership(&oid, run, new_members, new_group, change.leavers(), ctx);
        } else {
            if let Some(rep) = self.replicas.get_mut(&oid) {
                rep.finish_run();
            }
            self.outcomes.insert(run, Outcome::Invalidated { vetoers });
            self.persist(&oid);
        }
        self.pump_queue(&oid, ctx);
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
        rep.start_run(ActiveRun::Leaving(LeavingRun {
            request: msg.clone(),
            sponsor: sponsor.clone(),
        }));
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
            &digest.to_string(),
            self.me.clone(),
            msg.request.canonical_bytes(),
            Some(msg.sig.clone()),
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
                "",
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
                "",
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
                &request_digest.to_string(),
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
                &request_digest.to_string(),
                msg.request.proposer.clone(),
                msg.request.canonical_bytes(),
                Some(msg.sig.clone()),
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
        decide: MemberDecideMsg,
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
            &run.to_hex(),
            self.me.clone(),
            ack.canonical_bytes(),
            Some(sig.clone()),
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
                &run.to_hex(),
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
            &run.to_hex(),
            from.clone(),
            msg.ack.canonical_bytes(),
            Some(msg.sig.clone()),
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
        request_digest: b2b_crypto::Digest32,
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
            &request_digest.to_string(),
            self.me.clone(),
            reject.canonical_bytes(),
            Some(sig.clone()),
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
                &expected_digest.to_string(),
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
            &expected_digest.to_string(),
            from.clone(),
            msg.reject.canonical_bytes(),
            Some(msg.sig),
            now,
        );
        self.trace(now, "membership", "disconnect_rejected", || {
            format!("object={oid} sponsor={from} back-to-member")
        });
        self.persist(&oid);
    }

    /// Re-sends the outstanding proposal of a recovered sponsor run.
    pub(crate) fn resume_sponsor_run(&mut self, run: SponsorRun, ctx: &mut NodeCtx) {
        let pending: Vec<PartyId> = run
            .polled
            .iter()
            .filter(|p| !run.responses.contains_key(*p))
            .cloned()
            .collect();
        self.send_wire_all(&pending, &run.change.propose_wire(), ctx);
    }
}

/// The application's verdict on evicting `subjects`: the first rejection,
/// if any.
fn validate_eviction(object: &dyn B2BObject, subjects: &[PartyId]) -> Decision {
    subjects
        .iter()
        .map(|s| object.validate_disconnect(s, true))
        .find(|d| !d.is_accept())
        .unwrap_or_else(Decision::accept)
}
