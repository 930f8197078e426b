//! The connection and disconnection protocols (§4.5): sponsor-coordinated
//! membership changes with non-repudiable agreement on both the membership
//! of the group and the agreed object state.
//!
//! Roles: the **subject** (joining or leaving party) and the **sponsor** —
//! the most recently joined member, who relays the request to the current
//! membership, aggregates their signed decisions, and blocks new
//! coordination requests while one is pending (§4.5.1).

use crate::config::COMPLETED_REPLIES_CAP;
use crate::coordinator::{ConnectStatus, ObjectFactory, PendingConnect};
use crate::decision::{CoordEventKind, Decision, Outcome};
use crate::detect::Misbehaviour;
use crate::error::CoordError;
use crate::ids::{GroupId, ObjectId, RunId};
use crate::messages::{
    ConnectProposal, ConnectProposeMsg, ConnectReject, ConnectRejectMsg, ConnectRequest,
    ConnectRequestMsg, DisconnectAck, DisconnectAckMsg, DisconnectProposal, DisconnectProposeMsg,
    DisconnectReject, DisconnectRejectMsg, DisconnectRequest, DisconnectRequestMsg,
    MemberDecideMsg, MemberRespondMsg, MemberResponse, Welcome, WelcomeMsg, WireMsg,
};
use crate::replica::{
    ActiveRun, Doc, LeavingRun, MemberRun, MembershipChange, QueuedRequest, Replica, SponsorRun,
};
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
        self.begin_root(u64::from_be_bytes(
            msg.request.canonical_digest().as_bytes()[..8]
                .try_into()
                .expect("8 bytes"),
        ));
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
        let sponsor = match msg.welcome.members.len().checked_sub(2) {
            Some(i) => msg.welcome.members[i].clone(),
            None => {
                return;
            }
        };
        if from != &sponsor
            || self
                .verify_for(&sponsor, &msg.welcome.canonical_bytes(), &msg.sig)
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
        // consisting only of itself and us.
        let me = self.me.clone();
        let ok = msg.welcome.members.last() == Some(&me)
            && msg.welcome.group.identifies(&msg.welcome.members)
            && msg.welcome.agreed.identifies(&msg.state)
            && msg.welcome.members.contains(&contacted_sponsor);
        // Every *prior* member's signed response must be present (exactly
        // the member list minus the admitting sponsor and ourselves — a
        // vacuous or partial set would let a sponsor unilaterally admit),
        // must verify, accept, and assert the same agreed state tuple —
        // this is how the subject validates the membership and the state
        // it is handed (§4.5.3).
        let expected: std::collections::BTreeSet<&b2b_crypto::PartyId> = msg
            .welcome
            .members
            .iter()
            .filter(|m| **m != sponsor && **m != me)
            .collect();
        let mut seen_responders: std::collections::BTreeSet<&b2b_crypto::PartyId> =
            Default::default();
        let responses_ok = msg.decide.responses.iter().all(|r| {
            r.response.agreed == msg.welcome.agreed
                && r.response.decision.is_accept()
                && r.response.run == msg.welcome.run
                && expected.contains(&r.response.responder)
                && seen_responders.insert(&r.response.responder)
                && self
                    .verify_for(&r.response.responder, &r.response.canonical_bytes(), &r.sig)
                    .is_ok()
        }) && seen_responders.len() == expected.len();
        if !ok || !responses_ok {
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
        let _ = ctx;
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

    pub(crate) fn on_connect_request(
        &mut self,
        from: &PartyId,
        msg: ConnectRequestMsg,
        ctx: &mut NodeCtx,
    ) {
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
        self.sponsor_connect(from, msg, ctx);
    }

    /// Starts (or immediately answers) a connection request. Returns
    /// `true` if a polling run was started.
    pub(crate) fn sponsor_connect(
        &mut self,
        _from: &PartyId,
        msg: ConnectRequestMsg,
        ctx: &mut NodeCtx,
    ) -> bool {
        let now = ctx.now();
        let oid = msg.request.object.clone();
        let subject = msg.request.subject.clone();
        let me = self.me.clone();
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
        if rep.sponsor() != &me {
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

        let rep = self.replicas.get_mut(&oid).expect("checked above");
        let mut new_members = rep.members.clone();
        new_members.push(subject.clone());
        let new_group = GroupId {
            seq: rep.group.seq + 1,
            rand_hash: sha256(&self.rng.nonce()),
            members_hash: crate::ids::members_digest(&new_members),
        };
        let authenticator = self.rng.nonce();
        let proposal = ConnectProposal {
            object: oid.clone(),
            sponsor: me.clone(),
            request_digest,
            subject: subject.clone(),
            group: rep.group,
            new_group,
            agreed: rep.agreed,
            auth_commit: sha256(&authenticator),
        };
        let run = proposal.run_id();
        let sig = self.signer.sign(&proposal.canonical_bytes());
        let propose = ConnectProposeMsg {
            proposal,
            request: msg.clone(),
            sig,
        };
        let polled: Vec<PartyId> = rep.members.iter().filter(|m| **m != me).cloned().collect();

        if polled.is_empty() {
            // Singleton group: the sponsor's acceptance is the group's.
            rep.note_seen(run, None);
            let decide = MemberDecideMsg {
                object: oid.clone(),
                run,
                authenticator,
                responses: Vec::new(),
                connecting: true,
            };
            self.install_membership(&oid, run, new_members, new_group, &[], ctx);
            self.send_welcome(&oid, run, &subject, decide, ctx);
            return false;
        }

        let subject_label = subject.clone();
        rep.start_run(ActiveRun::Sponsor(SponsorRun {
            run,
            change: MembershipChange::Connect {
                subject,
                request: msg,
                propose: propose.clone(),
            },
            authenticator,
            new_members,
            new_group,
            polled: polled.clone(),
            responses: Default::default(),
            decided: None,
        }));
        self.log_evidence(
            EvidenceKind::ConnectPropose,
            &oid,
            &run.to_hex(),
            me,
            propose.proposal.canonical_bytes(),
            Some(propose.sig.clone()),
            now,
        );
        self.trace(now, "membership", "propose", || {
            format!(
                "object={oid} run={} change=connect subject={subject_label} polled={}",
                run.to_hex(),
                polled.len()
            )
        });
        let wire = WireMsg::ConnectPropose(propose);
        self.send_wire_all(&polled, &wire, ctx);
        self.persist(&oid);
        true
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

    pub(crate) fn on_connect_propose(
        &mut self,
        from: &PartyId,
        msg: ConnectProposeMsg,
        ctx: &mut NodeCtx,
    ) {
        let now = ctx.now();
        let oid = msg.proposal.object.clone();
        let run = msg.proposal.run_id();

        if from != &msg.proposal.sponsor
            || self
                .verify_for(
                    &msg.proposal.sponsor,
                    &msg.proposal.canonical_bytes(),
                    &msg.sig,
                )
                .is_err()
        {
            self.log_misbehaviour(
                &oid,
                &run.to_hex(),
                Misbehaviour::BadSignature {
                    claimed: msg.proposal.sponsor.clone(),
                    message: "connect-propose".into(),
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

        // ---- consistency checks ----
        let mut decision = Decision::accept();
        let mut misbehaviours = Vec::new();
        let mut track = true;
        if rep.sponsor() != &msg.proposal.sponsor {
            misbehaviours.push(Misbehaviour::IllegitimateSponsor {
                claimed: msg.proposal.sponsor.clone(),
                expected: rep.sponsor().clone(),
            });
            decision = Decision::reject("illegitimate sponsor");
        }
        if rep.has_seen_run(&run) {
            misbehaviours.push(Misbehaviour::ReplayedProposal { run });
            decision = Decision::reject("replayed membership proposal");
            track = false;
        }
        if msg.proposal.group != rep.group {
            misbehaviours.push(Misbehaviour::GroupIdMismatch {
                theirs: msg.proposal.group,
                ours: rep.group,
            });
            if decision.is_accept() {
                decision = Decision::reject("inconsistent group identifier");
            }
        }
        if msg.proposal.agreed != rep.agreed {
            misbehaviours.push(Misbehaviour::PredecessorMismatch {
                theirs: msg.proposal.agreed,
                ours: rep.agreed,
            });
            if decision.is_accept() {
                decision = Decision::reject("inconsistent agreed state");
            }
        }
        // The proposed new group must be exactly our members + subject.
        let mut expected_members = rep.members.clone();
        expected_members.push(msg.proposal.subject.clone());
        if !msg.proposal.new_group.identifies(&expected_members)
            || msg.proposal.new_group.seq != rep.group.seq + 1
        {
            misbehaviours.push(Misbehaviour::InconsistentDecide {
                run,
                detail: "proposed group does not match members + subject".into(),
            });
            if decision.is_accept() {
                decision = Decision::reject("inconsistent new group identifier");
            }
        }
        // The subject's own signed request must be attached and verify.
        let req_ok = msg.request.request.subject == msg.proposal.subject
            && msg.request.request.canonical_digest() == msg.proposal.request_digest
            && self
                .verify_for(
                    &msg.request.request.subject,
                    &msg.request.request.canonical_bytes(),
                    &msg.request.sig,
                )
                .is_ok();
        if !req_ok {
            misbehaviours.push(Misbehaviour::BadSignature {
                claimed: msg.proposal.subject.clone(),
                message: "attached connect-request".into(),
            });
            if decision.is_accept() {
                decision = Decision::reject("subject request does not verify");
            }
        }
        if rep.active.is_some() {
            if decision.is_accept() {
                decision = Decision::reject("concurrent coordination run active");
            }
            track = false;
        }
        if decision.is_accept() {
            let app = rep.object.validate_connect(&msg.proposal.subject);
            if !app.is_accept() {
                decision = app;
            }
        }

        self.respond_membership(
            &oid,
            run,
            msg.proposal.sponsor.clone(),
            decision,
            track,
            MembershipChange::Connect {
                subject: msg.proposal.subject.clone(),
                request: msg.request.clone(),
                propose: msg.clone(),
            },
            misbehaviours,
            EvidenceKind::ConnectPropose,
            msg.proposal.canonical_bytes(),
            Some(msg.sig.clone()),
            ctx,
        );
    }

    /// Shared respond path for connect/disconnect proposals at a member.
    #[allow(clippy::too_many_arguments)]
    fn respond_membership(
        &mut self,
        oid: &ObjectId,
        run: RunId,
        sponsor: PartyId,
        decision: Decision,
        track: bool,
        change: MembershipChange,
        misbehaviours: Vec<Misbehaviour>,
        propose_kind: EvidenceKind,
        propose_payload: Vec<u8>,
        propose_sig: Option<b2b_crypto::Signature>,
        ctx: &mut NodeCtx,
    ) {
        let now = ctx.now();
        let me = self.me.clone();
        let Some(rep) = self.replicas.get_mut(oid) else {
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
            oid,
            &run.to_hex(),
            sponsor.clone(),
            propose_payload,
            propose_sig,
            now,
        );
        let respond_kind = match propose_kind {
            EvidenceKind::ConnectPropose => EvidenceKind::ConnectRespond,
            _ => EvidenceKind::DisconnectRespond,
        };
        self.log_evidence(
            respond_kind,
            oid,
            &run.to_hex(),
            me,
            m.response.canonical_bytes(),
            Some(m.sig.clone()),
            now,
        );
        for mis in misbehaviours {
            self.log_misbehaviour(oid, &run.to_hex(), mis, now);
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
        self.persist(oid);
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
        if from != &msg.response.responder
            || self
                .verify_for(
                    &msg.response.responder,
                    &msg.response.canonical_bytes(),
                    &msg.sig,
                )
                .is_err()
        {
            self.log_misbehaviour(
                &oid,
                &run.to_hex(),
                Misbehaviour::BadSignature {
                    claimed: msg.response.responder.clone(),
                    message: "member-respond".into(),
                },
                now,
            );
            return;
        }
        if self.replay_completed_reply(&oid, &run, from, ctx) {
            return;
        }
        let Some(rep) = self.replicas.get_mut(&oid) else {
            return;
        };
        let mut finalize = false;
        let mut recorded = false;
        match &mut rep.active {
            Some(ActiveRun::Sponsor(sr)) if sr.run == run => {
                if !sr.polled.contains(from) {
                    let detail = format!("membership response from unpolled {from}");
                    self.log_misbehaviour(
                        &oid,
                        &run.to_hex(),
                        Misbehaviour::UnexpectedMessage { detail },
                        now,
                    );
                } else {
                    match sr.responses.get(from) {
                        Some(existing) if existing == &msg => {}
                        Some(_) => {
                            self.log_misbehaviour(
                                &oid,
                                &run.to_hex(),
                                Misbehaviour::InconsistentDecide {
                                    run,
                                    detail: format!("conflicting membership responses from {from}"),
                                },
                                now,
                            );
                        }
                        None => {
                            sr.responses.insert(from.clone(), msg.clone());
                            recorded = true;
                            let kind = match sr.change {
                                MembershipChange::Connect { .. } => EvidenceKind::ConnectRespond,
                                MembershipChange::Disconnect { .. } => {
                                    EvidenceKind::DisconnectRespond
                                }
                            };
                            if sr.responses.len() == sr.polled.len() {
                                finalize = true;
                            }
                            self.log_evidence(
                                kind,
                                &oid,
                                &run.to_hex(),
                                from.clone(),
                                msg.response.canonical_bytes(),
                                Some(msg.sig.clone()),
                                now,
                            );
                        }
                    }
                }
            }
            _ => {
                self.log_misbehaviour(
                    &oid,
                    &run.to_hex(),
                    Misbehaviour::UnexpectedMessage {
                        detail: format!("membership response for unknown run from {from}"),
                    },
                    now,
                );
            }
        }
        if recorded {
            if let Some(rep) = self.replicas.get_mut(&oid) {
                rep.mark_stale(Doc::Core);
            }
        }
        if finalize {
            self.finalize_member_run(&oid, run, ctx);
        } else {
            self.persist(&oid);
        }
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
        let vetoers: Vec<(PartyId, String)> = responses
            .iter()
            .filter(|r| !r.response.decision.is_accept())
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
        let accepted = vetoers.is_empty();
        let connecting = matches!(sr.change, MembershipChange::Connect { .. });
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

        let decide_kind = if connecting {
            EvidenceKind::ConnectDecide
        } else {
            EvidenceKind::DisconnectDecide
        };
        let wire = WireMsg::MemberDecide(decide.clone());
        self.send_wire_all(&sr.polled, &wire, ctx);
        self.trace(now, "membership", "decide", || {
            format!(
                "object={oid} run={} connecting={connecting} accepted={accepted}",
                run.to_hex()
            )
        });
        self.log_evidence(
            decide_kind,
            oid,
            &run.to_hex(),
            me.clone(),
            decide.canonical_bytes(),
            None,
            now,
        );

        match (&sr.change, accepted) {
            (MembershipChange::Connect { subject, .. }, true) => {
                let subject = subject.clone();
                self.install_membership(oid, run, sr.new_members, sr.new_group, &[], ctx);
                self.send_welcome(oid, run, &subject, decide, ctx);
            }
            (
                MembershipChange::Connect {
                    subject, request, ..
                },
                false,
            ) => {
                let subject = subject.clone();
                let digest = request.request.canonical_digest();
                self.outcomes.insert(run, Outcome::Invalidated { vetoers });
                self.send_connect_reject(oid, &subject, digest, ctx);
                self.persist(oid);
            }
            (
                MembershipChange::Disconnect {
                    subjects, eviction, ..
                },
                true,
            ) => {
                let subjects = subjects.clone();
                let eviction = *eviction;
                self.install_membership(oid, run, sr.new_members, sr.new_group, &subjects, ctx);
                if !eviction {
                    self.send_disconnect_ack(oid, run, &subjects[0], decide, ctx);
                }
            }
            (
                MembershipChange::Disconnect {
                    subjects,
                    eviction,
                    request,
                    ..
                },
                false,
            ) => {
                let subjects = subjects.clone();
                let eviction = *eviction;
                let digest = request.request.canonical_digest();
                self.outcomes.insert(run, Outcome::Invalidated { vetoers });
                // A voluntary leave cannot be vetoed, but the run can still
                // fail a consistency check at a polled member. Tell the
                // leaver, so its replica returns from `Leaving` to ordinary
                // membership instead of hanging until the application
                // intervenes. Evictees are not consulted and get nothing.
                if !eviction {
                    self.send_disconnect_reject(oid, &subjects[0], digest, ctx);
                }
                self.persist(oid);
            }
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
        let (sponsor, auth_commit, expected_polled, new_members, new_group, leavers) =
            match &mr.change {
                MembershipChange::Connect {
                    subject, propose, ..
                } => {
                    let mut nm = rep.members.clone();
                    nm.push(subject.clone());
                    (
                        propose.proposal.sponsor.clone(),
                        propose.proposal.auth_commit,
                        rep.recipients(&propose.proposal.sponsor),
                        nm,
                        propose.proposal.new_group,
                        Vec::new(),
                    )
                }
                MembershipChange::Disconnect {
                    subjects, propose, ..
                } => {
                    let nm: Vec<PartyId> = rep
                        .members
                        .iter()
                        .filter(|m| !subjects.contains(m))
                        .cloned()
                        .collect();
                    let polled: Vec<PartyId> = rep
                        .members
                        .iter()
                        .filter(|m| **m != propose.proposal.sponsor && !subjects.contains(m))
                        .cloned()
                        .collect();
                    (
                        propose.proposal.sponsor.clone(),
                        propose.proposal.auth_commit,
                        polled,
                        nm,
                        propose.proposal.new_group,
                        subjects.clone(),
                    )
                }
            };
        if from != &sponsor {
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
        let expected: std::collections::BTreeSet<&PartyId> = expected_polled.iter().collect();
        let mut seen: std::collections::BTreeSet<&PartyId> = Default::default();
        let mut fault = None;
        for r in &msg.responses {
            if r.response.run != run {
                fault = Some(Misbehaviour::InconsistentDecide {
                    run,
                    detail: "response for another run".into(),
                });
                break;
            }
            if self
                .verify_for(&r.response.responder, &r.response.canonical_bytes(), &r.sig)
                .is_err()
            {
                fault = Some(Misbehaviour::BadSignature {
                    claimed: r.response.responder.clone(),
                    message: "aggregated membership response".into(),
                });
                break;
            }
            if !expected.contains(&r.response.responder) || !seen.insert(&r.response.responder) {
                fault = Some(Misbehaviour::InconsistentDecide {
                    run,
                    detail: format!("unexpected or duplicate responder {}", r.response.responder),
                });
                break;
            }
        }
        if fault.is_none() && seen.len() != expected.len() {
            fault = Some(Misbehaviour::InconsistentDecide {
                run,
                detail: "membership response set incomplete".into(),
            });
        }
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

        let vetoers: Vec<(PartyId, String)> = msg
            .responses
            .iter()
            .filter(|r| !r.response.decision.is_accept())
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
        let decide_kind = if msg.connecting {
            EvidenceKind::ConnectDecide
        } else {
            EvidenceKind::DisconnectDecide
        };
        self.log_evidence(
            decide_kind,
            &oid,
            &run.to_hex(),
            sponsor,
            msg.canonical_bytes(),
            None,
            now,
        );
        if vetoers.is_empty() {
            self.install_membership(&oid, run, new_members, new_group, &leavers, ctx);
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
        let request = DisconnectRequest {
            object: object.clone(),
            proposer: me.clone(),
            subjects: vec![me.clone()],
            eviction: false,
            nonce_hash: sha256(&self.rng.nonce()),
        };
        let sig = self.signer.sign(&request.canonical_bytes());
        let msg = DisconnectRequestMsg { request, sig };
        // If the run is invalidated at the sponsor by a consistency
        // failure (voluntary leaves cannot be vetoed, but e.g. a group-id
        // mismatch or a concurrent run can fail it), the sponsor sends a
        // signed rejection and `on_disconnect_reject` returns this replica
        // to ordinary membership; the application may then retry. A leaver
        // may also simply cease cooperation (§4.5.4).
        rep.start_run(ActiveRun::Leaving(LeavingRun {
            request: msg.clone(),
            sponsor: sponsor.clone(),
        }));
        self.begin_root(u64::from_be_bytes(
            msg.request.canonical_digest().as_bytes()[..8]
                .try_into()
                .expect("8 bytes"),
        ));
        self.log_evidence(
            EvidenceKind::DisconnectRequest,
            object,
            &msg.request.canonical_digest().to_string(),
            me,
            msg.request.canonical_bytes(),
            Some(msg.sig.clone()),
            ctx.now(),
        );
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
        {
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
        }
        let request = DisconnectRequest {
            object: object.clone(),
            proposer: me.clone(),
            subjects: subjects.clone(),
            eviction: true,
            nonce_hash: sha256(&self.rng.nonce()),
        };
        let sig = self.signer.sign(&request.canonical_bytes());
        let msg = DisconnectRequestMsg { request, sig };
        self.begin_root(u64::from_be_bytes(
            msg.request.canonical_digest().as_bytes()[..8]
                .try_into()
                .expect("8 bytes"),
        ));
        self.log_evidence(
            EvidenceKind::DisconnectRequest,
            object,
            &msg.request.canonical_digest().to_string(),
            me.clone(),
            msg.request.canonical_bytes(),
            Some(msg.sig.clone()),
            ctx.now(),
        );
        let rep = self.replicas.get(object).expect("checked above");
        let sponsor = rep
            .sponsor_for_disconnect(&subjects)
            .expect("proposer remains")
            .clone();
        self.trace(ctx.now(), "membership", "evict_request", || {
            format!(
                "object={object} sponsor={sponsor} subjects={}",
                subjects.len()
            )
        });
        if sponsor == me {
            // §4.5.4: when the sponsor proposes the eviction, the request
            // step is omitted.
            self.sponsor_disconnect(&me.clone(), msg, ctx);
        } else {
            self.send_wire(&sponsor, &WireMsg::DisconnectRequest(msg), ctx);
        }
        self.end_episode();
        self.flush_evidence();
        Ok(())
    }

    pub(crate) fn on_disconnect_request(
        &mut self,
        from: &PartyId,
        msg: DisconnectRequestMsg,
        ctx: &mut NodeCtx,
    ) {
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
        self.sponsor_disconnect(from, msg, ctx);
    }

    /// Starts (or immediately resolves) a disconnection run at the
    /// sponsor. Returns `true` if a polling run was started.
    pub(crate) fn sponsor_disconnect(
        &mut self,
        _from: &PartyId,
        msg: DisconnectRequestMsg,
        ctx: &mut NodeCtx,
    ) -> bool {
        let now = ctx.now();
        let oid = msg.request.object.clone();
        let me = self.me.clone();
        let subjects = msg.request.subjects.clone();
        let eviction = msg.request.eviction;
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
        if rep.sponsor_for_disconnect(&subjects) != Some(&me) {
            if let Some(sponsor) = rep.sponsor_for_disconnect(&subjects).cloned() {
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
        if eviction {
            let mut local = Decision::accept();
            for s in &subjects {
                let d = rep.object.validate_disconnect(s, true);
                if !d.is_accept() {
                    local = d;
                    break;
                }
            }
            if !local.is_accept() {
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
        }

        let rep = self.replicas.get_mut(&oid).expect("checked above");
        let new_members: Vec<PartyId> = rep
            .members
            .iter()
            .filter(|m| !subjects.contains(m))
            .cloned()
            .collect();
        let new_group = GroupId {
            seq: rep.group.seq + 1,
            rand_hash: sha256(&self.rng.nonce()),
            members_hash: crate::ids::members_digest(&new_members),
        };
        let authenticator = self.rng.nonce();
        let proposal = DisconnectProposal {
            object: oid.clone(),
            sponsor: me.clone(),
            request_digest,
            subjects: subjects.clone(),
            eviction,
            group: rep.group,
            new_group,
            agreed: rep.agreed,
            auth_commit: sha256(&authenticator),
        };
        let run = proposal.run_id();
        let sig = self.signer.sign(&proposal.canonical_bytes());
        let propose = DisconnectProposeMsg {
            proposal,
            request: msg.clone(),
            sig,
        };
        let polled: Vec<PartyId> = rep
            .members
            .iter()
            .filter(|m| **m != me && !subjects.contains(m))
            .cloned()
            .collect();

        if polled.is_empty() {
            rep.note_seen(run, None);
            let decide = MemberDecideMsg {
                object: oid.clone(),
                run,
                authenticator,
                responses: Vec::new(),
                connecting: false,
            };
            self.install_membership(&oid, run, new_members, new_group, &subjects, ctx);
            if !eviction {
                self.send_disconnect_ack(&oid, run, &subjects[0], decide, ctx);
            }
            return false;
        }

        rep.start_run(ActiveRun::Sponsor(SponsorRun {
            run,
            change: MembershipChange::Disconnect {
                subjects,
                eviction,
                request: msg,
                propose: propose.clone(),
            },
            authenticator,
            new_members,
            new_group,
            polled: polled.clone(),
            responses: Default::default(),
            decided: None,
        }));
        self.log_evidence(
            EvidenceKind::DisconnectPropose,
            &oid,
            &run.to_hex(),
            me,
            propose.proposal.canonical_bytes(),
            Some(propose.sig.clone()),
            now,
        );
        self.trace(now, "membership", "propose", || {
            format!(
                "object={oid} run={} change=disconnect eviction={eviction} polled={}",
                run.to_hex(),
                polled.len()
            )
        });
        let wire = WireMsg::DisconnectPropose(propose);
        self.send_wire_all(&polled, &wire, ctx);
        self.persist(&oid);
        true
    }

    pub(crate) fn on_disconnect_propose(
        &mut self,
        from: &PartyId,
        msg: DisconnectProposeMsg,
        ctx: &mut NodeCtx,
    ) {
        let now = ctx.now();
        let oid = msg.proposal.object.clone();
        let run = msg.proposal.run_id();

        if from != &msg.proposal.sponsor
            || self
                .verify_for(
                    &msg.proposal.sponsor,
                    &msg.proposal.canonical_bytes(),
                    &msg.sig,
                )
                .is_err()
        {
            self.log_misbehaviour(
                &oid,
                &run.to_hex(),
                Misbehaviour::BadSignature {
                    claimed: msg.proposal.sponsor.clone(),
                    message: "disconnect-propose".into(),
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

        let mut decision = Decision::accept();
        let mut misbehaviours = Vec::new();
        let mut track = true;
        let subjects = msg.proposal.subjects.clone();
        let eviction = msg.proposal.eviction;

        if rep.sponsor_for_disconnect(&subjects) != Some(&msg.proposal.sponsor) {
            misbehaviours.push(Misbehaviour::IllegitimateSponsor {
                claimed: msg.proposal.sponsor.clone(),
                expected: rep
                    .sponsor_for_disconnect(&subjects)
                    .cloned()
                    .unwrap_or_else(|| PartyId::new("?")),
            });
            decision = Decision::reject("illegitimate sponsor");
        }
        if rep.has_seen_run(&run) {
            misbehaviours.push(Misbehaviour::ReplayedProposal { run });
            decision = Decision::reject("replayed membership proposal");
            track = false;
        }
        if msg.proposal.group != rep.group {
            misbehaviours.push(Misbehaviour::GroupIdMismatch {
                theirs: msg.proposal.group,
                ours: rep.group,
            });
            if decision.is_accept() {
                decision = Decision::reject("inconsistent group identifier");
            }
        }
        if msg.proposal.agreed != rep.agreed {
            misbehaviours.push(Misbehaviour::PredecessorMismatch {
                theirs: msg.proposal.agreed,
                ours: rep.agreed,
            });
            if decision.is_accept() {
                decision = Decision::reject("inconsistent agreed state");
            }
        }
        let expected_members: Vec<PartyId> = rep
            .members
            .iter()
            .filter(|m| !subjects.contains(m))
            .cloned()
            .collect();
        if !msg.proposal.new_group.identifies(&expected_members)
            || msg.proposal.new_group.seq != rep.group.seq + 1
        {
            misbehaviours.push(Misbehaviour::InconsistentDecide {
                run,
                detail: "proposed group does not match members - subjects".into(),
            });
            if decision.is_accept() {
                decision = Decision::reject("inconsistent new group identifier");
            }
        }
        // Attached request: for voluntary disconnects, the subject's own
        // signature proves the subject initiated it (§4.5.4).
        let req = &msg.request.request;
        let req_ok = req.canonical_digest() == msg.proposal.request_digest
            && req.subjects == subjects
            && req.eviction == eviction
            && (eviction || (req.subjects.len() == 1 && req.proposer == req.subjects[0]))
            && self
                .verify_for(&req.proposer, &req.canonical_bytes(), &msg.request.sig)
                .is_ok();
        if !req_ok {
            misbehaviours.push(Misbehaviour::BadSignature {
                claimed: req.proposer.clone(),
                message: "attached disconnect-request".into(),
            });
            if decision.is_accept() {
                decision = Decision::reject("attached request does not verify");
            }
        }
        if rep.active.is_some() {
            if decision.is_accept() {
                decision = Decision::reject("concurrent coordination run active");
            }
            track = false;
        }
        // Application policy: only evictions are vetoable; "voluntary
        // disconnection cannot be vetoed" (§4.5.4) so the upcall result is
        // advisory there.
        if decision.is_accept() && eviction {
            for s in &subjects {
                let d = rep.object.validate_disconnect(s, true);
                if !d.is_accept() {
                    decision = d;
                    break;
                }
            }
        }

        self.respond_membership(
            &oid,
            run,
            msg.proposal.sponsor.clone(),
            decision,
            track,
            MembershipChange::Disconnect {
                subjects,
                eviction,
                request: msg.request.clone(),
                propose: msg.clone(),
            },
            misbehaviours,
            EvidenceKind::DisconnectPropose,
            msg.proposal.canonical_bytes(),
            Some(msg.sig.clone()),
            ctx,
        );
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
    pub(crate) fn resume_sponsor_run(
        &mut self,
        object: &ObjectId,
        run: SponsorRun,
        ctx: &mut NodeCtx,
    ) {
        let wire = match &run.change {
            MembershipChange::Connect { propose, .. } => WireMsg::ConnectPropose(propose.clone()),
            MembershipChange::Disconnect { propose, .. } => {
                WireMsg::DisconnectPropose(propose.clone())
            }
        };
        let pending: Vec<PartyId> = run
            .polled
            .iter()
            .filter(|p| !run.responses.contains_key(*p))
            .cloned()
            .collect();
        self.send_wire_all(&pending, &wire, ctx);
        let _ = object;
    }
}
