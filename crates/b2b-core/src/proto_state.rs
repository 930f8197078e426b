//! The one coordination round (§4.3, §4.5).
//!
//! Three steps — `m1` propose, `m2` respond, `m3` decide — giving
//! "non-repudiable two-phase commit" with richer semantics: the proposer is
//! committed at initiation, a transition is rejected only by veto, and the
//! final message is the group's non-repudiable decision, authenticated by
//! the reveal of `r_P` whose hash was committed in the proposal.
//!
//! The same round agrees on a state transition and on a membership change
//! (a connection or disconnection, proposed by its sponsor): one proposer
//! run, one recipient run and one handler per step serve both. What
//! differs is looked up on the proposal's kind — [`Rules`], the body and
//! application checks of [`Coordinator::on_propose`], and the install step
//! [`Coordinator::install`] — and DESIGN.md §14 tabulates it.

use crate::config::{DecisionRule, REPLAY_WINDOW};
use crate::coordinator::TicketId;
use crate::decision::{CoordEventKind, Decision, Outcome};
use crate::detect::Misbehaviour;
use crate::error::CoordError;
use crate::ids::{ObjectId, RunId, StateId};
use crate::messages::{
    BatchLink, DecideMsg, Proposal, ProposalKind, ProposeMsg, RespondMsg, Response, WireMsg,
};
use crate::object::B2BObject;
use crate::proto_member::validate_change;
use crate::replica::{seen_tuple, ActiveRun, ProposerRun, RecipientRun};
use crate::tally::{self, Ballot, Collected};
use crate::Coordinator;
use b2b_crypto::{sha256, CachedCanonical, CanonicalEncode, Digest32, PartyId, TimeMs};
use b2b_evidence::EvidenceKind;
use b2b_net::NodeCtx;
use b2b_telemetry::names;

impl Coordinator {
    // -----------------------------------------------------------------
    // Client operations (proposer side)
    // -----------------------------------------------------------------

    /// Proposes overwriting `object`'s state with `new_state` (§4.3).
    ///
    /// Returns the run label; in the simulator the caller then drives the
    /// network and polls [`Coordinator::outcome_of`], while the controller
    /// layers blocking/deferred/async semantics on top.
    ///
    /// Note that the proposal is *not* validated locally first: "the
    /// proposer is committed to acceptance of the new state at initiation
    /// of a protocol run" (§4.3) and validation is the recipients' job —
    /// which is exactly what lets a cheating party attempt an invalid
    /// change and be vetoed (Figure 5).
    ///
    /// # Errors
    ///
    /// [`CoordError::UnknownObject`], [`CoordError::NotMember`] or
    /// [`CoordError::Busy`].
    pub fn propose_overwrite(
        &mut self,
        object: &ObjectId,
        new_state: Vec<u8>,
        ctx: &mut NodeCtx,
    ) -> Result<RunId, CoordError> {
        let state_hash = sha256(&new_state);
        self.start_state_run(
            object,
            ProposalKind::Overwrite,
            new_state.clone(),
            new_state,
            state_hash,
            ctx,
        )
    }

    /// Proposes applying `update` to `object`'s state (§4.3.1): the update
    /// travels on the wire, while the signed proposal binds both `H(u_P)`
    /// and the hash of the successor state so recipients can check that a
    /// consistent new state will result.
    ///
    /// # Errors
    ///
    /// As [`Coordinator::propose_overwrite`], plus
    /// [`CoordError::UpdateFailed`] when the local object cannot apply the
    /// update.
    pub fn propose_update(
        &mut self,
        object: &ObjectId,
        update: Vec<u8>,
        ctx: &mut NodeCtx,
    ) -> Result<RunId, CoordError> {
        self.propose_update_batch(object, vec![update], ctx)
    }

    /// Proposes applying an ordered batch of updates to `object` in **one**
    /// signed state-coordination round: one canonical digest, one
    /// signature, one multicast, one evidence record covering the batch.
    ///
    /// The batch is a single state transition (`seq` advances by one), but
    /// the signed proposal carries a [`crate::messages::BatchLink`] per
    /// update — `H(u_i)` plus the hash of the state after applying updates
    /// `0..=i` — so recipients re-run every §4.2 check per update and a
    /// forged or stale update anywhere in the batch is detected and
    /// attributed to this proposer at its exact index. A batch of one is a
    /// plain update proposal ([`Coordinator::propose_update`]), byte for
    /// byte.
    ///
    /// # Errors
    ///
    /// As [`Coordinator::propose_update`]; an empty batch is
    /// [`CoordError::UpdateFailed`].
    pub fn propose_update_batch(
        &mut self,
        object: &ObjectId,
        updates: Vec<Vec<u8>>,
        ctx: &mut NodeCtx,
    ) -> Result<RunId, CoordError> {
        let rep = self
            .replicas
            .get(object)
            .ok_or_else(|| CoordError::UnknownObject(object.clone()))?;
        let (links, state) = chain_links(rep.object.as_ref(), &rep.agreed_state, &updates);
        let links = links
            .into_iter()
            .collect::<Result<Vec<_>, _>>()
            .map_err(CoordError::UpdateFailed)?;
        let Some(state) = state else {
            return Err(CoordError::UpdateFailed("empty update batch".into()));
        };
        self.propose_applied(object, updates, links, state, ctx)
    }

    /// Starts the round for `updates` that have already been applied in
    /// order to the agreed state: `links[i]` is update `i`'s signed link
    /// and `state` the state after the last. One update travels as a plain
    /// update proposal, several as a batch.
    pub(crate) fn propose_applied(
        &mut self,
        object: &ObjectId,
        mut updates: Vec<Vec<u8>>,
        links: Vec<BatchLink>,
        state: Vec<u8>,
        ctx: &mut NodeCtx,
    ) -> Result<RunId, CoordError> {
        let k = updates.len();
        debug_assert!(k > 0 && k == links.len());
        let state_hash = links[k - 1].state_hash;
        let (kind, body) = if k == 1 {
            let update_hash = links[0].update_hash;
            let update = updates.pop().expect("one update");
            (ProposalKind::Update { update_hash }, update)
        } else {
            let body = crate::messages::encode_batch_body(&updates);
            (ProposalKind::Batch { links }, body)
        };
        let run = self.start_state_run(object, kind, body, state, state_hash, ctx)?;
        self.telemetry.observe_ms(names::BATCH_OCCUPANCY, k as u64);
        if k > 1 {
            self.telemetry.add(names::ROUNDS_COALESCED, (k - 1) as u64);
        }
        Ok(run)
    }

    fn start_state_run(
        &mut self,
        object: &ObjectId,
        kind: ProposalKind,
        body: Vec<u8>,
        new_state: Vec<u8>,
        state_hash: Digest32,
        ctx: &mut NodeCtx,
    ) -> Result<RunId, CoordError> {
        let rep = self
            .replicas
            .get(object)
            .ok_or_else(|| CoordError::UnknownObject(object.clone()))?;
        if rep.detached || !rep.is_member(&self.me) {
            return Err(CoordError::NotMember {
                party: self.me.clone(),
                object: object.clone(),
            });
        }
        if rep.active.is_some() {
            return Err(CoordError::Busy {
                object: object.clone(),
            });
        }
        // Sequence number: exactly one past the agreed state. The paper
        // asks for "greater than any coordination request seen", but
        // deriving the next number from *seen* proposals lets a malicious
        // member poison it (one vetoed proposal carrying seq u64::MAX would
        // brick this party); the random-hash half of the tuple already
        // provides the disambiguation the paper wants, so a fixed increment
        // is both safe and sufficient — and recipients enforce the same
        // exact increment.
        let proposed = StateId {
            seq: rep.agreed.seq + 1,
            rand_hash: sha256(&self.rng.nonce()),
            state_hash,
        };
        let run = self.open_round(object, proposed, kind, body, new_state, ctx);
        self.end_episode();
        self.flush_evidence();
        Ok(run)
    }

    /// Opens a round on `object` proposing `proposed` by `kind`, with the
    /// unsigned `body`; `new_state` is what a state round installs. Signs
    /// the proposal and polls the members it names; with nobody to poll,
    /// the proposer's acceptance is the group's and the round ends at once.
    /// The caller has checked that this party may propose and is idle.
    pub(crate) fn open_round(
        &mut self,
        object: &ObjectId,
        proposed: StateId,
        kind: ProposalKind,
        body: Vec<u8>,
        new_state: Vec<u8>,
        ctx: &mut NodeCtx,
    ) -> RunId {
        let now = ctx.now();
        let authenticator = self.rng.nonce();
        let rep = &self.replicas[object];
        let proposal = Proposal {
            object: object.clone(),
            proposer: self.me.clone(),
            group: rep.group,
            prev: rep.agreed,
            proposed,
            auth_commit: sha256(&authenticator),
            kind,
        };
        let polled = proposal.polled(&rep.members);
        // Encode the signed part exactly once: the memo feeds the run
        // label, the signature, evidence logging and the wire fan-out.
        let memo = CachedCanonical::new();
        let (canonical, digest) = memo.get_or_encode(&proposal);
        let run = RunId(digest);
        let sig = self.sign_and_cache(&canonical, digest);
        let m1 = ProposeMsg {
            proposal,
            body,
            sig,
            memo,
        };
        let rules = rules(&m1.proposal.kind);
        let rep = self.replicas.get_mut(object).expect("checked above");
        rep.start_run(ActiveRun::Proposer(Box::new(ProposerRun {
            run,
            propose: m1.clone(),
            authenticator,
            new_state,
            responses: Default::default(),
        })));
        if !rules.membership {
            // A state round is a client operation of its own. The run id is
            // a digest of the signed proposal, so the first eight bytes make
            // a content-addressed root trace id: identical on every fabric,
            // never drawn from the rng. (A membership round continues the
            // trace of the request it serves.)
            self.begin_root(Coordinator::run_root(&run));
        }
        self.telemetry.inc(names::ROUNDS_STARTED);
        self.note_run_started(run, now);
        self.trace(now, rules.span, "propose", || {
            format!(
                "object={object} run={} seq={} peers={}",
                run.to_hex(),
                m1.proposal.proposed.seq,
                polled.len()
            )
        });
        if polled.is_empty() {
            // What the round installs reaches the checkpoint, as its active
            // run, before the record that installs it reaches the log.
            self.persist(object);
            self.end_unpolled(object, ctx);
            return run;
        }
        self.log_evidence(
            EvidenceKind::StatePropose,
            object,
            run.label(),
            self.me.clone(),
            &self.proposal_bytes_of(&m1),
            Some(&m1.sig),
            now,
        );
        self.send_wire_all(&polled, &WireMsg::Propose(m1), ctx);
        self.arm_deadline(object, run, ctx);
        self.persist(object);
        self.emit(object, run, CoordEventKind::Proposed, now);
        run
    }

    /// Ends the active round of `object`, which polls nobody: the
    /// proposer's acceptance is the group's, so logging the proposal
    /// installs it. A round whose checkpoint write failed is dropped
    /// unlogged. Recovery resumes here a round whose checkpoint landed and
    /// whose record did not.
    pub(crate) fn end_unpolled(&mut self, object: &ObjectId, ctx: &mut NodeCtx) {
        let Some(rep) = self.replicas.get_mut(object) else {
            return;
        };
        let durable = !rep.core_is_stale();
        let Some(ActiveRun::Proposer(mut pr)) = rep.finish_run() else {
            return;
        };
        let outcome = if durable {
            self.log_evidence(
                EvidenceKind::StatePropose,
                object,
                pr.run.label(),
                self.me.clone(),
                &self.proposal_bytes_of(&pr.propose),
                Some(&pr.propose.sig),
                ctx.now(),
            );
            let state = std::mem::take(&mut pr.new_state);
            self.install(object, &pr.propose, Some(state))
        } else {
            let reason = "checkpoint write failed".into();
            Outcome::Aborted { reason }
        };
        let pr = ActiveRun::Proposer(pr);
        self.conclude(object, pr, None, durable, Some(outcome), ctx);
    }

    /// The decision rule of a round ([`tally::rule_for`]).
    fn rule(&self, kind: &ProposalKind) -> DecisionRule {
        tally::rule_for(self.config.decision_rule, kind)
    }

    // -----------------------------------------------------------------
    // Recipient side
    // -----------------------------------------------------------------

    pub(crate) fn on_propose(&mut self, from: &PartyId, m1: ProposeMsg, ctx: &mut NodeCtx) {
        let now = ctx.now();
        let oid = m1.proposal.object.clone();
        let run = m1.run_id();
        let run_hex = run.0;
        let me = self.me.clone();

        // Unverifiable content earns no response — only a misbehaviour
        // record. (A forged message must not be able to extract evidence.)
        // The memo holds exactly the bytes the decoder read, so any tampered
        // wire byte is what gets verified — and rejected — here.
        let canonical = m1.proposal_bytes();
        if from != &m1.proposal.proposer
            || self
                .verify_cached(
                    &m1.proposal.proposer,
                    &canonical,
                    m1.proposal_digest(),
                    &m1.sig,
                )
                .is_err()
        {
            self.log_misbehaviour(
                &oid,
                run.label(),
                Misbehaviour::BadSignature {
                    claimed: m1.proposal.proposer.clone(),
                    message: "propose".into(),
                },
                now,
            );
            return;
        }

        // Duplicate of a completed run: replay the stored reply.
        if self.replay_completed_reply(&oid, &run, from, ctx) {
            return;
        }

        let Some(mut rep) = self.replicas.remove(&oid) else {
            self.log_misbehaviour(
                &oid,
                run.label(),
                Misbehaviour::UnexpectedMessage {
                    detail: format!("propose from {from} for unknown object"),
                },
                now,
            );
            return;
        };

        // Duplicate of the active run: re-send our response.
        if let Some(ActiveRun::Recipient(rr)) = &rep.active {
            if rr.run == run {
                let reply = WireMsg::Respond(rr.my_response.clone());
                self.replicas.insert(oid.clone(), rep);
                self.send_wire(from, &reply, ctx);
                return;
            }
        }

        // A party that has left the group (or was never in it) has no say
        // and signs nothing; nor does a non-member's proposal get a say. A
        // proposal that does not poll this party (it names it a subject) is
        // no round of this party's, and is not logged as one: in its own
        // history that record would install the change.
        if rep.detached
            || !rep.is_member(&me)
            || !rep.is_member(&m1.proposal.proposer)
            || !m1.proposal.polls(&me)
        {
            self.replicas.insert(oid.clone(), rep);
            self.log_misbehaviour(
                &oid,
                run.label(),
                Misbehaviour::UnexpectedMessage {
                    detail: format!("propose from non-member or to non-member ({from})"),
                },
                now,
            );
            return;
        }

        // ---- systematic consistency checks (§4.2 invariants, §4.4) ----
        let p = &m1.proposal;
        let rules = rules(&p.kind);
        let mut c = Checks {
            decision: Decision::accept(),
            misbehaviours: Vec::new(),
            track: true,
        };
        // `mutation` ablates individual checks below so the b2b-check
        // explorer can demonstrate each one is load-bearing; all flags are
        // false outside mutation-testing builds.
        let mutation = self.config.mutation;
        // Only the most recently joined member (not itself leaving) may
        // sponsor a membership change (§4.5.1); any member may propose a
        // state transition.
        let legitimate = match &p.kind {
            ProposalKind::Member { .. } => rep.sponsor_for(p.kind.leavers()),
            _ => Some(&p.proposer),
        };
        if legitimate != Some(&p.proposer) {
            let expected = legitimate.cloned().unwrap_or_else(|| PartyId::new("?"));
            let claimed = p.proposer.clone();
            c.refuse(
                Misbehaviour::IllegitimateSponsor { claimed, expected },
                "illegitimate sponsor",
            );
        }
        let tuple = seen_tuple(&m1.proposal);
        if !mutation.skip_replay && rep.has_seen_run(&run) {
            // Not the active run and not completed here ⇒ replay.
            c.refuse(Misbehaviour::ReplayedProposal { run }, "replayed proposal");
        }
        if !mutation.skip_replay
            && tuple.is_some_and(|t| rep.has_seen_tuple(&t))
            && !rep.has_seen_run(&run)
        {
            c.refuse(
                Misbehaviour::ReplayedProposal { run },
                "proposal tuple reused",
            );
        }
        if p.group != rep.group {
            let (theirs, ours) = (p.group, rep.group);
            c.refuse(
                Misbehaviour::GroupIdMismatch { theirs, ours },
                "inconsistent group identifier",
            );
        }
        if !mutation.skip_predecessor && p.prev != rep.agreed {
            let (theirs, ours) = (p.prev, rep.agreed);
            c.refuse(
                Misbehaviour::PredecessorMismatch { theirs, ours },
                "predecessor is not the agreed state",
            );
        }
        match &p.kind {
            // A membership change keeps the agreed tuple and proposes a
            // group of exactly our members after the change.
            ProposalKind::Member { new_group, .. }
                if p.proposed != p.prev
                    || new_group.seq != rep.group.seq + 1
                    || !new_group.identifies(&p.kind.new_members(&rep.members)) =>
            {
                let detail = "proposed group does not match the membership change".into();
                c.refuse(
                    Misbehaviour::InconsistentDecide { run, detail },
                    "inconsistent new group identifier",
                );
            }
            ProposalKind::Member { .. } => {}
            // Exact increment: strictly stronger than the paper's "greater
            // than", and what honest proposers produce; anything else is a
            // replayed/poisoned sequence number.
            _ if !mutation.skip_sequence && p.proposed.seq != rep.agreed.seq + 1 => {
                let (proposed, agreed) = (p.proposed.seq, rep.agreed.seq);
                c.refuse(
                    Misbehaviour::SequenceNotGreater { proposed, agreed },
                    "sequence number is not agreed + 1",
                );
            }
            _ => {}
        }
        if rep.active.is_some() {
            // Concurrency control: one run at a time per object. Not
            // misbehaviour — the proposer simply retries after the active
            // run completes.
            c.reject("concurrent coordination run active");
            c.track = false;
        }

        // ---- unsigned-body integrity (Dolev-Yao tampering, §4.4) ----
        let proposed_hash = p.proposed.state_hash;
        // The application's verdict on an intact update chain is asked for
        // only while nothing has rejected the proposal yet; it is applied
        // below, after the null-transition check.
        let validate = c.decision.is_accept().then_some(&p.proposer);
        let Replay {
            state: pending_state,
            tampered,
            reject,
            misbehaviour,
            veto,
        } = match &p.kind {
            ProposalKind::Overwrite if sha256(&m1.body) == proposed_hash => Replay {
                state: Some(m1.body.clone()),
                ..Replay::default()
            },
            // A single update is a batch of one, its link the signed
            // update hash and proposed state hash.
            ProposalKind::Update { update_hash } => replay_updates(
                rep.object.as_ref(),
                validate,
                &rep.agreed_state,
                std::slice::from_ref(&m1.body),
                &[BatchLink {
                    update_hash: *update_hash,
                    state_hash: proposed_hash,
                }],
                None,
                true,
                &proposed_hash,
            ),
            // `skip_batch_chain` ablates the chain checks only — the
            // batch still replays, so the mutation lets a forged batch
            // through to installation where the b2b-check state-hash
            // oracle catches it.
            ProposalKind::Batch { links } => match crate::messages::decode_batch_body(&m1.body) {
                Some(updates) if !updates.is_empty() && updates.len() == links.len() => {
                    replay_updates(
                        rep.object.as_ref(),
                        validate,
                        &rep.agreed_state,
                        &updates,
                        links,
                        Some(run),
                        !mutation.skip_batch_chain,
                        &proposed_hash,
                    )
                }
                // Malformed framing or a link-count mismatch is
                // tampering with the unsigned body.
                _ => Replay {
                    tampered: true,
                    ..Replay::default()
                },
            },
            ProposalKind::Member { .. } => Replay {
                tampered: !self.request_ok(p, &m1.body),
                ..Replay::default()
            },
            // An overwrite whose body does not hash to the proposed state.
            ProposalKind::Overwrite => Replay {
                tampered: true,
                ..Replay::default()
            },
        };
        if let Some(reason) = reject {
            c.reject(reason);
        }
        c.misbehaviours.extend(misbehaviour);
        if tampered {
            // An incoherent proposal (like the invariant failures above)
            // is rejected without holding the object: tracking it would
            // let a single bogus signed m1 lock the replica until a
            // decide that may never come. Genuine runs that fail only
            // application validation still track and await m3.
            c.refuse(
                Misbehaviour::BodyHashMismatch { run },
                "body does not match signed hashes",
            );
        }

        // ---- null transition (§4.4); a membership change keeps the state ----
        if !rules.membership && p.proposed.state_hash == rep.agreed.state_hash {
            c.misbehaviours.push(Misbehaviour::NullTransition { run });
            c.reject("null state transition");
        }

        // ---- application validation upcall ----
        if c.decision.is_accept() {
            let app = match &p.kind {
                ProposalKind::Overwrite => {
                    rep.object
                        .validate_state(&p.proposer, &rep.agreed_state, &m1.body)
                }
                ProposalKind::Update { .. } | ProposalKind::Batch { .. } => {
                    veto.unwrap_or_else(Decision::accept)
                }
                ProposalKind::Member {
                    requester, change, ..
                } => validate_change(rep.object.as_ref(), requester, change),
            };
            if !app.is_accept() {
                c.decision = app;
            }
        }

        // `pending_state` survives a local veto: it records the successor
        // state *if the body is intact*, so that under the §7 majority
        // extension an outvoted recipient can still follow the group
        // decision. Under the unanimous rule a veto precludes installation
        // anyway, so keeping it is harmless there.
        debug_assert!(rules.membership || !c.decision.is_accept() || pending_state.is_some());

        // ---- respond ----
        let response = Response {
            object: oid.clone(),
            responder: me.clone(),
            group: rep.group,
            run,
            prev: rep.agreed,
            proposed: p.proposed,
            body_ok: !tampered,
            decision: c.decision.clone(),
        };
        // Seeding the verification cache with our own signature means that
        // when this response comes back aggregated inside the m3, checking
        // it is a cache hit rather than a self re-verification.
        let memo = CachedCanonical::new();
        let (resp_canonical, resp_digest) = memo.get_or_encode(&response);
        let sig = self.sign_and_cache(&resp_canonical, resp_digest);
        let m2 = RespondMsg {
            response,
            sig,
            memo,
        };

        let proposer = p.proposer.clone();
        self.log_evidence(
            EvidenceKind::StatePropose,
            &oid,
            run.label(),
            proposer.clone(),
            &self.proposal_bytes_of(&m1),
            Some(&m1.sig),
            now,
        );
        let responded = self.log_evidence(
            EvidenceKind::StateRespond,
            &oid,
            run.label(),
            me,
            &self.response_bytes_of(&m2),
            Some(&m2.sig),
            now,
        );
        if c.track {
            rep.start_run(ActiveRun::Recipient(Box::new(RecipientRun {
                run,
                propose: m1.clone(),
                my_response: m2.clone(),
                responded,
                pending_state,
            })));
        } else {
            rep.note_seen(run, tuple);
        }
        self.replicas.insert(oid.clone(), rep);
        if c.track && self.config.ttp.is_some() {
            self.arm_deadline(&oid, run, ctx);
        }
        for m in c.misbehaviours {
            self.log_misbehaviour(&oid, run.label(), m, now);
        }
        if c.track {
            // A recipient's round begins when it starts tracking the
            // proposal, so fleet-wide `rounds_started` bounds
            // `rounds_committed + rounds_aborted`.
            self.telemetry.inc(names::ROUNDS_STARTED);
            self.note_run_started(run, now);
        }
        self.trace(now, rules.span, "respond", || {
            format!(
                "object={oid} run={run_hex} decision={}",
                if c.decision.is_accept() {
                    "accept"
                } else {
                    "reject"
                }
            )
        });
        self.send_wire(&proposer, &WireMsg::Respond(m2), ctx);
        self.persist(&oid);
    }

    // -----------------------------------------------------------------
    // Proposer side: collecting responses
    // -----------------------------------------------------------------

    pub(crate) fn on_respond(&mut self, from: &PartyId, m2: RespondMsg, ctx: &mut NodeCtx) {
        let now = ctx.now();
        let oid = m2.response.object.clone();
        let run = m2.response.run;
        let run_hex = run.0;

        // The signed response must echo the actual proposal: one that names
        // another tuple under this run id is internally inconsistent and
        // would weaken what the aggregated evidence proves (§4.4). It is
        // recorded as misbehaviour and not counted; the run blocks until
        // the deadline/TTP path resolves it. A response that reaches no
        // proposer run is refused and traced as a state round's.
        let mut kind_rules = rules(&ProposalKind::Overwrite);
        let collected = self.collect_vote(from, &m2, ctx, |rep| match &mut rep.active {
            Some(ActiveRun::Proposer(pr)) if pr.run == run => {
                kind_rules = rules(&pr.propose.proposal.kind);
                Some(Ballot {
                    echo: m2.response.proposed == pr.propose.proposal.proposed,
                    voters: pr.propose.proposal.polled(&rep.members),
                    responses: &mut pr.responses,
                })
            }
            _ => None,
        });
        let misbehaviour = match collected {
            Collected::BadSignature => {
                self.telemetry.inc(names::VOTES_INVALID);
                self.trace(now, kind_rules.span, "vote_collect", || {
                    format!("object={oid} run={run_hex} from={from} vote=invalid_sig")
                });
                Some(Misbehaviour::BadSignature {
                    claimed: m2.response.responder.clone(),
                    message: "respond".into(),
                })
            }
            // A duplicate, or a late response for a completed run, which
            // had the decide re-sent.
            Collected::Ignored => None,
            Collected::UnknownRun => Some(Misbehaviour::UnexpectedMessage {
                detail: format!("response for unknown run from {from}"),
            }),
            Collected::Echo => Some(Misbehaviour::InconsistentDecide {
                run,
                detail: format!("response from {from} echoes a different object/tuple"),
            }),
            Collected::Unexpected => Some(Misbehaviour::UnexpectedMessage {
                detail: format!("response from unpolled party {from}"),
            }),
            // Two different signed responses to one run: irrefutable
            // evidence of misbehaviour.
            Collected::Conflicting => Some(Misbehaviour::InconsistentDecide {
                run,
                detail: format!("conflicting signed responses from {from}"),
            }),
            Collected::Recorded { got, want } => {
                self.telemetry.inc(names::VOTES_VALID);
                self.trace(now, kind_rules.span, "vote_collect", || {
                    format!(
                        "object={oid} run={run_hex} from={from} verdict={:?} {got}/{want}",
                        m2.response.decision.verdict
                    )
                });
                self.log_evidence(
                    EvidenceKind::StateRespond,
                    &oid,
                    run.label(),
                    from.clone(),
                    &self.response_bytes_of(&m2),
                    Some(&m2.sig),
                    now,
                );
                self.events.push(crate::decision::CoordEvent {
                    object: oid.clone(),
                    run,
                    event: CoordEventKind::ResponseReceived {
                        from: from.clone(),
                        verdict: m2.response.decision.verdict,
                    },
                    at: now,
                });
                if got == want {
                    self.finalize(&oid, run, ctx);
                    return;
                }
                None
            }
        };
        if let Some(m) = misbehaviour {
            self.log_misbehaviour(&oid, run.label(), m, now);
        }
        self.persist(&oid);
    }

    /// Computes the group decision, sends `m3`, installs or rolls back.
    /// An incomplete set under the unanimous rule means the run's deadline
    /// passed on the responses in hand: it can never commit, so the round
    /// aborts — and the decide tells every polled member so, the set
    /// naming by omission who did not answer.
    pub(crate) fn finalize(&mut self, oid: &ObjectId, run: RunId, ctx: &mut NodeCtx) {
        let now = ctx.now();
        let run_hex = run.0;
        let Some(rep) = self.replicas.get_mut(oid) else {
            return;
        };
        let Some(ActiveRun::Proposer(mut pr)) = rep.finish_run() else {
            return;
        };
        let polled = rep.members.iter().filter(|m| pr.propose.proposal.polls(m));
        let polled = polled.count();
        let kind = &pr.propose.proposal.kind;
        let rules = rules(kind);
        let responses: Vec<RespondMsg> = std::mem::take(&mut pr.responses).into_values().collect();
        let rule = self.rule(kind);
        let (accepted, vetoers) = tally::decide(rule, polled + 1, &responses);
        let expired = rule == DecisionRule::Unanimous && responses.len() < polled;
        let decide = DecideMsg {
            object: oid.clone(),
            run,
            authenticator: pr.authenticator,
            responses,
        };
        let outcome = if accepted {
            let state = std::mem::take(&mut pr.new_state);
            self.install(oid, &pr.propose, Some(state))
        } else {
            // The proposer's working state rolls back to the agreed state;
            // the engine never installed the proposed state, so rollback is
            // re-asserting the agreed checkpoint.
            if let Some(rep) = self.replicas.get_mut(oid) {
                rep.object.apply_state(&rep.agreed_state);
            }
            if expired {
                Outcome::Aborted {
                    reason: DEADLINE_EXPIRED.into(),
                }
            } else {
                Outcome::Invalidated { vetoers }
            }
        };
        self.trace(now, rules.span, "decide", || {
            format!(
                "object={oid} run={run_hex} accepted={accepted} responses={}",
                decide.responses.len()
            )
        });
        let record = self.log_evidence(
            EvidenceKind::StateDecide,
            oid,
            run.label(),
            self.me.clone(),
            &decide.canonical_bytes(),
            None,
            now,
        );
        let requeue = self.requeue_contended(run, &pr.propose, &outcome);
        let pr = ActiveRun::Proposer(pr);
        self.conclude(
            oid,
            pr,
            Some((decide, record)),
            accepted,
            Some(outcome),
            ctx,
        );
        if !requeue.is_empty() {
            self.telemetry.inc(names::ROUNDS_RETRIED);
            let p = self.pending_updates.entry(oid.clone()).or_default();
            let mut rest = std::mem::take(&mut p.queue);
            p.queue = requeue;
            p.queue.append(&mut rest);
            self.arm_retry_holdoff(oid, ctx);
        }
        self.pump_queue(oid, ctx);
    }

    /// The end of a round at this party once the record that decides it is
    /// logged (`decide`, with that record's sequence number in our log):
    /// the re-reply it leaves — a proposer's decide record, the decide also
    /// sent to the members it polled, or a recipient's own response record
    /// — then the round's close with its `outcome`, and a sponsor's answer
    /// to the change's subject, `accepted` or not; without a decide the
    /// answer carries the responses in hand. Recovery finishes here, with
    /// no `outcome`, a round the log ended after the checkpoint's last
    /// write: the round closed before the crash, so only its checkpoint is
    /// written again.
    pub(crate) fn conclude(
        &mut self,
        oid: &ObjectId,
        run: ActiveRun,
        decide: Option<(DecideMsg, Option<u64>)>,
        accepted: bool,
        outcome: Option<Outcome>,
        ctx: &mut NodeCtx,
    ) {
        let (run, m1, answer) = match run {
            ActiveRun::Proposer(pr) => {
                let decide = match decide {
                    Some((decide, record)) => {
                        self.remember_reply(oid, pr.run, record);
                        let m3 = WireMsg::Decide(decide);
                        let polled = pr.propose.proposal.polled(&self.replicas[oid].members);
                        self.send_wire_all(&polled, &m3, ctx);
                        let WireMsg::Decide(decide) = m3 else {
                            unreachable!("built above")
                        };
                        decide
                    }
                    None => DecideMsg {
                        object: oid.clone(),
                        run: pr.run,
                        authenticator: pr.authenticator,
                        responses: pr.responses.into_values().collect(),
                    },
                };
                (pr.run, pr.propose, Some(decide))
            }
            ActiveRun::Recipient(rr) => {
                if decide.is_some() {
                    self.remember_reply(oid, rr.run, rr.responded);
                }
                (rr.run, rr.propose, None)
            }
            ActiveRun::Leaving(_) => return self.persist(oid),
        };
        let kind = &m1.proposal.kind;
        match outcome {
            Some(outcome) => self.close_round(oid, run, kind, outcome, ctx.now()),
            None => self.persist(oid),
        }
        if let Some(decide) = answer {
            self.answer_subject(oid, run, kind, accepted, decide, ctx);
        }
    }

    /// §3.3 "the proposer simply retries": an update round rejected purely
    /// by the group's concurrency control — every veto reason systematic (a
    /// peer was mid-round, or an install won the race for this sequence
    /// number), none an application judgement — requeues its updates,
    /// returned here, at the head of the pending queue. The next flush
    /// re-derives them against the new agreed state (the object's
    /// `apply_update`), after a jittered holdoff so the colliding proposers
    /// desynchronise. Overwrites are excluded: an overwrite asserts an exact
    /// predecessor, so replaying it against a different one would change
    /// its meaning; so are membership changes, which carry no updates.
    fn requeue_contended(
        &mut self,
        run: RunId,
        m1: &ProposeMsg,
        outcome: &Outcome,
    ) -> Vec<(TicketId, Vec<u8>)> {
        use crate::coordinator::TicketState;
        let mut requeue = Vec::new();
        // The tickets this run carries, in batch order.
        let tids = match self
            .pending_updates
            .get_mut(&m1.proposal.object)
            .and_then(|p| p.carried.take())
        {
            Some((carrier, tids)) if carrier == run => tids,
            _ => return requeue,
        };
        if let (true, Some(cold)) = (outcome.is_installed(), self.cold.as_deref_mut()) {
            // The contended updates made it in: drop their retry counters.
            for tid in &tids {
                cold.transient_retry.remove(tid);
            }
        }
        let Outcome::Invalidated { vetoers } = outcome else {
            return requeue;
        };
        if vetoers.is_empty()
            || !vetoers
                .iter()
                .all(|(_, r)| crate::coordinator::is_transient_reject(r))
        {
            return requeue;
        }
        let updates: Vec<Vec<u8>> = match &m1.proposal.kind {
            ProposalKind::Update { .. } => vec![m1.body.clone()],
            ProposalKind::Batch { .. } => {
                crate::messages::decode_batch_body(&m1.body).unwrap_or_default()
            }
            _ => return requeue,
        };
        if tids.len() != updates.len() {
            return requeue;
        }
        let reason = vetoers.first().map(|(_, r)| r.clone()).unwrap_or_default();
        for (tid, u) in tids.into_iter().zip(updates) {
            let retries = &mut self.cold_mut().transient_retry;
            let n = retries.entry(tid).or_insert(0);
            *n += 1;
            if *n > crate::coordinator::MAX_TRANSIENT_RETRIES {
                retries.remove(&tid);
                let failed = format!("contention retries exhausted: {reason}");
                self.set_ticket(tid, TicketState::Failed(failed));
            } else {
                self.set_ticket(tid, TicketState::Queued);
                requeue.push((tid, u));
            }
        }
        requeue
    }

    // -----------------------------------------------------------------
    // Recipient side: the decide
    // -----------------------------------------------------------------

    pub(crate) fn on_decide(&mut self, from: &PartyId, m3: DecideMsg, ctx: &mut NodeCtx) {
        let now = ctx.now();
        let oid = m3.object.clone();
        let run = m3.run;

        if self.outcomes.contains_key(&run) {
            return; // duplicate decide
        }
        let checked = {
            let Some(rep) = self.replicas.get(&oid) else {
                return;
            };
            // A decide for a run we rejected while busy (we kept no run
            // state) or never saw, or one its proposer did not send:
            // ignore — installing anything on the basis of an unexpected
            // decide would be unsafe.
            let rr = match &rep.active {
                Some(ActiveRun::Recipient(rr))
                    if rr.run == run && &rr.propose.proposal.proposer == from =>
                {
                    rr
                }
                _ => return,
            };
            let p = &rr.propose.proposal;
            self.check_decide(&m3, p, &rr.my_response, &p.polled(&rep.members))
        };
        let verdict = match checked {
            DecideCheck::Decided(true, _) => Ok(()),
            DecideCheck::Decided(false, vetoers) => Err(Outcome::Invalidated { vetoers }),
            DecideCheck::Aborted => Err(Outcome::Aborted {
                reason: DEADLINE_EXPIRED.into(),
            }),
            // Fail-safe abort: evidence is logged; the replica keeps its
            // agreed state. The run stays active awaiting a consistent
            // decide (or extra-protocol resolution).
            DecideCheck::Refuted(m) => {
                self.log_misbehaviour(&oid, run.label(), m, now);
                return;
            }
            DecideCheck::Wait => return,
        };
        let Some(ActiveRun::Recipient(mut rr)) =
            self.replicas.get_mut(&oid).and_then(|r| r.finish_run())
        else {
            unreachable!("matched above");
        };
        let outcome = match verdict {
            // Without a valid body (only under the majority extension, when
            // we ourselves vetoed for body reasons) a state round cannot
            // install here, and aborts locally.
            Ok(()) => self.install(&oid, &rr.propose, rr.pending_state.take()),
            Err(outcome) => outcome,
        };
        let record = self.log_evidence(
            EvidenceKind::StateDecide,
            &oid,
            run.label(),
            from.clone(),
            &m3.canonical_bytes(),
            None,
            now,
        );
        // Keep our signed response on file: if the proposer crashed and
        // re-sends m1 on recovery, we answer with the *same* response
        // instead of minting a conflicting signed rejection (which would
        // manufacture false evidence of equivocation against us, and false
        // replay evidence against the honest proposer).
        let (rr, accepted) = (ActiveRun::Recipient(rr), outcome.is_installed());
        self.conclude(&oid, rr, Some((m3, record)), accepted, Some(outcome), ctx);
        self.pump_queue(&oid, ctx);
    }

    /// A recipient's check of the decide `m3` of proposal `p`, in which it
    /// answered `mine` and expects a response from each of `polled`.
    fn check_decide(
        &self,
        m3: &DecideMsg,
        p: &Proposal,
        mine: &RespondMsg,
        polled: &[PartyId],
    ) -> DecideCheck {
        let run = m3.run;
        // ---- authenticator: only the proposer can reveal r_P ----
        if sha256(&m3.authenticator) != p.auth_commit {
            return DecideCheck::Refuted(Misbehaviour::AuthenticatorMismatch { run });
        }
        // ---- verify the aggregated responses ----
        // Under the base (unanimous) rule the response set must be
        // complete, except where an honest proposer sends a partial one:
        // its deadline abort when no TTP is configured (`on_run_deadline`),
        // which can never commit. With a TTP the proposer appeals instead,
        // so a partial set can only be an adversary's re-aggregation. The
        // §7 majority extension legitimately resolves state runs from a
        // partial set after the deadline.
        let rule = self.rule(&p.kind);
        let partial = rule == DecisionRule::Majority;
        let abortable = !partial && self.config.run_deadline.is_some() && self.config.ttp.is_none();
        // The verifier reads each response's memoized bytes; count those
        // reads as `response_bytes_of` does.
        let memo_hits = m3.responses.iter().filter(|r| r.memo.is_cached()).count();
        let set = tally::check_set(
            &m3.responses,
            run,
            &p.object,
            polled,
            partial || abortable,
            |r| r.response.proposed == p.proposed,
            |items| {
                self.telemetry
                    .add(names::CANONICAL_CACHE_HITS, memo_hits as u64);
                self.verify_batch_cached(items)
            },
        );
        if let Err(fault) = set {
            return DecideCheck::Refuted(fault.misbehaviour(run));
        }
        // Our own response, when included, must be byte-identical; a
        // complete set includes it.
        let me = &self.me;
        let complete = m3.responses.len() == polled.len();
        match m3.responses.iter().find(|r| &r.response.responder == me) {
            Some(r) if r == mine => {}
            None if !complete => {}
            _ => return DecideCheck::Refuted(Misbehaviour::ResponseMisrepresented { run }),
        }
        if !complete && abortable {
            return DecideCheck::Aborted;
        }
        let (accepted, vetoers) = tally::decide(rule, polled.len() + 1, &m3.responses);
        // Under the majority extension a *partial* response set may only
        // resolve the run by demonstrating the installing majority. A
        // partial veto-only set proves nothing (the missing responses
        // could be accepts) and, since the decide is unsigned and the
        // authenticator is public after the first m3, could be a
        // re-aggregation by the network adversary — keep waiting instead
        // of diverging from peers that saw the full set.
        if partial && !accepted && !complete {
            return DecideCheck::Wait;
        }
        DecideCheck::Decided(accepted, vetoers)
    }

    // -----------------------------------------------------------------
    // The end of a round: install, close
    // -----------------------------------------------------------------

    /// Installs what the group accepted in round `m1` at this party: the
    /// successor `state` of a state round (`None` when this party holds no
    /// valid body, which aborts it here), or the new group of a membership
    /// change. Returns the outcome.
    pub(crate) fn install(
        &mut self,
        oid: &ObjectId,
        m1: &ProposeMsg,
        state: Option<Vec<u8>>,
    ) -> Outcome {
        let rep = self
            .replicas
            .get_mut(oid)
            .expect("a round's replica outlives it");
        let p = &m1.proposal;
        match (&p.kind, state) {
            (ProposalKind::Member { new_group, .. }, _) => {
                rep.install_membership(p.kind.new_members(&rep.members), *new_group);
                self.telemetry.inc(names::MEMBERSHIP_CHANGES);
                Outcome::Installed { state: rep.agreed }
            }
            (_, Some(next)) => {
                rep.install_state(p.proposed, next, REPLAY_WINDOW);
                Outcome::Installed { state: p.proposed }
            }
            (_, None) => Outcome::Aborted {
                reason: "group accepted but no valid local body".into(),
            },
        }
    }

    /// The common end of `run` at this party once its `outcome` is known:
    /// the checkpoint evidence of an installed state, the counters and the
    /// trace, the checkpoint documents, and the outcome with its event — a
    /// membership change reports the new members.
    pub(crate) fn close_round(
        &mut self,
        oid: &ObjectId,
        run: RunId,
        kind: &ProposalKind,
        outcome: Outcome,
        now: TimeMs,
    ) {
        let rules = rules(kind);
        let run_hex = run.0;
        if !outcome.is_installed() {
            self.telemetry.inc(names::ROUNDS_ABORTED);
            self.trace(now, rules.span, "rollback", || {
                format!("object={oid} run={run_hex}")
            });
        } else {
            if !rules.membership {
                self.checkpoint_evidence(oid, run, now);
            }
            self.telemetry.inc(names::ROUNDS_COMMITTED);
            self.trace(now, rules.span, "install", || {
                format!("object={oid} run={run_hex}")
            });
        }
        self.observe_run_latency(&run, now);
        self.persist(oid);
        self.outcomes.insert(run, outcome.clone());
        let event = match self.replicas.get(oid) {
            Some(rep) if rules.membership && outcome.is_installed() => {
                CoordEventKind::MembershipChanged {
                    members: rep.members.clone(),
                }
            }
            _ => CoordEventKind::Completed { outcome },
        };
        self.emit(oid, run, event, now);
    }

    // -----------------------------------------------------------------
    // Deadlines (§7 termination extension)
    // -----------------------------------------------------------------

    /// A run's deadline passed. A proposer's majority round resolves with
    /// the responses in hand: silence counts neither for nor against. Any
    /// other blocked run — the proposer's under unanimity, or a recipient's
    /// whose decide never came — appeals to the TTP (§7). Without one the
    /// proposer aborts and sends its decide with the responses in hand, so
    /// every polled member that hears it ends the run too; a recipient
    /// whose proposer fell silent stays blocked per the base protocol.
    pub(crate) fn on_run_deadline(&mut self, oid: &ObjectId, run: RunId, ctx: &mut NodeCtx) {
        let (proposer, majority) = match self.replicas.get(oid).and_then(|r| r.active.as_ref()) {
            Some(ActiveRun::Proposer(pr)) if pr.run == run => (
                true,
                self.rule(&pr.propose.proposal.kind) == DecisionRule::Majority,
            ),
            Some(ActiveRun::Recipient(rr)) if rr.run == run => (false, false),
            _ => return,
        };
        match self.config.ttp.clone() {
            Some(ttp) if !majority => self.appeal_to_ttp(oid, run, ttp, ctx),
            _ if proposer => self.finalize(oid, run, ctx),
            _ => {}
        }
    }

    /// Ends the active run here without a decide, by a TTP resolution:
    /// `Ok` installs what it proposed, `Err` rolls back to the agreed state
    /// with that outcome. A sponsor then tells the subject, with
    /// `responses` as the deciding set.
    pub(crate) fn end_run(
        &mut self,
        oid: &ObjectId,
        verdict: Result<(), Outcome>,
        responses: Vec<RespondMsg>,
        ctx: &mut NodeCtx,
    ) {
        let Some(rep) = self.replicas.get_mut(oid) else {
            return;
        };
        let mut active = rep.finish_run().expect("the caller matched the active run");
        let (m1, state) = match &mut active {
            ActiveRun::Proposer(pr) => {
                // The deciding set is the one the resolution certifies.
                let set = responses
                    .into_iter()
                    .map(|r| (r.response.responder.clone(), r));
                pr.responses = set.collect();
                (&pr.propose, Some(std::mem::take(&mut pr.new_state)))
            }
            ActiveRun::Recipient(rr) => (&rr.propose, rr.pending_state.take()),
            ActiveRun::Leaving(_) => unreachable!("a departure has no resolution"),
        };
        let accepted = verdict.is_ok();
        let outcome = match verdict {
            Ok(()) => self.install(oid, m1, state),
            Err(outcome) => {
                rep.object.apply_state(&rep.agreed_state);
                outcome
            }
        };
        self.conclude(oid, active, None, accepted, Some(outcome), ctx);
        self.pump_queue(oid, ctx);
    }

    fn checkpoint_evidence(&mut self, oid: &ObjectId, run: RunId, now: TimeMs) {
        let payload = self
            .replicas
            .get(oid)
            .map(|r| r.agreed.canonical_bytes())
            .unwrap_or_default();
        self.log_evidence(
            EvidenceKind::Checkpoint,
            oid,
            run.label(),
            self.me.clone(),
            &payload,
            None,
            now,
        );
    }
}

/// The per-kind rules of a round that are not a check: how it is traced
/// and whether it changes the membership. Every kind files its propose,
/// respond and decide records under the same three evidence kinds.
#[derive(Clone, Copy)]
pub(crate) struct Rules {
    /// The trace span.
    pub(crate) span: &'static str,
    /// Whether the round changes the membership rather than the state.
    pub(crate) membership: bool,
}

/// The [`Rules`] of a round of `kind`.
pub(crate) fn rules(kind: &ProposalKind) -> Rules {
    let membership = kind.is_membership();
    Rules {
        span: if membership {
            "membership"
        } else {
            "state_run"
        },
        membership,
    }
}

/// The outcome reason of a round its proposer aborted at its deadline,
/// at the proposer and at every member its abort decide reaches.
pub(crate) const DEADLINE_EXPIRED: &str = "response deadline expired";

/// What a recipient makes of a decide.
enum DecideCheck {
    /// The group's decision: whether it accepted, and who vetoed.
    Decided(bool, Vec<(PartyId, String)>),
    /// The proposer's abort at its deadline: an incomplete set under the
    /// unanimous rule, where a deadline and no TTP are configured.
    Aborted,
    /// The decide is refuted by this misbehaviour.
    Refuted(Misbehaviour),
    /// A partial set that proves nothing yet: keep waiting.
    Wait,
}

/// A recipient's verdict on a proposal as its checks accumulate.
struct Checks {
    decision: Decision,
    misbehaviours: Vec<Misbehaviour>,
    /// Whether the proposal becomes the active run.
    track: bool,
}

impl Checks {
    /// Rejects for `reason`, unless already rejected.
    fn reject(&mut self, reason: impl Into<String>) {
        if self.decision.is_accept() {
            self.decision = Decision::reject(reason);
        }
    }

    /// An incoherent proposal: recorded as `misbehaviour`, rejected for
    /// `reason` and not tracked — holding the object for it would let one
    /// bogus signed m1 lock the replica until a decide that may never come.
    fn refuse(&mut self, misbehaviour: Misbehaviour, reason: &str) {
        self.misbehaviours.push(misbehaviour);
        self.reject(reason);
        self.track = false;
    }
}

/// Replays `updates` over `agreed` on behalf of a proposer, through one
/// [`B2BObject::fold_updates`]: per update, the link a proposal signs for
/// it (`H(update)` and the hash of its successor state) or why it does not
/// apply — the state then stays where it was — plus the state after the
/// last update that applied.
pub(crate) fn chain_links(
    object: &dyn B2BObject,
    agreed: &[u8],
    updates: &[Vec<u8>],
) -> (Vec<Result<BatchLink, String>>, Option<Vec<u8>>) {
    let mut state = None;
    let links = updates
        .iter()
        .zip(object.fold_updates(None, agreed, updates))
        .map(|(update, step)| {
            let next = step.next?;
            let link = BatchLink {
                update_hash: sha256(update),
                state_hash: sha256(&next),
            };
            state = Some(next);
            Ok(link)
        })
        .collect();
    (links, state)
}

/// What [`replay_updates`] found.
#[derive(Default)]
struct Replay {
    /// The state after the last update, when every update applied and
    /// matched its signed link.
    state: Option<Vec<u8>>,
    /// The body contradicts a signed hash.
    tampered: bool,
    /// Why the proposal is rejected, if it is.
    reject: Option<String>,
    /// The contradiction, attributed to the proposer at its batch index.
    misbehaviour: Option<Misbehaviour>,
    /// The application's first veto of an intact chain, when asked.
    veto: Option<Decision>,
}

/// Replays the updates of an update or batch proposal over `agreed`,
/// holding §4.2 per update: update `i`'s bytes must hash to
/// `links[i].update_hash` and its successor to `links[i].state_hash`, and
/// the last link must be the signed proposed state. One
/// [`B2BObject::fold_updates`] does the replay and, given a `validate`
/// proposer, the application's per-update verdicts against the state each
/// update would actually apply to.
///
/// The first failure in chain order decides. A `batch` (its run) names
/// the failing index in the reason and attributes a contradiction to the
/// proposer as [`Misbehaviour::BatchedUpdateMismatch`]; for a single
/// update a contradiction is only tampering. `check_chain == false`
/// ablates the hash checks (the `skip_batch_chain` mutation).
#[allow(clippy::too_many_arguments)]
fn replay_updates(
    object: &dyn B2BObject,
    validate: Option<&PartyId>,
    agreed: &[u8],
    updates: &[Vec<u8>],
    links: &[BatchLink],
    batch: Option<RunId>,
    check_chain: bool,
    proposed: &Digest32,
) -> Replay {
    let at = |index: usize, reason: String| match batch {
        Some(_) => format!("batch[{index}]: {reason}"),
        None => reason,
    };
    let contradiction = |index: usize, reason: String| match batch {
        Some(run) => Replay {
            tampered: true,
            reject: Some(reason),
            misbehaviour: Some(Misbehaviour::BatchedUpdateMismatch { run, index }),
            ..Replay::default()
        },
        None => Replay {
            tampered: true,
            ..Replay::default()
        },
    };
    // Replay only the updates before the first that contradicts its hash.
    let intact = if check_chain {
        updates
            .iter()
            .zip(links)
            .position(|(u, link)| sha256(u) != link.update_hash)
            .unwrap_or(updates.len())
    } else {
        updates.len()
    };
    let mut state = None;
    let mut veto = None;
    let steps = object.fold_updates(validate, agreed, &updates[..intact]);
    for (i, (step, link)) in steps.into_iter().zip(links).enumerate() {
        let next = match step.next {
            Ok(next) => next,
            // Inapplicable: a veto, not tampering.
            Err(reason) => {
                return Replay {
                    reject: Some(at(i, format!("update not applicable: {reason}"))),
                    ..Replay::default()
                }
            }
        };
        if check_chain && sha256(&next) != link.state_hash {
            return contradiction(i, format!("batch[{i}]: state hash chain mismatch"));
        }
        if veto.is_none() {
            veto = step
                .verdict
                .filter(|v| !v.is_accept())
                .map(|v| match batch {
                    Some(_) => {
                        Decision::reject_update(i, v.reason.unwrap_or_else(|| "rejected".into()))
                    }
                    None => v,
                });
        }
        state = Some(next);
    }
    if intact < updates.len() {
        return contradiction(
            intact,
            format!("batch[{intact}]: update does not match signed hash"),
        );
    }
    // Links consistent with the body, but the chain's end is not the
    // signed proposed tuple: an incoherent batch.
    let last = links.len() - 1;
    if check_chain && links[last].state_hash != *proposed {
        return contradiction(
            last,
            "batch chain does not end at the proposed state".into(),
        );
    }
    Replay {
        state,
        veto,
        ..Replay::default()
    }
}
