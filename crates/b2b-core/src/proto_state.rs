//! The non-repudiable state coordination protocol (§4.3).
//!
//! Three steps — `m1` propose, `m2` respond, `m3` decide — giving
//! "non-repudiable two-phase commit" with richer semantics: the proposer is
//! committed at initiation, a transition is rejected only by veto, and the
//! final message is the group's non-repudiable decision, authenticated by
//! the reveal of `r_P` whose hash was committed in the proposal.

use crate::config::{COMPLETED_REPLIES_CAP, REPLAY_WINDOW};
use crate::decision::{CoordEventKind, Decision, Outcome};
use crate::detect::Misbehaviour;
use crate::error::CoordError;
use crate::ids::{ObjectId, RunId, StateId};
use crate::messages::{
    BatchLink, DecideMsg, Proposal, ProposalKind, ProposeMsg, RespondMsg, Response, WireMsg,
};
use crate::object::B2BObject;
use crate::replica::{ActiveRun, ProposerRun, RecipientRun};
use crate::tally::{self, Ballot, Collected};
use crate::Coordinator;
use b2b_crypto::{sha256, CachedCanonical, CanonicalEncode, Digest32, PartyId};
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
        let now = ctx.now();
        let me = self.me.clone();
        let mut rep = self
            .replicas
            .remove(object)
            .ok_or_else(|| CoordError::UnknownObject(object.clone()))?;
        let result = (|| {
            if rep.detached || !rep.is_member(&me) {
                return Err(CoordError::NotMember {
                    party: me.clone(),
                    object: object.clone(),
                });
            }
            if rep.active.is_some() {
                return Err(CoordError::Busy {
                    object: object.clone(),
                });
            }

            // Sequence number: exactly one past the agreed state. The
            // paper asks for "greater than any coordination request seen",
            // but deriving the next number from *seen* proposals lets a
            // malicious member poison it (one vetoed proposal carrying
            // seq u64::MAX would brick this party); the random-hash half
            // of the tuple already provides the disambiguation the paper
            // wants, so a fixed increment is both safe and sufficient —
            // and recipients enforce the same exact increment.
            let seq = rep.agreed.seq + 1;
            let rand = self.rng.nonce();
            let proposed = StateId {
                seq,
                rand_hash: sha256(&rand),
                state_hash,
            };
            let authenticator = self.rng.nonce();
            let proposal = Proposal {
                object: object.clone(),
                proposer: me.clone(),
                group: rep.group,
                prev: rep.agreed,
                proposed,
                auth_commit: sha256(&authenticator),
                kind,
            };
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
            let recipients = rep.recipients(&me);
            if recipients.is_empty() {
                // Singleton group: trivially unanimous.
                rep.note_seen(run, Some((seq, proposed.rand_hash)));
                rep.install_state(proposed, new_state, REPLAY_WINDOW);
                return Ok((run, m1, None));
            }
            rep.start_run(ActiveRun::Proposer(ProposerRun {
                run,
                propose: m1.clone(),
                authenticator,
                new_state,
                responses: Default::default(),
                decided: None,
            }));
            Ok((run, m1, Some(recipients)))
        })();

        let (run, m1, recipients) = match result {
            Ok(parts) => parts,
            Err(e) => {
                self.replicas.insert(object.clone(), rep);
                return Err(e);
            }
        };
        self.replicas.insert(object.clone(), rep);
        // The run id is a digest of the signed proposal, so the first
        // eight bytes make a content-addressed root trace id: identical on
        // every fabric, never drawn from the rng.
        self.begin_root(Coordinator::run_root(&run));
        self.telemetry.inc(names::ROUNDS_STARTED);
        self.note_run_started(run, now);
        self.trace(now, "state_run", "propose", || {
            format!(
                "object={object} run={} seq={} peers={}",
                run.to_hex(),
                m1.proposal.proposed.seq,
                recipients.as_ref().map(Vec::len).unwrap_or(0)
            )
        });
        self.log_evidence(
            EvidenceKind::StatePropose,
            object,
            &run.to_hex(),
            self.me.clone(),
            self.proposal_bytes_of(&m1).to_vec(),
            Some(m1.sig.clone()),
            now,
        );
        match recipients {
            None => {
                // Installed immediately (singleton group).
                self.checkpoint_evidence(object, run, now);
                self.persist(object);
                self.telemetry.inc(names::ROUNDS_COMMITTED);
                self.observe_run_latency(&run, now);
                self.trace(now, "state_run", "install", || {
                    format!("object={object} run={} singleton", run.to_hex())
                });
                self.outcomes.insert(
                    run,
                    Outcome::Installed {
                        state: m1.proposal.proposed,
                    },
                );
                self.emit(
                    object,
                    run,
                    CoordEventKind::Completed {
                        outcome: Outcome::Installed {
                            state: m1.proposal.proposed,
                        },
                    },
                    now,
                );
            }
            Some(recipients) => {
                let msg = WireMsg::Propose(m1);
                self.send_wire_all(&recipients, &msg, ctx);
                self.arm_deadline(object, run, ctx);
                self.persist(object);
                self.emit(object, run, CoordEventKind::Proposed, now);
            }
        }
        self.end_episode();
        self.flush_evidence();
        Ok(run)
    }

    // -----------------------------------------------------------------
    // Recipient side
    // -----------------------------------------------------------------

    pub(crate) fn on_propose(&mut self, from: &PartyId, m1: ProposeMsg, ctx: &mut NodeCtx) {
        let now = ctx.now();
        let oid = m1.proposal.object.clone();
        let run = m1.run_id();
        let run_hex = run.to_hex();
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
                &run_hex,
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
                &run_hex,
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

        if rep.detached || !rep.is_member(&me) || !rep.is_member(&m1.proposal.proposer) {
            self.replicas.insert(oid.clone(), rep);
            self.log_misbehaviour(
                &oid,
                &run_hex,
                Misbehaviour::UnexpectedMessage {
                    detail: format!("propose from non-member or to non-member ({from})"),
                },
                now,
            );
            return;
        }

        // ---- systematic consistency checks (§4.2 invariants, §4.4) ----
        let mut misbehaviours: Vec<Misbehaviour> = Vec::new();
        let mut decision = Decision::accept();
        let mut track_run = true;
        let reject = |d: &mut Decision, reason: String| {
            if d.is_accept() {
                *d = Decision::reject(reason);
            }
        };

        // `mutation` ablates individual checks below so the b2b-check
        // explorer can demonstrate each one is load-bearing; all flags are
        // false outside mutation-testing builds.
        let mutation = self.config.mutation;
        let tuple = (m1.proposal.proposed.seq, m1.proposal.proposed.rand_hash);
        if !mutation.skip_replay && rep.has_seen_run(&run) {
            // Not the active run and not completed here ⇒ replay.
            misbehaviours.push(Misbehaviour::ReplayedProposal { run });
            reject(&mut decision, "replayed proposal".into());
            track_run = false;
        }
        if !mutation.skip_replay && rep.has_seen_tuple(&tuple) && !rep.has_seen_run(&run) {
            misbehaviours.push(Misbehaviour::ReplayedProposal { run });
            reject(&mut decision, "proposal tuple reused".into());
            track_run = false;
        }
        if m1.proposal.group != rep.group {
            misbehaviours.push(Misbehaviour::GroupIdMismatch {
                theirs: m1.proposal.group,
                ours: rep.group,
            });
            reject(&mut decision, "inconsistent group identifier".into());
            track_run = false;
        }
        if !mutation.skip_predecessor && m1.proposal.prev != rep.agreed {
            misbehaviours.push(Misbehaviour::PredecessorMismatch {
                theirs: m1.proposal.prev,
                ours: rep.agreed,
            });
            reject(&mut decision, "predecessor is not the agreed state".into());
            track_run = false;
        }
        if !mutation.skip_sequence && m1.proposal.proposed.seq != rep.agreed.seq + 1 {
            // Exact increment: strictly stronger than the paper's
            // "greater than", and what honest proposers produce; anything
            // else is a replayed/poisoned sequence number.
            misbehaviours.push(Misbehaviour::SequenceNotGreater {
                proposed: m1.proposal.proposed.seq,
                agreed: rep.agreed.seq,
            });
            reject(&mut decision, "sequence number is not agreed + 1".into());
            track_run = false;
        }
        if rep.active.is_some() {
            // Concurrency control: one run at a time per object. Not
            // misbehaviour — the proposer simply retries after the active
            // run completes.
            reject(&mut decision, "concurrent coordination run active".into());
            track_run = false;
        }

        // ---- unsigned-body integrity (Dolev-Yao tampering, §4.4) ----
        let mut body_ok = true;
        let mut pending_state: Option<Vec<u8>> = None;
        // The application's first veto of an intact update chain. The
        // replay asks for it only while nothing has rejected the proposal
        // yet; it is applied below, after the null-transition check.
        let mut veto: Option<Decision> = None;
        let proposed_hash = m1.proposal.proposed.state_hash;
        let validate = decision.is_accept().then_some(&m1.proposal.proposer);
        let replay = match &m1.proposal.kind {
            ProposalKind::Overwrite => {
                if sha256(&m1.body) == proposed_hash {
                    pending_state = Some(m1.body.clone());
                } else {
                    body_ok = false;
                }
                None
            }
            // A single update is a batch of one, its link the signed
            // update hash and proposed state hash.
            ProposalKind::Update { update_hash } => {
                let link = BatchLink {
                    update_hash: *update_hash,
                    state_hash: proposed_hash,
                };
                Some(replay_updates(
                    rep.object.as_ref(),
                    validate,
                    &rep.agreed_state,
                    std::slice::from_ref(&m1.body),
                    std::slice::from_ref(&link),
                    None,
                    true,
                    &proposed_hash,
                ))
            }
            // `skip_batch_chain` ablates the chain checks only — the
            // batch still replays, so the mutation lets a forged batch
            // through to installation where the b2b-check state-hash
            // oracle catches it.
            ProposalKind::Batch { links } => match crate::messages::decode_batch_body(&m1.body) {
                Some(updates) if !updates.is_empty() && updates.len() == links.len() => {
                    Some(replay_updates(
                        rep.object.as_ref(),
                        validate,
                        &rep.agreed_state,
                        &updates,
                        links,
                        Some(run),
                        !mutation.skip_batch_chain,
                        &proposed_hash,
                    ))
                }
                // Malformed framing or a link-count mismatch is
                // tampering with the unsigned body.
                _ => {
                    body_ok = false;
                    None
                }
            },
        };
        if let Some(replay) = replay {
            body_ok &= !replay.tampered;
            if let Some(reason) = replay.reject {
                reject(&mut decision, reason);
            }
            misbehaviours.extend(replay.misbehaviour);
            pending_state = replay.state;
            veto = replay.veto;
        }
        if !body_ok {
            misbehaviours.push(Misbehaviour::BodyHashMismatch { run });
            reject(&mut decision, "body does not match signed hashes".into());
            // An incoherent proposal (like the invariant failures above)
            // is rejected without holding the object: tracking it would
            // let a single bogus signed m1 lock the replica until a
            // decide that may never come. Genuine runs that fail only
            // application validation still track and await m3.
            track_run = false;
        }

        // ---- null transition (§4.4) ----
        if m1.proposal.proposed.state_hash == rep.agreed.state_hash {
            misbehaviours.push(Misbehaviour::NullTransition { run });
            reject(&mut decision, "null state transition".into());
        }

        // ---- application validation upcall ----
        if decision.is_accept() {
            let app = match &m1.proposal.kind {
                ProposalKind::Overwrite => {
                    rep.object
                        .validate_state(&m1.proposal.proposer, &rep.agreed_state, &m1.body)
                }
                ProposalKind::Update { .. } | ProposalKind::Batch { .. } => {
                    veto.unwrap_or_else(Decision::accept)
                }
            };
            if !app.is_accept() {
                decision = app;
            }
        }

        // `pending_state` survives a local veto: it records the successor
        // state *if the body is intact*, so that under the §7 majority
        // extension an outvoted recipient can still follow the group
        // decision. Under the unanimous rule a veto precludes installation
        // anyway, so keeping it is harmless there.
        if decision.is_accept() {
            debug_assert!(pending_state.is_some());
        }

        // ---- respond ----
        let response = Response {
            object: oid.clone(),
            responder: me.clone(),
            group: rep.group,
            run,
            prev: rep.agreed,
            proposed: m1.proposal.proposed,
            body_ok,
            decision: decision.clone(),
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

        let armed_recipient_deadline = track_run && self.config.ttp.is_some();
        if track_run {
            rep.start_run(ActiveRun::Recipient(RecipientRun {
                run,
                propose: m1.clone(),
                my_response: m2.clone(),
                pending_state,
            }));
        } else {
            rep.note_seen(run, Some(tuple));
        }
        self.replicas.insert(oid.clone(), rep);
        if armed_recipient_deadline {
            self.arm_deadline(&oid, run, ctx);
        }

        self.log_evidence(
            EvidenceKind::StatePropose,
            &oid,
            &run_hex,
            m1.proposal.proposer.clone(),
            self.proposal_bytes_of(&m1).to_vec(),
            Some(m1.sig.clone()),
            now,
        );
        self.log_evidence(
            EvidenceKind::StateRespond,
            &oid,
            &run_hex,
            me,
            self.response_bytes_of(&m2).to_vec(),
            Some(m2.sig.clone()),
            now,
        );
        for m in misbehaviours {
            self.log_misbehaviour(&oid, &run_hex, m, now);
        }
        if track_run {
            // A recipient's round begins when it starts tracking the
            // proposal, so fleet-wide `rounds_started` bounds
            // `rounds_committed + rounds_aborted`.
            self.telemetry.inc(names::ROUNDS_STARTED);
            self.note_run_started(run, now);
        }
        self.trace(now, "state_run", "respond", || {
            format!(
                "object={oid} run={run_hex} decision={}",
                if decision.is_accept() {
                    "accept"
                } else {
                    "reject"
                }
            )
        });
        let proposer = m1.proposal.proposer.clone();
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
        let run_hex = run.to_hex();

        // The signed response must echo the actual proposal: one that names
        // another tuple under this run id is internally inconsistent and
        // would weaken what the aggregated evidence proves (§4.4). It is
        // recorded as misbehaviour and not counted; the run blocks until
        // the deadline/TTP path resolves it.
        let collected = self.collect_vote(from, &m2, ctx, |rep| match &mut rep.active {
            Some(ActiveRun::Proposer(pr)) if pr.run == run => Some(Ballot {
                echo: m2.response.proposed == pr.propose.proposal.proposed,
                responses: &mut pr.responses,
                voters: &rep.members,
            }),
            _ => None,
        });
        let misbehaviour = match collected {
            Collected::BadSignature => {
                self.telemetry.inc(names::VOTES_INVALID);
                self.trace(now, "state_run", "vote_collect", || {
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
                detail: format!("response from non-member {from}"),
            }),
            // Two different signed responses to one run: irrefutable
            // evidence of misbehaviour.
            Collected::Conflicting => Some(Misbehaviour::InconsistentDecide {
                run,
                detail: format!("conflicting signed responses from {from}"),
            }),
            Collected::Recorded { got, want } => {
                self.telemetry.inc(names::VOTES_VALID);
                self.trace(now, "state_run", "vote_collect", || {
                    format!(
                        "object={oid} run={run_hex} from={from} verdict={:?} {got}/{want}",
                        m2.response.decision.verdict
                    )
                });
                self.log_evidence(
                    EvidenceKind::StateRespond,
                    &oid,
                    &run_hex,
                    from.clone(),
                    self.response_bytes_of(&m2).to_vec(),
                    Some(m2.sig.clone()),
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
                    self.finalize_state_run(&oid, run, ctx);
                    return;
                }
                None
            }
        };
        if let Some(m) = misbehaviour {
            self.log_misbehaviour(&oid, &run_hex, m, now);
        }
        self.persist(&oid);
    }

    /// Computes the group decision, sends `m3`, installs or rolls back.
    fn finalize_state_run(&mut self, oid: &ObjectId, run: RunId, ctx: &mut NodeCtx) {
        let now = ctx.now();
        let run_hex = run.to_hex();
        let me = self.me.clone();
        let Some(mut rep) = self.replicas.remove(oid) else {
            return;
        };
        let Some(ActiveRun::Proposer(pr)) = rep.finish_run() else {
            self.replicas.insert(oid.clone(), rep);
            return;
        };

        let responses: Vec<RespondMsg> = pr.responses.values().cloned().collect();
        let (accepted, vetoers) =
            tally::decide(self.config.decision_rule, rep.members.len(), &responses);
        let decide = DecideMsg {
            object: oid.clone(),
            run,
            authenticator: pr.authenticator,
            responses,
        };
        let outcome = if accepted {
            rep.install_state(
                pr.propose.proposal.proposed,
                pr.new_state.clone(),
                REPLAY_WINDOW,
            );
            Outcome::Installed {
                state: pr.propose.proposal.proposed,
            }
        } else {
            // The proposer's working state rolls back to the agreed state;
            // the engine never installed the proposed state, so rollback is
            // re-asserting the agreed checkpoint.
            let agreed = rep.agreed_state.clone();
            rep.object.apply_state(&agreed);
            Outcome::Invalidated { vetoers }
        };

        // §3.3 "the proposer simply retries": a round rejected purely by
        // the group's concurrency control — every veto reason systematic
        // (a peer was mid-round, or an install won the race for this
        // sequence number), none an application judgement — requeues its
        // updates at the head of the pending queue. The next flush
        // re-derives them against the new agreed state (the object's
        // `apply_update`), after a jittered holdoff so the colliding
        // proposers desynchronise. Overwrites are excluded: an overwrite
        // asserts an exact predecessor, so replaying it against a
        // different one would change its meaning.
        let mut requeue: Vec<(crate::coordinator::TicketId, Vec<u8>)> = Vec::new();
        if let Outcome::Invalidated { vetoers } = &outcome {
            if !vetoers.is_empty()
                && vetoers
                    .iter()
                    .all(|(_, r)| crate::coordinator::is_transient_reject(r))
            {
                let updates: Vec<Vec<u8>> = match &pr.propose.proposal.kind {
                    ProposalKind::Update { .. } => vec![pr.propose.body.clone()],
                    ProposalKind::Batch { .. } => {
                        crate::messages::decode_batch_body(&pr.propose.body).unwrap_or_default()
                    }
                    ProposalKind::Overwrite => Vec::new(),
                };
                if !updates.is_empty() {
                    // This run's tickets, in submission (= batch) order.
                    let mut tids: Vec<crate::coordinator::TicketId> = self
                        .tickets
                        .iter()
                        .filter(|(_, s)| {
                            matches!(s, crate::coordinator::TicketState::Run(r) if *r == run)
                        })
                        .map(|(t, _)| *t)
                        .collect();
                    tids.sort();
                    if tids.len() == updates.len() {
                        let reason = vetoers.first().map(|(_, r)| r.clone()).unwrap_or_default();
                        for (tid, u) in tids.into_iter().zip(updates) {
                            let n = self.transient_retry.entry(tid).or_insert(0);
                            *n += 1;
                            if *n > crate::coordinator::MAX_TRANSIENT_RETRIES {
                                self.transient_retry.remove(&tid);
                                self.tickets.insert(
                                    tid,
                                    crate::coordinator::TicketState::Failed(format!(
                                        "contention retries exhausted: {reason}"
                                    )),
                                );
                            } else {
                                self.tickets
                                    .insert(tid, crate::coordinator::TicketState::Queued);
                                requeue.push((tid, u));
                            }
                        }
                    }
                }
            }
        }
        if outcome.is_installed() && !self.transient_retry.is_empty() {
            // The contended updates made it in: drop their retry counters.
            let tickets = &self.tickets;
            self.transient_retry.retain(|tid, _| {
                !matches!(tickets.get(tid),
                          Some(crate::coordinator::TicketState::Run(r)) if *r == run)
            });
        }

        let recipients = rep.recipients(&me);
        rep.remember_reply(run, WireMsg::Decide(decide.clone()), COMPLETED_REPLIES_CAP);
        self.replicas.insert(oid.clone(), rep);

        let msg = WireMsg::Decide(decide.clone());
        self.send_wire_all(&recipients, &msg, ctx);
        self.trace(now, "state_run", "decide", || {
            format!(
                "object={oid} run={run_hex} accepted={accepted} responses={}",
                decide.responses.len()
            )
        });
        self.log_evidence(
            EvidenceKind::StateDecide,
            oid,
            &run_hex,
            me,
            decide.canonical_bytes(),
            None,
            now,
        );
        if outcome.is_installed() {
            self.checkpoint_evidence(oid, run, now);
            self.telemetry.inc(names::ROUNDS_COMMITTED);
            self.trace(now, "state_run", "install", || {
                format!("object={oid} run={run_hex}")
            });
        } else {
            self.telemetry.inc(names::ROUNDS_ABORTED);
            self.trace(now, "state_run", "rollback", || {
                format!("object={oid} run={run_hex}")
            });
        }
        self.observe_run_latency(&run, now);
        self.persist(oid);
        self.outcomes.insert(run, outcome.clone());
        self.emit(oid, run, CoordEventKind::Completed { outcome }, now);
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

    // -----------------------------------------------------------------
    // Recipient side: the decide
    // -----------------------------------------------------------------

    pub(crate) fn on_decide(&mut self, m3: DecideMsg, ctx: &mut NodeCtx) {
        let now = ctx.now();
        let oid = m3.object.clone();
        let run = m3.run;
        let run_hex = run.to_hex();
        let me = self.me.clone();

        if self.outcomes.contains_key(&run) {
            return; // duplicate decide
        }
        let Some(mut rep) = self.replicas.remove(&oid) else {
            return;
        };
        let rr = match &rep.active {
            Some(ActiveRun::Recipient(rr)) if rr.run == run => rr,
            // A decide for a run we rejected while busy (we kept no run
            // state) or never saw: ignore — installing anything on the
            // basis of an unexpected decide would be unsafe.
            _ => {
                self.replicas.insert(oid, rep);
                return;
            }
        };

        // ---- authenticator: only the proposer can reveal r_P ----
        if sha256(&m3.authenticator) != rr.propose.proposal.auth_commit {
            self.replicas.insert(oid.clone(), rep);
            self.log_misbehaviour(
                &oid,
                &run_hex,
                Misbehaviour::AuthenticatorMismatch { run },
                now,
            );
            return; // keep the run active: the genuine decide may follow
        }

        // ---- verify the aggregated responses ----
        // Under the base (unanimous) rule the response set must be
        // complete; the §7 majority extension legitimately resolves runs
        // from a partial set after the deadline.
        let proposer = rr.propose.proposal.proposer.clone();
        let majority = self.config.decision_rule == crate::config::DecisionRule::Majority;
        // The verifier reads each response's memoized bytes; count those
        // reads as `response_bytes_of` does.
        let memo_hits = m3.responses.iter().filter(|r| r.memo.is_cached()).count();
        let set = tally::check_set(
            &m3.responses,
            run,
            &oid,
            rep.members.iter().filter(|m| **m != proposer),
            majority,
            |r| r.response.proposed == rr.propose.proposal.proposed,
            |items| {
                self.telemetry
                    .add(names::CANONICAL_CACHE_HITS, memo_hits as u64);
                self.verify_batch_cached(items)
            },
        );
        let mut fault = set.err().map(|fault| fault.misbehaviour(run, "response"));
        // Our own response, when included, must be byte-identical; under
        // the unanimous rule it must also be present.
        if fault.is_none() {
            let mine = m3.responses.iter().find(|r| r.response.responder == me);
            match mine {
                Some(r) if r == &rr.my_response => {}
                Some(_) => fault = Some(Misbehaviour::ResponseMisrepresented { run }),
                None if !majority => fault = Some(Misbehaviour::ResponseMisrepresented { run }),
                None => {}
            }
        }

        if let Some(m) = fault {
            // Fail-safe abort: evidence is logged; the replica keeps its
            // agreed state. The run stays active awaiting a consistent
            // decide (or extra-protocol resolution).
            self.replicas.insert(oid.clone(), rep);
            self.log_misbehaviour(&oid, &run_hex, m, now);
            return;
        }

        // ---- compute the group decision ----
        let (accepted, vetoers) =
            tally::decide(self.config.decision_rule, rep.members.len(), &m3.responses);
        // Under the majority extension a *partial* response set may only
        // resolve the run by demonstrating the installing majority. A
        // partial veto-only set proves nothing (the missing responses
        // could be accepts) and, since the decide is unsigned and the
        // authenticator is public after the first m3, could be a
        // re-aggregation by the network adversary — keep waiting instead
        // of diverging from peers that saw the full set.
        if majority && !accepted && m3.responses.len() != rep.members.len() - 1 {
            self.replicas.insert(oid, rep);
            return;
        }
        let Some(ActiveRun::Recipient(rr)) = rep.finish_run() else {
            unreachable!("matched above");
        };
        let outcome = if accepted {
            match rr.pending_state {
                Some(next) => {
                    rep.install_state(rr.propose.proposal.proposed, next, REPLAY_WINDOW);
                    Outcome::Installed {
                        state: rr.propose.proposal.proposed,
                    }
                }
                None => {
                    // Only reachable under the majority extension when we
                    // ourselves vetoed for body reasons: without a valid
                    // body we cannot install, so we abort locally.
                    Outcome::Aborted {
                        reason: "group accepted but no valid local body".into(),
                    }
                }
            }
        } else {
            Outcome::Invalidated { vetoers }
        };
        // Keep our signed response on file: if the proposer crashed and
        // re-sends m1 on recovery, we answer with the *same* response
        // instead of minting a conflicting signed rejection (which would
        // manufacture false evidence of equivocation against us, and
        // false replay evidence against the honest proposer).
        rep.remember_reply(run, WireMsg::Respond(rr.my_response), COMPLETED_REPLIES_CAP);
        self.replicas.insert(oid.clone(), rep);

        self.log_evidence(
            EvidenceKind::StateDecide,
            &oid,
            &run_hex,
            proposer,
            m3.canonical_bytes(),
            None,
            now,
        );
        if outcome.is_installed() {
            self.checkpoint_evidence(&oid, run, now);
            self.telemetry.inc(names::ROUNDS_COMMITTED);
            self.trace(now, "state_run", "install", || {
                format!("object={oid} run={run_hex}")
            });
        } else {
            self.telemetry.inc(names::ROUNDS_ABORTED);
            self.trace(now, "state_run", "rollback", || {
                format!("object={oid} run={run_hex}")
            });
        }
        self.observe_run_latency(&run, now);
        self.persist(&oid);
        self.outcomes.insert(run, outcome.clone());
        self.emit(&oid, run, CoordEventKind::Completed { outcome }, now);
        self.pump_queue(&oid, ctx);
    }

    // -----------------------------------------------------------------
    // Deadlines (§7 termination extension, proposer side)
    // -----------------------------------------------------------------

    pub(crate) fn on_run_deadline(&mut self, oid: &ObjectId, run: RunId, ctx: &mut NodeCtx) {
        let now = ctx.now();
        match self.replicas.get(oid).and_then(|r| r.active.as_ref()) {
            // A blocked *recipient* (responded, decide never came) can
            // appeal to the TTP too; without a TTP it stays blocked per the
            // base protocol.
            Some(ActiveRun::Recipient(rr)) if rr.run == run => {
                if let Some(ttp) = self.config.ttp.clone() {
                    self.appeal_to_ttp(oid, run, ttp, ctx);
                }
                return;
            }
            Some(ActiveRun::Proposer(pr)) if pr.run == run => {}
            _ => return,
        }
        match self.config.decision_rule {
            crate::config::DecisionRule::Majority => {
                // Resolve with the responses in hand: silence counts
                // neither for nor against; the majority threshold is over
                // the whole group.
                self.finalize_state_run(oid, run, ctx);
            }
            crate::config::DecisionRule::Unanimous => {
                // §7: with an appointed TTP, appeal for a certified
                // resolution that reaches every member; without one, abort
                // locally and leave the evidence for extra-protocol
                // resolution.
                if let Some(ttp) = self.config.ttp.clone() {
                    self.appeal_to_ttp(oid, run, ttp, ctx);
                    return;
                }
                if let Some(rep) = self.replicas.get_mut(oid) {
                    rep.finish_run();
                    let agreed = rep.agreed_state.clone();
                    rep.object.apply_state(&agreed);
                }
                let outcome = Outcome::Aborted {
                    reason: "response deadline expired".into(),
                };
                self.telemetry.inc(names::ROUNDS_ABORTED);
                self.observe_run_latency(&run, now);
                self.trace(now, "state_run", "abort", || {
                    format!("object={oid} run={} reason=deadline", run.to_hex())
                });
                self.persist(oid);
                self.outcomes.insert(run, outcome.clone());
                self.emit(oid, run, CoordEventKind::Completed { outcome }, now);
                self.pump_queue(oid, ctx);
            }
        }
    }

    pub(crate) fn checkpoint_evidence(
        &mut self,
        oid: &ObjectId,
        run: RunId,
        now: b2b_crypto::TimeMs,
    ) {
        let payload = self
            .replicas
            .get(oid)
            .map(|r| r.agreed.canonical_bytes())
            .unwrap_or_default();
        self.log_evidence(
            EvidenceKind::Checkpoint,
            oid,
            &run.to_hex(),
            self.me.clone(),
            payload,
            None,
            now,
        );
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
