//! The `B2BObjectController` — the application programmer's interface to
//! configuration, initiation and control of information sharing (§5).
//!
//! The controller wraps a [`Coordinator`] (local or behind a thread) and
//! provides:
//!
//! * **state-change scoping**: [`Controller::enter`] /
//!   [`Controller::leave`] demarcate access to object state, with
//!   [`Controller::examine`], [`Controller::overwrite`] and
//!   [`Controller::update`] indicating the access type. Scopes nest,
//!   "rolling up" a series of changes into a single coordination event;
//!   coordination is initiated at the outermost `leave`.
//! * **communication modes** (§5): in [`Mode::Synchronous`] the calls block
//!   until coordination completes (an error is returned if validation
//!   fails); in [`Mode::DeferredSynchronous`] they return a
//!   [`CoordTicket`] and [`Controller::coord_commit`] waits; in
//!   [`Mode::Asynchronous`] completion is signalled through the
//!   coordinator's event stream (`coordCallback`).
//! * **connection management**: [`Controller::connect`] /
//!   [`Controller::disconnect`] initiate the §4.5 membership protocols.
//!
//! The same controller runs against both network drivers through the
//! [`CoordAccess`] abstraction: [`b2b_net::GroupHandle`] for the sharded
//! real-clock runtime (in process or over sockets) and [`SimAccess`] for
//! the deterministic simulator.

use crate::coordinator::{ConnectStatus, Coordinator, ObjectFactory, TicketId, TicketState};
use crate::decision::Outcome;
use crate::error::CoordError;
use crate::ids::{ObjectId, RunId, StateId};
use b2b_crypto::PartyId;
use b2b_net::{GroupHandle, NodeCtx, SimNet};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

/// Uniform access to a [`Coordinator`] regardless of network driver.
pub trait CoordAccess {
    /// Runs a local operation against the coordinator, dispatching any
    /// messages/timers it produces.
    fn with<R>(&self, f: impl FnOnce(&mut Coordinator, &mut NodeCtx) -> R) -> R;

    /// Reads the coordinator: nothing is dispatched and no event loop is
    /// woken, so a status poll costs a lock and nothing else.
    fn read<R>(&self, f: impl FnOnce(&Coordinator) -> R) -> R;

    /// Drives the system until `pred` holds or `timeout` elapses; returns
    /// whether the predicate was satisfied.
    fn wait(&self, timeout: Duration, pred: impl FnMut(&Coordinator) -> bool) -> bool;
}

/// [`CoordAccess`] over one group of the sharded multi-group runtime:
/// the same controller API drives any of the thousands of coordination
/// groups multiplexed onto a fixed worker pool (the `b2b-server` order
/// service runs one controller per HTTP scope session this way).
impl CoordAccess for GroupHandle<Coordinator> {
    fn with<R>(&self, f: impl FnOnce(&mut Coordinator, &mut NodeCtx) -> R) -> R {
        self.invoke(f)
    }

    fn read<R>(&self, f: impl FnOnce(&Coordinator) -> R) -> R {
        GroupHandle::read(self, f)
    }

    fn wait(&self, timeout: Duration, mut pred: impl FnMut(&Coordinator) -> bool) -> bool {
        self.wait_until(timeout, |c| pred(c))
    }
}

/// [`CoordAccess`] over the deterministic simulator: waiting *is* running
/// the simulation, so scenarios stay single-threaded and reproducible.
#[derive(Clone)]
pub struct SimAccess {
    net: Rc<RefCell<SimNet<Coordinator>>>,
    id: PartyId,
}

impl SimAccess {
    /// Wraps one simulated node. Create the shared handle once with
    /// [`SimAccess::shared`] and clone per party.
    pub fn new(net: Rc<RefCell<SimNet<Coordinator>>>, id: PartyId) -> SimAccess {
        SimAccess { net, id }
    }

    /// Convenience: moves a simulator into a shareable handle.
    pub fn shared(net: SimNet<Coordinator>) -> Rc<RefCell<SimNet<Coordinator>>> {
        Rc::new(RefCell::new(net))
    }
}

impl CoordAccess for SimAccess {
    fn with<R>(&self, f: impl FnOnce(&mut Coordinator, &mut NodeCtx) -> R) -> R {
        self.net.borrow_mut().invoke(&self.id, f)
    }

    fn read<R>(&self, f: impl FnOnce(&Coordinator) -> R) -> R {
        f(self.net.borrow().node(&self.id))
    }

    /// Waiting *is* running the simulation. The timeout is interpreted as
    /// a **virtual-time** budget (1 ms wall = 1 ms virtual): without it, a
    /// blocked run whose retransmission timers keep the event queue alive
    /// (e.g. across a partition) would spin this loop forever.
    fn wait(&self, timeout: Duration, mut pred: impl FnMut(&Coordinator) -> bool) -> bool {
        let deadline = {
            let net = self.net.borrow();
            net.now() + b2b_crypto::TimeMs(timeout.as_millis() as u64)
        };
        loop {
            {
                let net = self.net.borrow();
                if pred(net.node(&self.id)) {
                    return true;
                }
                if net.now() >= deadline {
                    return false;
                }
            }
            let stepped = self.net.borrow_mut().step();
            if !stepped {
                let net = self.net.borrow();
                return pred(net.node(&self.id));
            }
        }
    }
}

/// The communication mode of a controller (§5).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Operations block until the relevant coordination completes; an
    /// error is raised if validation fails.
    Synchronous,
    /// Operations return immediately with a ticket;
    /// [`Controller::coord_commit`] blocks until completion.
    DeferredSynchronous,
    /// Operations return immediately; completion is signalled through the
    /// coordinator's `coordCallback` event stream.
    Asynchronous,
}

/// A handle on an in-flight coordination, returned in deferred-synchronous
/// and asynchronous modes.
///
/// Since batched rounds, the handle names a coordinator *ticket* rather
/// than a protocol run: a deferred or asynchronous update may wait in the
/// pending queue and later coalesce with others into one signed round, so
/// the run it rides in is not known at submission time. Use
/// [`Controller::run_of`] to learn the run once dispatched.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CoordTicket {
    /// The coordinator ticket the handle waits on.
    pub ticket: TicketId,
}

/// The observable lifecycle of a ticket, as reported by
/// [`Controller::poll_status`].
///
/// Unlike draining the `coordCallback` event stream (which consumes each
/// completion exactly once), polling a status is **idempotent**: a
/// completed ticket keeps answering with the same terminal status — veto
/// reasons included — for as long as the coordinator retains the outcome.
/// This is what a poll endpoint (the order server's `/tickets/:id`) needs:
/// clients retry, proxies duplicate, and every read must see the same
/// answer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TicketStatus {
    /// No such ticket was ever issued by this coordinator.
    Unknown,
    /// Still in flight: waiting in the pending queue (`run: None`) or
    /// riding in a dispatched round (`run: Some(..)`).
    Pending {
        /// The run carrying the update, once dispatched.
        run: Option<RunId>,
    },
    /// The update was validated and installed as the new agreed state.
    Installed {
        /// Identifier of the installed state.
        state: StateId,
    },
    /// The proposal was vetoed; each vetoer states its reason (§4.3).
    Invalidated {
        /// `(party, reason)` for every vetoing member.
        vetoers: Vec<(PartyId, String)>,
    },
    /// Never dispatched (e.g. the update stopped being applicable to the
    /// state the group agreed in the meantime) or aborted by recovery.
    Aborted {
        /// Why the update never took effect.
        reason: String,
    },
}

impl TicketStatus {
    /// Whether the ticket has reached a terminal state (installed,
    /// invalidated or aborted).
    pub fn is_terminal(&self) -> bool {
        !matches!(self, TicketStatus::Pending { .. }) && !matches!(self, TicketStatus::Unknown)
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum AccessKind {
    Examine,
    Overwrite,
    Update,
}

/// The per-object controller used by application code.
pub struct Controller<A: CoordAccess> {
    access: A,
    object: ObjectId,
    mode: Mode,
    timeout: Duration,
    depth: u32,
    kind: Option<AccessKind>,
    working: Option<Vec<u8>>,
    pending_update: Option<Vec<u8>>,
}

impl<A: CoordAccess> Controller<A> {
    /// Creates a synchronous-mode controller for `object`.
    pub fn new(access: A, object: ObjectId) -> Controller<A> {
        Controller {
            access,
            object,
            mode: Mode::Synchronous,
            timeout: Duration::from_secs(10),
            depth: 0,
            kind: None,
            working: None,
            pending_update: None,
        }
    }

    /// Selects the communication mode.
    pub fn mode(mut self, mode: Mode) -> Controller<A> {
        self.mode = mode;
        self
    }

    /// Sets the blocking timeout for synchronous operations.
    pub fn timeout(mut self, timeout: Duration) -> Controller<A> {
        self.timeout = timeout;
        self
    }

    /// The object this controller manages.
    pub fn object_id(&self) -> &ObjectId {
        &self.object
    }

    // ---------------------------------------------------------------
    // Connection management
    // ---------------------------------------------------------------

    /// Initiates connection to the object's sharing group via `sponsor`.
    /// In synchronous mode, blocks until admitted or rejected.
    ///
    /// # Errors
    ///
    /// [`CoordError::ConnectionRejected`] on rejection (immediate or by
    /// veto — indistinguishable, §4.5.3), [`CoordError::Timeout`] if no
    /// answer arrives in time, or a registration error.
    pub fn connect(&self, factory: ObjectFactory, sponsor: PartyId) -> Result<(), CoordError> {
        let object = self.object.clone();
        self.access
            .with(move |c, ctx| c.request_connect(object, factory, sponsor, ctx))?;
        if self.mode != Mode::Synchronous {
            return Ok(());
        }
        let object = self.object.clone();
        let done = self.access.wait(self.timeout, move |c| {
            !matches!(c.connect_status(&object), Some(ConnectStatus::Pending))
        });
        if !done {
            return Err(CoordError::Timeout(RunId(b2b_crypto::sha256(b"connect"))));
        }
        let status = self
            .access
            .read(|c| c.connect_status(&self.object).cloned());
        match status {
            Some(ConnectStatus::Member) => Ok(()),
            _ => Err(CoordError::ConnectionRejected),
        }
    }

    /// Voluntarily leaves the sharing group. In synchronous mode, blocks
    /// until the sponsor's acknowledgement arrives.
    ///
    /// # Errors
    ///
    /// Propagates coordinator errors; [`CoordError::Timeout`] if the ack
    /// does not arrive in time.
    pub fn disconnect(&self) -> Result<(), CoordError> {
        let object = self.object.clone();
        self.access
            .with(move |c, ctx| c.request_disconnect(&object, ctx))?;
        if self.mode != Mode::Synchronous {
            return Ok(());
        }
        let object = self.object.clone();
        let done = self
            .access
            .wait(self.timeout, move |c| !c.is_member(&object));
        if done {
            Ok(())
        } else {
            Err(CoordError::Timeout(RunId(b2b_crypto::sha256(
                b"disconnect",
            ))))
        }
    }

    /// Proposes evicting `subjects`. In synchronous mode, blocks until the
    /// membership no longer contains them (or times out — eviction may be
    /// vetoed by other members).
    ///
    /// # Errors
    ///
    /// Propagates coordinator errors; [`CoordError::Timeout`] when the
    /// eviction has not taken effect in time.
    pub fn evict(&self, subjects: Vec<PartyId>) -> Result<(), CoordError> {
        let object = self.object.clone();
        let subjects2 = subjects.clone();
        self.access
            .with(move |c, ctx| c.request_evict(&object, subjects2, ctx))?;
        if self.mode != Mode::Synchronous {
            return Ok(());
        }
        let object = self.object.clone();
        let done = self.access.wait(self.timeout, move |c| {
            c.members(&object)
                .map(|m| subjects.iter().all(|s| !m.contains(s)))
                .unwrap_or(false)
        });
        if done {
            Ok(())
        } else {
            Err(CoordError::Timeout(RunId(b2b_crypto::sha256(b"evict"))))
        }
    }

    // ---------------------------------------------------------------
    // State access scoping (enter / examine / overwrite / update / leave)
    // ---------------------------------------------------------------

    /// Opens (or nests into) a state-access scope; the outermost `enter`
    /// snapshots the agreed state as the working copy.
    ///
    /// # Errors
    ///
    /// [`CoordError::UnknownObject`] if the object is not coordinated here.
    pub fn enter(&mut self) -> Result<(), CoordError> {
        if self.depth == 0 {
            let state = self
                .access
                .read(|c| c.agreed_state(&self.object))
                .ok_or_else(|| CoordError::UnknownObject(self.object.clone()))?;
            self.working = Some(state);
            self.kind = None;
            self.pending_update = None;
        }
        self.depth += 1;
        Ok(())
    }

    /// Indicates read-only access in the current scope.
    ///
    /// # Errors
    ///
    /// [`CoordError::ScopeMisuse`] outside a scope.
    pub fn examine(&mut self) -> Result<(), CoordError> {
        self.require_scope()?;
        if self.kind.is_none() {
            self.kind = Some(AccessKind::Examine);
        }
        Ok(())
    }

    /// Indicates that object state is being overwritten in this scope.
    ///
    /// # Errors
    ///
    /// [`CoordError::ScopeMisuse`] outside a scope.
    pub fn overwrite(&mut self) -> Result<(), CoordError> {
        self.require_scope()?;
        self.kind = Some(AccessKind::Overwrite);
        Ok(())
    }

    /// Indicates an update-style change (§4.3.1) carrying `delta` as the
    /// update to propagate instead of the whole state.
    ///
    /// # Errors
    ///
    /// [`CoordError::ScopeMisuse`] outside a scope.
    pub fn update(&mut self, delta: Vec<u8>) -> Result<(), CoordError> {
        self.require_scope()?;
        self.kind = Some(AccessKind::Update);
        self.pending_update = Some(delta);
        Ok(())
    }

    /// The working copy of the object state within the current scope.
    ///
    /// # Errors
    ///
    /// [`CoordError::ScopeMisuse`] outside a scope.
    pub fn state(&self) -> Result<&[u8], CoordError> {
        self.working
            .as_deref()
            .ok_or(CoordError::ScopeMisuse("state() outside enter/leave"))
    }

    /// Replaces the working copy (the object mutation of the paper's
    /// wrapper methods).
    ///
    /// # Errors
    ///
    /// [`CoordError::ScopeMisuse`] outside a scope.
    pub fn set_state(&mut self, state: Vec<u8>) -> Result<(), CoordError> {
        self.require_scope()?;
        self.working = Some(state);
        Ok(())
    }

    /// Closes the scope. At the outermost `leave`, if `overwrite` or
    /// `update` was indicated, state coordination is initiated (implicitly
    /// invoking the §4.3 protocol); `examine`-only scopes coordinate
    /// nothing.
    ///
    /// Returns the ticket of the initiated run, or `None` when no
    /// coordination was needed.
    ///
    /// # Errors
    ///
    /// In synchronous mode, [`CoordError::Invalidated`] when the proposal
    /// was vetoed (the working copy rolls back to the agreed state) and
    /// [`CoordError::Timeout`] when no outcome arrived in time; in all
    /// modes, scope-misuse and coordinator errors.
    pub fn leave(&mut self) -> Result<Option<CoordTicket>, CoordError> {
        self.require_scope()?;
        self.depth -= 1;
        if self.depth > 0 {
            return Ok(None);
        }
        let kind = self.kind.take();
        let working = self.working.take();
        let delta = self.pending_update.take();
        match kind {
            None | Some(AccessKind::Examine) => Ok(None),
            Some(AccessKind::Overwrite) => {
                let state = working.ok_or(CoordError::ScopeMisuse("no working state"))?;
                let object = self.object.clone();
                let ticket = self.access.with(move |c, ctx| {
                    let run = c.propose_overwrite(&object, state, ctx)?;
                    Ok::<_, CoordError>(c.ticket_for_run(&object, run))
                })?;
                self.finish_ticket(ticket)
            }
            Some(AccessKind::Update) => {
                let delta = delta.ok_or(CoordError::ScopeMisuse("no update delta"))?;
                let object = self.object.clone();
                let ticket = match self.mode {
                    // Synchronous callers block for this very round, so
                    // propose directly (unbatched — byte-identical to the
                    // pre-batching wire behaviour).
                    Mode::Synchronous => self.access.with(move |c, ctx| {
                        let run = c.propose_update(&object, delta, ctx)?;
                        Ok::<_, CoordError>(c.ticket_for_run(&object, run))
                    })?,
                    // Deferred and asynchronous callers pipeline: the
                    // update queues and may coalesce with concurrent
                    // submissions into one signed batched round.
                    Mode::DeferredSynchronous | Mode::Asynchronous => self
                        .access
                        .with(move |c, ctx| c.submit_update(&object, delta, ctx))?,
                };
                self.finish_ticket(ticket)
            }
        }
    }

    /// `syncCoord`: coordinates the current object state in one call —
    /// equivalent to `enter(); overwrite(); set_state(state); leave()`.
    ///
    /// # Errors
    ///
    /// As [`Controller::leave`].
    pub fn sync_coord(&mut self, state: Vec<u8>) -> Result<Option<CoordTicket>, CoordError> {
        self.enter()?;
        self.overwrite()?;
        self.set_state(state)?;
        self.leave()
    }

    fn finish_ticket(&self, ticket: TicketId) -> Result<Option<CoordTicket>, CoordError> {
        let ticket = CoordTicket { ticket };
        match self.mode {
            Mode::Synchronous => {
                self.coord_commit(ticket)?;
                Ok(Some(ticket))
            }
            Mode::DeferredSynchronous | Mode::Asynchronous => Ok(Some(ticket)),
        }
    }

    /// Blocks until the ticketed coordination completes
    /// (deferred-synchronous commit; also used internally by synchronous
    /// mode).
    ///
    /// # Errors
    ///
    /// [`CoordError::Invalidated`] if the run was vetoed (or the update
    /// failed before dispatch), [`CoordError::Timeout`] if no outcome
    /// arrived in time.
    pub fn coord_commit(&self, ticket: CoordTicket) -> Result<(), CoordError> {
        let id = ticket.ticket;
        let done = self.access.wait(self.timeout, move |c| has_outcome(c, &id));
        if !done {
            let run = self
                .run_of(ticket)
                .unwrap_or(RunId(b2b_crypto::sha256(b"undispatched")));
            return Err(CoordError::Timeout(run));
        }
        let outcome = self.poll(ticket).expect("outcome present after wait");
        match outcome {
            Outcome::Installed { .. } => Ok(()),
            Outcome::Invalidated { vetoers } => Err(CoordError::Invalidated { vetoers }),
            Outcome::Aborted { reason } => Err(CoordError::Invalidated {
                vetoers: vec![(PartyId::new("<aborted>"), reason)],
            }),
        }
    }

    /// Non-blocking outcome poll for a ticket.
    pub fn poll(&self, ticket: CoordTicket) -> Option<Outcome> {
        self.access.read(|c| c.outcome_of_ticket(&ticket.ticket))
    }

    /// Non-blocking, **idempotent** status poll for a ticket.
    ///
    /// Where [`Controller::poll`] cannot distinguish "unknown ticket"
    /// from "still queued" from "dispatched but undecided" (all `None`),
    /// this reports the full lifecycle, and a terminal status keeps
    /// being returned on every subsequent poll — with the veto reasons
    /// that previously surfaced only in the evidence log or the
    /// once-only event stream.
    pub fn poll_status(&self, ticket: CoordTicket) -> TicketStatus {
        self.access.read(|c| status_of(c, &ticket.ticket))
    }

    /// Blocks until the ticket reaches a terminal status or `timeout`
    /// elapses, then reports it ([`Controller::poll_status`]
    /// semantics). The long-poll primitive: waiting rides the group's
    /// condvar instead of a busy re-poll loop, so a thousand pollers
    /// cost nothing while rounds are in flight. A ticket that is
    /// requeued by the contention-retry path stays non-terminal and
    /// keeps the caller waiting.
    pub fn wait_terminal(&self, ticket: CoordTicket, timeout: Duration) -> TicketStatus {
        let mut status = self.wait_all_terminal(&[ticket], timeout);
        status.pop().expect("one status per ticket")
    }

    /// [`Controller::wait_terminal`] for several tickets of this
    /// controller's coordinator at once: one wait until every ticket is
    /// terminal (or unknown) or `timeout` elapses, then one read of all
    /// their statuses, in `tickets` order.
    pub fn wait_all_terminal(
        &self,
        tickets: &[CoordTicket],
        timeout: Duration,
    ) -> Vec<TicketStatus> {
        self.access
            .wait(timeout, |c| tickets.iter().all(|t| settled(c, &t.ticket)));
        self.access
            .read(|c| tickets.iter().map(|t| status_of(c, &t.ticket)).collect())
    }

    /// The protocol run carrying the ticketed update, once dispatched
    /// (`None` while the update still waits in the pending queue).
    pub fn run_of(&self, ticket: CoordTicket) -> Option<RunId> {
        self.access.read(|c| c.run_of_ticket(&ticket.ticket))
    }

    /// Blocks until no coordination run is active on the object (or the
    /// timeout elapses). Useful in synchronous mode before starting a
    /// scope: a peer's sync call may return while this replica is still
    /// finishing the same run, and proposing in that window earns a
    /// [`CoordError::Busy`].
    pub fn wait_idle(&self) -> Result<(), CoordError> {
        let object = self.object.clone();
        let idle = self.access.wait(self.timeout, move |c| !c.is_busy(&object));
        if idle {
            Ok(())
        } else {
            Err(CoordError::Busy {
                object: self.object.clone(),
            })
        }
    }

    /// The current agreed state bytes of the object.
    ///
    /// # Errors
    ///
    /// [`CoordError::UnknownObject`] if the object is not coordinated here.
    pub fn current_state(&self) -> Result<Vec<u8>, CoordError> {
        self.access
            .read(|c| c.agreed_state(&self.object))
            .ok_or_else(|| CoordError::UnknownObject(self.object.clone()))
    }

    /// Drains the coordination events (`coordCallback` stream) — the
    /// asynchronous mode's completion channel.
    pub fn take_events(&self) -> Vec<crate::decision::CoordEvent> {
        self.access.with(|c, _| c.take_events())
    }

    fn require_scope(&self) -> Result<(), CoordError> {
        if self.depth == 0 {
            Err(CoordError::ScopeMisuse("operation outside enter/leave"))
        } else {
            Ok(())
        }
    }
}

/// `ticket`'s [`TicketStatus`] at `c`.
fn status_of(c: &Coordinator, ticket: &TicketId) -> TicketStatus {
    match c.ticket_state(ticket) {
        None => TicketStatus::Unknown,
        Some(TicketState::Queued) => TicketStatus::Pending { run: None },
        Some(TicketState::Failed(_)) | Some(TicketState::Run(_)) => {
            match c.outcome_of_ticket(ticket) {
                None => TicketStatus::Pending {
                    run: c.run_of_ticket(ticket),
                },
                Some(Outcome::Installed { state }) => TicketStatus::Installed { state },
                Some(Outcome::Invalidated { vetoers }) => TicketStatus::Invalidated { vetoers },
                Some(Outcome::Aborted { reason }) => TicketStatus::Aborted { reason },
            }
        }
    }
}

/// Whether waiting on `ticket` at `c` is over: it is terminal, or unknown.
/// A wait re-runs this after every event on the slot, so it only looks;
/// the statuses are built once, when the wait ends.
fn settled(c: &Coordinator, ticket: &TicketId) -> bool {
    c.ticket_state(ticket).is_none() || has_outcome(c, ticket)
}

/// Whether [`Coordinator::outcome_of_ticket`] would answer, without
/// building the answer.
fn has_outcome(c: &Coordinator, ticket: &TicketId) -> bool {
    match c.ticket_state(ticket) {
        None | Some(TicketState::Queued) => false,
        Some(TicketState::Failed(_)) => true,
        Some(TicketState::Run(run)) => c.outcome_of(run).is_some(),
    }
}
