//! The per-party coordinator: the `B2BCoordinator` package of Figure 4.
//!
//! One [`Coordinator`] runs at each organisation. It owns the party's
//! replicas, executes the coordination protocols over a reliable-delivery
//! layer, maintains the non-repudiation log and state checkpoints, and
//! exposes the local operations the [`crate::controller`] builds on.
//!
//! The coordinator is an event-driven [`NetNode`], so the same engine runs
//! under the deterministic network simulator and the real-clock sharded
//! runtime.

use crate::config::{CoordinatorConfig, COMPLETED_REPLIES_CAP, REPLAY_WINDOW};
use crate::decision::{CoordEvent, CoordEventKind, Outcome};
use crate::detect::Misbehaviour;
use crate::error::CoordError;
use crate::ids::{GroupId, ObjectId, RunId, StateId};
use crate::messages::{ConnectRequestMsg, WireMsg, MIN_PARTY_BYTES};
use crate::object::B2BObject;
use crate::replica::{
    snapshot_decoder, ActiveRun, CoreDoc, Doc, QueuedRequest, Replica, SNAPSHOT_FORMAT,
};
use b2b_crypto::{
    sha256, CanonicalDecode, CanonicalEncode, DecodeError, Digest32, Encoder, KeyRing, PartyId,
    SecureRng, SigVerifyCache, Signature, Signer, TimeMs, TimeStampAuthority,
};
use b2b_evidence::{EvidenceKind, EvidenceRecord, EvidenceStore, SnapshotStore};
use b2b_net::reliable::Inbound;
use b2b_net::{NetNode, NodeCtx, ReliableMux};
use b2b_telemetry::{names, SpanIds, Telemetry, TraceContext};
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// Builds fresh application-object instances, used to reconstruct replicas
/// during crash recovery (the object's state is then re-installed from the
/// checkpoint). Factories model code and configuration, which survive
/// crashes; object *state* does not.
pub type ObjectFactory = Box<dyn Fn() -> Box<dyn B2BObject> + Send>;

/// Progress of this party's attempt to join an object's group.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ConnectStatus {
    /// Request sent; awaiting the sponsor's welcome or rejection.
    Pending,
    /// Admitted: the replica is installed and coordinated.
    Member,
    /// Rejected — immediately by the sponsor or by a member's veto; the
    /// two are indistinguishable to the subject (§4.5.3).
    Rejected,
}

/// The causal episode a coordinator is currently inside: one delivered
/// message, fired timer or client operation. Every trace event recorded
/// during the episode is stamped with its span, and every message sent
/// names that span as its causal parent — which is what lets the
/// assembler reconstruct a cross-node DAG from per-node flight recorders.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Episode {
    /// The distributed trace this episode belongs to (0 = untraced).
    trace_id: u64,
    /// The span allocated for this episode on this party.
    span_id: u64,
    /// The (possibly remote) span that caused this episode (0 for roots).
    parent_span: u64,
    /// Causal distance from the root, as carried on the incoming frame.
    hop: u8,
}

/// A connection attempt in progress at the subject.
pub(crate) struct PendingConnect {
    pub(crate) request: ConnectRequestMsg,
    pub(crate) sponsor: PartyId,
}

/// Handle for one application update submitted through
/// [`Coordinator::submit_update`].
///
/// A ticket survives batching: whether the update ends up coordinating
/// alone or coalesced with others into one signed round, the ticket resolves
/// to the round that carried it (or to a failure). Tickets are volatile —
/// they do not survive a crash, exactly like undecided run outcomes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TicketId(pub u64);

impl std::fmt::Display for TicketId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ticket-{}", self.0)
    }
}

/// Where a submitted update currently stands.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TicketState {
    /// Waiting in the pending queue for the next coordination round.
    Queued,
    /// Dispatched: the update rides (possibly batched) in this run.
    Run(RunId),
    /// Never dispatched — e.g. the update stopped being applicable to the
    /// state the group agreed in the meantime.
    Failed(String),
}

/// The pending-update queue of one object: updates accepted by
/// [`Coordinator::submit_updates`] but not yet carried by a round.
#[derive(Default)]
pub(crate) struct PendingUpdates {
    pub(crate) queue: Vec<(TicketId, Vec<u8>)>,
    /// The armed contention-retry holdoff timer, if any: while set, the
    /// queue is not flushed — requeued updates wait out a short jittered
    /// backoff so two colliding proposers desynchronise instead of
    /// re-colliding in lockstep.
    pub(crate) holdoff_timer: Option<u64>,
}

/// How many times one ticket's update is re-proposed after rounds lost
/// purely to the group's concurrency control before the ticket fails.
pub(crate) const MAX_TRANSIENT_RETRIES: u32 = 100;

/// Whether a veto reason is the systematic concurrency-control rejection
/// a recipient issues for a structurally honest proposal that merely
/// lost a race — a peer was mid-round, or an install beat this proposal
/// to the sequence number. These carry no application judgement, so the
/// proposer retries them (§3.3) instead of surfacing a veto.
pub(crate) fn is_transient_reject(reason: &str) -> bool {
    reason == "concurrent coordination run active"
        || reason == "predecessor is not the agreed state"
        || reason == "sequence number is not agreed + 1"
}

/// Decodes the `objects` index blob: [`SNAPSHOT_FORMAT`], then the object
/// aliases as a sequence of strings.
fn decode_object_index(bytes: &[u8]) -> Result<Vec<ObjectId>, DecodeError> {
    let mut dec = snapshot_decoder(bytes)?;
    let ids = b2b_crypto::canonical::decode_seq(&mut dec, MIN_PARTY_BYTES)?;
    dec.finish()?;
    Ok(ids)
}

/// Decodes the `pending-connects` blob: [`SNAPSHOT_FORMAT`], then a
/// sequence of `(object, sponsor, signed request)`.
fn decode_pending_connects(bytes: &[u8]) -> Result<Vec<(ObjectId, PendingConnect)>, DecodeError> {
    let mut dec = snapshot_decoder(bytes)?;
    let mut out = Vec::new();
    for _ in 0..dec.get_count(64)? {
        let object = ObjectId::decode(&mut dec)?;
        let sponsor = PartyId::decode(&mut dec)?;
        let request = ConnectRequestMsg::decode(&mut dec)?;
        out.push((object, PendingConnect { request, sponsor }));
    }
    dec.finish()?;
    Ok(out)
}

/// The B2BObjects coordinator for one party.
pub struct Coordinator {
    pub(crate) me: PartyId,
    pub(crate) signer: Arc<dyn Signer>,
    /// Shared: in a multi-group process every coordinator of every group
    /// holds the same `Arc`, so 10k groups pay for one ring, not 20k
    /// copies of every party's key.
    pub(crate) ring: Arc<KeyRing>,
    pub(crate) tsa: Option<TimeStampAuthority>,
    pub(crate) config: CoordinatorConfig,
    pub(crate) mux: ReliableMux,
    pub(crate) evidence: Arc<dyn EvidenceStore>,
    pub(crate) snapshots: Arc<dyn SnapshotStore>,
    pub(crate) rng: SecureRng,
    pub(crate) replicas: HashMap<ObjectId, Replica>,
    pub(crate) factories: HashMap<ObjectId, ObjectFactory>,
    pub(crate) pending_connects: HashMap<ObjectId, PendingConnect>,
    pub(crate) connect_status: HashMap<ObjectId, ConnectStatus>,
    pub(crate) outcomes: HashMap<RunId, Outcome>,
    pub(crate) events: Vec<CoordEvent>,
    pub(crate) msg_counts: BTreeMap<&'static str, u64>,
    pub(crate) detected: Vec<Misbehaviour>,
    pub(crate) deadline_timers: HashMap<u64, (ObjectId, RunId)>,
    pub(crate) ttp_cases: HashMap<RunId, crate::termination::TtpCase>,
    pub(crate) ttp_timers: HashMap<u64, RunId>,
    pub(crate) next_timer: u64,
    /// Per-object queues of updates accepted by [`Coordinator::submit_updates`]
    /// and awaiting a coordination round. Volatile (cleared on crash).
    pub(crate) pending_updates: HashMap<ObjectId, PendingUpdates>,
    /// Resolution state of every ticket handed out. Volatile.
    pub(crate) tickets: HashMap<TicketId, TicketState>,
    pub(crate) next_ticket: u64,
    /// Armed contention-retry holdoff timers, timer id → object.
    pub(crate) holdoff_timers: HashMap<u64, ObjectId>,
    /// How often each still-live ticket has been re-proposed after a round
    /// lost to the group's concurrency control. Entries are dropped when
    /// the ticket's run completes (or the ticket fails). Volatile.
    pub(crate) transient_retry: HashMap<TicketId, u32>,
    /// Optional worker pool for cross-group parallel signature
    /// verification. When absent, batch verification runs inline on the
    /// coordinator's thread (deterministic — the simulator never sets it).
    pub(crate) verify_pool: Option<Arc<b2b_crypto::VerifyPool>>,
    /// Bounded memo of signature checks that already succeeded, so a
    /// signature verified at m2 receipt is not cryptographically
    /// re-verified at m3 aggregation. `RefCell` because verification sites
    /// hold `&self`; the coordinator is single-threaded per event. Cleared
    /// on [`Coordinator::update_ring`] and on crash (volatile state).
    pub(crate) sig_cache: RefCell<SigVerifyCache>,
    pub(crate) telemetry: Telemetry,
    /// Virtual start time of runs this party is participating in, used to
    /// observe `round_latency_ms` when the run completes. Volatile.
    pub(crate) run_started: HashMap<RunId, TimeMs>,
    /// The causal episode currently being executed, if any. Set by
    /// [`Coordinator::begin_episode`]/[`Coordinator::begin_root`] around
    /// message dispatch, timer firings and client operations.
    pub(crate) episode: Option<Episode>,
    /// Monotone per-party span allocator; combined with [`Self::party_tag`]
    /// it yields fleet-unique span ids without coordination or randomness.
    pub(crate) span_counter: u64,
    /// A 32-bit tag of this party's id, the high half of every span id it
    /// allocates.
    pub(crate) party_tag: u32,
}

impl std::fmt::Debug for Coordinator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Coordinator")
            .field("me", &self.me)
            .field("objects", &self.replicas.keys().collect::<Vec<_>>())
            .finish()
    }
}

/// Builder for [`Coordinator`] (C-BUILDER).
pub struct CoordinatorBuilder {
    me: PartyId,
    signer: Arc<dyn Signer>,
    ring: Arc<KeyRing>,
    tsa: Option<TimeStampAuthority>,
    config: CoordinatorConfig,
    evidence: Option<Arc<dyn EvidenceStore>>,
    snapshots: Option<Arc<dyn SnapshotStore>>,
    seed: u64,
    telemetry: Telemetry,
    verify_pool: Option<Arc<b2b_crypto::VerifyPool>>,
}

impl CoordinatorBuilder {
    /// Registers the shared key ring (every party's verification key).
    pub fn ring(mut self, ring: KeyRing) -> CoordinatorBuilder {
        self.ring = Arc::new(ring);
        self
    }

    /// Registers an already-shared key ring. A multi-group fleet builds
    /// the ring once and hands every coordinator the same `Arc`.
    pub fn shared_ring(mut self, ring: Arc<KeyRing>) -> CoordinatorBuilder {
        self.ring = ring;
        self
    }

    /// Installs the trusted time-stamping authority handle.
    pub fn tsa(mut self, tsa: TimeStampAuthority) -> CoordinatorBuilder {
        self.tsa = Some(tsa);
        self
    }

    /// Overrides the default configuration.
    pub fn config(mut self, config: CoordinatorConfig) -> CoordinatorBuilder {
        self.config = config;
        self
    }

    /// Uses `store` for both the non-repudiation log and checkpoints.
    pub fn store<S>(mut self, store: Arc<S>) -> CoordinatorBuilder
    where
        S: EvidenceStore + SnapshotStore + 'static,
    {
        self.evidence = Some(store.clone() as Arc<dyn EvidenceStore>);
        self.snapshots = Some(store as Arc<dyn SnapshotStore>);
        self
    }

    /// Seeds the coordinator's random generator (reproducible runs).
    pub fn seed(mut self, seed: u64) -> CoordinatorBuilder {
        self.seed = seed;
        self
    }

    /// Attaches an observability handle (metrics registry + optional trace
    /// sink). Without this call the coordinator runs with a private,
    /// sink-less [`Telemetry`] — observably identical behaviour, nothing to
    /// read out.
    pub fn telemetry(mut self, telemetry: Telemetry) -> CoordinatorBuilder {
        self.telemetry = telemetry;
        self
    }

    /// Attaches a shared signature-verification worker pool. Batched
    /// verifications with enough cache misses are fanned out across the
    /// pool's threads; a pool shared by several coordinators (one per
    /// group) parallelises verification *across groups* too. Without this
    /// call, batch verification runs inline — same results, one thread.
    pub fn verify_pool(mut self, pool: Arc<b2b_crypto::VerifyPool>) -> CoordinatorBuilder {
        self.verify_pool = Some(pool);
        self
    }

    /// Builds the coordinator. Without an explicit store, an in-memory
    /// store is created (sufficient when crash-recovery is not exercised).
    pub fn build(self) -> Coordinator {
        let (evidence, snapshots) = match (self.evidence, self.snapshots) {
            (Some(e), Some(s)) => (e, s),
            _ => {
                let mem = Arc::new(b2b_evidence::MemStore::new());
                (
                    mem.clone() as Arc<dyn EvidenceStore>,
                    mem as Arc<dyn SnapshotStore>,
                )
            }
        };
        let mut rng = SecureRng::seeded(self.seed);
        let epoch = rng.next_u64();
        let mut mux = ReliableMux::new(self.config.retransmit_after, epoch);
        if let Some(max) = self.config.retransmit_max {
            mux = mux.with_retransmit_max(max);
        }
        mux.set_telemetry(self.telemetry.clone(), self.me.clone());
        let sig_cache = RefCell::new(SigVerifyCache::new(self.config.sig_cache_capacity));
        let party_tag = Coordinator::party_tag_of(&self.me);
        Coordinator {
            me: self.me,
            signer: self.signer,
            ring: self.ring,
            tsa: self.tsa,
            mux,
            config: self.config,
            evidence,
            snapshots,
            rng,
            replicas: HashMap::new(),
            factories: HashMap::new(),
            pending_connects: HashMap::new(),
            connect_status: HashMap::new(),
            outcomes: HashMap::new(),
            events: Vec::new(),
            msg_counts: BTreeMap::new(),
            detected: Vec::new(),
            deadline_timers: HashMap::new(),
            ttp_cases: HashMap::new(),
            ttp_timers: HashMap::new(),
            next_timer: 1,
            pending_updates: HashMap::new(),
            tickets: HashMap::new(),
            next_ticket: 1,
            holdoff_timers: HashMap::new(),
            transient_retry: HashMap::new(),
            verify_pool: self.verify_pool,
            sig_cache,
            telemetry: self.telemetry,
            run_started: HashMap::new(),
            episode: None,
            span_counter: 0,
            party_tag,
        }
    }
}

impl Coordinator {
    /// Starts building a coordinator for `me` signing with `signer`.
    ///
    /// # Example
    ///
    /// ```
    /// use b2b_core::Coordinator;
    /// use b2b_crypto::{KeyPair, PartyId};
    ///
    /// let kp = KeyPair::generate_from_seed(1);
    /// let coord = Coordinator::builder(PartyId::new("org1"), kp).seed(1).build();
    /// assert_eq!(coord.party().as_str(), "org1");
    /// ```
    pub fn builder(me: PartyId, signer: impl Signer + 'static) -> CoordinatorBuilder {
        CoordinatorBuilder {
            me,
            signer: Arc::new(signer),
            ring: Arc::new(KeyRing::new()),
            tsa: None,
            config: CoordinatorConfig::default(),
            evidence: None,
            snapshots: None,
            seed: 0,
            telemetry: Telemetry::default(),
            verify_pool: None,
        }
    }

    /// This coordinator's party identity.
    pub fn party(&self) -> &PartyId {
        &self.me
    }

    // -----------------------------------------------------------------
    // Object registration and queries
    // -----------------------------------------------------------------

    /// Registers a new shared object with this party as the sole group
    /// member. Other organisations join through the connection protocol.
    ///
    /// # Errors
    ///
    /// Returns [`CoordError::DuplicateObject`] if the alias is taken.
    pub fn register_object(
        &mut self,
        object_id: ObjectId,
        factory: ObjectFactory,
    ) -> Result<(), CoordError> {
        if self.replicas.contains_key(&object_id) || self.factories.contains_key(&object_id) {
            return Err(CoordError::DuplicateObject(object_id));
        }
        let object = factory();
        let state = object.get_state();
        let members = vec![self.me.clone()];
        let replica = Replica::new(
            object_id.clone(),
            object,
            members.clone(),
            GroupId::genesis(sha256(&self.rng.nonce()), &members),
            StateId::genesis(sha256(&self.rng.nonce()), &state),
            state,
        );
        self.factories.insert(object_id.clone(), factory);
        self.replicas.insert(object_id.clone(), replica);
        self.persist(&object_id);
        self.persist_index();
        Ok(())
    }

    /// Returns `true` if this party currently coordinates `object` as a
    /// group member.
    pub fn is_member(&self, object: &ObjectId) -> bool {
        self.replicas
            .get(object)
            .map(|r| !r.detached && r.is_member(&self.me))
            .unwrap_or(false)
    }

    /// The member list (join order) of `object`'s group, if known here.
    pub fn members(&self, object: &ObjectId) -> Option<Vec<PartyId>> {
        self.replicas.get(object).map(|r| r.members.clone())
    }

    /// The current group identifier of `object`, if known here.
    pub fn group(&self, object: &ObjectId) -> Option<GroupId> {
        self.replicas.get(object).map(|r| r.group)
    }

    /// The current connection sponsor for `object` (the most recently
    /// joined member), if known here.
    pub fn sponsor_of(&self, object: &ObjectId) -> Option<PartyId> {
        self.replicas.get(object).map(|r| r.sponsor().clone())
    }

    /// The agreed state tuple of `object`, if known here.
    pub fn agreed_id(&self, object: &ObjectId) -> Option<StateId> {
        self.replicas.get(object).map(|r| r.agreed)
    }

    /// The bytes of `object`'s current agreed state, if known here.
    pub fn agreed_state(&self, object: &ObjectId) -> Option<Vec<u8>> {
        self.replicas.get(object).map(|r| r.agreed_state.clone())
    }

    /// Whether a protocol run is currently active on `object`.
    pub fn is_busy(&self, object: &ObjectId) -> bool {
        self.replicas
            .get(object)
            .map(|r| r.active.is_some())
            .unwrap_or(false)
    }

    /// This party's replica of `object` — protocol bookkeeping included —
    /// for inspection by tests and tools.
    pub fn replica(&self, object: &ObjectId) -> Option<&Replica> {
        self.replicas.get(object)
    }

    /// Read-only access to the application object of `object`.
    pub fn object(&self, object: &ObjectId) -> Option<&dyn B2BObject> {
        self.replicas.get(object).map(|r| r.object.as_ref())
    }

    /// Pre-flight check: how would *this* party's own policy judge a
    /// transition to `proposed`? Useful before proposing — the protocol
    /// itself never self-validates, because "the proposer is committed to
    /// acceptance at initiation" (§4.3) and a dishonest proposer would
    /// skip any local check anyway.
    ///
    /// # Errors
    ///
    /// [`CoordError::UnknownObject`] if `object` is not coordinated here.
    pub fn validate_locally(
        &self,
        object: &ObjectId,
        proposed: &[u8],
    ) -> Result<crate::decision::Decision, CoordError> {
        let rep = self
            .replicas
            .get(object)
            .ok_or_else(|| CoordError::UnknownObject(object.clone()))?;
        Ok(rep
            .object
            .validate_state(&self.me, &rep.agreed_state, proposed))
    }

    /// The outcome of `run`, once this party has learnt it.
    pub fn outcome_of(&self, run: &RunId) -> Option<&Outcome> {
        self.outcomes.get(run)
    }

    /// Progress of this party's connection attempt to `object`.
    pub fn connect_status(&self, object: &ObjectId) -> Option<&ConnectStatus> {
        self.connect_status.get(object)
    }

    /// Drains the coordination events accumulated since the last call (the
    /// application-visible `coordCallback` stream).
    pub fn take_events(&mut self) -> Vec<CoordEvent> {
        std::mem::take(&mut self.events)
    }

    /// Protocol-level messages sent so far, by kind (excludes acks and
    /// retransmissions). Experiment E1 reads these counters.
    pub fn message_counts(&self) -> &BTreeMap<&'static str, u64> {
        &self.msg_counts
    }

    /// Total protocol-level messages sent so far.
    pub fn messages_sent(&self) -> u64 {
        self.msg_counts.values().sum()
    }

    /// Misbehaviour detected so far (also logged as evidence records).
    pub fn detected(&self) -> &[Misbehaviour] {
        &self.detected
    }

    /// The non-repudiation log of this party.
    pub fn evidence(&self) -> &Arc<dyn EvidenceStore> {
        &self.evidence
    }

    /// The observability handle this coordinator reports into.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    // -----------------------------------------------------------------
    // Internal plumbing shared by the protocol modules
    // -----------------------------------------------------------------

    // -----------------------------------------------------------------
    // Causal episodes (distributed tracing)
    // -----------------------------------------------------------------

    /// A stable 32-bit tag of a party id, the high half of its span ids.
    pub(crate) fn party_tag_of(me: &PartyId) -> u32 {
        let digest = sha256(me.as_str().as_bytes());
        u32::from_be_bytes(digest.as_bytes()[..4].try_into().expect("4 bytes"))
    }

    /// Derives a content-addressed root trace id from `parts`. Content —
    /// never randomness — so the same logical operation gets the same
    /// trace id on every fabric and every rerun, which is what makes
    /// sim-vs-TCP trace comparison possible.
    pub(crate) fn derive_root(parts: &[&[u8]]) -> u64 {
        let mut buf = Vec::new();
        for p in parts {
            buf.extend_from_slice(&(p.len() as u64).to_be_bytes());
            buf.extend_from_slice(p);
        }
        let digest = sha256(&buf);
        u64::from_be_bytes(digest.as_bytes()[..8].try_into().expect("8 bytes"))
    }

    /// The root trace id of a protocol run: the first eight bytes of its
    /// run id, which is itself a digest of the signed proposal.
    pub(crate) fn run_root(run: &RunId) -> u64 {
        u64::from_be_bytes(run.0.as_bytes()[..8].try_into().expect("8 bytes"))
    }

    /// Allocates the next span id. Allocation is unconditional on every
    /// episode — independent of whether a trace sink is attached — so
    /// attaching one never changes the bytes a coordinator puts on the
    /// wire.
    fn alloc_span(&mut self) -> u64 {
        self.span_counter += 1;
        ((self.party_tag as u64) << 32) | (self.span_counter & 0xffff_ffff)
    }

    /// Opens the episode for a delivered message carrying `incoming`.
    pub(crate) fn begin_episode(&mut self, incoming: TraceContext) {
        let span_id = self.alloc_span();
        self.episode = Some(Episode {
            trace_id: incoming.trace_id,
            span_id,
            parent_span: incoming.parent_span,
            hop: incoming.hop,
        });
    }

    /// Opens a root episode — a client operation, timer firing or recovery
    /// that *starts* a causal chain rather than continuing one.
    pub(crate) fn begin_root(&mut self, trace_id: u64) {
        let span_id = self.alloc_span();
        self.episode = Some(Episode {
            trace_id,
            span_id,
            parent_span: 0,
            hop: 0,
        });
    }

    /// Closes the current episode.
    pub(crate) fn end_episode(&mut self) {
        self.episode = None;
    }

    /// The trace context to stamp on outgoing frames: the current episode's
    /// span becomes the causal parent, one hop further from the root.
    pub(crate) fn outgoing_ctx(&self) -> TraceContext {
        match &self.episode {
            Some(e) if e.trace_id != 0 => TraceContext {
                trace_id: e.trace_id,
                parent_span: e.span_id,
                hop: e.hop.saturating_add(1),
            },
            _ => TraceContext::NONE,
        }
    }

    /// The id triple stamped on trace events recorded in this episode.
    pub(crate) fn span_ids(&self) -> SpanIds {
        match &self.episode {
            Some(e) if e.trace_id != 0 => SpanIds {
                trace_id: e.trace_id,
                span_id: e.span_id,
                parent_span: e.parent_span,
            },
            _ => SpanIds::default(),
        }
    }

    pub(crate) fn send_wire(&mut self, to: &PartyId, msg: &WireMsg, ctx: &mut NodeCtx) {
        *self.msg_counts.entry(msg.kind_name()).or_default() += 1;
        let trace = self.outgoing_ctx();
        self.mux.send_traced(to.clone(), msg.to_bytes(), trace, ctx);
    }

    /// Sends one wire message to every recipient, serializing it once: the
    /// reliable layer frames the shared bytes per peer, so an m1/m3 fanned
    /// out to n−1 members costs one encoding instead of n−1.
    pub(crate) fn send_wire_all(
        &mut self,
        recipients: &[PartyId],
        msg: &WireMsg,
        ctx: &mut NodeCtx,
    ) {
        if recipients.is_empty() {
            return;
        }
        let bytes = msg.to_bytes();
        *self.msg_counts.entry(msg.kind_name()).or_default() += recipients.len() as u64;
        self.telemetry.add(
            names::FANOUT_SERIALIZATIONS_AVOIDED,
            (recipients.len() - 1) as u64,
        );
        let trace = self.outgoing_ctx();
        for r in recipients {
            self.mux.send_traced(r.clone(), &bytes, trace, ctx);
        }
    }

    /// Verifies `sig` over `msg` against `party`'s registered key.
    ///
    /// `sig_verify_count` counts the *real* public-key operations; checks
    /// answered by the verification cache count under `sig_cache_hits`
    /// instead. A tampered byte, substituted signature or impersonated
    /// origin always misses the cache (the key binds all three), so §4.4
    /// detection is unaffected.
    pub(crate) fn verify_for(
        &self,
        party: &PartyId,
        msg: &[u8],
        sig: &Signature,
    ) -> Result<(), b2b_crypto::CryptoError> {
        self.verify_cached(party, msg, sha256(msg), sig)
    }

    /// As [`Coordinator::verify_for`], for callers that already hold the
    /// digest of `msg` (from a [`b2b_crypto::CachedCanonical`] memo) and
    /// need not re-hash.
    pub(crate) fn verify_cached(
        &self,
        party: &PartyId,
        msg: &[u8],
        digest: Digest32,
        sig: &Signature,
    ) -> Result<(), b2b_crypto::CryptoError> {
        if self.sig_cache.borrow_mut().check(party, &digest, sig) {
            self.telemetry.inc(names::SIG_CACHE_HITS);
            return Ok(());
        }
        self.telemetry.inc(names::SIG_VERIFY_COUNT);
        self.ring.verify_for(party, msg, sig)?;
        self.sig_cache
            .borrow_mut()
            .insert(party.clone(), digest, sig.clone());
        Ok(())
    }

    /// How many cache misses it takes before a batched verification is
    /// worth shipping to the worker pool (channel + wake-up overhead).
    const POOL_MIN_BATCH: usize = 4;

    /// Verifies a batch of `(party, message, digest, signature)` items,
    /// composing batch verification with the LRU cache:
    ///
    /// * items answered by the cache are excluded from the batch and count
    ///   under `sig_cache_hits`;
    /// * the remaining misses count under `sig_verify_count` (they are the
    ///   real cryptographic work) and — when there are at least two — are
    ///   checked by **one** [`b2b_crypto::verify_batch`] call, counted
    ///   under `sig_batch_verifies`, fanned out across the worker pool
    ///   when one is attached and the batch is large enough;
    /// * batch verification is all-or-nothing, so on failure each miss is
    ///   re-checked individually to *attribute* the fault — the returned
    ///   `PartyId` is the first offender (§4.4 detection is batch-size
    ///   independent);
    /// * verified signatures populate the cache exactly as the unbatched
    ///   path does, so later re-encounters are hits.
    pub(crate) fn verify_batch_cached(
        &self,
        items: &[(PartyId, Arc<[u8]>, Digest32, Signature)],
    ) -> Result<(), PartyId> {
        let mut misses: Vec<usize> = Vec::new();
        {
            let mut cache = self.sig_cache.borrow_mut();
            for (i, (party, _, digest, sig)) in items.iter().enumerate() {
                if cache.check(party, digest, sig) {
                    self.telemetry.inc(names::SIG_CACHE_HITS);
                } else {
                    misses.push(i);
                }
            }
        }
        if misses.is_empty() {
            return Ok(());
        }
        self.telemetry
            .add(names::SIG_VERIFY_COUNT, misses.len() as u64);
        let ok = if misses.len() >= 2 {
            self.telemetry.inc(names::SIG_BATCH_VERIFIES);
            match &self.verify_pool {
                Some(pool) if misses.len() >= Coordinator::POOL_MIN_BATCH => {
                    let mut owned = Vec::with_capacity(misses.len());
                    for &i in &misses {
                        let (party, msg, _, sig) = &items[i];
                        let Some(key) = self.ring.key_for(party) else {
                            return Err(party.clone());
                        };
                        owned.push((key.clone(), msg.clone(), sig.clone()));
                    }
                    pool.verify(owned)
                }
                _ => {
                    let mut borrowed = Vec::with_capacity(misses.len());
                    for &i in &misses {
                        let (party, msg, _, sig) = &items[i];
                        let Some(key) = self.ring.key_for(party) else {
                            return Err(party.clone());
                        };
                        borrowed.push((key, msg.as_ref(), sig));
                    }
                    b2b_crypto::verify_batch(&borrowed).is_ok()
                }
            }
        } else {
            let (party, msg, _, sig) = &items[misses[0]];
            self.ring.verify_for(party, msg, sig).is_ok()
        };
        if ok {
            let mut cache = self.sig_cache.borrow_mut();
            for &i in &misses {
                let (party, _, digest, sig) = &items[i];
                cache.insert(party.clone(), *digest, sig.clone());
            }
            return Ok(());
        }
        // All-or-nothing failed: fall back to per-item verification so the
        // fault is pinned on a signer, caching the innocents along the way.
        for &i in &misses {
            let (party, msg, digest, sig) = &items[i];
            match self.ring.verify_for(party, msg, sig) {
                Ok(()) => {
                    self.sig_cache
                        .borrow_mut()
                        .insert(party.clone(), *digest, sig.clone());
                }
                Err(_) => return Err(party.clone()),
            }
        }
        // The batch claimed failure but every item verifies individually —
        // per-item checks are ground truth, so accept.
        Ok(())
    }

    /// Signs `msg` and seeds the verification cache with our own signature,
    /// so re-encountering it (e.g. our response aggregated into an m3) is a
    /// cache hit rather than a self re-verification.
    pub(crate) fn sign_and_cache(&self, msg: &[u8], digest: Digest32) -> Signature {
        let sig = self.signer.sign(msg);
        self.sig_cache
            .borrow_mut()
            .insert(self.me.clone(), digest, sig.clone());
        sig
    }

    /// Replaces the key ring and flushes the signature-verification cache:
    /// a cached accept must not outlive the key material it was checked
    /// against (§4.4 — detection re-checks everything under new keys).
    pub fn update_ring(&mut self, ring: KeyRing) {
        self.ring = Arc::new(ring);
        self.sig_cache.borrow_mut().clear();
    }

    /// Returns `m1`'s memoized proposal bytes, counting memo hits.
    pub(crate) fn proposal_bytes_of(&self, m1: &crate::messages::ProposeMsg) -> Arc<[u8]> {
        if m1.memo.is_cached() {
            self.telemetry.inc(names::CANONICAL_CACHE_HITS);
        }
        m1.proposal_bytes()
    }

    /// Returns `m2`'s memoized response bytes, counting memo hits.
    pub(crate) fn response_bytes_of(&self, m2: &crate::messages::RespondMsg) -> Arc<[u8]> {
        if m2.memo.is_cached() {
            self.telemetry.inc(names::CANONICAL_CACHE_HITS);
        }
        m2.response_bytes()
    }

    /// Records a trace event under this party's label, stamped with the
    /// current episode's causal ids (untraced outside an episode).
    pub(crate) fn trace(
        &self,
        now: TimeMs,
        span: &str,
        phase: &str,
        detail: impl FnOnce() -> String,
    ) {
        self.telemetry.trace_span(
            now.as_millis(),
            self.me.as_str(),
            span,
            phase,
            self.span_ids(),
            detail,
        );
    }

    /// Notes that `run` started at `now` (for round-latency observation).
    pub(crate) fn note_run_started(&mut self, run: RunId, now: TimeMs) {
        self.run_started.entry(run).or_insert(now);
    }

    /// Observes the latency of `run` completing at `now`, if its start was
    /// recorded on this party.
    pub(crate) fn observe_run_latency(&mut self, run: &RunId, now: TimeMs) {
        if let Some(started) = self.run_started.remove(run) {
            self.telemetry.observe_ms(
                names::ROUND_LATENCY_MS,
                now.saturating_sub(started).as_millis(),
            );
        }
    }

    /// Appends an evidence record; timestamps it when a TSA is configured.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn log_evidence(
        &mut self,
        kind: EvidenceKind,
        object: &ObjectId,
        run: &str,
        origin: PartyId,
        payload: Vec<u8>,
        signature: Option<b2b_crypto::Signature>,
        now: TimeMs,
    ) {
        let timestamp = self.tsa.as_ref().map(|tsa| tsa.stamp(&payload, now));
        let record = EvidenceRecord::new(
            kind,
            object.as_str(),
            run,
            origin,
            payload,
            signature,
            timestamp,
            now,
        );
        // A full log is a liveness problem, not a safety one; surface
        // storage failures as diagnostics rather than panicking.
        match self.evidence.append(record) {
            Ok(_) => self.telemetry.inc(names::EVIDENCE_RECORDS_APPENDED),
            Err(e) => self.detected.push(Misbehaviour::UnexpectedMessage {
                detail: format!("evidence log append failed: {e}"),
            }),
        }
    }

    /// Flushes a group-commit evidence batch at a protocol-step boundary
    /// (no-op for durable-per-append stores). Called at the end of every
    /// message/timer delivery and client operation, so a batch never spans
    /// the externally visible effects of a step.
    pub(crate) fn flush_evidence(&mut self) {
        if let Err(e) = self.evidence.flush() {
            self.detected.push(Misbehaviour::UnexpectedMessage {
                detail: format!("evidence flush failed: {e}"),
            });
        }
    }

    pub(crate) fn log_misbehaviour(
        &mut self,
        object: &ObjectId,
        run: &str,
        m: Misbehaviour,
        now: TimeMs,
    ) {
        let payload = m.canonical_bytes();
        self.log_evidence(
            EvidenceKind::Misbehaviour,
            object,
            run,
            self.me.clone(),
            payload,
            None,
            now,
        );
        self.detected.push(m);
    }

    pub(crate) fn emit(
        &mut self,
        object: &ObjectId,
        run: RunId,
        kind: CoordEventKind,
        now: TimeMs,
    ) {
        let event = CoordEvent {
            object: object.clone(),
            run,
            event: kind,
            at: now,
        };
        if let Some(rep) = self.replicas.get_mut(object) {
            rep.object.coord_callback(&event);
        }
        self.events.push(event);
    }

    /// Checkpoints `object`: writes the checkpoint documents this step
    /// made stale, and only those, in the order
    /// [`Replica::take_stale_docs`] fixes. A document whose write fails
    /// stays stale and is retried by the next checkpoint.
    pub(crate) fn persist(&mut self, object: &ObjectId) {
        let Some(rep) = self.replicas.get_mut(object) else {
            return;
        };
        for (doc, blob) in rep.take_stale_docs(COMPLETED_REPLIES_CAP) {
            let key = match doc {
                Doc::Reply { slot, .. } => format!("obj-{object}-reply-{slot}"),
                Doc::Core => format!("obj-{object}"),
            };
            if let Err(e) = self.snapshots.put_snapshot(&key, blob) {
                rep.mark_stale(doc);
                self.detected.push(Misbehaviour::UnexpectedMessage {
                    detail: format!("checkpoint write of {key} failed: {e}"),
                });
            }
        }
        #[cfg(debug_assertions)]
        self.assert_checkpoint_current(object);
    }

    /// Debug builds check the dirty tracking on every checkpoint: when
    /// `persist` did not rewrite the core document, the store must already
    /// hold it exactly as it would be written now. A mutation that forgets
    /// to mark the document stale fails here, in whichever test first
    /// reaches it.
    #[cfg(debug_assertions)]
    fn assert_checkpoint_current(&self, object: &ObjectId) {
        let Some(rep) = self.replicas.get(object) else {
            return;
        };
        if !rep.core_is_stale() {
            assert_eq!(
                self.snapshots.get_snapshot(&format!("obj-{object}")),
                Some(rep.core_doc()),
                "core document of {object} is stale but was not marked"
            );
        }
    }

    pub(crate) fn persist_index(&mut self) {
        let mut enc = Encoder::new();
        enc.put_u8(SNAPSHOT_FORMAT);
        enc.put_u64(self.replicas.len() as u64);
        for id in self.replicas.keys() {
            id.encode(&mut enc);
        }
        let _ = self.snapshots.put_snapshot("objects", enc.finish());
        let mut enc = Encoder::new();
        enc.put_u8(SNAPSHOT_FORMAT);
        enc.put_u64(self.pending_connects.len() as u64);
        for (object, p) in &self.pending_connects {
            object.encode(&mut enc);
            p.sponsor.encode(&mut enc);
            p.request.encode(&mut enc);
        }
        let _ = self
            .snapshots
            .put_snapshot("pending-connects", enc.finish());
    }

    /// Arms the proposer-side run deadline, when configured.
    pub(crate) fn arm_deadline(&mut self, object: &ObjectId, run: RunId, ctx: &mut NodeCtx) {
        if let Some(deadline) = self.config.run_deadline {
            let id = self.next_timer;
            self.next_timer += 1;
            self.deadline_timers.insert(id, (object.clone(), run));
            ctx.set_timer(id, deadline);
        }
    }

    fn dispatch(&mut self, from: &PartyId, msg: WireMsg, ctx: &mut NodeCtx) {
        match msg {
            WireMsg::Propose(m) => self.on_propose(from, m, ctx),
            WireMsg::Respond(m) => self.on_respond(from, m, ctx),
            WireMsg::Decide(m) => self.on_decide(from, m, ctx),
            WireMsg::ConnectRequest(m) => self.on_connect_request(from, m, ctx),
            WireMsg::ConnectPropose(m) => self.on_connect_propose(from, m, ctx),
            WireMsg::MemberRespond(m) => self.on_member_respond(from, m, ctx),
            WireMsg::MemberDecide(m) => self.on_member_decide(from, m, ctx),
            WireMsg::Welcome(m) => self.on_welcome(from, m, ctx),
            WireMsg::ConnectReject(m) => self.on_connect_reject(from, m, ctx),
            WireMsg::DisconnectRequest(m) => self.on_disconnect_request(from, m, ctx),
            WireMsg::DisconnectPropose(m) => self.on_disconnect_propose(from, m, ctx),
            WireMsg::DisconnectAck(m) => self.on_disconnect_ack(from, m, ctx),
            WireMsg::DisconnectReject(m) => self.on_disconnect_reject(from, m, ctx),
            WireMsg::TtpResolve(m) => self.on_ttp_resolve(from, m, ctx),
            WireMsg::TtpEvidenceRequest(m) => self.on_ttp_evidence_request(from, m, ctx),
            WireMsg::TtpEvidence(m) => self.on_ttp_evidence(from, m, ctx),
            WireMsg::TtpResolution(m) => self.on_ttp_resolution(from, m, ctx),
        }
    }

    // -----------------------------------------------------------------
    // Crash recovery
    // -----------------------------------------------------------------

    fn recover_from_storage(&mut self, ctx: &mut NodeCtx) {
        // Recovery is a root cause of its own: the resumed-run resends it
        // triggers all hang off one recovery trace for this party.
        self.begin_root(Coordinator::derive_root(&[
            b"recovery",
            self.me.as_str().as_bytes(),
        ]));
        self.trace(ctx.now(), "recovery", "begin", || {
            "restoring replicas from checkpoints".to_string()
        });
        // Fresh reliable-layer incarnation so peers do not confuse our
        // restarted sequence numbers with pre-crash traffic.
        let epoch = self.rng.next_u64();
        let mut mux = ReliableMux::new(self.config.retransmit_after, epoch);
        if let Some(max) = self.config.retransmit_max {
            mux = mux.with_retransmit_max(max);
        }
        self.mux = mux;
        self.mux
            .set_telemetry(self.telemetry.clone(), self.me.clone());

        let ids = self
            .snapshots
            .get_snapshot("objects")
            .and_then(|b| decode_object_index(&b).ok())
            .unwrap_or_default();
        for object_id in ids {
            let Some(core) = self
                .snapshots
                .get_snapshot(&format!("obj-{object_id}"))
                .and_then(|b| CoreDoc::from_bytes(&b).ok())
            else {
                continue;
            };
            let Some(factory) = self.factories.get(&object_id) else {
                continue;
            };
            let replica = Replica::restore(
                object_id.clone(),
                factory(),
                core,
                COMPLETED_REPLIES_CAP,
                REPLAY_WINDOW,
                |slot| {
                    self.snapshots
                        .get_snapshot(&format!("obj-{object_id}-reply-{slot}"))
                },
            );
            self.replicas.insert(object_id.clone(), replica);
            self.resume_run(&object_id, ctx);
        }
        // Pending connection attempts (no replica yet at the subject).
        let pending = self
            .snapshots
            .get_snapshot("pending-connects")
            .and_then(|b| decode_pending_connects(&b).ok())
            .unwrap_or_default();
        for (object, p) in pending {
            if self.replicas.contains_key(&object) {
                continue; // welcomed before the crash
            }
            let msg = WireMsg::ConnectRequest(p.request.clone());
            self.send_wire(&p.sponsor.clone(), &msg, ctx);
            self.connect_status
                .insert(object.clone(), ConnectStatus::Pending);
            self.pending_connects.insert(object, p);
        }
        self.trace(ctx.now(), "recovery", "done", || {
            format!("replicas={}", self.replicas.len())
        });
        self.end_episode();
    }

    /// Re-sends the in-flight message(s) of a persisted active run.
    fn resume_run(&mut self, object: &ObjectId, ctx: &mut NodeCtx) {
        let Some(rep) = self.replicas.get(object) else {
            return;
        };
        let me = self.me.clone();
        match rep.active.clone() {
            None => {}
            Some(ActiveRun::Proposer(run)) => {
                let recipients = rep.recipients(&me);
                if let Some(decide) = &run.decided {
                    let msg = WireMsg::Decide(decide.clone());
                    self.send_wire_all(&recipients, &msg, ctx);
                } else {
                    let msg = WireMsg::Propose(run.propose.clone());
                    let pending: Vec<PartyId> = recipients
                        .into_iter()
                        .filter(|r| !run.responses.contains_key(r))
                        .collect();
                    self.send_wire_all(&pending, &msg, ctx);
                }
            }
            Some(ActiveRun::Recipient(run)) => {
                let proposer = run.propose.proposal.proposer.clone();
                let msg = WireMsg::Respond(run.my_response.clone());
                self.send_wire(&proposer, &msg, ctx);
            }
            Some(ActiveRun::Sponsor(run)) => {
                self.resume_sponsor_run(object, run, ctx);
            }
            Some(ActiveRun::Member(run)) => {
                let sponsor = match &run.change {
                    crate::replica::MembershipChange::Connect { propose, .. } => {
                        propose.proposal.sponsor.clone()
                    }
                    crate::replica::MembershipChange::Disconnect { propose, .. } => {
                        propose.proposal.sponsor.clone()
                    }
                };
                let msg = WireMsg::MemberRespond(run.my_response.clone());
                self.send_wire(&sponsor, &msg, ctx);
            }
            Some(ActiveRun::Leaving(run)) => {
                let msg = WireMsg::DisconnectRequest(run.request.clone());
                self.send_wire(&run.sponsor.clone(), &msg, ctx);
            }
        }
    }

    /// Answers a duplicate or post-recovery retransmission of a message
    /// belonging to an already-completed run. Returns `true` if handled.
    pub(crate) fn replay_completed_reply(
        &mut self,
        object: &ObjectId,
        run: &RunId,
        to: &PartyId,
        ctx: &mut NodeCtx,
    ) -> bool {
        let reply = self
            .replicas
            .get(object)
            .and_then(|r| r.completed_reply(run));
        match reply {
            Some(msg) => {
                self.send_wire(to, &msg, ctx);
                true
            }
            None => false,
        }
    }

    /// Runs the next queued membership request, if the object is idle;
    /// failing that, flushes any pending application updates. Membership
    /// changes take priority so a join/leave queued behind a stream of
    /// updates is not starved by batching.
    pub(crate) fn pump_queue(&mut self, object: &ObjectId, ctx: &mut NodeCtx) {
        loop {
            let next = {
                let Some(rep) = self.replicas.get_mut(object) else {
                    return;
                };
                if rep.active.is_some() {
                    return;
                }
                match rep.dequeue_request() {
                    Some(next) => next,
                    None => break,
                }
            };
            let started = match next {
                QueuedRequest::Connect(req) => {
                    let from = req.request.subject.clone();
                    self.sponsor_connect(&from, req, ctx)
                }
                QueuedRequest::Disconnect(req) => {
                    let from = req.request.proposer.clone();
                    self.sponsor_disconnect(&from, req, ctx)
                }
            };
            // If the request started a run we are done; if it was answered
            // immediately (e.g. rejected), try the next queued request.
            if started {
                return;
            }
        }
        self.flush_pending_updates(object, ctx);
    }

    // -----------------------------------------------------------------
    // Pipelined update submission (batched rounds)
    // -----------------------------------------------------------------

    /// Submits one application update: [`Coordinator::submit_updates`]
    /// with a single update, returning its ticket.
    ///
    /// # Errors
    ///
    /// As for [`Coordinator::submit_updates`].
    pub fn submit_update(
        &mut self,
        object: &ObjectId,
        update: Vec<u8>,
        ctx: &mut NodeCtx,
    ) -> Result<TicketId, CoordError> {
        Ok(self.submit_updates(object, vec![update], ctx)?[0])
    }

    /// Submits application updates for coordination without waiting for
    /// the object to go idle. Every update is ticketed and enqueued before
    /// the queue is flushed, and the queue has one dispatch rule: it is
    /// flushed when the object is idle, otherwise when the active round
    /// completes. A flush coalesces up to [`CoordinatorConfig::batch_max`]
    /// pending updates into **one** signed coordination round, so a bulk
    /// submitted while idle rides ⌈n / `batch_max`⌉ rounds. Each returned
    /// ticket resolves to the run that carried its update (see
    /// [`Coordinator::outcome_of_ticket`]).
    ///
    /// # Errors
    ///
    /// * [`CoordError::UnknownObject`] / [`CoordError::NotMember`] as for
    ///   a direct proposal.
    /// * [`CoordError::Busy`] when the updates do not all fit under
    ///   [`CoordinatorConfig::pending_updates_max`] — backpressure: nothing
    ///   is enqueued, and the caller should retry after outstanding rounds
    ///   complete.
    pub fn submit_updates(
        &mut self,
        object: &ObjectId,
        updates: Vec<Vec<u8>>,
        ctx: &mut NodeCtx,
    ) -> Result<Vec<TicketId>, CoordError> {
        {
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
        }
        let pending = self.pending_updates.entry(object.clone()).or_default();
        if pending.queue.len() + updates.len() > self.config.pending_updates_max {
            return Err(CoordError::Busy {
                object: object.clone(),
            });
        }
        let mut tickets = Vec::with_capacity(updates.len());
        for update in updates {
            let ticket = TicketId(self.next_ticket);
            self.next_ticket += 1;
            pending.queue.push((ticket, update));
            tickets.push(ticket);
        }
        for &ticket in &tickets {
            self.tickets.insert(ticket, TicketState::Queued);
        }
        self.flush_pending_updates(object, ctx);
        Ok(tickets)
    }

    /// Arms a short, jittered contention holdoff on `object`'s pending
    /// queue: requeued updates re-propose only after it fires, so two
    /// proposers that just collided are unlikely to collide again in
    /// lockstep (randomised backoff; the jitter comes from this party's
    /// own seeded rng, keeping simulation runs deterministic).
    pub(crate) fn arm_retry_holdoff(&mut self, object: &ObjectId, ctx: &mut NodeCtx) {
        let already = self
            .pending_updates
            .get(object)
            .map(|p| p.holdoff_timer.is_some())
            .unwrap_or(false);
        if already {
            return;
        }
        let id = self.next_timer;
        self.next_timer += 1;
        self.holdoff_timers.insert(id, object.clone());
        if let Some(p) = self.pending_updates.get_mut(object) {
            p.holdoff_timer = Some(id);
        }
        let jitter_ms = 1 + (self.rng.nonce()[0] % 8) as u64;
        ctx.set_timer(id, b2b_crypto::TimeMs(jitter_ms));
    }

    /// Coalesces the pending updates of `object` into the next coordination
    /// round, if the object is idle: up to `batch_max` updates become one
    /// signed proposal (a singleton flush is byte-identical to a direct
    /// [`propose_update`](crate::Coordinator) call). Updates that no longer
    /// apply to the evolved state fail their tickets without sinking the
    /// rest of the chunk.
    pub(crate) fn flush_pending_updates(&mut self, object: &ObjectId, ctx: &mut NodeCtx) {
        if self
            .pending_updates
            .get(object)
            .map(|p| p.holdoff_timer.is_some())
            .unwrap_or(false)
        {
            return; // contention backoff armed: the holdoff timer flushes
        }
        loop {
            let busy = self
                .replicas
                .get(object)
                .map(|r| r.active.is_some())
                .unwrap_or(true);
            if busy {
                return;
            }
            let chunk: Vec<(TicketId, Vec<u8>)> = {
                let Some(p) = self.pending_updates.get_mut(object) else {
                    return;
                };
                if p.queue.is_empty() {
                    return;
                }
                let n = p.queue.len().min(self.config.batch_max);
                p.queue.drain(..n).collect()
            };
            // Apply each update to the evolving state, so one inapplicable
            // update fails its own ticket instead of aborting the whole
            // chunk's round; what applies is proposed as applied here.
            let (tids, chunk): (Vec<TicketId>, Vec<Vec<u8>>) = chunk.into_iter().unzip();
            let rep = self.replicas.get(object).expect("screened above");
            let (chain, state) =
                crate::proto_state::chain_links(rep.object.as_ref(), &rep.agreed_state, &chunk);
            let mut updates = Vec::with_capacity(chunk.len());
            let mut links = Vec::with_capacity(chunk.len());
            let mut ids = Vec::with_capacity(chunk.len());
            for ((tid, u), link) in tids.into_iter().zip(chunk).zip(chain) {
                match link {
                    Ok(link) => {
                        links.push(link);
                        ids.push(tid);
                        updates.push(u);
                    }
                    Err(reason) => {
                        self.tickets.insert(
                            tid,
                            TicketState::Failed(format!("update not applicable: {reason}")),
                        );
                    }
                }
            }
            let Some(state) = state else {
                continue; // whole chunk screened out; try the next one
            };
            match self.propose_applied(object, updates, links, state, ctx) {
                Ok(run) => {
                    for tid in ids {
                        self.tickets.insert(tid, TicketState::Run(run));
                    }
                    return;
                }
                Err(e) => {
                    let reason = e.to_string();
                    for tid in ids {
                        self.tickets
                            .insert(tid, TicketState::Failed(reason.clone()));
                    }
                }
            }
        }
    }

    /// Wraps an already-started run in a ticket, so callers that proposed
    /// directly (overwrite, synchronous update) and callers that went
    /// through the pending queue poll one uniform handle.
    pub fn ticket_for_run(&mut self, run: RunId) -> TicketId {
        let ticket = TicketId(self.next_ticket);
        self.next_ticket += 1;
        self.tickets.insert(ticket, TicketState::Run(run));
        ticket
    }

    /// Where `ticket` currently stands, if known.
    pub fn ticket_state(&self, ticket: &TicketId) -> Option<&TicketState> {
        self.tickets.get(ticket)
    }

    /// The run that carried `ticket`'s update, once dispatched.
    pub fn run_of_ticket(&self, ticket: &TicketId) -> Option<RunId> {
        match self.tickets.get(ticket) {
            Some(TicketState::Run(run)) => Some(*run),
            _ => None,
        }
    }

    /// The outcome of `ticket`'s update, once this party has learnt it.
    /// A ticket that failed before dispatch (inapplicable update, proposal
    /// error) reports as [`Outcome::Aborted`] with the failure reason.
    pub fn outcome_of_ticket(&self, ticket: &TicketId) -> Option<Outcome> {
        match self.tickets.get(ticket)? {
            TicketState::Queued => None,
            TicketState::Run(run) => self.outcomes.get(run).cloned(),
            TicketState::Failed(reason) => Some(Outcome::Aborted {
                reason: reason.clone(),
            }),
        }
    }

    /// How many submitted updates are still waiting (not yet dispatched)
    /// on `object`.
    pub fn pending_update_count(&self, object: &ObjectId) -> usize {
        self.pending_updates
            .get(object)
            .map(|p| p.queue.len())
            .unwrap_or(0)
    }
}

impl NetNode for Coordinator {
    fn id(&self) -> PartyId {
        self.me.clone()
    }

    fn on_message(&mut self, from: &PartyId, payload: &[u8], ctx: &mut NodeCtx) {
        match self.mux.on_message(from, payload, ctx) {
            Inbound::Deliver(bytes, trace) => {
                // One delivered message = one causal episode: every trace
                // event and outgoing frame below cites it as parent.
                self.begin_episode(trace);
                match WireMsg::from_bytes(&bytes) {
                    Some(msg) => self.dispatch(from, msg, ctx),
                    None => {
                        let object = ObjectId::new("?");
                        self.log_misbehaviour(
                            &object,
                            "",
                            Misbehaviour::UnexpectedMessage {
                                detail: format!("undecodable payload from {from}"),
                            },
                            ctx.now(),
                        );
                    }
                }
                self.end_episode();
            }
            Inbound::Duplicate | Inbound::Ack => {}
            Inbound::Malformed => {
                // Foreign or corrupted traffic below the protocol layer.
            }
        }
        self.flush_evidence();
    }

    fn on_timer(&mut self, timer: u64, ctx: &mut NodeCtx) {
        if self.mux.on_timer(timer, ctx) && timer >= b2b_net::RELIABLE_TIMER_BASE {
            return;
        }
        if let Some((object, run)) = self.deadline_timers.remove(&timer) {
            // The deadline continues the run's trace as a second root —
            // the appeal/abort it triggers stays in the round's DAG.
            self.begin_root(Coordinator::run_root(&run));
            self.on_run_deadline(&object, run, ctx);
            self.end_episode();
        }
        if let Some(run) = self.ttp_timers.remove(&timer) {
            self.begin_root(Coordinator::run_root(&run));
            self.on_ttp_timer(run, ctx);
            self.end_episode();
        }
        if let Some(object) = self.holdoff_timers.remove(&timer) {
            let armed = self
                .pending_updates
                .get_mut(&object)
                .map(|p| {
                    if p.holdoff_timer == Some(timer) {
                        p.holdoff_timer = None;
                        true
                    } else {
                        false
                    }
                })
                .unwrap_or(false);
            if armed {
                self.begin_root(Coordinator::derive_root(&[
                    b"retry-holdoff",
                    self.me.as_str().as_bytes(),
                    object.as_str().as_bytes(),
                    &timer.to_be_bytes(),
                ]));
                self.flush_pending_updates(&object, ctx);
                self.end_episode();
            }
        }
        self.flush_evidence();
    }

    fn on_crash(&mut self) {
        // Volatile state is lost; the evidence log, checkpoints, key
        // material, object factories — and the telemetry handle, which
        // models an external observer — survive.
        self.replicas.clear();
        self.pending_connects.clear();
        self.connect_status.clear();
        self.outcomes.clear();
        self.events.clear();
        self.deadline_timers.clear();
        self.ttp_cases.clear();
        self.ttp_timers.clear();
        self.pending_updates.clear();
        self.tickets.clear();
        self.holdoff_timers.clear();
        self.transient_retry.clear();
        self.run_started.clear();
        self.sig_cache.borrow_mut().clear();
        // The episode dies with the crash; the span allocator survives so
        // post-recovery spans never collide with pre-crash ones.
        self.episode = None;
    }

    fn on_recover(&mut self, ctx: &mut NodeCtx) {
        self.recover_from_storage(ctx);
        self.flush_evidence();
    }
}
