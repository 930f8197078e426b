//! Coordinator configuration.

use b2b_crypto::TimeMs;
use serde::{Deserialize, Serialize};

/// Replay-detection window: how many proposal tuples / run labels at or
/// below the agreed sequence number are retained after an installation.
/// Tuples older than the window are pruned — they are still rejected (the
/// sequence check requires `seq == agreed.seq + 1`), only the misbehaviour
/// label degrades from `ReplayedProposal` to the generic sequence
/// complaint. Bounds the per-replica snapshot size, which otherwise grows
/// without bound across runs.
pub(crate) const REPLAY_WINDOW: u64 = 64;

/// How many completed-run re-replies are retained for duplicate and
/// post-recovery retransmissions. Oldest entries are dropped first; a peer
/// that retransmits a run older than this simply gets silence and recovers
/// through the normal state-transfer path.
pub(crate) const COMPLETED_REPLIES_CAP: usize = 64;

/// How the group decision over responses is computed.
///
/// The base protocol requires unanimity (§4.1); majority decision is the
/// §7 termination extension ("automatic resolution or abort by resorting to
/// majority decision on state changes").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DecisionRule {
    /// "A new state is valid if the collective decision is unanimous
    /// agreement to the change" (§3).
    Unanimous,
    /// Extension: a strict majority of *all group members* (proposer
    /// included, who by definition accepts) validates the change even if a
    /// minority rejects or stays silent past the deadline.
    Majority,
}

/// Mutation-testing switches that disable individual §4.2 acceptance
/// checks in `on_propose`.
///
/// These exist **only** so the `b2b-check` schedule explorer can prove its
/// oracles have teeth: with one invariant check ablated, the explorer must
/// find and shrink a schedule on which the protocol installs divergent or
/// ill-founded state; with all flags `false` (the default, and the only
/// supported production setting) the same schedules must pass clean.
/// Nothing in the middleware ever sets these outside checker builds.
/// Serializable so a `b2b-check` counterexample artifact records exactly
/// which ablation it was found under.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MutationFlags {
    /// Skip the replay checks: a proposal reusing an already-seen run
    /// label or `(seq, rand_hash)` tuple is accepted instead of being
    /// flagged as `ReplayedProposal`/`ReusedTuple` misbehaviour.
    pub skip_replay: bool,
    /// Skip invariant 1 (§4.2): a proposal whose `prev` does not equal the
    /// recipient's agreed state is no longer rejected with
    /// `PredecessorMismatch`.
    pub skip_predecessor: bool,
    /// Skip invariant 3 (§4.2): a proposal whose new sequence number is
    /// not exactly `agreed.seq + 1` is no longer rejected with
    /// `SequenceNotGreater`.
    pub skip_sequence: bool,
    /// Skip the per-update hash-chain checks inside a batched proposal: a
    /// batch whose link digests do not match the replayed updates (or whose
    /// final link disagrees with the proposed tuple) is no longer rejected
    /// with `BatchedUpdateMismatch`.
    pub skip_batch_chain: bool,
}

impl MutationFlags {
    /// `true` when any check is ablated.
    pub fn any(&self) -> bool {
        self.skip_replay || self.skip_predecessor || self.skip_sequence || self.skip_batch_chain
    }
}

/// Tunables of a [`crate::Coordinator`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CoordinatorConfig {
    /// Base retransmission interval of the reliable-delivery layer: the
    /// delay before a frame's *first* retransmission.
    pub retransmit_after: TimeMs,
    /// Ceiling of the reliable layer's exponential retransmission backoff.
    /// The delay doubles from `retransmit_after` on every further
    /// unacknowledged retransmission of the same frame until it reaches
    /// this cap, so a long partition produces a bounded probe trickle
    /// rather than a constant-rate storm. `None` keeps the layer's default
    /// cap of 32 × `retransmit_after`.
    pub retransmit_max: Option<TimeMs>,
    /// Reject proposals whose new state equals the current agreed state
    /// (§4.4: recipients "can reject a null state transition").
    pub reject_null_transitions: bool,
    /// Unanimity (paper) or majority (§7 extension).
    pub decision_rule: DecisionRule,
    /// §7 extension: a trusted third party to appeal to when a run passes
    /// its deadline under the unanimous rule. The TTP certifies an abort —
    /// or a decision, when the proposer can present a complete response
    /// set — and distributes it to every member, so "all honest parties
    /// terminate with the same view of agreed state". `None` (with a
    /// deadline) aborts locally at the proposer only.
    pub ttp: Option<b2b_crypto::PartyId>,
    /// Optional deadline after which a proposer with an incomplete response
    /// set invokes the §7 termination extension (TTP-certified abort, or a
    /// majority decision under [`DecisionRule::Majority`]). `None` keeps
    /// the paper's base behaviour: a blocked run stays blocked and is
    /// surfaced to the application.
    pub run_deadline: Option<TimeMs>,
    /// Capacity of the signature-verification cache: how many distinct
    /// `(party, digest, signature)` triples whose verification already
    /// succeeded are remembered, so a signature checked at m2 receipt is
    /// not re-verified at m3 aggregation. `0` disables the cache (every
    /// verification does the full public-key operation). The cache never
    /// changes what is *accepted* — a tampered byte yields a different
    /// digest and always misses — and it is cleared whenever the key ring
    /// changes (see [`crate::Coordinator::update_ring`]).
    pub sig_cache_capacity: usize,
    /// Maximum number of pending application updates coalesced into one
    /// signed state-coordination round (`k`). An idle coordinator flushes
    /// its queue at once; while a round is in flight, further submissions
    /// queue, and when the round completes up to `batch_max` queued updates
    /// are coordinated as one batch — one canonical digest, one signature,
    /// one multicast, one evidence record. `1` disables batching (every
    /// update pays its own round).
    pub batch_max: usize,
    /// Bound on the pending-update queue (backpressure for
    /// `DeferredSynchronous`/`Asynchronous` callers): a submission that
    /// would queue more than this many not-yet-proposed updates fails with
    /// `CoordError::Busy` instead of growing memory without bound.
    pub pending_updates_max: usize,
    /// Mutation-testing ablations of the §4.2 acceptance checks. All
    /// `false` in any real deployment; see [`MutationFlags`].
    pub mutation: MutationFlags,
}

impl CoordinatorConfig {
    /// The paper's base configuration.
    pub fn new() -> CoordinatorConfig {
        CoordinatorConfig {
            retransmit_after: TimeMs(200),
            retransmit_max: None,
            reject_null_transitions: true,
            decision_rule: DecisionRule::Unanimous,
            ttp: None,
            run_deadline: None,
            sig_cache_capacity: 1024,
            batch_max: 16,
            pending_updates_max: 1024,
            mutation: MutationFlags::default(),
        }
    }

    /// Sets the base retransmission interval (first-retry delay).
    pub fn retransmit_after(mut self, interval: TimeMs) -> CoordinatorConfig {
        self.retransmit_after = interval;
        self
    }

    /// Sets the retransmission-backoff ceiling.
    pub fn retransmit_max(mut self, max: TimeMs) -> CoordinatorConfig {
        self.retransmit_max = Some(max);
        self
    }

    /// Enables or disables null-transition rejection.
    pub fn reject_null_transitions(mut self, reject: bool) -> CoordinatorConfig {
        self.reject_null_transitions = reject;
        self
    }

    /// Selects the group decision rule.
    pub fn decision_rule(mut self, rule: DecisionRule) -> CoordinatorConfig {
        self.decision_rule = rule;
        self
    }

    /// Sets a proposer-side deadline for the termination extension.
    pub fn run_deadline(mut self, deadline: TimeMs) -> CoordinatorConfig {
        self.run_deadline = Some(deadline);
        self
    }

    /// Appoints the trusted third party used for certified termination.
    pub fn ttp(mut self, ttp: b2b_crypto::PartyId) -> CoordinatorConfig {
        self.ttp = Some(ttp);
        self
    }

    /// Sets the signature-verification cache capacity (`0` disables).
    pub fn sig_cache_capacity(mut self, capacity: usize) -> CoordinatorConfig {
        self.sig_cache_capacity = capacity;
        self
    }

    /// Sets the maximum batch size `k` (clamped to at least 1).
    pub fn batch_max(mut self, k: usize) -> CoordinatorConfig {
        self.batch_max = k.max(1);
        self
    }

    /// Sets the pending-update queue bound (backpressure threshold).
    pub fn pending_updates_max(mut self, max: usize) -> CoordinatorConfig {
        self.pending_updates_max = max;
        self
    }

    /// Ablates §4.2 acceptance checks for mutation testing. Never set in
    /// production; see [`MutationFlags`].
    pub fn mutation(mut self, flags: MutationFlags) -> CoordinatorConfig {
        self.mutation = flags;
        self
    }
}

impl Default for CoordinatorConfig {
    fn default() -> Self {
        CoordinatorConfig::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_base() {
        let c = CoordinatorConfig::default();
        assert_eq!(c.decision_rule, DecisionRule::Unanimous);
        assert!(c.reject_null_transitions);
        assert_eq!(c.run_deadline, None);
        assert_eq!(c.ttp, None);
        assert_eq!(c.sig_cache_capacity, 1024);
        assert_eq!(c.retransmit_max, None);
        assert_eq!(c.batch_max, 16);
        assert_eq!(c.pending_updates_max, 1024);
        assert!(!c.mutation.any(), "no check is ablated by default");
    }

    #[test]
    fn mutation_flags_default_off_and_report_any() {
        let flags = MutationFlags::default();
        assert!(!flags.any());
        assert!(MutationFlags {
            skip_predecessor: true,
            ..MutationFlags::default()
        }
        .any());
    }

    #[test]
    fn builder_chains() {
        let c = CoordinatorConfig::new()
            .retransmit_after(TimeMs(50))
            .retransmit_max(TimeMs(800))
            .reject_null_transitions(false)
            .decision_rule(DecisionRule::Majority)
            .run_deadline(TimeMs(5_000))
            .ttp(b2b_crypto::PartyId::new("notary"))
            .sig_cache_capacity(0)
            .batch_max(0)
            .pending_updates_max(2);
        assert_eq!(c.ttp, Some(b2b_crypto::PartyId::new("notary")));
        assert_eq!(c.sig_cache_capacity, 0);
        assert_eq!(c.batch_max, 1, "batch_max clamps to at least 1");
        assert_eq!(c.pending_updates_max, 2);
        assert_eq!(c.retransmit_after, TimeMs(50));
        assert_eq!(c.retransmit_max, Some(TimeMs(800)));
        assert!(!c.reject_null_transitions);
        assert_eq!(c.decision_rule, DecisionRule::Majority);
        assert_eq!(c.run_deadline, Some(TimeMs(5_000)));
    }
}
