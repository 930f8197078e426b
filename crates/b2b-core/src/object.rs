//! The [`B2BObject`] trait — the application-facing half of the paper's
//! API (Figure 4) — and the default batch replay every implementation
//! shares. Generic implementations (a typed JSON cell and a composite of
//! several objects) live in `b2b-apps`.

use crate::decision::{CoordEvent, Decision};
use b2b_crypto::PartyId;

/// The interface a shared application object exposes to the middleware.
///
/// The application programmer implements this for each shared object — by
/// writing a new object, extending an existing one, or wrapping one (§5).
/// State crosses the interface as opaque bytes; the implementation chooses
/// its own encoding (`b2b_apps::SharedCell` wraps any JSON-encodable value).
///
/// # Contract
///
/// * `get_state`/`apply_state` must round-trip: applying a state returned
///   by `get_state` reproduces the same observable object.
/// * `validate_*` must be deterministic functions of their arguments and
///   local policy only — they embody "locally determined, evaluated and
///   enforced policy" (§2).
/// * `apply_update` must be a pure function of `(current, update)` so that
///   every replica computes the identical successor state.
pub trait B2BObject: Send {
    /// Serialises the object's current state.
    fn get_state(&self) -> Vec<u8>;

    /// Installs `state`, replacing the object's current state. Called for
    /// newly validated states, rollbacks and recovery.
    fn apply_state(&mut self, state: &[u8]);

    /// Application-specific validation of a proposed state overwrite
    /// (the `validateState` upcall).
    fn validate_state(&self, proposer: &PartyId, current: &[u8], proposed: &[u8]) -> Decision;

    /// Computes the successor state from `current` and an `update` delta
    /// (§4.3.1). The default treats updates as whole-state replacements.
    ///
    /// # Errors
    ///
    /// Returns a diagnostic string when the update cannot be applied; the
    /// proposal is then rejected with that diagnostic.
    fn apply_update(&self, current: &[u8], update: &[u8]) -> Result<Vec<u8>, String> {
        let _ = current;
        Ok(update.to_vec())
    }

    /// Application-specific validation of a proposed update (the
    /// `validateUpdate` upcall). The default applies the update and
    /// delegates to [`B2BObject::validate_state`].
    fn validate_update(&self, proposer: &PartyId, current: &[u8], update: &[u8]) -> Decision {
        match self.apply_update(current, update) {
            Ok(next) => self.validate_state(proposer, current, &next),
            Err(reason) => Decision::reject(reason),
        }
    }

    /// Replays `updates` in order from `current`: one [`FoldStep`] per
    /// update, each applied to the state the steps before it reached (a
    /// step that fails leaves that state as it was). With a `proposer`,
    /// every step also carries [`B2BObject::validate_update`]'s decision
    /// against the state before it.
    ///
    /// This is how the coordinator replays a batch, on the proposing and
    /// on the responding side. An override must return exactly what the
    /// default [`fold_each`] does — same successor bytes, same verdicts
    /// and reasons — and may only be cheaper, e.g. by decoding `current`
    /// once and replaying in typed form. It still has to encode every
    /// successor: each one's hash is signed in the batch's hash chain.
    fn fold_updates(
        &self,
        proposer: Option<&PartyId>,
        current: &[u8],
        updates: &[Vec<u8>],
    ) -> Vec<FoldStep> {
        fold_each(self, proposer, current, updates)
    }

    /// Validation of a connection request from `subject` (the
    /// `validateConnect` upcall). Default: accept.
    fn validate_connect(&self, subject: &PartyId) -> Decision {
        let _ = subject;
        Decision::accept()
    }

    /// Validation of a disconnection/eviction of `subject` (the
    /// `validateDisconnect` upcall). Default: accept.
    fn validate_disconnect(&self, subject: &PartyId, eviction: bool) -> Decision {
        let _ = (subject, eviction);
        Decision::accept()
    }

    /// Progress/completion notification (the `coordCallback` upcall).
    fn coord_callback(&mut self, event: &CoordEvent) {
        let _ = event;
    }
}

/// One step of [`B2BObject::fold_updates`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FoldStep {
    /// The state after this update, or why it does not apply.
    pub next: Result<Vec<u8>, String>,
    /// `validate_update`'s decision against the state before this update;
    /// `None` when the fold was given no proposer.
    pub verdict: Option<Decision>,
}

/// The default [`B2BObject::fold_updates`]: one `apply_update` (and, with
/// a proposer, one `validate_update`) per update — the reference every
/// override must equal.
pub fn fold_each<O: B2BObject + ?Sized>(
    object: &O,
    proposer: Option<&PartyId>,
    current: &[u8],
    updates: &[Vec<u8>],
) -> Vec<FoldStep> {
    let mut steps: Vec<FoldStep> = Vec::with_capacity(updates.len());
    // The step whose successor is the state reached so far, if any.
    let mut reached: Option<usize> = None;
    for update in updates {
        let state = match reached.map(|i| &steps[i].next) {
            Some(Ok(state)) => state.as_slice(),
            _ => current,
        };
        let verdict = proposer.map(|p| object.validate_update(p, state, update));
        let next = object.apply_update(state, update);
        if next.is_ok() {
            reached = Some(steps.len());
        }
        steps.push(FoldStep { next, verdict });
    }
    steps
}
