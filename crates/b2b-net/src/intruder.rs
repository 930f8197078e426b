//! Dolev-Yao network intruder.
//!
//! §4.4 of the paper analyses the protocol against "the well-known
//! Dolev-Yao intruder (who has full control over the network but cannot
//! perform cryptanalysis)": the intruder can observe every message, remove,
//! delay or replay messages, and — on insecure channels — modify the
//! *unsigned* parts of messages. This module makes that adversary a
//! pluggable component of the simulator so the paper's informal analysis
//! becomes executable tests.

use b2b_crypto::{PartyId, TimeMs};
use serde::{Deserialize, Serialize};

/// What the intruder decides to do with one intercepted datagram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InterceptAction {
    /// Deliver the datagram unchanged (subject to the link's fault plan).
    Deliver,
    /// Silently remove the datagram from the network.
    Drop,
    /// Deliver a modified payload in place of the original.
    ///
    /// Signed parts are protected by signatures, so meaningful tampering
    /// targets the unsigned parts; the protocol must detect the mismatch.
    Replace(Vec<u8>),
    /// Delay delivery by the given amount.
    Delay(TimeMs),
    /// Deliver the original and additionally inject extra datagrams
    /// (replays of recorded traffic, fabrications) at relative times.
    Inject(Vec<Injection>),
}

/// A datagram the intruder fabricates or replays into the network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Injection {
    /// Claimed source of the injected datagram.
    pub from: PartyId,
    /// Destination.
    pub to: PartyId,
    /// Payload bytes.
    pub payload: Vec<u8>,
    /// Delivery delay relative to now.
    pub after: TimeMs,
}

/// A network adversary with full control over traffic.
///
/// Installed on a [`crate::sim::SimNet`]; invoked for every datagram before
/// the link fault plan is applied.
pub trait Intruder: Send {
    /// Decides the fate of one datagram.
    fn intercept(
        &mut self,
        from: &PartyId,
        to: &PartyId,
        payload: &[u8],
        now: TimeMs,
    ) -> InterceptAction;
}

/// The honest network: every datagram passes through untouched.
#[derive(Debug, Default, Clone, Copy)]
pub struct PassThrough;

impl Intruder for PassThrough {
    fn intercept(
        &mut self,
        _from: &PartyId,
        _to: &PartyId,
        _payload: &[u8],
        _now: TimeMs,
    ) -> InterceptAction {
        InterceptAction::Deliver
    }
}

/// An intruder driven by a closure, for concise test scenarios.
///
/// # Example
///
/// ```
/// use b2b_net::intruder::{FnIntruder, InterceptAction, Intruder};
/// use b2b_crypto::{PartyId, TimeMs};
///
/// // Drop everything addressed to "victim".
/// let mut intruder = FnIntruder::new(|_from, to: &PartyId, _payload: &[u8], _now| {
///     if to.as_str() == "victim" { InterceptAction::Drop } else { InterceptAction::Deliver }
/// });
/// let act = intruder.intercept(&PartyId::new("a"), &PartyId::new("victim"), b"x", TimeMs(0));
/// assert_eq!(act, InterceptAction::Drop);
/// ```
pub struct FnIntruder<F> {
    f: F,
}

impl<F> FnIntruder<F>
where
    F: FnMut(&PartyId, &PartyId, &[u8], TimeMs) -> InterceptAction + Send,
{
    /// Wraps a closure as an intruder.
    pub fn new(f: F) -> FnIntruder<F> {
        FnIntruder { f }
    }
}

impl<F> Intruder for FnIntruder<F>
where
    F: FnMut(&PartyId, &PartyId, &[u8], TimeMs) -> InterceptAction + Send,
{
    fn intercept(
        &mut self,
        from: &PartyId,
        to: &PartyId,
        payload: &[u8],
        now: TimeMs,
    ) -> InterceptAction {
        (self.f)(from, to, payload, now)
    }
}

/// An intruder that records every datagram it sees, for later replay.
///
/// Useful for replay-attack tests: record a run, then inject the recorded
/// messages into a later run and assert the protocol detects them.
#[derive(Debug, Default)]
pub struct Recorder {
    seen: Vec<(PartyId, PartyId, Vec<u8>, TimeMs)>,
}

impl Recorder {
    /// Creates an empty recorder.
    pub fn new() -> Recorder {
        Recorder::default()
    }

    /// All recorded datagrams, in observation order.
    pub fn seen(&self) -> &[(PartyId, PartyId, Vec<u8>, TimeMs)] {
        &self.seen
    }

    /// Takes the recorded datagrams, leaving the recorder empty.
    pub fn take(&mut self) -> Vec<(PartyId, PartyId, Vec<u8>, TimeMs)> {
        std::mem::take(&mut self.seen)
    }
}

impl Intruder for Recorder {
    fn intercept(
        &mut self,
        from: &PartyId,
        to: &PartyId,
        payload: &[u8],
        now: TimeMs,
    ) -> InterceptAction {
        self.seen
            .push((from.clone(), to.clone(), payload.to_vec(), now));
        InterceptAction::Deliver
    }
}

// ---------------------------------------------------------------------------
// Serializable intruder scripts
// ---------------------------------------------------------------------------

/// What a [`ScriptRule`] does to its matched datagram.
///
/// This is the *serializable* enumeration of intruder capabilities: a
/// schedule explorer generates values of this type, and a shrunk
/// counterexample commits them to JSON so the exact adversarial schedule
/// replays byte-identically.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ScriptAction {
    /// Remove the datagram from the network.
    Drop,
    /// Hold the datagram back for the given extra delay.
    Delay {
        /// Extra delivery delay on top of the link's fault plan.
        by: TimeMs,
    },
    /// Deliver the original and replay a copy later under a fresh
    /// reliable-layer identity (so the receiver's duplicate filter does
    /// not suppress it — see [`crate::reliable::reframe`]).
    Replay {
        /// Delay of the replayed copy relative to the original.
        after: TimeMs,
    },
}

/// One serializable rule of a [`ScriptedIntruder`]: act on the `nth`
/// reliable-layer DATA frame observed on a matching link. Each rule fires
/// at most once; acks and malformed traffic are never matched or counted.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScriptRule {
    /// Source filter (`None` matches any sender).
    pub from: Option<PartyId>,
    /// Destination filter (`None` matches any receiver).
    pub to: Option<PartyId>,
    /// 0-based index among the DATA frames this rule's `from`/`to` filter
    /// matched so far (each rule keeps its own match counter, so two rules
    /// with different filters count independently).
    pub nth: u64,
    /// What to do with the matched frame.
    pub action: ScriptAction,
}

/// Base epoch stamped on frames replayed by a [`ScriptedIntruder`];
/// recognisable in traces and guaranteed disjoint from the random epochs
/// honest muxes pick (they are drawn from the full `u64` space, so a clash
/// is possible in principle but has never been observed under test seeds —
/// and a clash only suppresses the replay, never corrupts state).
const REPLAY_EPOCH_BASE: u64 = 0xb2bc_0000_0000_0000;

/// A deterministic, serializable Dolev-Yao adversary.
///
/// Unlike [`FnIntruder`] (arbitrary code), a `ScriptedIntruder` is pure
/// data: a list of [`ScriptRule`]s interpreted against the traffic the
/// simulator routes. Because [`crate::SimNet`] is deterministic, the same
/// script against the same seed matches the same frames every run — which
/// is what lets `b2b-check` shrink a failing schedule and commit it as a
/// replayable JSON fixture.
#[derive(Debug, Clone, Default)]
pub struct ScriptedIntruder {
    rules: Vec<ScriptRule>,
    fired: Vec<bool>,
    /// Per-rule count of DATA frames that matched the rule's link filter.
    matched: Vec<u64>,
    replays: u64,
}

impl ScriptedIntruder {
    /// Builds an interpreter for `rules`.
    pub fn new(rules: Vec<ScriptRule>) -> ScriptedIntruder {
        let n = rules.len();
        ScriptedIntruder {
            rules,
            fired: vec![false; n],
            matched: vec![0; n],
            replays: 0,
        }
    }

    /// The script being interpreted.
    pub fn rules(&self) -> &[ScriptRule] {
        &self.rules
    }

    /// How many rules have fired so far.
    pub fn rules_fired(&self) -> usize {
        self.fired.iter().filter(|f| **f).count()
    }
}

impl Intruder for ScriptedIntruder {
    fn intercept(
        &mut self,
        from: &PartyId,
        to: &PartyId,
        payload: &[u8],
        _now: TimeMs,
    ) -> InterceptAction {
        if !crate::reliable::is_data_frame(payload) {
            return InterceptAction::Deliver;
        }
        let mut decided: Option<ScriptAction> = None;
        for (i, rule) in self.rules.iter().enumerate() {
            let link_matches = rule.from.as_ref().is_none_or(|f| f == from)
                && rule.to.as_ref().is_none_or(|t| t == to);
            if !link_matches {
                continue;
            }
            let idx = self.matched[i];
            self.matched[i] += 1;
            if decided.is_none() && !self.fired[i] && idx == rule.nth {
                self.fired[i] = true;
                decided = Some(rule.action.clone());
            }
        }
        match decided {
            None => InterceptAction::Deliver,
            Some(ScriptAction::Drop) => InterceptAction::Drop,
            Some(ScriptAction::Delay { by }) => InterceptAction::Delay(by),
            Some(ScriptAction::Replay { after }) => {
                let epoch = REPLAY_EPOCH_BASE + self.replays;
                self.replays += 1;
                match crate::reliable::reframe(payload, epoch, 0) {
                    Some(copy) => InterceptAction::Inject(vec![Injection {
                        from: from.clone(),
                        to: to.clone(),
                        payload: copy,
                        after,
                    }]),
                    None => InterceptAction::Deliver,
                }
            }
        }
    }
}

/// Composes two intruders: `first` decides; when it delivers unchanged,
/// `second` decides. Used by checkers to stack a passive [`Recorder`] (or
/// an attack driver) in front of a [`ScriptedIntruder`].
pub struct Chain<A, B> {
    first: A,
    second: B,
}

impl<A: Intruder, B: Intruder> Chain<A, B> {
    /// Chains `first` before `second`.
    pub fn new(first: A, second: B) -> Chain<A, B> {
        Chain { first, second }
    }
}

impl<A: Intruder, B: Intruder> Intruder for Chain<A, B> {
    fn intercept(
        &mut self,
        from: &PartyId,
        to: &PartyId,
        payload: &[u8],
        now: TimeMs,
    ) -> InterceptAction {
        match self.first.intercept(from, to, payload, now) {
            InterceptAction::Deliver => self.second.intercept(from, to, payload, now),
            other => other,
        }
    }
}

/// Shared observation tap: a [`Recorder`]-like intruder whose captured
/// traffic is readable from outside the simulator while it runs (the
/// simulator owns the intruder box, so a plain [`Recorder`] cannot be
/// inspected mid-run).
#[derive(Debug, Clone, Default)]
pub struct SharedTap {
    seen: std::sync::Arc<std::sync::Mutex<Vec<TappedFrame>>>,
}

/// One observed data frame: `(from, to, raw bytes, observation time)`.
pub type TappedFrame = (PartyId, PartyId, Vec<u8>, TimeMs);

impl SharedTap {
    /// Creates an empty tap.
    pub fn new() -> SharedTap {
        SharedTap::default()
    }

    /// A snapshot of everything observed so far, in observation order.
    pub fn seen(&self) -> Vec<TappedFrame> {
        self.seen.lock().expect("tap poisoned").clone()
    }
}

impl Intruder for SharedTap {
    fn intercept(
        &mut self,
        from: &PartyId,
        to: &PartyId,
        payload: &[u8],
        now: TimeMs,
    ) -> InterceptAction {
        self.seen.lock().expect("tap poisoned").push((
            from.clone(),
            to.clone(),
            payload.to_vec(),
            now,
        ));
        InterceptAction::Deliver
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passthrough_delivers() {
        let mut p = PassThrough;
        assert_eq!(
            p.intercept(&PartyId::new("a"), &PartyId::new("b"), b"x", TimeMs(0)),
            InterceptAction::Deliver
        );
    }

    #[test]
    fn recorder_captures_traffic() {
        let mut r = Recorder::new();
        r.intercept(&PartyId::new("a"), &PartyId::new("b"), b"m1", TimeMs(1));
        r.intercept(&PartyId::new("b"), &PartyId::new("a"), b"m2", TimeMs(2));
        assert_eq!(r.seen().len(), 2);
        assert_eq!(r.seen()[0].2, b"m1".to_vec());
        let taken = r.take();
        assert_eq!(taken.len(), 2);
        assert!(r.seen().is_empty());
    }

    fn data_frame(body: &[u8]) -> Vec<u8> {
        crate::reliable::data_frame(0, 1, 0, body)
    }

    #[test]
    fn script_rules_fire_once_on_the_nth_matching_frame() {
        let (a, b) = (PartyId::new("a"), PartyId::new("b"));
        let mut s = ScriptedIntruder::new(vec![ScriptRule {
            from: None,
            to: Some(b.clone()),
            nth: 1,
            action: ScriptAction::Drop,
        }]);
        let f = data_frame(b"m");
        // Frame 0 on the link: passes. Frame 1: dropped. Frame 2: passes
        // again (the rule is one-shot).
        assert_eq!(s.intercept(&a, &b, &f, TimeMs(0)), InterceptAction::Deliver);
        assert_eq!(s.intercept(&a, &b, &f, TimeMs(1)), InterceptAction::Drop);
        assert_eq!(s.intercept(&a, &b, &f, TimeMs(2)), InterceptAction::Deliver);
        assert_eq!(s.rules_fired(), 1);
        // Acks are invisible to scripts: not counted, not matched.
        let ack = {
            let mut mux = crate::ReliableMux::new(TimeMs(10), 2);
            let mut ctx = crate::NodeCtx::new(TimeMs(0));
            mux.on_message(&a, &f, &mut ctx);
            mux.flush_acks(&mut ctx);
            ctx.take_outgoing().remove(0).1
        };
        assert_eq!(
            s.intercept(&a, &b, &ack, TimeMs(3)),
            InterceptAction::Deliver
        );
    }

    #[test]
    fn script_replay_reframes_under_fresh_identity() {
        let (a, b) = (PartyId::new("a"), PartyId::new("b"));
        let mut s = ScriptedIntruder::new(vec![ScriptRule {
            from: Some(a.clone()),
            to: Some(b.clone()),
            nth: 0,
            action: ScriptAction::Replay { after: TimeMs(50) },
        }]);
        let f = data_frame(b"payload");
        match s.intercept(&a, &b, &f, TimeMs(0)) {
            InterceptAction::Inject(injs) => {
                assert_eq!(injs.len(), 1);
                assert_eq!(injs[0].after, TimeMs(50));
                assert_ne!(injs[0].payload, f, "replay must carry a fresh identity");
                assert_eq!(
                    crate::reliable::data_body(&injs[0].payload),
                    Some(&b"payload"[..])
                );
            }
            other => panic!("expected injection, got {other:?}"),
        }
    }

    #[test]
    fn script_json_roundtrip() {
        let rules = vec![
            ScriptRule {
                from: Some(PartyId::new("org0")),
                to: None,
                nth: 3,
                action: ScriptAction::Delay { by: TimeMs(120) },
            },
            ScriptRule {
                from: None,
                to: Some(PartyId::new("org2")),
                nth: 0,
                action: ScriptAction::Replay { after: TimeMs(7) },
            },
        ];
        let json = serde_json::to_string(&rules).unwrap();
        let back: Vec<ScriptRule> = serde_json::from_str(&json).unwrap();
        assert_eq!(rules, back);
    }

    #[test]
    fn chain_falls_through_on_deliver_only() {
        let (a, b) = (PartyId::new("a"), PartyId::new("b"));
        let tap = SharedTap::new();
        let drop_all =
            FnIntruder::new(|_f: &PartyId, _t: &PartyId, _p: &[u8], _n| InterceptAction::Drop);
        let mut chained = Chain::new(tap.clone(), drop_all);
        assert_eq!(
            chained.intercept(&a, &b, b"x", TimeMs(0)),
            InterceptAction::Drop
        );
        // The tap observed the frame even though the second stage dropped it.
        assert_eq!(tap.seen().len(), 1);
    }

    #[test]
    fn fn_intruder_applies_closure() {
        let mut i = FnIntruder::new(|_f: &PartyId, _t: &PartyId, p: &[u8], _n| {
            let mut flipped = p.to_vec();
            if let Some(b) = flipped.first_mut() {
                *b ^= 0xff;
            }
            InterceptAction::Replace(flipped)
        });
        let act = i.intercept(&PartyId::new("a"), &PartyId::new("b"), &[0x00], TimeMs(0));
        assert_eq!(act, InterceptAction::Replace(vec![0xff]));
    }
}
