#![warn(missing_docs)]

//! `b2b-check`: a deterministic schedule explorer and counterexample
//! shrinker for the B2BObjects coordination protocols.
//!
//! The paper's §4.2/§4.4 analysis argues the coordination protocols keep
//! two promises under network faults and a Dolev-Yao adversary: *safety*
//! (no correctly behaving party installs ill-founded or divergent state,
//! and every installed state carries unanimous signed agreement) and
//! *liveness* within a bounded-failure envelope. This crate turns that
//! informal argument into a mechanical search:
//!
//! 1. [`plan`] — a seeded generator of serializable [`SchedulePlan`]s:
//!    per-link fault plans, crash and partition windows, and scripted
//!    Dolev-Yao intruder actions, all within a configurable budget;
//! 2. [`scenario`] — a small registry of whole-group protocol drives,
//!    including *misbehaving-insider* scenarios that craft validly signed
//!    proposals violating exactly one §4.2 invariant;
//! 3. [`oracle`] — checks evaluated after every schedule: each correct
//!    party's evidence log read as a history by [`b2b_core::history`]
//!    (every record verified, every install backed by a complete,
//!    unanimous signed decide and extending the installed chain, no tuple
//!    reused), crashed parties included because the log survives a crash;
//!    install divergence across those histories; held-state
//!    well-foundedness; and bounded-envelope liveness;
//! 4. [`explore`] — drives seed after seed through a scenario until an
//!    oracle fires or the budget is exhausted;
//! 5. [`shrink`] — greedily removes fault events and narrows windows from
//!    a failing plan while the violation persists;
//! 6. [`artifact`] — a replayable [`Counterexample`]: scenario id, seed,
//!    shrunk plan and expected verdict, byte-identical on replay.
//!
//! The explorer proves its own teeth through mutation testing: with one
//! §4.2 acceptance check ablated ([`b2b_core::MutationFlags`]) it must
//! find and shrink a violating schedule within a fixed budget, while the
//! unmutated build reports the same budget clean.

pub mod artifact;
pub mod explore;
pub mod harness;
pub mod oracle;
pub mod plan;
pub mod scenario;
pub mod shrink;

pub use artifact::Counterexample;
pub use explore::{explore, run_schedule, CheckConfig, CheckOutcome, RunVerdict};
pub use harness::Fleet;
pub use oracle::Violation;
pub use plan::{FaultEvent, SchedulePlan};
pub use scenario::{kill_matrix, scenario, scenarios, DrivenOp, Scenario};
pub use shrink::shrink;
