#![warn(missing_docs)]

//! # B2BObjects
//!
//! A Rust reproduction of the distributed object middleware described in
//! *"Distributed Object Middleware to Support Dependable Information Sharing
//! between Organisations"* (Cook, Shrivastava, Wheater — DSN 2002).
//!
//! This facade crate re-exports the workspace's public API:
//!
//! * [`core`] — the middleware itself: the non-repudiable state
//!   coordination protocol, connection/disconnection protocols, the
//!   [`core::B2BObject`] trait and [`core::controller`] API.
//! * [`crypto`] — signatures, hashing, time-stamping, certificates.
//! * [`net`] — transports: deterministic simulated (with fault injection
//!   and a Dolev-Yao intruder) and the real-clock sharded runtime, in
//!   process or over OS sockets ([`net::shard_tcp`]) for crossing process
//!   and host boundaries.
//! * [`evidence`] — non-repudiation logs, evidence verification and the
//!   offline arbiter for dispute resolution.
//! * [`apps`] — proof-of-concept applications: Tic-Tac-Toe, order
//!   processing, a distributed auction, a shared whiteboard and
//!   trusted-agent (TTP) interposition.
//! * [`telemetry`] — deterministic observability: a mergeable metrics
//!   registry and the protocol flight recorder (span/event tracing over
//!   virtual time).
//!
//! See the `examples/` directory for runnable scenarios, starting with
//! `quickstart.rs`.

pub use b2b_apps as apps;
pub use b2b_core as core;
pub use b2b_crypto as crypto;
pub use b2b_evidence as evidence;
pub use b2b_net as net;
pub use b2b_telemetry as telemetry;
