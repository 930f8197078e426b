#![warn(missing_docs)]

//! Network substrate for the B2BObjects middleware.
//!
//! The coordination protocols (paper §4.2) assume "eventual, once-only
//! message delivery", with the middleware itself masking weaker channel
//! semantics. This crate provides:
//!
//! * [`node`] — the [`NetNode`] event-driven interface protocol engines
//!   implement, and the [`NodeCtx`] through which they send messages and
//!   arm timers;
//! * [`sim`] — a deterministic discrete-event network simulator with
//!   virtual time, seeded randomness, node crash/recovery and healing
//!   partitions;
//! * [`fault`] — per-link fault plans (drop, duplicate, delay, reorder);
//! * [`intruder`] — a programmable Dolev-Yao adversary that observes,
//!   removes, delays, replays and tampers with traffic;
//! * [`reliable`] — an ack/retransmit/dedup layer that presents the paper's
//!   assumed *eventual once-only delivery* on top of lossy links;
//! * [`shard`] — the real-clock runtime: thousands of coordination groups
//!   (or just one) multiplexed over a fixed worker pool, with per-shard
//!   timer wheels and group-enveloped frames — the role Java RMI played
//!   in the paper's prototype;
//! * [`shard_tcp`] — the same runtime across processes and hosts: one
//!   multiplexed, reconnecting socket pair per peer organisation, driven
//!   by a `poll(2)` reactor;
//! * [`poll`] — bounded condition-polling helpers for tests against the
//!   real-clock transports;
//! * [`httpd`] — reusable dependency-free HTTP/1.1 plumbing (readiness
//!   accept loop, joined worker pool, keep-alive) behind the `b2b-server`
//!   order service, which also serves the metrics registry on `/metrics`.

pub mod fault;
pub mod httpd;
pub mod intruder;
pub mod node;
pub mod poll;
pub mod reliable;
pub mod shard;
pub mod shard_tcp;
pub mod sim;
pub mod stats;

pub use fault::FaultPlan;
pub use httpd::{HttpClient, HttpHandler, HttpRequest, HttpResponse, HttpServer};
pub use intruder::{
    InterceptAction, Intruder, PassThrough, ScriptAction, ScriptRule, ScriptedIntruder,
};
pub use node::{NetNode, NodeCtx, Payload};
pub use reliable::{ReliableMux, RELIABLE_TIMER_BASE};
pub use shard::{GroupHandle, GroupId, ShardedNet, ShardedNetBuilder};
pub use shard_tcp::{ShardedTcpConfig, ShardedTcpEndpoint, ShardedTcpNet, MAX_FRAME_LEN};
pub use sim::SimNet;
pub use stats::NetStats;
