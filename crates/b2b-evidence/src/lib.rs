#![warn(missing_docs)]

//! Non-repudiation evidence substrate for the B2BObjects middleware.
//!
//! "Evidence is stored systematically in local non-repudiation logs" (§3),
//! and "for non-repudiation, and recovery, protocol messages are held in
//! local persistent storage at sender and recipient" (§4.2). This crate is
//! that storage and the machinery around it:
//!
//! * [`record`] — [`EvidenceRecord`]: one signed, time-stamped protocol
//!   action held in a party's log;
//! * [`store`] — the [`EvidenceStore`] + [`SnapshotStore`] traits with an
//!   in-memory implementation, used both for evidence and for the state
//!   checkpoints that §3 requires for recovery and rollback;
//! * [`wal`] — a crash-safe append-only file implementation (length- and
//!   CRC-framed records; torn tails are discarded on recovery);
//! * [`verify`] — per-record signature/time-stamp verification;
//! * [`audit`] — whole-log audits, every record verified on its own. An
//!   arbiter reads a log as a protocol history through
//!   `b2b-core::history`, which verifies each record with [`verify`].

pub mod audit;
pub mod record;
pub mod store;
pub mod verify;
pub mod wal;

pub use audit::{AuditReport, LogAuditor};
pub use record::{EvidenceKind, EvidenceRecord, RecordRef, RunLabel};
pub use store::{EvidenceStore, MemStore, SnapshotStore, StoreError};
pub use verify::{verify_record, RecordFault};
pub use wal::FileStore;
