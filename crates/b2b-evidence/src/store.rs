//! Storage traits for evidence logs and state checkpoints, plus the
//! in-memory implementation.
//!
//! Two persistence roles from the paper:
//!
//! * the non-repudiation log (§3) — append-only [`EvidenceStore`];
//! * checkpointed object state for recovery/rollback (§3) —
//!   [`SnapshotStore`].
//!
//! [`MemStore`] implements both for simulations that model crash-recovery
//! by swapping in a fresh engine over the surviving store;
//! [`crate::wal::FileStore`] implements both on disk.

use crate::record::{EvidenceRecord, RecordFrame, RecordRef};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::Arc;
use thiserror::Error;

/// Errors from evidence or snapshot storage.
#[derive(Debug, Error)]
pub enum StoreError {
    /// An I/O failure in a file-backed store.
    #[error("evidence store i/o error: {0}")]
    Io(#[from] std::io::Error),
    /// A record failed to serialise or deserialise.
    #[error("evidence store codec error: {0}")]
    Codec(String),
}

/// An append-only non-repudiation log.
///
/// Appends assign monotonically increasing sequence numbers starting at 0.
/// Implementations must retain records across simulated crashes (that is
/// the point of the log).
pub trait EvidenceStore: Send + Sync {
    /// Appends `record`, assigning and returning its sequence number.
    ///
    /// # Errors
    ///
    /// Returns a [`StoreError`] if the record cannot be durably recorded.
    fn append(&self, record: EvidenceRecord) -> Result<u64, StoreError>;

    /// Appends the record whose fields `record` borrows, assigning and
    /// returning its sequence number. Stores that hold records as their
    /// binary form encode it straight from the borrowed fields; the
    /// default builds the owned record and calls
    /// [`EvidenceStore::append`].
    ///
    /// # Errors
    ///
    /// Returns a [`StoreError`] if the record cannot be durably recorded.
    fn append_ref(&self, record: RecordRef<'_>) -> Result<u64, StoreError> {
        self.append(record.to_record(0))
    }

    /// The number of records in the log.
    fn len(&self) -> usize;

    /// Returns `true` if the log is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns the record with sequence number `seq`, if present.
    ///
    /// Besides audits, the coordinator calls this for a re-reply: a
    /// completed run's reply to a duplicate message is the party's own
    /// record that carries it, read back by its sequence number, so an
    /// implementation must not scan the log to answer.
    fn get(&self, seq: u64) -> Option<EvidenceRecord>;

    /// Returns a snapshot of all records in sequence order.
    fn records(&self) -> Vec<EvidenceRecord>;

    /// Returns all records belonging to protocol run `run`.
    fn records_for_run(&self, run: &str) -> Vec<EvidenceRecord> {
        self.records()
            .into_iter()
            .filter(|r| r.run == run)
            .collect()
    }

    /// Makes every record appended so far durable.
    ///
    /// Stores that are durable per-append (the default) need do nothing; a
    /// store in group-commit mode (see [`crate::FileStore::group_commit`])
    /// batches appends in memory and writes them out here. The coordinator
    /// calls this before each core checkpoint write, so a checkpoint never
    /// reaches past the durable log, and at protocol-step boundaries, so a
    /// batch never spans the externally visible effects of a step.
    ///
    /// # Errors
    ///
    /// Returns a [`StoreError`] if buffered records cannot be written.
    fn flush(&self) -> Result<(), StoreError> {
        Ok(())
    }
}

/// Keyed storage for the latest checkpoint of each object's state.
pub trait SnapshotStore: Send + Sync {
    /// Stores (replacing) the snapshot under `key`.
    ///
    /// # Errors
    ///
    /// Returns a [`StoreError`] if the snapshot cannot be durably stored.
    fn put_snapshot(&self, key: &str, bytes: Vec<u8>) -> Result<(), StoreError>;

    /// Loads the snapshot under `key`, if present.
    fn get_snapshot(&self, key: &str) -> Option<Vec<u8>>;
}

impl<T: EvidenceStore + ?Sized> EvidenceStore for std::sync::Arc<T> {
    fn append(&self, record: EvidenceRecord) -> Result<u64, StoreError> {
        (**self).append(record)
    }
    fn append_ref(&self, record: RecordRef<'_>) -> Result<u64, StoreError> {
        (**self).append_ref(record)
    }
    fn len(&self) -> usize {
        (**self).len()
    }
    fn get(&self, seq: u64) -> Option<EvidenceRecord> {
        (**self).get(seq)
    }
    fn records(&self) -> Vec<EvidenceRecord> {
        (**self).records()
    }
    fn records_for_run(&self, run: &str) -> Vec<EvidenceRecord> {
        (**self).records_for_run(run)
    }
    fn flush(&self) -> Result<(), StoreError> {
        (**self).flush()
    }
}

impl<T: SnapshotStore + ?Sized> SnapshotStore for std::sync::Arc<T> {
    fn put_snapshot(&self, key: &str, bytes: Vec<u8>) -> Result<(), StoreError> {
        (**self).put_snapshot(key, bytes)
    }
    fn get_snapshot(&self, key: &str) -> Option<Vec<u8>> {
        (**self).get_snapshot(key)
    }
}

/// In-memory evidence + snapshot store.
///
/// Records are held as their frames (the bytes [`crate::FileStore`]
/// writes to its log) and decoded on read.
///
/// Cheaply cloneable (shared interior); a clone held by the test harness
/// survives "crashing" the engine that wrote to it, modelling stable
/// storage.
///
/// # Example
///
/// ```
/// use b2b_evidence::{EvidenceKind, EvidenceRecord, EvidenceStore, MemStore, SnapshotStore};
/// use b2b_crypto::{PartyId, TimeMs};
///
/// let store = MemStore::new();
/// let rec = EvidenceRecord::new(
///     EvidenceKind::StatePropose, "obj", "run1", PartyId::new("p"),
///     vec![1], None, None, TimeMs(0),
/// );
/// let seq = store.append(rec).unwrap();
/// assert_eq!(seq, 0);
/// store.put_snapshot("obj", vec![9]).unwrap();
/// assert_eq!(store.get_snapshot("obj"), Some(vec![9]));
/// ```
#[derive(Clone, Debug, Default)]
pub struct MemStore {
    inner: Arc<RwLock<MemStoreInner>>,
}

#[derive(Debug, Default)]
struct MemStoreInner {
    records: Vec<RecordFrame>,
    snapshots: HashMap<String, Vec<u8>>,
}

impl MemStore {
    /// Creates an empty store.
    pub fn new() -> MemStore {
        MemStore::default()
    }
}

impl EvidenceStore for MemStore {
    fn append(&self, record: EvidenceRecord) -> Result<u64, StoreError> {
        self.append_ref(record.fields())
    }

    fn append_ref(&self, record: RecordRef<'_>) -> Result<u64, StoreError> {
        let mut inner = self.inner.write();
        let seq = inner.records.len() as u64;
        inner.records.push(RecordFrame::encode(seq, &record));
        Ok(seq)
    }

    fn len(&self) -> usize {
        self.inner.read().records.len()
    }

    fn get(&self, seq: u64) -> Option<EvidenceRecord> {
        self.inner
            .read()
            .records
            .get(seq as usize)
            .map(RecordFrame::record)
    }

    fn records(&self) -> Vec<EvidenceRecord> {
        decode_all(&self.inner.read().records, None)
    }

    fn records_for_run(&self, run: &str) -> Vec<EvidenceRecord> {
        decode_all(&self.inner.read().records, Some(run))
    }
}

/// Decodes `frames` in order — only those of protocol run `run`, if given.
pub(crate) fn decode_all(frames: &[RecordFrame], run: Option<&str>) -> Vec<EvidenceRecord> {
    frames
        .iter()
        .filter(|f| run.is_none_or(|r| f.run() == r))
        .map(RecordFrame::record)
        .collect()
}

impl SnapshotStore for MemStore {
    fn put_snapshot(&self, key: &str, bytes: Vec<u8>) -> Result<(), StoreError> {
        let mut inner = self.inner.write();
        match inner.snapshots.get_mut(key) {
            Some(slot) => *slot = bytes,
            None => {
                inner.snapshots.insert(key.to_string(), bytes);
            }
        }
        Ok(())
    }

    fn get_snapshot(&self, key: &str) -> Option<Vec<u8>> {
        self.inner.read().snapshots.get(key).cloned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::EvidenceKind;
    use b2b_crypto::{PartyId, TimeMs};

    fn rec(run: &str) -> EvidenceRecord {
        EvidenceRecord::new(
            EvidenceKind::StatePropose,
            "obj",
            run,
            PartyId::new("p"),
            vec![],
            None,
            None,
            TimeMs(0),
        )
    }

    #[test]
    fn append_assigns_sequential_seqs() {
        let s = MemStore::new();
        assert!(s.is_empty());
        assert_eq!(s.append(rec("a")).unwrap(), 0);
        assert_eq!(s.append(rec("b")).unwrap(), 1);
        assert_eq!(s.len(), 2);
        assert_eq!(s.get(1).unwrap().run, "b");
        assert!(s.get(2).is_none());
    }

    #[test]
    fn records_for_run_filters() {
        let s = MemStore::new();
        s.append(rec("a")).unwrap();
        s.append(rec("b")).unwrap();
        s.append(rec("a")).unwrap();
        assert_eq!(s.records_for_run("a").len(), 2);
        assert_eq!(s.records_for_run("c").len(), 0);
    }

    #[test]
    fn clones_share_state() {
        let s = MemStore::new();
        let t = s.clone();
        s.append(rec("a")).unwrap();
        assert_eq!(t.len(), 1);
        t.put_snapshot("k", vec![1]).unwrap();
        assert_eq!(s.get_snapshot("k"), Some(vec![1]));
    }

    #[test]
    fn snapshot_replaces() {
        let s = MemStore::new();
        s.put_snapshot("k", vec![1]).unwrap();
        s.put_snapshot("k", vec![2]).unwrap();
        assert_eq!(s.get_snapshot("k"), Some(vec![2]));
        assert_eq!(s.get_snapshot("missing"), None);
    }
}
