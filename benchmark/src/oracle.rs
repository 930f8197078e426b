//! Output checks. Each returns the misses it found; any miss makes the run
//! `correct: false` and the command exit non-zero.

use crate::gen::Model;
use b2b_evidence::{EvidenceStore, FileStore};
use std::path::Path;

/// Every party of every order holds byte-identical state, and that state is
/// exactly what the generator's model says the installed ops produce (so a
/// vetoed op changed nothing and no installed op was lost).
/// `actual[order][party]` is `Coordinator::agreed_state`.
pub fn check_states(model: &Model, actual: &[Vec<Option<Vec<u8>>>]) -> Vec<String> {
    let mut misses = Vec::new();
    if actual.len() != model.orders.len() {
        misses.push(format!(
            "{} orders read back, model has {}",
            actual.len(),
            model.orders.len()
        ));
    }
    for (o, (parties, want)) in actual.iter().zip(&model.orders).enumerate() {
        let want = want.to_bytes();
        for (p, got) in parties.iter().enumerate() {
            match got {
                None => misses.push(format!("order {o} party {p}: no agreed state")),
                Some(bytes) if *bytes != want => misses.push(format!(
                    "order {o} party {p}: state {} != model {}",
                    String::from_utf8_lossy(bytes),
                    String::from_utf8_lossy(&want)
                )),
                Some(_) => {}
            }
        }
    }
    misses.truncate(8);
    misses
}

/// What a store held when it was shut down.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StoreMark {
    /// Records appended and flushed.
    pub records: usize,
    /// Size of `evidence.wal` once closed, before any garbage was appended.
    pub wal_len: u64,
}

impl StoreMark {
    /// Reads the mark of a store that has been closed.
    pub fn of_closed(dir: &Path, records: usize) -> StoreMark {
        let wal_len = std::fs::metadata(dir.join("evidence.wal"))
            .map(|m| m.len())
            .unwrap_or(0);
        StoreMark { records, wal_len }
    }
}

/// A reopened store holds exactly the records it had flushed, and the torn
/// tail appended after shutdown is gone from the file.
pub fn check_reopened(dir: &Path, mark: &StoreMark, reopened: &FileStore) -> Vec<String> {
    let mut misses = Vec::new();
    if reopened.len() != mark.records {
        misses.push(format!(
            "{}: reopened with {} records, {} were flushed",
            dir.display(),
            reopened.len(),
            mark.records
        ));
    }
    let len = std::fs::metadata(dir.join("evidence.wal"))
        .map(|m| m.len())
        .unwrap_or(0);
    if len != mark.wal_len {
        misses.push(format!(
            "{}: evidence.wal is {len} bytes after reopen, {} before the torn tail",
            dir.display(),
            mark.wal_len
        ));
    }
    misses
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{Expect, SyncStream};
    use b2b_crypto::{PartyId, TimeMs};
    use b2b_evidence::{EvidenceKind, EvidenceRecord};

    fn states_of(model: &Model, parties: usize) -> Vec<Vec<Option<Vec<u8>>>> {
        model
            .orders
            .iter()
            .map(|o| vec![Some(o.to_bytes()); parties])
            .collect()
    }

    /// Kill test: a model that missed one installed op must be caught.
    #[test]
    fn a_dropped_op_is_caught() {
        let mut full = SyncStream::new(1, 0, 1, 4);
        let mut ops = Vec::new();
        for _ in 0..50 {
            ops.push(full.next_op());
        }
        let actual = states_of(&full.model, 2);
        assert!(check_states(&full.model, &actual).is_empty());

        // Replay all but the last op that wrote its cell last.
        let mut short = Model::seeded(4);
        let dropped = ops.len() - 1;
        for (i, op) in ops.iter().enumerate() {
            assert_eq!(op.expect(), Expect::Installed);
            if i != dropped {
                short.apply(op);
            }
        }
        assert!(!check_states(&short, &actual).is_empty());
    }

    #[test]
    fn diverging_parties_are_caught() {
        let model = Model::seeded(3);
        let mut actual = states_of(&model, 4);
        actual[1][2] = Some(b"{}".to_vec());
        assert_eq!(check_states(&model, &actual).len(), 1);
        actual[2][0] = None;
        assert_eq!(check_states(&model, &actual).len(), 2);
    }

    fn record(i: usize) -> EvidenceRecord {
        EvidenceRecord::new(
            EvidenceKind::Checkpoint,
            "order",
            format!("run{i}"),
            PartyId::new("org0"),
            vec![i as u8; 40],
            None,
            None,
            TimeMs(i as u64),
        )
    }

    /// Kill test: a store that lost one record must be caught.
    #[test]
    fn a_removed_record_is_caught() {
        let dir = crate::scratch_dir("oracle-kill");
        let mut frame_starts = Vec::new();
        let records = {
            let store = FileStore::open(&dir).unwrap().group_commit(true);
            for i in 0..10 {
                frame_starts.push(std::fs::metadata(dir.join("evidence.wal")).unwrap().len());
                store.append(record(i)).unwrap();
                store.flush().unwrap();
            }
            store.len()
        };
        let mark = StoreMark::of_closed(&dir, records);
        assert_eq!(mark.records, 10);

        // Intact (plus a torn tail the reopen must drop): passes.
        let wal = dir.join("evidence.wal");
        let mut bytes = std::fs::read(&wal).unwrap();
        bytes.extend_from_slice(&[0, 0, 0, 200, 1, 2, 3, 4, 9, 9, 9]);
        std::fs::write(&wal, &bytes).unwrap();
        let reopened = FileStore::open(&dir).unwrap();
        assert!(check_reopened(&dir, &mark, &reopened).is_empty());
        drop(reopened);

        // Cut the last record out of the log: caught twice over.
        let bytes = std::fs::read(&wal).unwrap();
        std::fs::write(&wal, &bytes[..frame_starts[9] as usize]).unwrap();
        let reopened = FileStore::open(&dir).unwrap();
        assert_eq!(check_reopened(&dir, &mark, &reopened).len(), 2);
        drop(reopened);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
