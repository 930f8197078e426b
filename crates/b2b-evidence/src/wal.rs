//! Crash-safe file-backed evidence log and snapshot store.
//!
//! Format of `evidence.wal`: a sequence of frames, each
//! `[u32 big-endian body length][u32 big-endian CRC-32 of body][body]`
//! where the body is the binary form of an [`EvidenceRecord`] (see its
//! `CanonicalEncode` impl; first byte [`crate::record::RECORD_FORMAT`]).
//! On open, frames are replayed until the first truncated or CRC-corrupt
//! frame — a torn tail from a crash mid-append — which is discarded by
//! truncating the file, matching standard write-ahead-log recovery. A frame
//! whose CRC *matches* but whose body is not a record this version can
//! decode is not a torn write: it is a log in another format, and `open`
//! fails with [`StoreError::Codec`] leaving the file untouched rather than
//! truncating evidence away.
//!
//! Snapshots are stored as `snap-<hex(key)>.bin` files in the same
//! directory, written via a temp file + rename so a crash never leaves a
//! half-written checkpoint visible.

use crate::record::EvidenceRecord;
use crate::store::{EvidenceStore, SnapshotStore, StoreError};
use b2b_crypto::{CanonicalDecode, CanonicalEncode, Encoder};
use b2b_telemetry::{names, Telemetry};
use parking_lot::Mutex;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// The reflected CRC-32 (IEEE) polynomial.
const CRC32_POLY: u32 = 0xedb8_8320;

/// `CRC32_TABLE[b]` is the CRC register after shifting byte `b` through
/// eight bit-steps, so the per-byte loop is one lookup instead of eight.
const CRC32_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (CRC32_POLY & mask);
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// CRC-32 (IEEE) over `data`, implemented locally to avoid a dependency.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc: u32 = 0xffff_ffff;
    for &byte in data {
        crc = (crc >> 8) ^ CRC32_TABLE[((crc ^ u32::from(byte)) & 0xff) as usize];
    }
    !crc
}

struct WalInner {
    file: File,
    records: Vec<EvidenceRecord>,
    /// Encoded frames awaiting the next group-commit flush (always empty in
    /// the default durable-per-append mode).
    pending: Vec<u8>,
}

/// File-backed [`EvidenceStore`] + [`SnapshotStore`].
///
/// # Example
///
/// ```no_run
/// use b2b_evidence::{EvidenceStore, FileStore};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let store = FileStore::open("/tmp/party-a-log")?;
/// assert!(store.is_empty());
/// # Ok(())
/// # }
/// ```
pub struct FileStore {
    dir: PathBuf,
    inner: Mutex<WalInner>,
    telemetry: Telemetry,
    group_commit: bool,
}

impl std::fmt::Debug for FileStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "FileStore({})", self.dir.display())
    }
}

impl FileStore {
    /// Opens (creating if necessary) the store in directory `dir`,
    /// replaying any existing log and discarding a torn tail.
    ///
    /// # Errors
    ///
    /// Returns an error if the directory or log file cannot be created or
    /// read, and [`StoreError::Codec`] — with the file left exactly as it
    /// was — if the log holds an intact frame that is not a record in this
    /// version's format.
    pub fn open(dir: impl AsRef<Path>) -> Result<FileStore, StoreError> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        let wal_path = dir.join("evidence.wal");
        let mut file = OpenOptions::new()
            .read(true)
            .create(true)
            .append(true)
            .open(&wal_path)?;

        let mut bytes = Vec::new();
        file.seek(SeekFrom::Start(0))?;
        file.read_to_end(&mut bytes)?;

        let (records, valid_len) = replay(&bytes)?;
        if valid_len < bytes.len() as u64 {
            // Torn tail: truncate it away so future appends are clean.
            file.set_len(valid_len)?;
            file.seek(SeekFrom::End(0))?;
        }
        Ok(FileStore {
            dir,
            inner: Mutex::new(WalInner {
                file,
                records,
                pending: Vec::new(),
            }),
            telemetry: Telemetry::default(),
            group_commit: false,
        })
    }

    /// Attaches an observability handle; every successful append then bumps
    /// the `wal_appends` counter in its registry.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> FileStore {
        self.telemetry = telemetry;
        self
    }

    /// Selects group-commit mode (default `false`: durable per append).
    ///
    /// In group-commit mode, appends buffer their encoded frames in memory
    /// and [`EvidenceStore::flush`] writes the whole batch with a single
    /// write + flush at a protocol-step boundary. A crash between appends
    /// and the flush loses only that unflushed batch — the log on disk
    /// still ends at a frame boundary (or in a torn tail that reopen
    /// truncates), exactly the standard WAL recovery already in place.
    /// Durability weakens from per-record to per-step; detection and
    /// audit semantics over flushed records are unchanged.
    pub fn group_commit(mut self, enabled: bool) -> FileStore {
        self.group_commit = enabled;
        self
    }

    /// The directory this store lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn snapshot_path(&self, key: &str) -> PathBuf {
        self.dir.join(format!("snap-{}.bin", hex::encode(key)))
    }
}

/// Replays frames from `bytes`, returning the decoded records and the byte
/// length of the valid prefix. What follows the prefix is a torn tail: a
/// frame cut short or failing its CRC. A frame that passes its CRC but
/// does not decode is an error, never a tail.
fn replay(bytes: &[u8]) -> Result<(Vec<EvidenceRecord>, u64), StoreError> {
    let mut records = Vec::new();
    let mut offset = 0usize;
    loop {
        if offset + 8 > bytes.len() {
            break;
        }
        let len =
            u32::from_be_bytes(bytes[offset..offset + 4].try_into().expect("4 bytes")) as usize;
        let crc = u32::from_be_bytes(bytes[offset + 4..offset + 8].try_into().expect("4 bytes"));
        let body_start = offset + 8;
        let body_end = body_start + len;
        if body_end > bytes.len() {
            break; // truncated frame
        }
        let body = &bytes[body_start..body_end];
        if crc32(body) != crc {
            break; // corrupt frame: stop at last good prefix
        }
        let record = EvidenceRecord::from_canonical(body).map_err(|e| {
            StoreError::Codec(format!(
                "intact frame at byte {offset} is not a record in this format: {e}"
            ))
        })?;
        records.push(record);
        offset = body_end;
    }
    Ok((records, offset as u64))
}

impl EvidenceStore for FileStore {
    fn append(&self, mut record: EvidenceRecord) -> Result<u64, StoreError> {
        let mut inner = self.inner.lock();
        let seq = inner.records.len() as u64;
        record.seq = seq;
        // Header placeholder first, so the body is encoded in place.
        let mut enc = Encoder::with_capacity(8 + record.encoded_size_hint());
        enc.put_raw(&[0u8; 8]);
        record.encode(&mut enc);
        let mut frame = enc.finish();
        let body_len = u32::try_from(frame.len() - 8)
            .map_err(|_| StoreError::Codec("record body exceeds the u32 frame length".into()))?;
        let crc = crc32(&frame[8..]);
        frame[..4].copy_from_slice(&body_len.to_be_bytes());
        frame[4..8].copy_from_slice(&crc.to_be_bytes());
        if self.group_commit {
            inner.pending.extend_from_slice(&frame);
        } else {
            inner.file.write_all(&frame)?;
            inner.file.flush()?;
            self.telemetry.inc(names::WAL_FLUSHES);
        }
        inner.records.push(record);
        self.telemetry.inc(names::WAL_APPENDS);
        Ok(seq)
    }

    fn flush(&self) -> Result<(), StoreError> {
        let mut inner = self.inner.lock();
        if inner.pending.is_empty() {
            return Ok(());
        }
        let pending = std::mem::take(&mut inner.pending);
        inner.file.write_all(&pending)?;
        inner.file.flush()?;
        self.telemetry.inc(names::WAL_FLUSHES);
        Ok(())
    }

    fn len(&self) -> usize {
        self.inner.lock().records.len()
    }

    fn get(&self, seq: u64) -> Option<EvidenceRecord> {
        self.inner.lock().records.get(seq as usize).cloned()
    }

    fn records(&self) -> Vec<EvidenceRecord> {
        self.inner.lock().records.clone()
    }
}

impl Drop for FileStore {
    fn drop(&mut self) {
        // Best-effort final flush of a group-commit batch on clean close;
        // a crash (no Drop) is the case the torn-tail recovery covers.
        let _ = EvidenceStore::flush(self);
    }
}

impl SnapshotStore for FileStore {
    fn put_snapshot(&self, key: &str, bytes: Vec<u8>) -> Result<(), StoreError> {
        let path = self.snapshot_path(key);
        let tmp = path.with_extension("tmp");
        {
            let mut f = File::create(&tmp)?;
            f.write_all(&bytes)?;
            f.flush()?;
        }
        std::fs::rename(&tmp, &path)?;
        Ok(())
    }

    fn get_snapshot(&self, key: &str) -> Option<Vec<u8>> {
        std::fs::read(self.snapshot_path(key)).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::EvidenceKind;
    use b2b_crypto::{PartyId, TimeMs};

    fn rec(run: &str, payload: Vec<u8>) -> EvidenceRecord {
        EvidenceRecord::new(
            EvidenceKind::StateRespond,
            "obj",
            run,
            PartyId::new("p"),
            payload,
            None,
            None,
            TimeMs(7),
        )
    }

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("b2b-wal-test-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn crc32_known_vector() {
        // CRC-32("123456789") = 0xCBF43926 (IEEE check value).
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The bit-at-a-time CRC-32 the table replaced: the reference.
    fn crc32_bitwise(data: &[u8]) -> u32 {
        let mut crc: u32 = 0xffff_ffff;
        for &byte in data {
            crc ^= u32::from(byte);
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (CRC32_POLY & mask);
            }
        }
        !crc
    }

    #[test]
    fn crc32_table_matches_bitwise_reference() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xC4C32);
        for _ in 0..1_000 {
            let len = rng.gen_range(0..=4_096usize);
            let buf: Vec<u8> = (0..len).map(|_| rng.gen_range(0..=255u64) as u8).collect();
            assert_eq!(crc32(&buf), crc32_bitwise(&buf), "len {len}");
        }
    }

    #[test]
    fn append_and_reopen_recovers_records() {
        let dir = temp_dir("reopen");
        {
            let store = FileStore::open(&dir).unwrap();
            store.append(rec("r1", vec![1])).unwrap();
            store.append(rec("r2", vec![2, 3])).unwrap();
        }
        let store = FileStore::open(&dir).unwrap();
        assert_eq!(store.len(), 2);
        assert_eq!(store.get(0).unwrap().run, "r1");
        assert_eq!(store.get(1).unwrap().payload, vec![2, 3]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_discarded_on_reopen() {
        let dir = temp_dir("torn");
        {
            let store = FileStore::open(&dir).unwrap();
            store.append(rec("good", vec![1])).unwrap();
        }
        // Simulate a crash mid-append: write a partial frame.
        let wal = dir.join("evidence.wal");
        let mut f = OpenOptions::new().append(true).open(&wal).unwrap();
        f.write_all(&[0, 0, 0, 99, 1, 2]).unwrap(); // truncated header+body
        drop(f);

        let store = FileStore::open(&dir).unwrap();
        assert_eq!(store.len(), 1, "good prefix survives, torn tail dropped");
        // And the store is appendable again.
        store.append(rec("after", vec![9])).unwrap();
        drop(store);
        let store = FileStore::open(&dir).unwrap();
        assert_eq!(store.len(), 2);
        assert_eq!(store.get(1).unwrap().run, "after");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_crc_stops_replay() {
        let dir = temp_dir("crc");
        {
            let store = FileStore::open(&dir).unwrap();
            store.append(rec("a", vec![1])).unwrap();
            store.append(rec("b", vec![2])).unwrap();
        }
        // Flip a byte inside the second frame's body.
        let wal = dir.join("evidence.wal");
        let mut bytes = std::fs::read(&wal).unwrap();
        let last = bytes.len() - 3;
        bytes[last] ^= 0xff;
        std::fs::write(&wal, &bytes).unwrap();

        let store = FileStore::open(&dir).unwrap();
        assert_eq!(store.len(), 1);
        assert_eq!(store.get(0).unwrap().run, "a");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Appends one frame with a valid CRC around `body` to the log.
    fn append_intact_frame(wal: &Path, body: &[u8]) {
        let mut f = OpenOptions::new().append(true).open(wal).unwrap();
        f.write_all(&(body.len() as u32).to_be_bytes()).unwrap();
        f.write_all(&crc32(body).to_be_bytes()).unwrap();
        f.write_all(body).unwrap();
    }

    /// A frame that passed its CRC was written whole: if it does not
    /// decode it is a log in another format (an earlier version's JSON
    /// bodies, say), and truncating there would erase evidence. `open`
    /// must refuse and leave the file byte-for-byte alone.
    #[test]
    fn intact_frame_in_another_format_is_refused_not_truncated() {
        let json_body = br#"{"seq":1,"kind":"StateRespond","object":"obj"}"#;
        let mut unknown_format = rec("x", vec![1]).canonical_bytes();
        unknown_format[0] = crate::record::RECORD_FORMAT + 1;
        let mut undecodable = rec("x", vec![1]).canonical_bytes();
        undecodable.truncate(undecodable.len() - 3);
        for (tag, body) in [
            ("json", &json_body[..]),
            ("format", &unknown_format[..]),
            ("body", &undecodable[..]),
            ("empty", &[][..]),
        ] {
            let dir = temp_dir(&format!("foreign-{tag}"));
            {
                let store = FileStore::open(&dir).unwrap();
                store.append(rec("good", vec![1])).unwrap();
            }
            let wal = dir.join("evidence.wal");
            append_intact_frame(&wal, body);
            let before = std::fs::read(&wal).unwrap();
            match FileStore::open(&dir) {
                Err(StoreError::Codec(_)) => {}
                other => panic!("{tag}: expected a codec error, got {other:?}"),
            }
            assert_eq!(
                std::fs::read(&wal).unwrap(),
                before,
                "{tag}: file untouched"
            );
            std::fs::remove_dir_all(&dir).unwrap();
        }
        // The same body with a failing CRC is a torn tail, as ever.
        let dir = temp_dir("foreign-torn");
        {
            let store = FileStore::open(&dir).unwrap();
            store.append(rec("good", vec![1])).unwrap();
        }
        let wal = dir.join("evidence.wal");
        let good_len = std::fs::metadata(&wal).unwrap().len();
        append_intact_frame(&wal, json_body);
        let mut bytes = std::fs::read(&wal).unwrap();
        *bytes.last_mut().unwrap() ^= 1;
        std::fs::write(&wal, &bytes).unwrap();
        let store = FileStore::open(&dir).unwrap();
        assert_eq!(store.len(), 1);
        assert_eq!(std::fs::metadata(&wal).unwrap().len(), good_len);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshots_roundtrip_and_replace() {
        let dir = temp_dir("snap");
        let store = FileStore::open(&dir).unwrap();
        assert_eq!(store.get_snapshot("obj"), None);
        store.put_snapshot("obj", vec![1, 2]).unwrap();
        store.put_snapshot("obj", vec![3]).unwrap();
        assert_eq!(store.get_snapshot("obj"), Some(vec![3]));
        // Keys with path-hostile characters are safe (hex-encoded).
        store.put_snapshot("../evil", vec![9]).unwrap();
        assert_eq!(store.get_snapshot("../evil"), Some(vec![9]));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn appends_are_counted_into_telemetry() {
        let dir = temp_dir("telemetry");
        let tel = Telemetry::new();
        let store = FileStore::open(&dir).unwrap().with_telemetry(tel.clone());
        store.append(rec("a", vec![1])).unwrap();
        store.append(rec("b", vec![2])).unwrap();
        assert_eq!(tel.metrics().snapshot().counter(names::WAL_APPENDS), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn group_commit_batches_until_flush() {
        let dir = temp_dir("group");
        let tel = Telemetry::new();
        let store = FileStore::open(&dir)
            .unwrap()
            .with_telemetry(tel.clone())
            .group_commit(true);
        store.append(rec("a", vec![1])).unwrap();
        store.append(rec("b", vec![2])).unwrap();
        store.append(rec("c", vec![3])).unwrap();
        // Nothing on disk yet; reads still see the appended records.
        assert_eq!(std::fs::read(dir.join("evidence.wal")).unwrap().len(), 0);
        assert_eq!(store.len(), 3);
        assert_eq!(tel.metrics().snapshot().counter(names::WAL_FLUSHES), 0);
        store.flush().unwrap();
        assert_eq!(tel.metrics().snapshot().counter(names::WAL_FLUSHES), 1);
        assert!(!std::fs::read(dir.join("evidence.wal")).unwrap().is_empty());
        // A second flush with nothing pending is a no-op.
        store.flush().unwrap();
        assert_eq!(tel.metrics().snapshot().counter(names::WAL_FLUSHES), 1);
        drop(store);
        let store = FileStore::open(&dir).unwrap();
        assert_eq!(store.len(), 3);
        assert_eq!(store.get(2).unwrap().run, "c");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unflushed_batch_is_lost_on_crash_but_log_stays_well_formed() {
        let dir = temp_dir("group-crash");
        let store = FileStore::open(&dir).unwrap().group_commit(true);
        store.append(rec("flushed", vec![1])).unwrap();
        store.flush().unwrap();
        store.append(rec("lost", vec![2])).unwrap();
        // Simulate a crash: the process dies before the step-boundary
        // flush, so the on-disk log holds only the flushed prefix.
        let on_disk = std::fs::read(dir.join("evidence.wal")).unwrap();
        let (records, valid) = replay(&on_disk).unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].run, "flushed");
        assert_eq!(valid, on_disk.len() as u64, "log ends at a frame boundary");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn durable_mode_flushes_every_append() {
        let dir = temp_dir("durable-count");
        let tel = Telemetry::new();
        let store = FileStore::open(&dir).unwrap().with_telemetry(tel.clone());
        store.append(rec("a", vec![1])).unwrap();
        store.append(rec("b", vec![2])).unwrap();
        assert_eq!(tel.metrics().snapshot().counter(names::WAL_FLUSHES), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn seq_numbers_continue_after_reopen() {
        let dir = temp_dir("seq");
        {
            let store = FileStore::open(&dir).unwrap();
            assert_eq!(store.append(rec("a", vec![])).unwrap(), 0);
        }
        let store = FileStore::open(&dir).unwrap();
        assert_eq!(store.append(rec("b", vec![])).unwrap(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
