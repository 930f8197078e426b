//! Both evidence stores answer every read the same way.
//!
//! The same seeded random records go into a `MemStore`, a durable
//! `FileStore` and a group-commit `FileStore` that is flushed at random
//! points and at the end. All three must agree with each other, and with
//! the records as appended, on `len`, on `get` for every sequence number
//! and one past the end, on `records()` and on `records_for_run` — and the
//! file stores must still agree after they are closed and reopened.

use b2b_crypto::{KeyPair, PartyId, Signer, TimeMs, TimeStampAuthority};
use b2b_evidence::{EvidenceKind, EvidenceRecord, EvidenceStore, FileStore, MemStore};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::path::PathBuf;

const CASES: u64 = 12;

const KINDS: [EvidenceKind; 6] = [
    EvidenceKind::StatePropose,
    EvidenceKind::StateRespond,
    EvidenceKind::StateDecide,
    EvidenceKind::MemberAnswer,
    EvidenceKind::Checkpoint,
    EvidenceKind::TtpAbort,
];

const RUNS: [&str; 4] = ["r0", "r1", "r2", ""];

fn temp_dir(tag: &str, case: u64) -> PathBuf {
    std::env::temp_dir().join(format!(
        "b2b-store-conf-{tag}-{case}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ))
}

fn random_record(rng: &mut StdRng, kp: &KeyPair, tsa: &TimeStampAuthority) -> EvidenceRecord {
    let len = rng.gen_range(0..=300usize);
    let payload: Vec<u8> = (0..len).map(|_| rng.gen_range(0..=255u64) as u8).collect();
    EvidenceRecord::new(
        KINDS[rng.gen_range(0..KINDS.len())],
        ["order-1", "order-2", "é"][rng.gen_range(0..3usize)],
        RUNS[rng.gen_range(0..RUNS.len())],
        PartyId::new(["customer", "supplier"][rng.gen_range(0..2usize)]),
        payload.clone(),
        rng.gen_bool(0.6).then(|| kp.sign(&payload)),
        rng.gen_bool(0.5)
            .then(|| tsa.stamp(&payload, TimeMs(rng.gen_range(0..1_000u64)))),
        TimeMs(rng.gen_range(0..u64::MAX)),
    )
}

/// Every read `store` offers, checked against the records as appended.
fn assert_reads(store: &dyn EvidenceStore, expected: &[EvidenceRecord], what: &str) {
    assert_eq!(store.len(), expected.len(), "{what}: len");
    assert_eq!(store.is_empty(), expected.is_empty(), "{what}: is_empty");
    for (seq, rec) in expected.iter().enumerate() {
        assert_eq!(
            store.get(seq as u64).as_ref(),
            Some(rec),
            "{what}: get({seq})"
        );
    }
    assert_eq!(
        store.get(expected.len() as u64),
        None,
        "{what}: get past the end"
    );
    assert_eq!(store.records(), expected, "{what}: records()");
    for run in RUNS.iter().chain(&["absent"]) {
        let want: Vec<_> = expected.iter().filter(|r| r.run == *run).cloned().collect();
        assert_eq!(
            store.records_for_run(run),
            want,
            "{what}: records_for_run({run:?})"
        );
    }
}

#[test]
fn mem_durable_and_group_commit_stores_agree() {
    let kp = KeyPair::generate_from_seed(11);
    let tsa = TimeStampAuthority::new(KeyPair::generate_from_seed(12));
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x5709E ^ case);
        let (durable_dir, group_dir) = (temp_dir("durable", case), temp_dir("group", case));
        for dir in [&durable_dir, &group_dir] {
            let _ = std::fs::remove_dir_all(dir);
        }
        let mem = MemStore::new();
        let durable = FileStore::open(&durable_dir).unwrap();
        let group = FileStore::open(&group_dir).unwrap().group_commit(true);

        let mut expected = Vec::new();
        for seq in 0..rng.gen_range(0..40u64) {
            let mut rec = random_record(&mut rng, &kp, &tsa);
            for store in [&mem as &dyn EvidenceStore, &durable, &group] {
                assert_eq!(store.append(rec.clone()).unwrap(), seq);
            }
            if rng.gen_bool(0.2) {
                group.flush().unwrap();
            }
            rec.seq = seq;
            expected.push(rec);
        }
        group.flush().unwrap();
        assert_reads(&mem, &expected, "mem");
        assert_reads(&durable, &expected, "durable");
        assert_reads(&group, &expected, "group commit");

        drop((durable, group));
        assert_reads(
            &FileStore::open(&durable_dir).unwrap(),
            &expected,
            "durable reopened",
        );
        assert_reads(
            &FileStore::open(&group_dir).unwrap(),
            &expected,
            "group reopened",
        );
        for dir in [&durable_dir, &group_dir] {
            std::fs::remove_dir_all(dir).unwrap();
        }
    }
}
