//! Whole-log audits.
//!
//! [`LogAuditor`] verifies every record of a log cryptographically, each
//! on its own, and counts the faults. Reading a log as a protocol history
//! — what it installed, in what order, on whose agreement — is
//! `b2b-core::history`, which the arbiter judges claims through.

use crate::store::EvidenceStore;
use crate::verify::{verify_record, RecordFault};
use b2b_crypto::{KeyRing, PublicKey};

/// The result of auditing one log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditReport {
    /// Total records examined.
    pub total: usize,
    /// Records that passed signature/time-stamp verification.
    pub valid: usize,
    /// Failures: `(seq, fault)` for each bad record.
    pub faults: Vec<(u64, RecordFault)>,
}

impl AuditReport {
    /// Returns `true` if every record verified.
    pub fn is_clean(&self) -> bool {
        self.faults.is_empty()
    }
}

/// Verifies every record of a log.
#[derive(Debug, Clone)]
pub struct LogAuditor {
    ring: KeyRing,
    tsa_key: Option<PublicKey>,
}

impl LogAuditor {
    /// Creates an auditor trusting `ring` for party keys and, optionally,
    /// `tsa_key` for time-stamp tokens.
    pub fn new(ring: KeyRing, tsa_key: Option<PublicKey>) -> LogAuditor {
        LogAuditor { ring, tsa_key }
    }

    /// Cryptographically verifies every record in `store`.
    pub fn audit(&self, store: &dyn EvidenceStore) -> AuditReport {
        let records = store.records();
        let mut faults = Vec::new();
        for rec in &records {
            if let Err(fault) = verify_record(rec, &self.ring, self.tsa_key.as_ref()) {
                faults.push((rec.seq, fault));
            }
        }
        AuditReport {
            total: records.len(),
            valid: records.len() - faults.len(),
            faults,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{EvidenceKind, EvidenceRecord};
    use crate::store::MemStore;
    use b2b_crypto::{KeyPair, PartyId, Signer, TimeMs};

    fn setup() -> (KeyPair, KeyRing, MemStore) {
        let kp = KeyPair::generate_from_seed(1);
        let mut ring = KeyRing::new();
        ring.register(PartyId::new("p"), kp.public_key());
        (kp, ring, MemStore::new())
    }

    fn push_signed(store: &MemStore, kp: &KeyPair, run: &str, kind: EvidenceKind, body: &[u8]) {
        let rec = EvidenceRecord::new(
            kind,
            "obj",
            run,
            PartyId::new("p"),
            body.to_vec(),
            Some(kp.sign(body)),
            None,
            TimeMs(0),
        );
        store.append(rec).unwrap();
    }

    #[test]
    fn clean_log_audits_clean() {
        let (kp, ring, store) = setup();
        push_signed(&store, &kp, "r1", EvidenceKind::StatePropose, b"a");
        push_signed(&store, &kp, "r1", EvidenceKind::StateRespond, b"b");
        let auditor = LogAuditor::new(ring, None);
        let report = auditor.audit(&store);
        assert!(report.is_clean());
        assert_eq!(report.total, 2);
        assert_eq!(report.valid, 2);
    }

    #[test]
    fn forged_record_is_flagged() {
        let (kp, ring, store) = setup();
        push_signed(&store, &kp, "r1", EvidenceKind::StatePropose, b"good");
        // Forgery: payload swapped after signing.
        let mut forged = EvidenceRecord::new(
            EvidenceKind::StateRespond,
            "obj",
            "r1",
            PartyId::new("p"),
            b"claimed".to_vec(),
            Some(kp.sign(b"actually-signed")),
            None,
            TimeMs(0),
        );
        forged.seq = 0;
        store.append(forged).unwrap();

        let auditor = LogAuditor::new(ring, None);
        let report = auditor.audit(&store);
        assert_eq!(report.valid, 1);
        assert_eq!(
            report.faults,
            vec![(1, RecordFault::BadSignature("p".into()))]
        );
    }
}
