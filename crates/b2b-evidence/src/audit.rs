//! Whole-log audits and cross-log queries.
//!
//! During extra-protocol dispute resolution (§4.1: "this evidence can be
//! used in extra-protocol arbitration to resolve disputes"), an arbiter is
//! handed parties' non-repudiation logs. [`LogAuditor`] performs the
//! generic half of that job: verifying every record cryptographically and
//! answering "does this log contain a signed record of kind K in run R by
//! party P?" — the queries from which `b2b-core::dispute` composes
//! protocol-specific claim checking.

use crate::record::{EvidenceKind, EvidenceRecord};
use crate::store::EvidenceStore;
use crate::verify::{verify_record, RecordFault};
use b2b_crypto::{KeyRing, PartyId, PublicKey};

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

/// Verifies logs and answers evidence queries for an arbiter.
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

    /// Finds verified records of `kind` in run `run`, optionally restricted
    /// to a specific origin. Unverifiable records are never returned: a
    /// forged entry cannot support a claim.
    pub fn find_evidence(
        &self,
        store: &dyn EvidenceStore,
        run: &str,
        kind: EvidenceKind,
        origin: Option<&PartyId>,
    ) -> Vec<EvidenceRecord> {
        store
            .records_for_run(run)
            .into_iter()
            .filter(|r| r.kind == kind)
            .filter(|r| origin.is_none_or(|o| &r.origin == o))
            .filter(|r| verify_record(r, &self.ring, self.tsa_key.as_ref()).is_ok())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::MemStore;
    use b2b_crypto::{KeyPair, Signer, TimeMs};

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
    fn forged_record_is_flagged_and_excluded_from_queries() {
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
        assert_eq!(report.faults.len(), 1);
        assert!(auditor
            .find_evidence(&store, "r1", EvidenceKind::StateRespond, None)
            .is_empty());
        assert_eq!(
            auditor
                .find_evidence(&store, "r1", EvidenceKind::StatePropose, None)
                .len(),
            1
        );
    }

    #[test]
    fn find_evidence_filters_by_origin() {
        let (kp, mut ring, store) = setup();
        let other = KeyPair::generate_from_seed(2);
        ring.register(PartyId::new("q"), other.public_key());
        push_signed(&store, &kp, "r1", EvidenceKind::StateRespond, b"by-p");
        let rec = EvidenceRecord::new(
            EvidenceKind::StateRespond,
            "obj",
            "r1",
            PartyId::new("q"),
            b"by-q".to_vec(),
            Some(other.sign(b"by-q")),
            None,
            TimeMs(0),
        );
        store.append(rec).unwrap();

        let auditor = LogAuditor::new(ring, None);
        let p_only = auditor.find_evidence(
            &store,
            "r1",
            EvidenceKind::StateRespond,
            Some(&PartyId::new("p")),
        );
        assert_eq!(p_only.len(), 1);
        assert_eq!(p_only[0].payload, b"by-p".to_vec());
        let all = auditor.find_evidence(&store, "r1", EvidenceKind::StateRespond, None);
        assert_eq!(all.len(), 2);
    }
}
