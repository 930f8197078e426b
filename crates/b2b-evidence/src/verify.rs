//! Verification of individual evidence records.
//!
//! "It is possible to verify that the signed parts of protocol messages are
//! consistent with the unsigned parts" (§4.4). At this layer we check the
//! cryptographic half of that claim — signatures bind the origin to the
//! payload, time-stamps bind the payload to a time. Protocol-level
//! consistency (tuple linkage, run membership) is checked by
//! `b2b-core::dispute` on top.

use crate::record::EvidenceRecord;
use b2b_crypto::{KeyRing, PublicKey};
use thiserror::Error;

/// Why a record failed verification.
#[derive(Debug, Error, Clone, PartialEq, Eq)]
pub enum RecordFault {
    /// The record claims an origin with no registered key.
    #[error("origin {0} has no registered key")]
    UnknownOrigin(String),
    /// The origin's signature over the payload does not verify.
    #[error("signature by {0} does not verify over payload")]
    BadSignature(String),
    /// The record carries no signature although its kind requires one.
    #[error("record of kind {0} is unsigned")]
    MissingSignature(String),
    /// The time-stamp token does not verify against the TSA key.
    #[error("time-stamp token invalid: {0}")]
    BadTimeStamp(String),
}

/// Kinds that evidence a remote party's action and therefore must be
/// signed. Local bookkeeping kinds (checkpoints, misbehaviour notes) need
/// no signature, and decide aggregations are authenticated by the revealed
/// authenticator rather than a signature (paper §4.3: "m3 requires no
/// signature since only the proposer can produce the authenticator").
fn requires_signature(record: &EvidenceRecord) -> bool {
    use crate::record::EvidenceKind::*;
    !matches!(
        record.kind,
        Checkpoint | Misbehaviour | StateDecide | ConnectDecide | DisconnectDecide | TtpAbort
    )
}

/// Verifies one record's signature and (if present) time-stamp.
///
/// `tsa_key` is the time-stamping authority's public key; pass `None` to
/// skip time-stamp checking (e.g. for logs produced without a TSA).
///
/// # Errors
///
/// Returns the first [`RecordFault`] found.
///
/// # Example
///
/// ```
/// use b2b_crypto::{KeyPair, KeyRing, PartyId, Signer, TimeMs};
/// use b2b_evidence::{verify_record, EvidenceKind, EvidenceRecord};
///
/// let kp = KeyPair::generate_from_seed(1);
/// let mut ring = KeyRing::new();
/// ring.register(PartyId::new("p"), kp.public_key());
///
/// let payload = b"signed content".to_vec();
/// let rec = EvidenceRecord::new(
///     EvidenceKind::StatePropose, "obj", "run", PartyId::new("p"),
///     payload.clone(), Some(kp.sign(&payload)), None, TimeMs(0),
/// );
/// assert!(verify_record(&rec, &ring, None).is_ok());
/// ```
pub fn verify_record(
    record: &EvidenceRecord,
    ring: &KeyRing,
    tsa_key: Option<&PublicKey>,
) -> Result<(), RecordFault> {
    match (&record.signature, requires_signature(record)) {
        (Some(sig), _) => {
            ring.verify_for(&record.origin, &record.payload, sig)
                .map_err(|e| match e {
                    b2b_crypto::CryptoError::UnknownParty(p) => RecordFault::UnknownOrigin(p),
                    _ => RecordFault::BadSignature(record.origin.to_string()),
                })?;
        }
        (None, true) => {
            return Err(RecordFault::MissingSignature(
                record.kind.name().to_string(),
            ));
        }
        (None, false) => {}
    }
    if let (Some(ts), Some(key)) = (&record.timestamp, tsa_key) {
        ts.verify(key, &record.payload)
            .map_err(|e| RecordFault::BadTimeStamp(e.to_string()))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{EvidenceKind, EvidenceRecord};
    use b2b_crypto::{KeyPair, PartyId, Signer, TimeMs, TimeStampAuthority};

    fn setup() -> (KeyPair, KeyRing, TimeStampAuthority) {
        let kp = KeyPair::generate_from_seed(1);
        let mut ring = KeyRing::new();
        ring.register(PartyId::new("p"), kp.public_key());
        let tsa = TimeStampAuthority::new(KeyPair::generate_from_seed(99));
        (kp, ring, tsa)
    }

    fn signed_record(kp: &KeyPair, payload: &[u8]) -> EvidenceRecord {
        EvidenceRecord::new(
            EvidenceKind::StateRespond,
            "obj",
            "run",
            PartyId::new("p"),
            payload.to_vec(),
            Some(kp.sign(payload)),
            None,
            TimeMs(0),
        )
    }

    #[test]
    fn valid_record_passes() {
        let (kp, ring, _) = setup();
        let rec = signed_record(&kp, b"x");
        assert!(verify_record(&rec, &ring, None).is_ok());
    }

    #[test]
    fn tampered_payload_fails() {
        let (kp, ring, _) = setup();
        let mut rec = signed_record(&kp, b"x");
        rec.payload = b"tampered".to_vec();
        assert_eq!(
            verify_record(&rec, &ring, None),
            Err(RecordFault::BadSignature("p".into()))
        );
    }

    #[test]
    fn unknown_origin_fails() {
        let (kp, _, _) = setup();
        let ring = KeyRing::new();
        let rec = signed_record(&kp, b"x");
        assert_eq!(
            verify_record(&rec, &ring, None),
            Err(RecordFault::UnknownOrigin("p".into()))
        );
    }

    #[test]
    fn unsigned_protocol_record_fails() {
        let (kp, ring, _) = setup();
        let mut rec = signed_record(&kp, b"x");
        rec.signature = None;
        assert_eq!(
            verify_record(&rec, &ring, None),
            Err(RecordFault::MissingSignature("state-respond".into()))
        );
    }

    #[test]
    fn unsigned_checkpoint_is_fine() {
        let (_, ring, _) = setup();
        let rec = EvidenceRecord::new(
            EvidenceKind::Checkpoint,
            "obj",
            "run",
            PartyId::new("p"),
            vec![1],
            None,
            None,
            TimeMs(0),
        );
        assert!(verify_record(&rec, &ring, None).is_ok());
    }

    #[test]
    fn timestamp_checked_when_tsa_key_given() {
        let (kp, ring, tsa) = setup();
        let mut rec = signed_record(&kp, b"x");
        rec.timestamp = Some(tsa.stamp(b"x", TimeMs(5)));
        assert!(verify_record(&rec, &ring, Some(&tsa.public_key())).is_ok());

        // A stamp over different content is rejected.
        rec.timestamp = Some(tsa.stamp(b"other", TimeMs(5)));
        assert!(matches!(
            verify_record(&rec, &ring, Some(&tsa.public_key())),
            Err(RecordFault::BadTimeStamp(_))
        ));
    }
}
