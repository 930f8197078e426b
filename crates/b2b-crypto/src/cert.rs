//! Certificate management.
//!
//! The B2BObjects overview (§3) lists "certificate management and
//! non-repudiation services" among the middleware's responsibilities:
//! authentication of access to objects and verification of signatures on
//! actions. This module provides the minimal PKI those services need — a
//! certificate authority all parties accept, identity certificates binding
//! a [`PartyId`] to a [`PublicKey`] over a validity window, and verification.

use crate::canonical::{CanonicalEncode, Encoder};
use crate::identity::PartyId;
use crate::keys::{KeyRing, PublicKey};
use crate::sig::{SigVerifier, Signature, Signer};
use crate::time::TimeMs;
use std::sync::Arc;
use thiserror::Error;

/// Errors arising from certificate issuance or verification.
#[derive(Debug, Error, Clone, PartialEq, Eq)]
pub enum CertificateError {
    /// The certificate's signature does not verify under the issuer key.
    #[error("certificate signature invalid")]
    BadSignature,
    /// The certificate is outside its validity window.
    #[error("certificate for {subject} not valid at {at}: window [{not_before}, {not_after})")]
    Expired {
        /// The certificate subject.
        subject: PartyId,
        /// The time at which validity was checked.
        at: TimeMs,
        /// Start of validity.
        not_before: TimeMs,
        /// End of validity (exclusive).
        not_after: TimeMs,
    },
    /// The certificate names a different subject than expected.
    #[error("certificate subject mismatch: expected {expected}, found {found}")]
    SubjectMismatch {
        /// The party the caller expected.
        expected: PartyId,
        /// The party named in the certificate.
        found: PartyId,
    },
}

/// An identity certificate: the CA's signed binding of a party to a key.
#[derive(Clone, Debug, PartialEq)]
pub struct Certificate {
    /// The party whose key this certifies.
    pub subject: PartyId,
    /// The certified verification key.
    pub public_key: PublicKey,
    /// Start of the validity window.
    pub not_before: TimeMs,
    /// End of the validity window (exclusive).
    pub not_after: TimeMs,
    /// Name of the issuing authority.
    pub issuer: PartyId,
    /// The issuer's signature over the above fields.
    pub sig: Signature,
}

impl Certificate {
    fn signed_bytes(
        subject: &PartyId,
        public_key: &PublicKey,
        not_before: TimeMs,
        not_after: TimeMs,
        issuer: &PartyId,
    ) -> Vec<u8> {
        let mut enc = Encoder::new();
        subject.encode(&mut enc);
        enc.put_u8(match public_key.scheme() {
            crate::sig::SignatureScheme::Ed25519 => 1,
        });
        enc.put_bytes(public_key.as_bytes());
        not_before.encode(&mut enc);
        not_after.encode(&mut enc);
        issuer.encode(&mut enc);
        enc.finish()
    }

    /// Verifies this certificate under the issuer's key at time `now`.
    ///
    /// # Errors
    ///
    /// Returns [`CertificateError::BadSignature`] for forged or tampered
    /// certificates and [`CertificateError::Expired`] outside the validity
    /// window.
    pub fn verify(&self, issuer_key: &PublicKey, now: TimeMs) -> Result<(), CertificateError> {
        let bytes = Self::signed_bytes(
            &self.subject,
            &self.public_key,
            self.not_before,
            self.not_after,
            &self.issuer,
        );
        issuer_key
            .verify(&bytes, &self.sig)
            .map_err(|_| CertificateError::BadSignature)?;
        if now < self.not_before || now >= self.not_after {
            return Err(CertificateError::Expired {
                subject: self.subject.clone(),
                at: now,
                not_before: self.not_before,
                not_after: self.not_after,
            });
        }
        Ok(())
    }
}

/// A certificate authority acceptable to all parties.
///
/// # Example
///
/// ```
/// use b2b_crypto::{CertificateAuthority, KeyPair, PartyId, Signer, TimeMs};
/// let ca = CertificateAuthority::new(PartyId::new("ca"), KeyPair::generate_from_seed(1));
/// let alice = KeyPair::generate_from_seed(2);
/// let cert = ca.issue(PartyId::new("alice"), alice.public_key(), TimeMs(0), TimeMs(1_000));
/// assert!(cert.verify(&ca.public_key(), TimeMs(500)).is_ok());
/// assert!(cert.verify(&ca.public_key(), TimeMs(2_000)).is_err());
/// ```
#[derive(Clone, Debug)]
pub struct CertificateAuthority {
    name: PartyId,
    signer: Arc<dyn Signer>,
}

impl CertificateAuthority {
    /// Creates a CA with the given name and signing key.
    pub fn new(name: PartyId, signer: impl Signer + 'static) -> CertificateAuthority {
        CertificateAuthority {
            name,
            signer: Arc::new(signer),
        }
    }

    /// The CA's name, used as the issuer field of its certificates.
    pub fn name(&self) -> &PartyId {
        &self.name
    }

    /// The CA's verification key, distributed out of band to all parties.
    pub fn public_key(&self) -> PublicKey {
        self.signer.public_key()
    }

    /// Issues a certificate binding `subject` to `key` over the window
    /// `[not_before, not_after)`.
    pub fn issue(
        &self,
        subject: PartyId,
        key: PublicKey,
        not_before: TimeMs,
        not_after: TimeMs,
    ) -> Certificate {
        let bytes = Certificate::signed_bytes(&subject, &key, not_before, not_after, &self.name);
        Certificate {
            subject,
            public_key: key,
            not_before,
            not_after,
            issuer: self.name.clone(),
            sig: self.signer.sign(&bytes),
        }
    }
}

/// Builds a [`KeyRing`] from certificates, verifying each against the CA.
///
/// Certificates that fail verification at `now` are skipped and reported.
///
/// # Example
///
/// ```
/// use b2b_crypto::{cert::ring_from_certificates, CertificateAuthority, KeyPair, PartyId, Signer, TimeMs};
/// let ca = CertificateAuthority::new(PartyId::new("ca"), KeyPair::generate_from_seed(1));
/// let kp = KeyPair::generate_from_seed(2);
/// let cert = ca.issue(PartyId::new("a"), kp.public_key(), TimeMs(0), TimeMs(100));
/// let (ring, rejected) = ring_from_certificates(&[cert], &ca.public_key(), TimeMs(50));
/// assert_eq!(ring.len(), 1);
/// assert!(rejected.is_empty());
/// ```
pub fn ring_from_certificates(
    certs: &[Certificate],
    ca_key: &PublicKey,
    now: TimeMs,
) -> (KeyRing, Vec<(PartyId, CertificateError)>) {
    let mut ring = KeyRing::new();
    let mut rejected = Vec::new();
    for cert in certs {
        match cert.verify(ca_key, now) {
            Ok(()) => ring.register(cert.subject.clone(), cert.public_key.clone()),
            Err(e) => rejected.push((cert.subject.clone(), e)),
        }
    }
    (ring, rejected)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::KeyPair;

    fn ca() -> CertificateAuthority {
        CertificateAuthority::new(PartyId::new("ca"), KeyPair::generate_from_seed(100))
    }

    #[test]
    fn issue_and_verify() {
        let ca = ca();
        let kp = KeyPair::generate_from_seed(1);
        let cert = ca.issue(PartyId::new("a"), kp.public_key(), TimeMs(0), TimeMs(100));
        assert!(cert.verify(&ca.public_key(), TimeMs(0)).is_ok());
        assert!(cert.verify(&ca.public_key(), TimeMs(99)).is_ok());
    }

    #[test]
    fn expired_certificate_rejected() {
        let ca = ca();
        let kp = KeyPair::generate_from_seed(1);
        let cert = ca.issue(PartyId::new("a"), kp.public_key(), TimeMs(10), TimeMs(100));
        assert!(matches!(
            cert.verify(&ca.public_key(), TimeMs(100)),
            Err(CertificateError::Expired { .. })
        ));
        assert!(matches!(
            cert.verify(&ca.public_key(), TimeMs(5)),
            Err(CertificateError::Expired { .. })
        ));
    }

    #[test]
    fn tampered_subject_rejected() {
        let ca = ca();
        let kp = KeyPair::generate_from_seed(1);
        let mut cert = ca.issue(PartyId::new("a"), kp.public_key(), TimeMs(0), TimeMs(100));
        cert.subject = PartyId::new("mallory");
        assert_eq!(
            cert.verify(&ca.public_key(), TimeMs(50)),
            Err(CertificateError::BadSignature)
        );
    }

    #[test]
    fn tampered_key_rejected() {
        let ca = ca();
        let mut cert = ca.issue(
            PartyId::new("a"),
            KeyPair::generate_from_seed(1).public_key(),
            TimeMs(0),
            TimeMs(100),
        );
        cert.public_key = KeyPair::generate_from_seed(2).public_key();
        assert_eq!(
            cert.verify(&ca.public_key(), TimeMs(50)),
            Err(CertificateError::BadSignature)
        );
    }

    #[test]
    fn ring_from_certificates_filters_invalid() {
        let ca = ca();
        let good = ca.issue(
            PartyId::new("good"),
            KeyPair::generate_from_seed(1).public_key(),
            TimeMs(0),
            TimeMs(100),
        );
        let expired = ca.issue(
            PartyId::new("late"),
            KeyPair::generate_from_seed(2).public_key(),
            TimeMs(0),
            TimeMs(10),
        );
        let (ring, rejected) =
            ring_from_certificates(&[good, expired], &ca.public_key(), TimeMs(50));
        assert_eq!(ring.len(), 1);
        assert!(ring.key_for(&PartyId::new("good")).is_some());
        assert_eq!(rejected.len(), 1);
        assert_eq!(rejected[0].0, PartyId::new("late"));
    }
}
