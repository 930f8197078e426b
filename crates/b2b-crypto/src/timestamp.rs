//! Trusted time-stamping service.
//!
//! "Since a signature is only valid if it can be asserted that the signing
//! key was not compromised at the time of use, all signed evidence must be
//! time-stamped. It is assumed that a trusted time-stamping service …
//! acceptable to all parties is available" (§4.2, citing Zhou & Gollmann).
//!
//! Given a message `m` by party `P` at time `t`, the authority produces
//! `TS_T(m) = (t, sig_T(H(m) || t))`, which any party can verify against the
//! authority's public key.

use crate::canonical::{CanonicalDecode, CanonicalEncode, DecodeError, Decoder, Encoder};
use crate::error::CryptoError;
use crate::hash::{sha256, Digest32};
use crate::keys::PublicKey;
use crate::sig::{SigVerifier, Signature, Signer};
use crate::time::TimeMs;
use std::sync::Arc;

/// A time-stamp token binding a message digest to a time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TimeStamp {
    /// Digest of the time-stamped message.
    pub digest: Digest32,
    /// The time at which the authority observed the message.
    pub time: TimeMs,
    /// The authority's signature over `(digest, time)`.
    pub sig: Signature,
}

impl CanonicalEncode for TimeStamp {
    fn encode(&self, enc: &mut Encoder) {
        self.digest.encode(enc);
        self.time.encode(enc);
        self.sig.encode(enc);
    }
}

impl CanonicalDecode for TimeStamp {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(TimeStamp {
            digest: Digest32::decode(dec)?,
            time: TimeMs::decode(dec)?,
            sig: Signature::decode(dec)?,
        })
    }
}

impl TimeStamp {
    fn signed_bytes(digest: &Digest32, time: TimeMs) -> Vec<u8> {
        let mut enc = Encoder::new();
        digest.encode(&mut enc);
        time.encode(&mut enc);
        enc.finish()
    }

    /// Verifies this token against the authority's public key and the
    /// message it claims to stamp.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::BadTimeStamp`] if the digest does not match
    /// `message`, or a signature error if the token was not produced by the
    /// holder of `authority_key`.
    pub fn verify(&self, authority_key: &PublicKey, message: &[u8]) -> Result<(), CryptoError> {
        if sha256(message) != self.digest {
            return Err(CryptoError::BadTimeStamp("digest does not match message"));
        }
        authority_key.verify(&Self::signed_bytes(&self.digest, self.time), &self.sig)
    }
}

/// A trusted time-stamping authority (TSA).
///
/// In deployment this would be an external service; here it is a value the
/// test harness hands to every coordinator, with a clock callback so the
/// simulator can supply virtual time.
///
/// # Example
///
/// ```
/// use b2b_crypto::{KeyPair, TimeMs, TimeStampAuthority};
/// let tsa = TimeStampAuthority::new(KeyPair::generate_from_seed(99));
/// let token = tsa.stamp(b"evidence", TimeMs(1234));
/// assert!(token.verify(&tsa.public_key(), b"evidence").is_ok());
/// assert_eq!(token.time, TimeMs(1234));
/// ```
#[derive(Clone, Debug)]
pub struct TimeStampAuthority {
    signer: Arc<dyn Signer>,
}

impl TimeStampAuthority {
    /// Creates an authority from any signer.
    pub fn new(signer: impl Signer + 'static) -> TimeStampAuthority {
        TimeStampAuthority {
            signer: Arc::new(signer),
        }
    }

    /// Stamps `message` as having existed at `time`.
    pub fn stamp(&self, message: &[u8], time: TimeMs) -> TimeStamp {
        let digest = sha256(message);
        let sig = self.signer.sign(&TimeStamp::signed_bytes(&digest, time));
        TimeStamp { digest, time, sig }
    }

    /// The authority's verification key, distributed to all parties.
    pub fn public_key(&self) -> PublicKey {
        self.signer.public_key()
    }
}

impl std::fmt::Debug for dyn Signer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Signer({:?})", self.public_key())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::KeyPair;

    fn tsa() -> TimeStampAuthority {
        TimeStampAuthority::new(KeyPair::generate_from_seed(77))
    }

    #[test]
    fn stamp_verifies() {
        let tsa = tsa();
        let token = tsa.stamp(b"msg", TimeMs(10));
        assert!(token.verify(&tsa.public_key(), b"msg").is_ok());
    }

    #[test]
    fn stamp_rejects_other_message() {
        let tsa = tsa();
        let token = tsa.stamp(b"msg", TimeMs(10));
        assert_eq!(
            token.verify(&tsa.public_key(), b"other"),
            Err(CryptoError::BadTimeStamp("digest does not match message"))
        );
    }

    #[test]
    fn stamp_rejects_forged_time() {
        let tsa = tsa();
        let mut token = tsa.stamp(b"msg", TimeMs(10));
        token.time = TimeMs(99); // backdating attempt
        assert!(token.verify(&tsa.public_key(), b"msg").is_err());
    }

    #[test]
    fn stamp_rejects_wrong_authority() {
        let a = tsa();
        let b = TimeStampAuthority::new(KeyPair::generate_from_seed(78));
        let token = a.stamp(b"msg", TimeMs(10));
        assert!(token.verify(&b.public_key(), b"msg").is_err());
    }
}
