//! Signature schemes: [`Signer`] / [`SigVerifier`] traits and batch
//! verification for the Ed25519 scheme.
//!
//! The paper (§4.2) requires "a signature scheme such that a signature by a
//! party on data is both verifiable and unforgeable". [`crate::KeyPair`]
//! (Ed25519) provides that.

use crate::error::CryptoError;
use crate::keys::PublicKey;
use std::fmt;
use std::sync::Arc;

/// The signature scheme a [`Signature`] or [`PublicKey`] belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SignatureScheme {
    /// Ed25519 (wire tag 1; the only scheme).
    Ed25519,
}

impl SignatureScheme {
    /// A short, stable name for diagnostics.
    pub fn name(self) -> &'static str {
        match self {
            SignatureScheme::Ed25519 => "ed25519",
        }
    }
}

/// A detached signature over a byte string.
///
/// Rendered in the paper's notation as `sig_P(x)`. Signatures appear inside
/// protocol messages and evidence records, so the bytes are shared: a clone
/// is a reference-count increment.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Signature {
    scheme: SignatureScheme,
    bytes: Arc<[u8]>,
}

impl Signature {
    /// Creates a signature value from raw scheme output.
    pub fn new(scheme: SignatureScheme, bytes: impl Into<Arc<[u8]>>) -> Signature {
        Signature {
            scheme,
            bytes: bytes.into(),
        }
    }

    /// The scheme that produced this signature.
    pub fn scheme(&self) -> SignatureScheme {
        self.scheme
    }

    /// The raw signature bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }
}

impl crate::canonical::CanonicalEncode for Signature {
    fn encode(&self, enc: &mut crate::canonical::Encoder) {
        enc.put_u8(match self.scheme {
            SignatureScheme::Ed25519 => 1,
        });
        enc.put_bytes(&self.bytes);
    }
}

impl crate::canonical::CanonicalDecode for Signature {
    fn decode(
        dec: &mut crate::canonical::Decoder<'_>,
    ) -> Result<Self, crate::canonical::DecodeError> {
        let at = dec.position();
        let scheme = match dec.get_u8()? {
            1 => SignatureScheme::Ed25519,
            _ => return crate::canonical::DecodeError::at("unknown signature scheme", at),
        };
        Ok(Signature {
            scheme,
            bytes: dec.get_bytes()?.into(),
        })
    }
}

impl fmt::Debug for Signature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Signature({}, {}…)",
            self.scheme.name(),
            hex::encode(&self.bytes[..self.bytes.len().min(4)])
        )
    }
}

/// Types that can produce signatures binding a key-holder to data.
pub trait Signer: Send + Sync {
    /// Signs `msg`, returning a detached signature.
    fn sign(&self, msg: &[u8]) -> Signature;

    /// Returns the public (verification) key corresponding to this signer.
    fn public_key(&self) -> PublicKey;
}

impl<T: Signer + ?Sized> Signer for Box<T> {
    fn sign(&self, msg: &[u8]) -> Signature {
        (**self).sign(msg)
    }
    fn public_key(&self) -> PublicKey {
        (**self).public_key()
    }
}

/// Types that can verify signatures (public keys, key rings).
pub trait SigVerifier {
    /// Verifies `sig` over `msg`.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::BadSignature`] when verification fails, or a
    /// scheme/format error when the signature is malformed.
    fn verify(&self, msg: &[u8], sig: &Signature) -> Result<(), CryptoError>;
}

/// Verifies a batch of `(key, message, signature)` triples in one pass.
///
/// The items are handed to the vendored shim's `verify_batch` (one
/// aggregate check standing in for the real scheme's single multi-scalar
/// multiplication).
///
/// The result is **all-or-nothing**: `Ok(())` exactly when every triple
/// would pass per-item [`SigVerifier::verify`], and the first classifiable
/// error otherwise. Callers needing to attribute a failure to a specific
/// item (§4.4 blame assignment) must fall back to per-item verification.
///
/// # Errors
///
/// Returns the same error classes as per-item verification: a failed
/// check is [`CryptoError::BadSignature`]; malformed key/signature
/// lengths are [`CryptoError::MalformedBytes`].
pub fn verify_batch(items: &[(&PublicKey, &[u8], &Signature)]) -> Result<(), CryptoError> {
    use ed25519_dalek::VerifyingKey;

    let mut ed_msgs: Vec<&[u8]> = Vec::new();
    let mut ed_sigs: Vec<ed25519_dalek::Signature> = Vec::new();
    let mut ed_keys: Vec<VerifyingKey> = Vec::new();

    for (key, msg, sig) in items {
        let key_bytes: [u8; 32] =
            key.as_bytes()
                .try_into()
                .map_err(|_| CryptoError::MalformedBytes {
                    what: "public key",
                    expected: 32,
                    got: key.as_bytes().len(),
                })?;
        let vk = VerifyingKey::from_bytes(&key_bytes).map_err(|_| CryptoError::MalformedBytes {
            what: "public key",
            expected: 32,
            got: key.as_bytes().len(),
        })?;
        let sig_bytes: [u8; 64] =
            sig.as_bytes()
                .try_into()
                .map_err(|_| CryptoError::MalformedBytes {
                    what: "signature",
                    expected: 64,
                    got: sig.as_bytes().len(),
                })?;
        ed_msgs.push(msg);
        ed_sigs.push(ed25519_dalek::Signature::from_bytes(&sig_bytes));
        ed_keys.push(vk);
    }

    if ed_msgs.is_empty() {
        return Ok(());
    }
    ed25519_dalek::verify_batch(&ed_msgs, &ed_sigs, &ed_keys).map_err(|_| {
        CryptoError::BadSignature {
            scheme: SignatureScheme::Ed25519.name(),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn signature_debug_shows_scheme() {
        let sig = crate::KeyPair::generate_from_seed(1).sign(b"m");
        assert!(format!("{sig:?}").contains("ed25519"));
    }

    #[test]
    fn only_the_ed25519_tag_decodes() {
        use crate::canonical::{CanonicalDecode, CanonicalEncode, DecodeError};
        let sig = crate::KeyPair::generate_from_seed(1).sign(b"m");
        let mut bytes = sig.canonical_bytes();
        assert_eq!(bytes[0], 1);
        assert_eq!(Signature::from_canonical(&bytes), Ok(sig));
        // Tag 2 was a forgeable benchmarking scheme; it is refused.
        bytes[0] = 2;
        assert_eq!(
            Signature::from_canonical(&bytes),
            DecodeError::at("unknown signature scheme", 0)
        );
    }

    #[test]
    fn scheme_names() {
        assert_eq!(SignatureScheme::Ed25519.name(), "ed25519");
    }
}
