//! Signature schemes: [`Signer`] / [`SigVerifier`] traits, the production
//! Ed25519 implementation, and an intentionally weak ablation-only signer.
//!
//! The paper (§4.2) requires "a signature scheme such that a signature by a
//! party on data is both verifiable and unforgeable". [`crate::KeyPair`]
//! (Ed25519) provides that. [`InsecureSigner`] exists solely so the
//! benchmark suite can measure what non-repudiation costs (experiment E4);
//! it is forgeable by construction and must never be used outside experiments.

use crate::error::CryptoError;
use crate::hash::sha256_concat;
use crate::keys::PublicKey;
use std::fmt;

/// The signature scheme a [`Signature`] or [`PublicKey`] belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SignatureScheme {
    /// Ed25519 (production scheme; unforgeable).
    Ed25519,
    /// Truncated-hash pseudo-signature. **Forgeable**: benchmarking only.
    Insecure,
}

impl SignatureScheme {
    /// A short, stable name for diagnostics.
    pub fn name(self) -> &'static str {
        match self {
            SignatureScheme::Ed25519 => "ed25519",
            SignatureScheme::Insecure => "insecure",
        }
    }
}

/// A detached signature over a byte string.
///
/// Rendered in the paper's notation as `sig_P(x)`. Signatures appear inside
/// protocol messages and evidence records.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Signature {
    scheme: SignatureScheme,
    bytes: Vec<u8>,
}

impl Signature {
    /// Creates a signature value from raw scheme output.
    pub fn new(scheme: SignatureScheme, bytes: Vec<u8>) -> Signature {
        Signature { scheme, bytes }
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
            SignatureScheme::Insecure => 2,
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
            2 => SignatureScheme::Insecure,
            _ => return crate::canonical::DecodeError::at("unknown signature scheme", at),
        };
        Ok(Signature {
            scheme,
            bytes: dec.get_bytes()?.to_vec(),
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

/// A deliberately forgeable "signature" scheme for the crypto-overhead
/// ablation benchmark (experiment E4).
///
/// The signature is a truncated hash of `public key bytes || message`, so
/// anyone holding the public key can forge it. It exercises the same code
/// paths (sign on send, verify on receive) at negligible CPU cost, which is
/// exactly what the ablation needs to isolate Ed25519's contribution.
#[derive(Clone, Debug)]
pub struct InsecureSigner {
    key_id: [u8; 8],
}

impl InsecureSigner {
    /// Creates an insecure signer with the given 8-byte key identity.
    pub fn new(key_id: [u8; 8]) -> InsecureSigner {
        InsecureSigner { key_id }
    }

    /// Creates an insecure signer whose key identity derives from a seed.
    pub fn from_seed(seed: u64) -> InsecureSigner {
        InsecureSigner {
            key_id: seed.to_be_bytes(),
        }
    }
}

impl Signer for InsecureSigner {
    fn sign(&self, msg: &[u8]) -> Signature {
        let digest = sha256_concat(&[&self.key_id, msg]);
        Signature::new(SignatureScheme::Insecure, digest.as_bytes()[..16].to_vec())
    }

    fn public_key(&self) -> PublicKey {
        PublicKey::new(SignatureScheme::Insecure, self.key_id.to_vec())
    }
}

/// Verifies a batch of `(key, message, signature)` triples in one pass.
///
/// Ed25519 items are handed to the vendored shim's `verify_batch` (one
/// aggregate check standing in for the real scheme's single multi-scalar
/// multiplication); [`SignatureScheme::Insecure`] items are verified
/// individually, since the ablation scheme has no batch form.
///
/// The result is **all-or-nothing**: `Ok(())` exactly when every triple
/// would pass per-item [`SigVerifier::verify`], and the first classifiable
/// error otherwise. Callers needing to attribute a failure to a specific
/// item (§4.4 blame assignment) must fall back to per-item verification.
///
/// # Errors
///
/// Returns the same error classes as per-item verification: a scheme
/// mismatch or failed check is [`CryptoError::BadSignature`]; malformed
/// key/signature lengths are [`CryptoError::MalformedBytes`].
pub fn verify_batch(items: &[(&PublicKey, &[u8], &Signature)]) -> Result<(), CryptoError> {
    use ed25519_dalek::VerifyingKey;

    let mut ed_msgs: Vec<&[u8]> = Vec::new();
    let mut ed_sigs: Vec<ed25519_dalek::Signature> = Vec::new();
    let mut ed_keys: Vec<VerifyingKey> = Vec::new();

    for (key, msg, sig) in items {
        if sig.scheme() != key.scheme() {
            return Err(CryptoError::BadSignature {
                scheme: sig.scheme().name(),
            });
        }
        match key.scheme() {
            SignatureScheme::Ed25519 => {
                let key_bytes: [u8; 32] =
                    key.as_bytes()
                        .try_into()
                        .map_err(|_| CryptoError::MalformedBytes {
                            what: "public key",
                            expected: 32,
                            got: key.as_bytes().len(),
                        })?;
                let vk = VerifyingKey::from_bytes(&key_bytes).map_err(|_| {
                    CryptoError::MalformedBytes {
                        what: "public key",
                        expected: 32,
                        got: key.as_bytes().len(),
                    }
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
            SignatureScheme::Insecure => verify_insecure(key.as_bytes(), msg, sig)?,
        }
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

pub(crate) fn verify_insecure(
    key_bytes: &[u8],
    msg: &[u8],
    sig: &Signature,
) -> Result<(), CryptoError> {
    let digest = sha256_concat(&[key_bytes, msg]);
    if sig.as_bytes() == &digest.as_bytes()[..16] {
        Ok(())
    } else {
        Err(CryptoError::BadSignature {
            scheme: SignatureScheme::Insecure.name(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insecure_sign_verify_roundtrip() {
        let s = InsecureSigner::from_seed(1);
        let sig = s.sign(b"msg");
        assert!(s.public_key().verify(b"msg", &sig).is_ok());
        assert!(s.public_key().verify(b"other", &sig).is_err());
    }

    #[test]
    fn insecure_different_keys_differ() {
        let a = InsecureSigner::from_seed(1).sign(b"m");
        let b = InsecureSigner::from_seed(2).sign(b"m");
        assert_ne!(a, b);
    }

    #[test]
    fn signature_debug_shows_scheme() {
        let sig = InsecureSigner::from_seed(1).sign(b"m");
        assert!(format!("{sig:?}").contains("insecure"));
    }

    #[test]
    fn scheme_names() {
        assert_eq!(SignatureScheme::Ed25519.name(), "ed25519");
        assert_eq!(SignatureScheme::Insecure.name(), "insecure");
    }
}
