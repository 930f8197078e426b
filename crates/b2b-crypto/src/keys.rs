//! Key material: [`KeyPair`] (Ed25519 signing keys), [`PublicKey`]
//! (verification keys) and the [`KeyRing`] mapping parties to keys.
//!
//! "All parties are assumed to have the means to verify each other's
//! signatures" (§4.2) — the key ring is that means; in a deployment it would
//! be populated from certificates issued by a mutually acceptable CA (see
//! [`crate::cert`]).

use crate::error::CryptoError;
use crate::identity::PartyId;
use crate::sig::{SigVerifier, Signature, SignatureScheme, Signer};
use ed25519_dalek::{Signer as DalekSigner, SigningKey, Verifier, VerifyingKey};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// A verification (public) key, tagged with its scheme.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct PublicKey {
    scheme: SignatureScheme,
    bytes: Vec<u8>,
}

impl PublicKey {
    /// Creates a public key from raw scheme bytes.
    pub fn new(scheme: SignatureScheme, bytes: Vec<u8>) -> PublicKey {
        PublicKey { scheme, bytes }
    }

    /// The scheme this key verifies.
    pub fn scheme(&self) -> SignatureScheme {
        self.scheme
    }

    /// The raw key bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }
}

impl fmt::Debug for PublicKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "PublicKey({}, {}…)",
            self.scheme.name(),
            hex::encode(&self.bytes[..self.bytes.len().min(4)])
        )
    }
}

impl SigVerifier for PublicKey {
    fn verify(&self, msg: &[u8], sig: &Signature) -> Result<(), CryptoError> {
        let key_bytes: [u8; 32] =
            self.bytes
                .as_slice()
                .try_into()
                .map_err(|_| CryptoError::MalformedBytes {
                    what: "public key",
                    expected: 32,
                    got: self.bytes.len(),
                })?;
        let key =
            VerifyingKey::from_bytes(&key_bytes).map_err(|_| CryptoError::MalformedBytes {
                what: "public key",
                expected: 32,
                got: self.bytes.len(),
            })?;
        let sig_bytes: [u8; 64] =
            sig.as_bytes()
                .try_into()
                .map_err(|_| CryptoError::MalformedBytes {
                    what: "signature",
                    expected: 64,
                    got: sig.as_bytes().len(),
                })?;
        let dalek_sig = ed25519_dalek::Signature::from_bytes(&sig_bytes);
        key.verify(msg, &dalek_sig)
            .map_err(|_| CryptoError::BadSignature {
                scheme: SignatureScheme::Ed25519.name(),
            })
    }
}

/// An Ed25519 signing key pair for one party.
///
/// # Example
///
/// ```
/// use b2b_crypto::{KeyPair, Signer, SigVerifier};
/// let kp = KeyPair::generate_from_seed(42);
/// let sig = kp.sign(b"data");
/// assert!(kp.public_key().verify(b"data", &sig).is_ok());
/// ```
#[derive(Clone)]
pub struct KeyPair {
    signing: SigningKey,
}

impl KeyPair {
    /// Generates a fresh key pair from a cryptographically secure RNG.
    pub fn generate(rng: &mut (impl RngCore + rand::CryptoRng)) -> KeyPair {
        let mut seed = [0u8; 32];
        rng.fill_bytes(&mut seed);
        KeyPair {
            signing: SigningKey::from_bytes(&seed),
        }
    }

    /// Generates a deterministic key pair from a seed.
    ///
    /// Intended for tests and reproducible simulations; a deployment would
    /// use [`KeyPair::generate`].
    pub fn generate_from_seed(seed: u64) -> KeyPair {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut bytes = [0u8; 32];
        rng.fill_bytes(&mut bytes);
        KeyPair {
            signing: SigningKey::from_bytes(&bytes),
        }
    }
}

impl fmt::Debug for KeyPair {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "KeyPair({:?})", self.public_key())
    }
}

impl Signer for KeyPair {
    fn sign(&self, msg: &[u8]) -> Signature {
        let sig = self.signing.sign(msg);
        Signature::new(SignatureScheme::Ed25519, sig.to_bytes())
    }

    fn public_key(&self) -> PublicKey {
        PublicKey::new(
            SignatureScheme::Ed25519,
            self.signing.verifying_key().to_bytes().to_vec(),
        )
    }
}

/// A shared directory mapping parties to their verification keys.
///
/// Cloning a `KeyRing` is cheap; clones share the same underlying map
/// snapshot semantics are copy-on-write via `Arc` per registration epoch.
///
/// # Example
///
/// ```
/// use b2b_crypto::{KeyPair, KeyRing, PartyId, Signer};
/// let alice = KeyPair::generate_from_seed(1);
/// let mut ring = KeyRing::new();
/// ring.register(PartyId::new("alice"), alice.public_key());
/// let sig = alice.sign(b"m");
/// assert!(ring.verify_for(&PartyId::new("alice"), b"m", &sig).is_ok());
/// ```
#[derive(Clone, Debug, Default)]
pub struct KeyRing {
    keys: Arc<HashMap<PartyId, PublicKey>>,
}

impl KeyRing {
    /// Creates an empty key ring.
    pub fn new() -> KeyRing {
        KeyRing::default()
    }

    /// Registers (or replaces) the key for `party`.
    pub fn register(&mut self, party: PartyId, key: PublicKey) {
        Arc::make_mut(&mut self.keys).insert(party, key);
    }

    /// Looks up the key for `party`.
    pub fn key_for(&self, party: &PartyId) -> Option<&PublicKey> {
        self.keys.get(party)
    }

    /// Verifies `sig` over `msg` as a signature by `party`.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::UnknownParty`] if `party` has no registered
    /// key, or a verification error from the key itself.
    pub fn verify_for(
        &self,
        party: &PartyId,
        msg: &[u8],
        sig: &Signature,
    ) -> Result<(), CryptoError> {
        let key = self
            .keys
            .get(party)
            .ok_or_else(|| CryptoError::UnknownParty(party.to_string()))?;
        key.verify(msg, sig)
    }

    /// Returns the number of registered parties.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Returns `true` if no parties are registered.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Iterates over `(party, key)` pairs in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = (&PartyId, &PublicKey)> {
        self.keys.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ed25519_roundtrip() {
        let kp = KeyPair::generate_from_seed(3);
        let sig = kp.sign(b"hello");
        assert!(kp.public_key().verify(b"hello", &sig).is_ok());
    }

    #[test]
    fn ed25519_rejects_tampered_message() {
        let kp = KeyPair::generate_from_seed(3);
        let sig = kp.sign(b"hello");
        assert_eq!(
            kp.public_key().verify(b"hellp", &sig),
            Err(CryptoError::BadSignature { scheme: "ed25519" })
        );
    }

    #[test]
    fn ed25519_rejects_wrong_key() {
        let a = KeyPair::generate_from_seed(1);
        let b = KeyPair::generate_from_seed(2);
        let sig = a.sign(b"m");
        assert!(b.public_key().verify(b"m", &sig).is_err());
    }

    #[test]
    fn seeded_generation_is_deterministic() {
        let a = KeyPair::generate_from_seed(9);
        let b = KeyPair::generate_from_seed(9);
        assert_eq!(a.public_key(), b.public_key());
        assert_ne!(a.public_key(), KeyPair::generate_from_seed(10).public_key());
    }

    #[test]
    fn keyring_lookup_and_verify() {
        let kp = KeyPair::generate_from_seed(5);
        let mut ring = KeyRing::new();
        assert!(ring.is_empty());
        ring.register(PartyId::new("p"), kp.public_key());
        assert_eq!(ring.len(), 1);
        let sig = kp.sign(b"x");
        assert!(ring.verify_for(&PartyId::new("p"), b"x", &sig).is_ok());
        assert!(matches!(
            ring.verify_for(&PartyId::new("q"), b"x", &sig),
            Err(CryptoError::UnknownParty(_))
        ));
    }

    #[test]
    fn keyring_clones_share_then_diverge() {
        let mut a = KeyRing::new();
        a.register(
            PartyId::new("p"),
            KeyPair::generate_from_seed(1).public_key(),
        );
        let b = a.clone();
        a.register(
            PartyId::new("q"),
            KeyPair::generate_from_seed(2).public_key(),
        );
        assert_eq!(a.len(), 2);
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn malformed_signature_length_reported() {
        let kp = KeyPair::generate_from_seed(1);
        let bad = Signature::new(SignatureScheme::Ed25519, vec![0u8; 10]);
        assert_eq!(
            kp.public_key().verify(b"m", &bad),
            Err(CryptoError::MalformedBytes {
                what: "signature",
                expected: 64,
                got: 10
            })
        );
    }
}
