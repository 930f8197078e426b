#![warn(missing_docs)]

//! Cryptographic substrate for the B2BObjects middleware.
//!
//! The DSN 2002 paper (§4.2) assumes each party has access to:
//!
//! * a signature scheme whose signatures are *verifiable and unforgeable*;
//! * a secure (one-way, collision-resistant) hash function;
//! * a secure pseudo-random sequence generator; and
//! * a trusted time-stamping service acceptable to all parties.
//!
//! This crate provides all four, plus the certificate management the paper's
//! middleware overview (§3) calls for, and a deterministic *canonical
//! encoding* so that the "signed parts" of protocol messages have a stable
//! byte representation across parties.
//!
//! # Example
//!
//! ```
//! use b2b_crypto::{KeyPair, PartyId, Signer, SigVerifier, sha256};
//!
//! let alice = KeyPair::generate_from_seed(7);
//! let msg = b"proposal bytes";
//! let sig = alice.sign(msg);
//! assert!(alice.public_key().verify(msg, &sig).is_ok());
//! let digest = sha256(msg);
//! assert_eq!(digest, sha256(msg));
//! ```

pub mod cache;
pub mod canonical;
pub mod cert;
pub mod error;
pub mod hash;
pub mod identity;
pub mod keys;
pub mod pool;
pub mod rng;
pub mod sig;
pub mod time;
pub mod timestamp;

pub use cache::{CachedCanonical, SigVerifyCache};
pub use canonical::{CanonicalDecode, CanonicalEncode, DecodeError, Decoder, Encoder};
pub use cert::{Certificate, CertificateAuthority, CertificateError};
pub use error::CryptoError;
pub use hash::{sha256, sha256_concat, Digest32};
pub use identity::PartyId;
pub use keys::{KeyPair, KeyRing, PublicKey};
pub use pool::{VerifyItem, VerifyPool};
pub use rng::{random_nonce, SecureRng};
pub use sig::{verify_batch, InsecureSigner, SigVerifier, Signature, SignatureScheme, Signer};
pub use time::TimeMs;
pub use timestamp::{TimeStamp, TimeStampAuthority};
