//! Secure hashing (SHA-256) and the [`Digest32`] newtype.
//!
//! The paper (§4.2) requires a one-way, collision-resistant hash `H` used to
//! bind state identifier tuples to object state, to commit to the proposer's
//! random authenticator, and to identify group membership.

use sha2::{Digest, Sha256};
use std::fmt;

/// A 32-byte SHA-256 digest.
///
/// Used throughout the middleware wherever the paper writes `H(x)`:
/// `H(state)`, `H(random)`, `H(members)`, `H(update)`.
///
/// # Example
///
/// ```
/// use b2b_crypto::{sha256, Digest32};
/// let d: Digest32 = sha256(b"state bytes");
/// assert_ne!(d, Digest32::ZERO);
/// assert_eq!(d.to_string().len(), 64); // hex
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Digest32(pub [u8; 32]);

impl Digest32 {
    /// The all-zero digest, usable as a sentinel for "no state yet".
    pub const ZERO: Digest32 = Digest32([0u8; 32]);

    /// Returns the raw digest bytes.
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }

    /// Renders the first four bytes as hex, for compact log output.
    pub fn short_hex(&self) -> String {
        hex::encode(&self.0[..4])
    }
}

impl fmt::Display for Digest32 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&hex::encode(self.0))
    }
}

impl fmt::Debug for Digest32 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Digest32({}…)", self.short_hex())
    }
}

impl AsRef<[u8]> for Digest32 {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl From<[u8; 32]> for Digest32 {
    fn from(bytes: [u8; 32]) -> Self {
        Digest32(bytes)
    }
}

/// Hashes `data` with SHA-256.
///
/// # Example
///
/// ```
/// use b2b_crypto::sha256;
/// assert_eq!(sha256(b"abc"), sha256(b"abc"));
/// assert_ne!(sha256(b"abc"), sha256(b"abd"));
/// ```
pub fn sha256(data: &[u8]) -> Digest32 {
    let mut hasher = Sha256::new();
    hasher.update(data);
    Digest32(hasher.finalize())
}

/// Hashes the concatenation of several byte slices, each length-prefixed so
/// that `(["ab"], ["c"])` and `(["a"], ["bc"])` hash differently.
///
/// # Example
///
/// ```
/// use b2b_crypto::sha256_concat;
/// let a = sha256_concat(&[b"ab", b"c"]);
/// let b = sha256_concat(&[b"a", b"bc"]);
/// assert_ne!(a, b);
/// ```
pub fn sha256_concat(parts: &[&[u8]]) -> Digest32 {
    let mut hasher = Sha256::new();
    for part in parts {
        hasher.update((part.len() as u64).to_be_bytes());
        hasher.update(part);
    }
    Digest32(hasher.finalize())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_display_is_hex() {
        let d = sha256(b"hello");
        let s = d.to_string();
        assert_eq!(s.len(), 64);
        assert!(s.chars().all(|c| c.is_ascii_hexdigit()));
    }

    #[test]
    fn concat_is_length_prefixed() {
        assert_ne!(sha256_concat(&[b"ab", b"c"]), sha256_concat(&[b"a", b"bc"]));
        assert_ne!(sha256_concat(&[b"abc"]), sha256(b"abc"));
    }

    #[test]
    fn zero_is_distinct_from_real_digests() {
        assert_ne!(sha256(b""), Digest32::ZERO);
    }

    #[test]
    fn known_vector() {
        // SHA-256("abc") from FIPS 180-2.
        assert_eq!(
            sha256(b"abc").to_string(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn debug_is_nonempty_and_short() {
        let dbg = format!("{:?}", sha256(b"x"));
        assert!(dbg.starts_with("Digest32("));
        assert!(dbg.len() < 24);
    }
}
