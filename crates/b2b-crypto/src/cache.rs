//! Hot-path caches for the signing and verification machinery.
//!
//! Two independent optimisations live here:
//!
//! * [`CachedCanonical`] — a per-message memo of a signed part's canonical
//!   encoding (and its SHA-256 digest), so a proposal or response is
//!   encoded once per message lifetime instead of once per use (signing,
//!   run-id derivation, verification, evidence logging).
//! * [`SigVerifyCache`] — a bounded, deterministically-evicting LRU of
//!   signature checks that already *succeeded*, keyed by
//!   `(party, digest32, sig)`. A signature verified at m2 receipt need not
//!   be cryptographically re-verified at m3 aggregation.
//!
//! Neither cache may weaken §4.4 detection: the memo of a locally built
//! message is derived from the value on first use, the memo of a received
//! message is the very slice it was strictly decoded from (a tampered wire
//! byte is therefore exactly what gets verified — and rejected), failed
//! verifications are never cached, and the
//! verification cache must be flushed whenever the key ring changes
//! (`Coordinator::update_ring` does this).

use crate::canonical::CanonicalEncode;
use crate::hash::{sha256, Digest32};
use crate::identity::PartyId;
use crate::sig::Signature;
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, OnceLock};

/// A lazily-memoized canonical encoding of a signed protocol part.
///
/// Embed one next to the signed value (ignored by equality) and route all
/// canonical-bytes uses through
/// [`CachedCanonical::get_or_encode`]. Clones keep the memo, so a message
/// cloned into a run record does not re-encode.
///
/// The memo assumes the neighbouring value is not mutated after the first
/// encoding — protocol messages are immutable once built. A message
/// decoded off the wire starts with its memo seeded from the received
/// slice ([`CachedCanonical::from_received`]), so what is verified is what
/// was actually received.
#[derive(Debug, Default)]
pub struct CachedCanonical {
    cell: OnceLock<(Arc<[u8]>, Digest32)>,
}

impl CachedCanonical {
    /// Creates an empty (not-yet-encoded) memo.
    pub fn new() -> CachedCanonical {
        CachedCanonical::default()
    }

    /// The memo of a value that was just strictly decoded from `bytes`.
    ///
    /// Sound only because [`crate::canonical::Decoder`] is strict: for
    /// every slice it accepts, re-encoding the decoded value yields the
    /// same bytes, so this is exactly what [`Self::get_or_encode`] would
    /// have computed — minus the re-encode.
    pub fn from_received(bytes: &[u8]) -> CachedCanonical {
        let cell = OnceLock::new();
        let _ = cell.set((Arc::from(bytes), sha256(bytes)));
        CachedCanonical { cell }
    }

    /// Returns `true` if the encoding has already been computed.
    pub fn is_cached(&self) -> bool {
        self.cell.get().is_some()
    }

    /// Returns the canonical bytes and digest of `value`, encoding it on
    /// first use and replaying the memo afterwards.
    pub fn get_or_encode<T: CanonicalEncode + ?Sized>(&self, value: &T) -> (Arc<[u8]>, Digest32) {
        self.cell
            .get_or_init(|| {
                let bytes = value.canonical_bytes();
                let digest = sha256(&bytes);
                (Arc::from(bytes), digest)
            })
            .clone()
    }
}

impl Clone for CachedCanonical {
    fn clone(&self) -> Self {
        let cell = OnceLock::new();
        if let Some(v) = self.cell.get() {
            let _ = cell.set(v.clone());
        }
        CachedCanonical { cell }
    }
}

// The memo is derived state: two messages are equal iff their real fields
// are, regardless of which copies have been encoded yet.
impl PartialEq for CachedCanonical {
    fn eq(&self, _other: &Self) -> bool {
        true
    }
}
impl Eq for CachedCanonical {}

type VerifyKey = (PartyId, Digest32, Signature);

/// A bounded LRU cache of *successful* signature verifications.
///
/// The key binds the claimed signer, the SHA-256 digest of the exact signed
/// bytes, and the full signature, so a hit asserts precisely "this party's
/// key verified this signature over these bytes earlier in this session".
/// Any tampered byte, substituted signature or impersonated origin changes
/// the key and misses, falling through to a real verification — §4.4
/// detection is unaffected.
///
/// Failed verifications are never inserted, and the owner must [`clear`]
/// the cache whenever its key ring changes so a cached accept cannot
/// outlive the key material it was checked against.
///
/// Eviction is deterministic (strict least-recently-used order), keeping
/// same-seed simulator runs reproducible.
///
/// [`clear`]: SigVerifyCache::clear
#[derive(Debug, Default)]
pub struct SigVerifyCache {
    capacity: usize,
    stamp: u64,
    by_key: HashMap<VerifyKey, u64>,
    by_stamp: BTreeMap<u64, VerifyKey>,
}

impl SigVerifyCache {
    /// Creates a cache holding at most `capacity` entries; `0` disables
    /// caching entirely (every lookup misses, every insert is dropped).
    pub fn new(capacity: usize) -> SigVerifyCache {
        SigVerifyCache {
            capacity,
            ..SigVerifyCache::default()
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The number of cached verifications.
    pub fn len(&self) -> usize {
        self.by_key.len()
    }

    /// Returns `true` if the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.by_key.is_empty()
    }

    /// Looks up a previously-successful verification, refreshing its LRU
    /// position on a hit.
    pub fn check(&mut self, party: &PartyId, digest: &Digest32, sig: &Signature) -> bool {
        let key = (party.clone(), *digest, sig.clone());
        let Some(stamp) = self.by_key.get_mut(&key) else {
            return false;
        };
        let old = *stamp;
        self.stamp += 1;
        *stamp = self.stamp;
        self.by_stamp.remove(&old);
        self.by_stamp.insert(self.stamp, key);
        true
    }

    /// Records a successful verification, evicting the least-recently-used
    /// entry if the cache is full.
    pub fn insert(&mut self, party: PartyId, digest: Digest32, sig: Signature) {
        if self.capacity == 0 {
            return;
        }
        let key = (party, digest, sig);
        self.stamp += 1;
        if let Some(old) = self.by_key.insert(key.clone(), self.stamp) {
            self.by_stamp.remove(&old);
        }
        self.by_stamp.insert(self.stamp, key);
        while self.by_key.len() > self.capacity {
            let (&oldest, _) = self.by_stamp.iter().next().expect("non-empty");
            let victim = self.by_stamp.remove(&oldest).expect("present");
            self.by_key.remove(&victim);
        }
    }

    /// Drops every cached verification. Must be called whenever the key
    /// material used for verification changes.
    pub fn clear(&mut self) {
        self.by_key.clear();
        self.by_stamp.clear();
        self.stamp = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sig::SignatureScheme;

    fn sig(b: u8) -> Signature {
        Signature::new(SignatureScheme::Insecure, vec![b; 8])
    }

    fn party(s: &str) -> PartyId {
        PartyId::new(s)
    }

    struct Blob(Vec<u8>);
    impl CanonicalEncode for Blob {
        fn encode(&self, enc: &mut crate::Encoder) {
            enc.put_bytes(&self.0);
        }
    }

    #[test]
    fn memo_encodes_once_and_survives_clone() {
        let memo = CachedCanonical::new();
        let blob = Blob(vec![1, 2, 3]);
        assert!(!memo.is_cached());
        let (bytes, digest) = memo.get_or_encode(&blob);
        assert!(memo.is_cached());
        assert_eq!(&bytes[..], &blob.0.canonical_bytes()[..]);
        assert_eq!(digest, sha256(&bytes));
        let clone = memo.clone();
        assert!(clone.is_cached());
        let (again, _) = clone.get_or_encode(&blob);
        assert!(Arc::ptr_eq(&bytes, &again));
    }

    #[test]
    fn memo_seeded_from_received_bytes_equals_the_encoded_one() {
        let blob = Blob(vec![4, 5, 6]);
        let bytes = blob.canonical_bytes();
        let seeded = CachedCanonical::from_received(&bytes);
        assert!(seeded.is_cached());
        let fresh = CachedCanonical::new();
        let (a, da) = seeded.get_or_encode(&blob);
        let (b, db) = fresh.get_or_encode(&blob);
        assert_eq!((&a[..], da), (&b[..], db));
    }

    #[test]
    fn cache_hits_only_on_exact_triple() {
        let mut c = SigVerifyCache::new(8);
        let d = sha256(b"msg");
        c.insert(party("a"), d, sig(1));
        assert!(c.check(&party("a"), &d, &sig(1)));
        assert!(!c.check(&party("b"), &d, &sig(1)));
        assert!(!c.check(&party("a"), &sha256(b"other"), &sig(1)));
        assert!(!c.check(&party("a"), &d, &sig(2)));
    }

    #[test]
    fn cache_evicts_least_recently_used() {
        let mut c = SigVerifyCache::new(2);
        let d = sha256(b"m");
        c.insert(party("a"), d, sig(1));
        c.insert(party("b"), d, sig(2));
        assert!(c.check(&party("a"), &d, &sig(1))); // refresh a
        c.insert(party("c"), d, sig(3)); // evicts b
        assert!(c.check(&party("a"), &d, &sig(1)));
        assert!(!c.check(&party("b"), &d, &sig(2)));
        assert!(c.check(&party("c"), &d, &sig(3)));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn zero_capacity_disables_cache() {
        let mut c = SigVerifyCache::new(0);
        let d = sha256(b"m");
        c.insert(party("a"), d, sig(1));
        assert!(c.is_empty());
        assert!(!c.check(&party("a"), &d, &sig(1)));
    }

    #[test]
    fn clear_forgets_everything() {
        let mut c = SigVerifyCache::new(4);
        let d = sha256(b"m");
        c.insert(party("a"), d, sig(1));
        c.clear();
        assert!(c.is_empty());
        assert!(!c.check(&party("a"), &d, &sig(1)));
    }
}
