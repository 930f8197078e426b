//! The compact signature-verification cache against the cache it replaced.
//!
//! `SigVerifyCache` keeps fixed-size fingerprint records in one table. Its
//! contract is the strict LRU of the earlier design, which kept a hash map
//! from the cloned `(party, digest, signature)` triple to a recency stamp
//! and a `BTreeMap` from stamp back to triple. That design is reproduced
//! here as the reference model, and seeded random sequences of insert,
//! check and clear drive both side by side: after every step the hit/miss
//! answers and `len()` must agree.

use b2b_crypto::{sha256, Digest32, PartyId, SigVerifyCache, Signature, SignatureScheme};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::collections::{BTreeMap, HashMap};

type VerifyKey = (PartyId, Digest32, Signature);

/// The two-map strict-LRU cache, as it was before the compact table.
struct ModelCache {
    capacity: usize,
    stamp: u64,
    by_key: HashMap<VerifyKey, u64>,
    by_stamp: BTreeMap<u64, VerifyKey>,
}

impl ModelCache {
    fn new(capacity: usize) -> ModelCache {
        ModelCache {
            capacity,
            stamp: 0,
            by_key: HashMap::new(),
            by_stamp: BTreeMap::new(),
        }
    }

    fn len(&self) -> usize {
        self.by_key.len()
    }

    fn check(&mut self, party: &PartyId, digest: &Digest32, sig: &Signature) -> bool {
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

    fn insert(&mut self, party: PartyId, digest: Digest32, sig: Signature) {
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

    fn clear(&mut self) {
        self.by_key.clear();
        self.by_stamp.clear();
        self.stamp = 0;
    }
}

/// A small alphabet per component, so triples recur, collide in two of
/// three parts, and get evicted and re-inserted.
fn triple(rng: &mut StdRng) -> (PartyId, Digest32, Signature) {
    let party = PartyId::new(["alice", "bob", "carol"][rng.gen_range(0..3usize)]);
    let digest = sha256(&[rng.gen_range(0..4u64) as u8]);
    let len = [8usize, 64][rng.gen_range(0..2usize)];
    let sig = Signature::new(
        SignatureScheme::Ed25519,
        vec![rng.gen_range(0..3u64) as u8; len],
    );
    (party, digest, sig)
}

#[test]
fn compact_cache_answers_as_the_two_map_lru() {
    for seed in 0..400u64 {
        let mut rng = StdRng::seed_from_u64(0xCAC4E + seed);
        let capacity = rng.gen_range(0..=8usize);
        let mut cache = SigVerifyCache::new(capacity);
        let mut model = ModelCache::new(capacity);
        for step in 0..300 {
            let (party, digest, sig) = triple(&mut rng);
            match rng.gen_range(0..100u64) {
                0..=44 => {
                    cache.insert(party.clone(), digest, sig.clone());
                    model.insert(party, digest, sig);
                }
                45..=97 => assert_eq!(
                    cache.check(&party, &digest, &sig),
                    model.check(&party, &digest, &sig),
                    "seed {seed} step {step}: check({party}, {digest:?}, {sig:?})"
                ),
                _ => {
                    cache.clear();
                    model.clear();
                }
            }
            assert_eq!(cache.len(), model.len(), "seed {seed} step {step}: len");
            assert_eq!(cache.is_empty(), model.len() == 0);
        }
    }
}
