//! Insert-only open-addressing hash map keyed by `u64`.
//!
//! Its user, `jem-dbg`'s k-mer counter, keys it by k-mer codes — already
//! well-mixed integers — so the standard library's HashDoS-resistant
//! SipHash is pure overhead on the hot path. (The sketch table is
//! [`crate::FlatTable`], which places codes by the same scheme in its own
//! bucket array.) `U64Map` uses Fibonacci (multiplicative) hashing
//! into a power-of-two table with linear probing. There is no deletion:
//! the counter only inserts and queries.

/// Fibonacci multiplier: `floor(2^64 / φ)`, odd.
const FIB: u64 = 0x9E37_79B9_7F4A_7C15;

/// Insert-only open-addressing map from `u64` keys to `V` values.
#[derive(Clone, Debug)]
pub struct U64Map<V> {
    /// Parallel arrays; `slots[i] == None` marks an empty bucket.
    slots: Vec<Option<(u64, V)>>,
    len: usize,
    /// `capacity - 1`; capacity is always a power of two.
    mask: usize,
}

impl<V> Default for U64Map<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> U64Map<V> {
    /// Empty map with a small initial capacity.
    pub fn new() -> Self {
        Self::with_capacity(16)
    }

    /// Empty map sized for at least `n` entries without rehashing.
    pub fn with_capacity(n: usize) -> Self {
        let cap = (n.max(8) * 2).next_power_of_two();
        let mut slots = Vec::with_capacity(cap);
        slots.resize_with(cap, || None);
        U64Map {
            slots,
            len: 0,
            mask: cap - 1,
        }
    }

    /// Number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the map holds no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn bucket(&self, key: u64) -> usize {
        // Fibonacci hashing: the high bits of key*FIB are well mixed.
        ((key.wrapping_mul(FIB)) >> 32) as usize & self.mask
    }

    /// Look up `key`.
    #[inline]
    pub fn get(&self, key: u64) -> Option<&V> {
        let mut i = self.bucket(key);
        loop {
            match &self.slots[i] {
                None => return None,
                Some((k, v)) if *k == key => return Some(v),
                _ => i = (i + 1) & self.mask,
            }
        }
    }

    /// Mutable lookup.
    pub fn get_mut(&mut self, key: u64) -> Option<&mut V> {
        let mut i = self.bucket(key);
        loop {
            match &self.slots[i] {
                None => return None,
                Some((k, _)) if *k == key => break,
                _ => i = (i + 1) & self.mask,
            }
        }
        self.slots[i].as_mut().map(|(_, v)| v)
    }

    /// Get the value for `key`, inserting `default()` first if absent.
    pub fn get_or_insert_with(&mut self, key: u64, default: impl FnOnce() -> V) -> &mut V {
        if (self.len + 1) * 4 > self.slots.len() * 3 {
            self.grow();
        }
        let mut i = self.bucket(key);
        loop {
            match &self.slots[i] {
                Some((k, _)) if *k == key => break,
                Some(_) => i = (i + 1) & self.mask,
                None => {
                    self.slots[i] = Some((key, default()));
                    self.len += 1;
                    break;
                }
            }
        }
        self.slots[i]
            .as_mut()
            .map(|(_, v)| v)
            .expect("slot just filled")
    }

    /// Insert, returning the previous value if the key was present.
    pub fn insert(&mut self, key: u64, value: V) -> Option<V> {
        if (self.len + 1) * 4 > self.slots.len() * 3 {
            self.grow();
        }
        let mut i = self.bucket(key);
        loop {
            match &mut self.slots[i] {
                Some((k, v)) if *k == key => return Some(std::mem::replace(v, value)),
                Some(_) => i = (i + 1) & self.mask,
                None => {
                    self.slots[i] = Some((key, value));
                    self.len += 1;
                    return None;
                }
            }
        }
    }

    /// True if `key` is present.
    pub fn contains_key(&self, key: u64) -> bool {
        self.get(key).is_some()
    }

    /// Iterate over `(key, &value)` in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &V)> {
        self.slots
            .iter()
            .filter_map(|s| s.as_ref().map(|(k, v)| (*k, v)))
    }

    fn grow(&mut self) {
        let new_cap = self.slots.len() * 2;
        let mut bigger = U64Map::<V> {
            slots: {
                let mut s = Vec::with_capacity(new_cap);
                s.resize_with(new_cap, || None);
                s
            },
            len: 0,
            mask: new_cap - 1,
        };
        for (k, v) in self.slots.drain(..).flatten() {
            // Direct re-insert; capacities guarantee a free bucket.
            let mut i = bigger.bucket(k);
            while bigger.slots[i].is_some() {
                i = (i + 1) & bigger.mask;
            }
            bigger.slots[i] = Some((k, v));
            bigger.len += 1;
        }
        *self = bigger;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn insert_get_roundtrip() {
        let mut m = U64Map::new();
        assert!(m.is_empty());
        assert_eq!(m.insert(42, "x"), None);
        assert_eq!(m.insert(42, "y"), Some("x"));
        assert_eq!(m.get(42), Some(&"y"));
        assert_eq!(m.get(43), None);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn zero_key_is_a_valid_key() {
        // Poly-A k-mers encode to 0; the map must not treat 0 as a sentinel.
        let mut m = U64Map::new();
        m.insert(0, 7u32);
        assert_eq!(m.get(0), Some(&7));
        assert!(m.contains_key(0));
    }

    #[test]
    fn get_or_insert_with_semantics() {
        let mut m: U64Map<Vec<u32>> = U64Map::new();
        m.get_or_insert_with(5, Vec::new).push(1);
        m.get_or_insert_with(5, Vec::new).push(2);
        assert_eq!(m.get(5), Some(&vec![1, 2]));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn growth_preserves_entries() {
        let mut m = U64Map::with_capacity(4);
        for k in 0u64..10_000 {
            m.insert(k.wrapping_mul(0x517C_C1B7_2722_0A95), k);
        }
        assert_eq!(m.len(), 10_000);
        for k in 0u64..10_000 {
            assert_eq!(m.get(k.wrapping_mul(0x517C_C1B7_2722_0A95)), Some(&k));
        }
    }

    #[test]
    fn matches_std_hashmap_on_mixed_ops() {
        let mut ours = U64Map::new();
        let mut std_map = HashMap::new();
        let mut state = 88172645463325252u64;
        for _ in 0..5000 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let key = state % 701; // force collisions/overwrites
            let val = state >> 32;
            assert_eq!(ours.insert(key, val), std_map.insert(key, val));
        }
        assert_eq!(ours.len(), std_map.len());
        for (k, v) in std_map {
            assert_eq!(ours.get(k), Some(&v));
        }
    }

    #[test]
    fn iter_visits_every_entry_once() {
        let mut m = U64Map::new();
        for k in 0..100u64 {
            m.insert(k * 3, k);
        }
        let mut seen: Vec<u64> = m.iter().map(|(k, _)| k).collect();
        seen.sort_unstable();
        let expect: Vec<u64> = (0..100).map(|k| k * 3).collect();
        assert_eq!(seen, expect);
    }

    #[test]
    fn adversarial_same_bucket_keys() {
        // Keys crafted to collide in the initial table exercise probing.
        let mut m = U64Map::with_capacity(8);
        let cap = 16u64; // with_capacity(8) → 16 slots
        let keys: Vec<u64> = (0..12).map(|i| i * cap * 4).collect();
        for (i, &k) in keys.iter().enumerate() {
            m.insert(k, i);
        }
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(m.get(k), Some(&i));
        }
    }

    /// First `n` keys whose initial bucket in `m` is `bucket` — a
    /// hand-built maximal collision chain for the current table geometry.
    fn colliding_keys(m: &U64Map<u64>, bucket: usize, n: usize) -> Vec<u64> {
        (0u64..)
            .filter(|&k| m.bucket(k) == bucket)
            .take(n)
            .collect()
    }

    #[test]
    fn collision_chain_probes_terminate_for_absent_keys() {
        // 10 keys in one probe chain — the 16-slot table grows only at the
        // 13th insert, so every lookup here walks the chain linearly.
        let mut m: U64Map<u64> = U64Map::with_capacity(8);
        let keys = colliding_keys(&m, 3, 10);
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(m.insert(k, i as u64), None);
        }
        assert_eq!(m.len(), 10, "no resize yet");
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(m.get(k), Some(&(i as u64)), "chain member {i}");
        }
        // Absent keys that hash *into* the chain must walk it and stop at
        // the first empty slot — never loop, never false-positive.
        let absent = colliding_keys(&m, 3, 12)[10..].to_vec();
        for k in absent {
            assert_eq!(m.get(k), None);
            assert!(!m.contains_key(k));
        }
        // An absent key hashing right past the chain's end terminates too.
        let clear = colliding_keys(&m, 14, 1)[0];
        assert_eq!(m.get(clear), None);
    }

    #[test]
    fn get_mut_walks_collision_chains() {
        let mut m: U64Map<u64> = U64Map::with_capacity(8);
        let keys = colliding_keys(&m, 0, 8);
        for &k in &keys {
            m.insert(k, 0);
        }
        // Mutate only the chain's last member; its neighbors must be
        // untouched (a probe that stops early would hit the wrong slot).
        *m.get_mut(keys[7]).unwrap() = 99;
        for &k in &keys[..7] {
            assert_eq!(m.get(k), Some(&0));
        }
        assert_eq!(m.get(keys[7]), Some(&99));
        assert_eq!(
            m.get_mut(keys[7] + 1).is_some(),
            m.contains_key(keys[7] + 1)
        );
    }

    #[test]
    fn resize_under_load_preserves_chains_and_values() {
        // Seed one dense collision chain, then hammer the map with enough
        // mixed inserts to force several rehashes, re-checking the chain
        // after every insert — growth must never lose or reorder a chain.
        let mut m: U64Map<u64> = U64Map::with_capacity(8);
        let chain = colliding_keys(&m, 5, 10);
        for (i, &k) in chain.iter().enumerate() {
            m.insert(k, 1000 + i as u64);
        }
        let mut state = 0x0123_4567_89AB_CDEFu64;
        let mut inserted: Vec<u64> = Vec::new();
        for _ in 0..3000 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            // Disjoint from the chain keys (which are all small).
            let key = state | (1 << 63);
            if m.insert(key, state).is_none() {
                inserted.push(key);
            }
            for (i, &k) in chain.iter().enumerate() {
                assert_eq!(m.get(k), Some(&(1000 + i as u64)), "chain broke mid-growth");
            }
        }
        assert_eq!(m.len(), chain.len() + inserted.len());
        for &k in &inserted {
            assert!(m.contains_key(k));
        }
    }

    #[test]
    fn lookup_after_resize_honors_the_new_geometry() {
        // Keys that collided in the small table scatter after growth; all
        // invariants must hold in the new geometry: every key findable,
        // each exactly once in iteration, absent probes still terminate.
        let mut m: U64Map<u64> = U64Map::with_capacity(8);
        let old_chain = colliding_keys(&m, 7, 10);
        for (i, &k) in old_chain.iter().enumerate() {
            m.insert(k, i as u64);
        }
        let before_slots = m.slots.len();
        for k in 0..200u64 {
            m.insert((k + 1) << 32, k);
        }
        assert!(m.slots.len() > before_slots, "growth must have happened");
        for (i, &k) in old_chain.iter().enumerate() {
            assert_eq!(m.get(k), Some(&(i as u64)), "pre-resize chain member {i}");
        }
        let mut seen: Vec<u64> = m.iter().map(|(k, _)| k).collect();
        seen.sort_unstable();
        let dups = seen.windows(2).filter(|w| w[0] == w[1]).count();
        assert_eq!(dups, 0, "rehashing must not duplicate keys");
        assert_eq!(seen.len(), m.len());
        // Probe termination in the grown table: of the keys now hashing to
        // bucket 7, exactly the inserted ones (the old chain's small keys)
        // are found — probes for the rest stop at an empty slot.
        for k in colliding_keys(&m, 7, 40) {
            assert_eq!(m.contains_key(k), old_chain.contains(&k));
        }
        // get_or_insert_with on a present key after resize must not insert.
        let len = m.len();
        assert_eq!(*m.get_or_insert_with(old_chain[3], || 777), 3);
        assert_eq!(m.len(), len);
    }
}
