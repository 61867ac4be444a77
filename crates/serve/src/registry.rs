//! The shard registry: which shard process owns which slot range.
//!
//! A router topology partitions the global slot space (the same space
//! [`jem_core::CodeFilter::slots`] hashes codes into) across
//! independent `jem serve` processes. The registry is the router's map of
//! that partition: one [`ShardSpec`] per shard — its slot range, primary
//! address, and optional hedge replica — plus an epoch counter naming the
//! topology generation (operators bump it when they roll a new layout, so
//! snapshots from different generations are distinguishable).
//!
//! Validation is strict: the slot ranges must cover `0..n_slots` exactly,
//! with no gap and no overlap. A gap would silently drop collisions (a
//! *wrong* answer, not a degraded one); an overlap would double-count
//! nothing (sets union idempotently) but waste a full shard of work —
//! both are configuration bugs the router refuses to start with.

use crate::ServeError;
use std::fmt;
use std::ops::Range;

/// One shard process of a router topology.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardSpec {
    /// The global slot range this shard owns (`lo..hi`, half-open).
    pub slots: Range<usize>,
    /// Primary address (`host:port`) of the `jem serve` process.
    pub addr: String,
    /// Optional replica address hedged requests fail over to; `None`
    /// re-dispatches the hedge to the primary.
    pub replica: Option<String>,
}

/// A validated set of [`ShardSpec`]s covering the slot space exactly.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardRegistry {
    n_slots: usize,
    shards: Vec<ShardSpec>,
    epoch: u64,
}

impl ShardRegistry {
    /// Build a registry over `shards`, validating that their slot ranges
    /// partition `0..n_slots` exactly (disjoint, gap-free, in-range).
    /// The shards are sorted by slot range; shard ids (the ids a
    /// `Degraded` answer names) are indices into that sorted order.
    pub fn new(n_slots: usize, mut shards: Vec<ShardSpec>) -> Result<Self, ServeError> {
        if n_slots == 0 {
            return Err(ServeError::Config("slot space must be non-empty".into()));
        }
        if shards.is_empty() {
            return Err(ServeError::Config(
                "registry needs at least one shard".into(),
            ));
        }
        shards.sort_by_key(|s| s.slots.start);
        let mut expect = 0usize;
        for (i, spec) in shards.iter().enumerate() {
            if spec.slots.start >= spec.slots.end {
                return Err(ServeError::Config(format!(
                    "shard {i}: slot range {}-{} is empty",
                    spec.slots.start, spec.slots.end
                )));
            }
            if spec.slots.start != expect {
                return Err(ServeError::Config(format!(
                    "shard {i}: slot range starts at {} but {} is the next uncovered slot \
                     (ranges must partition 0..{n_slots} exactly)",
                    spec.slots.start, expect
                )));
            }
            if spec.addr.is_empty() {
                return Err(ServeError::Config(format!("shard {i}: empty address")));
            }
            expect = spec.slots.end;
        }
        if expect != n_slots {
            return Err(ServeError::Config(format!(
                "shard ranges cover 0..{expect} but the slot space is 0..{n_slots}"
            )));
        }
        Ok(ShardRegistry {
            n_slots,
            shards,
            epoch: 0,
        })
    }

    /// Same registry with a different topology epoch.
    pub fn with_epoch(mut self, epoch: u64) -> Self {
        self.epoch = epoch;
        self
    }

    /// Parse a topology spec: `;`-separated entries of
    /// `LO-HI@ADDR[,REPLICA]`, e.g.
    /// `0-2@127.0.0.1:7878;2-4@127.0.0.1:7879,127.0.0.1:7880`.
    /// The slot-space size is the largest `HI`; the exact-cover check
    /// then catches any gap or overlap.
    pub fn parse(spec: &str) -> Result<Self, ServeError> {
        let mut shards = Vec::new();
        let mut n_slots = 0usize;
        for (i, entry) in spec.split(';').enumerate() {
            let entry = entry.trim();
            if entry.is_empty() {
                continue;
            }
            let bad = |what: &str| {
                ServeError::Config(format!(
                    "topology entry {i} ({entry:?}): {what} \
                     (expected LO-HI@ADDR[,REPLICA])"
                ))
            };
            let (range, addrs) = entry.split_once('@').ok_or_else(|| bad("missing '@'"))?;
            let (lo, hi) = range.split_once('-').ok_or_else(|| bad("missing '-'"))?;
            let lo: usize = lo.trim().parse().map_err(|_| bad("bad low slot"))?;
            let hi: usize = hi.trim().parse().map_err(|_| bad("bad high slot"))?;
            let (addr, replica) = match addrs.split_once(',') {
                Some((a, r)) => (a.trim().to_string(), Some(r.trim().to_string())),
                None => (addrs.trim().to_string(), None),
            };
            if addr.is_empty() {
                return Err(bad("empty address"));
            }
            if replica.as_deref() == Some("") {
                return Err(bad("empty replica address"));
            }
            n_slots = n_slots.max(hi);
            shards.push(ShardSpec {
                slots: lo..hi,
                addr,
                replica,
            });
        }
        ShardRegistry::new(n_slots, shards)
    }

    /// Size of the global slot space.
    pub fn n_slots(&self) -> usize {
        self.n_slots
    }

    /// The topology generation.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The shards, sorted by slot range; the index in this slice is the
    /// shard id the router's `Degraded` answers name.
    pub fn shards(&self) -> &[ShardSpec] {
        &self.shards
    }

    /// Number of shards.
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// Whether the registry is empty (never true for a validated one).
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }
}

impl fmt::Display for ShardRegistry {
    /// Renders back to the [`ShardRegistry::parse`] grammar (round-trips).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, s) in self.shards.iter().enumerate() {
            if i > 0 {
                f.write_str(";")?;
            }
            write!(f, "{}-{}@{}", s.slots.start, s.slots.end, s.addr)?;
            if let Some(r) = &s.replica {
                write!(f, ",{r}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(lo: usize, hi: usize, addr: &str) -> ShardSpec {
        ShardSpec {
            slots: lo..hi,
            addr: addr.to_string(),
            replica: None,
        }
    }

    #[test]
    fn exact_cover_accepted_and_sorted() {
        let reg =
            ShardRegistry::new(5, vec![spec(2, 4, "b"), spec(0, 2, "a"), spec(4, 5, "c")]).unwrap();
        assert_eq!(reg.len(), 3);
        assert_eq!(reg.n_slots(), 5);
        let ranges: Vec<_> = reg.shards().iter().map(|s| s.slots.clone()).collect();
        assert_eq!(ranges, vec![0..2, 2..4, 4..5]);
    }

    #[test]
    fn gaps_overlaps_and_short_covers_rejected() {
        // Gap: slot 2 uncovered.
        assert!(ShardRegistry::new(4, vec![spec(0, 2, "a"), spec(3, 4, "b")]).is_err());
        // Overlap: slot 1 covered twice.
        assert!(ShardRegistry::new(3, vec![spec(0, 2, "a"), spec(1, 3, "b")]).is_err());
        // Short: slot 3 uncovered at the end.
        assert!(ShardRegistry::new(4, vec![spec(0, 3, "a")]).is_err());
        // Empty range.
        assert!(ShardRegistry::new(2, vec![spec(0, 0, "a"), spec(0, 2, "b")]).is_err());
        // Empty registry / empty space.
        assert!(ShardRegistry::new(2, Vec::new()).is_err());
        assert!(ShardRegistry::new(0, vec![spec(0, 0, "a")]).is_err());
    }

    #[test]
    fn parse_roundtrips_through_display() {
        let text = "0-2@127.0.0.1:7878;2-4@127.0.0.1:7879,127.0.0.1:7880";
        let reg = ShardRegistry::parse(text).unwrap();
        assert_eq!(reg.n_slots(), 4);
        assert_eq!(reg.shards()[0].replica, None);
        assert_eq!(reg.shards()[1].replica.as_deref(), Some("127.0.0.1:7880"));
        assert_eq!(reg.to_string(), text);
        assert_eq!(ShardRegistry::parse(&reg.to_string()).unwrap(), reg);
    }

    #[test]
    fn parse_rejects_malformed_entries() {
        for bad in [
            "",                  // no entries at all
            "0-2127.0.0.1:7878", // missing '@'
            "02@addr",           // missing '-'
            "x-2@addr",          // bad number
            "0-2@",              // empty address
            "0-2@addr,",         // empty replica
            "0-2@a;3-4@b",       // gap at slot 2
            "0-2@a;1-3@b",       // overlap at slot 1
        ] {
            assert!(ShardRegistry::parse(bad).is_err(), "accepted: {bad:?}");
        }
    }
}
