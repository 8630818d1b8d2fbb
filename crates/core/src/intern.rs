//! Interned duplicate-elimination keys for emitted clusters.
//!
//! Pruning (3)(b) of the paper needs to answer "was this exact
//! `(chain, genes)` cluster emitted before?" once per validated node. The
//! old implementation kept a `HashSet<(Vec<CondId>, Vec<GeneId>)>`, so every
//! *probe* — including probes for known duplicates — paid two heap
//! allocations just to build the lookup key. [`EmittedSet`] stores interned
//! keys instead: a 64-bit fingerprint indexes a bucket of `(offset, len)`
//! references into one flat grow-only key arena, and probes compare the
//! borrowed [`ClusterView`] against the arena directly. Duplicate probes
//! therefore allocate nothing; only a *fresh* insert appends to the arena
//! (amortized, and the fresh path materializes a [`RegCluster`] anyway).
//!
//! Fingerprint collisions are handled exactly: a bucket may hold several key
//! references, and membership is decided by element-wise comparison, never
//! by the hash alone (exercised by a forced-collision test below).

use std::collections::HashMap;

use regcluster_matrix::{CondId, GeneId};

use crate::cluster::RegCluster;

/// A borrowed, not-yet-materialized view of a validated cluster.
///
/// `p_members` and `n_members` are sorted by gene id; `genes` is their
/// merged sorted union. The view lives in per-worker scratch space — turning
/// it into an owned [`RegCluster`] (via [`ClusterView::to_cluster`]) happens
/// exactly once, on first emission.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ClusterView<'a> {
    /// The representative regulation chain.
    pub chain: &'a [CondId],
    /// Sorted positively co-regulated member genes.
    pub p_members: &'a [GeneId],
    /// Sorted negatively co-regulated member genes.
    pub n_members: &'a [GeneId],
    /// Merged sorted union of `p_members` and `n_members`.
    pub genes: &'a [GeneId],
}

impl ClusterView<'_> {
    /// Materializes the owned cluster. The single allocation site of the
    /// emission path.
    pub fn to_cluster(self) -> RegCluster {
        RegCluster {
            chain: self.chain.to_vec(),
            p_members: self.p_members.to_vec(),
            n_members: self.n_members.to_vec(),
        }
    }

    /// 64-bit fingerprint of the dedup identity `(chain, genes)`.
    ///
    /// Deterministic (no per-process seed) so runs agree at every thread
    /// count; collisions are resolved exactly by [`EmittedSet`],
    /// so distribution quality only affects speed, not correctness.
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0x51_7C_C1_B7_27_22_0A_95;
        h = mix(h, self.chain.len() as u64);
        for &c in self.chain {
            h = mix(h, c as u64);
        }
        for &g in self.genes {
            h = mix(h, g as u64);
        }
        h
    }
}

/// One round of a splitmix64-style permutation, good enough to spread
/// structured id sequences across buckets. Also the primitive behind
/// [`matrix_fingerprint`](crate::checkpoint::matrix_fingerprint).
#[inline]
pub(crate) fn mix(h: u64, v: u64) -> u64 {
    let mut x = h ^ v.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^ (x >> 27)
}

/// Reference to one interned key inside the arena: `[chain | genes]` with
/// the chain length carried alongside so the two sections compare exactly.
#[derive(Debug, Clone, Copy)]
struct KeyRef {
    start: u32,
    len: u32,
    chain_len: u32,
}

/// The set of already-emitted cluster identities, with interned keys.
#[derive(Debug, Default)]
pub(crate) struct EmittedSet {
    /// Fingerprint → keys sharing it (singleton in all but collision cases).
    buckets: HashMap<u64, Vec<KeyRef>>,
    /// Flat arena of interned keys: `chain` ids then `genes` ids.
    arena: Vec<u32>,
}

impl EmittedSet {
    /// Inserts the view's identity; returns `false` (allocating nothing) if
    /// an identical cluster was already interned, `true` after interning a
    /// fresh one. `fingerprint` must be `view.fingerprint()` — it is taken
    /// as an argument so callers can compute it outside a shard lock.
    pub fn insert(&mut self, fingerprint: u64, view: &ClusterView<'_>) -> bool {
        if let Some(bucket) = self.buckets.get(&fingerprint) {
            if bucket.iter().any(|k| key_matches(&self.arena, *k, view)) {
                return false;
            }
        }
        let start = self.arena.len();
        self.arena
            .extend(view.chain.iter().map(|&c| id_u32(c, "condition")));
        self.arena
            .extend(view.genes.iter().map(|&g| id_u32(g, "gene")));
        let key = KeyRef {
            start: id_u32(start, "key arena offset"),
            len: (self.arena.len() - start) as u32,
            chain_len: view.chain.len() as u32,
        };
        self.buckets.entry(fingerprint).or_default().push(key);
        true
    }

    /// Forgets every identity, keeping the allocated capacity for reuse.
    pub fn clear(&mut self) {
        self.buckets.clear();
        self.arena.clear();
    }

    /// Number of interned identities.
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.buckets.values().map(Vec::len).sum()
    }
}

#[inline]
fn id_u32(v: usize, what: &str) -> u32 {
    u32::try_from(v).unwrap_or_else(|_| panic!("{what} {v} exceeds the u32 interning range"))
}

fn key_matches(arena: &[u32], key: KeyRef, view: &ClusterView<'_>) -> bool {
    if key.chain_len as usize != view.chain.len()
        || key.len as usize != view.chain.len() + view.genes.len()
    {
        return false;
    }
    let slice = &arena[key.start as usize..(key.start + key.len) as usize];
    let (chain, genes) = slice.split_at(key.chain_len as usize);
    chain.iter().zip(view.chain).all(|(&a, &b)| a as usize == b)
        && genes.iter().zip(view.genes).all(|(&a, &b)| a as usize == b)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view<'a>(
        chain: &'a [CondId],
        p: &'a [GeneId],
        n: &'a [GeneId],
        genes: &'a [GeneId],
    ) -> ClusterView<'a> {
        ClusterView {
            chain,
            p_members: p,
            n_members: n,
            genes,
        }
    }

    #[test]
    fn insert_then_duplicate_probe() {
        let mut set = EmittedSet::default();
        let v = view(&[6, 8, 4], &[0, 2], &[1], &[0, 1, 2]);
        let h = v.fingerprint();
        assert!(set.insert(h, &v));
        assert!(!set.insert(h, &v), "second insert is a duplicate");
        assert_eq!(set.len(), 1);
    }

    #[test]
    fn distinct_identities_do_not_collide_logically() {
        let mut set = EmittedSet::default();
        let a = view(&[1, 2], &[0], &[], &[0]);
        let b = view(&[2, 1], &[0], &[], &[0]); // same ids, different chain order
        let c = view(&[1, 2], &[3], &[], &[3]); // same chain, different genes
        assert!(set.insert(a.fingerprint(), &a));
        assert!(set.insert(b.fingerprint(), &b));
        assert!(set.insert(c.fingerprint(), &c));
        assert_eq!(set.len(), 3);
    }

    #[test]
    fn chain_gene_boundary_is_part_of_the_identity() {
        // Same flattened id sequence [1, 2, 3], split differently between
        // chain and genes: must be distinct clusters.
        let mut set = EmittedSet::default();
        let a = view(&[1, 2], &[3], &[], &[3]);
        let b = view(&[1], &[2, 3], &[], &[2, 3]);
        assert!(set.insert(a.fingerprint(), &a));
        assert!(set.insert(b.fingerprint(), &b));
        assert!(!set.insert(a.fingerprint(), &a));
        assert!(!set.insert(b.fingerprint(), &b));
    }

    #[test]
    fn forced_fingerprint_collision_resolves_exactly() {
        // Feed two different identities under the SAME (forged) fingerprint:
        // the bucket must hold both and membership must be decided by the
        // exact comparison, not the hash.
        let mut set = EmittedSet::default();
        let a = view(&[1, 2], &[5], &[], &[5]);
        let b = view(&[7, 9], &[4], &[], &[4]);
        assert!(set.insert(42, &a));
        assert!(set.insert(42, &b), "different identity must insert");
        assert!(!set.insert(42, &a));
        assert!(!set.insert(42, &b));
        assert_eq!(set.len(), 2);
    }
}
