//! Instrumentation hooks for the enumeration tree.
//!
//! The paper's Figure 6 annotates every edge of the representative-chain
//! enumeration tree with the pruning strategy applied. [`SyncMineObserver`]
//! exposes those events so tests can reproduce the tree exactly and so users
//! can trace why a parameter setting returns nothing.

use std::sync::{Mutex, PoisonError};

use regcluster_matrix::CondId;
use serde::{Deserialize, Serialize};

use crate::cluster::RegCluster;

/// The pruning strategies of §4 of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PruneRule {
    /// (1) MinG pruning — fewer than `MinG` member genes remain.
    MinGenes,
    /// (2) MinC pruning is applied per gene while generating candidates, so
    /// it surfaces as a node event only when it empties a candidate set; the
    /// variant exists for completeness of traces produced by custom tooling.
    MinConds,
    /// (3)(a) Redundant pruning — fewer than `MinG / 2` p-members, so the
    /// chain cannot be representative.
    FewPMembers,
    /// (3)(b) Redundant pruning — the validated cluster was already emitted
    /// (overlapping sliding windows), so the subtree is redundant.
    Duplicate,
    /// (4) Coherence pruning — no sliding window of `MinG` coherent genes.
    Coherence,
}

impl PruneRule {
    /// Every rule, in paper order. The canonical iteration order for
    /// per-rule metric registration and reporting.
    pub const ALL: [PruneRule; 5] = [
        PruneRule::MinGenes,
        PruneRule::MinConds,
        PruneRule::FewPMembers,
        PruneRule::Duplicate,
        PruneRule::Coherence,
    ];

    /// The stable snake_case name used as the `rule` label value on
    /// exported metrics (see `docs/OBSERVABILITY.md`).
    pub fn as_label(self) -> &'static str {
        match self {
            PruneRule::MinGenes => "min_genes",
            PruneRule::MinConds => "min_conds",
            PruneRule::FewPMembers => "few_p_members",
            PruneRule::Duplicate => "duplicate",
            PruneRule::Coherence => "coherence",
        }
    }

    /// The position of this rule in [`PruneRule::ALL`]; used to index
    /// pre-registered per-rule instrument arrays without a lookup.
    pub fn index(self) -> usize {
        match self {
            PruneRule::MinGenes => 0,
            PruneRule::MinConds => 1,
            PruneRule::FewPMembers => 2,
            PruneRule::Duplicate => 3,
            PruneRule::Coherence => 4,
        }
    }
}

/// Receiver for enumeration-tree events. All methods default to no-ops.
///
/// Methods take `&self` and implementations must be [`Sync`] because every
/// [`engine`](crate::engine) worker reports through the same instance.
/// Events from different workers interleave arbitrarily; only the
/// per-worker sub-streams are in depth-first order, so a 1-thread run
/// reports the whole tree in depth-first order. For aggregate counters
/// prefer the per-worker [`MiningStats`] that the engine accumulates
/// lock-free and merges at join.
pub trait SyncMineObserver: Sync {
    /// A node (partial representative chain) was entered with `n_p`
    /// p-members and `n_n` n-members.
    fn node_entered(&self, _chain: &[CondId], _n_p: usize, _n_n: usize) {}
    /// The subtree at `chain` was pruned by `rule`.
    fn pruned(&self, _chain: &[CondId], _rule: PruneRule) {}
    /// A validated reg-cluster was emitted.
    fn cluster_emitted(&self, _cluster: &RegCluster) {}
}

/// The default, zero-cost observer.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopObserver;

impl SyncMineObserver for NoopObserver {}

/// One worker's event fan-out: lock-free [`MiningStats`] plus the run's
/// shared [`SyncMineObserver`].
pub(crate) struct WorkerObserver<'a> {
    pub stats: MiningStats,
    pub user: &'a dyn SyncMineObserver,
}

impl WorkerObserver<'_> {
    pub fn node_entered(&mut self, chain: &[CondId], n_p: usize, n_n: usize) {
        self.stats.record_node(chain);
        self.user.node_entered(chain, n_p, n_n);
    }

    pub fn pruned(&mut self, chain: &[CondId], rule: PruneRule) {
        self.stats.record_prune(rule);
        self.user.pruned(chain, rule);
    }

    pub fn cluster_emitted(&mut self, cluster: &RegCluster) {
        self.stats.emitted += 1;
        self.user.cluster_emitted(cluster);
    }
}

/// A recorded enumeration event.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// Node entered: chain, p-member count, n-member count.
    Node(Vec<CondId>, usize, usize),
    /// Subtree pruned at `chain` by the given rule.
    Pruned(Vec<CondId>, PruneRule),
    /// Cluster emitted.
    Emitted(RegCluster),
}

/// An observer that records every event, for tests and debugging. Mine at
/// one thread to record the tree in depth-first order.
#[derive(Debug, Default)]
pub struct TraceObserver {
    events: Mutex<Vec<TraceEvent>>,
}

impl TraceObserver {
    fn record(&self, event: TraceEvent) {
        self.events
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(event);
    }

    /// The recorded events, in arrival order.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.events
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// All chains at which a given rule fired.
    pub fn pruned_by(&self, rule: PruneRule) -> Vec<Vec<CondId>> {
        self.events()
            .into_iter()
            .filter_map(|e| match e {
                TraceEvent::Pruned(chain, r) if r == rule => Some(chain),
                _ => None,
            })
            .collect()
    }

    /// All node chains entered, in arrival order.
    pub fn nodes(&self) -> Vec<Vec<CondId>> {
        self.events()
            .into_iter()
            .filter_map(|e| match e {
                TraceEvent::Node(chain, _, _) => Some(chain),
                _ => None,
            })
            .collect()
    }

    /// Number of emitted clusters.
    pub fn n_emitted(&self) -> usize {
        self.events()
            .iter()
            .filter(|e| matches!(e, TraceEvent::Emitted(_)))
            .count()
    }
}

/// Aggregate search-effort counters — the cheap observer for production
/// runs that want to know *why* a parameter setting is slow or empty
/// without paying for a full trace.
#[derive(Debug, Default, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MiningStats {
    /// Enumeration-tree nodes entered.
    pub nodes: usize,
    /// Deepest chain reached.
    pub max_depth: usize,
    /// Clusters emitted.
    pub emitted: usize,
    /// Subtrees cut by pruning (1) — MinG.
    pub pruned_min_genes: usize,
    /// Subtrees cut by pruning (3)(a) — too few p-members.
    pub pruned_few_p: usize,
    /// Subtrees cut by pruning (3)(b) — duplicate clusters.
    pub pruned_duplicate: usize,
    /// Candidates cut by pruning (4) — no coherent window.
    pub pruned_coherence: usize,
}

impl MiningStats {
    /// Folds another accumulator into this one: counters add, `max_depth`
    /// takes the maximum. Used by the engine to combine per-worker
    /// statistics at join; because workers partition the enumeration tree,
    /// the merged totals equal a 1-thread run's.
    pub fn merge(&mut self, other: &MiningStats) {
        self.nodes += other.nodes;
        self.max_depth = self.max_depth.max(other.max_depth);
        self.emitted += other.emitted;
        self.pruned_min_genes += other.pruned_min_genes;
        self.pruned_few_p += other.pruned_few_p;
        self.pruned_duplicate += other.pruned_duplicate;
        self.pruned_coherence += other.pruned_coherence;
    }

    /// Human-readable one-line summary.
    pub fn summary(&self) -> String {
        format!(
            "{} nodes (max depth {}), {} clusters; pruned: {} MinG, {} few-p, {} duplicate, {} coherence",
            self.nodes,
            self.max_depth,
            self.emitted,
            self.pruned_min_genes,
            self.pruned_few_p,
            self.pruned_duplicate,
            self.pruned_coherence
        )
    }

    /// Counts one entered node at depth `chain.len()`.
    pub(crate) fn record_node(&mut self, chain: &[CondId]) {
        self.nodes += 1;
        self.max_depth = self.max_depth.max(chain.len());
    }

    /// Counts one subtree cut by `rule`.
    pub(crate) fn record_prune(&mut self, rule: PruneRule) {
        match rule {
            PruneRule::MinGenes => self.pruned_min_genes += 1,
            PruneRule::FewPMembers => self.pruned_few_p += 1,
            PruneRule::Duplicate => self.pruned_duplicate += 1,
            PruneRule::Coherence => self.pruned_coherence += 1,
            // Not counted here: adding a field would change this struct's
            // serialized shape (it rides in `mine --stats` JSON). Rule-2
            // cuts are exported via `MetricsObserver` instead.
            PruneRule::MinConds => {}
        }
    }
}

impl SyncMineObserver for TraceObserver {
    fn node_entered(&self, chain: &[CondId], n_p: usize, n_n: usize) {
        self.record(TraceEvent::Node(chain.to_vec(), n_p, n_n));
    }
    fn pruned(&self, chain: &[CondId], rule: PruneRule) {
        self.record(TraceEvent::Pruned(chain.to_vec(), rule));
    }
    fn cluster_emitted(&self, cluster: &RegCluster) {
        self.record(TraceEvent::Emitted(cluster.clone()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_observer_records_and_filters() {
        let t = TraceObserver::default();
        t.node_entered(&[1], 2, 1);
        t.pruned(&[1, 2], PruneRule::MinGenes);
        t.pruned(&[1, 3], PruneRule::Coherence);
        let c = RegCluster {
            chain: vec![1, 3, 4],
            p_members: vec![0],
            n_members: vec![],
        };
        t.cluster_emitted(&c);
        assert_eq!(t.nodes(), vec![vec![1]]);
        assert_eq!(t.pruned_by(PruneRule::MinGenes), vec![vec![1, 2]]);
        assert_eq!(t.pruned_by(PruneRule::Duplicate).len(), 0);
        assert_eq!(t.n_emitted(), 1);
    }

    #[test]
    fn stats_observer_counts_everything() {
        let mut w = WorkerObserver {
            stats: MiningStats::default(),
            user: &NoopObserver,
        };
        w.node_entered(&[1], 2, 1);
        w.node_entered(&[1, 2, 3], 2, 0);
        w.pruned(&[1, 2], PruneRule::MinGenes);
        w.pruned(&[1, 3], PruneRule::Coherence);
        w.pruned(&[2], PruneRule::FewPMembers);
        w.pruned(&[3], PruneRule::Duplicate);
        let c = RegCluster {
            chain: vec![1, 2, 3],
            p_members: vec![0],
            n_members: vec![],
        };
        w.cluster_emitted(&c);
        let s = w.stats;
        assert_eq!(s.nodes, 2);
        assert_eq!(s.max_depth, 3);
        assert_eq!(s.emitted, 1);
        assert_eq!(s.pruned_min_genes, 1);
        assert_eq!(s.pruned_coherence, 1);
        assert_eq!(s.pruned_few_p, 1);
        assert_eq!(s.pruned_duplicate, 1);
        let txt = s.summary();
        assert!(txt.contains("2 nodes"));
        assert!(txt.contains("max depth 3"));
    }

    #[test]
    fn stats_merge_adds_counters_and_maxes_depth() {
        let mut a = MiningStats {
            nodes: 3,
            max_depth: 2,
            emitted: 1,
            pruned_min_genes: 4,
            pruned_few_p: 0,
            pruned_duplicate: 1,
            pruned_coherence: 2,
        };
        let b = MiningStats {
            nodes: 5,
            max_depth: 6,
            emitted: 0,
            pruned_min_genes: 1,
            pruned_few_p: 3,
            pruned_duplicate: 0,
            pruned_coherence: 1,
        };
        a.merge(&b);
        assert_eq!(a.nodes, 8);
        assert_eq!(a.max_depth, 6);
        assert_eq!(a.emitted, 1);
        assert_eq!(a.pruned_min_genes, 5);
        assert_eq!(a.pruned_few_p, 3);
        assert_eq!(a.pruned_duplicate, 1);
        assert_eq!(a.pruned_coherence, 3);
    }

    #[test]
    fn noop_observer_is_silent() {
        let o = NoopObserver;
        o.node_entered(&[0], 0, 0);
        o.pruned(&[0], PruneRule::MinGenes);
    }
}
