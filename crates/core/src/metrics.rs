//! Registry-backed mining telemetry.
//!
//! [`MetricsObserver`] is the production observer: it turns enumeration
//! events into pre-registered [`regcluster_obs`] instruments — per-rule
//! subtree-kill counters, a node-depth histogram, and a time-to-emission
//! histogram. Every event handler is a handful of relaxed atomic writes:
//! no locks, no registry lookups, and no heap allocation, so the observer
//! can ride inside the allocation-free enumeration core (the workspace's
//! `tests/alloc.rs` pins this at exactly zero steady-state allocations).

use regcluster_matrix::CondId;
use regcluster_obs::{Clock, Counter, Histogram, MetricsRegistry, MonotonicClock};

use crate::cluster::RegCluster;
use crate::observer::{PruneRule, SyncMineObserver};

/// Name of the nodes-entered counter.
pub const MINE_NODES_METRIC: &str = "regcluster_mine_nodes_total";
/// Name of the clusters-emitted counter.
pub const MINE_EMITTED_METRIC: &str = "regcluster_mine_clusters_emitted_total";
/// Name of the per-rule pruned-subtree counter (labelled by `rule`).
pub const MINE_PRUNED_METRIC: &str = "regcluster_mine_pruned_subtrees_total";
/// Name of the node-depth histogram.
pub const MINE_NODE_DEPTH_METRIC: &str = "regcluster_mine_node_depth";
/// Name of the time-to-emission histogram.
pub const MINE_EMISSION_LATENCY_METRIC: &str = "regcluster_mine_emission_latency_seconds";

/// Chain-length bucket bounds for [`MINE_NODE_DEPTH_METRIC`]. Depth 1 is
/// a root; MinC-sized chains land mid-range on realistic parameters.
const DEPTH_BOUNDS: [f64; 10] = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0, 12.0, 16.0];

/// Seconds-from-run-start bucket bounds for
/// [`MINE_EMISSION_LATENCY_METRIC`].
const LATENCY_BOUNDS: [f64; 10] = [0.0001, 0.001, 0.01, 0.1, 0.5, 1.0, 5.0, 15.0, 60.0, 300.0];

/// An observer recording enumeration events into registry instruments.
///
/// All instrument cells are atomics, so concurrent engine workers reporting
/// through one instance lose nothing.
///
/// Handles are resolved once, at [`register`](MetricsObserver::register)
/// time. The clock is generic so tests can drive time by hand
/// ([`ManualClock`](regcluster_obs::ManualClock)); production uses the
/// default [`MonotonicClock`].
pub struct MetricsObserver<C: Clock + Sync = MonotonicClock> {
    clock: C,
    /// Microsecond timestamp (on `clock`) when this observer was created;
    /// emission latency is measured from here.
    epoch_micros: u64,
    nodes: Counter,
    emitted: Counter,
    pruned: [Counter; PruneRule::ALL.len()],
    depth: Histogram,
    emission_latency: Histogram,
}

impl MetricsObserver<MonotonicClock> {
    /// Registers the mining instruments in `registry` and returns an
    /// observer timing emissions against a fresh monotonic clock.
    pub fn register(registry: &MetricsRegistry) -> Self {
        Self::with_clock(registry, MonotonicClock::new())
    }
}

impl<C: Clock + Sync> MetricsObserver<C> {
    /// As [`register`](MetricsObserver::register), but measuring time on
    /// the given clock.
    pub fn with_clock(registry: &MetricsRegistry, clock: C) -> Self {
        let nodes = registry.counter(
            MINE_NODES_METRIC,
            "Enumeration-tree nodes entered (partial representative chains expanded).",
            &[],
        );
        let emitted = registry.counter(
            MINE_EMITTED_METRIC,
            "Validated reg-clusters emitted by the enumeration.",
            &[],
        );
        let pruned = PruneRule::ALL.map(|rule| {
            registry.counter(
                MINE_PRUNED_METRIC,
                "Subtrees cut by each pruning strategy of the paper's section 4.",
                &[("rule", rule.as_label())],
            )
        });
        let depth = registry.histogram(
            MINE_NODE_DEPTH_METRIC,
            "Chain length (condition count) of each enumeration-tree node entered.",
            &[],
            &DEPTH_BOUNDS,
        );
        let emission_latency = registry.histogram(
            MINE_EMISSION_LATENCY_METRIC,
            "Seconds from the start of the mining run to each cluster emission.",
            &[],
            &LATENCY_BOUNDS,
        );
        let epoch_micros = clock.now_micros();
        Self {
            clock,
            epoch_micros,
            nodes,
            emitted,
            pruned,
            depth,
            emission_latency,
        }
    }

    fn record_node(&self, chain: &[CondId]) {
        self.nodes.inc();
        self.depth.observe(chain.len() as f64);
    }

    fn record_pruned(&self, rule: PruneRule) {
        self.pruned[rule.index()].inc();
    }

    fn record_emitted(&self) {
        self.emitted.inc();
        let elapsed = self.clock.now_micros().saturating_sub(self.epoch_micros);
        self.emission_latency.observe(elapsed as f64 / 1e6);
    }
}

impl<C: Clock + Sync> SyncMineObserver for MetricsObserver<C> {
    fn node_entered(&self, chain: &[CondId], _n_p: usize, _n_n: usize) {
        self.record_node(chain);
    }
    fn pruned(&self, _chain: &[CondId], rule: PruneRule) {
        self.record_pruned(rule);
    }
    fn cluster_emitted(&self, _cluster: &RegCluster) {
        self.record_emitted();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use regcluster_obs::ManualClock;

    fn counter(registry: &MetricsRegistry, name: &str, help: &str, rule: Option<&str>) -> u64 {
        let labels: Vec<(&str, &str)> = rule.map(|r| ("rule", r)).into_iter().collect();
        registry.counter(name, help, &labels).get()
    }

    #[test]
    fn events_land_in_the_right_instruments() {
        let registry = MetricsRegistry::new();
        let observer = MetricsObserver::with_clock(&registry, ManualClock::new());
        SyncMineObserver::node_entered(&observer, &[3], 5, 2);
        SyncMineObserver::node_entered(&observer, &[3, 7, 1], 4, 1);
        SyncMineObserver::pruned(&observer, &[3, 7], PruneRule::Coherence);
        SyncMineObserver::pruned(&observer, &[4], PruneRule::MinGenes);
        SyncMineObserver::pruned(&observer, &[5], PruneRule::Coherence);
        let cluster = RegCluster {
            chain: vec![3, 7, 1],
            p_members: vec![0],
            n_members: vec![],
        };
        SyncMineObserver::cluster_emitted(&observer, &cluster);

        let node_help = "Enumeration-tree nodes entered (partial representative chains expanded).";
        assert_eq!(counter(&registry, MINE_NODES_METRIC, node_help, None), 2);
        let pruned_help = "Subtrees cut by each pruning strategy of the paper's section 4.";
        assert_eq!(
            counter(
                &registry,
                MINE_PRUNED_METRIC,
                pruned_help,
                Some("coherence")
            ),
            2
        );
        assert_eq!(
            counter(
                &registry,
                MINE_PRUNED_METRIC,
                pruned_help,
                Some("min_genes")
            ),
            1
        );
        assert_eq!(
            counter(
                &registry,
                MINE_PRUNED_METRIC,
                pruned_help,
                Some("duplicate")
            ),
            0
        );
        let text = registry.encode_prometheus();
        assert!(text.contains("regcluster_mine_clusters_emitted_total 1"));
        assert!(text.contains("regcluster_mine_node_depth_count 2"));
        assert!(text.contains("regcluster_mine_node_depth_sum 4"), "{text}");
    }

    #[test]
    fn emission_latency_measured_from_construction() {
        let registry = MetricsRegistry::new();
        let clock = ManualClock::new();
        clock.advance(10_000_000); // epoch ≠ 0
        let observer = MetricsObserver::with_clock(&registry, clock);
        observer.clock.advance(2_000_000); // 2 s into the run
        let cluster = RegCluster {
            chain: vec![0, 1],
            p_members: vec![0],
            n_members: vec![],
        };
        SyncMineObserver::cluster_emitted(&observer, &cluster);
        let h = registry.histogram(
            MINE_EMISSION_LATENCY_METRIC,
            "Seconds from the start of the mining run to each cluster emission.",
            &[],
            &LATENCY_BOUNDS,
        );
        assert_eq!(h.count(), 1);
        assert!((h.sum() - 2.0).abs() < 1e-9);
    }
}
