//! Cross-checks the telemetry observer against the engine's own
//! accounting: the registry counters a `MetricsObserver` accumulates must
//! agree with `MiningStats` for the same run, and the rule-2 (`min_conds`)
//! counter — which `MiningStats` deliberately does not carry — must fire
//! on a workload whose chains die of unreachable MinC.

use regcluster_core::{
    finalize_clusters, mine, mine_prepared_to_sink, EngineConfig, MetricsObserver, MineControl,
    Miner, MiningParams, MiningStats, RegCluster, SyncMineObserver, VecSink,
};
use regcluster_datagen::running_example;
use regcluster_matrix::ExpressionMatrix;
use regcluster_obs::MetricsRegistry;

/// A 1-thread engine run reporting to `observer`: the finalized clusters
/// and the engine's own stats.
fn mine_observed(
    m: &ExpressionMatrix,
    params: &MiningParams,
    observer: &dyn SyncMineObserver,
) -> (Vec<RegCluster>, MiningStats) {
    let miner = Miner::new(m, params).unwrap();
    let sink = VecSink::new();
    let config = EngineConfig::new(1);
    let report = mine_prepared_to_sink(&miner, &config, &MineControl::new(), observer, &sink)
        .expect("engine succeeds");
    let mut clusters = sink.into_clusters();
    finalize_clusters(&mut clusters, params);
    (clusters, report.stats)
}

const NODES_HELP: &str = "Enumeration-tree nodes entered (partial representative chains expanded).";
const EMITTED_HELP: &str = "Validated reg-clusters emitted by the enumeration.";
const PRUNED_HELP: &str = "Subtrees cut by each pruning strategy of the paper's section 4.";

#[test]
fn metrics_observer_agrees_with_mining_stats() {
    let m = running_example();
    let params = MiningParams::new(3, 5, 0.15, 0.1).unwrap();

    let registry = MetricsRegistry::new();
    let observer = MetricsObserver::register(&registry);
    let (clusters, stats) = mine_observed(&m, &params, &observer);
    assert_eq!(clusters, mine(&m, &params).unwrap());

    let counter = |name: &str, help: &str| registry.counter(name, help, &[]).get();
    let rule = |label: &str| {
        registry
            .counter(
                regcluster_core::metrics::MINE_PRUNED_METRIC,
                PRUNED_HELP,
                &[("rule", label)],
            )
            .get()
    };
    assert_eq!(
        counter(regcluster_core::metrics::MINE_NODES_METRIC, NODES_HELP),
        stats.nodes as u64
    );
    assert_eq!(
        counter(regcluster_core::metrics::MINE_EMITTED_METRIC, EMITTED_HELP),
        stats.emitted as u64
    );
    assert_eq!(rule("min_genes"), stats.pruned_min_genes as u64);
    assert_eq!(rule("few_p_members"), stats.pruned_few_p as u64);
    assert_eq!(rule("duplicate"), stats.pruned_duplicate as u64);
    assert_eq!(rule("coherence"), stats.pruned_coherence as u64);
}

#[test]
fn min_conds_pruning_is_observable() {
    // MinC = 6 exceeds the running example's deepest 5-condition chain:
    // every surviving branch eventually runs out of extensible candidates
    // short of MinC, which is exactly the rule-2 subtree cut.
    let m = running_example();
    let params = MiningParams::new(3, 6, 0.15, 0.1).unwrap();
    let registry = MetricsRegistry::new();
    let observer = MetricsObserver::register(&registry);
    let (clusters, _) = mine_observed(&m, &params, &observer);
    assert!(clusters.is_empty(), "MinC = 6 must starve the search");

    let min_conds = registry
        .counter(
            regcluster_core::metrics::MINE_PRUNED_METRIC,
            PRUNED_HELP,
            &[("rule", "min_conds")],
        )
        .get();
    assert!(
        min_conds > 0,
        "rule-2 cuts must be visible on a MinC-starved run"
    );
}
