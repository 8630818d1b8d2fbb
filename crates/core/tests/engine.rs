//! Integration tests of the mining engine: determinism across thread
//! counts, observer statistics, sinks, cancellation, and worker-panic
//! capture.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use proptest::prelude::*;

use regcluster_core::{
    finalize_clusters, mine, mine_prepared_to_sink, CappedSink, ClusterSink, CoreError,
    EngineConfig, MineControl, Miner, MiningParams, NoopObserver, RegCluster, SplitStrategy,
    StreamReport, StreamingSink, SyncMineObserver, VecSink,
};
use regcluster_matrix::ExpressionMatrix;

/// Streams one engine run over every root into `sink`.
fn stream(
    m: &ExpressionMatrix,
    params: &MiningParams,
    config: &EngineConfig,
    control: &MineControl,
    observer: &dyn SyncMineObserver,
    sink: &dyn ClusterSink,
) -> Result<StreamReport, CoreError> {
    let miner = Miner::new(m, params)?;
    mine_prepared_to_sink(&miner, config, control, observer, sink)
}

/// One engine run, collected and finalized.
fn collect(
    m: &ExpressionMatrix,
    params: &MiningParams,
    config: &EngineConfig,
    control: &MineControl,
    observer: &dyn SyncMineObserver,
) -> Result<(Vec<RegCluster>, StreamReport), CoreError> {
    let sink = VecSink::new();
    let report = stream(m, params, config, control, observer, &sink)?;
    let mut clusters = sink.into_clusters();
    finalize_clusters(&mut clusters, params);
    Ok((clusters, report))
}

fn collect_all(
    m: &ExpressionMatrix,
    params: &MiningParams,
    config: &EngineConfig,
) -> (Vec<RegCluster>, StreamReport) {
    collect(m, params, config, &MineControl::new(), &NoopObserver).expect("engine succeeds")
}

/// A small random matrix plus mining parameters (mirrors the strategy in
/// `properties.rs`).
fn matrix_strategy() -> impl Strategy<Value = (ExpressionMatrix, MiningParams)> {
    (2usize..=8, 3usize..=8).prop_flat_map(|(n_genes, n_conds)| {
        let values = prop::collection::vec(-20.0f64..20.0, n_genes * n_conds);
        let gamma = 0.0f64..0.5;
        let eps = 0.0f64..1.0;
        (Just(n_genes), Just(n_conds), values, gamma, eps).prop_map(
            |(n_genes, n_conds, values, gamma, eps)| {
                let m = ExpressionMatrix::from_flat_unlabeled(n_genes, n_conds, values)
                    .expect("generated values are finite");
                let params = MiningParams::new(2, 2, gamma, eps).expect("valid params");
                (m, params)
            },
        )
    })
}

/// The Table 1 running example of the paper.
fn running_example() -> (ExpressionMatrix, MiningParams) {
    let m = ExpressionMatrix::from_rows(
        vec!["g1".into(), "g2".into(), "g3".into()],
        (1..=10).map(|i| format!("c{i}")).collect(),
        vec![
            vec![10.0, -14.5, 15.0, 10.5, 0.0, 14.5, -15.0, 0.0, -5.0, -5.0],
            vec![20.0, 15.0, 15.0, 43.5, 30.0, 44.0, 45.0, 43.0, 35.0, 20.0],
            vec![6.0, -3.8, 8.0, 6.2, 2.0, 7.8, -4.0, 2.0, 0.0, 0.0],
        ],
    )
    .unwrap();
    let params = MiningParams::new(3, 5, 0.15, 0.1).unwrap();
    (m, params)
}

proptest! {
    /// Engine output at every thread count is bit-identical to the
    /// 1-thread run, with and without a cluster cap, under both split
    /// strategies.
    #[test]
    fn engine_matches_one_thread_across_thread_counts(
        (m, params) in matrix_strategy(),
        cap in prop_oneof![Just(None), (1usize..4).prop_map(Some)],
    ) {
        let params = match cap {
            Some(c) => params.clone().with_max_clusters(c),
            None => params,
        };
        let one = mine(&m, &params).expect("1-thread mining succeeds");
        for threads in [1usize, 2, 4, 8] {
            let config = EngineConfig::new(threads);
            let (clusters, report) = collect_all(&m, &params, &config);
            prop_assert!(!report.truncated);
            prop_assert_eq!(&clusters, &one, "threads = {}", threads);

            let static_cfg = config.clone().with_split(SplitStrategy::StaticRoots);
            let (clusters, _) = collect_all(&m, &params, &static_cfg);
            prop_assert_eq!(&clusters, &one, "static roots, threads = {}", threads);
        }
    }

    /// The merged per-worker statistics equal the 1-thread totals at every
    /// thread count: first-arrival duplicate pruning keeps the event
    /// multiset invariant (DESIGN.md §7.6).
    #[test]
    fn engine_stats_match_one_thread((m, params) in matrix_strategy()) {
        let (_, one) = collect_all(&m, &params, &EngineConfig::new(1));
        for threads in [2usize, 4, 8] {
            let (_, report) = collect_all(&m, &params, &EngineConfig::new(threads));
            prop_assert_eq!(&report.stats, &one.stats, "threads = {}", threads);
        }
    }

    /// Streaming to a [`VecSink`] delivers exactly the pre-finalize cluster
    /// set: the finalized engine output is a subset, and every streamed
    /// cluster is distinct.
    #[test]
    fn sink_streams_the_full_cluster_set((m, params) in matrix_strategy()) {
        let sink = VecSink::new();
        let report = stream(
            &m,
            &params,
            &EngineConfig::new(4),
            &MineControl::new(),
            &NoopObserver,
            &sink,
        )
        .expect("streaming succeeds");
        prop_assert!(!report.truncated);
        prop_assert!(!report.stopped_by_sink);
        let mut streamed = sink.into_clusters();
        streamed.sort_by(|a, b| {
            (&a.chain, &a.p_members, &a.n_members).cmp(&(&b.chain, &b.p_members, &b.n_members))
        });
        let before = streamed.len();
        streamed.dedup();
        prop_assert_eq!(before, streamed.len(), "sink received duplicates");

        let finalized = mine(&m, &params).expect("1-thread mining succeeds");
        for c in &finalized {
            prop_assert!(streamed.contains(c), "finalized cluster missing from stream");
        }
    }
}

#[test]
fn engine_finds_running_example_on_every_thread_count() {
    let (m, params) = running_example();
    for threads in [1usize, 2, 4, 8] {
        let (clusters, _) = collect_all(&m, &params, &EngineConfig::new(threads));
        assert_eq!(clusters.len(), 1, "threads = {threads}");
        let c = &clusters[0];
        assert_eq!(c.chain, vec![6, 8, 4, 0, 2]);
        assert_eq!(c.p_members, vec![0, 2]);
        assert_eq!(c.n_members, vec![1]);
    }
}

/// An observer that panics as soon as any cluster is emitted.
struct PanickingObserver;

impl SyncMineObserver for PanickingObserver {
    fn cluster_emitted(&self, _cluster: &RegCluster) {
        panic!("observer exploded");
    }
}

#[test]
fn panicking_observer_surfaces_as_worker_panic_error() {
    let (m, params) = running_example();
    for threads in [1usize, 4] {
        let err = collect(
            &m,
            &params,
            &EngineConfig::new(threads),
            &MineControl::new(),
            &PanickingObserver,
        )
        .expect_err("worker panic must surface as an error");
        match err {
            CoreError::WorkerPanic(msg) => {
                assert!(msg.contains("observer exploded"), "{msg}")
            }
            other => panic!("expected WorkerPanic, got {other:?}"),
        }
    }
}

#[test]
fn zero_deadline_reports_truncation_without_panicking() {
    let (m, params) = running_example();
    let control = MineControl::with_deadline(Duration::ZERO);
    for threads in [1usize, 4] {
        let (clusters, report) = collect(
            &m,
            &params,
            &EngineConfig::new(threads),
            &control,
            &NoopObserver,
        )
        .expect("an expired deadline is not an engine error");
        assert!(report.truncated, "threads = {threads}");
        assert!(clusters.is_empty(), "threads = {threads}");
    }
}

#[test]
fn cancelled_control_stops_the_run() {
    let (m, params) = running_example();
    let control = MineControl::new();
    control.cancel();
    let (clusters, report) =
        collect(&m, &params, &EngineConfig::new(2), &control, &NoopObserver).unwrap();
    assert!(report.truncated);
    assert!(clusters.is_empty());
}

#[test]
fn capped_sink_stops_mining_cooperatively() {
    let (m, params) = running_example();
    // Cap below the (single) emitted cluster count: one accepted cluster and
    // the engine must stop by sink, not by exhaustion.
    let sink = CappedSink::new(1);
    let report = stream(
        &m,
        &params,
        &EngineConfig::new(2),
        &MineControl::new(),
        &NoopObserver,
        &sink,
    )
    .unwrap();
    assert!(report.stopped_by_sink);
    assert_eq!(sink.into_clusters().len(), 1);
}

#[test]
fn streaming_sink_delivers_clusters_through_a_channel() {
    let (m, params) = running_example();
    let (sink, rx) = StreamingSink::channel(16);
    let report = std::thread::scope(|scope| {
        let consumer = scope.spawn(move || rx.into_iter().collect::<Vec<_>>());
        let report = stream(
            &m,
            &params,
            &EngineConfig::new(2),
            &MineControl::new(),
            &NoopObserver,
            &sink,
        )
        .unwrap();
        drop(sink);
        let received = consumer.join().unwrap();
        assert_eq!(received.len(), 1);
        assert_eq!(received[0].chain, vec![6, 8, 4, 0, 2]);
        report
    });
    assert!(!report.truncated);
    assert!(!report.stopped_by_sink);
}

#[test]
fn cancellation_interrupts_a_send_blocked_on_a_stalled_receiver() {
    let (m, params) = running_example();
    let control = MineControl::new();
    // Capacity 0 and a receiver that never drains: the emitting worker
    // blocks inside the sink until the cancellation poll notices the stop.
    // Without `with_control`, this test would hang forever.
    let (sink, rx) = StreamingSink::channel(0);
    let sink = sink.with_control(control.clone());
    let report = std::thread::scope(|scope| {
        let canceller = control.clone();
        scope.spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            canceller.cancel();
        });
        stream(
            &m,
            &params,
            &EngineConfig::new(2),
            &control,
            &NoopObserver,
            &sink,
        )
        .unwrap()
    });
    drop(rx);
    assert!(
        report.truncated,
        "a blocked send must surface as truncation"
    );
    assert!(!report.stopped_by_sink, "cancellation is not a sink stop");
}

/// A stats observer shared by all workers, counting through atomics — the
/// user-facing `SyncMineObserver` path, as opposed to the engine's internal
/// per-worker accumulators.
#[derive(Default)]
struct AtomicCounts {
    nodes: AtomicUsize,
    emitted: AtomicUsize,
    pruned: AtomicUsize,
}

impl SyncMineObserver for AtomicCounts {
    fn node_entered(&self, _chain: &[usize], _n_p: usize, _n_n: usize) {
        self.nodes.fetch_add(1, Ordering::Relaxed);
    }
    fn pruned(&self, _chain: &[usize], rule: regcluster_core::PruneRule) {
        // MiningStats deliberately carries no MinConds field (serialized
        // shape stability); skip it so the totals below stay comparable.
        if rule != regcluster_core::PruneRule::MinConds {
            self.pruned.fetch_add(1, Ordering::Relaxed);
        }
    }
    fn cluster_emitted(&self, _cluster: &RegCluster) {
        self.emitted.fetch_add(1, Ordering::Relaxed);
    }
}

#[test]
fn user_observer_sees_the_same_event_totals_as_the_report() {
    let (m, params) = running_example();
    let counts = AtomicCounts::default();
    let (_, report) = collect(
        &m,
        &params,
        &EngineConfig::new(4),
        &MineControl::new(),
        &counts,
    )
    .unwrap();
    assert_eq!(counts.nodes.load(Ordering::Relaxed), report.stats.nodes);
    assert_eq!(counts.emitted.load(Ordering::Relaxed), report.stats.emitted);
    assert_eq!(
        counts.pruned.load(Ordering::Relaxed),
        report.stats.pruned_min_genes
            + report.stats.pruned_few_p
            + report.stats.pruned_duplicate
            + report.stats.pruned_coherence
    );
}
