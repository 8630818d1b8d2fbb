//! Parallel mining with the work-stealing engine: deterministic multi-thread
//! output, a wall-clock deadline, and streaming progress through a
//! thread-safe observer.
//!
//! Mines a mid-sized synthetic dataset on four worker threads, shows that
//! the result is bit-identical to the 1-thread [`mine`], and demonstrates
//! the cancellation path by re-running under an already-expired deadline.
//!
//! Run with `cargo run --release --example parallel_mining`.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use regcluster::core::{
    finalize_clusters, mine, mine_prepared_to_sink, EngineConfig, MineControl, Miner, MiningParams,
    RegCluster, SyncMineObserver, VecSink,
};
use regcluster::datagen::{generate, SyntheticConfig};

/// A shared observer: every worker thread reports through `&self`.
#[derive(Default)]
struct EmissionCounter {
    emitted: AtomicUsize,
}

impl SyncMineObserver for EmissionCounter {
    fn cluster_emitted(&self, _cluster: &RegCluster) {
        self.emitted.fetch_add(1, Ordering::Relaxed);
    }
}

fn main() {
    let data = generate(&SyntheticConfig {
        n_genes: 500,
        ..SyntheticConfig::default()
    })
    .expect("feasible configuration");
    let params = MiningParams::new(5, 6, 0.1, 0.01).expect("valid parameters");
    // The miner holds the per-gene models; every run below reuses it.
    let miner = Miner::new(&data.matrix, &params).expect("valid parameters");
    let config = EngineConfig::new(4);

    // Output is bit-identical at any thread count once finalized, so
    // parallelism is a pure implementation detail. Observers are shared by
    // all workers; per-worker statistics are merged at join.
    let one_thread = mine(&data.matrix, &params).expect("mining succeeds");
    let counter = EmissionCounter::default();
    let sink = VecSink::new();
    let report = mine_prepared_to_sink(&miner, &config, &MineControl::new(), &counter, &sink)
        .expect("engine mining succeeds");
    let mut clusters = sink.into_clusters();
    finalize_clusters(&mut clusters, &params);
    assert_eq!(clusters, one_thread);
    assert_eq!(
        counter.emitted.load(Ordering::Relaxed),
        report.stats.emitted
    );
    println!(
        "4 threads found the same {} reg-clusters as 1 thread \
         ({} enumeration nodes); the shared observer saw all {} emissions",
        clusters.len(),
        report.stats.nodes,
        counter.emitted.load(Ordering::Relaxed)
    );

    // A wall-clock deadline stops the run cooperatively: the report is
    // flagged truncated instead of returning an error, and the sink holds
    // whatever was found before the stop.
    let control = MineControl::with_deadline(Duration::ZERO);
    let sink = VecSink::new();
    let report = mine_prepared_to_sink(&miner, &config, &control, &counter, &sink)
        .expect("an expired deadline is not an engine error");
    assert!(report.truncated);
    println!(
        "expired deadline: truncated partial result with {} clusters",
        sink.into_clusters().len()
    );
}
