//! Fault-injection drills for the engine: a worker crashing mid-run (via
//! the `engine::worker` failpoint) must surface as
//! [`CoreError::WorkerPanic`] without deadlocking or leaking threads, and a
//! checkpointing run must still flush a final snapshot that covers the
//! panicking node's subtree — proven by resuming it to the full golden
//! result.
//!
//! Failpoint configuration is process-global, so every test here serializes
//! on one lock.

use std::sync::Mutex;

use regcluster_core::{
    finalize_clusters, mine, mine_prepared_roots_to_sink_checkpointed, mine_prepared_to_sink,
    CheckpointPlan, CheckpointReport, CoreError, EngineConfig, MemoryCheckpointSink, MineControl,
    Miner, MiningParams, NoopObserver, RegCluster, StreamReport, SyncMineObserver, VecSink,
};
use regcluster_datagen::running_example;
use regcluster_matrix::ExpressionMatrix;

/// Mines every root at `threads` threads, collected and finalized.
fn mine_threads(
    m: &ExpressionMatrix,
    params: &MiningParams,
    threads: usize,
) -> Result<Vec<RegCluster>, CoreError> {
    let miner = Miner::new(m, params)?;
    let sink = VecSink::new();
    let config = EngineConfig::new(threads);
    mine_prepared_to_sink(&miner, &config, &MineControl::new(), &NoopObserver, &sink)?;
    let mut clusters = sink.into_clusters();
    finalize_clusters(&mut clusters, params);
    Ok(clusters)
}

/// A checkpointed run over every root, collected and finalized.
fn mine_checkpointed(
    matrix: &ExpressionMatrix,
    params: &MiningParams,
    config: &EngineConfig,
    observer: &dyn SyncMineObserver,
    plan: CheckpointPlan<'_>,
) -> Result<(Vec<RegCluster>, StreamReport, CheckpointReport), CoreError> {
    let miner = Miner::new(matrix, params)?;
    let roots: Vec<usize> = (0..matrix.n_conditions()).collect();
    let sink = VecSink::new();
    let control = MineControl::new();
    let (report, ck_report) = mine_prepared_roots_to_sink_checkpointed(
        &miner, &roots, config, &control, observer, &sink, plan,
    )?;
    let mut clusters = sink.into_clusters();
    finalize_clusters(&mut clusters, params);
    Ok((clusters, report, ck_report))
}

/// Failpoint state is process-global; tests arming it take this lock.
static SERIAL: Mutex<()> = Mutex::new(());

#[test]
fn injected_worker_panic_surfaces_as_worker_panic_error() {
    let _guard = SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let matrix = running_example();
    let params = MiningParams::new(3, 5, 0.15, 0.1).unwrap();
    for threads in [1usize, 4] {
        regcluster_failpoint::configure("engine::worker=panic@1").unwrap();
        let err = mine_threads(&matrix, &params, threads)
            .expect_err("an injected worker panic must surface");
        regcluster_failpoint::clear();
        match err {
            CoreError::WorkerPanic(msg) => {
                assert!(msg.contains("injected failpoint panic"), "{msg}");
                assert!(msg.contains("engine::worker"), "{msg}");
            }
            other => panic!("expected WorkerPanic, got {other:?}"),
        }
    }
    // The run shut down cleanly: a fresh un-instrumented run on the same
    // inputs succeeds (no poisoned global state, no stuck threads).
    let clusters = mine_threads(&matrix, &params, 4).unwrap();
    assert_eq!(clusters.len(), 1);
}

#[test]
fn worker_panic_still_flushes_a_resumable_checkpoint() {
    let _guard = SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let matrix = running_example();
    let params = MiningParams::new(3, 5, 0.15, 0.1).unwrap();
    let reference = mine(&matrix, &params).unwrap();
    for threads in [1usize, 2, 4] {
        // Crash a worker a few nodes into the run. The per-node panic
        // containment must restore the consumed node to the frontier, so
        // the final checkpoint loses no subtree.
        regcluster_failpoint::configure("engine::worker=panic@4").unwrap();
        let ck_sink = MemoryCheckpointSink::new();
        let err = mine_checkpointed(
            &matrix,
            &params,
            &EngineConfig::new(threads),
            &NoopObserver,
            CheckpointPlan::new(&ck_sink),
        )
        .expect_err("the injected panic must surface");
        regcluster_failpoint::clear();
        assert!(
            matches!(err, CoreError::WorkerPanic(_)),
            "threads={threads}: expected WorkerPanic, got {err:?}"
        );
        let ck = ck_sink
            .last()
            .expect("a panicking checkpointed run must flush a final snapshot");

        // Resuming the crash checkpoint completes to the bit-identical
        // golden result — nothing under the panicking node was lost.
        let resume_sink = MemoryCheckpointSink::new();
        let (clusters, report, ck_report) = mine_checkpointed(
            &matrix,
            &params,
            &EngineConfig::new(threads),
            &NoopObserver,
            CheckpointPlan::new(&resume_sink).with_resume(ck),
        )
        .expect("resume after crash succeeds");
        assert!(ck_report.resumed);
        assert!(!report.truncated);
        assert_eq!(clusters, reference, "threads = {threads}");
    }
}

#[test]
fn observer_panic_is_contained_per_node_and_checkpointed() {
    let _guard = SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    // A panic from *user* code (the observer) rides the same containment
    // path as the failpoint: WorkerPanic plus a flushed final snapshot.
    struct ExplodingObserver;
    impl SyncMineObserver for ExplodingObserver {
        fn cluster_emitted(&self, _cluster: &RegCluster) {
            panic!("observer exploded");
        }
    }
    let matrix = running_example();
    let params = MiningParams::new(3, 5, 0.15, 0.1).unwrap();
    let ck_sink = MemoryCheckpointSink::new();
    let err = mine_checkpointed(
        &matrix,
        &params,
        &EngineConfig::new(2),
        &ExplodingObserver,
        CheckpointPlan::new(&ck_sink),
    )
    .expect_err("observer panic surfaces");
    match err {
        CoreError::WorkerPanic(msg) => assert!(msg.contains("observer exploded"), "{msg}"),
        other => panic!("expected WorkerPanic, got {other:?}"),
    }
    assert!(ck_sink.last().is_some(), "final snapshot flushed");
}
