//! Concurrent users of one store path must not break each other: every
//! writer streams to scratch of its own, so two writers of one path both
//! finish, and a reader opening the path mid-write leaves the write alone.

use std::path::{Path, PathBuf};
use std::sync::Barrier;

use regcluster_core::{mine, CheckpointSink, MiningParams, RegCluster};
use regcluster_datagen::running_example;
use regcluster_store::{read_checkpoint, CheckpointFile, ClusterStore, StoreError, StoreWriter};

fn test_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "regcluster-concurrent-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The running example's clusters under two parameter settings, so two
/// writers of one path write distinguishable stores.
fn cluster_sets() -> [(MiningParams, Vec<RegCluster>); 2] {
    let m = running_example();
    [
        MiningParams::new(3, 5, 0.15, 0.1).unwrap(),
        MiningParams::new(2, 3, 0.05, 0.5).unwrap(),
    ]
    .map(|params| {
        let clusters = mine(&m, &params).unwrap();
        (params, clusters)
    })
}

fn create(path: &Path, params: &MiningParams) -> StoreWriter {
    let m = running_example();
    StoreWriter::create(path, m.gene_names(), m.condition_names(), params).unwrap()
}

fn stored(path: &Path) -> Vec<RegCluster> {
    let store = ClusterStore::open(path).unwrap();
    (0..store.n_clusters())
        .map(|id| store.cluster(id).unwrap())
        .collect()
}

fn scratch_files(dir: &Path) -> Vec<String> {
    std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| e.ok()?.file_name().into_string().ok())
        .filter(|name| name.ends_with(".tmp"))
        .collect()
}

#[test]
fn two_concurrent_writers_of_one_path_both_finish() {
    let dir = test_dir("writers");
    let path = dir.join("shared.rcs");
    let sets = cluster_sets();
    assert_ne!(sets[0].1, sets[1].1, "the two stores must differ");
    for _round in 0..20 {
        // Both writers are open (and have streamed every record) before
        // either seals, so their scratch files coexist.
        let barrier = Barrier::new(2);
        let results: Vec<Result<_, StoreError>> = std::thread::scope(|scope| {
            let handles: Vec<_> = sets
                .iter()
                .map(|(params, clusters)| {
                    let (barrier, path) = (&barrier, &path);
                    scope.spawn(move || {
                        let w = create(path, params);
                        for c in clusters {
                            w.write_cluster(c)?;
                        }
                        barrier.wait();
                        w.finish()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for result in results {
            result.expect("each writer finishes");
        }
        // The last rename wins; the destination is one complete store.
        let landed = stored(&path);
        assert!(landed == sets[0].1 || landed == sets[1].1);
        assert_eq!(scratch_files(&dir), Vec::<String>::new());
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_reader_opening_the_path_mid_write_does_not_break_the_write() {
    let dir = test_dir("reader");
    let path = dir.join("live.rcs");
    let [(old_params, old_set), (new_params, new_set)] = cluster_sets();

    // No store yet: the open fails, and the write carries on.
    let w = create(&path, &new_params);
    assert!(matches!(ClusterStore::open(&path), Err(StoreError::Io(_))));
    for c in &new_set {
        w.write_cluster(c).unwrap();
    }
    w.finish().expect("the write survives a failed open");
    assert_eq!(stored(&path), new_set);

    // A complete store in place: readers see it while the rewrite streams,
    // then see the new one once it seals.
    let w = create(&path, &old_params);
    for c in &old_set {
        w.write_cluster(c).unwrap();
        assert_eq!(stored(&path), new_set, "readers see the sealed store");
    }
    w.finish().expect("the write survives concurrent opens");
    assert_eq!(stored(&path), old_set);
    assert_eq!(scratch_files(&dir), Vec::<String>::new());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn concurrent_checkpoint_saves_of_one_path_all_land() {
    use regcluster_core::{
        mine_prepared_roots_to_sink_checkpointed, CheckpointPlan, EngineConfig,
        MemoryCheckpointSink, MineControl, Miner, NoopObserver, VecSink,
    };
    let dir = test_dir("checkpoints");
    let path = dir.join("run.rck");
    // A snapshot to save: a run cancelled before its first node.
    let m = running_example();
    let params = MiningParams::new(3, 5, 0.15, 0.1).unwrap();
    let miner = Miner::new(&m, &params).unwrap();
    let memory = MemoryCheckpointSink::new();
    let control = MineControl::new();
    control.cancel();
    let roots: Vec<usize> = (0..m.n_conditions()).collect();
    mine_prepared_roots_to_sink_checkpointed(
        &miner,
        &roots,
        &EngineConfig::new(1),
        &control,
        &NoopObserver,
        &VecSink::new(),
        CheckpointPlan::new(&memory),
    )
    .unwrap();
    let snapshot = memory.last().expect("a cancelled run checkpoints");

    // Four savers start every round together, so their saves overlap.
    let file = CheckpointFile::new(&path);
    let barrier = Barrier::new(4);
    std::thread::scope(|scope| {
        for _ in 0..4 {
            scope.spawn(|| {
                for _ in 0..10 {
                    barrier.wait();
                    file.save(&snapshot).expect("every save lands");
                }
            });
        }
    });
    assert_eq!(read_checkpoint(&path).unwrap(), snapshot);
    assert_eq!(scratch_files(&dir), Vec::<String>::new());
    std::fs::remove_dir_all(&dir).ok();
}
