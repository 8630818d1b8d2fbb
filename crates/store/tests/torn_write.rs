//! The torn-write property: for **every** instrumented crash site in
//! [`StoreWriter`], killing the writer there leaves the destination path
//! either the previous complete store or the new complete store — never a
//! torn file — and it opens cleanly. Crashes are simulated by arming one
//! failpoint per scenario with an injected I/O error and abandoning the
//! write exactly where a real crash would.
//!
//! Failpoint configuration is process-global, so the whole matrix runs
//! inside one `#[test]` (serially), mirroring the chaos step in
//! `scripts/verify.sh`.

use std::path::Path;
use std::sync::Mutex;

use regcluster_core::{mine, MiningParams, RegCluster};
use regcluster_datagen::running_example;
use regcluster_store::{ClusterStore, Generations, StoreWriter, CURRENT_FILE};

/// Failpoint state is process-global; tests arming it take this lock.
static SERIAL: Mutex<()> = Mutex::new(());

fn write_store(
    path: &Path,
    clusters: &[RegCluster],
    params: &MiningParams,
) -> Result<(), regcluster_store::StoreError> {
    let m = running_example();
    let w = StoreWriter::create(path, m.gene_names(), m.condition_names(), params)?;
    for c in clusters {
        w.write_cluster(c)?;
    }
    w.finish().map(|_| ())
}

/// Scratch files (`*.tmp`) left in `dir`.
fn scratch_files(dir: &Path) -> Vec<String> {
    std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| e.ok()?.file_name().into_string().ok())
        .filter(|name| name.ends_with(".tmp"))
        .collect()
}

fn stored_clusters(path: &Path) -> Vec<RegCluster> {
    let store = ClusterStore::open(path).expect("destination must open cleanly");
    (0..store.n_clusters())
        .map(|id| store.cluster(id).unwrap())
        .collect()
}

#[test]
fn killing_the_writer_at_every_failpoint_leaves_old_or_new_complete_store() {
    let _guard = SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let dir = std::env::temp_dir().join(format!("regcluster-torn-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("victim.rcs");

    let m = running_example();
    // Two distinguishable complete stores: the old generation (the full
    // 3×5 mining result) and a new generation with looser parameters.
    let old_params = MiningParams::new(3, 5, 0.15, 0.1).unwrap();
    let old_set = mine(&m, &old_params).unwrap();
    let new_params = MiningParams::new(2, 3, 0.15, 0.1).unwrap();
    let new_set = mine(&m, &new_params).unwrap();
    assert!(!new_set.is_empty() && new_set != old_set);

    write_store(&path, &old_set, &old_params).unwrap();
    assert_eq!(stored_clusters(&path), old_set);

    // Every instrumented crash site, at every ordinal that can fire
    // during one store write. `store::section_flush` is evaluated once
    // per sealing section (seven of them); the others once per seal, and
    // `store::record_write` once per record.
    let mut scenarios: Vec<String> = Vec::new();
    for n in 1..=new_set.len().min(3) {
        scenarios.push(format!("store::record_write=io_err@{n}"));
    }
    for n in 1..=7 {
        scenarios.push(format!("store::section_flush=io_err@{n}"));
    }
    for site in [
        "store::seal_header",
        "store::fsync_file",
        "store::rename",
        "store::dir_sync",
    ] {
        scenarios.push(format!("{site}=io_err@1"));
    }

    let mut landed_new = 0;
    for scenario in &scenarios {
        regcluster_failpoint::configure(scenario).unwrap();
        let result = write_store(&path, &new_set, &new_params);
        regcluster_failpoint::clear();
        assert!(
            result.is_err(),
            "{scenario}: the injected fault must surface"
        );

        // The property under test: whatever the crash site, the
        // destination opens cleanly and holds exactly one complete
        // generation. Faults before the rename leave the old store;
        // faults at or after it leave the new one.
        let survivors = stored_clusters(&path);
        assert!(
            survivors == old_set || survivors == new_set,
            "{scenario}: destination is neither the old nor the new store"
        );
        assert!(
            ClusterStore::open(&path).is_ok(),
            "{scenario}: destination must stay openable"
        );
        if survivors == new_set {
            landed_new += 1;
            // Reset the destination to the old generation for the next
            // scenario so both outcomes stay distinguishable.
            write_store(&path, &old_set, &old_params).unwrap();
        }
        assert_eq!(
            scratch_files(&dir),
            Vec::<String>::new(),
            "{scenario}: failed writes must not leak scratch files"
        );
    }
    // Exactly the post-commit-point scenario (dir_sync, after the rename)
    // lands the new generation.
    assert_eq!(landed_new, 1, "only the post-rename fault commits");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn torn_publish_keeps_the_old_generation_and_sweeps_the_orphan_later() {
    let _guard = SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    // The generations variant of the torn-write property: a crash at the
    // `CURRENT` commit point leaves the pointer on the old generation
    // with the fully-written new store file orphaned beside it, and the
    // next successful publish sweeps the orphan away.
    let dir = std::env::temp_dir().join(format!("regcluster-torn-publish-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let gens = Generations::open(&dir).unwrap();

    let m = running_example();
    let params = MiningParams::new(3, 5, 0.15, 0.1).unwrap();
    let set = mine(&m, &params).unwrap();
    write_store(&gens.path_for(0), &set, &params).unwrap();
    gens.publish(0).unwrap();
    assert_eq!(gens.current().unwrap(), Some(0));

    // Generation 1 is written completely, but the pointer flip dies at
    // the commit point (just before the rename).
    write_store(&gens.path_for(1), &set, &params).unwrap();
    regcluster_failpoint::configure("store::current_publish=io_err@1").unwrap();
    let result = gens.publish(1);
    regcluster_failpoint::clear();
    assert!(result.is_err(), "the injected fault must surface");

    // Old pointer intact, readable; no pointer scratch leaked; the new
    // generation survives as an orphan (sweep is publish-side only, so
    // nothing has cleaned it yet).
    assert_eq!(gens.current().unwrap(), Some(0));
    assert_eq!(stored_clusters(&gens.path_for(0)), set);
    assert!(
        !scratch_files(&dir)
            .iter()
            .any(|name| name.starts_with(CURRENT_FILE)),
        "failed publish must not leak the pointer scratch file"
    );
    assert!(gens.path_for(1).is_file(), "orphan left for the sweep");

    // Recovery: rewrite and publish generation 1 for real. The publish
    // lands, and its sweep keeps current + predecessor (here: both).
    write_store(&gens.path_for(1), &set, &params).unwrap();
    gens.publish(1).unwrap();
    assert_eq!(gens.current().unwrap(), Some(1));
    assert_eq!(stored_clusters(&gens.path_for(1)), set);
    assert!(gens.path_for(0).is_file(), "predecessor kept for draining");

    // An orphan that stays above the pointer: crash the publish of a
    // speculative generation 3 (current is still 1), then successfully
    // publish 2. The sweep removes the gen-3 orphan — it sits above the
    // new pointer — along with the now-ancient gen-0.
    write_store(&gens.path_for(3), &set, &params).unwrap();
    regcluster_failpoint::configure("store::current_publish=io_err@1").unwrap();
    assert!(gens.publish(3).is_err());
    regcluster_failpoint::clear();
    assert_eq!(gens.current().unwrap(), Some(1));
    write_store(&gens.path_for(2), &set, &params).unwrap();
    gens.publish(2).unwrap();
    assert_eq!(gens.current().unwrap(), Some(2));
    assert!(
        !gens.path_for(3).exists(),
        "orphaned generation above the pointer must be swept"
    );
    assert!(!gens.path_for(0).exists(), "ancient generation swept");
    assert!(gens.path_for(1).is_file(), "predecessor kept for draining");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn poisoned_streaming_writer_keeps_the_destination_intact() {
    let _guard = SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    // An I/O failure during streaming (not sealing) poisons the writer:
    // finish reports it and the destination never changes.
    let dir = std::env::temp_dir().join(format!("regcluster-torn-poison-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("victim.rcs");

    let m = running_example();
    let params = MiningParams::new(3, 5, 0.15, 0.1).unwrap();
    let set = mine(&m, &params).unwrap();
    write_store(&path, &set, &params).unwrap();

    regcluster_failpoint::configure("store::record_write=io_err@1").unwrap();
    let w = StoreWriter::create(&path, m.gene_names(), m.condition_names(), &params).unwrap();
    let first = w.write_cluster(&set[0]);
    regcluster_failpoint::clear();
    assert!(first.is_err());
    // Poisoned: later writes are refused, finish reports the failure.
    assert!(w.write_cluster(&set[0]).is_err());
    assert!(w.finish().is_err());
    assert_eq!(stored_clusters(&path), set, "destination untouched");
    std::fs::remove_dir_all(&dir).ok();
}
