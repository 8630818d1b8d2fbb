//! Allocation regression tests for the enumeration core.
//!
//! The engine draws all per-node working memory from buffers its [`Miner`]
//! keeps between runs, so once those buffers have grown to their high-water
//! marks a second 1-thread run on the same miner performs **zero heap
//! allocations per enumeration node** — the only remaining allocations are
//! for the clusters it actually emits. At one thread the calling thread is
//! the only worker, so the thread-local counter below sees every
//! allocation of the run. These tests pin that property down with a
//! counting global allocator:
//!
//! * warmed runs of workloads that emit nothing must allocate **exactly
//!   zero** times, even though they explore hundreds of nodes;
//! * warmed runs of emitting workloads must stay within a small
//!   per-emitted-cluster budget, independent of the node count;
//! * duplicate probes (pruning rule 3(b)) must allocate nothing — the
//!   interned dedup keys are only materialized for fresh clusters.
//!
//! The counter is thread-local, so the parallel test harness does not
//! perturb the counts, and `try_with` keeps the allocator safe during TLS
//! teardown.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use regcluster_core::{
    metrics::MINE_NODES_METRIC, mine_prepared_to_sink, EngineConfig, MetricsObserver, MineControl,
    Miner, MiningParams, MiningStats, NoopObserver, RegulationThreshold, StreamReport,
    SyncMineObserver, VecSink,
};
use regcluster_datagen::{generate, running_example, PatternKind, SyntheticConfig};
use regcluster_matrix::ExpressionMatrix;
use regcluster_obs::MetricsRegistry;

thread_local! {
    /// Number of allocator calls (alloc / realloc / alloc_zeroed) made by
    /// the current thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

// SAFETY: delegates every operation to `System`; the counter update cannot
// allocate (Cell<u64> in a const-initialized thread local) and tolerates
// TLS teardown via `try_with`.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `f` and returns how many allocator calls it made on this thread.
fn count_allocs<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCS.with(Cell::get);
    let result = f();
    (ALLOCS.with(Cell::get) - before, result)
}

/// Upper bound on allocator calls per emitted cluster in a warmed run:
/// the `RegCluster` materialization (chain + member vectors), the interned
/// dedup key (arena + bucket growth) and amortized growth of the output
/// sink. Deliberately tight — a single stray allocation on the per-node
/// path would blow through it on any workload with more nodes than
/// clusters.
const PER_EMISSION_BUDGET: u64 = 16;

/// The seeded 100×30 synthetic workload also used by the golden-output
/// tests: 6 planted shifting-and-scaling clusters, 30% negative members.
fn synthetic_100x30() -> ExpressionMatrix {
    let cfg = SyntheticConfig {
        n_genes: 100,
        n_conds: 30,
        n_clusters: 6,
        avg_cluster_dims: 6,
        cluster_gene_frac: 0.06,
        neg_fraction: 0.3,
        plant_gamma: 0.15,
        pattern: PatternKind::ShiftScale,
        value_max: 10.0,
        noise_sigma: 0.0,
        seed: 7,
    };
    generate(&cfg).expect("config is feasible").matrix
}

/// One 1-thread engine run over every root of `miner`, collecting into a
/// fresh sink. The control is made by the caller: its `Arc` would be the
/// window's one allocation otherwise.
fn run_once(
    miner: &Miner<'_>,
    control: &MineControl,
    observer: &dyn SyncMineObserver,
) -> (StreamReport, VecSink) {
    let sink = VecSink::new();
    let report = mine_prepared_to_sink(miner, &EngineConfig::new(1), control, observer, &sink)
        .expect("engine succeeds");
    (report, sink)
}

/// Warms a fresh [`Miner`] with one full 1-thread run, then measures a
/// second 1-thread run on the same miner. Returns
/// `(allocs, stats_of_measured_run)`.
fn warmed_run(matrix: &ExpressionMatrix, params: &MiningParams) -> (u64, MiningStats) {
    let miner = Miner::new(matrix, params).expect("valid mining input");
    let control = MineControl::new();
    let _ = run_once(&miner, &control, &NoopObserver);
    let (allocs, (report, sink)) = count_allocs(|| run_once(&miner, &control, &NoopObserver));
    drop(sink); // deallocation is free to happen outside the window
    (allocs, report.stats)
}

#[test]
fn warmed_zero_emission_run_allocates_nothing_running_example() {
    // MinC = 6 exceeds the running example's unique 5-condition cluster, so
    // the search explores its full tree but emits nothing.
    let m = running_example();
    let params = MiningParams::new(3, 6, 0.15, 0.1).unwrap();
    let (allocs, stats) = warmed_run(&m, &params);
    assert!(stats.nodes > 0, "workload must explore nodes");
    assert_eq!(stats.emitted, 0, "workload must emit nothing");
    assert_eq!(
        allocs, 0,
        "steady-state enumeration must not allocate ({} nodes explored)",
        stats.nodes
    );
}

#[test]
fn warmed_zero_emission_run_allocates_nothing_synthetic() {
    // MinC = 8 exceeds the deepest chain this workload supports (7
    // conditions), so hundreds of nodes are explored with zero emissions.
    // Much larger MinC values would also starve *exploration* through the
    // per-gene extensibility pruning and defeat the test.
    let m = synthetic_100x30();
    let params = MiningParams::new(4, 8, 0.1, 0.05).unwrap();
    let (allocs, stats) = warmed_run(&m, &params);
    assert!(stats.nodes > 100, "workload must explore many nodes");
    assert_eq!(stats.emitted, 0, "workload must emit nothing");
    assert_eq!(
        allocs, 0,
        "steady-state enumeration must not allocate ({} nodes explored)",
        stats.nodes
    );
}

#[test]
fn warmed_zero_emission_run_with_metrics_observer_allocates_nothing() {
    // The telemetry observer must be free to leave attached in production:
    // its pre-registered counter/histogram handles are plain atomic cells,
    // so recording every node, prune and depth observation adds zero
    // allocations to the steady state.
    let m = synthetic_100x30();
    let params = MiningParams::new(4, 8, 0.1, 0.05).unwrap();
    let miner = Miner::new(&m, &params).expect("valid mining input");
    let registry = MetricsRegistry::new();
    let observer = MetricsObserver::register(&registry);
    let control = MineControl::new();
    let _ = run_once(&miner, &control, &observer);
    let nodes_handle = registry.counter(
        MINE_NODES_METRIC,
        "Enumeration-tree nodes entered (partial representative chains expanded).",
        &[],
    );
    let nodes_before = nodes_handle.get();
    let (allocs, (_, sink)) = count_allocs(|| run_once(&miner, &control, &observer));
    drop(sink);
    let nodes_recorded = nodes_handle.get() - nodes_before;
    assert!(nodes_recorded > 100, "observer must have seen many nodes");
    assert_eq!(
        allocs, 0,
        "instrumented steady-state enumeration must not allocate \
         ({nodes_recorded} nodes recorded)"
    );
}

#[test]
fn warmed_emitting_run_allocates_only_per_cluster_running_example() {
    let m = running_example();
    let params = MiningParams::new(3, 5, 0.15, 0.1).unwrap();
    let (allocs, stats) = warmed_run(&m, &params);
    assert!(stats.emitted > 0, "workload must emit clusters");
    assert!(
        allocs <= PER_EMISSION_BUDGET * stats.emitted as u64,
        "allocations must scale with emissions, not nodes: \
         {allocs} allocs for {} clusters over {} nodes",
        stats.emitted,
        stats.nodes
    );
}

#[test]
fn warmed_emitting_run_allocates_only_per_cluster_synthetic() {
    let m = synthetic_100x30();
    let params = MiningParams::new(4, 4, 0.1, 0.05).unwrap();
    let (allocs, stats) = warmed_run(&m, &params);
    assert!(stats.emitted > 100, "workload must emit many clusters");
    assert!(
        allocs <= PER_EMISSION_BUDGET * stats.emitted as u64,
        "allocations must scale with emissions, not nodes: \
         {allocs} allocs for {} clusters over {} nodes",
        stats.emitted,
        stats.nodes
    );
}

#[test]
fn disabled_failpoints_are_allocation_free() {
    // The fault-injection sites stay compiled into production binaries;
    // their disabled steady state must be a branch on a relaxed atomic
    // load — nothing else. Hammer both evaluation flavors with nothing
    // armed and demand literally zero allocator calls.
    let (allocs, _) = count_allocs(|| {
        for _ in 0..100_000 {
            regcluster_failpoint::trigger("engine::worker");
            regcluster_failpoint::io("store::record_write").expect("disarmed site cannot fire");
            regcluster_failpoint::io("checkpoint::save").expect("disarmed site cannot fire");
        }
    });
    assert_eq!(
        allocs, 0,
        "disabled failpoints must not allocate ({allocs} allocs over 300k evaluations)"
    );
}

#[test]
fn warmed_zero_emission_run_allocates_nothing_with_failpoints_linked() {
    // Same zero-allocation property as above, with the failpoint crate
    // linked and explicitly disarmed — proving the instrumented build
    // keeps the allocation-free enumeration guarantee.
    regcluster_failpoint::clear();
    let m = running_example();
    let params = MiningParams::new(3, 6, 0.15, 0.1).unwrap();
    let (allocs, stats) = warmed_run(&m, &params);
    assert!(stats.nodes > 0, "workload must explore nodes");
    assert_eq!(
        allocs, 0,
        "failpoint-linked steady-state enumeration must not allocate \
         ({} nodes explored)",
        stats.nodes
    );
}

#[test]
fn duplicate_probes_allocate_nothing_beyond_fresh_emissions() {
    // The engineered 4×4 matrix from the miner's duplicate-pruning test:
    // two overlapping ε-windows converge to the identical cluster one chain
    // step later, so pruning rule 3(b) fires. A duplicate probe computes
    // its fingerprint over borrowed scratch data and must allocate nothing;
    // only fresh clusters pay for key interning and materialization.
    let m = ExpressionMatrix::from_flat_unlabeled(
        4,
        4,
        vec![
            0.0, 10.0, 14.0, 44.0, //
            0.0, 10.0, 18.0, 28.0, //
            0.0, 10.0, 18.0, 28.0, //
            0.0, 10.0, 22.0, 26.0,
        ],
    )
    .unwrap();
    let params = MiningParams::new(2, 4, 0.0, 0.4)
        .unwrap()
        .with_threshold(RegulationThreshold::Absolute(2.0))
        .unwrap();
    let (allocs, stats) = warmed_run(&m, &params);
    assert!(
        stats.pruned_duplicate > 0,
        "duplicate pruning must fire: {stats:?}"
    );
    assert!(stats.emitted > 0);
    assert!(
        allocs <= PER_EMISSION_BUDGET * stats.emitted as u64,
        "duplicate probes must not allocate: {allocs} allocs for {} fresh \
         clusters and {} duplicate probes",
        stats.emitted,
        stats.pruned_duplicate
    );
}
