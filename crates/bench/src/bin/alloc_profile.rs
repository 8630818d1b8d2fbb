//! Allocation profile of the mining hot path: allocations-per-node and
//! ns-per-node for the running example and seeded synthetic workloads.
//!
//! A counting global allocator tallies every allocation in the process, so
//! runs are 1-thread engine runs taken back-to-back and the per-workload
//! delta is attributed to the mining call between the samples. The warm
//! runs reuse the buffers the [`Miner`] kept from the cold run, which is
//! what the steady-state row reports.
//!
//! ```sh
//! cargo run --release -p regcluster-bench --bin alloc_profile
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use regcluster_core::{
    mine_prepared_to_sink, EngineConfig, MineControl, Miner, MiningParams, NoopObserver, VecSink,
};
use regcluster_datagen::{generate, running_example, PatternKind, SyntheticConfig};
use regcluster_matrix::ExpressionMatrix;

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn snapshot() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    )
}

fn profile(label: &str, matrix: &ExpressionMatrix, params: &MiningParams) {
    let miner = Miner::new(matrix, params).expect("valid params");
    let config = EngineConfig::new(1);
    let control = MineControl::new();
    let run = || {
        let sink = VecSink::new();
        let (a0, b0) = snapshot();
        let t = Instant::now();
        let report = mine_prepared_to_sink(&miner, &config, &control, &NoopObserver, &sink)
            .expect("mining succeeds");
        let elapsed = t.elapsed();
        let (a1, b1) = snapshot();
        (report.stats, a1 - a0, b1 - b0, elapsed)
    };

    // Cold run: the miner's buffers grow from empty.
    let (stats, cold_allocs, cold_bytes, cold_t) = run();
    let nodes = stats.nodes.max(1) as f64;
    // Warm runs: the buffers are at their high-water marks — the
    // allocator's steady state. Remaining allocations are per-emission
    // only. Timing is the best of five runs to shrug off scheduler noise;
    // the allocation counts are deterministic across warm runs.
    let mut warm_allocs = u64::MAX;
    let mut warm_bytes = u64::MAX;
    let mut warm_t = std::time::Duration::MAX;
    for _ in 0..5 {
        let (_, a, b, t) = run();
        warm_allocs = warm_allocs.min(a);
        warm_bytes = warm_bytes.min(b);
        warm_t = warm_t.min(t);
    }

    println!("workload: {label}");
    println!("  nodes = {}, clusters = {}", stats.nodes, stats.emitted);
    println!(
        "  cold: {:.3} allocs/node, {:.1} bytes/node, {:.0} ns/node ({} allocs total)",
        cold_allocs as f64 / nodes,
        cold_bytes as f64 / nodes,
        cold_t.as_nanos() as f64 / nodes,
        cold_allocs
    );
    println!(
        "  warm: {:.3} allocs/node, {:.1} bytes/node, {:.0} ns/node ({} allocs total)",
        warm_allocs as f64 / nodes,
        warm_bytes as f64 / nodes,
        warm_t.as_nanos() as f64 / nodes,
        warm_allocs
    );
}

fn main() {
    let m = running_example();
    let params = MiningParams::new(3, 5, 0.15, 0.1).expect("valid");
    profile("running_example (3x10)", &m, &params);

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
    let data = generate(&cfg).expect("feasible");
    let params = MiningParams::new(4, 4, 0.1, 0.05).expect("valid");
    profile("synthetic 100x30 (seed 7)", &data.matrix, &params);

    let cfg = SyntheticConfig {
        n_genes: 1500,
        ..SyntheticConfig::default()
    };
    let data = generate(&cfg).expect("feasible");
    let params = MiningParams::new(15, 6, 0.1, 0.01).expect("valid");
    profile("synthetic 1500x30 (paper defaults)", &data.matrix, &params);
}
