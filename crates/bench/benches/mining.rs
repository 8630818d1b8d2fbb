//! End-to-end mining benchmarks: the paper's running example, a mid-sized
//! synthetic workload, and the thread-scaling ablation of the work-stealing
//! engine against the old static root split.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

use regcluster_core::{
    finalize_clusters, mine, mine_prepared_to_sink, EngineConfig, MineControl, Miner, MiningParams,
    NoopObserver, RegCluster, SplitStrategy, VecSink,
};
use regcluster_datagen::{generate, running_example, SyntheticConfig};
use regcluster_matrix::ExpressionMatrix;

fn bench_running_example(c: &mut Criterion) {
    let m = running_example();
    let params = MiningParams::new(3, 5, 0.15, 0.1).expect("valid");
    c.bench_function("mine_running_example", |b| {
        b.iter(|| black_box(mine(&m, &params).expect("mining succeeds")));
    });
}

fn bench_synthetic(c: &mut Criterion) {
    let mut group = c.benchmark_group("mine_synthetic");
    group.sample_size(10);
    for n_genes in [500usize, 1500, 3000] {
        let cfg = SyntheticConfig {
            n_genes,
            ..SyntheticConfig::default()
        };
        let data = generate(&cfg).expect("feasible");
        let min_g = ((0.01 * n_genes as f64) as usize).max(2);
        let params = MiningParams::new(min_g, 6, 0.1, 0.01).expect("valid");
        group.bench_with_input(BenchmarkId::from_parameter(n_genes), &n_genes, |b, _| {
            b.iter(|| black_box(mine(&data.matrix, &params).expect("mining succeeds")));
        });
    }
    group.finish();
}

/// One collecting run — model build, enumeration at `config`, then
/// finalization — the unit every thread-scaling point times.
fn mine_collect(
    matrix: &ExpressionMatrix,
    params: &MiningParams,
    config: &EngineConfig,
) -> Vec<RegCluster> {
    let miner = Miner::new(matrix, params).expect("valid");
    let sink = VecSink::new();
    mine_prepared_to_sink(&miner, config, &MineControl::new(), &NoopObserver, &sink)
        .expect("mining succeeds");
    let mut clusters = sink.into_clusters();
    finalize_clusters(&mut clusters, params);
    clusters
}

/// Thread-scaling ablation on a Figure-7-scale workload, one benchmark per
/// (split strategy × thread count) point:
///
/// * `stealing/N` — the work-stealing engine, which re-balances subtrees
///   spilled from busy workers at any enumeration depth;
/// * `static/N` — `SplitStrategy::StaticRoots`, distributing only root
///   subtrees, whose speedup is bounded by the largest root subtree.
fn bench_thread_scaling(c: &mut Criterion) {
    let cfg = SyntheticConfig {
        n_genes: 3000,
        ..SyntheticConfig::default()
    };
    let data = generate(&cfg).expect("feasible");
    let params = MiningParams::new(30, 6, 0.1, 0.01).expect("valid");
    let mut group = c.benchmark_group("mine_parallel_3000");
    group.sample_size(10);
    for threads in [1usize, 2, 4, 8] {
        for (label, split) in [
            ("stealing", SplitStrategy::WorkStealing),
            ("static", SplitStrategy::StaticRoots),
        ] {
            let config = EngineConfig::new(threads).with_split(split);
            group.bench_with_input(BenchmarkId::new(label, threads), &config, |b, config| {
                b.iter(|| black_box(mine_collect(&data.matrix, &params, config)));
            });
        }
    }
    // The default engine at 4 threads, kept under its historical name so
    // earlier measurements of this point stay comparable.
    group.bench_function("mine_parallel_facade/4", |b| {
        let config = EngineConfig::new(4);
        b.iter(|| black_box(mine_collect(&data.matrix, &params, &config)));
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_running_example,
    bench_synthetic,
    bench_thread_scaling
);
criterion_main!(benches);
