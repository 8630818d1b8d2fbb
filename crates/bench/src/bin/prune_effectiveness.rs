//! Pruning-effectiveness experiment — which of the paper's §4 strategies
//! actually carries the search, measured instead of asserted.
//!
//! A `MetricsObserver` (crates/obs registry instruments) rides along a γ
//! sweep on the simulated yeast benchmark and reports, per run: nodes
//! entered, clusters emitted, and subtrees killed by each pruning rule —
//! the numbers the granular/fuzzy biclustering follow-ups use to justify
//! their heuristics, here for reg-cluster's own five rules. Expected
//! shape: as γ tightens, everything regulates everything, nodes explode,
//! and the MinG/coherence window tests (rules 1 and 4) carry the search.
//! The rule-2 counter stays at zero on this matrix — with thousands of
//! genes, the max-chain tables never starve a whole root below MinG;
//! they work *silently*, shrinking candidate and member sets before the
//! counted rules ever run (the MinC sweep shows the node count
//! collapsing 4 orders of magnitude while `min_conds` never fires).
//! Results: `results/prune_effectiveness.json` + a Prometheus snapshot
//! per run.
//!
//! Run with `--release`; pass `--quick` for a reduced matrix.

use regcluster_bench::{quick_mode, time, write_json, write_text};
use regcluster_core::metrics::{MINE_EMITTED_METRIC, MINE_NODES_METRIC, MINE_PRUNED_METRIC};
use regcluster_core::observer::PruneRule;
use regcluster_core::{
    mine_prepared_to_sink, EngineConfig, MetricsObserver, MineControl, Miner, MiningParams, VecSink,
};
use regcluster_datagen::{yeast_like, YeastConfig};
use regcluster_obs::MetricsRegistry;
use serde::Serialize;

#[derive(Serialize)]
struct Point {
    gamma: f64,
    min_conds: usize,
    nodes: u64,
    emitted: u64,
    pruned: Vec<(String, u64)>,
    runtime_s: f64,
}

fn main() {
    let cfg = if quick_mode() {
        YeastConfig {
            n_genes: 800,
            n_modules: 6,
            ..YeastConfig::default()
        }
    } else {
        YeastConfig::default()
    };
    let data = yeast_like(&cfg).expect("feasible");
    println!(
        "pruning effectiveness on the simulated yeast matrix ({} × {}), ε = 1.0",
        data.matrix.n_genes(),
        data.matrix.n_conditions()
    );

    // Two sweeps: γ at MinC = 6 (the paper's setting) shows the workhorse
    // rules shifting between the index and the window tests; MinC at
    // γ = 0.05 pushes chains toward the 17-condition ceiling, where rule 2
    // starts starving whole roots instead of just trimming members.
    let sweeps: Vec<(f64, usize)> = [0.02, 0.05, 0.09]
        .iter()
        .map(|&g| (g, 6))
        .chain([8, 10, 12].iter().map(|&c| (0.05, c)))
        .collect();
    let mut points = Vec::new();
    println!(
        "\n{:>6} {:>5} {:>10} {:>8} {:>10} {:>10} {:>12} {:>10} {:>10} {:>8}",
        "γ",
        "MinC",
        "nodes",
        "emitted",
        "min_genes",
        "min_conds",
        "few_p_membs",
        "duplicate",
        "coherence",
        "time(s)"
    );
    for &(gamma, min_c) in &sweeps {
        // A fresh registry per run keeps each snapshot a single run's worth.
        let registry = MetricsRegistry::new();
        let observer = MetricsObserver::register(&registry);
        let params = MiningParams::new(20, min_c, gamma, 1.0).expect("valid parameters");
        let (result, secs) = time(|| {
            let miner = Miner::new(&data.matrix, &params)?;
            let config = EngineConfig::new(1);
            let sink = VecSink::new();
            mine_prepared_to_sink(&miner, &config, &MineControl::new(), &observer, &sink)
        });
        let _ = result.expect("mining succeeds");

        let get = |name: &str, help: &str| registry.counter(name, help, &[]).get();
        let nodes = get(
            MINE_NODES_METRIC,
            "Enumeration-tree nodes entered (partial representative chains expanded).",
        );
        let emitted = get(
            MINE_EMITTED_METRIC,
            "Validated reg-clusters emitted by the enumeration.",
        );
        let pruned: Vec<(String, u64)> = PruneRule::ALL
            .iter()
            .map(|rule| {
                let c = registry.counter(
                    MINE_PRUNED_METRIC,
                    "Subtrees cut by each pruning strategy of the paper's section 4.",
                    &[("rule", rule.as_label())],
                );
                (rule.as_label().to_string(), c.get())
            })
            .collect();
        println!(
            "{:>6.2} {:>5} {:>10} {:>8} {:>10} {:>10} {:>12} {:>10} {:>10} {:>8.2}",
            gamma,
            min_c,
            nodes,
            emitted,
            pruned[0].1,
            pruned[1].1,
            pruned[2].1,
            pruned[3].1,
            pruned[4].1,
            secs
        );
        write_text(
            &format!("prune_effectiveness_gamma{gamma}_minc{min_c}.prom"),
            &registry.encode_prometheus(),
        );
        points.push(Point {
            gamma,
            min_conds: min_c,
            nodes,
            emitted,
            pruned,
            runtime_s: secs,
        });
    }

    write_json("prune_effectiveness.json", &points);
    println!(
        "\nsnapshot per run in results/prune_effectiveness_gamma*.prom; \
         triage recipe in docs/OBSERVABILITY.md"
    );
}
