//! Query mining: "which co-regulation patterns involve *my* gene?"
//!
//! The typical biologist's entry point is one gene of interest, not the
//! whole matrix. Mine once, keep the clusters that contain the gene, then
//! let the optional post-processing merge redundant chain variants so the
//! answer reads as a handful of distinct patterns.
//!
//! Run with `cargo run --release --example query_gene`.

use regcluster::core::postprocess::deduplicate_by_genes;
use regcluster::core::{mine, MiningParams};
use regcluster::datagen::{generate, PatternKind, SyntheticConfig};

fn main() {
    let cfg = SyntheticConfig {
        n_genes: 800,
        n_conds: 20,
        n_clusters: 6,
        avg_cluster_dims: 6,
        cluster_gene_frac: 0.03,
        neg_fraction: 0.3,
        plant_gamma: 0.15,
        pattern: PatternKind::ShiftScale,
        value_max: 10.0,
        noise_sigma: 0.0,
        seed: 555,
    };
    let data = generate(&cfg).expect("feasible");

    // Pick a planted gene as the "gene of interest".
    let gene = data.planted[2].genes[0];
    println!(
        "dataset: {} genes × {} conditions; querying clusters containing {}",
        cfg.n_genes,
        cfg.n_conds,
        data.matrix.gene_name(gene)
    );

    let min_g = data.planted.iter().map(|p| p.n_genes()).min().unwrap();
    let min_c = data.planted.iter().map(|p| p.n_conditions()).min().unwrap();
    let params = MiningParams::new(min_g, min_c, 0.1, 0.01).expect("valid");

    let all = mine(&data.matrix, &params).expect("valid");
    let queried: Vec<_> = all
        .into_iter()
        .filter(|c| c.genes().binary_search(&gene).is_ok())
        .collect();

    // Collapse chain variants over the same gene sets.
    let distinct = deduplicate_by_genes(&queried);
    println!(
        "\n{} clusters contain the gene ({} distinct gene-set patterns):",
        queried.len(),
        distinct.len()
    );
    for c in &distinct {
        let role = if c.p_members.contains(&gene) {
            "p-member"
        } else {
            "n-member"
        };
        println!(
            "  chain {} — {} genes ({} positive, {} negative), query gene is a {role}",
            c.regulation_chain()
                .display_with(data.matrix.condition_names()),
            c.n_genes(),
            c.p_members.len(),
            c.n_members.len(),
        );
    }
}
