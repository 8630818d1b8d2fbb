//! Workload inputs: the generated matrices, the mining parameters, and
//! the serve request mix, all derived from the run's `--seed`.
//!
//! Each workload's matrix is one fixed generator instance (`gen_seed`)
//! whose genes and conditions are permuted by the run's seed. Different
//! seeds therefore give different files, store bytes and enumeration
//! orders, but the same planted structure and the same amount of work:
//! fresh generator seeds move `mine_wide` between about 3.8 and 8.4 s
//! (1102 to 1517 clusters), which no useful regression bound survives.

use regcluster_core::MiningParams;
use regcluster_datagen::{generate, SyntheticConfig};
use regcluster_matrix::ExpressionMatrix;
use regcluster_store::{ClusterStore, Query};

/// A small deterministic generator (SplitMix64) for permutations and the
/// request mix.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5EED_BE4C_4D1A_7E11)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }
}

/// Generator settings of a workload's matrix.
#[derive(Debug, Clone, Copy)]
pub struct InputSpec {
    pub genes: usize,
    pub conds: usize,
    pub clusters: usize,
    pub avg_cluster_dims: usize,
    pub gene_frac: f64,
    pub gen_seed: u64,
}

/// Mining parameters and engine threads of a workload.
#[derive(Debug, Clone, Copy)]
pub struct MineSpec {
    pub min_genes: usize,
    pub min_conds: usize,
    pub gamma: f64,
    pub epsilon: f64,
    pub threads: usize,
}

impl MineSpec {
    pub fn params(&self) -> MiningParams {
        MiningParams::new(self.min_genes, self.min_conds, self.gamma, self.epsilon)
            .expect("workload parameters are valid")
    }

    /// The `--min-genes … --epsilon …` flags every command takes.
    pub fn flags(&self) -> Vec<String> {
        [
            ("--min-genes", self.min_genes.to_string()),
            ("--min-conds", self.min_conds.to_string()),
            ("--gamma", self.gamma.to_string()),
            ("--epsilon", self.epsilon.to_string()),
        ]
        .into_iter()
        .flat_map(|(k, v)| [k.to_string(), v])
        .collect()
    }
}

/// The paper's Figure 7 shape pushed to 60 conditions.
pub const DEEP_INPUT: InputSpec = InputSpec {
    genes: 3000,
    conds: 60,
    clusters: 30,
    avg_cluster_dims: 6,
    gene_frac: 0.01,
    gen_seed: 42,
};
/// Figure 7's parameters, one engine thread.
pub const DEEP_MINE: MineSpec = MineSpec {
    min_genes: 30,
    min_conds: 6,
    gamma: 0.1,
    epsilon: 0.01,
    threads: 1,
};
/// Yeast-like shape: many genes, few conditions.
pub const WIDE_INPUT: InputSpec = InputSpec {
    genes: 50_000,
    conds: 10,
    clusters: 100,
    avg_cluster_dims: 6,
    gene_frac: 0.003,
    gen_seed: 42,
};
pub const WIDE_MINE: MineSpec = MineSpec {
    min_genes: 75,
    min_conds: 5,
    gamma: 0.1,
    epsilon: 0.05,
    threads: 2,
};
/// The `store_bench` "dense" store: low thresholds, thousands of clusters.
pub const DENSE_INPUT: InputSpec = InputSpec {
    genes: 1000,
    conds: 30,
    clusters: 10,
    avg_cluster_dims: 8,
    gene_frac: 0.03,
    gen_seed: 42,
};
pub const DENSE_MINE: MineSpec = MineSpec {
    min_genes: 4,
    min_conds: 4,
    gamma: 0.1,
    epsilon: 0.05,
    threads: 2,
};

/// The matrix of `spec`, with genes and conditions permuted by `seed`.
pub fn make_matrix(spec: &InputSpec, seed: u64) -> ExpressionMatrix {
    let base = generate(&SyntheticConfig {
        n_genes: spec.genes,
        n_conds: spec.conds,
        n_clusters: spec.clusters,
        avg_cluster_dims: spec.avg_cluster_dims,
        cluster_gene_frac: spec.gene_frac,
        seed: spec.gen_seed,
        ..SyntheticConfig::default()
    })
    .expect("workload generator settings are feasible")
    .matrix;
    let mut rng = Rng::new(seed);
    let mut rows: Vec<usize> = (0..base.n_genes()).collect();
    let mut cols: Vec<usize> = (0..base.n_conditions()).collect();
    rng.shuffle(&mut rows);
    rng.shuffle(&mut cols);
    let genes = rows
        .iter()
        .map(|&g| base.gene_name(g).to_string())
        .collect();
    let conds = cols
        .iter()
        .map(|&c| base.condition_name(c).to_string())
        .collect();
    let mut values = Vec::with_capacity(rows.len() * cols.len());
    for &g in &rows {
        let row = base.row(g);
        values.extend(cols.iter().map(|&c| row[c]));
    }
    ExpressionMatrix::from_flat(genes, conds, values).expect("a permutation stays valid")
}

/// The four request kinds of the serve mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `/clusters?gene=G` — 55 %.
    Gene,
    /// `/clusters?gene=G&cond=C&min_genes=..&min_conds=..` — 25 %.
    Conj,
    /// `/clusters/{id}` — 10 %.
    Cluster,
    /// `/clusters?top=10` — 10 %.
    TopK,
}

impl Kind {
    pub const ALL: [Kind; 4] = [Kind::Gene, Kind::Conj, Kind::Cluster, Kind::TopK];

    /// Share of the mix, in percent.
    pub fn share(self) -> usize {
        match self {
            Kind::Gene => 55,
            Kind::Conj => 25,
            Kind::Cluster => 10,
            Kind::TopK => 10,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::Gene => "gene",
            Kind::Conj => "conj",
            Kind::Cluster => "cluster",
            Kind::TopK => "topk",
        }
    }
}

/// One request of the mix and what a correct answer holds.
pub struct Request {
    pub kind: Kind,
    pub path: String,
    /// The store-side query (`None` for `/clusters/{id}`).
    pub query: Option<Query>,
    /// For `/clusters/{id}`: the id.
    pub id: u32,
    /// Ids `ClusterStore::query` returns for `query`; for `/clusters/{id}`
    /// the cluster's p-members.
    pub expect: Vec<u32>,
}

/// `n` requests in the mix's proportions, shuffled by `seed`. Genes and
/// conditions are drawn from stored clusters, so most queries match.
pub fn request_mix(store: &ClusterStore, n: usize, seed: u64) -> Vec<Request> {
    let mut rng = Rng::new(seed.wrapping_add(1));
    let mut kinds: Vec<Kind> = Kind::ALL
        .iter()
        .flat_map(|&k| std::iter::repeat_n(k, n * k.share() / 100))
        .collect();
    rng.shuffle(&mut kinds);
    let n_clusters = store.n_clusters() as usize;
    let floor_g = store.params().min_genes as u32;
    let floor_c = store.params().min_conds as u32;
    kinds
        .into_iter()
        .map(|kind| {
            let id = rng.below(n_clusters) as u32;
            let c = store.cluster(id).expect("id in range");
            let mut members: Vec<usize> = c.p_members.iter().chain(&c.n_members).copied().collect();
            members.sort_unstable();
            let gene = members[rng.below(members.len())] as u32;
            let cond = c.chain[rng.below(c.chain.len())] as u32;
            let gene_name = &store.gene_names()[gene as usize];
            let (path, query) = match kind {
                Kind::Gene => (
                    format!("/clusters?gene={gene_name}"),
                    Some(Query::new().with_gene(gene)),
                ),
                Kind::Conj => {
                    let (mg, mc) = (floor_g + rng.below(3) as u32, floor_c + rng.below(2) as u32);
                    (
                        format!(
                            "/clusters?gene={gene_name}&cond={}&min_genes={mg}&min_conds={mc}",
                            store.cond_names()[cond as usize]
                        ),
                        Some(
                            Query::new()
                                .with_gene(gene)
                                .with_cond(cond)
                                .with_min_genes(mg)
                                .with_min_conds(mc),
                        ),
                    )
                }
                Kind::Cluster => (format!("/clusters/{id}"), None),
                Kind::TopK => (
                    "/clusters?top=10".to_string(),
                    Some(Query::new().with_top_k(10)),
                ),
            };
            let expect = match &query {
                Some(q) => store
                    .query(q)
                    .expect("ids from the store's own dictionaries"),
                None => c.p_members.iter().map(|&g| g as u32).collect(),
            };
            Request {
                kind,
                path,
                query,
                id,
                expect,
            }
        })
        .collect()
}

/// The numbers of a JSON array field `"key":[...]` (first occurrence).
pub fn json_u32_array(body: &[u8], key: &str) -> Option<Vec<u32>> {
    let text = std::str::from_utf8(body).ok()?;
    let at = text.find(&format!("\"{key}\":"))? + key.len() + 3;
    let rest = text[at..].trim_start().strip_prefix('[')?;
    let inner = &rest[..rest.find(']')?];
    inner
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(|s| s.parse().ok())
        .collect()
}

/// Whether `body` is a correct answer to `req`.
pub fn answer_ok(req: &Request, body: &[u8]) -> bool {
    match req.kind {
        Kind::Cluster => {
            json_u32_array(body, "p_members").as_deref() == Some(&req.expect[..])
                && std::str::from_utf8(body)
                    .is_ok_and(|t| t.starts_with(&format!("{{\"id\":{},", req.id)))
        }
        _ => json_u32_array(body, "ids").as_deref() == Some(&req.expect[..]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permutation_keeps_every_row_and_is_seeded() {
        let spec = InputSpec {
            genes: 60,
            conds: 8,
            clusters: 2,
            avg_cluster_dims: 4,
            gene_frac: 0.1,
            gen_seed: 7,
        };
        let a = make_matrix(&spec, 1);
        let b = make_matrix(&spec, 1);
        let c = make_matrix(&spec, 2);
        assert_eq!(a.flat_values(), b.flat_values());
        assert_ne!(a.gene_names(), c.gene_names());
        for g in 0..a.n_genes() {
            let name = a.gene_name(g);
            let h = c.gene_index(name).unwrap();
            for k in 0..a.n_conditions() {
                let cond = a.condition_name(k);
                let k2 = c.condition_index(cond).unwrap();
                assert_eq!(a.value(g, k), c.value(h, k2));
            }
        }
    }

    #[test]
    fn json_array_scan() {
        let body = br#"{"total":3,"ids":[4, 9,12],"clusters":[{"id":4,"ids":[1]}]}"#;
        assert_eq!(json_u32_array(body, "ids"), Some(vec![4, 9, 12]));
        assert_eq!(json_u32_array(br#"{"ids":[]}"#, "ids"), Some(vec![]));
        assert_eq!(json_u32_array(br#"{"x":1}"#, "ids"), None);
    }
}
