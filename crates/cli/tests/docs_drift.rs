//! Doc-drift guard for the observability catalogue: every metric family
//! the workspace can register, every phase label, and every prune-rule
//! label must be documented in `docs/OBSERVABILITY.md`. Mirrors the
//! USAGE-drift test in `args.rs` — add a metric, grow the doc.

use regcluster_cli::serve::ServeMetrics;
use regcluster_core::observer::PruneRule;
use regcluster_core::MetricsObserver;
use regcluster_engines::EngineMetrics;
use regcluster_obs::{MetricsRegistry, PhaseSpans, PHASES};

fn repo_doc(rel: &str) -> String {
    let path = format!("{}/../../{rel}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{rel} must exist: {e}"))
}

fn observability_doc() -> String {
    repo_doc("docs/OBSERVABILITY.md")
}

#[test]
fn every_registered_metric_is_documented() {
    // Register every instrument the workspace exposes, from all four
    // layers, into one registry — metric_names() is then the ground truth.
    let registry = MetricsRegistry::new();
    let _ = MetricsObserver::register(&registry);
    let _ = PhaseSpans::new(&registry);
    let _ = ServeMetrics::register(&registry);
    let _ = EngineMetrics::register(&registry, "reg-cluster");
    let _ = regcluster_cluster::ClusterMetrics::register(&registry);
    let _ = regcluster_cluster::WorkerMetrics::register(&registry);
    regcluster_failpoint::register_metrics(&registry);

    let doc = observability_doc();
    let names = registry.metric_names();
    assert!(names.len() >= 10, "expected the full catalogue: {names:?}");
    for name in &names {
        assert!(
            doc.contains(name.as_str()),
            "metric `{name}` is not documented in docs/OBSERVABILITY.md"
        );
    }
}

#[test]
fn every_phase_and_prune_rule_label_is_documented() {
    let doc = observability_doc();
    for phase in PHASES {
        assert!(
            doc.contains(&format!("`{phase}`")),
            "phase label `{phase}` is not documented in docs/OBSERVABILITY.md"
        );
    }
    for rule in PruneRule::ALL {
        let label = rule.as_label();
        assert!(
            doc.contains(&format!("`{label}`")),
            "prune-rule label `{label}` is not documented in docs/OBSERVABILITY.md"
        );
    }
}

#[test]
fn every_engine_name_is_documented() {
    // The engine catalogue must stay in sync across the registry, the
    // metrics doc (label values) and the user guide (how to run one).
    let obs = observability_doc();
    let guide = repo_doc("docs/GUIDE.md");
    for name in regcluster_engines::ENGINE_NAMES {
        assert!(
            obs.contains(&format!("`{name}`")),
            "engine `{name}` is not listed in docs/OBSERVABILITY.md"
        );
        assert!(
            guide.contains(name),
            "engine `{name}` is not mentioned in docs/GUIDE.md"
        );
    }
}

#[test]
fn doc_is_linked_from_user_facing_pages() {
    for page in ["README.md", "docs/GUIDE.md"] {
        let text = repo_doc(page);
        assert!(
            text.contains("OBSERVABILITY.md"),
            "{page} must link to the observability catalogue"
        );
        assert!(
            text.contains("ROBUSTNESS.md"),
            "{page} must link to the robustness guide"
        );
    }
}

#[test]
fn generations_and_delta_mining_are_documented() {
    // DESIGN.md §13 owns the lifecycle/swap protocol, GUIDE.md the
    // operator recipe, OBSERVABILITY.md the swap metric. Renaming a flag
    // or metric without updating the trio is drift.
    let design = repo_doc("DESIGN.md");
    assert!(
        design.contains("## 13. Generations and delta mining"),
        "DESIGN.md must keep the generations/delta section"
    );
    for needle in [
        "root_fingerprints",
        "classify_roots",
        "`CURRENT`",
        "store::current_publish",
        regcluster_cli::serve::STORE_SWAPS_METRIC,
    ] {
        assert!(
            design.contains(needle),
            "DESIGN.md §13 must mention {needle}"
        );
    }

    let guide = repo_doc("docs/GUIDE.md");
    for needle in ["--delta-from", "--watch", "generation"] {
        assert!(
            guide.contains(needle),
            "docs/GUIDE.md live re-mining recipe must mention {needle}"
        );
    }

    // The swap counter registers lazily (per-generation label cells), so
    // the registry sweep above can't see it — pin it here explicitly.
    let obs = observability_doc();
    assert!(
        obs.contains(regcluster_cli::serve::STORE_SWAPS_METRIC),
        "swap metric must be in docs/OBSERVABILITY.md"
    );
    assert!(
        obs.contains("`generation`"),
        "the generation label must be documented"
    );
}

#[test]
fn distributed_cluster_is_documented() {
    // DESIGN.md §14 owns the lease/merge protocol, GUIDE.md §10 the
    // operator quickstart, OBSERVABILITY.md the coordinator's control
    // plane — renaming a subcommand, flag or endpoint without updating
    // the trio is drift.
    let design = repo_doc("DESIGN.md");
    assert!(
        design.contains("## 14. Distributed mining cluster"),
        "DESIGN.md must keep the distributed-cluster section"
    );
    for needle in [
        "partition_roots",
        "merge_shards",
        "validate_shard",
        "/lease/acquire",
        "/lease/renew",
        "`--linger`",
        "byte-identical",
    ] {
        assert!(
            design.contains(needle),
            "DESIGN.md §14 must mention {needle}"
        );
    }

    let guide = repo_doc("docs/GUIDE.md");
    for needle in [
        "regcluster coordinator",
        "regcluster worker",
        "--lease-ttl-ms",
        "--work-dir",
        "cluster_harness",
    ] {
        assert!(
            guide.contains(needle),
            "docs/GUIDE.md cluster quickstart must mention {needle}"
        );
    }

    // The watch-error counter is in the ServeMetrics sweep above, but
    // its operator story (absence vs failure) lives next to the swap
    // metric — pin the name so a rename can't strand the prose.
    let obs = observability_doc();
    assert!(
        obs.contains(regcluster_cli::serve::STORE_WATCH_ERRORS_METRIC),
        "watch-error metric must be in docs/OBSERVABILITY.md"
    );
}

#[test]
fn performance_hot_path_is_documented() {
    // docs/PERFORMANCE.md owns the hot-path cost model and the perf
    // harness contract, DESIGN.md §15 the layout rationale. Renaming a
    // harness mode, env var or the committed baseline without updating
    // the pair is drift.
    let perf = repo_doc("docs/PERFORMANCE.md");
    for needle in [
        "BENCH_hotpath.json",
        "--quick",
        "--check",
        "--check-baseline",
        "REGCLUSTER_PERF_THRESHOLD",
        "REGCLUSTER_BENCH_BASELINE",
        "scripts/perf.sh",
        "BitMask",
        "HotTables",
        "ns/node",
        "ns_per_node",
        "perf smoke",
        "tests/alloc.rs",
    ] {
        assert!(
            perf.contains(needle),
            "docs/PERFORMANCE.md must mention {needle}"
        );
    }

    let design = repo_doc("DESIGN.md");
    assert!(
        design.contains("## 15. Memory layout of the enumeration hot path"),
        "DESIGN.md must keep the hot-path memory-layout section"
    );
    for needle in [
        "`BitMask`",
        "`HotTables`",
        "or_range_masked",
        "counting-sort",
        "docs/PERFORMANCE.md",
    ] {
        assert!(
            design.contains(needle),
            "DESIGN.md §15 must mention {needle}"
        );
    }

    // The perf page must be reachable from the user-facing entry points,
    // and the harness recipe must live in the guide.
    for page in ["README.md", "docs/GUIDE.md"] {
        let text = repo_doc(page);
        assert!(
            text.contains("PERFORMANCE.md"),
            "{page} must link to the performance guide"
        );
    }
    let guide = repo_doc("docs/GUIDE.md");
    for needle in ["hotpath", "ns/node", "scripts/perf.sh"] {
        assert!(
            guide.contains(needle),
            "docs/GUIDE.md perf recipe must mention {needle}"
        );
    }
}

#[test]
fn every_failpoint_site_is_documented_in_robustness_md() {
    // The robustness guide carries the failpoint catalogue; arming a
    // site that isn't documented there (or documenting one that no
    // longer exists) is drift.
    let doc = repo_doc("docs/ROBUSTNESS.md");
    for site in regcluster_failpoint::SITES {
        assert!(
            doc.contains(&format!("`{site}`")),
            "failpoint site `{site}` is not documented in docs/ROBUSTNESS.md"
        );
    }
    assert!(
        doc.contains(regcluster_failpoint::FIRED_METRIC),
        "ROBUSTNESS.md must name the fired-fault metric"
    );
    assert!(
        doc.contains(regcluster_failpoint::ENV_VAR),
        "ROBUSTNESS.md must document the FAILPOINTS env var"
    );
}

#[test]
fn no_doc_names_a_deleted_entry_point() {
    // Core has one mining driver with four entry points (`mine` and the
    // three `mine_prepared_*` functions). The sequential recursion, its
    // workspace and observer trait, the collect-mode engine wrappers and
    // the `baseline` CLI alias are gone; a doc naming one sends readers
    // to an API that does not exist. CHANGES.md and ROADMAP.md are
    // history and may name them.
    const DELETED: [&str; 16] = [
        "mine_with_observer",
        "mine_containing",
        "mine_parallel",
        "mine_engine",
        "mine_engine_with",
        "mine_engine_checkpointed",
        "mine_to_sink",
        "mine_prepared_to_sink_checkpointed",
        "mine_all",
        "mine_all_with",
        "mine_root",
        "run_roots",
        "MineReport",
        "MineWorkspace",
        "MineObserver",
        "into_result",
    ];
    let is_ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
    let mut pages = vec![
        "README.md".to_string(),
        "DESIGN.md".to_string(),
        "EXPERIMENTS.md".to_string(),
        "CONTRIBUTING.md".to_string(),
    ];
    let docs_dir = format!("{}/../../docs", env!("CARGO_MANIFEST_DIR"));
    for entry in std::fs::read_dir(&docs_dir).expect("docs/ exists") {
        let name = entry.unwrap().file_name().into_string().unwrap();
        if name.ends_with(".md") {
            pages.push(format!("docs/{name}"));
        }
    }
    for page in &pages {
        let text = repo_doc(page);
        for name in DELETED {
            // Whole identifiers only: `SyncMineObserver` and the
            // `mine_parallel_3000` bench group are not deleted names.
            let hit = text.match_indices(name).any(|(at, _)| {
                let before = text[..at].chars().next_back();
                let after = text[at + name.len()..].chars().next();
                !before.is_some_and(is_ident) && !after.is_some_and(is_ident)
            });
            assert!(!hit, "{page} names the deleted entry point `{name}`");
        }
        assert!(
            !text.contains("regcluster baseline") && !text.contains("`baseline` subcommand"),
            "{page} names the removed `baseline` CLI alias"
        );
    }
}
