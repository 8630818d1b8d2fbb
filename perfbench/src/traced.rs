//! The traced run: the same input, fed through each layer's public
//! functions from here, with a span around every call. The release binary
//! still runs the untraced operations (`mine`, `serve`, the cluster) in
//! the same run, so every per-layer number sits beside the end-to-end
//! number it should explain.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

use regcluster_core::{
    finalize_clusters, matrix_fingerprint, mine_prepared_roots_to_sink, mine_prepared_to_sink,
    partition_roots, range_roots, root_fingerprints, EngineConfig, MineControl, Miner,
    MiningParams, NoopObserver, RegCluster, StreamReport, VecSink,
};
use regcluster_eval::overlap::overlap_stats;
use regcluster_matrix::io::read_matrix_file;
use regcluster_matrix::ExpressionMatrix;
use regcluster_store::{merge_shards, ClusterStore, StoreProvenance, StoreWriter};

use crate::inputs::{self, InputSpec, Kind, MineSpec};
use crate::load;
use crate::report::{int, num, obj, Report};
use crate::stats::{median, percentile};
use crate::trace::{self_seconds_by_name, total_seconds_by_name, Tracer};
use crate::workloads::{
    check_of, cluster_once, fresh_dir, mine_series, start_server, write_input, Ctx, CONNECTIONS,
    LEASES, MIX_SIZE,
};

/// The layer spans of one `mine`, in pipeline order.
pub const MINE_LAYERS: [&str; 8] = [
    "matrix.read",
    "core.index_build",
    "core.fingerprint",
    "core.enumerate",
    "core.postprocess",
    "store.write",
    "store.seal",
    "eval.overlap",
];

/// The provenance `mine --store` and a cluster worker stamp into a store.
fn provenance(m: &ExpressionMatrix, miner: &Miner<'_>, params: &MiningParams) -> StoreProvenance {
    StoreProvenance {
        engine: Some("reg-cluster".to_string()),
        engine_params: Some(serde_json::to_string(params).expect("params serialize")),
        generation: 0,
        matrix_fingerprint: Some(matrix_fingerprint(m)),
        root_fingerprints: Some(root_fingerprints(miner)),
    }
}

fn enumerate(miner: &Miner<'_>, threads: usize) -> (Vec<RegCluster>, StreamReport) {
    let sink = VecSink::new();
    let report = mine_prepared_to_sink(
        miner,
        &EngineConfig::new(threads),
        &MineControl::new(),
        &NoopObserver,
        &sink,
    )
    .expect("enumeration succeeds");
    (sink.into_clusters(), report)
}

fn secs(map: &BTreeMap<String, f64>, name: &str) -> f64 {
    map.get(name).copied().unwrap_or(0.0)
}

pub fn run_traced(
    ctx: &Ctx,
    workload: &str,
    input: &InputSpec,
    mine: &MineSpec,
    spans_out: &Path,
) -> Report {
    let mut rep = Report::default();
    let tracer = Tracer::new(format!("{workload}-seed{}", ctx.seed));
    let params = mine.params();
    let tsv = write_input(ctx, input);

    // Untraced reference: the binary's mine of the same input.
    let series = mine_series(ctx, &tsv, mine, 1);
    rep.tally.add(series.tally);
    let mine_s = median(&series.walls_s).unwrap_or(0.0);
    let Some(reference) = series.store else {
        rep.gate("binary_mine_succeeds", false, "regcluster mine failed");
        return rep;
    };
    let store_path = ctx.work.join("mine-gens").join("gen-0.rcs");

    // The mine pipeline, layer by layer.
    let traced_store = ctx.work.join("traced.rcs");
    let _ = std::fs::remove_file(&traced_store);
    let root = tracer.enter("mine");
    let m = tracer
        .span("matrix.read", || read_matrix_file(&tsv))
        .expect("input reads");
    let miner = tracer
        .span("core.index_build", || Miner::new(&m, &params))
        .expect("valid params");
    let prov = tracer.span("core.fingerprint", || provenance(&m, &miner, &params));
    let (mut clusters, report) = tracer.span("core.enumerate", || enumerate(&miner, mine.threads));
    tracer.span("core.postprocess", || {
        finalize_clusters(&mut clusters, &params)
    });
    let writer = tracer.span("store.write", || {
        let w = StoreWriter::create_with_provenance(
            &traced_store,
            m.gene_names(),
            m.condition_names(),
            &params,
            &prov,
        )?;
        clusters
            .iter()
            .try_for_each(|c| w.write_cluster(c))
            .map(|()| w)
    });
    let sealed = tracer.span("store.seal", || writer.and_then(StoreWriter::finish));
    let overlap = tracer.span("eval.overlap", || overlap_stats(&clusters));
    tracer.exit(root);
    let same = sealed.is_ok() && std::fs::read(&traced_store).is_ok_and(|b| b == reference);
    rep.tally.record(same);
    rep.gate(
        "traced_pipeline_store_equals_binary_store",
        same,
        "layer-by-layer store vs `mine --store`",
    );

    // The other thread count, for the parallel efficiency.
    let other = if mine.threads == 1 { 2 } else { 1 };
    tracer.span("core.enumerate_alt", || enumerate(&miner, other));
    let spans = tracer.spans();
    let t_main = secs(&total_seconds_by_name(&spans), "core.enumerate");
    let t_alt = secs(&total_seconds_by_name(&spans), "core.enumerate_alt");
    let (t1, t2) = if mine.threads == 1 {
        (t_main, t_alt)
    } else {
        (t_alt, t_main)
    };

    // Store layer: open + the serve mix as direct ClusterStore calls.
    let store = tracer
        .span("store.open", || ClusterStore::open(&store_path))
        .expect("store opens");
    let mix = inputs::request_mix(&store, MIX_SIZE, ctx.seed);
    let mut direct_us: BTreeMap<&str, f64> = BTreeMap::new();
    for kind in Kind::ALL {
        let mut times = Vec::new();
        tracer.span(&format!("store.query_{}", kind.name()), || {
            for r in mix.iter().filter(|r| r.kind == kind) {
                let t = Instant::now();
                let ok = match &r.query {
                    Some(q) => store.query(q).is_ok_and(|ids| ids == r.expect),
                    None => store.cluster(r.id).is_ok(),
                };
                times.push(t.elapsed().as_secs_f64() * 1e6);
                rep.tally.record(ok);
            }
        });
        direct_us.insert(kind.name(), median(&times).unwrap_or(0.0));
    }

    // HTTP layer: the same mix against `regcluster serve`, closed loop.
    let mut client_us: BTreeMap<&str, f64> = BTreeMap::new();
    let mut shed = 0.0;
    match start_server(ctx, &store_path, 2) {
        Some(server) => {
            let paths: Vec<String> = mix.iter().map(|r| r.path.clone()).collect();
            let check = check_of(&mix);
            let dur = Duration::from_secs_f64((ctx.seconds / 2.0).min(3.0));
            let (samples, _) = load::closed_loop(&server.addr, &paths, dur, CONNECTIONS, &check);
            shed = load::get(&server.addr, "/metrics")
                .ok()
                .and_then(|r| {
                    load::scrape(
                        &String::from_utf8_lossy(&r.body),
                        "regcluster_http_requests_shed_total",
                    )
                })
                .unwrap_or(0.0);
            server.proc.stop();
            for kind in Kind::ALL {
                let lat: Vec<f64> = samples
                    .iter()
                    .filter(|x| mix[x.request % mix.len()].kind == kind)
                    .map(|x| x.latency_ms * 1e3)
                    .collect();
                client_us.insert(kind.name(), percentile(&lat, 50.0).map_or(0.0, |p| p.value));
            }
            let bad = samples.iter().filter(|x| !x.ok).count();
            for x in &samples {
                rep.tally.record(x.ok);
            }
            rep.gate(
                "responses_match_store_query",
                bad == 0,
                format!("{bad} of {} wrong or failed", samples.len()),
            );
        }
        None => rep.gate("server_started", false, "serve never answered /health"),
    }
    let http_overhead_us: f64 = Kind::ALL
        .iter()
        .map(|k| {
            let client = client_us.get(k.name()).copied().unwrap_or(0.0);
            k.share() as f64 / 100.0 * (client - direct_us[k.name()])
        })
        .sum();

    // Cluster layer: every lease range mined directly, then merged.
    let shard_dir = fresh_dir(&ctx.work.join("shards"));
    let ranges = partition_roots(m.n_conditions(), LEASES);
    let mut shards = Vec::new();
    for (i, &(start, end)) in ranges.iter().enumerate() {
        let shard = shard_dir.join(format!("shard-{i}.rcs"));
        let ok = tracer.span("cluster.lease_mine", || {
            let prov = provenance(&m, &miner, &params);
            let w = StoreWriter::create_with_provenance(
                &shard,
                m.gene_names(),
                m.condition_names(),
                &params,
                &prov,
            )?;
            mine_prepared_roots_to_sink(
                &miner,
                &range_roots(start, end),
                &EngineConfig::new(1),
                &MineControl::new(),
                &NoopObserver,
                &w,
            )
            .map_err(|e| regcluster_store::StoreError::Format(e.to_string()))?;
            w.finish()
        });
        rep.tally.record(ok.is_ok());
        shards.push(shard);
    }
    let merged = shard_dir.join("merged.rcs");
    let merged_ok = tracer
        .span("cluster.merge", || merge_shards(&shards, &merged))
        .is_ok()
        && std::fs::read(&merged).is_ok_and(|b| b == reference);
    rep.tally.record(merged_ok);
    rep.gate(
        "merged_lease_shards_equal_binary_store",
        merged_ok,
        format!("{} shards via merge_shards", shards.len()),
    );

    // The real cluster, for the publish time and the control-plane counters.
    let run = cluster_once(ctx, &tsv, mine, &ctx.work.join("cluster"));
    rep.tally.record(run.ok);
    let publish_ok = run.store.as_ref() == Some(&reference);
    rep.gate(
        "published_equals_single_node_store",
        publish_ok,
        run.note.clone(),
    );
    let publish_s = run.publish_s.unwrap_or(0.0);

    let spans = tracer.spans();
    if let Err(e) = tracer.write_jsonl(spans_out) {
        eprintln!("perfbench: cannot write {}: {e}", spans_out.display());
    }
    let selfs = self_seconds_by_name(&spans);
    let totals = total_seconds_by_name(&spans);
    let lease_times: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "cluster.lease_mine")
        .map(|s| s.duration_ns() as f64 / 1e9)
        .collect();
    let lease_sum: f64 = lease_times.iter().sum();
    let lease_max = lease_times.iter().copied().fold(0.0, f64::max);
    let merge_s = secs(&totals, "cluster.merge");
    let layer_sum: f64 = MINE_LAYERS.iter().map(|l| secs(&selfs, l)).sum();
    let traced_mine_s = secs(&totals, "mine");
    let stats = report.stats;
    let nodes = stats.nodes as f64;
    let enumerate_s = secs(&selfs, "core.enumerate");
    let unattributed = mine_s - layer_sum;
    let overhead = publish_s - lease_sum / 2.0 - merge_s;

    // The layer numbers must be explainable by the end-to-end ones.
    let consistent =
        layer_sum <= 1.5 * mine_s && lease_sum / 2.0 + merge_s <= 1.5 * publish_s.max(1e-9);
    rep.gate(
        "layers_fit_end_to_end",
        consistent,
        format!("layers {layer_sum:.3}s vs mine_s {mine_s:.3}s; leases/2+merge {:.3}s vs publish {publish_s:.3}s", lease_sum / 2.0 + merge_s),
    );

    let mut put = |name: &str, value: f64, unit: &'static str| rep.metric(name, value, unit, "");
    put("matrix.read_s", secs(&selfs, "matrix.read"), "s");
    put("core.index_build_s", secs(&selfs, "core.index_build"), "s");
    put("core.fingerprint_s", secs(&selfs, "core.fingerprint"), "s");
    put("core.enumerate_s", enumerate_s, "s");
    put("core.nodes", nodes, "count");
    put("core.ns_per_node", enumerate_s * 1e9 / nodes.max(1.0), "ns");
    put(
        "core.emitted_per_node",
        stats.emitted as f64 / nodes.max(1.0),
        "ratio",
    );
    put(
        "core.pruned_coherence",
        stats.pruned_coherence as f64,
        "count",
    );
    put(
        "core.pruned_min_genes",
        stats.pruned_min_genes as f64,
        "count",
    );
    put("core.parallel_eff", t1 / (2.0 * t2.max(1e-12)), "ratio");
    put("core.postprocess_s", secs(&selfs, "core.postprocess"), "s");
    put("store.write_s", secs(&selfs, "store.write"), "s");
    put("store.seal_s", secs(&selfs, "store.seal"), "s");
    put("eval.overlap_s", secs(&selfs, "eval.overlap"), "s");
    put(
        "eval.overlap_pairs",
        (overlap.n_clusters * overlap.n_clusters.saturating_sub(1)) as f64,
        "count",
    );
    put("cli.unattributed_s", unattributed, "s");
    put("store.open_s", secs(&selfs, "store.open"), "s");
    put("store.query_gene_us", direct_us["gene"], "us");
    put("store.query_conj_us", direct_us["conj"], "us");
    put("store.query_topk_us", direct_us["topk"], "us");
    put("store.cluster_us", direct_us["cluster"], "us");
    put("serve.http_overhead_us", http_overhead_us, "us");
    put("serve.shed", shed, "count");
    put("cluster.lease_mine_max_s", lease_max, "s");
    put("cluster.lease_mine_sum_s", lease_sum, "s");
    put("cluster.merge_s", merge_s, "s");
    put("cluster.renews", run.renews.unwrap_or(0.0), "count");
    put(
        "cluster.leases_expired",
        run.expired.unwrap_or(0.0),
        "count",
    );
    put("cluster.overhead_s", overhead, "s");
    put("trace.mine_untraced_s", mine_s, "s");
    put("trace.mine_traced_s", traced_mine_s, "s");
    put("trace.cluster_untraced_s", publish_s, "s");
    put("trace.cluster_traced_s", lease_sum + merge_s, "s");

    let share = |x: f64, whole: f64| num(if whole > 0.0 { x / whole } else { 0.0 });
    let mut shares: Vec<(&str, serde::Value)> = MINE_LAYERS
        .iter()
        .map(|&l| (l, share(secs(&selfs, l), mine_s)))
        .collect();
    shares.push(("cli.unattributed", share(unattributed, mine_s)));
    rep.detail("mine_layer_shares", obj(shares));
    rep.detail(
        "cluster_shares",
        obj(vec![
            (
                "cluster.lease_mine_sum/2",
                share(lease_sum / 2.0, publish_s),
            ),
            ("cluster.merge", share(merge_s, publish_s)),
            ("cluster.overhead", share(overhead, publish_s)),
        ]),
    );
    rep.detail(
        "counts",
        obj(vec![
            ("core.nodes", int(stats.nodes as u64)),
            ("clusters", int(clusters.len() as u64)),
            ("mine_samples", int(series.walls_s.len() as u64)),
        ]),
    );
    rep.detail(
        "per_kind_us",
        obj(Kind::ALL
            .iter()
            .map(|k| {
                (
                    k.name(),
                    obj(vec![
                        ("direct", num(direct_us[k.name()])),
                        (
                            "client_p50",
                            client_us
                                .get(k.name())
                                .map_or(serde::Value::Null, |&x| num(x)),
                        ),
                    ]),
                )
            })
            .collect()),
    );
    rep
}
