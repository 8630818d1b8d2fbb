//! The workloads, run end to end against the release binary with
//! tracing off.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use regcluster_matrix::io::write_matrix_file;
use regcluster_store::ClusterStore;

use crate::inputs::{self, InputSpec, MineSpec, Request};
use crate::load;
use crate::proc::{self, Exit, Running};
use crate::report::{int, num, obj, text, Report};
use crate::stats::{median, percentile, tail, windowed_tail, Tally};

/// Settings shared by every workload of one run.
pub struct Ctx {
    /// The `regcluster` binary under test.
    pub bin: String,
    /// Working directory of this run (inputs, stores, work dirs).
    pub work: PathBuf,
    pub seed: u64,
    pub seconds: f64,
}

/// Longest any single process under test may run before it is killed and
/// counted as failed.
pub const OP_DEADLINE: Duration = Duration::from_secs(60);

/// Setups per run of the workloads whose set-up only writes the input
/// (tens of milliseconds each); `setup_s` is their median.
pub const SETUPS: usize = 25;

/// Setups per `serve_mix` run, whose set-up also mines and starts a server.
pub const SERVE_SETUPS: usize = 3;

/// Open-loop rate of `serve_mix`.
pub const OPEN_LOOP_RATE: f64 = 1000.0;

/// Client threads (= connections) of every load generator.
pub const CONNECTIONS: usize = 2;

/// Distinct requests in the serve mix (cycled).
pub const MIX_SIZE: usize = 2000;

/// Leases the cluster coordinator cuts (the CLI default).
pub const LEASES: usize = 8;

/// The input and mining parameters of a workload.
pub fn spec(workload: &str) -> Option<(InputSpec, MineSpec)> {
    match workload {
        "mine_deep" | "cluster_run" => Some((inputs::DEEP_INPUT, inputs::DEEP_MINE)),
        "mine_wide" => Some((inputs::WIDE_INPUT, inputs::WIDE_MINE)),
        "serve_mix" => Some((inputs::DENSE_INPUT, inputs::DENSE_MINE)),
        _ => None,
    }
}

pub fn fresh_dir(path: &Path) -> PathBuf {
    let _ = std::fs::remove_dir_all(path);
    std::fs::create_dir_all(path).expect("work directory is writable");
    path.to_path_buf()
}

fn s(x: &str) -> String {
    x.to_string()
}

fn path_arg(p: &Path) -> String {
    p.to_string_lossy().into_owned()
}

/// Generates the workload matrix and writes it as TSV; returns the path.
pub fn write_input(ctx: &Ctx, input: &InputSpec) -> PathBuf {
    let tsv = ctx.work.join("input.tsv");
    let m = inputs::make_matrix(input, ctx.seed);
    write_matrix_file(&m, &tsv).expect("input TSV is writable");
    tsv
}

/// Writes the input [`SETUPS`] times; returns its path and the median
/// set-up time.
fn input_setups(ctx: &Ctx, input: &InputSpec) -> (PathBuf, f64) {
    let mut tsv = PathBuf::new();
    let times: Vec<f64> = (0..SETUPS)
        .map(|_| {
            let t = Instant::now();
            tsv = write_input(ctx, input);
            t.elapsed().as_secs_f64()
        })
        .collect();
    (tsv, median(&times).unwrap_or(0.0))
}

/// Whether a measuring loop starts another operation: always until
/// `min_ops` are done, then only while one more (as long as the last)
/// still ends within the run's seconds.
pub fn more(ctx: &Ctx, start: Instant, done: usize, min_ops: usize, last_s: f64) -> bool {
    done < min_ops || start.elapsed().as_secs_f64() + last_s <= ctx.seconds
}

/// The published generation 0 of a generations directory, if `CURRENT`
/// names it.
pub fn published_gen0(gens: &Path) -> Option<Vec<u8>> {
    let current = std::fs::read_to_string(gens.join("CURRENT")).ok()?;
    (current.trim() == "0").then(|| std::fs::read(gens.join("gen-0.rcs")).ok())?
}

/// FNV-1a, to name store contents in the results file.
pub fn digest(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// One `regcluster mine --store <fresh gens dir>`.
pub struct MineRun {
    pub exit: Exit,
    pub store: Option<Vec<u8>>,
}

pub fn mine_once(ctx: &Ctx, tsv: &Path, mine: &MineSpec, gens: &Path) -> MineRun {
    let gens = fresh_dir(gens);
    let mut args = vec![s("mine"), s("--input"), path_arg(tsv)];
    args.extend(mine.flags());
    args.extend([s("--threads"), mine.threads.to_string()]);
    args.extend([s("--store"), path_arg(&gens)]);
    let exit = match Running::spawn(&mut proc::command(&ctx.bin, &args, false)) {
        Ok(r) => r.wait(Instant::now() + OP_DEADLINE),
        Err(e) => panic!("cannot start {}: {e}", ctx.bin),
    };
    let store = exit.ok().then(|| published_gen0(&gens)).flatten();
    MineRun { exit, store }
}

/// Mines of one input, back to back for the run's seconds.
pub struct MineSeries {
    pub walls_s: Vec<f64>,
    pub maxrss_kib: u64,
    pub store: Option<Vec<u8>>,
    pub identical: bool,
    pub tally: Tally,
}

pub fn mine_series(ctx: &Ctx, tsv: &Path, mine: &MineSpec, min_runs: usize) -> MineSeries {
    let start = Instant::now();
    let mut series = MineSeries {
        walls_s: Vec::new(),
        maxrss_kib: 0,
        store: None,
        identical: true,
        tally: Tally::default(),
    };
    let (mut k, mut last) = (0, 0.0);
    while more(ctx, start, k, min_runs, last) {
        let run = mine_once(ctx, tsv, mine, &ctx.work.join("mine-gens"));
        last = run.exit.wall.as_secs_f64();
        series.tally.record(run.store.is_some());
        series.maxrss_kib = series.maxrss_kib.max(run.exit.maxrss_kib);
        if let Some(bytes) = run.store {
            series.walls_s.push(run.exit.wall.as_secs_f64());
            match &series.store {
                None => series.store = Some(bytes),
                Some(first) => series.identical &= *first == bytes,
            }
        }
        k += 1;
    }
    series
}

/// `mine_deep` / `mine_wide`: TSV → sealed, published store, repeated.
pub fn run_mine(ctx: &Ctx, input: &InputSpec, mine: &MineSpec) -> Report {
    let mut rep = Report::default();
    let (tsv, setup_s) = input_setups(ctx, input);
    // At least two mines, so the determinism gate always compares stores.
    let series = mine_series(ctx, &tsv, mine, 2);
    rep.tally = series.tally;
    let n = series.walls_s.len();
    rep.gate(
        "same_input_same_store_bytes",
        series.identical && n >= 2,
        format!("{n} stores from one input compared byte for byte"),
    );
    let store_ok = series
        .store
        .as_ref()
        .is_some_and(|b| ClusterStore::from_bytes(b.clone()).is_ok_and(|s| s.n_clusters() > 0));
    rep.gate(
        "store_opens_with_clusters",
        store_ok,
        "ClusterStore::from_bytes on the published store",
    );
    let mine_s = median(&series.walls_s).unwrap_or(0.0);
    let mine_tail = tail(&series.walls_s, 95.0);
    let store_bytes = series.store.as_ref().map_or(0, Vec::len) as f64;
    let rss_mb = series.maxrss_kib as f64 / 1024.0;
    let total: f64 = series.walls_s.iter().sum();
    let samples = format!("{n} mines");
    rep.metric(
        "setup_s",
        setup_s,
        "s",
        format!("median of {SETUPS} input builds"),
    );
    rep.metric(
        "p50_ms",
        mine_s * 1e3,
        "ms",
        format!("median mine wall time, {samples}"),
    );
    rep.metric(
        "tail_ms",
        mine_tail.map_or(0.0, |t| t.value * 1e3),
        "ms",
        mine_tail.map_or(String::new(), |t| t.describe()),
    );
    rep.metric(
        "throughput_per_s",
        n as f64 / total.max(1e-9),
        "1/s",
        "mines per second, back to back",
    );
    rep.metric("peak_rss_mb", rss_mb, "MiB", "max over mine processes");
    rep.metric("output_bytes", store_bytes, "B", "sealed store size");
    rep.named("setup_s", setup_s, "s", format!("median of {SETUPS}"));
    rep.named("mine_s", mine_s, "s", format!("median of {samples}"));
    rep.named("store_bytes", store_bytes, "B", "");
    rep.named("peak_rss_mb", rss_mb, "MiB", "");
    rep.named(
        "failed_frac",
        rep.tally.failed_frac(),
        "ratio",
        format!("{} attempted", rep.tally.attempted),
    );
    rep.detail(
        "mine_walls_s",
        serde::Value::Array(series.walls_s.iter().map(|&x| num(x)).collect()),
    );
    if let Some(b) = &series.store {
        rep.detail("store_digest", text(digest(b)));
    }
    rep
}

/// A running `regcluster serve` and its address.
pub struct Server {
    pub proc: Running,
    pub addr: String,
}

pub fn start_server(ctx: &Ctx, store: &Path, threads: usize) -> Option<Server> {
    let args = vec![
        s("serve"),
        s("--store"),
        path_arg(store),
        s("--port"),
        s("0"),
        s("--threads"),
        threads.to_string(),
    ];
    let mut running = Running::spawn(&mut proc::command(&ctx.bin, &args, true)).ok()?;
    let port = running.watch_stderr(Duration::from_secs(20), |line| {
        let rest = line.split("http://127.0.0.1:").nth(1)?;
        rest.split('/').next()?.parse::<u16>().ok()
    });
    let Some(port) = port else {
        running.stop();
        return None;
    };
    let addr = format!("127.0.0.1:{port}");
    let deadline = Instant::now() + Duration::from_secs(20);
    while Instant::now() < deadline {
        if load::get(&addr, "/health").is_ok_and(|r| r.status == 200) {
            return Some(Server {
                proc: running,
                addr,
            });
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    running.stop();
    None
}

/// Mines the dense store and starts a server on it: the serve set-up.
fn serve_setup(
    ctx: &Ctx,
    input: &InputSpec,
    mine: &MineSpec,
) -> (Option<Server>, MineRun, PathBuf) {
    let tsv = write_input(ctx, input);
    let gens = ctx.work.join("serve-gens");
    let run = mine_once(ctx, &tsv, mine, &gens);
    let store_path = gens.join("gen-0.rcs");
    let server = run
        .store
        .is_some()
        .then(|| start_server(ctx, &store_path, 2))
        .flatten();
    (server, run, store_path)
}

/// The response check of the serve mix: ids (or the cluster) as
/// `ClusterStore` answers the same query.
pub fn check_of(mix: &[Request]) -> impl Fn(usize, &load::Reply) -> bool + Sync + '_ {
    move |i, reply| inputs::answer_ok(&mix[i], &reply.body)
}

/// `serve_mix`: open loop at a fixed rate, then a closed loop.
pub fn run_serve(ctx: &Ctx, input: &InputSpec, mine: &MineSpec) -> Report {
    let mut rep = Report::default();
    let mut setups = Vec::new();
    let mut stores: Vec<Vec<u8>> = Vec::new();
    let mut live = None;
    for k in 0..SERVE_SETUPS {
        let t = Instant::now();
        let (server, run, store_path) = serve_setup(ctx, input, mine);
        setups.push(t.elapsed().as_secs_f64());
        rep.tally.record(server.is_some());
        stores.extend(run.store);
        match server {
            Some(srv) if k + 1 == SERVE_SETUPS => live = Some((srv, store_path)),
            Some(srv) => {
                srv.proc.stop();
            }
            None => {}
        }
    }
    let identical = stores.len() == SERVE_SETUPS && stores.windows(2).all(|w| w[0] == w[1]);
    rep.gate(
        "same_input_same_store_bytes",
        identical,
        format!("{} stores compared", stores.len()),
    );
    let setup_s = median(&setups).unwrap_or(0.0);
    rep.metric(
        "setup_s",
        setup_s,
        "s",
        format!("median of {SERVE_SETUPS} (input, mine --store, serve start)"),
    );
    let Some((server, store_path)) = live else {
        rep.gate("server_started", false, "serve never answered /health");
        return rep;
    };
    let store = ClusterStore::open(&store_path).expect("published store opens");
    let mix = inputs::request_mix(&store, MIX_SIZE, ctx.seed);
    let paths: Vec<String> = mix.iter().map(|r| r.path.clone()).collect();
    let check = check_of(&mix);
    let half = Duration::from_secs_f64(ctx.seconds / 2.0);

    let open = load::open_loop(
        &server.addr,
        &paths,
        OPEN_LOOP_RATE,
        half,
        CONNECTIONS,
        &check,
    );
    let (closed, closed_wall) = load::closed_loop(&server.addr, &paths, half, CONNECTIONS, &check);
    let shed_scraped = load::get(&server.addr, "/metrics").ok().and_then(|r| {
        load::scrape(
            &String::from_utf8_lossy(&r.body),
            "regcluster_http_requests_shed_total",
        )
    });
    let exit = server.proc.stop();

    for smp in open.iter().chain(&closed) {
        rep.tally.record(smp.ok);
    }
    let wrong = open
        .iter()
        .chain(&closed)
        .filter(|x| !x.ok && !x.shed)
        .count();
    let shed = open.iter().chain(&closed).filter(|x| x.shed).count();
    rep.gate(
        "responses_match_store_query",
        wrong == 0,
        format!(
            "{wrong} of {} responses failed or disagreed with ClusterStore::query",
            open.len() + closed.len()
        ),
    );
    // A failed or refused request misses every latency limit.
    let latencies = |mut samples: Vec<load::Sample>| -> Vec<f64> {
        samples.sort_by_key(|x| x.request);
        samples
            .iter()
            .map(|x| if x.ok { x.latency_ms } else { f64::INFINITY })
            .collect()
    };
    let late: Vec<f64> = open.iter().map(|x| x.late_ms).collect();
    let late99 = tail(&late, 99.0).expect("open loop sent requests");
    let open_lat = latencies(open);
    let open_p50 = percentile(&open_lat, 50.0).map_or(0.0, |p| p.value);
    let open_p99 = tail(&open_lat, 99.0).expect("open loop sent requests");
    let n_closed = closed.len();
    let ok_closed = closed.iter().filter(|x| x.ok).count();
    let closed_lat = latencies(closed);
    let rps = ok_closed as f64 / closed_wall.as_secs_f64();
    let rss_mb = exit.maxrss_kib as f64 / 1024.0;
    let store_bytes = stores.first().map_or(0, Vec::len) as f64;
    // The generic latencies (`p50_ms`, `tail_ms`) come from the closed
    // loop, the steadier of the two. In the open loop at
    // 1000/s the two client threads, the two server threads and other
    // tenants share two CPUs; when the host is busy, queueing multiplies
    // the slowdown (over ten seeds the open-loop p50 spread 0.31 of its
    // median and its tail 0.49). The tail is the median over blocks of
    // 1000 consecutive requests of each block's p95: top-k, a tenth of the
    // mix, sets it, and a stall moves it only when it spans most blocks.
    let blocks: Vec<Vec<f64>> = closed_lat.chunks(1000).map(<[f64]>::to_vec).collect();
    let (block_p95, n_blocks) = windowed_tail(&blocks, 95.0);
    let closed_note = format!("closed loop, {CONNECTIONS} connections, {n_closed} requests");
    rep.metric(
        "p50_ms",
        percentile(&closed_lat, 50.0).map_or(0.0, |p| p.value),
        "ms",
        format!("median, {closed_note}"),
    );
    rep.metric(
        "tail_ms",
        block_p95,
        "ms",
        format!(
            "median over {n_blocks} blocks of 1000 requests of each block's p95, {closed_note}"
        ),
    );
    rep.metric(
        "throughput_per_s",
        rps,
        "1/s",
        format!("{ok_closed} OK, {closed_note}"),
    );
    rep.metric("peak_rss_mb", rss_mb, "MiB", "serve process");
    rep.metric("output_bytes", store_bytes, "B", "served store size");
    let open_note = format!(
        "{} open-loop requests at {OPEN_LOOP_RATE}/s",
        open_lat.len()
    );
    rep.named("setup_s", setup_s, "s", format!("median of {SERVE_SETUPS}"));
    rep.named("query_p50_ms", open_p50, "ms", open_note);
    rep.named("query_p99_ms", open_p99.value, "ms", open_p99.describe());
    rep.named("query_max_rps", rps, "1/s", closed_note);
    rep.named("gen_late_p99_ms", late99.value, "ms", late99.describe());
    rep.named("peak_rss_mb", rss_mb, "MiB", "");
    rep.named(
        "failed_frac",
        rep.tally.failed_frac(),
        "ratio",
        format!("{} attempted", rep.tally.attempted),
    );
    let pcts = |lat: &[f64]| {
        let at = |p: f64| percentile(lat, p).map_or(serde::Value::Null, |q| num(q.value));
        obj(vec![
            ("p50", at(50.0)),
            ("p90", at(90.0)),
            ("p95", at(95.0)),
            ("p99", at(99.0)),
            ("p99.9", at(99.9)),
        ])
    };
    rep.detail("open_loop_ms", pcts(&open_lat));
    rep.detail("closed_loop_ms", pcts(&closed_lat));
    rep.detail(
        "serve",
        obj(vec![
            ("clusters", int(u64::from(store.n_clusters()))),
            ("shed_responses", int(shed as u64)),
            ("shed_scraped", shed_scraped.map_or(serde::Value::Null, num)),
            ("gen_late_p99_ms", num(late99.value)),
        ]),
    );
    rep
}

/// One coordinator + two workers run to a published generation.
pub struct ClusterRun {
    pub ok: bool,
    pub publish_s: Option<f64>,
    pub store: Option<Vec<u8>>,
    pub maxrss_kib: u64,
    pub renews: Option<f64>,
    pub expired: Option<f64>,
    pub note: String,
}

pub fn cluster_once(ctx: &Ctx, tsv: &Path, mine: &MineSpec, dir: &Path) -> ClusterRun {
    let dir = fresh_dir(dir);
    let gens = fresh_dir(&dir.join("gens"));
    let mut args = vec![
        s("coordinator"),
        s("--input"),
        path_arg(tsv),
        s("--store"),
        path_arg(&gens),
        s("--work-dir"),
        path_arg(&dir.join("coord")),
        s("--port"),
        s("0"),
        s("--linger"),
    ];
    args.extend(mine.flags());
    let mut out = ClusterRun {
        ok: false,
        publish_s: None,
        store: None,
        maxrss_kib: 0,
        renews: None,
        expired: None,
        note: String::new(),
    };
    let started = Instant::now();
    let deadline = started + OP_DEADLINE;
    let Ok(mut coord) = Running::spawn(&mut proc::command(&ctx.bin, &args, true)) else {
        out.note = "coordinator did not start".into();
        return out;
    };
    let port = coord.watch_stderr(Duration::from_secs(30), |line| {
        let rest = line.split(" on 127.0.0.1:").nth(1)?;
        rest.split_whitespace().next()?.parse::<u16>().ok()
    });
    let Some(port) = port else {
        let e = coord.stop();
        out.maxrss_kib = e.maxrss_kib;
        out.note = "coordinator never announced its port".into();
        return out;
    };
    let addr = format!("127.0.0.1:{port}");
    let workers: Vec<Running> = (1..=2)
        .filter_map(|w| {
            let args = vec![
                s("worker"),
                s("--input"),
                path_arg(tsv),
                s("--coordinator"),
                addr.clone(),
                s("--work-dir"),
                path_arg(&dir.join(format!("w{w}"))),
                s("--threads"),
                s("1"),
                s("--worker-id"),
                format!("w{w}"),
            ];
            Running::spawn(&mut proc::command(&ctx.bin, &args, false)).ok()
        })
        .collect();
    while Instant::now() < deadline {
        if let Some(bytes) = published_gen0(&gens) {
            out.publish_s = Some(started.elapsed().as_secs_f64());
            out.store = Some(bytes);
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    // Workers exit on their own once every lease is done; one still alive
    // at the deadline is a failure, never waited out.
    let mut workers_ok = workers.len() == 2;
    for w in workers {
        let e = w.wait(deadline);
        out.maxrss_kib = out.maxrss_kib.max(e.maxrss_kib);
        workers_ok &= e.ok();
    }
    if let Ok(r) = load::get(&addr, "/metrics") {
        let text = String::from_utf8_lossy(&r.body);
        out.renews = load::scrape(&text, "regcluster_cluster_lease_renewals_total");
        out.expired = load::scrape(&text, "regcluster_cluster_leases_expired_total");
    }
    let _ = load::request(&addr, "POST", "/shutdown", &[]);
    let e = coord.wait(Instant::now() + Duration::from_secs(15));
    out.maxrss_kib = out.maxrss_kib.max(e.maxrss_kib);
    out.ok = out.store.is_some() && workers_ok && e.ok();
    if !out.ok {
        out.note = format!(
            "published={} workers_ok={workers_ok} coordinator_exit={:?} timed_out={}",
            out.store.is_some(),
            e.code,
            e.timed_out
        );
    }
    out
}

/// `cluster_run`: coordinator + 2 workers on `mine_deep`'s input.
pub fn run_cluster(ctx: &Ctx, input: &InputSpec, mine: &MineSpec) -> Report {
    let mut rep = Report::default();
    let (tsv, setup_s) = input_setups(ctx, input);
    let start = Instant::now();
    let mut publishes = Vec::new();
    let mut stores = Vec::new();
    let mut maxrss = 0;
    let mut notes = Vec::new();
    let mut last = 0.0;
    while more(ctx, start, rep.tally.attempted as usize, 1, last) {
        let t = Instant::now();
        let run = cluster_once(ctx, &tsv, mine, &ctx.work.join("cluster"));
        last = t.elapsed().as_secs_f64();
        rep.tally.record(run.ok);
        maxrss = maxrss.max(run.maxrss_kib);
        if run.ok {
            publishes.extend(run.publish_s);
        } else {
            notes.push(text(run.note));
        }
        stores.extend(run.store);
    }
    // The golden: a single-node mine of the same matrix.
    let golden = mine_once(ctx, &tsv, mine, &ctx.work.join("golden"));
    let matches = golden
        .store
        .as_ref()
        .is_some_and(|g| !stores.is_empty() && stores.iter().all(|s| s == g));
    rep.gate(
        "published_equals_single_node_store",
        matches,
        format!(
            "{} published generations vs `mine --store` of the same input",
            stores.len()
        ),
    );
    let publish_s = median(&publishes).unwrap_or(0.0);
    let publish_tail = tail(&publishes, 95.0);
    let rss_mb = maxrss as f64 / 1024.0;
    let store_bytes = stores.first().map_or(0, Vec::len) as f64;
    let total: f64 = publishes.iter().sum();
    let samples = format!("{} cluster runs", publishes.len());
    rep.metric(
        "setup_s",
        setup_s,
        "s",
        format!("median of {SETUPS} input builds"),
    );
    rep.metric(
        "p50_ms",
        publish_s * 1e3,
        "ms",
        format!("median coordinator start to CURRENT, {samples}"),
    );
    rep.metric(
        "tail_ms",
        publish_tail.map_or(0.0, |t| t.value * 1e3),
        "ms",
        publish_tail.map_or(String::new(), |t| t.describe()),
    );
    rep.metric(
        "throughput_per_s",
        publishes.len() as f64 / total.max(1e-9),
        "1/s",
        "publishes per second",
    );
    rep.metric(
        "peak_rss_mb",
        rss_mb,
        "MiB",
        "max over coordinator and workers",
    );
    rep.metric(
        "output_bytes",
        store_bytes,
        "B",
        "published generation size",
    );
    rep.named("setup_s", setup_s, "s", format!("median of {SETUPS}"));
    rep.named(
        "cluster_publish_s",
        publish_s,
        "s",
        format!("median of {samples}"),
    );
    rep.named(
        "peak_rss_mb",
        rss_mb,
        "MiB",
        "max over coordinator + workers",
    );
    rep.named(
        "failed_frac",
        rep.tally.failed_frac(),
        "ratio",
        format!("{} attempted", rep.tally.attempted),
    );
    rep.detail("cluster_failures", serde::Value::Array(notes));
    rep.detail(
        "publish_s",
        serde::Value::Array(publishes.iter().map(|&x| num(x)).collect()),
    );
    rep
}
