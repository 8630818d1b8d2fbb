//! The cluster coordinator: owns the root partition, leases ranges to
//! workers, collects their shards, merges and publishes.
//!
//! # Lifecycle
//!
//! 1. Load the matrix, fingerprint it, partition `0..n_conditions` into
//!    [`partition_roots`] ranges.
//! 2. Serve the control plane ([`protocol`](crate::protocol)): grant a
//!    lease per range, renew on heartbeat, expire-and-return leases
//!    whose worker has gone silent (the expired range is simply granted
//!    to the next caller — reassignment *is* re-granting).
//! 3. Validate every uploaded shard (readable, same matrix fingerprint,
//!    same params, same generation, roots inside the leased range) and
//!    stage it durably under the work dir.
//! 4. When every range has a shard: [`merge_shards`] into
//!    `gen-<N>.rcs` and [`Generations::publish`] — the merged store is
//!    bit-identical to a single-node run (see `crates/store/src/merge.rs`
//!    for the determinism argument), so replicas hot-swap onto it
//!    exactly as they would a locally-mined generation.
//!
//! # Crash safety
//!
//! Every control-plane transition — job creation, grants, renewals,
//! expiries, staged shards, publication — is appended to a checksummed
//! write-ahead journal (`control.rcj`, [`regcluster_store::Journal`])
//! *before* the in-memory state changes. On restart the coordinator
//! replays the journal, reconciles it against the staged shards on disk
//! (disk wins: a journal `Done` without a valid shard re-opens the
//! slot), restores live leases with a fresh deadline — their workers
//! keep mining and their renews are honored, not fenced — and resumes
//! minting epochs above every epoch the journal ever saw, so a fenced
//! epoch can never be resurrected. A journal whose `JobCreated` identity
//! disagrees with the restarted configuration (different generation,
//! matrix, params, or partition) is stale and replaced. Failpoint sites
//! `cluster::lease_grant`, `cluster::shard_upload`,
//! `cluster::journal_append` and `cluster::publish` let the fault
//! harness kill each transition; `store::merge_seal` covers the merge
//! itself.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use regcluster_core::{matrix_fingerprint, partition_roots, MiningParams};
use regcluster_matrix::io::read_matrix_file;
use regcluster_obs::MetricsRegistry;
use regcluster_store::{
    merge_shards, replace_file, ClusterStore, Generations, Journal, JournalRecord,
};

use crate::error::ClusterError;
use crate::http::{HttpServer, Request, Response, MAX_INFLIGHT};
use crate::metrics::ClusterMetrics;
use crate::protocol::{AcquireRequest, AcquireResponse, JobInfo, RenewRequest, StatusDoc};

/// Engine name stamped into every shard's provenance. Only the default
/// reg-cluster engine supports roots-subset mining today.
pub const CLUSTER_ENGINE: &str = "reg-cluster";

/// How often the main loop sweeps expired leases when nothing wakes it.
const SWEEP_EVERY: Duration = Duration::from_millis(50);

/// Coordinator configuration.
#[derive(Debug, Clone)]
pub struct CoordinatorConfig {
    /// Expression matrix file (workers load the same file and must agree
    /// on its fingerprint).
    pub matrix_path: PathBuf,
    /// Mining parameters; every worker mines under exactly these.
    pub params: MiningParams,
    /// Generations directory the merged store publishes into.
    pub store_dir: PathBuf,
    /// Scratch directory for staged shards (survives restarts).
    pub work_dir: PathBuf,
    /// Control-plane port (0 picks an ephemeral one).
    pub port: u16,
    /// Number of root leases to partition into.
    pub n_leases: usize,
    /// How long a granted lease survives without a heartbeat.
    pub lease_ttl: Duration,
    /// Keep serving `/status` and `/metrics` after publishing instead of
    /// exiting (for long-lived deployments; harnesses kill the process).
    pub linger: bool,
}

/// What a completed coordination run did.
#[derive(Debug, Clone)]
pub struct CoordinatorReport {
    /// Generation published.
    pub generation: u64,
    /// Ranges in the partition.
    pub n_leases: usize,
    /// Clusters in the merged store.
    pub n_clusters: u64,
    /// Leases that expired and were re-granted.
    pub reassignments: u64,
}

#[derive(Debug, Clone)]
enum SlotState {
    Pending,
    Leased {
        worker: String,
        epoch: u64,
        deadline: Instant,
    },
    Done,
}

#[derive(Debug)]
struct Slot {
    start: usize,
    end: usize,
    state: SlotState,
}

/// What wakes the main loop before its next sweep.
struct Wake {
    /// Set by `POST /shutdown`.
    shutdown: bool,
    /// Set by the upload that stages the last shard: time to merge.
    all_staged: bool,
}

struct CoordState {
    slots: Mutex<Vec<Slot>>,
    /// The write-ahead journal. Lock order: `slots` before `journal`.
    journal: Mutex<Journal>,
    next_epoch: AtomicU64,
    phase: Mutex<&'static str>,
    job_json: String,
    params: MiningParams,
    matrix_fp: u64,
    generation: u64,
    work_dir: PathBuf,
    lease_ttl: Duration,
    metrics: ClusterMetrics,
    registry: MetricsRegistry,
    /// The run loop and the linger park wait on this, so shutdown drains
    /// and the merge starts promptly instead of on a timer. Lock order:
    /// `slots` before `wake`.
    wake: (Mutex<Wake>, Condvar),
}

impl CoordState {
    fn shard_path(&self, lease: usize) -> PathBuf {
        self.work_dir.join(format!("shard-{lease}.rcs"))
    }

    /// Appends one journal record, counting it. An `Err` means the
    /// transition must not take effect in memory (write-ahead ordering).
    fn journal_append(&self, rec: &JournalRecord) -> Result<(), regcluster_store::StoreError> {
        self.journal.lock().unwrap().append(rec)?;
        self.metrics.journal_records.inc();
        Ok(())
    }

    /// Sets one [`Wake`] flag and wakes every waiter. The flag is set
    /// under the mutex the waiters check it under, so a wake-up landing
    /// between their check and their wait is not lost.
    fn wake(&self, set: impl FnOnce(&mut Wake)) {
        let (lock, cvar) = &self.wake;
        set(&mut lock.lock().expect("no wake flag update panics"));
        cvar.notify_all();
    }
}

/// Journal file name under the coordinator's work dir.
const JOURNAL_FILE: &str = "control.rcj";

/// Per-slot lease state reconstructed from a journal replay.
enum ReplaySlot {
    Pending,
    Leased { worker: String, epoch: u64 },
    Done,
}

/// Replays journal records into per-slot state (last write wins) and the
/// highest epoch ever minted. `Published` and `JobCreated` carry no slot
/// state; an expiry only clears the grant it fenced.
fn replay_records(records: &[JournalRecord], n_slots: usize) -> (Vec<ReplaySlot>, u64) {
    let mut slots: Vec<ReplaySlot> = (0..n_slots).map(|_| ReplaySlot::Pending).collect();
    let mut max_epoch = 0u64;
    for rec in records {
        match rec {
            JournalRecord::JobCreated { .. } | JournalRecord::Published { .. } => {}
            JournalRecord::LeaseGranted {
                lease,
                epoch,
                worker,
            } => {
                max_epoch = max_epoch.max(*epoch);
                if let Some(s) = slots.get_mut(*lease as usize) {
                    *s = ReplaySlot::Leased {
                        worker: worker.clone(),
                        epoch: *epoch,
                    };
                }
            }
            JournalRecord::LeaseRenewed { epoch, .. } => {
                max_epoch = max_epoch.max(*epoch);
            }
            JournalRecord::LeaseExpired { lease, epoch } => {
                max_epoch = max_epoch.max(*epoch);
                if let Some(s) = slots.get_mut(*lease as usize) {
                    if matches!(s, ReplaySlot::Leased { epoch: e, .. } if e == epoch) {
                        *s = ReplaySlot::Pending;
                    }
                }
            }
            JournalRecord::ShardStaged { lease, epoch } => {
                max_epoch = max_epoch.max(*epoch);
                if let Some(s) = slots.get_mut(*lease as usize) {
                    *s = ReplaySlot::Done;
                }
            }
        }
    }
    (slots, max_epoch)
}

/// Creates a fresh journal at `path` seeded with the run's `JobCreated`
/// identity record.
fn fresh_journal(
    path: &Path,
    identity: &JournalRecord,
    metrics: &ClusterMetrics,
) -> Result<Journal, ClusterError> {
    let mut journal = Journal::create(path)?;
    journal.append(identity)?;
    metrics.journal_records.inc();
    Ok(journal)
}

/// Checks a staged or uploaded shard against the run's identity and the
/// lease's root range. `Ok` means the shard can participate in the merge.
fn validate_shard(
    store: &ClusterStore,
    params: &MiningParams,
    matrix_fp: u64,
    generation: u64,
    start: usize,
    end: usize,
) -> Result<(), String> {
    if store.engine() != Some(CLUSTER_ENGINE) {
        return Err(format!(
            "engine {:?} is not {CLUSTER_ENGINE}",
            store.engine()
        ));
    }
    if store.matrix_fingerprint() != Some(matrix_fp) {
        return Err("matrix fingerprint mismatch".into());
    }
    if store.generation() != generation {
        return Err(format!(
            "shard generation {} != run generation {generation}",
            store.generation()
        ));
    }
    if store.params() != params {
        return Err("params mismatch".into());
    }
    for id in 0..store.n_clusters() {
        let root = store.cluster_root(id).map_err(|e| e.to_string())? as usize;
        if root < start || root >= end {
            return Err(format!(
                "cluster rooted at {root} outside lease [{start}, {end})"
            ));
        }
    }
    Ok(())
}

/// Runs a full coordination round: serve leases, collect shards, merge,
/// publish. Returns after publishing unless `linger` is set (then it
/// serves `/status` + `/metrics` until the process is killed).
///
/// # Errors
///
/// [`ClusterError`] for an unreadable matrix, invalid params, store
/// failures during merge/publish, or a port that cannot be bound.
pub fn run_coordinator(cfg: &CoordinatorConfig) -> Result<CoordinatorReport, ClusterError> {
    cfg.params.validate()?;
    let matrix = read_matrix_file(&cfg.matrix_path)?;
    let n_roots = matrix.n_conditions();
    let matrix_fp = matrix_fingerprint(&matrix);
    drop(matrix);

    let gens = Generations::open(&cfg.store_dir)?;
    let generation = gens.next()?;
    std::fs::create_dir_all(&cfg.work_dir)?;

    let ranges = partition_roots(n_roots, cfg.n_leases);
    if ranges.is_empty() {
        return Err(ClusterError::Protocol(
            "matrix has no conditions to partition".into(),
        ));
    }

    let registry = MetricsRegistry::new();
    let metrics = ClusterMetrics::register(&registry);
    regcluster_failpoint::register_metrics(&registry);

    let job = JobInfo {
        params_json: serde_json::to_string(&cfg.params)?,
        engine: CLUSTER_ENGINE.to_string(),
        generation,
        matrix_fingerprint: matrix_fp,
        n_roots: n_roots as u64,
    };

    // Journal recovery: replay a journal whose JobCreated identity
    // matches this run; anything else (missing, stale, unreadable) means
    // a fresh journal seeded with this run's identity.
    let journal_path = cfg.work_dir.join(JOURNAL_FILE);
    let identity = JournalRecord::JobCreated {
        generation,
        matrix_fingerprint: matrix_fp,
        params_json: job.params_json.clone(),
        n_roots: n_roots as u64,
        n_leases: ranges.len() as u64,
    };
    let mut replayed: Vec<ReplaySlot> = Vec::new();
    let mut max_epoch = 0u64;
    let journal = if journal_path.exists() {
        match Journal::recover(&journal_path) {
            Ok(rec) if rec.records.first() == Some(&identity) => {
                metrics.journal_replayed.add(rec.records.len() as u64);
                metrics.journal_truncated_bytes.add(rec.truncated_bytes);
                eprintln!(
                    "coordinator: replayed {} journal records ({} torn bytes truncated)",
                    rec.records.len(),
                    rec.truncated_bytes
                );
                let (slots, epoch) = replay_records(&rec.records, ranges.len());
                replayed = slots;
                max_epoch = epoch;
                rec.journal
            }
            Ok(_) => {
                eprintln!("coordinator: journal belongs to a different run; starting fresh");
                fresh_journal(&journal_path, &identity, &metrics)?
            }
            Err(e) => {
                eprintln!("coordinator: journal unrecoverable ({e}); starting fresh");
                fresh_journal(&journal_path, &identity, &metrics)?
            }
        }
    } else {
        fresh_journal(&journal_path, &identity, &metrics)?
    };

    // Reconcile replayed state against the shards actually on disk. Disk
    // wins for completion: a valid staged shard closes its slot even if
    // the journal never saw it, and a journal `Done` without a valid
    // shard re-opens the slot. Live leases are restored with a full TTL
    // from now — their workers keep mining and renewing.
    let mut slots = Vec::with_capacity(ranges.len());
    let mut recovered_leases = 0u64;
    for (i, &(start, end)) in ranges.iter().enumerate() {
        let path = cfg.work_dir.join(format!("shard-{i}.rcs"));
        let disk_ok = match ClusterStore::open(&path) {
            Ok(store) => {
                validate_shard(&store, &cfg.params, matrix_fp, generation, start, end).is_ok()
            }
            Err(_) => false,
        };
        if !disk_ok && path.exists() {
            let _ = std::fs::remove_file(&path);
        }
        let slot_state = if disk_ok {
            SlotState::Done
        } else {
            match replayed.get(i) {
                Some(ReplaySlot::Leased { worker, epoch }) => {
                    recovered_leases += 1;
                    SlotState::Leased {
                        worker: worker.clone(),
                        epoch: *epoch,
                        deadline: Instant::now() + cfg.lease_ttl,
                    }
                }
                _ => SlotState::Pending,
            }
        };
        slots.push(Slot {
            start,
            end,
            state: slot_state,
        });
    }
    if recovered_leases > 0 {
        metrics.leases_recovered.add(recovered_leases);
        eprintln!("coordinator: restored {recovered_leases} live leases from the journal");
    }

    let all_staged = slots.iter().all(|s| matches!(s.state, SlotState::Done));
    let state = Arc::new(CoordState {
        slots: Mutex::new(slots),
        journal: Mutex::new(journal),
        next_epoch: AtomicU64::new(max_epoch + 1),
        phase: Mutex::new("mining"),
        job_json: serde_json::to_string(&job)?,
        params: cfg.params.clone(),
        matrix_fp,
        generation,
        work_dir: cfg.work_dir.clone(),
        lease_ttl: cfg.lease_ttl,
        metrics,
        registry,
        wake: (
            Mutex::new(Wake {
                shutdown: false,
                all_staged,
            }),
            Condvar::new(),
        ),
    });

    let handler_state = Arc::clone(&state);
    let shed_counter = state.metrics.requests_shed.clone();
    let server =
        HttpServer::start_capped(cfg.port, MAX_INFLIGHT, Some(shed_counter), move |req| {
            handle(&handler_state, req)
        })?;
    eprintln!(
        "coordinator: serving {} leases on 127.0.0.1:{} (generation {generation})",
        ranges.len(),
        server.port()
    );

    // Main loop: sweep silent workers' leases back to the pool until
    // every range has a validated shard. The wait ends early when the last
    // shard is staged or a shutdown is requested.
    loop {
        let shutdown = {
            let (lock, cvar) = &state.wake;
            let wake = lock.lock().expect("no wake flag update panics");
            let (wake, _) = cvar
                .wait_timeout_while(wake, SWEEP_EVERY, |w| !w.shutdown && !w.all_staged)
                .expect("no wake flag update panics");
            wake.shutdown
        };
        if shutdown {
            server.shutdown();
            return Err(ClusterError::Protocol(
                "shutdown requested before the run completed".into(),
            ));
        }
        let mut slots = state.slots.lock().unwrap();
        let now = Instant::now();
        for (i, slot) in slots.iter_mut().enumerate() {
            if let SlotState::Leased {
                deadline,
                worker,
                epoch,
            } = &slot.state
            {
                if *deadline < now {
                    // Write-ahead: the expiry is durable before the slot
                    // returns to the pool. If the append fails the lease
                    // stays leased and the next sweep retries.
                    let rec = JournalRecord::LeaseExpired {
                        lease: i as u64,
                        epoch: *epoch,
                    };
                    if state.journal_append(&rec).is_err() {
                        continue;
                    }
                    eprintln!(
                        "coordinator: lease on roots [{}, {}) expired (worker {worker}); reassigning",
                        slot.start, slot.end
                    );
                    state.metrics.leases_expired.inc();
                    slot.state = SlotState::Pending;
                }
            }
        }
        if slots.iter().all(|s| matches!(s.state, SlotState::Done)) {
            break;
        }
    }

    *state.phase.lock().unwrap() = "merging";
    let shard_paths: Vec<PathBuf> = (0..ranges.len()).map(|i| state.shard_path(i)).collect();
    let summary = merge_shards(&shard_paths, gens.path_for(generation))?;
    regcluster_failpoint::io("cluster::publish").map_err(ClusterError::Io)?;
    gens.publish(generation)?;
    // The run is already durable (CURRENT points at the generation);
    // the Published record is informational, so a journal hiccup here
    // must not fail a completed run.
    let _ = state.journal_append(&JournalRecord::Published { generation });
    state.metrics.merges.inc();
    *state.phase.lock().unwrap() = "published";
    eprintln!(
        "coordinator: published generation {generation} ({} clusters from {} shards)",
        summary.n_clusters,
        ranges.len()
    );

    let report = CoordinatorReport {
        generation,
        n_leases: ranges.len(),
        n_clusters: summary.n_clusters,
        reassignments: state.metrics.leases_expired.get(),
    };
    if cfg.linger {
        // Interruptible park: `POST /shutdown` wakes the condvar and the
        // process drains immediately — no sleep-loop latency between the
        // signal and the exit.
        let (lock, cvar) = &state.wake;
        let wake = lock.lock().expect("no wake flag update panics");
        drop(
            cvar.wait_while(wake, |w| !w.shutdown)
                .expect("no wake flag update panics"),
        );
        eprintln!("coordinator: shutdown requested; draining");
    }
    server.shutdown();
    Ok(report)
}

fn handle(state: &CoordState, req: &Request) -> Response {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/job") => Response::json(200, state.job_json.clone()),
        ("GET", "/status") => status(state),
        ("GET", "/metrics") => Response {
            status: 200,
            content_type: "text/plain; version=0.0.4; charset=utf-8",
            body: state.registry.encode_prometheus().into_bytes(),
            retry_after: None,
        },
        ("POST", "/lease/acquire") => acquire(state, &req.body),
        ("POST", "/lease/renew") => renew(state, &req.body),
        ("POST", "/shutdown") => request_shutdown(state),
        ("POST", path) if path.starts_with("/shard/") => upload(state, path, &req.body),
        _ => Response::text(404, "not found"),
    }
}

/// `POST /shutdown`: wakes the linger park (and the mining sweep loop)
/// so the process drains promptly.
fn request_shutdown(state: &CoordState) -> Response {
    state.wake(|w| w.shutdown = true);
    Response::json(200, "{\"kind\":\"stopping\"}".to_string())
}

fn status(state: &CoordState) -> Response {
    let slots = state.slots.lock().unwrap();
    let doc = StatusDoc {
        state: state.phase.lock().unwrap().to_string(),
        generation: state.generation,
        leases_total: slots.len() as u64,
        leases_done: slots
            .iter()
            .filter(|s| matches!(s.state, SlotState::Done))
            .count() as u64,
    };
    match serde_json::to_string(&doc) {
        Ok(json) => Response::json(200, json),
        Err(e) => Response::text(500, e.to_string()),
    }
}

fn parse_body<T: serde::Deserialize>(body: &[u8]) -> Result<T, Response> {
    std::str::from_utf8(body)
        .ok()
        .and_then(|s| serde_json::from_str(s).ok())
        .ok_or_else(|| Response::text(400, "malformed request body"))
}

fn acquire(state: &CoordState, body: &[u8]) -> Response {
    let req: AcquireRequest = match parse_body(body) {
        Ok(r) => r,
        Err(resp) => return resp,
    };
    if regcluster_failpoint::io("cluster::lease_grant").is_err() {
        return Response::text(500, "lease grant fault injected");
    }
    let mut slots = state.slots.lock().unwrap();
    let all_done = slots.iter().all(|s| matches!(s.state, SlotState::Done));
    let grant = slots
        .iter_mut()
        .enumerate()
        .find_map(|(i, slot)| matches!(slot.state, SlotState::Pending).then_some((i, slot)));
    let response = match grant {
        Some((lease, slot)) => {
            let epoch = state.next_epoch.fetch_add(1, Ordering::SeqCst);
            // Write-ahead: the grant is durable before the worker can
            // ever see it. A failed append refuses the grant (the epoch
            // is burned — epochs only ever move forward).
            let rec = JournalRecord::LeaseGranted {
                lease: lease as u64,
                epoch,
                worker: req.worker.clone(),
            };
            if let Err(e) = state.journal_append(&rec) {
                return Response::text(500, format!("journal append failed: {e}"));
            }
            slot.state = SlotState::Leased {
                worker: req.worker.clone(),
                epoch,
                deadline: Instant::now() + state.lease_ttl,
            };
            state.metrics.leases_granted.inc();
            AcquireResponse {
                kind: "grant".to_string(),
                lease: lease as u64,
                start: slot.start as u64,
                end: slot.end as u64,
                epoch,
                ttl_ms: state.lease_ttl.as_millis() as u64,
            }
        }
        None if all_done => AcquireResponse::signal("done"),
        None => AcquireResponse::signal("wait"),
    };
    match serde_json::to_string(&response) {
        Ok(json) => Response::json(200, json),
        Err(e) => Response::text(500, e.to_string()),
    }
}

fn renew(state: &CoordState, body: &[u8]) -> Response {
    let req: RenewRequest = match parse_body(body) {
        Ok(r) => r,
        Err(resp) => return resp,
    };
    let mut slots = state.slots.lock().unwrap();
    let Some(slot) = slots.get_mut(req.lease as usize) else {
        return Response::text(409, "unknown lease");
    };
    match &mut slot.state {
        SlotState::Leased {
            worker,
            epoch,
            deadline,
        } if *epoch == req.epoch && *worker == req.worker => {
            *deadline = Instant::now() + state.lease_ttl;
            state.metrics.lease_renewals.inc();
            // Best-effort: deadlines restart from "now + TTL" on replay
            // anyway, so a journal hiccup must not fence a live worker.
            let _ = state.journal_append(&JournalRecord::LeaseRenewed {
                lease: req.lease,
                epoch: req.epoch,
            });
            Response::json(200, "{\"kind\":\"ok\"}".to_string())
        }
        _ => Response::text(409, "lease lost"),
    }
}

fn upload(state: &CoordState, path: &str, body: &[u8]) -> Response {
    // Path shape: /shard/<lease>/<epoch>
    let mut parts = path.trim_start_matches("/shard/").split('/');
    let (Some(Ok(lease)), Some(Ok(epoch)), None) = (
        parts.next().map(str::parse::<usize>),
        parts.next().map(str::parse::<u64>),
        parts.next(),
    ) else {
        return Response::text(400, "shard path must be /shard/<lease>/<epoch>");
    };
    // The torn-upload site: fires before anything is staged, so an
    // injected fault (or a crash here) leaves no partial shard behind.
    if regcluster_failpoint::io("cluster::shard_upload").is_err() {
        state.metrics.shards_rejected.inc();
        return Response::text(500, "shard upload fault injected");
    }
    let store = match ClusterStore::from_bytes(body.to_vec()) {
        Ok(s) => s,
        Err(e) => {
            state.metrics.shards_rejected.inc();
            return Response::text(400, format!("unreadable shard: {e}"));
        }
    };

    let mut slots = state.slots.lock().unwrap();
    let Some(slot) = slots.get_mut(lease) else {
        state.metrics.shards_rejected.inc();
        return Response::text(409, "unknown lease");
    };
    if let Err(why) = validate_shard(
        &store,
        &state.params,
        state.matrix_fp,
        state.generation,
        slot.start,
        slot.end,
    ) {
        state.metrics.shards_rejected.inc();
        return Response::text(400, format!("shard failed validation: {why}"));
    }
    match &slot.state {
        // Idempotent: the shard is already in (e.g. the worker's earlier
        // 200 was lost in flight and it retried).
        SlotState::Done => Response::text(200, "already staged"),
        SlotState::Leased { epoch: current, .. } if *current == epoch => {
            // Atomic and durable: a crash leaves a complete staged shard
            // or none.
            if let Err(e) = replace_file(&state.shard_path(lease), body, None) {
                state.metrics.shards_rejected.inc();
                return Response::text(500, format!("staging failed: {e}"));
            }
            // Journal after the stage is durable (replay reconciles
            // against disk either way) but before the slot closes, so
            // a 200 is only ever sent for a fully-recorded shard. On
            // append failure the worker retries; staging is idempotent.
            let rec = JournalRecord::ShardStaged {
                lease: lease as u64,
                epoch,
            };
            if let Err(e) = state.journal_append(&rec) {
                state.metrics.shards_rejected.inc();
                return Response::text(500, format!("journal append failed: {e}"));
            }
            slot.state = SlotState::Done;
            state.metrics.shards_uploaded.inc();
            if slots.iter().all(|s| matches!(s.state, SlotState::Done)) {
                state.wake(|w| w.all_staged = true);
            }
            Response::text(200, "staged")
        }
        _ => {
            state.metrics.shards_rejected.inc();
            Response::text(409, "lease lost")
        }
    }
}
