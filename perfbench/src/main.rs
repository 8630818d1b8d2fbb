//! The regcluster benchmark harness.
//!
//! ```text
//! perfbench --regcluster <bin> --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Normally started through `bash perfbench/run.sh`, which builds the
//! binary and the harness first. Workloads: `mine_deep`, `mine_wide`,
//! `serve_mix`, `cluster_run` (see `perfbench/WORKLOADS.md`). With
//! `--trace 0` the last stdout line carries the end-to-end metrics, with
//! `--trace 1` the per-layer ones. Each run also writes a results file
//! (and, traced, a spans file) under `perfbench/results/`.

mod inputs;
mod load;
mod proc;
mod report;
mod stats;
mod trace;
mod traced;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use serde::Value;

use report::{int, metrics_json, num, obj, text, Report};
use workloads::Ctx;

const WORKLOADS: [&str; 4] = ["mine_deep", "mine_wide", "serve_mix", "cluster_run"];

struct Args {
    bin: String,
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut bin, mut workload, mut seed, mut seconds, mut trace) = (None, None, 1, 10.0, false);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--regcluster" => bin = Some(value()?),
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => seconds = value()?.parse().map_err(|_| "--seconds takes a number")?,
            "--trace" => trace = value()? == "1",
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?} or all"
        ));
    }
    Ok(Args {
        bin: bin.ok_or("--regcluster is required")?,
        workload,
        seed,
        seconds,
        trace,
    })
}

fn loadavg() -> Value {
    let raw = std::fs::read_to_string("/proc/loadavg").unwrap_or_default();
    Value::Array(
        raw.split_whitespace()
            .take(3)
            .filter_map(|x| x.parse().ok())
            .map(num)
            .collect(),
    )
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| {
            l.strip_prefix("model name")
                .map(|r| r.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Runs one workload; returns its report and host context.
fn run_one(args: &Args, workload: &str, results: &Path) -> (Report, Value) {
    let work = workloads::fresh_dir(&PathBuf::from("perfbench/work").join(workload));
    let ctx = Ctx {
        bin: args.bin.clone(),
        work: work.clone(),
        seed: args.seed,
        seconds: args.seconds,
    };
    let (input, mine) = workloads::spec(workload).expect("workload validated");
    let load_before = loadavg();
    let tag = format!("{workload}-seed{}-trace{}", args.seed, u8::from(args.trace));
    let rep = if args.trace {
        traced::run_traced(
            &ctx,
            workload,
            &input,
            &mine,
            &results.join(format!("{tag}-spans.jsonl")),
        )
    } else {
        match workload {
            "serve_mix" => workloads::run_serve(&ctx, &input, &mine),
            "cluster_run" => workloads::run_cluster(&ctx, &input, &mine),
            _ => workloads::run_mine(&ctx, &input, &mine),
        }
    };
    let _ = std::fs::remove_dir_all(&work);
    let gen_late = rep
        .named
        .iter()
        .find(|m| m.name == "gen_late_p99_ms")
        .map_or(Value::Null, |m| num(m.value));
    let host = obj(vec![
        (
            "nproc",
            int(std::thread::available_parallelism().map_or(0, |n| n.get() as u64)),
        ),
        ("cpu_model", text(cpu_model())),
        ("loadavg_before", load_before),
        ("loadavg_after", loadavg()),
        ("gen_late_p99_ms", gen_late),
    ]);
    let record = obj(vec![
        ("workload", text(workload)),
        ("seed", int(args.seed)),
        ("seconds", num(args.seconds)),
        ("trace", Value::Bool(args.trace)),
        ("host", host.clone()),
        ("correct", Value::Bool(rep.correct())),
        ("attempted", int(rep.tally.attempted)),
        ("failed", int(rep.tally.failed)),
        (
            "gates",
            Value::Array(
                rep.gates
                    .iter()
                    .map(|g| {
                        obj(vec![
                            ("name", text(&g.name)),
                            ("ok", Value::Bool(g.ok)),
                            ("detail", text(&g.detail)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("metrics", metrics_json(&rep.metrics)),
        ("named", metrics_json(&rep.named)),
        (
            "notes",
            obj(rep
                .metrics
                .iter()
                .chain(&rep.named)
                .map(|m| (m.name.as_str(), text(&m.note)))
                .collect()),
        ),
        ("detail", Value::Object(rep.detail.clone())),
    ]);
    let file = results.join(format!("{tag}.json"));
    if let Err(e) = std::fs::write(
        &file,
        serde_json::to_string_pretty(&record).unwrap_or_default(),
    ) {
        eprintln!("perfbench: cannot write {}: {e}", file.display());
    }
    (rep, host)
}

fn print_table(workload: &str, rep: &Report) {
    println!("== {workload}");
    for m in &rep.named {
        println!(
            "  {:<20} {:>14.6} {:<6} {}",
            m.name, m.value, m.unit, m.note
        );
    }
    for g in rep.gates.iter().filter(|g| !g.ok) {
        println!("  GATE FAILED {}: {}", g.name, g.detail);
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let results = PathBuf::from("perfbench/results");
    if let Err(e) = std::fs::create_dir_all(&results) {
        eprintln!("perfbench: cannot create {}: {e}", results.display());
        return ExitCode::from(2);
    }
    let names: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let mut total = Report::default();
    let mut metrics = Vec::new();
    for &w in &names {
        let (rep, host) = run_one(&args, w, &results);
        print_table(w, &rep);
        println!("host {}", serde_json::to_string(&host).unwrap_or_default());
        total.tally.add(rep.tally);
        total.gates.extend(rep.gates.clone());
        if names.len() == 1 {
            metrics = rep.metrics;
        } else {
            metrics.extend(rep.metrics.into_iter().map(|mut m| {
                m.name = format!("{w}.{}", m.name);
                m
            }));
        }
    }
    let result = obj(vec![
        ("correct", Value::Bool(total.correct())),
        ("attempted", int(total.tally.attempted)),
        ("failed", int(total.tally.failed)),
        ("metrics", metrics_json(&metrics)),
    ]);
    println!("{}", serde_json::to_string(&result).unwrap_or_default());
    if total.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
