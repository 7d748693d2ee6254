//! End-to-end benchmark of the COD workspace.
//!
//! ```text
//! cargo run --release --offline --manifest-path codbench/Cargo.toml -- \
//!     --workload <serve_codl_cora|paper_mix_pubmed|churn_durable_cora> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One run measures one workload for `--seconds`, checks every answer (and,
//! on the durable workload, that recovery restores the live artifacts),
//! prints every metric it measured by name and unit, and ends with
//! one JSON line. With `--trace 0` that line carries the end-to-end
//! metrics; with `--trace 1` it carries the per-layer metrics, measured on
//! a second, traced pass whose spans are written to
//! `.codbench/spans/<workload>-<seed>.jsonl`. The workload seed picks the
//! queries and events; the program receives only those.

mod churn;
mod engine;
mod mix;
mod serve;
mod spans;
mod stats;

use std::path::Path;
use std::process::ExitCode;

use engine::LoopOut;
use spans::Spans;
use stats::{ratio, Report};

/// Working directory of the benchmark, relative to where it runs: span
/// files and the durable workload's directories live here.
pub const WORK_DIR: &str = ".codbench";

/// The end-to-end metrics on the result line (`--trace 0`). Every workload
/// measures each of them, and none is ever 0. Times are charged in CPU
/// seconds: on a shared 2-vCPU virtual machine the wall clock follows the
/// time the host steals from the virtual CPUs, and back-to-back runs of
/// identical work differed up to twofold in throughput, latency and
/// wall-clock set-up time, while CPU time per operation moved within a
/// tenth on the read workloads and a third on the durable one. Throughput,
/// latency (`ops_per_s`, `query_p50_ms`, `query_p95_ms`), wall-clock
/// set-up time and the workload-specific metrics are on the report lines.
const END_TO_END: &[&str] = &["setup_s", "cpu_ms_per_op", "peak_rss_mb"];

/// The per-layer metrics on the result line (`--trace 1`): counts, ratios
/// and shares, plus the one time every workload measures. A layer that a
/// workload does not enter, or enters without telemetry, reports 0. Layer
/// times that only some workloads have are printed on the report lines.
const PER_LAYER: &[(&str, &str)] = &[
    ("engine.call_ms_p50", "ms"),
    ("trace.overhead_ratio", "ratio"),
    ("serve.self_share", "ratio"),
    ("serve.shed", "count"),
    ("engine.plan_share", "ratio"),
    ("engine.unattributed_share", "ratio"),
    ("engine.index_answer_ratio", "ratio"),
    ("recluster.share", "ratio"),
    ("cache.hit_ratio", "ratio"),
    ("compressed.sample_share", "ratio"),
    ("compressed.topk_share", "ratio"),
    ("influence.rr_graphs_per_call", "ratio"),
    ("influence.rr_edges_per_call", "ratio"),
    ("compressed.hfs_nodes_per_call", "ratio"),
    ("pool.hit_ratio", "ratio"),
    ("pool.resident_bytes", "bytes"),
    ("pool.evicted_bytes", "bytes"),
    ("dynamic.flush_share", "ratio"),
    ("repair.splice_kept_ratio", "ratio"),
    ("himor.redraw_ratio", "ratio"),
    ("dynamic.rebuild_ratio", "ratio"),
    ("wal.fsyncs_per_event", "ratio"),
    ("wal.bytes_per_event", "bytes"),
    ("checkpoint.bytes_per_checkpoint", "bytes"),
    ("recovery.replayed", "count"),
];

pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => opts.workload = value.clone(),
            "--seed" => opts.seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => {
                opts.seconds = value.parse().map_err(|_| bad("expected a number"))?;
                if !opts.seconds.is_finite() || opts.seconds <= 0.0 {
                    return Err(bad("expected a positive number"));
                }
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(opts)
}

/// Set-ups per run; their median is `setup_s`.
const SETUPS: usize = 5;

/// How long one set-up took, on the wall clock and in CPU seconds of
/// this process.
#[derive(Clone, Copy)]
pub struct SetupTime {
    pub wall_s: f64,
    pub cpu_s: f64,
}

/// Runs `f` and times it.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, SetupTime) {
    let (t0, cpu0) = (std::time::Instant::now(), stats::process_cpu_s());
    let out = f();
    let time = SetupTime {
        wall_s: t0.elapsed().as_secs_f64(),
        cpu_s: stats::process_cpu_s() - cpu0,
    };
    (out, time)
}

/// Records `setup_s` (CPU seconds) and `setup_wall_s`, the medians over
/// [`SETUPS`] set-ups: the one the run measured (`first`) and more that
/// `again` performs and tears down. They run after the measured loop, so
/// they add nothing to its peak memory.
pub fn record_setup(
    report: &mut Report,
    first: SetupTime,
    mut again: impl FnMut() -> Result<SetupTime, String>,
) -> Result<(), String> {
    let mut times = vec![first];
    for _ in 1..SETUPS {
        times.push(again()?);
    }
    let median = |f: fn(&SetupTime) -> f64| stats::median(&times.iter().map(f).collect::<Vec<_>>());
    let base = format!("median of {SETUPS} set-ups");
    report.e2e(
        "setup_s",
        "s",
        median(|t| t.cpu_s),
        format!("CPU time, {base}"),
    );
    report.e2e("setup_wall_s", "s", median(|t| t.wall_s), base);
    Ok(())
}

/// Writes the traced run's spans under [`WORK_DIR`].
pub fn write_spans(opts: &Opts, spans: &Spans) -> Result<(), String> {
    let path = Path::new(WORK_DIR)
        .join("spans")
        .join(format!("{}-{}.jsonl", opts.workload, opts.seed));
    spans
        .write_jsonl(&path)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// `trace.overhead_ratio`: untraced over traced throughput (successful
/// operations) of the same stream.
pub fn overhead_ratio(report: &mut Report, untraced: &LoopOut, traced: &LoopOut) {
    let ops = |l: &LoopOut| l.served.iter().filter(|s| s.answer.is_ok()).count() as f64 / l.wall_s;
    report.layer(
        "trace.overhead_ratio",
        "ratio",
        ops(untraced) / ops(traced),
        format!("{:.2} / {:.2} ops/s", ops(untraced), ops(traced)),
    );
}

fn run(opts: &Opts) -> Result<Report, String> {
    std::fs::create_dir_all(WORK_DIR).map_err(|e| format!("cannot create {WORK_DIR}: {e}"))?;
    let mut report = match opts.workload.as_str() {
        "serve_codl_cora" => serve::run(opts)?,
        "paper_mix_pubmed" => mix::run(opts)?,
        "churn_durable_cora" => churn::run(opts)?,
        other => return Err(format!("unknown workload {other:?}")),
    };
    report.e2e(
        "failed_frac",
        "ratio",
        ratio(report.failed as f64, report.attempted as f64),
        format!("{} failed / {} attempted", report.failed, report.attempted),
    );
    if opts.trace {
        for &(name, unit) in PER_LAYER {
            if !report.per_layer.iter().any(|m| m.name == name) {
                report.layer(name, unit, 0.0, "not measured on this workload".into());
            }
        }
    }
    Ok(report)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_opts(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let report = match run(&opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    print!("{}", report.render_lines(&opts.workload));
    let wanted: Vec<&str> = if opts.trace {
        PER_LAYER.iter().map(|&(name, _)| name).collect()
    } else {
        END_TO_END.to_vec()
    };
    match report.json_line(&wanted, opts.trace) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    }
    if report.mismatches.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "error: {} answer or durability mismatches",
            report.mismatches.len()
        );
        ExitCode::FAILURE
    }
}
