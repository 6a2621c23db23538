//! The repository benchmark: three workloads over the IR-Fusion stack,
//! each reporting end-to-end metrics (untraced run) or per-layer
//! metrics (traced run, `--trace 1`). See `perfbench/README.md`.
//!
//! ```text
//! perfbench --workload cold_150k|serve_predict|eco_optimize --seed N
//!           --seconds S --trace 0|1 --work-dir DIR --serve-bin PATH
//!           [--git-rev REV]
//! ```
//!
//! The last stdout line is one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`; the line before it is the
//! stamped result row (revision, cores, SIMD, sample counts, tail
//! percentiles). A failed output check exits with code 1.

mod cold;
mod eco;
mod layers;
mod serve;
mod stats;
mod sys;

use irf_serve::json::{obj, Json};
use stats::Metric;
use std::path::PathBuf;
use std::time::Instant;

/// End-to-end metrics every workload reports with `--trace 0`, in
/// `BENCHMARK.json` order: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("op_cpu_ms", "ms"),
    ("ops_per_cpu_s", "1/s"),
];

/// Per-layer metrics every workload reports with `--trace 1`, in
/// `BENCHMARK.json` order. A layer the workload does not call reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("spice.visit_cards_ms", "ms"),
    ("spice.mb_per_s", "MB/s"),
    ("pg.ingest_ms", "ms"),
    ("serve.json_parse_ms", "ms"),
    ("spice.parse_ms", "ms"),
    ("pg.from_netlist_ms", "ms"),
    ("pg.assemble_ms", "ms"),
    ("pg.nnz", "count"),
    ("sparse.amg_setup_ms", "ms"),
    ("sparse.amg_levels", "count"),
    ("sparse.pcg_ms", "ms"),
    ("sparse.pcg_iterations", "count"),
    ("sparse.pcg_ms_per_iter", "ms"),
    ("sparse.spmv_bytes_per_iter", "B"),
    ("pg.restamp_ms", "ms"),
    ("sparse.amg_rebuild_ms", "ms"),
    ("sparse.pcg_warm_iterations", "count"),
    ("features.resistance_map_ms", "ms"),
    ("features.shortest_path_ms", "ms"),
    ("features.effective_distance_ms", "ms"),
    ("features.pdn_density_ms", "ms"),
    ("features.layer_currents_ms", "ms"),
    ("features.layer_solutions_ms", "ms"),
    ("features.stack_ms", "ms"),
    ("models.forward_ms", "ms"),
    ("models.forward_batch1_ms", "ms"),
    ("models.forward_batch2_ms", "ms"),
    ("serve.handler_ms", "ms"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.transport_ms", "ms"),
    ("serve.batch_size_mean", "count"),
    ("core.edit_ms", "ms"),
    ("core.whatif_current_ms", "ms"),
    ("core.whatif_topology_ms", "ms"),
    ("core.cache_hits", "count"),
    ("core.cache_misses", "count"),
    ("core.cache_hit_rate", "ratio"),
    ("opt.evaluations", "count"),
    ("opt.ms_per_evaluation", "ms"),
    ("opt.run_s", "s"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_pct", "%"),
];

/// Setups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// Command-line settings shared by every workload.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub work_dir: PathBuf,
    pub serve_bin: PathBuf,
}

/// What one workload run produced.
#[derive(Default)]
pub struct Outcome {
    /// Operations started with [`Outcome::begin`].
    pub attempted: u64,
    /// Operations with at least one failed check.
    pub failed: u64,
    /// Whether the current operation already failed a check.
    op_failed: bool,
    /// Output checks that did not hold, one line each.
    pub check_failures: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Figures for the stamped row only, under the workload's own
    /// names (e.g. `design_p50_s`).
    pub row: Vec<Metric>,
}

impl Outcome {
    /// Starts an operation; the checks that follow belong to it.
    pub fn begin(&mut self) {
        self.attempted += 1;
        self.op_failed = false;
    }

    /// Records one output check of the current operation. A failure
    /// fails the operation (once) and the run.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            if !self.op_failed {
                self.failed += 1;
                self.op_failed = true;
            }
            let message = what();
            eprintln!("perfbench: check failed: {message}");
            self.check_failures.push(message);
        }
    }
}

/// Runs `f` `SETUP_REPS` times, returning the last result and the
/// seconds each run took (`setup_s` is their median).
pub fn repeated_setup<T>(mut f: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        // Drop the previous setup first so repetitions do not stack up
        // memory or processes.
        drop(last.take());
        let t0 = Instant::now();
        last = Some(f());
        times.push(t0.elapsed().as_secs_f64());
    }
    (last.expect("SETUP_REPS > 0"), times)
}

struct Args {
    workload: String,
    ctx: Ctx,
    git_rev: String,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut work_dir = None;
    let mut serve_bin = None;
    let mut git_rev = "unknown".to_string();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                );
            }
            "--trace" => trace = Some(value == "1"),
            "--work-dir" => work_dir = Some(PathBuf::from(value)),
            "--serve-bin" => serve_bin = Some(PathBuf::from(value)),
            "--git-rev" => git_rev = value,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        ctx: Ctx {
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace: trace.ok_or("--trace is required")?,
            work_dir: work_dir.ok_or("--work-dir is required")?,
            serve_bin: serve_bin.ok_or("--serve-bin is required")?,
        },
        git_rev,
    })
}

/// The stamped result row: run settings plus every metric with its
/// sample count and percentile, the workload's own names included.
fn render_row(args: &Args, outcome: &Outcome) -> String {
    let metrics = outcome
        .metrics
        .iter()
        .chain(&outcome.row)
        .map(|m| {
            let percentile = m.percentile.map_or(Json::Null, |p| Json::Num(f64::from(p)));
            let fields = obj(vec![
                ("value", Json::Num(m.value)),
                ("unit", Json::Str(m.unit.to_string())),
                ("samples", Json::Num(m.samples as f64)),
                ("percentile", percentile),
            ]);
            (m.name.to_string(), fields)
        })
        .collect();
    let row = obj(vec![
        ("workload", Json::Str(args.workload.clone())),
        ("seed", Json::Num(args.ctx.seed as f64)),
        ("seconds", Json::Num(args.ctx.seconds)),
        ("trace", Json::Bool(args.ctx.trace)),
        ("git_rev", Json::Str(args.git_rev.clone())),
        ("nproc", Json::Num(sys::nproc() as f64)),
        ("threads", Json::Num(irf_runtime::num_threads() as f64)),
        ("simd", Json::Bool(cfg!(feature = "simd"))),
        ("attempted", Json::Num(outcome.attempted as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        (
            "error_rate",
            Json::Num(outcome.failed as f64 / outcome.attempted.max(1) as f64),
        ),
        ("metrics", Json::Obj(metrics)),
    ]);
    obj(vec![("row", row)]).render()
}

/// The contract line: exactly the listed metrics, in list order.
fn render_result(list: &[(&str, &str)], outcome: &Outcome) -> String {
    let metrics = list
        .iter()
        .map(|&(name, unit)| {
            let value = outcome
                .metrics
                .iter()
                .find(|m| m.name == name)
                .map_or(0.0, |m| m.value);
            let fields = obj(vec![
                ("value", Json::Num(value)),
                ("unit", Json::Str(unit.to_string())),
            ]);
            (name.to_string(), fields)
        })
        .collect();
    obj(vec![
        ("correct", Json::Bool(outcome.check_failures.is_empty())),
        ("attempted", Json::Num(outcome.attempted as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ])
    .render()
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.ctx.work_dir) {
        eprintln!(
            "perfbench: cannot create {}: {e}",
            args.ctx.work_dir.display()
        );
        std::process::exit(2);
    }
    let ticks = sys::cpu_ticks();
    let mut outcome = match args.workload.as_str() {
        "cold_150k" => cold::run(&args.ctx),
        "serve_predict" => serve::run(&args.ctx),
        "eco_optimize" => eco::run(&args.ctx),
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            std::process::exit(2);
        }
    };
    // Time the hypervisor gave to other guests: the main source of
    // run-to-run spread on a shared host.
    outcome.row.push(Metric::new(
        "cpu_steal_pct",
        "%",
        sys::steal_pct(ticks, sys::cpu_ticks()),
        1,
    ));
    let list = if args.ctx.trace {
        PER_LAYER
    } else {
        END_TO_END
    };
    for m in &outcome.metrics {
        assert!(
            list.iter()
                .any(|&(name, unit)| name == m.name && unit == m.unit),
            "metric {} [{}] is not in the {} list",
            m.name,
            m.unit,
            if args.ctx.trace {
                "per-layer"
            } else {
                "end-to-end"
            }
        );
    }
    for m in outcome.metrics.iter().chain(&outcome.row) {
        println!(
            "{:<34} {:>16.6} {:<6} (n={})",
            m.name, m.value, m.unit, m.samples
        );
    }
    println!("{}", render_row(&args, &outcome));
    println!("{}", render_result(list, &outcome));
    if !outcome.check_failures.is_empty() {
        std::process::exit(1);
    }
}
