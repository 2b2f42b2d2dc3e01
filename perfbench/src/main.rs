//! The repository benchmark: runs one named sweep workload of the CLAP
//! reproduction at a given seed, checks its outputs, and prints every
//! metric by name with its unit. The last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed` and `metrics`.
//!
//! ```text
//! perfbench --workload fig18-cycle|fig6-analytic|remap-cycle \
//!           --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off: it sets
//! up and runs the sweep repeatedly for `--seconds` and reports medians.
//! `--trace 1` runs the sweep once untraced and once traced (wrappers in
//! [`layers`]) and reports the per-layer metrics. See `README.md`.

mod layers;
mod metrics;

use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use mcm_bench::configs::ConfigKind;
use mcm_bench::experiments::{size_ladder, EngineKind, Grid, Harness};
use mcm_bench::report::csv_string;
use mcm_bench::supervise::Supervisor;
use mcm_bench::telemetry::{stats_to_json, CellSpec, Telemetry};
use mcm_sim::{RunStats, Workload};
use mcm_types::{fnv1a, PageSize};
use mcm_workloads::{suite, SyntheticWorkload, WorkloadBuilder};

use layers::{CellRecorder, CellTally, Clock, ReplayCache, Span};
use metrics::Report;

/// The suite's own generator seed: at this seed every workload is
/// stream-for-stream the suite's, so the Fig. 18 grid must equal the
/// committed quick golden.
const REFERENCE_SEED: u64 = 0xC1A9;
/// The committed quick-scale Fig. 18 grid (relative to the checkout root).
const FIG18_GOLDEN: &str = "tests/goldens/fig18_quick.csv";
/// The paper's Fig. 18 result: geomean CLAP speedup over S-64KB.
const PAPER_CLAP_SPEEDUP: f64 = 1.175;
/// Sweep workers. One: on a small shared VM (2 vCPUs) a second worker made
/// every cell slower and the run-to-run spread wider (37% against 7% of the
/// median on `fig6-analytic`), so two workers measured the host more than
/// the program.
const JOBS: usize = 1;
/// Threadblock divisor of `Harness::quick` (1 for `Harness::full`); the
/// traced run scales workloads itself, and the identity check against the
/// untraced run proves the two agree.
const QUICK_TB_DIV: u32 = 4;
/// Set-ups timed before each sweep; `setup_s` is the median of all.
const SETUP_BATCH: usize = 50;
/// Where runs write journals, shards and spans (relative to the checkout).
const OUT_ROOT: &str = ".bench_out";

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Bench {
    Fig18Cycle,
    Fig6Analytic,
    RemapCycle,
}

impl Bench {
    const ALL: [Bench; 3] = [Bench::Fig18Cycle, Bench::Fig6Analytic, Bench::RemapCycle];

    fn name(self) -> &'static str {
        match self {
            Bench::Fig18Cycle => "fig18-cycle",
            Bench::Fig6Analytic => "fig6-analytic",
            Bench::RemapCycle => "remap-cycle",
        }
    }

    fn parse(s: &str) -> Option<Bench> {
        Bench::ALL.into_iter().find(|b| b.name() == s)
    }

    /// Quick scale (threadblocks / 4) or full evaluation scale.
    fn quick(self) -> bool {
        self != Bench::Fig6Analytic
    }

    fn engine(self) -> EngineKind {
        match self {
            Bench::Fig6Analytic => EngineKind::Analytic,
            _ => EngineKind::Cycle,
        }
    }

    /// Suite workloads on the rows, before seeding.
    fn rows(self) -> Vec<SyntheticWorkload> {
        match self {
            Bench::Fig18Cycle | Bench::Fig6Analytic => suite::all(),
            Bench::RemapCycle => {
                let mut ws: Vec<SyntheticWorkload> = ["BFS", "SSSP", "PAF", "SC"]
                    .iter()
                    .map(|n| suite::by_name(n).expect("suite workload"))
                    .collect();
                ws.push(suite::gemm_reuse());
                ws
            }
        }
    }

    /// Configurations on the columns, and the S-64KB baseline column that
    /// `perf` is normalised to. Every grid holds S-64KB and CLAP, so each
    /// workload reports `clap_speedup_err`.
    fn configs(self) -> (Vec<ConfigKind>, usize) {
        match self {
            Bench::Fig18Cycle => (ConfigKind::main_eval(), 0),
            Bench::Fig6Analytic => {
                let mut c = size_ladder();
                c.push(ConfigKind::Clap);
                (c, 1)
            }
            Bench::RemapCycle => (
                vec![
                    ConfigKind::Static(PageSize::Size64K),
                    ConfigKind::CNuma,
                    ConfigKind::CNumaReal,
                    ConfigKind::Grit,
                    ConfigKind::GritReal,
                    ConfigKind::ClapMigration,
                    ConfigKind::Clap,
                ],
                0,
            ),
        }
    }
}

struct Args {
    bench: Bench,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse_args() -> Result<Args, String> {
    let mut bench = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                bench = Some(Bench::parse(&value).ok_or_else(|| {
                    let names: Vec<_> = Bench::ALL.iter().map(|b| b.name()).collect();
                    format!(
                        "unknown workload {value:?} (want one of {})",
                        names.join(", ")
                    )
                })?)
            }
            "--seed" => seed = Some(parse_u64(&value).ok_or("--seed needs an integer")?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or("--seconds needs a positive number")?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        bench: bench.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Rebuilds a suite workload through the public builder with `seed`: same
/// structures and kernels, streams drawn from the new seed. At
/// [`REFERENCE_SEED`] the result is stream-for-stream the suite's own.
fn reseed(w: &SyntheticWorkload, seed: u64) -> SyntheticWorkload {
    let mut b = WorkloadBuilder::new(w.name()).seed(seed);
    for a in w.allocs() {
        b = b.alloc(a.name.clone(), a.bytes);
    }
    for k in w.kernels() {
        b = b.kernel(k.clone());
    }
    b.build()
}

/// Lines each kernel's memory instruction stands for; uniform per workload
/// for every workload the benchmark runs, so a cell's generated lines are
/// `mem_insts / line_reuse`.
fn line_reuse(w: &SyntheticWorkload) -> u64 {
    let r = w.kernels()[0].line_reuse;
    assert!(
        w.kernels().iter().all(|k| k.line_reuse == r),
        "{}: kernels differ in line_reuse",
        w.name()
    );
    u64::from(r.max(1))
}

/// Everything built before the first cell.
struct Setup {
    rows: Vec<SyntheticWorkload>,
    harness: Harness,
    telemetry: Arc<Telemetry>,
    dir: PathBuf,
}

/// Builds the seeded workloads, the harness and its telemetry sink. The
/// sink creates its journal and shard directories under `dir` when the
/// sweep opens, as the `figures` binary's does.
fn setup(bench: Bench, seed: u64, jobs: usize, dir: &Path) -> Setup {
    let rows: Vec<SyntheticWorkload> = bench.rows().iter().map(|w| reseed(w, seed)).collect();
    let telemetry = Arc::new(Telemetry::new(dir));
    let harness = if bench.quick() {
        Harness::quick()
    } else {
        Harness::full()
    }
    .with_jobs(jobs)
    .with_engine(bench.engine())
    .with_supervisor(Arc::new(Supervisor::default()))
    .with_telemetry(Arc::clone(&telemetry));
    Setup {
        rows,
        harness,
        telemetry,
        dir: dir.to_path_buf(),
    }
}

/// Times one set-up; any previous output under `dir` is removed first.
fn timed_setup(bench: Bench, seed: u64, jobs: usize, dir: &Path) -> (Setup, f64) {
    let _ = fs::remove_dir_all(dir);
    let t = Instant::now();
    let s = setup(bench, seed, jobs, dir);
    (s, t.elapsed().as_secs_f64())
}

/// One finished sweep.
struct SweepRun {
    wall_s: f64,
    cpu_s: f64,
    stats: Vec<RunStats>,
    grid: Grid,
    attempted: usize,
    failed: usize,
}

/// Normalises a sweep's statistics into a grid exactly as the harness's
/// figure sweeps do.
fn assemble(
    id: &str,
    rows: &[SyntheticWorkload],
    configs: &[ConfigKind],
    base: usize,
    all: &[RunStats],
) -> Grid {
    let n = configs.len();
    let mut perf = Vec::new();
    let mut remote = Vec::new();
    for r in 0..rows.len() {
        let stats = &all[r * n..(r + 1) * n];
        let base_cycles = stats[base].cycles.max(1) as f64;
        perf.push(
            stats
                .iter()
                .map(|s| base_cycles / s.cycles.max(1) as f64)
                .collect(),
        );
        remote.push(stats.iter().map(RunStats::remote_ratio).collect());
    }
    Grid {
        id: id.into(),
        title: id.into(),
        rows: rows.iter().map(|w| w.name().to_string()).collect(),
        cols: configs.iter().map(|c| c.name()).collect(),
        perf,
        remote,
    }
}

/// Runs the sweep through the harness's own path (tracing off), or — with
/// `traced` — through the wrappers, recording every cell.
fn sweep(bench: Bench, s: &Setup, traced: Option<&TraceSink>) -> SweepRun {
    let (configs, base) = bench.configs();
    let rnames: Vec<String> = s.rows.iter().map(|w| w.name().to_string()).collect();
    let cnames: Vec<String> = configs.iter().map(|c| c.name()).collect();
    let cells = CellSpec::grid(&rnames, &cnames);
    let id = format!("bench-{}", bench.name());
    let h = &s.harness;
    let cpu0 = metrics::cpu_seconds();
    let t0 = Instant::now();
    let stats = match traced {
        None => h.sweep_stats(&id, &cells, |_, c| {
            h.try_run(&s.rows[c.row], configs[c.col])
        }),
        Some(sink) => {
            let tb_div = if bench.quick() { QUICK_TB_DIV } else { 1 };
            let base_cfg = h.base_config().clone();
            let cache = ReplayCache::default();
            h.sweep_stats(&id, &cells, |i, c| {
                let start = sink.clock.ns();
                let rec = CellRecorder::new(sink.clock, i);
                let w = s.rows[c.row].clone().with_tb_scale(1, tb_div);
                let analytic = h.engine() == EngineKind::Analytic;
                let out = layers::run_cell(analytic, &base_cfg, &w, configs[c.col], &cache, &rec);
                sink.push(rec.finish(start, sink.clock.ns()));
                out
            })
        }
    };
    let grid = assemble(&id, &s.rows, &configs, base, &stats);
    s.telemetry.finish();
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = metrics::cpu_seconds() - cpu0;
    SweepRun {
        wall_s,
        cpu_s,
        stats,
        grid,
        attempted: cells.len(),
        failed: h.supervisor().quarantined().len(),
    }
}

/// Where traced cells deliver their tallies and spans.
struct TraceSink {
    clock: Clock,
    cells: Mutex<Vec<CellTally>>,
    spans: Mutex<Vec<Span>>,
}

impl TraceSink {
    fn push(&self, (tally, spans): (CellTally, Vec<Span>)) {
        self.cells.lock().expect("trace sink lock").push(tally);
        self.spans.lock().expect("trace sink lock").extend(spans);
    }
}

/// FNV-1a digest over every cell's statistics, in cell order.
fn digest(stats: &[RunStats]) -> u64 {
    let all: Vec<String> = stats.iter().map(stats_to_json).collect();
    fnv1a(&all.join("\n"))
}

/// Output checks every run makes; returns the failures.
fn check(bench: Bench, seed: u64, rows: &[SyntheticWorkload], run: &SweepRun) -> Vec<String> {
    let mut errs = Vec::new();
    if run.failed > 0 {
        errs.push(format!("{} cell(s) quarantined", run.failed));
    }
    let n = run.grid.cols.len();
    for (r, w) in rows.iter().enumerate() {
        let insts: Vec<u64> = run.stats[r * n..(r + 1) * n]
            .iter()
            .map(|s| s.mem_insts)
            .collect();
        if insts.iter().any(|&m| m != insts[0]) || insts[0] == 0 {
            errs.push(format!(
                "{}: mem_insts differ across configs: {insts:?}",
                w.name()
            ));
        }
    }
    if bench == Bench::Fig18Cycle && seed == REFERENCE_SEED {
        match fs::read_to_string(FIG18_GOLDEN) {
            Ok(golden) if golden == csv_string(&run.grid) => {}
            Ok(_) => errs.push(format!("fig18 grid differs from {FIG18_GOLDEN}")),
            Err(e) => errs.push(format!("cannot read {FIG18_GOLDEN}: {e}")),
        }
    }
    errs
}

/// |geomean CLAP speedup over S-64KB − the paper's 1.175|.
fn clap_speedup_err(grid: &Grid) -> f64 {
    (grid.geomean(grid.col("CLAP")) - PAPER_CLAP_SPEEDUP).abs()
}

/// What a run found: the checks that failed, and the cells it ran.
#[derive(Default)]
struct Tally {
    errors: Vec<String>,
    attempted: usize,
    failed: usize,
}

impl Tally {
    fn note(&mut self, bench: Bench, seed: u64, rows: &[SyntheticWorkload], run: &SweepRun) {
        self.attempted += run.attempted;
        self.failed += run.failed;
        self.errors.extend(check(bench, seed, rows, run));
    }
}

/// Tracing off: time a batch of set-ups and sweep, repeatedly, for
/// `seconds`.
fn measure(args: &Args, jobs: usize, out: &Path, tally: &mut Tally) -> Report {
    let bench = args.bench;
    let mut setups = Vec::new();
    let mut runs: Vec<SweepRun> = Vec::new();
    let mut peak_rss_mb = 0.0;
    let started = Instant::now();
    let rows = loop {
        // Set-up costs microseconds, so it is sampled many times: a batch
        // before every sweep, so that the median spans the run rather than
        // one moment of it. A batch is kept alive until it is complete, so
        // each sample allocates fresh memory as a process's first set-up
        // does, instead of reusing what the previous sample freed.
        let batch: Vec<Setup> = (0..SETUP_BATCH)
            .map(|_| {
                let (s, secs) = timed_setup(bench, args.seed, jobs, &out.join("sweep"));
                setups.push(secs);
                s
            })
            .collect();
        drop(batch);
        let (s, _) = timed_setup(bench, args.seed, jobs, &out.join("sweep"));
        let run = sweep(bench, &s, None);
        eprintln!(
            "perfbench: sweep {}: wall {:.3} s, cpu {:.2} s",
            runs.len() + 1,
            run.wall_s,
            run.cpu_s
        );
        if runs.is_empty() {
            // Later sweeps only add allocator slack from fresh worker
            // threads; the first sweep is what one invocation costs.
            peak_rss_mb = metrics::peak_rss_mb();
        }
        tally.note(bench, args.seed, &s.rows, &run);
        runs.push(run);
        // Stop before a sweep as slow as the slowest so far would overrun.
        let slowest = runs.iter().map(|r| r.wall_s).fold(0.0, f64::max);
        if started.elapsed().as_secs_f64() + slowest > args.seconds {
            break s.rows;
        }
    };
    let mut sorted = setups.clone();
    sorted.sort_by(f64::total_cmp);
    eprintln!(
        "perfbench: {} set-ups: min {:.1} us, median {:.1} us, max {:.1} us",
        sorted.len(),
        sorted[0] * 1e6,
        sorted[sorted.len() / 2] * 1e6,
        sorted[sorted.len() - 1] * 1e6
    );
    let first = digest(&runs[0].stats);
    if runs.iter().any(|r| digest(&r.stats) != first) {
        tally
            .errors
            .push("repeated sweeps produced different statistics".into());
    }
    eprintln!("perfbench: stats digest fnv1a={first:#018x}");
    eprintln!(
        "perfbench: clap_speedup_err={}",
        clap_speedup_err(&runs[0].grid)
    );
    Report::end_to_end(&runs, &setups, peak_rss_mb, |i| line_reuse(&rows[i]))
}

/// Tracing on: one untraced sweep, then the same sweep through the
/// wrappers; checks that observing did not perturb any cell.
fn trace(args: &Args, jobs: usize, out: &Path, tally: &mut Tally) -> Report {
    let bench = args.bench;
    let (s, _) = timed_setup(bench, args.seed, jobs, &out.join("sweep"));
    let plain = sweep(bench, &s, None);
    tally.note(bench, args.seed, &s.rows, &plain);
    let (s, _) = timed_setup(bench, args.seed, jobs, &out.join("traced"));
    let sink = TraceSink {
        clock: Clock::start(),
        cells: Mutex::new(Vec::new()),
        spans: Mutex::new(Vec::new()),
    };
    let traced = sweep(bench, &s, Some(&sink));
    tally.note(bench, args.seed, &s.rows, &traced);
    let differ = plain
        .stats
        .iter()
        .zip(&traced.stats)
        .filter(|(a, b)| stats_to_json(a) != stats_to_json(b))
        .count();
    if differ > 0 {
        tally.errors.push(format!(
            "{differ} cell(s) differ between traced and untraced runs"
        ));
    }
    let cells = sink.cells.into_inner().expect("trace sink lock");
    let spans = sink.spans.into_inner().expect("trace sink lock");
    let ncols = traced.grid.cols.len();
    for t in cells.iter().filter(|t| t.cycle) {
        if traced.stats[t.index].mem_insts != t.lines * line_reuse(&s.rows[t.index / ncols]) {
            tally.errors.push(format!(
                "cell {}: simulated lines differ from generated lines",
                t.index
            ));
        }
    }
    let spans_path = out.join("spans.tsv");
    if let Err(e) = metrics::write_spans(&spans_path, &spans) {
        eprintln!("warning: cannot write {}: {e}", spans_path.display());
    }
    eprintln!(
        "perfbench: stats digest fnv1a={:#018x}",
        digest(&traced.stats)
    );
    let exp = format!("bench-{}", bench.name());
    let mut r = Report::per_layer(&plain, &traced, &cells, jobs, &s.dir, &exp);
    r.push(
        "clap_speedup_err",
        clap_speedup_err(&traced.grid),
        "speedup",
    );
    r
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let jobs = JOBS;
    let out = Path::new(OUT_ROOT).join(args.bench.name());
    eprintln!(
        "perfbench: {} seed={:#x} jobs={jobs} trace={}",
        args.bench.name(),
        args.seed,
        u8::from(args.trace)
    );
    let mut tally = Tally::default();
    let report = if args.trace {
        trace(&args, jobs, &out, &mut tally)
    } else {
        measure(&args, jobs, &out, &mut tally)
    };
    for e in &tally.errors {
        eprintln!("perfbench: CHECK FAILED: {e}");
    }
    let correct = tally.errors.is_empty();
    print!("{}", report.render_table());
    println!("{}", report.to_json(correct, tally.attempted, tally.failed));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
