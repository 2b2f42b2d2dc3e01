//! Turning sweeps into named metrics: host counters from `/proc`, the
//! end-to-end report (tracing off) and the per-layer report (traced run).

use std::fmt::Write as _;
use std::fs;
use std::io::{self, BufWriter, Write as _};
use std::path::Path;

use mcm_sim::RunStats;

use crate::layers::{CellTally, PolicyLayer, PolicyTally, Span};
use crate::SweepRun;

/// Kernel clock ticks per second of `/proc/<pid>/stat` times (`USER_HZ`,
/// fixed at 100 on Linux).
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds of this process, all threads included.
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the line, 12th and 13th after the name.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<f64> = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|v| v.parse().ok())
        .collect();
    f.iter().sum::<f64>() / USER_HZ
}

/// Peak resident memory of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Writes spans as tab-separated `name start_ns end_ns parent_cell`, where
/// `name` is `layer.call` and `parent_cell` is `-` for a cell span.
pub fn write_spans(path: &Path, spans: &[Span]) -> io::Result<()> {
    let mut w = BufWriter::new(fs::File::create(path)?);
    writeln!(w, "name\tstart_ns\tend_ns\tparent_cell")?;
    for s in spans {
        let parent = s.cell.map_or("-".to_string(), |c| c.to_string());
        writeln!(
            w,
            "{}.{}\t{}\t{}\t{parent}",
            s.layer, s.call, s.start_ns, s.end_ns
        )?;
    }
    w.flush()
}

/// Middle value, or the mean of the two middle values of an even-sized
/// sample: a run often holds only two `fig18-cycle` sweeps, and both count.
fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile (`q` in 0..=1); 0 for an empty sample.
fn percentile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn file_len(p: &Path) -> u64 {
    fs::metadata(p).map_or(0, |m| m.len())
}

/// Named metrics with units, in print order.
pub struct Report(Vec<(String, f64, &'static str)>);

impl Report {
    /// Appends a metric (a non-finite value is reported as 0).
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        // `+ 0.0` turns the -0.0 of an empty float sum into 0.
        let value = if value.is_finite() { value + 0.0 } else { 0.0 };
        self.0.push((name.into(), value, unit));
    }

    /// End-to-end metrics over untraced sweeps: medians of the per-sweep
    /// host figures and of the set-up times; `row_line_reuse` maps a grid
    /// row to its workload's lines per memory instruction.
    pub fn end_to_end(
        runs: &[SweepRun],
        setups: &[f64],
        peak_rss_mb: f64,
        row_line_reuse: impl Fn(usize) -> u64,
    ) -> Report {
        let walls: Vec<f64> = runs.iter().map(|r| r.wall_s).collect();
        let cpus: Vec<f64> = runs.iter().map(|r| r.cpu_s).collect();
        let rates: Vec<f64> = runs
            .iter()
            .map(|r| {
                let cols = r.grid.cols.len();
                let lines: u64 = r
                    .stats
                    .iter()
                    .enumerate()
                    .map(|(i, s)| s.mem_insts / row_line_reuse(i / cols))
                    .sum();
                lines as f64 / r.wall_s / 1e6
            })
            .collect();
        let attempted: usize = runs.iter().map(|r| r.attempted).sum();
        let failed: usize = runs.iter().map(|r| r.failed).sum();
        let mut m = Report(Vec::new());
        m.push("sweep_wall_s", median(&walls), "s");
        m.push("access_rate_mps", median(&rates), "M/s");
        m.push("cpu_s", median(&cpus), "s");
        m.push("setup_s", median(setups), "s");
        m.push("peak_rss_mb", peak_rss_mb, "MB");
        m.push(
            "cell_success_ratio",
            1.0 - ratio(failed as f64, attempted as f64),
            "ratio",
        );
        m
    }

    /// Per-layer metrics of a traced sweep, plus tracing overhead against
    /// the untraced sweep of the same run.
    pub fn per_layer(
        plain: &SweepRun,
        traced: &SweepRun,
        cells: &[CellTally],
        jobs: usize,
        dir: &Path,
        exp: &str,
    ) -> Report {
        let mut m = Report(Vec::new());
        let n = cells.len().max(1) as f64;

        // bench: the closure handed to Harness::sweep_stats, and what the
        // harness does around it (journal, shard, supervision).
        let closures: Vec<f64> = cells.iter().map(|c| c.closure_ns as f64 / 1e6).collect();
        let busy_ms: f64 = closures.iter().sum();
        let capacity_ms = traced.wall_s * 1e3 * jobs as f64;
        m.push("bench.cell_ms_p50", percentile(&closures, 0.5), "ms");
        m.push("bench.cell_ms_p90", percentile(&closures, 0.9), "ms");
        m.push(
            "bench.overhead_ms_per_cell",
            (capacity_ms - busy_ms) / n,
            "ms",
        );
        m.push(
            "bench.worker_busy_frac",
            ratio(busy_ms, capacity_ms),
            "ratio",
        );
        m.push(
            "bench.journal_bytes",
            file_len(&dir.join("journal").join(format!("{exp}.jsonl"))) as f64,
            "B",
        );
        let shard_bytes: u64 = fs::read_dir(dir.join("shards").join(exp))
            .map(|d| d.filter_map(Result::ok).map(|e| file_len(&e.path())).sum())
            .unwrap_or(0);
        m.push("bench.shard_bytes", shard_bytes as f64, "B");

        // workloads: stream generation.
        let gen_ns: f64 = cells.iter().map(CellTally::gen_ns).sum();
        let lines: u64 = cells.iter().map(|c| c.lines).sum();
        m.push("workloads.gen_s", gen_ns / 1e9, "s");
        m.push("workloads.lines", lines as f64, "count");
        m.push(
            "workloads.streams",
            cells.iter().map(|c| c.streams).sum::<u64>() as f64,
            "count",
        );
        m.push("workloads.ns_per_line", ratio(gen_ns, lines as f64), "ns");

        // engine: run time less the wrapped policy and workload time.
        let cycle: Vec<&CellTally> = cells.iter().filter(|c| c.cycle).collect();
        let engine_ns: f64 = cycle
            .iter()
            .map(|c| (c.run_ns as f64 - c.policy.self_ns() - c.gen_ns()).max(0.0))
            .sum();
        let cycle_lines: u64 = cycle.iter().map(|c| c.lines).sum();
        m.push("engine.self_s", engine_ns / 1e9, "s");
        m.push(
            "engine.ns_per_access",
            ratio(engine_ns, cycle_lines as f64),
            "ns",
        );
        m.engine_counters(&traced.stats);

        // policies / core: callbacks, per layer.
        for layer in [PolicyLayer::Policies, PolicyLayer::Core] {
            let mut t = PolicyTally::default();
            for c in cells.iter().filter(|c| c.layer == Some(layer)) {
                t.add(&c.policy);
            }
            let p = layer.name();
            m.push(format!("{p}.self_s"), t.self_ns() / 1e9, "s");
            m.push(format!("{p}.fault.calls"), t.fault_calls as f64, "count");
            m.push(
                format!("{p}.fault.ns_per_call"),
                ratio(t.fault_ns as f64, t.fault_calls as f64),
                "ns",
            );
            m.push(format!("{p}.access.calls"), t.access_calls as f64, "count");
            m.push(
                format!("{p}.access.ns_per_call"),
                ratio(t.access_ns(), t.access_calls as f64),
                "ns",
            );
            m.push(format!("{p}.epoch.calls"), t.epoch_calls as f64, "count");
            m.push(
                format!("{p}.epoch.ns_per_call"),
                ratio(t.epoch_ns as f64, t.epoch_calls as f64),
                "ns",
            );
            m.push(format!("{p}.directives"), t.directives as f64, "count");
            let accepted = if t.directives == 0 {
                1.0
            } else {
                1.0 - t.rejected as f64 / t.directives as f64
            };
            m.push(format!("{p}.directive_accept_ratio"), accepted, "ratio");
        }

        // analytic: capture (less the generation inside it) and prediction.
        let analytic: Vec<&CellTally> = cells.iter().filter(|c| !c.cycle).collect();
        let captures: u64 = cells.iter().map(|c| c.captures).sum();
        let capture_self: f64 = cells
            .iter()
            .map(|c| c.capture_ns as f64 - c.capture_gen_ns())
            .sum();
        let predict_ns: f64 = analytic
            .iter()
            .map(|c| c.closure_ns as f64 - c.gen_ns())
            .sum();
        let na = analytic.len() as f64;
        m.push("analytic.capture_s", capture_self / 1e9, "s");
        m.push("analytic.captures", captures as f64, "count");
        m.push(
            "analytic.replay_reuse_ratio",
            ratio(na - captures as f64, na),
            "ratio",
        );
        m.push(
            "analytic.predict_ms_per_cell",
            ratio(predict_ns / 1e6, na),
            "ms",
        );

        m.push(
            "trace.overhead_frac",
            traced.wall_s / plain.wall_s - 1.0,
            "ratio",
        );
        m
    }

    /// Deterministic work counters summed over every cell's `RunStats`.
    fn engine_counters(&mut self, stats: &[RunStats]) {
        let sum = |f: fn(&RunStats) -> u64| stats.iter().map(f).sum::<u64>() as f64;
        let l1h = sum(|s| s.l1tlb_hits);
        let l2h = sum(|s| s.l2tlb_hits);
        let insts = sum(|s| s.mem_insts);
        self.push("engine.mem_insts", insts, "count");
        self.push("engine.sim_cycles", sum(|s| s.cycles), "cycles");
        self.push(
            "engine.l1tlb_hit_ratio",
            ratio(l1h, l1h + sum(|s| s.l1tlb_misses)),
            "ratio",
        );
        self.push(
            "engine.l2tlb_hit_ratio",
            ratio(l2h, l2h + sum(|s| s.l2tlb_misses)),
            "ratio",
        );
        self.push("engine.walks", sum(|s| s.walks), "count");
        self.push("engine.walk_mshr_hits", sum(|s| s.walk_mshr_hits), "count");
        self.push("engine.faults", sum(|s| s.faults), "count");
        self.push(
            "engine.remote_ratio",
            ratio(sum(|s| s.remote_insts), insts),
            "ratio",
        );
        self.push(
            "engine.interconnect_transfers",
            sum(|s| s.interconnect_transfers),
            "count",
        );
        self.push("engine.dram_accesses", sum(|s| s.dram_accesses), "count");
        self.push(
            "engine.dram_queue_cycles",
            sum(|s| s.dram_queue_cycles),
            "cycles",
        );
        self.push(
            "engine.interconnect_queue_cycles",
            sum(|s| s.interconnect_queue_cycles),
            "cycles",
        );
        self.push("engine.migrations", sum(|s| s.migrations), "count");
        self.push("engine.shootdowns", sum(|s| s.shootdowns), "count");
        self.push(
            "engine.walk_queue_stalls",
            sum(|s| s.degradation.walk_queue_stalls),
            "count",
        );
        self.push(
            "engine.degraded_cells",
            sum(|s| u64::from(s.degradation.is_degraded())),
            "count",
        );
    }

    /// One `name value unit` line per metric.
    pub fn render_table(&self) -> String {
        let mut s = String::new();
        for (name, value, unit) in &self.0 {
            let _ = writeln!(s, "{name:<36} {value:>20} {unit}");
        }
        s
    }

    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn to_json(&self, correct: bool, attempted: usize, failed: usize) -> String {
        let metrics: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            metrics.join(", ")
        )
    }
}
