//! `--engine hybrid` on the quick fig1 grid.
//!
//! Hybrid runs the analytic model first and escalates to the cycle engine
//! every cell whose prediction sits near a capacity cliff
//! ([`AnalyticStats::needs_escalation`](mcm_sim::AnalyticStats::needs_escalation)).
//! This pins that contract cell by cell against independent cycle and
//! analytic sweeps, checks the journal tags every cell with the hybrid
//! engine, and checks `--resume` after a simulated crash reassembles the
//! exact bytes of a fresh serial hybrid run.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use mcm_bench::experiments::{fig1, size_ladder, EngineKind, Harness};
use mcm_bench::report::csv_string;
use mcm_bench::telemetry::{
    read_journal_dir, stats_from_json, stats_to_json, CellOutcome, Json, Telemetry,
};
use mcm_sim::analytic::Replay;
use mcm_sim::Workload;
use mcm_workloads::suite;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("clap-repro-test-{tag}"));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// One fig1 cell as its shard recorded it.
struct Cell {
    workload: String,
    config: String,
    /// The cell's statistics in the shard encoding.
    stats: String,
}

fn shard_paths(dir: &Path) -> Vec<PathBuf> {
    let mut paths: Vec<PathBuf> = fs::read_dir(dir.join("shards/fig1"))
        .expect("shard dir")
        .map(|e| e.expect("entry").path())
        .collect();
    paths.sort();
    paths
}

/// Every fig1 cell's shard under `dir`, in cell order.
fn cells(dir: &Path) -> Vec<Cell> {
    shard_paths(dir)
        .iter()
        .map(|p| {
            let j = Json::parse(&fs::read_to_string(p).expect("read shard")).expect("parse shard");
            let record = j.get("record").expect("record");
            let field = |k: &str| record.get(k).and_then(Json::as_str).expect(k).to_string();
            let stats = stats_from_json(j.get("stats").expect("stats")).expect("decode stats");
            Cell {
                workload: field("workload"),
                config: field("config"),
                stats: stats_to_json(&stats),
            }
        })
        .collect()
}

/// Runs quick fig1 under `engine` with telemetry in `dir`.
fn sweep(engine: EngineKind, dir: &Path, jobs: usize, resume: bool) -> (String, Arc<Telemetry>) {
    let tele = Arc::new(Telemetry::new(dir).with_resume(resume));
    let h = Harness::quick()
        .with_engine(engine)
        .with_jobs(jobs)
        .with_telemetry(Arc::clone(&tele));
    (csv_string(&fig1(&h)), tele)
}

#[test]
fn hybrid_cells_match_the_engine_their_escalation_picks() {
    let dirs = ["hybrid-cycle", "hybrid-analytic", "hybrid-hybrid"].map(temp_dir);
    sweep(EngineKind::Cycle, &dirs[0], 2, false);
    sweep(EngineKind::Analytic, &dirs[1], 2, false);
    sweep(EngineKind::Hybrid, &dirs[2], 2, false);
    let [cycle, analytic, hybrid] = dirs.each_ref().map(|d| cells(d));
    assert_eq!(hybrid.len(), 24, "8 workloads x 3 page sizes");

    let quick = Harness::quick();
    let mut escalated = 0;
    for (i, cell) in hybrid.iter().enumerate() {
        let kind = size_ladder()
            .into_iter()
            .find(|k| k.name() == cell.config)
            .expect("fig1 columns are static page sizes");
        // Harness::quick's threadblock divisor.
        let w = suite::by_name(&cell.workload)
            .expect("suite workload")
            .with_tb_scale(1, 4);
        let base = quick.base_config();
        let pm = kind
            .placement_model(w.allocs(), base.num_chiplets)
            .expect("static paging has a closed form");
        let (_, cfg) = kind.build(base);
        let prediction = Replay::capture(&w).predict(&cfg, &pm).expect("predict");
        let escalate = prediction.needs_escalation();
        // The replica of the harness's dispatch predicts exactly what the
        // analytic sweep recorded, so its escalation verdict is the one
        // the hybrid sweep acted on.
        assert_eq!(
            stats_to_json(&prediction.into_run_stats()),
            analytic[i].stats,
            "{}/{}: replicated prediction differs from the analytic cell",
            cell.workload,
            cell.config
        );
        let (want, engine) = if escalate {
            escalated += 1;
            (&cycle[i], "cycle")
        } else {
            (&analytic[i], "analytic")
        };
        assert_eq!(
            (&want.workload, &want.config),
            (&cell.workload, &cell.config)
        );
        assert_eq!(
            cell.stats, want.stats,
            "{}/{}: hybrid cell must equal the {engine} engine's",
            cell.workload, cell.config
        );
    }
    assert!(
        (1..hybrid.len()).contains(&escalated),
        "the grid must exercise both branches ({escalated} of {} escalated)",
        hybrid.len()
    );

    for d in &dirs {
        let _ = fs::remove_dir_all(d);
    }
}

#[test]
fn hybrid_resume_is_byte_identical_and_journals_the_engine() {
    let dir = temp_dir("hybrid-resume");
    let fresh = csv_string(&fig1(&Harness::quick().with_engine(EngineKind::Hybrid)));

    let (csv, tele) = sweep(EngineKind::Hybrid, &dir, 2, false);
    assert_eq!(csv, fresh, "telemetry must not perturb hybrid results");
    assert_eq!(tele.experiment_counters()[0].resumed, 0);

    // Crash simulation: drop every third shard, then resume at another
    // worker count.
    let shards = shard_paths(&dir);
    assert_eq!(shards.len(), 24);
    let mut deleted = 0;
    for p in shards.iter().step_by(3) {
        fs::remove_file(p).expect("delete shard");
        deleted += 1;
    }
    let (csv, tele) = sweep(EngineKind::Hybrid, &dir, 1, true);
    assert_eq!(
        csv, fresh,
        "resumed hybrid sweep must reassemble the exact same bytes"
    );
    assert_eq!(tele.experiment_counters()[0].resumed, 24 - deleted);

    // Both passes journal every cell, tagged with the hybrid engine —
    // escalated cells included.
    let read = read_journal_dir(&dir.join("journal"));
    assert!(read.errors.is_empty(), "malformed: {:?}", read.errors);
    assert!(read.salvaged.is_empty(), "torn tails: {:?}", read.salvaged);
    assert_eq!(read.records.len(), 48);
    for r in &read.records {
        assert_eq!(r.engine, "hybrid", "journal must tag the engine");
    }
    let resumed = read
        .records
        .iter()
        .filter(|r| r.outcome == CellOutcome::Resumed)
        .count();
    assert_eq!(resumed, 24 - deleted);

    let _ = fs::remove_dir_all(&dir);
}
