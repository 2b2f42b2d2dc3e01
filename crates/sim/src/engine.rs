//! The trace-driven simulation engine.
//!
//! Executes every kernel of a [`Workload`](crate::Workload) against a
//! machine built from a [`SimConfig`](crate::SimConfig), with memory
//! mapping decided by a [`PagingPolicy`](crate::PagingPolicy). Warps are
//! interleaved through a monotone radix heap of wake-up events (no push
//! precedes the last pop); throughput limits come from busy-until
//! resources (SM load/store ports, page walkers, DRAM channels,
//! interconnect links), so warp-level parallelism hides latency exactly
//! until a resource saturates.
//!
//! The heavy lifting lives in the [`stage`](crate::stage) modules; the
//! `Machine` here is a thin orchestrator that owns the page table and the
//! per-SM issue ports and wires the stages together:
//!
//! * [`TranslateStage`](crate::stage::translate::TranslateStage) — TLBs,
//!   page-walk caches, walkers, walk-queue MSHRs;
//! * [`DataPath`](crate::stage::datapath::DataPath) — data caches, DRAM,
//!   the interconnect, the optional remote cache;
//! * [`Driver`](crate::stage::driver::Driver) — fault resolution,
//!   directive application, shootdowns, audits;
//! * [`KernelSchedule`](crate::stage::sched::KernelSchedule) — TB
//!   distribution and the warp wake-up queue.

use mcm_types::{ChipletId, TbId, VirtAddr};

use crate::config::SimConfig;
#[cfg(feature = "metrics")]
use crate::metrics::RunMetrics;
use crate::metrics::{MetricSlot, Metrics};
use crate::page_table::PageTable;
use crate::policy::{PagingPolicy, RemoteCacheModel, WalkEvent};
use crate::resources::BucketedResource;
use crate::stage::datapath::DataPath;
use crate::stage::driver::Driver;
use crate::stage::sched::KernelSchedule;
use crate::stage::translate::{TranslateStage, Translation};
use crate::stats::{AllocAccessStats, RunStats};
#[cfg(feature = "trace")]
use crate::trace::RunTrace;
use crate::trace::{TraceEventKind, TraceStage, Tracer};
use crate::workload::Workload;
use crate::SimError;

/// How a completed run ended (see DESIGN.md, "Error handling &
/// degradation semantics").
#[derive(Clone, Debug)]
pub enum RunOutcome {
    /// The run completed with no degradation events.
    Completed(RunStats),
    /// The run completed, but the engine absorbed faults along the way
    /// (rejected directives, capacity fallbacks, walk-queue stalls, ...).
    Degraded {
        /// Full statistics of the (completed) run.
        stats: RunStats,
        /// Bounded sample of the typed errors behind the degradation
        /// counters (a copy of `stats.degradation.errors`).
        errors: Vec<SimError>,
    },
    /// The run was cut short by a supervision limit — the cycle budget
    /// ([`SimConfig::max_cycles`]) or the livelock watchdog
    /// ([`SimConfig::stall_window`]). The statistics cover the partial run
    /// up to the abort point; counters are flushed but incomplete.
    Aborted {
        /// Why the run was stopped ([`SimError::BudgetExceeded`] or
        /// [`SimError::Livelock`]).
        reason: SimError,
        /// Partial statistics up to the abort.
        stats: RunStats,
    },
}

impl RunOutcome {
    /// The run's statistics, regardless of outcome (partial for
    /// [`RunOutcome::Aborted`]).
    pub fn stats(&self) -> &RunStats {
        match self {
            RunOutcome::Completed(s) => s,
            RunOutcome::Degraded { stats, .. } => stats,
            RunOutcome::Aborted { stats, .. } => stats,
        }
    }

    /// Consumes the outcome, returning the statistics (partial for
    /// [`RunOutcome::Aborted`]).
    pub fn into_stats(self) -> RunStats {
        match self {
            RunOutcome::Completed(s) => s,
            RunOutcome::Degraded { stats, .. } => stats,
            RunOutcome::Aborted { stats, .. } => stats,
        }
    }

    /// `true` for [`RunOutcome::Degraded`].
    pub fn is_degraded(&self) -> bool {
        matches!(self, RunOutcome::Degraded { .. })
    }

    /// `true` for [`RunOutcome::Aborted`].
    pub fn is_aborted(&self) -> bool {
        matches!(self, RunOutcome::Aborted { .. })
    }
}

/// Runs `workload` to completion under `policy` and returns the statistics.
///
/// `remote_cache` optionally interposes a NUBA/SAC-style remote-data cache
/// between local L2 misses and the interconnect.
///
/// Degradation events (rejected directives, capacity fallbacks, stale TLB
/// coverage, walk-queue stalls) do **not** fail the run; they are counted
/// in [`RunStats::degradation`]. Use [`run_outcome`] to distinguish clean
/// from degraded completions.
///
/// # Errors
///
/// * [`SimError::ConfigInvalid`] if `cfg` fails [`SimConfig::validate`].
/// * [`SimError::PolicyViolation`] if the policy fails to resolve a fault
///   it was given.
/// * Any typed error the policy's fault handler returns (e.g.
///   [`SimError::OutOfFrames`] when physical memory is truly exhausted).
/// * [`SimError::BudgetExceeded`] / [`SimError::Livelock`] when a
///   supervision limit fires — callers that want the abort's partial
///   statistics should use [`run_outcome`] and match
///   [`RunOutcome::Aborted`].
///
/// # Examples
///
/// See `examples/quickstart.rs` in the repository root.
pub fn run(
    cfg: &SimConfig,
    workload: &dyn Workload,
    policy: &mut dyn PagingPolicy,
    remote_cache: Option<&mut dyn RemoteCacheModel>,
) -> Result<RunStats, SimError> {
    match run_outcome(cfg, workload, policy, remote_cache)? {
        RunOutcome::Aborted { reason, .. } => Err(reason),
        done => Ok(done.into_stats()),
    }
}

/// Like [`run`], but reports whether the completed run degraded and with
/// which errors. Supervision limits ([`SimConfig::max_cycles`],
/// [`SimConfig::stall_window`]) surface here as `Ok(RunOutcome::Aborted)`
/// with partial statistics rather than as an `Err`.
///
/// # Errors
///
/// Configuration errors and unresolvable faults abort the run.
pub fn run_outcome(
    cfg: &SimConfig,
    workload: &dyn Workload,
    policy: &mut dyn PagingPolicy,
    remote_cache: Option<&mut dyn RemoteCacheModel>,
) -> Result<RunOutcome, SimError> {
    run_machine(cfg, workload, policy, remote_cache).map(|(outcome, _, _)| outcome)
}

/// Like [`run_outcome`], but also returns the run's stage-boundary trace:
/// per-stage latency histograms and the bounded structured event stream
/// (see [`trace`](crate::trace)). Only available with the `trace` cargo
/// feature; tracing does not perturb results — the simulated machine is
/// byte-identical to an untraced run.
///
/// # Errors
///
/// Same as [`run`].
#[cfg(feature = "trace")]
pub fn run_traced(
    cfg: &SimConfig,
    workload: &dyn Workload,
    policy: &mut dyn PagingPolicy,
    remote_cache: Option<&mut dyn RemoteCacheModel>,
) -> Result<(RunOutcome, RunTrace), SimError> {
    run_machine(cfg, workload, policy, remote_cache)
        .map(|(outcome, tracer, _)| (outcome, tracer.into_trace()))
}

/// Like [`run_outcome`], but also returns the run's chiplet-resolved,
/// time-resolved metrics: the per-chiplet counter registry, the sampled
/// time series, and the cross-chiplet traffic matrix (see
/// [`metrics`](crate::metrics)). Only available with the `metrics` cargo
/// feature; metering does not perturb results — the simulated machine is
/// byte-identical to an unmetered run.
///
/// # Errors
///
/// Same as [`run`].
#[cfg(feature = "metrics")]
pub fn run_metered(
    cfg: &SimConfig,
    workload: &dyn Workload,
    policy: &mut dyn PagingPolicy,
    remote_cache: Option<&mut dyn RemoteCacheModel>,
) -> Result<(RunOutcome, RunMetrics), SimError> {
    run_machine(cfg, workload, policy, remote_cache).map(|(outcome, _, metrics)| {
        let end = outcome.stats().cycles;
        (outcome, metrics.into_metrics(end))
    })
}

/// Shared body of [`run_outcome`] / `run_traced` / `run_metered`: runs
/// the machine and hands back the outcome plus the (possibly no-op)
/// tracer and metrics sinks.
fn run_machine(
    cfg: &SimConfig,
    workload: &dyn Workload,
    policy: &mut dyn PagingPolicy,
    remote_cache: Option<&mut dyn RemoteCacheModel>,
) -> Result<(RunOutcome, Tracer, Metrics), SimError> {
    cfg.validate()?;
    let mut m = Machine::new(cfg, workload, remote_cache);
    policy.begin(workload.allocs(), cfg);
    // A tripped supervision limit (budget/watchdog) still flushes the
    // machine's partial statistics — everything else aborts the run.
    let abort = match m.run_all(workload, policy) {
        Ok(()) => None,
        Err(reason @ (SimError::BudgetExceeded { .. } | SimError::Livelock { .. })) => Some(reason),
        Err(e) => return Err(e),
    };
    let tracer = std::mem::take(&mut m.tracer);
    let metrics = std::mem::take(&mut m.metrics);
    let stats = m.finish(policy);
    let outcome = match abort {
        Some(reason) => RunOutcome::Aborted { reason, stats },
        None if stats.degradation.is_degraded() => {
            let errors = stats.degradation.errors.clone();
            RunOutcome::Degraded { stats, errors }
        }
        None => RunOutcome::Completed(stats),
    };
    Ok((outcome, tracer, metrics))
}

/// Translation memo for the engine's same-page repeat fast path
/// (DESIGN.md §15). Warp access streams are line-granular and mostly
/// sequential, so consecutive accesses of a batch usually fall in the
/// page the previous access just resolved — and within a batch nothing
/// can touch the page table or this SM's TLBs, so the full translate
/// path is provably a replay: the same class probes, the same L1 hit,
/// the same PTE. The engine replays only its observable effects
/// ([`TranslateStage::repeat_l1_hit`]) and reuses the cached PTE.
///
/// Scoped to one batch: any fill, fault, directive, or other SM's
/// activity ends the batch (or cannot occur inside it), so no explicit
/// invalidation is needed.
struct RepeatXlate {
    /// VA page number under the *smallest* TLB class's page size: two VAs
    /// agreeing here index identically into every class (class pages are
    /// aligned supersets), which is what makes the skipped probes safe.
    vpn_min: u64,
    /// VA page number under the resolved leaf's page size (same leaf →
    /// same PTE from the unchanged page table).
    leaf_vpn: u64,
    /// `log2(page size)` of the resolved leaf.
    leaf_shift: u32,
    /// L1 TLB class index holding the covering entry.
    class: u32,
    /// Slot of the covering entry within that class.
    slot: u32,
    /// The resolved leaf PTE.
    pte: crate::page_table::Pte,
}

/// Outcome of simulating one memory instruction.
enum AccessResult {
    /// Completed at the given cycle.
    Done(u64),
    /// Hit a demand fault; the issuing warp must retry the access once the
    /// driver resolves it (at the given cycle). Modelling the fault as a
    /// warp reschedule — instead of atomically simulating the post-fault
    /// path thousands of cycles in the future — keeps busy-until resource
    /// state causal across the warp queue.
    Fault(u64),
}

/// The orchestrator: owns the page table (read by translation, written by
/// the driver), the per-SM issue ports, and the run-level statistics the
/// stages flush into.
struct Machine<'c, 'r> {
    cfg: &'c SimConfig,
    /// `line_reuse` of the kernel currently running.
    reuse: u64,
    page_table: PageTable,
    translate: TranslateStage,
    data: DataPath<'r>,
    driver: Driver,
    sm_port: Vec<BucketedResource>,
    stats: RunStats,
    /// Cached `policy.wants_access_samples()` — a per-policy constant,
    /// hoisted out of the per-access path (virtual call) at run start.
    wants_samples: bool,
    /// Per-allocation access tallies, indexed by `AllocId::index()` — a
    /// dense mirror of [`RunStats::per_alloc`] kept flat so the per-access
    /// hot path pays an array index, not a hash probe. Flushed into the
    /// `HashMap` once, at [`Machine::finish`].
    alloc_stats: Vec<AllocAccessStats>,
    next_epoch: u64,
    /// Stage-boundary trace sink (a zero-sized no-op without the `trace`
    /// feature).
    tracer: Tracer,
    /// Chiplet-resolved metrics sink (a zero-sized no-op without the
    /// `metrics` feature).
    metrics: Metrics,
    /// Recycled per-warp access-stream buffers (DESIGN.md §15): retiring
    /// warps return their `Vec<VirtAddr>` here and starting warps refill
    /// one in place, so the steady state allocates nothing per warp.
    stream_pool: Vec<Vec<VirtAddr>>,
}

impl<'c, 'r> Machine<'c, 'r> {
    fn new(
        cfg: &'c SimConfig,
        workload: &dyn Workload,
        remote_cache: Option<&'r mut dyn RemoteCacheModel>,
    ) -> Self {
        Machine {
            cfg,
            reuse: 1,
            page_table: PageTable::new(cfg.layout()),
            translate: TranslateStage::new(cfg),
            data: DataPath::new(cfg, remote_cache),
            driver: Driver::new(cfg, workload.allocs()),
            sm_port: vec![BucketedResource::new(1); cfg.total_sms()],
            stats: RunStats::default(),
            wants_samples: false,
            alloc_stats: vec![AllocAccessStats::default(); workload.allocs().len()],
            next_epoch: cfg.epoch_cycles,
            tracer: Tracer::new(),
            metrics: Metrics::new(cfg),
            stream_pool: Vec::new(),
        }
    }

    fn run_all(
        &mut self,
        workload: &dyn Workload,
        policy: &mut dyn PagingPolicy,
    ) -> Result<(), SimError> {
        let mut now = 0u64;
        self.wants_samples = policy.wants_access_samples();
        for k in 0..workload.num_kernels() {
            now = self.run_kernel(workload, k, now, policy)?;
            let dirs = policy.on_kernel_end(k, now);
            self.tracer.event(TraceEventKind::EpochDirectives {
                epoch: now,
                directives: dirs.len() as u32,
            });
            self.driver.apply_directives(
                self.cfg,
                &mut self.page_table,
                &mut self.translate,
                &mut self.data,
                &dirs,
                policy.ideal_migration(),
                now,
                &mut self.tracer,
                &mut self.metrics,
            );
            if self.cfg.audit_epochs {
                self.driver
                    .audit(self.cfg, &self.page_table, &self.translate);
            }
        }
        self.stats.cycles = now;
        Ok(())
    }

    fn run_kernel(
        &mut self,
        workload: &dyn Workload,
        k: usize,
        start: u64,
        policy: &mut dyn PagingPolicy,
    ) -> Result<u64, SimError> {
        let mut sched = KernelSchedule::new(
            self.cfg,
            workload,
            k,
            start,
            &mut self.stream_pool,
            &mut self.tracer,
        );
        let kd = *sched.kernel();
        self.reuse = kd.line_reuse.max(1) as u64;
        let issue_gap = kd.insts_per_mem as u64;
        let mut end = start;
        // Supervision state: the cycle of the most recent retired access,
        // and how many warp wake-ups in a row retired nothing (a backstop
        // for faulting loops that barely advance the clock).
        let mut last_progress = start;
        let mut idle_pops = 0u64;

        loop {
            let popped = sched.pop();
            let Some((t, wid)) = popped else { break };
            if let Some(max) = self.cfg.max_cycles {
                if t > max {
                    self.stats.cycles = t;
                    return Err(SimError::BudgetExceeded {
                        cycles: t,
                        max_cycles: max,
                    });
                }
            }
            if let Some(window) = self.cfg.stall_window {
                if t.saturating_sub(last_progress) > window || idle_pops > window {
                    self.stats.cycles = t;
                    return Err(SimError::Livelock { cycles: t, window });
                }
            }
            idle_pops += 1;
            // Sampling clock: close metric intervals passed by this pop.
            // A batch's increments land in the interval containing its pop
            // time (DESIGN.md §16).
            self.metrics.tick(t);
            // Epoch callbacks for reactive policies.
            while t >= self.next_epoch {
                let epoch = self.next_epoch;
                let dirs = policy.on_epoch(epoch);
                self.tracer.event(TraceEventKind::EpochDirectives {
                    epoch,
                    directives: dirs.len() as u32,
                });
                self.driver.apply_directives(
                    self.cfg,
                    &mut self.page_table,
                    &mut self.translate,
                    &mut self.data,
                    &dirs,
                    policy.ideal_migration(),
                    epoch,
                    &mut self.tracer,
                    &mut self.metrics,
                );
                if self.cfg.audit_epochs {
                    self.driver
                        .audit(self.cfg, &self.page_table, &self.translate);
                }
                self.next_epoch += self.cfg.epoch_cycles;
            }

            // A warp keeps up to `warp_mlp` independent memory
            // instructions in flight; it blocks until the whole batch
            // returns (GPU load pipelining). A demand fault suspends the
            // warp until the driver resolves it; the faulting access (and
            // the rest of the batch) retries on resume.
            let (sm, tb, batch) = sched.batch(self.cfg, wid);
            if !batch.is_empty() {
                let chiplet = ChipletId::new((sm / self.cfg.sms_per_chiplet) as u8);
                let mut batch_done = t;
                let mut fault_resume = None;
                let mut advanced = 0usize;
                // Same-page translation memo, valid only within this batch.
                let mut repeat: Option<RepeatXlate> = None;
                for (i, va) in batch.iter().enumerate() {
                    let at = t + i as u64 * issue_gap;
                    match self.memory_access(sm, chiplet, tb, *va, at, policy, &mut repeat)? {
                        AccessResult::Done(done) => {
                            batch_done = batch_done.max(done);
                            advanced += 1;
                        }
                        AccessResult::Fault(resume) => {
                            fault_resume = Some(resume.max(batch_done));
                            break;
                        }
                    }
                }
                // Batch-hoisted instruction tallies: one add per batch
                // instead of one per retired access.
                self.stats.mem_insts += advanced as u64 * self.reuse;
                self.stats.warp_insts += advanced as u64 * issue_gap * self.reuse;
                sched.advance(wid, advanced);
                if advanced > 0 {
                    last_progress = last_progress.max(batch_done);
                    idle_pops = 0;
                }
                end = end.max(batch_done);
                self.tracer.sample(TraceStage::Sched, batch_done - t);
                if let Some(resume) = fault_resume {
                    sched.reschedule(wid, resume);
                    continue;
                }
                if !sched.warp_finished(wid) {
                    // Issue time for the (line_reuse - 1) repeats per
                    // access: L1-hit loads dual-issue with their arithmetic
                    // (one cycle each), so they cost issue slots, not full
                    // arithmetic gaps.
                    let repeat_issue = (self.reuse - 1) * advanced as u64;
                    sched.reschedule(wid, batch_done + issue_gap + repeat_issue);
                    continue;
                }
            }
            sched.retire_warp(workload, k, wid, t, &mut self.stream_pool, &mut self.tracer);
        }
        sched.recycle(&mut self.stream_pool);
        Ok(end)
    }

    /// Simulates one warp memory instruction: SM port → translation stage →
    /// data path, with faults routed through the driver stage. `chiplet` is
    /// `sm`'s chiplet, computed once per batch by the caller.
    #[allow(clippy::too_many_arguments)]
    fn memory_access(
        &mut self,
        sm: usize,
        chiplet: ChipletId,
        tb: TbId,
        va: VirtAddr,
        t: u64,
        policy: &mut dyn PagingPolicy,
        repeat: &mut Option<RepeatXlate>,
    ) -> Result<AccessResult, SimError> {
        let issue = self.sm_port[sm].acquire(t, 1);

        // --- Address translation ---
        let min_shift = self.translate.min_class_shift();
        let hot = repeat
            .as_ref()
            .filter(|r| {
                va.raw() >> min_shift == r.vpn_min && va.raw() >> r.leaf_shift == r.leaf_vpn
            })
            .map(|r| (r.class, r.slot, r.pte));
        let (pte, tt, walked) = if let Some((class, slot, pte)) = hot {
            // Same page as the previous access of this batch: replay the
            // L1 hit's observable effects and reuse the PTE (see
            // [`RepeatXlate`]). An L1 hit never consults the GMMU server.
            self.translate
                .repeat_l1_hit(sm, chiplet, class, slot, &mut self.metrics);
            (pte, issue + self.cfg.l1_tlb_latency, false)
        } else {
            let gmmu_free = self.driver.gmmu_ready(chiplet);
            match self.translate.translate(
                self.cfg,
                &self.page_table,
                &mut self.data,
                sm,
                chiplet,
                va,
                issue,
                gmmu_free,
                &mut self.tracer,
                &mut self.metrics,
            )? {
                Translation::Done { pte, done, walked } => {
                    // Arm (or disarm) the memo for the next access. `None`
                    // when the entry could not be cached in the L1 TLB —
                    // the next same-page access would miss again.
                    *repeat = self.translate.last_l1().map(|(class, slot)| RepeatXlate {
                        vpn_min: va.raw() >> self.translate.min_class_shift(),
                        leaf_vpn: va.raw() >> pte.size.shift(),
                        leaf_shift: pte.size.shift(),
                        class,
                        slot,
                        pte,
                    });
                    (pte, done, walked)
                }
                Translation::Fault { at } => {
                    let resume = self.driver.resolve_fault(
                        self.cfg,
                        &mut self.page_table,
                        &mut self.translate,
                        &mut self.data,
                        policy,
                        sm,
                        chiplet,
                        tb,
                        va,
                        at,
                        &mut self.tracer,
                        &mut self.metrics,
                    )?;
                    self.tracer.sample(TraceStage::Fault, resume - at);
                    return Ok(AccessResult::Fault(resume));
                }
            }
        };
        if walked {
            policy.on_walk(&WalkEvent {
                va,
                alloc: pte.alloc,
                requester: chiplet,
                data_chiplet: self.page_table.layout().chiplet_of(pte.pa),
                cycle: tt,
            });
        }
        self.stats.translation_cycles += tt - issue;
        self.tracer.sample(TraceStage::Translate, tt - issue);

        // --- Data access ---
        let pa = pte.pa + va.offset_in(pte.size.bytes());
        let data_chiplet = self.page_table.layout().chiplet_of(pa);
        let remote = data_chiplet != chiplet;
        if remote {
            self.stats.remote_insts += self.reuse;
            self.metrics
                .add(chiplet, MetricSlot::RemoteAccess, self.reuse);
        } else {
            self.metrics
                .add(chiplet, MetricSlot::LocalAccess, self.reuse);
        }
        let idx = pte.alloc.index();
        if idx >= self.alloc_stats.len() {
            self.alloc_stats
                .resize(idx + 1, AllocAccessStats::default());
        }
        self.alloc_stats[idx].accesses += self.reuse;
        if remote {
            self.alloc_stats[idx].remote += self.reuse;
        }
        // The (reuse - 1) unsimulated repeats hit the L1 cache and L1 TLB.
        self.data.stats.l1d_hits += self.reuse - 1;
        self.translate.stats.l1tlb_hits += self.reuse - 1;
        self.metrics
            .add(chiplet, MetricSlot::L1TlbHit, self.reuse - 1);
        if self.wants_samples {
            policy.on_access(&WalkEvent {
                va,
                alloc: pte.alloc,
                requester: chiplet,
                data_chiplet,
                cycle: tt,
            });
        }

        let done = self.data.access(
            self.cfg,
            sm,
            chiplet,
            data_chiplet,
            pa,
            tt,
            &mut self.tracer,
            &mut self.metrics,
        );
        self.stats.data_cycles += done - tt;
        self.tracer.sample(TraceStage::Data, done - tt);
        Ok(AccessResult::Done(done))
    }

    /// Flushes every stage's statistics slice and the policy's allocator
    /// tallies into the run-level statistics, consuming the machine.
    fn finish(mut self, policy: &mut dyn PagingPolicy) -> RunStats {
        // Flush the dense per-allocation tallies; only touched allocations
        // get a map entry, exactly as the old per-access `entry()` did.
        for (i, st) in self.alloc_stats.iter().enumerate() {
            if st.accesses > 0 {
                self.stats
                    .per_alloc
                    .insert(mcm_types::AllocId::new(i as u16), *st);
            }
        }
        self.translate.stats.flush_into(&mut self.stats);
        self.data.flush_into(self.cfg, &mut self.stats);
        self.driver.stats.flush_into(&mut self.stats);
        self.stats.blocks_consumed = policy.blocks_consumed();
        self.stats.degradation.fallback_remote_frames = policy.frame_fallbacks();
        self.stats
    }
}
