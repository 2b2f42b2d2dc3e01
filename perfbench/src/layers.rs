//! Traced-run instrumentation: wrappers around the public seams every
//! sweep cell already goes through, recording spans and per-layer counts
//! from outside the program.
//!
//! * [`TracedWorkload`] wraps `mcm_sim::Workload` (layer `workloads`);
//! * [`TracedPolicy`] wraps the `mcm_sim::PagingPolicy` that
//!   `ConfigKind::build` returns (layers `policies` and `core`);
//! * [`run_cell`] mirrors `Harness::try_run_workload`'s dispatch —
//!   `ConfigKind::build` then `run_outcome` (layer `engine`), or
//!   `Replay::capture` then `Replay::predict` (layer `analytic`);
//! * the benchmark times the closure it hands `Harness::sweep_stats`
//!   (layer `bench`).
//!
//! Each cell's calls are timed on the cell's worker thread and kept in
//! memory as spans; the run writes them out when it ends. Stream
//! generation, `on_access` and `on_walk` fire per warp, per memory
//! instruction or per page walk, so they are counted on every call but
//! timed — and recorded as a span — on one call in [`SAMPLE_EVERY`]; their
//! total time is the sampled time scaled up by lines (generation) or calls
//! (callbacks).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use mcm_bench::configs::ConfigKind;
use mcm_sim::analytic::Replay;
use mcm_sim::{
    run_outcome, AllocInfo, Directive, FaultCtx, KernelDesc, PagingPolicy, RunOutcome, SimConfig,
    SimError, WalkEvent, Workload,
};
use mcm_types::{TbId, VirtAddr, WarpId};
use mcm_workloads::SyntheticWorkload;

/// One in this many stream-generation, `on_access` and `on_walk` calls is
/// timed.
pub const SAMPLE_EVERY: u64 = 64;

/// The layer a paging policy belongs to: the baselines of mcm-policies,
/// or the CLAP family of clap-core.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PolicyLayer {
    /// mcm-policies baselines (static paging, C-NUMA, GRIT, MGvm, ...).
    Policies,
    /// clap-core CLAP and its variants.
    Core,
}

impl PolicyLayer {
    /// The layer of the policy `kind` builds.
    pub fn of(kind: ConfigKind) -> PolicyLayer {
        match kind {
            ConfigKind::Clap
            | ConfigKind::ClapSa
            | ConfigKind::ClapSaPlusPlus
            | ConfigKind::ClapMigration
            | ConfigKind::ClapPmm(_)
            | ConfigKind::ClapNoOlp
            | ConfigKind::ClapNoRt => PolicyLayer::Core,
            _ => PolicyLayer::Policies,
        }
    }

    /// Metric-name prefix.
    pub fn name(self) -> &'static str {
        match self {
            PolicyLayer::Policies => "policies",
            PolicyLayer::Core => "core",
        }
    }
}

/// One recorded call: which layer and call, when (nanoseconds since the
/// run's clock origin), and the sweep cell it belongs to (`None` for a
/// cell span).
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Layer, e.g. `policies`.
    pub layer: &'static str,
    /// Call, e.g. `on_fault`.
    pub call: &'static str,
    /// Start, in ns since [`Clock`] origin.
    pub start_ns: u64,
    /// End, in ns since [`Clock`] origin.
    pub end_ns: u64,
    /// Parent cell index.
    pub cell: Option<usize>,
}

/// The run's monotonic clock origin.
#[derive(Clone, Copy, Debug)]
pub struct Clock(Instant);

impl Clock {
    /// A clock whose origin is now.
    pub fn start() -> Clock {
        Clock(Instant::now())
    }

    /// Nanoseconds since the origin.
    pub fn ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

/// Callback tallies of one policy layer.
#[derive(Clone, Debug, Default)]
pub struct PolicyTally {
    /// `begin` + `on_kernel_end` time (every call timed).
    pub other_ns: u64,
    /// `on_fault` calls and their time (every call timed).
    pub fault_calls: u64,
    /// Time in `on_fault`.
    pub fault_ns: u64,
    /// `on_access` calls.
    pub access_calls: u64,
    /// Timed `on_access` calls and their time.
    pub access_sampled: u64,
    /// Time in the timed `on_access` calls.
    pub access_sampled_ns: u64,
    /// `on_walk` calls.
    pub walk_calls: u64,
    /// Timed `on_walk` calls.
    pub walk_sampled: u64,
    /// Time in the timed `on_walk` calls.
    pub walk_sampled_ns: u64,
    /// `on_epoch` calls and their time (every call timed).
    pub epoch_calls: u64,
    /// Time in `on_epoch`.
    pub epoch_ns: u64,
    /// Directives the policy returned.
    pub directives: u64,
    /// Directives the engine rejected (`DegradationStats`).
    pub rejected: u64,
}

fn scaled(sampled_ns: u64, sampled: u64, calls: u64) -> f64 {
    if sampled == 0 {
        0.0
    } else {
        sampled_ns as f64 * calls as f64 / sampled as f64
    }
}

impl PolicyTally {
    /// Estimated `on_access` time: sampled time scaled to every call.
    pub fn access_ns(&self) -> f64 {
        scaled(
            self.access_sampled_ns,
            self.access_sampled,
            self.access_calls,
        )
    }

    /// Estimated total time inside the policy.
    pub fn self_ns(&self) -> f64 {
        (self.other_ns + self.fault_ns + self.epoch_ns) as f64
            + self.access_ns()
            + scaled(self.walk_sampled_ns, self.walk_sampled, self.walk_calls)
    }

    /// Adds `other`'s tallies.
    pub fn add(&mut self, o: &PolicyTally) {
        self.other_ns += o.other_ns;
        self.fault_calls += o.fault_calls;
        self.fault_ns += o.fault_ns;
        self.access_calls += o.access_calls;
        self.access_sampled += o.access_sampled;
        self.access_sampled_ns += o.access_sampled_ns;
        self.walk_calls += o.walk_calls;
        self.walk_sampled += o.walk_sampled;
        self.walk_sampled_ns += o.walk_sampled_ns;
        self.epoch_calls += o.epoch_calls;
        self.epoch_ns += o.epoch_ns;
        self.directives += o.directives;
        self.rejected += o.rejected;
    }
}

/// Everything one cell recorded (read once the cell's closure returns).
#[derive(Clone, Debug, Default)]
pub struct CellTally {
    /// Cell index in the sweep.
    pub index: usize,
    /// Duration of the closure handed to `Harness::sweep_stats`.
    pub closure_ns: u64,
    /// Streams (warp access vectors) generated.
    pub streams: u64,
    /// Lines generated.
    pub lines: u64,
    /// Lines of the timed streams.
    pub sampled_lines: u64,
    /// Generation time of the timed streams.
    pub sampled_gen_ns: u64,
    /// The cell ran on the cycle engine (else: the analytic model).
    pub cycle: bool,
    /// Duration of `run_outcome` (cycle cells).
    pub run_ns: u64,
    /// Policy layer and tallies (cycle cells).
    pub layer: Option<PolicyLayer>,
    /// Policy callback tallies.
    pub policy: PolicyTally,
    /// `Replay::capture` calls made by this cell.
    pub captures: u64,
    /// Duration of the captures.
    pub capture_ns: u64,
    /// Lines generated inside the captures.
    pub capture_lines: u64,
}

impl CellTally {
    /// Estimated stream-generation time: sampled time scaled up by lines.
    pub fn gen_ns(&self) -> f64 {
        scaled(self.sampled_gen_ns, self.sampled_lines, self.lines)
    }

    /// Estimated generation time inside `Replay::capture`.
    pub fn capture_gen_ns(&self) -> f64 {
        if self.lines == 0 {
            0.0
        } else {
            self.gen_ns() * self.capture_lines as f64 / self.lines as f64
        }
    }
}

/// Per-cell recorder shared by the cell's wrappers. Only the cell's own
/// worker thread touches it, so the locks are never contended; the
/// workload wrapper needs `Sync`, hence atomics and a mutex.
pub struct CellRecorder {
    clock: Clock,
    index: usize,
    streams: AtomicU64,
    lines: AtomicU64,
    sampled_lines: AtomicU64,
    sampled_gen_ns: AtomicU64,
    spans: Mutex<Vec<Span>>,
    tally: Mutex<CellTally>,
}

impl CellRecorder {
    /// A recorder for cell `index`.
    pub fn new(clock: Clock, index: usize) -> CellRecorder {
        CellRecorder {
            clock,
            index,
            streams: AtomicU64::new(0),
            lines: AtomicU64::new(0),
            sampled_lines: AtomicU64::new(0),
            sampled_gen_ns: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
            tally: Mutex::new(CellTally {
                index,
                ..CellTally::default()
            }),
        }
    }

    fn span(&self, layer: &'static str, call: &'static str, start_ns: u64, end_ns: u64) {
        self.spans
            .lock()
            .expect("cell spans are only locked by the cell's own thread")
            .push(Span {
                layer,
                call,
                start_ns,
                end_ns,
                cell: Some(self.index),
            });
    }

    fn tally(&self) -> std::sync::MutexGuard<'_, CellTally> {
        self.tally
            .lock()
            .expect("cell tally is only locked by the cell's own thread")
    }

    /// Closes the cell: its span plus tallies, given the closure's bounds.
    pub fn finish(self, start_ns: u64, end_ns: u64) -> (CellTally, Vec<Span>) {
        let mut tally = self.tally.into_inner().expect("cell tally lock poisoned");
        tally.closure_ns = end_ns - start_ns;
        tally.streams = self.streams.into_inner();
        tally.lines = self.lines.into_inner();
        tally.sampled_lines = self.sampled_lines.into_inner();
        tally.sampled_gen_ns = self.sampled_gen_ns.into_inner();
        let mut spans = self.spans.into_inner().expect("cell spans lock poisoned");
        spans.push(Span {
            layer: "bench",
            call: "cell",
            start_ns,
            end_ns,
            cell: None,
        });
        (tally, spans)
    }
}

/// A `Workload` that counts every stream and line it generates and times
/// one stream in [`SAMPLE_EVERY`].
pub struct TracedWorkload<'a> {
    inner: &'a SyntheticWorkload,
    rec: &'a CellRecorder,
}

impl TracedWorkload<'_> {
    /// Generates one stream through `gen`, timing one call in
    /// [`SAMPLE_EVERY`]; `gen` returns the stream's length.
    fn generate(&self, gen: impl FnOnce() -> usize) {
        let rec = self.rec;
        let n = rec.streams.fetch_add(1, Ordering::Relaxed);
        let len = if n.is_multiple_of(SAMPLE_EVERY) {
            let start = rec.clock.ns();
            let len = gen();
            let end = rec.clock.ns();
            rec.span("workloads", "warp_accesses", start, end);
            rec.sampled_gen_ns.fetch_add(end - start, Ordering::Relaxed);
            rec.sampled_lines.fetch_add(len as u64, Ordering::Relaxed);
            len
        } else {
            gen()
        };
        rec.lines.fetch_add(len as u64, Ordering::Relaxed);
    }
}

impl Workload for TracedWorkload<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn allocs(&self) -> &[AllocInfo] {
        self.inner.allocs()
    }

    fn num_kernels(&self) -> usize {
        self.inner.num_kernels()
    }

    fn kernel(&self, k: usize) -> KernelDesc {
        self.inner.kernel(k)
    }

    fn warp_accesses(&self, k: usize, tb: TbId, warp: WarpId) -> Vec<VirtAddr> {
        let mut out = Vec::new();
        self.generate(|| {
            out = self.inner.warp_accesses(k, tb, warp);
            out.len()
        });
        out
    }

    fn warp_accesses_into(&self, k: usize, tb: TbId, warp: WarpId, out: &mut Vec<VirtAddr>) {
        self.generate(|| {
            self.inner.warp_accesses_into(k, tb, warp, out);
            out.len()
        });
    }
}

/// A `PagingPolicy` that counts every callback it forwards and times them
/// (`on_access` and `on_walk` one call in [`SAMPLE_EVERY`]). Owned by one
/// cell's run, so its tallies are plain fields.
pub struct TracedPolicy<'a> {
    inner: Box<dyn PagingPolicy>,
    layer: PolicyLayer,
    rec: &'a CellRecorder,
    tally: PolicyTally,
    spans: Vec<Span>,
}

impl<'a> TracedPolicy<'a> {
    fn new(inner: Box<dyn PagingPolicy>, layer: PolicyLayer, rec: &'a CellRecorder) -> Self {
        TracedPolicy {
            inner,
            layer,
            rec,
            tally: PolicyTally::default(),
            spans: Vec::new(),
        }
    }

    /// Times `f`, recording a span for `call`; returns the result and the
    /// elapsed nanoseconds.
    fn timed<R>(
        &mut self,
        call: &'static str,
        f: impl FnOnce(&mut dyn PagingPolicy) -> R,
    ) -> (R, u64) {
        let start = self.rec.clock.ns();
        let r = f(self.inner.as_mut());
        let end = self.rec.clock.ns();
        self.spans.push(Span {
            layer: self.layer.name(),
            call,
            start_ns: start,
            end_ns: end,
            cell: Some(self.rec.index),
        });
        (r, end - start)
    }

    fn finish(self) {
        let mut t = self.rec.tally();
        t.layer = Some(self.layer);
        t.policy = self.tally;
        drop(t);
        self.rec
            .spans
            .lock()
            .expect("cell spans are only locked by the cell's own thread")
            .extend(self.spans);
    }
}

impl PagingPolicy for TracedPolicy<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn begin(&mut self, allocs: &[AllocInfo], cfg: &SimConfig) {
        let ((), ns) = self.timed("begin", |p| p.begin(allocs, cfg));
        self.tally.other_ns += ns;
    }

    fn on_fault(&mut self, ctx: &FaultCtx) -> Result<Vec<Directive>, SimError> {
        let (r, ns) = self.timed("on_fault", |p| p.on_fault(ctx));
        self.tally.fault_calls += 1;
        self.tally.fault_ns += ns;
        if let Ok(d) = &r {
            self.tally.directives += d.len() as u64;
        }
        r
    }

    fn on_walk(&mut self, ev: &WalkEvent) {
        let sampled = self.tally.walk_calls.is_multiple_of(SAMPLE_EVERY);
        self.tally.walk_calls += 1;
        if sampled {
            let ((), ns) = self.timed("on_walk", |p| p.on_walk(ev));
            self.tally.walk_sampled_ns += ns;
            self.tally.walk_sampled += 1;
        } else {
            self.inner.on_walk(ev);
        }
    }

    fn wants_access_samples(&self) -> bool {
        self.inner.wants_access_samples()
    }

    fn on_access(&mut self, ev: &WalkEvent) {
        let sampled = self.tally.access_calls.is_multiple_of(SAMPLE_EVERY);
        self.tally.access_calls += 1;
        if sampled {
            let ((), ns) = self.timed("on_access", |p| p.on_access(ev));
            self.tally.access_sampled_ns += ns;
            self.tally.access_sampled += 1;
        } else {
            self.inner.on_access(ev);
        }
    }

    fn on_epoch(&mut self, cycle: u64) -> Vec<Directive> {
        let (d, ns) = self.timed("on_epoch", |p| p.on_epoch(cycle));
        self.tally.epoch_calls += 1;
        self.tally.epoch_ns += ns;
        self.tally.directives += d.len() as u64;
        d
    }

    fn on_kernel_end(&mut self, kernel: usize, cycle: u64) -> Vec<Directive> {
        let (d, ns) = self.timed("on_kernel_end", |p| p.on_kernel_end(kernel, cycle));
        self.tally.other_ns += ns;
        self.tally.directives += d.len() as u64;
        d
    }

    fn ideal_migration(&self) -> bool {
        self.inner.ideal_migration()
    }

    fn blocks_consumed(&self) -> Option<usize> {
        self.inner.blocks_consumed()
    }

    fn frame_fallbacks(&self) -> u64 {
        self.inner.frame_fallbacks()
    }
}

/// Size-1 keyed replay cache, as `Harness` keeps one: sweeps iterate
/// configurations inside workloads, so one captured workload serves a
/// whole row. The lock is held across the capture, as in `Harness`.
#[derive(Default)]
pub struct ReplayCache(Mutex<Option<(u64, Arc<Replay>)>>);

/// Identity of a workload's streams, computed as `Harness` keys its replay
/// cache: name, structures, kernel shapes, and two probe streams per
/// kernel (first and middle threadblock, warp 0).
fn replay_key<W: Workload + ?Sized>(w: &W) -> u64 {
    use std::fmt::Write as _;
    let mut key = String::new();
    key.push_str(w.name());
    for a in w.allocs() {
        let _ = write!(key, "|{a:?}");
    }
    for k in 0..w.num_kernels() {
        let kd = w.kernel(k);
        let _ = write!(key, "|k{k}:{}x{}", kd.num_tbs, kd.warps_per_tb);
        if kd.warps_per_tb == 0 {
            continue;
        }
        for t in [0, kd.num_tbs / 2] {
            if t >= kd.num_tbs {
                continue;
            }
            let _ = write!(key, "|p");
            for va in w.warp_accesses(k, TbId::new(t), WarpId::new(0)) {
                let _ = write!(key, ",{:x}", va.raw());
            }
        }
    }
    mcm_types::fnv1a(&key)
}

impl ReplayCache {
    fn replay_for(&self, w: &TracedWorkload<'_>) -> Arc<Replay> {
        let key = replay_key(w);
        let mut slot = self.0.lock().unwrap_or_else(|p| p.into_inner());
        if let Some((k, replay)) = slot.as_ref() {
            if *k == key {
                return Arc::clone(replay);
            }
        }
        let rec = w.rec;
        let lines0 = rec.lines.load(Ordering::Relaxed);
        let start = rec.clock.ns();
        let replay = Arc::new(Replay::capture(w));
        let end = rec.clock.ns();
        rec.span("analytic", "capture", start, end);
        let mut t = rec.tally();
        t.captures += 1;
        t.capture_ns += end - start;
        t.capture_lines += rec.lines.load(Ordering::Relaxed) - lines0;
        drop(t);
        *slot = Some((key, Arc::clone(&replay)));
        replay
    }
}

/// Runs one cell under tracing, dispatching as `Harness::try_run_workload`
/// does on the cycle and analytic engines: `ConfigKind::build` then
/// `run_outcome`, or — on the analytic engine, for configurations with a
/// closed-form placement model — a cached `Replay::capture` then
/// `Replay::predict`.
///
/// # Errors
///
/// Propagates fatal simulation errors, as the harness does.
pub fn run_cell(
    analytic: bool,
    base: &SimConfig,
    w: &SyntheticWorkload,
    kind: ConfigKind,
    cache: &ReplayCache,
    rec: &CellRecorder,
) -> Result<RunOutcome, SimError> {
    let tw = TracedWorkload { inner: w, rec };
    let model = if analytic {
        kind.placement_model(w.allocs(), base.num_chiplets)
    } else {
        None
    };
    match model {
        None => {
            let (policy, cfg) = kind.build(base);
            let mut policy = TracedPolicy::new(policy, PolicyLayer::of(kind), rec);
            let start = rec.clock.ns();
            let out = run_outcome(&cfg, &tw, &mut policy, None);
            let end = rec.clock.ns();
            rec.span("engine", "run_outcome", start, end);
            if let Ok(o) = &out {
                policy.tally.rejected = o.stats().degradation.rejected_directives;
            }
            policy.finish();
            let mut t = rec.tally();
            t.cycle = true;
            t.run_ns += end - start;
            out
        }
        Some(pm) => {
            let (_, cfg) = kind.build(base);
            let replay = cache.replay_for(&tw);
            let start = rec.clock.ns();
            let stats = replay.predict(&cfg, &pm);
            rec.span("analytic", "predict", start, rec.clock.ns());
            Ok(RunOutcome::Completed(stats?.into_run_stats()))
        }
    }
}
