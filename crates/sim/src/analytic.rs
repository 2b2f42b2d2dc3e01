//! Closed-form analytic fast-path engine.
//!
//! A second backend behind the same [`SimConfig`]/[`Workload`] interface
//! as the cycle-approximate engine: instead of simulating queues, caches
//! and retries event-by-event, [`predict`] replays each kernel's access
//! streams once (round-robin by access index, the same interleaving the
//! locality survey uses) and derives the figure-of-merit statistics in
//! closed form:
//!
//! - **Remote-access ratio** — placement is resolved per granule (first
//!   touch or static analysis, mirroring `mcm_policies`' placement rules),
//!   and an access is remote exactly when the granule's owner differs from
//!   the requesting threadblock's chiplet.
//! - **Interconnect transfers / average hops** — remote lines filtered
//!   through an L2-capacity working-set model, routed over the run's
//!   [`Topology`](crate::interconnect::Topology) via its pure `hops`.
//! - **L1/L2 TLB miss rates** — an independent-reference reach model:
//!   with `u` distinct translation units against `e` entries, misses are
//!   compulsory (`u`) when the footprint fits and `n·(u−e)/u` when it
//!   overflows.
//! - **Page-walk and fault counts** — walks follow L2 TLB misses plus one
//!   faulting walk per demand granule; demand granularity is fixed at
//!   64KB for every page size, so faults are the distinct 64KB granules
//!   touched.
//!
//! Every count is an integer sum over the captured streams, so
//! [`Replay`] reduces the streams once per threadblock schedule (a
//! fold) and resolves each configuration against that fold in
//! O(granules + SMs × structures).
//!
//! The model is deterministic and orders of magnitude faster than the
//! cycle engine; `crates/bench/tests/cross_validation.rs` pins its
//! per-metric error against the simulator. See DESIGN.md §14 for the
//! equations and the error-band methodology.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, PoisonError};

use mcm_types::{AllocId, PageSize, TbId, VirtAddr, WarpId, BASE_PAGE_BYTES};

use crate::config::SimConfig;
use crate::error::SimError;
use crate::interconnect::build_topology;
use crate::policy::{AllocInfo, StaticHint};
use crate::stats::{AllocAccessStats, RunStats};
use crate::workload::{tb_chiplet, Workload};

/// How the analytic model resolves a virtual granule to its owning
/// chiplet. Mirrors the placement rules of the paging policies in
/// `mcm_policies` (placement granularity is `max(page, 64KB)` — 4KB pages
/// still place whole 64KB frames, as the demand path does).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PlacementModel {
    /// First-touch placement at one uniform page size (the `S-*`, MGvm,
    /// fBarre and Ideal configurations).
    FirstTouch {
        /// Translation page size (also the placement granule, floored at
        /// 64KB).
        page: PageSize,
    },
    /// Offline static-analysis placement at one uniform page size (the
    /// `SA-*` configurations): the owner is a pure function of the
    /// granule's offset within its structure and the structure's locality
    /// hint.
    StaticAnalysis {
        /// Translation page size (also the placement granule, floored at
        /// 64KB).
        page: PageSize,
    },
    /// First-touch placement with a per-structure page size (the CLAP
    /// family: OLP picks each structure's size from its locality period).
    /// Structures absent from `sizes` default to 64KB.
    PerAllocFirstTouch {
        /// `(structure, selected size)` pairs.
        sizes: Vec<(AllocId, PageSize)>,
    },
}

impl PlacementModel {
    /// The CLAP approximation: per-structure page sizes chosen the way
    /// OLP would — the largest native size that still fits inside one
    /// chiplet's span of the structure's locality period (shared
    /// structures take 2MB reach, irregular ones stay at 64KB).
    pub fn clap(allocs: &[AllocInfo], chiplets: usize) -> PlacementModel {
        let sizes = allocs
            .iter()
            .map(|a| {
                let size = match a.hint {
                    StaticHint::Partitioned { period_bytes } => {
                        let p = if period_bytes == 0 || period_bytes > a.bytes {
                            a.bytes
                        } else {
                            period_bytes
                        };
                        let span = p / chiplets.max(1) as u64;
                        if span >= PageSize::Size2M.bytes() {
                            PageSize::Size2M
                        } else {
                            PageSize::Size64K
                        }
                    }
                    StaticHint::Shared => PageSize::Size2M,
                    StaticHint::Irregular => PageSize::Size64K,
                };
                (a.id, size)
            })
            .collect();
        PlacementModel::PerAllocFirstTouch { sizes }
    }

    /// Translation/placement page size for one structure.
    pub fn page_for(&self, alloc: AllocId) -> PageSize {
        match self {
            PlacementModel::FirstTouch { page } | PlacementModel::StaticAnalysis { page } => *page,
            PlacementModel::PerAllocFirstTouch { sizes } => sizes
                .iter()
                .find(|(id, _)| *id == alloc)
                .map(|(_, s)| *s)
                .unwrap_or(PageSize::Size64K),
        }
    }
}

/// The analytic engine's prediction — the figure-of-merit subset of
/// [`RunStats`], plus the model's capacity-cliff self-assessment.
#[derive(Clone, Debug, Default)]
pub struct AnalyticStats {
    /// Memory instructions (line accesses × reuse), as the engine counts
    /// them.
    pub mem_insts: u64,
    /// Warp instructions issued (`insts_per_mem` per memory instruction).
    pub warp_insts: u64,
    /// Memory instructions whose granule is owned by a remote chiplet.
    pub remote_insts: u64,
    /// Demand faults: distinct 64KB granules touched (demand granularity
    /// is 64KB at every page size).
    pub faults: u64,
    /// Page walks: L2 TLB misses plus the faulting first walk per granule.
    pub walks: u64,
    /// L1 TLB hits (includes the per-instruction reuse credited without
    /// lookup, as in the engine).
    pub l1tlb_hits: u64,
    /// L1 TLB misses under the independent-reference reach model.
    pub l1tlb_misses: u64,
    /// L2 TLB hits.
    pub l2tlb_hits: u64,
    /// L2 TLB misses under the independent-reference reach model.
    pub l2tlb_misses: u64,
    /// Remote line transfers after the L2-capacity working-set filter.
    pub interconnect_transfers: u64,
    /// Mean topology hops per transfer.
    pub avg_hops: f64,
    /// Coarse cycle estimate (issue + latency + bandwidth + fault bounds).
    /// Useful only for normalized comparisons between analytic cells —
    /// the cross-validation suite pins no error band on it.
    pub cycles: u64,
    /// Per-structure access/remote counts.
    pub per_alloc: HashMap<AllocId, AllocAccessStats>,
    /// Metrics whose inputs sit near a capacity cliff (footprint within
    /// 0.75–1.5× of the relevant structure's capacity), where the reach
    /// model is least trustworthy. Non-empty ⇒ a hybrid sweep escalates
    /// this cell to the cycle engine.
    pub near_cliff: Vec<String>,
}

impl AnalyticStats {
    /// Remote access ratio of memory instructions.
    pub fn remote_ratio(&self) -> f64 {
        ratio(self.remote_insts, self.mem_insts)
    }

    /// L1 TLB miss rate over all lookups.
    pub fn l1tlb_miss_rate(&self) -> f64 {
        ratio(self.l1tlb_misses, self.l1tlb_hits + self.l1tlb_misses)
    }

    /// L2 TLB miss rate over L2 lookups.
    pub fn l2tlb_miss_rate(&self) -> f64 {
        ratio(self.l2tlb_misses, self.l2tlb_hits + self.l2tlb_misses)
    }

    /// `true` when any predicted metric sits near a capacity cliff and a
    /// hybrid sweep should fall back to the cycle engine.
    pub fn needs_escalation(&self) -> bool {
        !self.near_cliff.is_empty()
    }

    /// Projects the prediction onto [`RunStats`] so analytic cells flow
    /// through the same grids, telemetry records and CSV writers as
    /// simulated ones. Fields the model does not predict stay zero.
    pub fn into_run_stats(self) -> RunStats {
        RunStats {
            cycles: self.cycles,
            mem_insts: self.mem_insts,
            warp_insts: self.warp_insts,
            remote_insts: self.remote_insts,
            faults: self.faults,
            walks: self.walks,
            l1tlb_hits: self.l1tlb_hits,
            l1tlb_misses: self.l1tlb_misses,
            l2tlb_hits: self.l2tlb_hits,
            l2tlb_misses: self.l2tlb_misses,
            interconnect_transfers: self.interconnect_transfers,
            per_alloc: self.per_alloc,
            ..RunStats::default()
        }
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Static-analysis owner of the granule at `offset` within `info` —
/// the same pure function `mcm_policies`' SA placement applies (kept in
/// sync by the cross-validation suite, since `sim` cannot depend on
/// `policies`).
fn sa_chiplet(info: &AllocInfo, offset: u64, chiplets: usize) -> usize {
    match info.hint {
        StaticHint::Partitioned { period_bytes } => {
            let p = if period_bytes == 0 || period_bytes > info.bytes {
                info.bytes
            } else {
                period_bytes
            };
            if p == 0 {
                return 0;
            }
            let pos = offset % p;
            ((pos as u128 * chiplets as u128 / p as u128) as usize).min(chiplets - 1)
        }
        StaticHint::Shared | StaticHint::Irregular => {
            ((offset / BASE_PAGE_BYTES) % chiplets as u64) as usize
        }
    }
}

/// One TLB entry's coverage in pages of its class — the coalescing reach
/// of the run's translation hardware (64KB class only; see
/// `TranslateStage`).
fn coverage_group(cfg: &SimConfig, size: PageSize) -> u64 {
    if size != PageSize::Size64K {
        return 1;
    }
    if cfg.translation.ideal_2m_reach {
        32
    } else if cfg.translation.coalescing_64k || cfg.translation.barre_pattern {
        16
    } else {
        1
    }
}

/// Independent-reference misses: `u` distinct units against `e` entries,
/// over `n` lookups. Compulsory-only when the footprint fits; otherwise
/// the steady-state miss fraction `(u − e)/u` of the lookups (never fewer
/// than the compulsory `u`).
fn reach_misses(n: u64, u: u64, e: u64) -> u64 {
    if u <= e {
        u.min(n)
    } else {
        let steady = (n as f64 * (u - e) as f64 / u as f64).round() as u64;
        steady.max(u).min(n)
    }
}

/// Flags `label` when `footprint` sits inside the cliff region around
/// `capacity` (0.75–1.5×), where the reach model flips between its two
/// regimes and is least accurate.
fn cliff_check(near_cliff: &mut Vec<String>, label: &str, footprint: u64, capacity: u64) {
    if capacity == 0 {
        return;
    }
    let lo = (capacity as f64 * 0.75) as u64;
    let hi = (capacity as f64 * 1.5) as u64;
    if footprint >= lo && footprint <= hi && !near_cliff.iter().any(|s| s == label) {
        near_cliff.push(label.to_string());
    }
}

/// A workload's access streams, captured once into flat per-kernel
/// arenas and replayable against any machine configuration and
/// placement model. Stream generation (the `Workload::warp_accesses`
/// pattern math) is configuration-independent, so sweeps that evaluate
/// one workload under several configurations capture once and predict
/// many times. Prediction is split in two: a [`Fold`] reduces the
/// streams once per (chiplets, SMs per chiplet, line size), and each
/// configuration resolves against it (DESIGN.md §14).
pub struct Replay {
    allocs: Vec<AllocInfo>,
    kernels: Vec<ReplayKernel>,
    /// Per structure, per 64KB demand granule: the replay-order key
    /// ([`ft_key`]) of the granule's first toucher, [`u64::MAX`] when
    /// untouched. First touch is the only order-dependent quantity the
    /// model needs, and the replay order — kernels in sequence, warps
    /// round-robin by access index — is configuration-independent, so it
    /// is folded here once; [`Replay::predict`] maps the winning stream
    /// to its chiplet under each configuration's schedule.
    first_touch: Vec<Vec<u64>>,
    /// Folds under the engine's own schedule ([`tb_chiplet`]), keyed by
    /// the configuration fields a fold depends on.
    folds: Mutex<Vec<(FoldKey, Arc<Fold>)>>,
}

/// `(num_chiplets, sms_per_chiplet, line_bytes)`: everything in a
/// configuration that a [`Fold`] under the engine's schedule depends on.
type FoldKey = (usize, usize, u64);

/// One kernel's captured streams, flattened stream-major (TB-major,
/// warp-minor: stream `s` belongs to threadblock `s / warps_per_tb`).
/// Within a stream, everything the model counts is order-independent
/// (first touch is already folded into [`Replay::first_touch`]), so each
/// stream is stored deduplicated: sorted distinct VAs with
/// multiplicities. Workloads whose warps revisit their working set
/// (`passes` > 1) shrink proportionally.
struct ReplayKernel {
    desc: crate::workload::KernelDesc,
    /// `flat[offsets[s] as usize..offsets[s + 1] as usize]` is stream
    /// `s`'s distinct raw VAs, ascending.
    offsets: Vec<u64>,
    flat: Vec<u64>,
    /// Occurrence count of each `flat` entry within its stream.
    mult: Vec<u32>,
}

/// Replay-order key of access `i` of stream `s` in kernel `k`: keys
/// compare exactly as the replay interleaving orders accesses (kernels
/// in sequence, then round-robin by access index, then stream order).
fn ft_key(k: usize, i: usize, s: usize) -> u64 {
    ((k as u64) << 56) | ((i as u64) << 32) | s as u64
}

impl std::fmt::Debug for Replay {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Replay")
            .field("allocs", &self.allocs.len())
            .field("kernels", &self.kernels.len())
            .field(
                "distinct_accesses",
                &self.kernels.iter().map(|k| k.flat.len()).sum::<usize>(),
            )
            .finish()
    }
}

impl Replay {
    /// Materializes every warp's access stream of `workload` and folds
    /// the per-granule first-touch keys.
    ///
    /// # Panics
    ///
    /// Panics if the workload exceeds the first-touch key space (256
    /// kernels, `u32::MAX` streams per kernel, 16M accesses per stream —
    /// all far above any evaluation scale).
    pub fn capture<W: Workload + ?Sized>(workload: &W) -> Replay {
        let allocs = workload.allocs().to_vec();
        // Per structure: 64KB-granule first-touch table and the index
        // base that turns a raw VA into a slot.
        let mut first_touch: Vec<Vec<u64>> = allocs
            .iter()
            .map(|a| vec![u64::MAX; span(a, DEMAND_SHIFT)])
            .collect();
        let ft_bases: Vec<u64> = allocs
            .iter()
            .map(|a| a.base.raw() >> DEMAND_SHIFT)
            .collect();
        assert!(
            workload.num_kernels() <= 256,
            "workload exceeds the first-touch key space (256 kernels)"
        );
        let mut kernels = Vec::with_capacity(workload.num_kernels());
        let mut last_alloc = 0usize;
        // One stream buffer, reused by every stream.
        let mut stream: Vec<VirtAddr> = Vec::new();
        for k in 0..workload.num_kernels() {
            let desc = workload.kernel(k);
            let nstreams = desc.num_tbs as usize * desc.warps_per_tb as usize;
            assert!(
                nstreams <= u32::MAX as usize,
                "kernel {k} exceeds the replay's u32 stream index space"
            );
            let mut offsets = Vec::with_capacity(nstreams + 1);
            let mut flat = Vec::new();
            let mut mult = Vec::new();
            offsets.push(0u64);
            for t in 0..desc.num_tbs {
                for w in 0..desc.warps_per_tb {
                    let s = offsets.len() - 1;
                    workload.warp_accesses_into(k, TbId::new(t), WarpId::new(w), &mut stream);
                    assert!(
                        stream.len() <= 1 << 24,
                        "kernel {k} stream exceeds the first-touch key space (16M accesses)"
                    );
                    for (i, va) in stream.iter().enumerate() {
                        // Resolve the structure (streams run through one
                        // structure at a time, so cache the last hit).
                        if !allocs
                            .get(last_alloc)
                            .map(|a| a.contains(*va))
                            .unwrap_or(false)
                        {
                            last_alloc = match allocs.iter().position(|a| a.contains(*va)) {
                                Some(idx) => idx,
                                None => continue,
                            };
                        }
                        let slot = ((va.raw() >> DEMAND_SHIFT) - ft_bases[last_alloc]) as usize;
                        let key = ft_key(k, i, s);
                        let best = &mut first_touch[last_alloc][slot];
                        if key < *best {
                            *best = key;
                        }
                    }
                    // First touch is folded; nothing else depends on
                    // the order, so the stream is sorted in place.
                    stream.sort_unstable();
                    for run in stream.chunk_by(|a, b| a == b) {
                        flat.push(run[0].raw());
                        mult.push(run.len() as u32);
                    }
                    offsets.push(flat.len() as u64);
                }
            }
            kernels.push(ReplayKernel {
                desc,
                offsets,
                flat,
                mult,
            });
        }
        Replay {
            allocs,
            kernels,
            first_touch,
            folds: Mutex::new(Vec::new()),
        }
    }

    /// Predicts the captured workload's figure-of-merit statistics
    /// closed-form, scheduling threadblocks to chiplets exactly as the
    /// engine does ([`tb_chiplet`]). The fold this needs is computed on
    /// the first call for each `(num_chiplets, sms_per_chiplet,
    /// line_bytes)` and reused by every later one.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::ConfigInvalid`] when `cfg` fails validation or
    /// its line is larger than the 64KB demand granule.
    pub fn predict(
        &self,
        cfg: &SimConfig,
        placement: &PlacementModel,
    ) -> Result<AnalyticStats, SimError> {
        check_config(cfg)?;
        let key = (cfg.num_chiplets, cfg.sms_per_chiplet, cfg.line_bytes);
        let fold = {
            // Held across the fold, so concurrent predicts on one replay
            // fold it once.
            let mut folds = self.folds.lock().unwrap_or_else(PoisonError::into_inner);
            match folds.iter().find(|(k, _)| *k == key) {
                Some((_, fold)) => Arc::clone(fold),
                None => {
                    let chiplets = cfg.num_chiplets;
                    let fold = Arc::new(Fold::build(self, cfg, |tb, num_tbs| {
                        tb_chiplet(tb, num_tbs, chiplets)
                    }));
                    folds.push((key, Arc::clone(&fold)));
                    fold
                }
            }
        };
        Ok(fold.resolve(self, cfg, placement))
    }

    /// [`Replay::predict`] with an explicit threadblock→chiplet schedule
    /// — the hook the property tests use to show the model is invariant
    /// under chiplet relabeling. The fold is computed for this call and
    /// not cached.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::ConfigInvalid`] when `cfg` fails validation or
    /// its line is larger than the 64KB demand granule.
    pub fn predict_scheduled(
        &self,
        cfg: &SimConfig,
        placement: &PlacementModel,
        schedule: impl Fn(TbId, u32) -> usize,
    ) -> Result<AnalyticStats, SimError> {
        check_config(cfg)?;
        Ok(Fold::build(self, cfg, schedule).resolve(self, cfg, placement))
    }
}

/// Predicts the run's figure-of-merit statistics closed-form, scheduling
/// threadblocks to chiplets exactly as the engine does
/// ([`tb_chiplet`]). One-shot wrapper over [`Replay::capture`] +
/// [`Replay::predict`]; sweeps evaluating one workload under several
/// configurations should capture once instead.
///
/// # Errors
///
/// Returns [`SimError::ConfigInvalid`] when `cfg` fails validation.
pub fn predict<W: Workload + ?Sized>(
    cfg: &SimConfig,
    workload: &W,
    placement: &PlacementModel,
) -> Result<AnalyticStats, SimError> {
    Replay::capture(workload).predict(cfg, placement)
}

/// [`predict`] with an explicit threadblock→chiplet schedule.
///
/// # Errors
///
/// Returns [`SimError::ConfigInvalid`] when `cfg` fails validation.
pub fn predict_scheduled<W: Workload + ?Sized>(
    cfg: &SimConfig,
    workload: &W,
    placement: &PlacementModel,
    schedule: impl Fn(TbId, u32) -> usize,
) -> Result<AnalyticStats, SimError> {
    Replay::capture(workload).predict_scheduled(cfg, placement, schedule)
}

/// `log2` of the 64KB demand granule: the fold's slot size.
const DEMAND_SHIFT: u32 = BASE_PAGE_BYTES.trailing_zeros();

/// Translation-unit sizes the fold counts distinct units at: `4KB << i`
/// for `i` in `0..UNIT_SIZES`, 4KB through 2MB. A TLB entry's reach (a
/// page, or a 64KB page times a coverage group of at most 32) is always
/// one of them.
const UNIT_SIZES: usize = 10;

/// `log2` of the smallest translation unit (4KB).
const PAGE_SHIFT: u32 = 12;

/// `log2` of the region one page bitset covers (2MB, the largest unit).
const REGION_SHIFT: u32 = PAGE_SHIFT + UNIT_SIZES as u32 - 1;

/// 64-bit words in one region's 4KB-page bitset.
const REGION_WORDS: usize = 1 << (REGION_SHIFT - PAGE_SHIFT - 6);

/// One structure's placement under one resolve: its granule owner table,
/// the index bases/shifts that map a fold's 64KB slot to its granule,
/// and its TLB reach and class. All
/// sizes involved are powers of two, which `SimConfig::validate`
/// guarantees for `line_bytes` and `PageSize` guarantees for the rest.
struct AllocPlacement {
    /// Structure base address.
    base: u64,
    /// `log2` of the placement granule (`max(page, 64KB)`).
    gran_shift: u32,
    /// `base >> gran_shift` — subtracted to index [`Self::owners`].
    gran_base: u64,
    /// Granule → owning chiplet; `u8::MAX` = never touched.
    owners: Vec<u8>,
    /// `base >> 16` — the index base of 64KB slots (the replay's
    /// first-touch table and the fold's slot tallies).
    demand_base: u64,
    /// One TLB entry's reach as an index into [`Fold`]'s unit counts:
    /// `log2(page × coverage group) − 12`.
    unit: usize,
    /// Index of the structure's page size in the resolve's class list.
    class: usize,
}

impl AllocPlacement {
    fn new(
        cfg: &SimConfig,
        a: &AllocInfo,
        placement: &PlacementModel,
        classes: &[PageSize],
    ) -> AllocPlacement {
        let page = placement.page_for(a.id);
        let base = a.base.raw();
        let gran_shift = page.bytes().max(BASE_PAGE_BYTES).trailing_zeros();
        let unit_shift = (page.bytes() * coverage_group(cfg, page)).trailing_zeros();
        AllocPlacement {
            base,
            gran_shift,
            gran_base: base >> gran_shift,
            owners: vec![u8::MAX; span(a, gran_shift)],
            demand_base: base >> DEMAND_SHIFT,
            unit: (unit_shift - PAGE_SHIFT) as usize,
            class: classes.iter().position(|p| *p == page).unwrap_or(0),
        }
    }
}

/// Slots `a` spans at `1 << shift` granularity, counting the partial
/// slots a non-aligned base adds at both ends.
fn span(a: &AllocInfo, shift: u32) -> usize {
    if a.bytes == 0 {
        0
    } else {
        let base = a.base.raw();
        (((base + a.bytes - 1) >> shift) - (base >> shift) + 1) as usize
    }
}

/// Adds, for every unit size `4KB << i`, the number of distinct units a
/// 2MB region's 4KB-page bitset touches to `counts[i]`.
fn count_units(words: &[u64], counts: &mut [u64; UNIT_SIZES]) {
    // Bit 0 of every group of 2, 4, ..., 64 bits.
    const GROUP_LOW: [u64; 6] = [
        0x5555_5555_5555_5555,
        0x1111_1111_1111_1111,
        0x0101_0101_0101_0101,
        0x0001_0001_0001_0001,
        0x0000_0001_0000_0001,
        0x0000_0000_0000_0001,
    ];
    debug_assert_eq!(words.len(), REGION_WORDS);
    // Bit `i`: word `i` is non-zero (one 256KB unit touched).
    let mut nonzero = 0u32;
    for (i, &w) in words.iter().enumerate() {
        counts[0] += u64::from(w.count_ones());
        // Collapse each group of 2^(j+1) pages onto its lowest bit.
        let mut x = w;
        for (j, low) in GROUP_LOW.iter().enumerate() {
            x = (x | (x >> (1u32 << j))) & low;
            counts[j + 1] += u64::from(x.count_ones());
        }
        nonzero |= u32::from(w != 0) << i;
    }
    // 512KB, 1MB and 2MB units span 2, 4 and 8 words.
    let pairs = (nonzero | nonzero >> 1) & 0x55;
    let quads = (pairs | pairs >> 2) & 0x11;
    counts[7] += u64::from(pairs.count_ones());
    counts[8] += u64::from(quads.count_ones());
    counts[9] += u64::from(nonzero != 0);
}

/// Counts and clears bits `[lo, lo + len)` of `bits`.
fn take_bits(bits: &mut [u64], lo: usize, len: usize) -> u64 {
    let (mut i, end, mut n) = (lo, lo + len, 0u64);
    while i < end {
        let bit = i & 63;
        let take = (64 - bit).min(end - i);
        let mask = if take == 64 {
            u64::MAX
        } else {
            ((1u64 << take) - 1) << bit
        };
        n += u64::from((bits[i >> 6] & mask).count_ones());
        bits[i >> 6] &= !mask;
        i += take;
    }
    n
}

/// What one requesting chiplet did to one 64KB demand slot of one
/// structure. The placement granule is `max(page, 64KB)`, so the slot
/// has a single owner under every placement model.
#[derive(Clone, Copy, Debug)]
struct SlotTally {
    /// Slot index, relative to the structure's `base >> 16`.
    slot: u32,
    /// Distinct lines the chiplet touched in the slot.
    lines: u32,
    /// Σm: accesses (post-dedup multiplicities) before line reuse.
    elems: u64,
    /// Σ reuse·m: memory instructions.
    insts: u64,
}

/// Everything [`Replay::predict`] counts, reduced in one pass over the
/// captured streams under one threadblock→(chiplet, SM) schedule. A
/// configuration then resolves against it in
/// O(granules + SMs × structures) ([`Fold::resolve`]) instead of
/// rescanning every stream entry. It holds no per-stream data.
struct Fold {
    /// Chiplet of each threadblock, per kernel: maps first-touch winners
    /// to their chiplet.
    tb_chiplet: Vec<Vec<u8>>,
    /// Per (requesting chiplet, structure): the touched slots, ascending.
    slots: Vec<Vec<SlotTally>>,
    /// Per (SM, structure): L1 TLB lookups (Σm).
    sm_lookups: Vec<u64>,
    /// Per (SM, structure): distinct translation units at each size.
    sm_units: Vec<[u64; UNIT_SIZES]>,
    /// Per (chiplet, structure): distinct translation units at each size
    /// over the union of the chiplet's SMs.
    chiplet_units: Vec<[u64; UNIT_SIZES]>,
    /// Σm over every stream entry inside a structure.
    elems: u64,
    /// Σ reuse·m.
    mem_insts: u64,
    /// Σ insts_per_mem·reuse·m.
    warp_insts: u64,
}

/// Transient per-structure state of one fold: dense tallies over the
/// structure's 64KB slots, a distinct-line bitset, and 4KB-page bitsets
/// over its 2MB regions for the current SM and chiplet. Flushes visit
/// and clear only the slots and regions the lists name.
struct FoldScratch {
    /// `base >> 16`.
    demand_base: u64,
    /// Σm per slot; non-zero exactly for the slots in `touched`.
    slot_elems: Vec<u64>,
    /// Σ reuse·m per slot.
    slot_insts: Vec<u64>,
    /// Slots touched by the current chiplet.
    touched: Vec<u32>,
    /// `(base >> 16 << 16) >> log2(line_bytes)`: lines are indexed from
    /// the first slot's start, so each slot's lines are one bit range.
    line_base: u64,
    /// Distinct lines the current chiplet touched.
    lines: Vec<u64>,
    /// `(base >> 21) << 9`: pages are indexed from the first region's
    /// start, so each region's pages are [`REGION_WORDS`] whole words.
    page_base: u64,
    /// 4KB pages the current SM touched, and the regions they lie in.
    sm_pages: Vec<u64>,
    sm_regions: Vec<u32>,
    /// 4KB pages the current chiplet touched, and their regions.
    chiplet_pages: Vec<u64>,
    chiplet_regions: Vec<u32>,
    /// Per region: listed in `sm_regions` (bit 0), in `chiplet_regions`
    /// (bit 1).
    region_listed: Vec<u8>,
}

impl FoldScratch {
    fn new(a: &AllocInfo, line_shift: u32) -> FoldScratch {
        let base = a.base.raw();
        let slots = span(a, DEMAND_SHIFT);
        let regions = span(a, REGION_SHIFT);
        let page_words = regions * REGION_WORDS;
        FoldScratch {
            demand_base: base >> DEMAND_SHIFT,
            slot_elems: vec![0; slots],
            slot_insts: vec![0; slots],
            touched: Vec::new(),
            line_base: (base >> DEMAND_SHIFT << DEMAND_SHIFT) >> line_shift,
            lines: vec![0; (slots << (DEMAND_SHIFT - line_shift)).div_ceil(64)],
            page_base: (base >> REGION_SHIFT) << (REGION_SHIFT - PAGE_SHIFT),
            sm_pages: vec![0; page_words],
            sm_regions: Vec::new(),
            chiplet_pages: vec![0; page_words],
            chiplet_regions: Vec::new(),
            region_listed: vec![0; regions],
        }
    }

    /// Counts the current SM's units into `counts`, merges its pages
    /// into the chiplet's and clears them.
    fn flush_sm(&mut self, counts: &mut [u64; UNIT_SIZES]) {
        for &r in &self.sm_regions {
            let r = r as usize;
            let words = r * REGION_WORDS..(r + 1) * REGION_WORDS;
            count_units(&self.sm_pages[words.clone()], counts);
            for (c, w) in self.chiplet_pages[words.clone()]
                .iter_mut()
                .zip(&mut self.sm_pages[words])
            {
                *c |= *w;
                *w = 0;
            }
            if self.region_listed[r] & 2 == 0 {
                self.chiplet_regions.push(r as u32);
            }
            self.region_listed[r] = 2;
        }
        self.sm_regions.clear();
    }

    /// Counts the current chiplet's units into `counts` and its slots
    /// into `tallies`, and clears both.
    fn flush_chiplet(
        &mut self,
        line_shift: u32,
        counts: &mut [u64; UNIT_SIZES],
        tallies: &mut Vec<SlotTally>,
    ) {
        for &r in &self.chiplet_regions {
            let r = r as usize;
            let words = &mut self.chiplet_pages[r * REGION_WORDS..(r + 1) * REGION_WORDS];
            count_units(words, counts);
            words.fill(0);
            self.region_listed[r] = 0;
        }
        self.chiplet_regions.clear();
        let lines_per_slot = 1usize << (DEMAND_SHIFT - line_shift);
        self.touched.sort_unstable();
        tallies.reserve_exact(self.touched.len());
        for &s in &self.touched {
            let i = s as usize;
            tallies.push(SlotTally {
                slot: s,
                lines: take_bits(&mut self.lines, i * lines_per_slot, lines_per_slot) as u32,
                elems: std::mem::take(&mut self.slot_elems[i]),
                insts: std::mem::take(&mut self.slot_insts[i]),
            });
        }
        self.touched.clear();
    }
}

impl Fold {
    /// Folds `replay`'s streams under `schedule` for `cfg`'s chiplet
    /// count, SMs per chiplet and line size — the only configuration
    /// fields a fold depends on. Streams are visited SM by SM and chiplet
    /// by chiplet, so the page and line sets only ever hold one SM's and
    /// one chiplet's footprint.
    fn build(replay: &Replay, cfg: &SimConfig, schedule: impl Fn(TbId, u32) -> usize) -> Fold {
        let chiplets = cfg.num_chiplets;
        let sms_per_chiplet = cfg.sms_per_chiplet;
        let total_sms = chiplets * sms_per_chiplet;
        let allocs = &replay.allocs;
        let na = allocs.len();
        let line_shift = cfg.line_bytes.trailing_zeros();

        // Threadblock → chiplet, and every (kernel, threadblock) listed
        // under its SM, with the engine's round-robin assignment within
        // each chiplet.
        let mut tb_chiplet = Vec::with_capacity(replay.kernels.len());
        let mut by_sm: Vec<Vec<(u32, u32)>> = vec![Vec::new(); total_sms];
        for (k, rk) in replay.kernels.iter().enumerate() {
            let num_tbs = rk.desc.num_tbs;
            let mut sm_counter = vec![0usize; chiplets];
            let chs: Vec<u8> = (0..num_tbs)
                .map(|t| {
                    let ch = schedule(TbId::new(t), num_tbs).min(chiplets - 1);
                    let sm = ch * sms_per_chiplet + sm_counter[ch] % sms_per_chiplet;
                    sm_counter[ch] += 1;
                    by_sm[sm].push((k as u32, t));
                    ch as u8
                })
                .collect();
            tb_chiplet.push(chs);
        }

        let mut scratch: Vec<FoldScratch> = allocs
            .iter()
            .map(|a| FoldScratch::new(a, line_shift))
            .collect();
        let mut fold = Fold {
            tb_chiplet,
            slots: vec![Vec::new(); chiplets * na],
            sm_lookups: vec![0; total_sms * na],
            sm_units: vec![[0; UNIT_SIZES]; total_sms * na],
            chiplet_units: vec![[0; UNIT_SIZES]; chiplets * na],
            elems: 0,
            mem_insts: 0,
            warp_insts: 0,
        };
        let mut last_alloc = 0usize;
        // The cached structure's [base, base + bytes) as two locals, so
        // the common stays-in-structure case is one compare.
        let (mut cur_lo, mut cur_len) = allocs.first().map_or((1, 0), |a| (a.base.raw(), a.bytes));
        for (ch, chiplet_sms) in by_sm.chunks(sms_per_chiplet).enumerate() {
            for (i, tbs) in chiplet_sms.iter().enumerate() {
                let sm = ch * sms_per_chiplet + i;
                let lookups = &mut fold.sm_lookups[sm * na..(sm + 1) * na];
                for &(k, t) in tbs {
                    let rk = &replay.kernels[k as usize];
                    let reuse = rk.desc.line_reuse.max(1) as u64;
                    let wpt = rk.desc.warps_per_tb as usize;
                    let streams = t as usize * wpt..(t as usize + 1) * wpt;
                    let (lo, hi) = (
                        rk.offsets[streams.start] as usize,
                        rk.offsets[streams.end] as usize,
                    );
                    let mut elems = 0u64;
                    for (&raw, &m) in rk.flat[lo..hi].iter().zip(&rk.mult[lo..hi]) {
                        // Resolve the structure (distinct VAs are sorted,
                        // so a stream crosses each structure once).
                        if raw.wrapping_sub(cur_lo) >= cur_len {
                            last_alloc =
                                match allocs.iter().position(|a| a.contains(VirtAddr::new(raw))) {
                                    Some(idx) => idx,
                                    None => continue,
                                };
                            cur_lo = allocs[last_alloc].base.raw();
                            cur_len = allocs[last_alloc].bytes;
                        }
                        let m = m as u64;
                        let st = &mut scratch[last_alloc];
                        let slot = ((raw >> DEMAND_SHIFT) - st.demand_base) as usize;
                        if st.slot_elems[slot] == 0 {
                            st.touched.push(slot as u32);
                        }
                        st.slot_elems[slot] += m;
                        st.slot_insts[slot] += reuse * m;
                        let line = ((raw >> line_shift) - st.line_base) as usize;
                        st.lines[line >> 6] |= 1u64 << (line & 63);
                        let page = ((raw >> PAGE_SHIFT) - st.page_base) as usize;
                        let region = page >> (REGION_SHIFT - PAGE_SHIFT);
                        if st.region_listed[region] & 1 == 0 {
                            st.region_listed[region] |= 1;
                            st.sm_regions.push(region as u32);
                        }
                        st.sm_pages[page >> 6] |= 1u64 << (page & 63);
                        lookups[last_alloc] += m;
                        elems += m;
                    }
                    fold.elems += elems;
                    fold.mem_insts += reuse * elems;
                    fold.warp_insts += rk.desc.insts_per_mem.max(1) as u64 * reuse * elems;
                }
                for (a, st) in scratch.iter_mut().enumerate() {
                    st.flush_sm(&mut fold.sm_units[sm * na + a]);
                }
            }
            for (a, st) in scratch.iter_mut().enumerate() {
                st.flush_chiplet(
                    line_shift,
                    &mut fold.chiplet_units[ch * na + a],
                    &mut fold.slots[ch * na + a],
                );
            }
        }
        fold
    }

    /// Resolves one configuration against the fold: granule owners under
    /// `placement`, then sums over slot tallies and unit counts. Every
    /// count is an integer sum, so the f64 reach, hop and cycle formulas
    /// see exactly the integers a per-entry scan would feed them.
    fn resolve(
        &self,
        replay: &Replay,
        cfg: &SimConfig,
        placement: &PlacementModel,
    ) -> AnalyticStats {
        let chiplets = cfg.num_chiplets;
        let topo = build_topology(cfg);
        let allocs = &replay.allocs;
        let na = allocs.len();
        // Distinct translation classes among the structures, in size order.
        let mut classes: Vec<PageSize> = allocs.iter().map(|a| placement.page_for(a.id)).collect();
        classes.sort_by_key(|p| p.bytes());
        classes.dedup();
        let nc = classes.len().max(1);
        let mut mods: Vec<AllocPlacement> = allocs
            .iter()
            .map(|a| AllocPlacement::new(cfg, a, placement, &classes))
            .collect();
        let total_sms = chiplets * cfg.sms_per_chiplet;
        // Granule owners. Static analysis is a pure function of the
        // granule offset. First touch maps each granule's winning replay
        // key (folded at capture over its 64KB sub-granules) to the
        // winning stream's threadblock, and that to its chiplet.
        let sa = matches!(placement, PlacementModel::StaticAnalysis { .. });
        for (a, am) in mods.iter_mut().enumerate() {
            if sa {
                for g in 0..am.owners.len() {
                    let offset =
                        ((am.gran_base + g as u64) << am.gran_shift).saturating_sub(am.base);
                    am.owners[g] = sa_chiplet(&allocs[a], offset, chiplets) as u8;
                }
                continue;
            }
            let sub_shift = am.gran_shift - DEMAND_SHIFT;
            let mut best = vec![u64::MAX; am.owners.len()];
            for (j, &key) in replay.first_touch[a].iter().enumerate() {
                if key == u64::MAX {
                    continue;
                }
                let g = (((am.demand_base + j as u64) >> sub_shift) - am.gran_base) as usize;
                if key < best[g] {
                    best[g] = key;
                }
            }
            for (g, &key) in best.iter().enumerate() {
                if key != u64::MAX {
                    let (k, s) = ((key >> 56) as usize, (key & u32::MAX as u64) as usize);
                    let warps_per_tb = replay.kernels[k].desc.warps_per_tb as usize;
                    am.owners[g] = self.tb_chiplet[k][s / warps_per_tb];
                }
            }
        }

        let mut st = AnalyticStats {
            mem_insts: self.mem_insts,
            warp_insts: self.warp_insts,
            ..AnalyticStats::default()
        };
        // Remote traffic per (requester, owner): post-reuse element counts
        // and distinct lines.
        let mut remote_elems = vec![vec![0u64; chiplets]; chiplets];
        let mut remote_lines = vec![vec![0u64; chiplets]; chiplets];
        // Elements landing on each owner chiplet's DRAM (bandwidth bound).
        let mut owner_elems = vec![0u64; chiplets];
        let mut per_alloc = vec![AllocAccessStats::default(); na];
        for req in 0..chiplets {
            for (a, am) in mods.iter().enumerate() {
                let sub_shift = am.gran_shift - DEMAND_SHIFT;
                for t in &self.slots[req * na + a] {
                    let g =
                        (((am.demand_base + t.slot as u64) >> sub_shift) - am.gran_base) as usize;
                    let owner = am.owners[g] as usize;
                    debug_assert!(owner < chiplets, "touched granule has an owner");
                    owner_elems[owner] += t.elems;
                    per_alloc[a].accesses += t.insts;
                    if owner != req {
                        st.remote_insts += t.insts;
                        per_alloc[a].remote += t.insts;
                        remote_elems[req][owner] += t.elems;
                        remote_lines[req][owner] += u64::from(t.lines);
                    }
                }
            }
        }

        // L1 TLB: reach model per (SM, class); misses become L2 lookups on
        // the SM's chiplet.
        let mut l2_lookups = vec![0u64; chiplets * nc];
        for sm in 0..total_sms {
            for (c, page) in classes.iter().enumerate() {
                let (mut n, mut u) = (0u64, 0u64);
                for (a, am) in mods.iter().enumerate().filter(|(_, am)| am.class == c) {
                    n += self.sm_lookups[sm * na + a];
                    u += self.sm_units[sm * na + a][am.unit];
                }
                if n == 0 {
                    continue;
                }
                let e = cfg.tlb_entries(*page).l1 as u64;
                let miss = reach_misses(n, u, e);
                cliff_check(&mut st.near_cliff, "l1tlb", u, e);
                st.l1tlb_misses += miss;
                l2_lookups[(sm / cfg.sms_per_chiplet) * nc + c] += miss;
            }
        }
        st.l1tlb_hits = st.mem_insts.saturating_sub(st.l1tlb_misses);

        // L2 TLB: reach model per (chiplet, class) over the chiplet's union
        // footprint; misses walk.
        let mut l2_total_lookups = 0u64;
        for ch in 0..chiplets {
            for (c, page) in classes.iter().enumerate() {
                let n = l2_lookups[ch * nc + c];
                if n == 0 {
                    continue;
                }
                let u: u64 = mods
                    .iter()
                    .enumerate()
                    .filter(|(_, am)| am.class == c)
                    .map(|(a, am)| self.chiplet_units[ch * na + a][am.unit])
                    .sum();
                let e = cfg.tlb_entries(*page).l2 as u64;
                let miss = reach_misses(n, u, e);
                cliff_check(&mut st.near_cliff, "l2tlb", u, e);
                st.l2tlb_misses += miss;
                l2_total_lookups += n;
            }
        }
        st.l2tlb_hits = l2_total_lookups.saturating_sub(st.l2tlb_misses);

        st.faults = replay
            .first_touch
            .iter()
            .map(|ft| ft.iter().filter(|&&key| key != u64::MAX).count() as u64)
            .sum();
        st.walks = st.l2tlb_misses + st.faults;
        for (i, a) in allocs.iter().enumerate() {
            if per_alloc[i].accesses > 0 {
                st.per_alloc.insert(a.id, per_alloc[i]);
            }
        }

        // Interconnect: a requester whose distinct remote working set fits
        // its L2 transfers each line once; an overflowing one streams every
        // post-L1 remote element across the fabric.
        let mut hop_sum = 0.0f64;
        for req in 0..chiplets {
            let distinct: u64 = remote_lines[req].iter().sum();
            let bytes = distinct * cfg.line_bytes;
            let cached = bytes <= cfg.effective_l2d_bytes() as u64;
            if distinct > 0 {
                cliff_check(
                    &mut st.near_cliff,
                    "transfers",
                    bytes,
                    cfg.effective_l2d_bytes() as u64,
                );
            }
            for own in 0..chiplets {
                let count = if cached {
                    remote_lines[req][own]
                } else {
                    remote_elems[req][own]
                };
                if count == 0 {
                    continue;
                }
                st.interconnect_transfers += count;
                hop_sum += count as f64
                    * topo.hops(
                        mcm_types::ChipletId::new(own as u8),
                        mcm_types::ChipletId::new(req as u8),
                    ) as f64;
            }
        }
        st.avg_hops = if st.interconnect_transfers == 0 {
            0.0
        } else {
            hop_sum / st.interconnect_transfers as f64
        };

        st.cycles = estimate_cycles(cfg, &st, self.elems, &owner_elems, hop_sum);
        st
    }
}

/// Validates `cfg` for the analytic model: everything
/// `SimConfig::validate` checks, plus a line no larger than the 64KB
/// demand granule the fold counts lines in.
fn check_config(cfg: &SimConfig) -> Result<(), SimError> {
    cfg.validate()?;
    if cfg.line_bytes > BASE_PAGE_BYTES {
        return Err(SimError::ConfigInvalid {
            reason: format!(
                "the analytic model counts lines per 64KB demand granule, \
                 so line_bytes must not exceed it, got {}",
                cfg.line_bytes
            ),
        });
    }
    Ok(())
}

/// Coarse cycle estimate: the issue stream plus the largest of the
/// latency, per-chiplet DRAM-bandwidth, link-bandwidth and fault-service
/// bounds. Good enough to rank analytic cells against each other;
/// never cross-validated against simulated cycles.
fn estimate_cycles(
    cfg: &SimConfig,
    st: &AnalyticStats,
    elems: u64,
    owner_elems: &[u64],
    hop_sum: f64,
) -> u64 {
    let total_sms = cfg.total_sms().max(1) as f64;
    let overlap = (cfg.max_warps_per_sm * cfg.warp_mlp).max(1) as f64;
    let issue = st.warp_insts as f64 / total_sms;
    let local = (elems - st.interconnect_transfers.min(elems)) as f64;
    let lat_sum = local * (cfg.l1d_latency + cfg.l2d_latency) as f64
        + st.interconnect_transfers as f64 * (cfg.l2d_latency + cfg.dram_latency) as f64
        + hop_sum * 2.0 * cfg.hop_latency as f64
        + st.walks as f64 * (cfg.pwc_latency * 4 + cfg.pte_mem_latency) as f64;
    let lat_bound = lat_sum / (total_sms * overlap);
    let dram_bound = owner_elems
        .iter()
        .map(|&n| n as f64 * cfg.dram_service as f64 / cfg.dram_channels.max(1) as f64)
        .fold(0.0f64, f64::max);
    let link_bound =
        st.interconnect_transfers as f64 * cfg.link_service as f64 / cfg.num_chiplets.max(1) as f64;
    let fault_bound = st.faults as f64 * cfg.fault_latency as f64
        / (cfg.num_chiplets * cfg.page_walkers).max(1) as f64;
    (issue + lat_bound + dram_bound.max(link_bound) + fault_bound) as u64 + cfg.fault_latency
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{TileMapping, TiledGemm};

    fn quick_cfg() -> SimConfig {
        SimConfig::baseline().scaled(8)
    }

    #[test]
    fn gemm_prediction_is_sane() {
        let w = TiledGemm::new(8, 8, 4, TileMapping::RowMajor);
        let s = predict(
            &quick_cfg(),
            &w,
            &PlacementModel::FirstTouch {
                page: PageSize::Size64K,
            },
        )
        .unwrap();
        assert!(s.mem_insts > 0);
        assert!(s.remote_ratio() >= 0.0 && s.remote_ratio() <= 1.0);
        assert!(s.faults > 0);
        assert!(s.walks >= s.l2tlb_misses);
        assert!(s.l1tlb_hits + s.l1tlb_misses == s.mem_insts);
    }

    #[test]
    fn clap_sizes_follow_hints() {
        let w = TiledGemm::new(8, 8, 4, TileMapping::RowMajor);
        let pm = PlacementModel::clap(w.allocs(), 4);
        let PlacementModel::PerAllocFirstTouch { sizes } = &pm else {
            panic!("clap model is per-alloc");
        };
        assert_eq!(sizes.len(), w.allocs().len());
        // The shared B matrix takes 2MB reach.
        let b = w
            .allocs()
            .iter()
            .find(|a| a.hint == StaticHint::Shared)
            .unwrap();
        assert_eq!(pm.page_for(b.id), PageSize::Size2M);
    }

    #[test]
    fn single_tb_has_no_remote_traffic() {
        // One threadblock ⇒ one chiplet touches everything first ⇒ every
        // granule is local under first touch.
        let w = TiledGemm::new(1, 1, 1, TileMapping::RowMajor);
        let s = predict(
            &quick_cfg(),
            &w,
            &PlacementModel::FirstTouch {
                page: PageSize::Size64K,
            },
        )
        .unwrap();
        assert_eq!(s.remote_insts, 0);
        assert_eq!(s.interconnect_transfers, 0);
        assert_eq!(s.avg_hops, 0.0);
    }

    #[test]
    fn invalid_config_is_rejected() {
        let mut cfg = quick_cfg();
        cfg.num_chiplets = 3;
        let w = TiledGemm::new(2, 2, 2, TileMapping::RowMajor);
        let e = predict(
            &cfg,
            &w,
            &PlacementModel::FirstTouch {
                page: PageSize::Size64K,
            },
        );
        assert!(matches!(e, Err(SimError::ConfigInvalid { .. })));
    }
}
