//! Differential tests for the analytic engine's fold/resolve split.
//!
//! `Replay::predict` reduces the captured streams once per
//! (chiplets, SMs per chiplet, line size) and resolves each configuration
//! against that fold. This file keeps the engine's previous formulation,
//! a scan of every per-stream distinct entry for every configuration, as
//! an independent oracle ([`oracle`]) and checks that both agree field by
//! field (the `avg_hops` bits and `near_cliff` labels included) over:
//!
//! * random `WorkloadBuilder` workloads (every pattern, windows, several
//!   kernels), `TiledGemm`, and raw streams with unaligned structure
//!   bases and addresses outside every structure;
//! * 2–16 chiplets, 1–6 SMs per chiplet, 64/128/256B lines, every
//!   coalescing flag and every topology;
//! * every placement model at every page size, plus mixed per-structure
//!   sizes;
//! * the engine's schedule, and custom ones.

use proptest::prelude::*;

use mcm_sim::analytic::{AnalyticStats, PlacementModel, Replay};
use mcm_sim::{
    tb_chiplet, AllocInfo, KernelDesc, SimConfig, StaticHint, TileMapping, TiledGemm, TopologyKind,
    Workload,
};
use mcm_types::{AllocId, PageSize, TbId, VirtAddr, WarpId};
use mcm_workloads::{KernelSpec, Part, Pattern, WorkloadBuilder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The per-entry reference: every configuration rescans every captured
/// stream entry. Slow, and written for obviousness, not speed.
mod oracle {
    use std::collections::HashMap;

    use mcm_sim::analytic::{AnalyticStats, PlacementModel};
    use mcm_sim::{build_topology, AllocAccessStats, AllocInfo, SimConfig, StaticHint, Workload};
    use mcm_types::{ChipletId, PageSize, TbId, VirtAddr, WarpId};

    const DEMAND: u64 = 64 * 1024;

    /// A workload's streams: first-touch keys per 64KB granule and each
    /// stream's sorted distinct VAs with multiplicities.
    pub struct Capture {
        allocs: Vec<AllocInfo>,
        /// Per kernel: `(num_tbs, warps_per_tb, reuse, insts_per_mem)`.
        kernels: Vec<(u32, u32, u64, u64)>,
        /// Per kernel, per stream: `(va, multiplicity)`, ascending.
        streams: Vec<Vec<Vec<(u64, u64)>>>,
        /// Per structure: 64KB granule → minimal `(k, i, s)` replay key.
        first_touch: Vec<HashMap<u64, (usize, usize, usize)>>,
    }

    fn alloc_of(allocs: &[AllocInfo], va: u64) -> Option<usize> {
        allocs.iter().position(|a| a.contains(VirtAddr::new(va)))
    }

    impl Capture {
        pub fn new(w: &dyn Workload) -> Capture {
            let allocs = w.allocs().to_vec();
            let mut first_touch = vec![HashMap::new(); allocs.len()];
            let mut kernels = Vec::new();
            let mut streams = Vec::new();
            for k in 0..w.num_kernels() {
                let d = w.kernel(k);
                kernels.push((
                    d.num_tbs,
                    d.warps_per_tb,
                    d.line_reuse.max(1) as u64,
                    d.insts_per_mem.max(1) as u64,
                ));
                let mut ks = Vec::new();
                for t in 0..d.num_tbs {
                    for wi in 0..d.warps_per_tb {
                        let s = ks.len();
                        let vas: Vec<u64> = w
                            .warp_accesses(k, TbId::new(t), WarpId::new(wi))
                            .iter()
                            .map(|v| v.raw())
                            .collect();
                        for (i, &va) in vas.iter().enumerate() {
                            if let Some(a) = alloc_of(&allocs, va) {
                                let e = first_touch[a].entry(va / DEMAND).or_insert((k, i, s));
                                // Kernels in sequence, then access index,
                                // then stream order.
                                if (k, i, s) < *e {
                                    *e = (k, i, s);
                                }
                            }
                        }
                        let mut sorted = vas;
                        sorted.sort_unstable();
                        let mut distinct: Vec<(u64, u64)> = Vec::new();
                        for va in sorted {
                            match distinct.last_mut() {
                                Some((v, m)) if *v == va => *m += 1,
                                _ => distinct.push((va, 1)),
                            }
                        }
                        ks.push(distinct);
                    }
                }
                streams.push(ks);
            }
            Capture {
                allocs,
                kernels,
                streams,
                first_touch,
            }
        }

        /// The engine's prediction for `cfg` under `placement`, with
        /// threadblocks scheduled by `schedule`.
        pub fn predict(
            &self,
            cfg: &SimConfig,
            placement: &PlacementModel,
            schedule: &dyn Fn(TbId, u32) -> usize,
        ) -> AnalyticStats {
            let chiplets = cfg.num_chiplets;
            let spc = cfg.sms_per_chiplet;
            let allocs = &self.allocs;
            // Owner of a VA's placement granule (`max(page, 64KB)`).
            let gran = |a: usize| placement.page_for(allocs[a].id).bytes().max(DEMAND);
            // (chiplet, SM) of every stream, round-robin SMs per chiplet.
            let metas: Vec<Vec<(usize, usize)>> = self
                .kernels
                .iter()
                .map(|&(num_tbs, wpt, _, _)| {
                    let mut counter = vec![0usize; chiplets];
                    let mut meta = Vec::new();
                    for t in 0..num_tbs {
                        let ch = schedule(TbId::new(t), num_tbs).min(chiplets - 1);
                        let sm = ch * spc + counter[ch] % spc;
                        counter[ch] += 1;
                        for _ in 0..wpt {
                            meta.push((ch, sm));
                        }
                    }
                    meta
                })
                .collect();
            let sa = matches!(placement, PlacementModel::StaticAnalysis { .. });
            let mut owners: Vec<HashMap<u64, usize>> = vec![HashMap::new(); allocs.len()];
            if !sa {
                for (a, ft) in self.first_touch.iter().enumerate() {
                    let g = gran(a);
                    let mut best: HashMap<u64, (usize, usize, usize)> = HashMap::new();
                    for (&slot, &key) in ft {
                        let e = best.entry(slot * DEMAND / g).or_insert(key);
                        if key < *e {
                            *e = key;
                        }
                    }
                    for (granule, (k, _, s)) in best {
                        owners[a].insert(granule, metas[k][s].0);
                    }
                }
            }
            let owner_of = |a: usize, va: u64| -> usize {
                let g = gran(a);
                if sa {
                    let start = (va / g * g).saturating_sub(allocs[a].base.raw());
                    sa_chiplet(&allocs[a], start, chiplets)
                } else {
                    owners[a][&(va / g)]
                }
            };
            let unit = |a: usize| {
                let page = placement.page_for(allocs[a].id);
                page.bytes() * coverage_group(cfg, page)
            };

            let mut st = AnalyticStats::default();
            let mut elems = 0u64;
            let mut l1_units: HashMap<(usize, PageSize), std::collections::HashSet<(usize, u64)>> =
                HashMap::new();
            let mut l2_units = l1_units.clone();
            let mut l1_lookups: HashMap<(usize, PageSize), u64> = HashMap::new();
            let mut remote_lines: Vec<std::collections::HashSet<(usize, u64)>> =
                vec![Default::default(); chiplets];
            let mut remote_elems = vec![vec![0u64; chiplets]; chiplets];
            let mut owner_elems = vec![0u64; chiplets];
            let mut per_alloc = vec![AllocAccessStats::default(); allocs.len()];
            for (k, ks) in self.streams.iter().enumerate() {
                let (_, _, reuse, gap) = self.kernels[k];
                for (s, stream) in ks.iter().enumerate() {
                    let (ch, sm) = metas[k][s];
                    for &(va, m) in stream {
                        let Some(a) = alloc_of(allocs, va) else {
                            continue;
                        };
                        let owner = owner_of(a, va);
                        let page = placement.page_for(allocs[a].id);
                        elems += m;
                        st.mem_insts += reuse * m;
                        st.warp_insts += gap * reuse * m;
                        owner_elems[owner] += m;
                        per_alloc[a].accesses += reuse * m;
                        if owner != ch {
                            st.remote_insts += reuse * m;
                            per_alloc[a].remote += reuse * m;
                            remote_elems[ch][owner] += m;
                            remote_lines[ch].insert((a, va / cfg.line_bytes));
                        }
                        let u = (a, va / unit(a));
                        l1_units.entry((sm, page)).or_default().insert(u);
                        *l1_lookups.entry((sm, page)).or_default() += m;
                        l2_units.entry((ch, page)).or_default().insert(u);
                    }
                }
            }

            let mut classes: Vec<PageSize> =
                allocs.iter().map(|a| placement.page_for(a.id)).collect();
            classes.sort_by_key(|p| p.bytes());
            classes.dedup();
            let mut l2_lookups: HashMap<(usize, PageSize), u64> = HashMap::new();
            for sm in 0..chiplets * spc {
                for &page in &classes {
                    let n = l1_lookups.get(&(sm, page)).copied().unwrap_or(0);
                    if n == 0 {
                        continue;
                    }
                    let u = l1_units[&(sm, page)].len() as u64;
                    let e = cfg.tlb_entries(page).l1 as u64;
                    let miss = reach_misses(n, u, e);
                    cliff_check(&mut st.near_cliff, "l1tlb", u, e);
                    st.l1tlb_misses += miss;
                    *l2_lookups.entry((sm / spc, page)).or_default() += miss;
                }
            }
            st.l1tlb_hits = st.mem_insts.saturating_sub(st.l1tlb_misses);
            let mut l2_total = 0u64;
            for ch in 0..chiplets {
                for &page in &classes {
                    let n = l2_lookups.get(&(ch, page)).copied().unwrap_or(0);
                    if n == 0 {
                        continue;
                    }
                    let u = l2_units[&(ch, page)].len() as u64;
                    let e = cfg.tlb_entries(page).l2 as u64;
                    let miss = reach_misses(n, u, e);
                    cliff_check(&mut st.near_cliff, "l2tlb", u, e);
                    st.l2tlb_misses += miss;
                    l2_total += n;
                }
            }
            st.l2tlb_hits = l2_total.saturating_sub(st.l2tlb_misses);
            st.faults = self.first_touch.iter().map(|ft| ft.len() as u64).sum();
            st.walks = st.l2tlb_misses + st.faults;
            for (i, a) in allocs.iter().enumerate() {
                if per_alloc[i].accesses > 0 {
                    st.per_alloc.insert(a.id, per_alloc[i]);
                }
            }

            let topo = build_topology(cfg);
            let l2 = cfg.effective_l2d_bytes() as u64;
            let mut hop_sum = 0.0f64;
            for req in 0..chiplets {
                let mut distinct_per_owner = vec![0u64; chiplets];
                for &(a, line) in &remote_lines[req] {
                    // A line's first byte may precede its structure's base.
                    let va = (line * cfg.line_bytes).max(allocs[a].base.raw());
                    distinct_per_owner[owner_of(a, va)] += 1;
                }
                let distinct: u64 = distinct_per_owner.iter().sum();
                let bytes = distinct * cfg.line_bytes;
                if distinct > 0 {
                    cliff_check(&mut st.near_cliff, "transfers", bytes, l2);
                }
                for own in 0..chiplets {
                    let count = if bytes <= l2 {
                        distinct_per_owner[own]
                    } else {
                        remote_elems[req][own]
                    };
                    if count == 0 {
                        continue;
                    }
                    st.interconnect_transfers += count;
                    hop_sum += count as f64
                        * topo.hops(ChipletId::new(own as u8), ChipletId::new(req as u8)) as f64;
                }
            }
            st.avg_hops = if st.interconnect_transfers == 0 {
                0.0
            } else {
                hop_sum / st.interconnect_transfers as f64
            };
            st.cycles = estimate_cycles(cfg, &st, elems, &owner_elems, hop_sum);
            st
        }
    }

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
                ((offset / DEMAND) % chiplets as u64) as usize
            }
        }
    }

    fn coverage_group(cfg: &SimConfig, size: PageSize) -> u64 {
        if size != PageSize::Size64K {
            1
        } else if cfg.translation.ideal_2m_reach {
            32
        } else if cfg.translation.coalescing_64k || cfg.translation.barre_pattern {
            16
        } else {
            1
        }
    }

    fn reach_misses(n: u64, u: u64, e: u64) -> u64 {
        if u <= e {
            u.min(n)
        } else {
            let steady = (n as f64 * (u - e) as f64 / u as f64).round() as u64;
            steady.max(u).min(n)
        }
    }

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
        let link_bound = st.interconnect_transfers as f64 * cfg.link_service as f64
            / cfg.num_chiplets.max(1) as f64;
        let fault_bound = st.faults as f64 * cfg.fault_latency as f64
            / (cfg.num_chiplets * cfg.page_walkers).max(1) as f64;
        (issue + lat_bound + dram_bound.max(link_bound) + fault_bound) as u64 + cfg.fault_latency
    }
}

/// Asserts two predictions are identical field by field.
fn assert_same(got: &AnalyticStats, want: &AnalyticStats, what: &str) -> Result<(), TestCaseError> {
    let ints = |s: &AnalyticStats| {
        [
            s.mem_insts,
            s.warp_insts,
            s.remote_insts,
            s.faults,
            s.walks,
            s.l1tlb_hits,
            s.l1tlb_misses,
            s.l2tlb_hits,
            s.l2tlb_misses,
            s.interconnect_transfers,
            s.cycles,
        ]
    };
    let (g, w) = (ints(got), ints(want));
    prop_assert!(g == w, "{what}: integer counters {g:?} vs {w:?}");
    prop_assert!(
        got.avg_hops.to_bits() == want.avg_hops.to_bits(),
        "{what}: avg_hops {} vs {}",
        got.avg_hops,
        want.avg_hops
    );
    prop_assert!(
        got.per_alloc == want.per_alloc,
        "{what}: per_alloc {:?} vs {:?}",
        got.per_alloc,
        want.per_alloc
    );
    prop_assert!(
        got.near_cliff == want.near_cliff,
        "{what}: near_cliff {:?} vs {:?}",
        got.near_cliff,
        want.near_cliff
    );
    Ok(())
}

/// Raw streams: structures at unaligned bases (4KB multiples), byte-
/// granular addresses, repeats, and addresses outside every structure.
struct RawStreams {
    allocs: Vec<AllocInfo>,
    kernels: Vec<KernelDesc>,
    seed: u64,
    len: usize,
}

impl Workload for RawStreams {
    fn name(&self) -> &str {
        "raw"
    }
    fn allocs(&self) -> &[AllocInfo] {
        &self.allocs
    }
    fn num_kernels(&self) -> usize {
        self.kernels.len()
    }
    fn kernel(&self, k: usize) -> KernelDesc {
        self.kernels[k]
    }
    fn warp_accesses(&self, k: usize, tb: TbId, warp: WarpId) -> Vec<VirtAddr> {
        let mut rng = StdRng::seed_from_u64(
            self.seed ^ ((k as u64) << 48) ^ ((tb.index() as u64) << 16) ^ warp.index() as u64,
        );
        let mut out: Vec<VirtAddr> = Vec::with_capacity(self.len);
        for _ in 0..self.len {
            let pick = rng.gen_range(0..self.allocs.len() + 1);
            let va = if rng.gen_range(0..4u32) == 0 && !out.is_empty() {
                out[rng.gen_range(0..out.len())].raw()
            } else if pick == self.allocs.len() {
                // Inside the guard gap before the first structure.
                rng.gen_range(4096..self.allocs[0].base.raw())
            } else {
                let a = &self.allocs[pick];
                a.base.raw() + rng.gen_range(0..a.bytes)
            };
            out.push(VirtAddr::new(va));
        }
        out
    }
}

fn raw_streams(seed: u64) -> RawStreams {
    let mut rng = StdRng::seed_from_u64(seed);
    let hints = [
        StaticHint::Partitioned { period_bytes: 0 },
        StaticHint::Partitioned {
            period_bytes: 256 * 1024,
        },
        StaticHint::Shared,
        StaticHint::Irregular,
    ];
    let mut base = 4u64 << 20;
    let allocs = (0..rng.gen_range(1..4usize))
        .map(|i| {
            let a = AllocInfo {
                id: AllocId::new(i as u16),
                base: VirtAddr::new(base + rng.gen_range(0..256u64) * 4096),
                bytes: rng.gen_range(1..6u64 << 20),
                name: format!("raw{i}"),
                hint: hints[rng.gen_range(0..hints.len())],
            };
            base += 16 << 20;
            a
        })
        .collect();
    let kernels = (0..rng.gen_range(1..3usize))
        .map(|_| KernelDesc {
            num_tbs: rng.gen_range(1..40u32),
            warps_per_tb: rng.gen_range(1..4u32),
            insts_per_mem: rng.gen_range(1..6u32),
            line_reuse: rng.gen_range(0..4u32),
        })
        .collect();
    RawStreams {
        allocs,
        kernels,
        seed,
        len: rng.gen_range(0..200usize),
    }
}

fn random_pattern(rng: &mut StdRng) -> Pattern {
    let periods = [0u64, 64 * 1024, 256 * 1024, 1 << 20, 4 << 20];
    let period = periods[rng.gen_range(0..periods.len())];
    match rng.gen_range(0..6u32) {
        0 => Pattern::Sliced {
            period,
            halo: [0.0, 0.25][rng.gen_range(0..2usize)],
        },
        1 => Pattern::Uniform,
        2 => Pattern::SharedSweep,
        3 => Pattern::Tiled2D {
            row_bytes: [4096u64, 64 * 1024, 256 * 1024][rng.gen_range(0..3usize)],
            tile_rows: rng.gen_range(1..16u64),
        },
        4 => Pattern::Irregular {
            period,
            locality: rng.gen_range(0..5u32) as f64 / 4.0,
            spread: [0u64, 64 * 1024, 1 << 20][rng.gen_range(0..3usize)],
        },
        _ => Pattern::SparseStrided {
            stride_pages: rng.gen_range(1..8u64),
        },
    }
}

fn random_builder(seed: u64) -> mcm_workloads::SyntheticWorkload {
    let mut rng = StdRng::seed_from_u64(seed);
    let nallocs = rng.gen_range(1..4usize);
    let mut b = WorkloadBuilder::new("rand").seed(seed);
    for i in 0..nallocs {
        b = b.alloc(format!("s{i}"), rng.gen_range(1..(12u64 << 20)));
    }
    for _ in 0..rng.gen_range(1..3usize) {
        let parts = (0..rng.gen_range(1..4usize))
            .map(|_| {
                let p = Part::new(
                    rng.gen_range(0..nallocs),
                    rng.gen_range(1..10u32) as f64 / 10.0,
                    random_pattern(&mut rng),
                );
                if rng.gen_range(0..3u32) == 0 {
                    p.with_window(
                        rng.gen_range(0..16u64) * 64 * 1024,
                        rng.gen_range(1..(4u64 << 20)),
                    )
                } else {
                    p
                }
            })
            .collect();
        b = b.kernel(KernelSpec {
            num_tbs: rng.gen_range(1..64u32),
            warps_per_tb: rng.gen_range(1..5u32),
            insts_per_mem: rng.gen_range(1..8u32),
            line_reuse: rng.gen_range(1..4u32),
            unique_lines: rng.gen_range(1..48usize),
            passes: rng.gen_range(0..3usize),
            parts,
        });
    }
    b.build()
}

/// A random workload: a builder workload, a GEMM, or raw streams.
fn workload(kind: u32, seed: u64) -> Box<dyn Workload> {
    match kind {
        0 | 1 => Box::new(random_builder(seed)),
        2 => {
            let mut rng = StdRng::seed_from_u64(seed);
            let (mt, nt, kt) = (
                rng.gen_range(1..6usize),
                rng.gen_range(1..6usize),
                rng.gen_range(1..4usize),
            );
            if rng.gen_range(0..2u32) == 0 {
                Box::new(TiledGemm::new(mt, nt, kt, TileMapping::RowMajor))
            } else {
                // Blocked super-tiles must divide the grid.
                let blocked = TileMapping::Blocked { rows: 2, cols: 2 };
                Box::new(TiledGemm::new(mt * 2, nt * 2, kt, blocked))
            }
        }
        _ => Box::new(raw_streams(seed)),
    }
}

/// A random valid configuration.
fn config(seed: u64) -> SimConfig {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut cfg = SimConfig::baseline().scaled(8);
    cfg.num_chiplets = [2usize, 4, 8, 16][rng.gen_range(0..4usize)];
    cfg.sms_per_chiplet = rng.gen_range(1..7usize);
    cfg.line_bytes = [64u64, 128, 256][rng.gen_range(0..3usize)];
    cfg.translation.coalescing_64k = rng.gen_range(0..2u32) == 0;
    cfg.translation.barre_pattern = rng.gen_range(0..4u32) == 0;
    cfg.translation.ideal_2m_reach = rng.gen_range(0..3u32) == 0;
    cfg.topology = match rng.gen_range(0..3u32) {
        0 => TopologyKind::Ring,
        1 => TopologyKind::FullyConnected,
        _ => TopologyKind::square_mesh(cfg.num_chiplets),
    };
    cfg
}

/// Every placement model at every page size, plus mixed per-structure
/// sizes and the CLAP approximation.
fn placements(allocs: &[AllocInfo], chiplets: usize, seed: u64) -> Vec<PlacementModel> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::new();
    for page in PageSize::ALL {
        out.push(PlacementModel::FirstTouch { page });
        out.push(PlacementModel::StaticAnalysis { page });
        out.push(PlacementModel::PerAllocFirstTouch {
            sizes: allocs.iter().map(|a| (a.id, page)).collect(),
        });
    }
    // Structures left out default to 64KB.
    let mut sizes = Vec::new();
    for a in allocs {
        if rng.gen_range(0..4u32) != 0 {
            sizes.push((a.id, PageSize::ALL[rng.gen_range(0..PageSize::ALL.len())]));
        }
    }
    out.push(PlacementModel::PerAllocFirstTouch { sizes });
    out.push(PlacementModel::clap(allocs, chiplets));
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Under the engine's schedule, fold+resolve equals the per-entry
    /// scan for every placement model at every page size.
    #[test]
    fn fold_resolve_matches_per_entry_scan(
        kind in 0u32..4,
        wseed in 0u64..u64::MAX,
        cseed in 0u64..u64::MAX,
    ) {
        let w = workload(kind, wseed);
        let cfg = config(cseed);
        let replay = Replay::capture(w.as_ref());
        let reference = oracle::Capture::new(w.as_ref());
        let chiplets = cfg.num_chiplets;
        let engine = move |tb: TbId, n: u32| tb_chiplet(tb, n, chiplets);
        for pm in placements(w.allocs(), chiplets, cseed) {
            let got = replay.predict(&cfg, &pm).expect("valid config");
            let want = reference.predict(&cfg, &pm, &engine);
            assert_same(&got, &want, &format!("{pm:?}"))?;
        }
    }

    /// Custom schedules — everything on one chiplet, reversed, hashed,
    /// and out-of-range indices clamped to the last chiplet — fold
    /// uncached and still equal the per-entry scan.
    #[test]
    fn custom_schedules_match_per_entry_scan(
        kind in 0u32..4,
        wseed in 0u64..u64::MAX,
        cseed in 0u64..u64::MAX,
        sched in 0u32..4,
    ) {
        let w = workload(kind, wseed);
        let cfg = config(cseed);
        let replay = Replay::capture(w.as_ref());
        let reference = oracle::Capture::new(w.as_ref());
        let c = cfg.num_chiplets;
        let schedule = move |tb: TbId, n: u32| -> usize {
            let t = tb.index();
            match sched {
                0 => 0,
                1 => c - 1 - tb_chiplet(tb, n, c),
                2 => (t.wrapping_mul(0x9E37_79B9) >> 7) % c,
                _ => t % (2 * c),
            }
        };
        let all = placements(w.allocs(), c, cseed);
        for pm in [&all[2], &all[3], &all[all.len() - 2]] {
            let got = replay.predict_scheduled(&cfg, pm, schedule).expect("valid config");
            let want = reference.predict(&cfg, pm, &schedule);
            assert_same(&got, &want, &format!("schedule {sched}, {pm:?}"))?;
        }
    }

    /// The cached fold gives what an uncached fold under the engine's
    /// schedule gives, also after folds for other keys were cached.
    #[test]
    fn cached_predict_equals_uncached(
        kind in 0u32..4,
        wseed in 0u64..u64::MAX,
        cseed in 0u64..u64::MAX,
    ) {
        let w = workload(kind, wseed);
        let cfg = config(cseed);
        let mut other = cfg.clone();
        other.line_bytes = if cfg.line_bytes == 64 { 128 } else { 64 };
        other.sms_per_chiplet += 1;
        let replay = Replay::capture(w.as_ref());
        let chiplets = cfg.num_chiplets;
        for pm in placements(w.allocs(), chiplets, cseed).iter().step_by(4) {
            let first = replay.predict(&cfg, pm).expect("valid config");
            replay.predict(&other, pm).expect("valid config");
            let again = replay.predict(&cfg, pm).expect("valid config");
            let uncached = replay
                .predict_scheduled(&cfg, pm, |tb, n| tb_chiplet(tb, n, chiplets))
                .expect("valid config");
            assert_same(&first, &uncached, "first cached call")?;
            assert_same(&again, &uncached, "cache hit")?;
        }
    }
}

#[test]
fn line_larger_than_the_demand_granule_is_rejected() {
    let w = TiledGemm::new(2, 2, 1, TileMapping::RowMajor);
    let mut cfg = SimConfig::baseline().scaled(8);
    cfg.line_bytes = 128 * 1024;
    let pm = PlacementModel::FirstTouch {
        page: PageSize::Size64K,
    };
    let e = Replay::capture(&w).predict(&cfg, &pm);
    assert!(matches!(e, Err(mcm_sim::SimError::ConfigInvalid { .. })));
}
