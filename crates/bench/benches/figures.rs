//! Criterion benches: one per table/figure of the paper's evaluation.
//!
//! Each bench times a reduced-scale regeneration of the corresponding
//! experiment (quarter threadblock counts — the same code path the
//! `figures` binary runs at full scale). Sample counts are kept minimal:
//! these are macro-benchmarks whose value is tracking harness regressions,
//! not microsecond noise.

use criterion::{criterion_group, criterion_main, Criterion};

use mcm_bench::configs::ConfigKind;
use mcm_bench::experiments::{self, CacheKind, Harness};
use mcm_types::PageSize;
use mcm_workloads::suite;

fn bench_cell(c: &mut Criterion) {
    // The atomic unit every figure is built from: one workload under one
    // configuration.
    let h = Harness::quick();
    let w = suite::ste();
    let mut g = c.benchmark_group("cell");
    g.sample_size(10);
    g.bench_function("ste_s64k", |b| {
        b.iter(|| h.run(&w, ConfigKind::Static(PageSize::Size64K)))
    });
    g.bench_function("ste_clap", |b| b.iter(|| h.run(&w, ConfigKind::Clap)));
    g.finish();
}

fn bench_fig1(c: &mut Criterion) {
    let h = Harness::quick();
    let mut g = c.benchmark_group("fig01");
    g.sample_size(10);
    // One representative cell per native size (the full subset is the
    // figures binary's job).
    let w = suite::threedc();
    g.bench_function("native_sizes_3dc", |b| {
        b.iter(|| {
            for s in [PageSize::Size4K, PageSize::Size64K, PageSize::Size2M] {
                h.run(&w, ConfigKind::Static(s));
            }
        })
    });
    g.finish();
}

fn bench_fig2(c: &mut Criterion) {
    let h = Harness::quick();
    let mut g = c.benchmark_group("fig02");
    g.sample_size(10);
    let w = suite::ste();
    g.bench_function("s2m_nuba_ste", |b| {
        b.iter(|| h.run_cached(&w, ConfigKind::Static(PageSize::Size2M), CacheKind::Nuba))
    });
    g.finish();
}

fn bench_fig6(c: &mut Criterion) {
    // The full 7-size x 15-workload sweep is the heaviest experiment; time
    // one representative workload across the whole size ladder instead.
    let h = Harness::quick();
    let w = suite::lps();
    let mut g = c.benchmark_group("fig06");
    g.sample_size(10);
    g.bench_function("hypothetical_256k_lps", |b| {
        b.iter(|| h.run(&w, ConfigKind::Static(PageSize::Size256K)))
    });
    g.finish();
}

fn bench_fig8(c: &mut Criterion) {
    let h = Harness::quick();
    let mut g = c.benchmark_group("fig08");
    g.sample_size(10);
    let w = suite::bfs();
    g.bench_function("per_structure_remote_bfs", |b| {
        b.iter(|| {
            let s = h.run(&w, ConfigKind::Static(PageSize::Size64K));
            s.alloc_stats(mcm_types::AllocId::new(0)).remote_ratio()
        })
    });
    g.finish();
}

fn bench_fig10(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig10");
    g.sample_size(10);
    g.bench_function("chiplet_locality_survey", |b| b.iter(experiments::fig10));
    g.finish();
}

fn bench_fig18(c: &mut Criterion) {
    // One workload across all nine configurations (the full grid is the
    // figures binary's job).
    let h = Harness::quick();
    let w = suite::blk();
    let mut g = c.benchmark_group("fig18");
    g.sample_size(10);
    g.bench_function("main_eval_blk_clap_vs_s2m", |b| {
        b.iter(|| {
            h.run(&w, ConfigKind::Clap);
            h.run(&w, ConfigKind::Static(PageSize::Size2M));
        })
    });
    g.finish();
}

fn bench_fig19(c: &mut Criterion) {
    let h = Harness::quick();
    let w = suite::paf();
    let mut g = c.benchmark_group("fig19");
    g.sample_size(10);
    g.bench_function("sa_policy_paf", |b| {
        b.iter(|| h.run(&w, ConfigKind::ClapSaPlusPlus))
    });
    g.finish();
}

fn bench_fig20(c: &mut Criterion) {
    let h = Harness::quick();
    let w = suite::gemm_reuse();
    let mut g = c.benchmark_group("fig20");
    g.sample_size(10);
    g.bench_function("gemm_reuse_clap_migration", |b| {
        b.iter(|| h.run(&w, ConfigKind::ClapMigration))
    });
    g.finish();
}

fn bench_fig21(c: &mut Criterion) {
    let h = Harness::quick();
    let w = suite::ste();
    let mut g = c.benchmark_group("fig21");
    g.sample_size(10);
    g.bench_function("caching_under_clap_ste", |b| {
        b.iter(|| h.run_cached(&w, ConfigKind::Clap, CacheKind::Nuba))
    });
    g.finish();
}

fn bench_fig22(c: &mut Criterion) {
    let h = Harness::quick();
    let mut g = c.benchmark_group("fig22");
    g.sample_size(10);
    // 8-chiplet run of one subset workload under CLAP.
    g.bench_function("eight_chiplets_fdt_clap", |b| {
        b.iter(|| experiments::fig22_single(&h, "FDT"))
    });
    g.finish();
}

fn bench_table2(c: &mut Criterion) {
    let h = Harness::quick();
    let w = suite::dwt();
    let mut g = c.benchmark_group("table2");
    g.sample_size(10);
    g.bench_function("mpki_characterisation_dwt", |b| {
        b.iter(|| h.run(&w, ConfigKind::Static(PageSize::Size64K)).l2_mpki())
    });
    g.finish();
}

fn bench_table4(c: &mut Criterion) {
    let h = Harness::quick();
    let w = suite::vit();
    let mut g = c.benchmark_group("table4");
    g.sample_size(10);
    g.bench_function("clap_size_selection_vit", |b| {
        b.iter(|| h.run(&w, ConfigKind::Clap))
    });
    g.finish();
}

fn bench_ablation(c: &mut Criterion) {
    let h = Harness::quick();
    let w = suite::ste();
    let mut g = c.benchmark_group("ablation");
    g.sample_size(10);
    g.bench_function("clap_knockouts_ste", |b| {
        b.iter(|| h.run(&w, ConfigKind::ClapNoOlp))
    });
    g.finish();
}

fn bench_micro(c: &mut Criterion) {
    // Micro-benches on CLAP's core data structures (the costs §4.4/§4.3
    // argue are negligible).
    use clap_core::{select_size, LocalityTree, RemoteTracker};
    use mcm_types::{AllocId, ChipletId};

    let mut g = c.benchmark_group("micro");
    g.bench_function("locality_tree_update", |b| {
        let mut t = LocalityTree::new();
        let mut i = 0usize;
        b.iter(|| {
            t.set_leaf(i % 32, ChipletId::new((i % 4) as u8));
            i += 1;
        })
    });
    g.bench_function("mma_select_64_blocks", |b| {
        let trees: Vec<LocalityTree> = (0..64)
            .map(|bi| {
                let mut t = LocalityTree::new();
                for l in 0..32 {
                    t.set_leaf(l, ChipletId::new(((l / 4 + bi) % 4) as u8));
                }
                t
            })
            .collect();
        b.iter(|| select_size(trees.iter(), 0.1))
    });
    g.bench_function("remote_tracker_record", |b| {
        let mut rt = RemoteTracker::new(4);
        let mut i = 0u16;
        b.iter(|| {
            rt.record(
                ChipletId::new((i % 4) as u8),
                AllocId::new(i % 40),
                i.is_multiple_of(3),
            );
            i = i.wrapping_add(1);
        })
    });
    g.finish();
}

fn bench_hotpath(c: &mut Criterion) {
    // Micro-benches on the cycle engine's hot-path structures (the flat
    // TLB, the slab page table, the data cache — DESIGN.md §15). The
    // fig18 wall-clock budget in scripts/ci.sh guards the composed
    // engine; these isolate the per-structure costs it is built from.
    use mcm_sim::{PageTable, SetAssocCache, Tlb};
    use mcm_types::{AllocId, PageSize, PhysAddr, PhysLayout, VirtAddr};

    let mut g = c.benchmark_group("hotpath");
    // L1-shaped TLB (fully associative) probe on the hit path.
    g.bench_function("tlb_probe_hit", |b| {
        let mut t = Tlb::new(PageSize::Size64K, 128, 128, 1);
        for p in 0..128u64 {
            t.fill(VirtAddr::new(p << 16), 1);
        }
        let mut p = 0u64;
        b.iter(|| {
            p = (p + 1) & 127;
            t.lookup(VirtAddr::new(p << 16))
        })
    });
    // Slab page-table translate: one Fx-hashed open-addressing probe.
    g.bench_function("page_table_translate", |b| {
        let mut pt = PageTable::new(PhysLayout::new(4));
        for p in 0..4096u64 {
            pt.map(
                VirtAddr::new(p << 16),
                PhysAddr::new(p << 16),
                PageSize::Size64K,
                AllocId::new(0),
            )
            .expect("disjoint 64K pages");
        }
        let mut x = 0u64;
        b.iter(|| {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            pt.translate(VirtAddr::new((x >> 52) << 16))
        })
    });
    // Data-cache access mix (branchless fused hit/victim scan).
    g.bench_function("cache_access", |b| {
        let mut cc = SetAssocCache::with_geometry(128 * 1024, 128, 8);
        let mut x = 0u64;
        b.iter(|| {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            cc.access(x >> 48)
        })
    });
    g.finish();

    // Batched event-loop dispatch end-to-end: one quick cell through the
    // cycle engine — the unit the fig18 budget multiplies out of.
    let mut g = c.benchmark_group("dispatch");
    g.sample_size(10);
    g.bench_function("batched_cell_ste_64k", |b| {
        let h = Harness::quick();
        let w = suite::ste();
        b.iter(|| h.run(&w, ConfigKind::Static(PageSize::Size64K)))
    });
    g.finish();
}

fn bench_sched(c: &mut Criterion) {
    // The warp scheduler's pop/push layer alone (the radix heap of
    // DESIGN.md §15), with no memory system behind it: one kernel's
    // schedule drained pop → advance → reschedule/retire, the way the
    // engine's loop drives it.
    use mcm_sim::stage::sched::KernelSchedule;
    use mcm_sim::trace::Tracer;
    use mcm_sim::{AllocInfo, KernelDesc, Workload};
    use mcm_types::{TbId, VirtAddr, WarpId};

    /// 16k threadblocks of 16 warps, 32 lines per warp.
    struct WideKernel;
    impl Workload for WideKernel {
        fn name(&self) -> &str {
            "sched-16k"
        }
        fn allocs(&self) -> &[AllocInfo] {
            &[]
        }
        fn num_kernels(&self) -> usize {
            1
        }
        fn kernel(&self, _k: usize) -> KernelDesc {
            KernelDesc {
                num_tbs: 16 * 1024,
                warps_per_tb: 16,
                insts_per_mem: 1,
                line_reuse: 1,
            }
        }
        fn warp_accesses(&self, _k: usize, tb: TbId, warp: WarpId) -> Vec<VirtAddr> {
            let base = (tb.index() as u64 * 16 + warp.index() as u64) << 12;
            (0..32).map(|i| VirtAddr::new(base + i * 128)).collect()
        }
    }

    let cfg = Harness::quick().base_config().clone();
    let mut g = c.benchmark_group("sched");
    g.sample_size(10);
    g.bench_function("drain_16k_tb_x16_warps", |b| {
        let mut pool = Vec::new();
        let mut tracer: Tracer = Default::default();
        b.iter(|| {
            let mut s = KernelSchedule::new(&cfg, &WideKernel, 0, 0, &mut pool, &mut tracer);
            let mut pops = 0u64;
            while let Some((t, wid)) = s.pop() {
                pops += 1;
                let n = s.batch(&cfg, wid).2.len();
                s.advance(wid, n);
                if s.warp_finished(wid) {
                    s.retire_warp(&WideKernel, 0, wid, t, &mut pool, &mut tracer);
                } else {
                    // A DRAM-like batch completion: 200–455 cycles out.
                    let gap = 200 + (wid as u64 * 0x9E37 + pops * 31) % 256;
                    s.reschedule(wid, t + gap);
                }
            }
            s.recycle(&mut pool);
            pops
        })
    });
    g.finish();
}

fn bench_analytic(c: &mut Criterion) {
    // The analytic engine's three costs on one full-scale workload
    // (DESIGN.md §14): capturing the streams, folding them once per
    // (chiplets, SMs per chiplet, line size), and resolving one
    // configuration against the fold.
    use mcm_sim::analytic::{PlacementModel, Replay};
    use mcm_sim::{tb_chiplet, Workload};

    let h = Harness::full();
    let cfg = h.base_config().clone();
    let w = suite::lps();
    let pm = PlacementModel::FirstTouch {
        page: PageSize::Size256K,
    };
    let mut g = c.benchmark_group("analytic");
    g.sample_size(10);
    g.bench_function("capture_lps", |b| b.iter(|| Replay::capture(&w)));
    let replay = Replay::capture(&w);
    // An explicit schedule bypasses the fold cache: a fresh fold plus one
    // resolve, which the resolve row below prices alone.
    let chiplets = cfg.num_chiplets;
    g.bench_function("fold_lps", |b| {
        b.iter(|| replay.predict_scheduled(&cfg, &pm, |tb, n| tb_chiplet(tb, n, chiplets)))
    });
    // The first call folds and caches; every timed call only resolves.
    let _ = replay.predict(&cfg, &pm);
    g.bench_function("resolve_lps", |b| b.iter(|| replay.predict(&cfg, &pm)));
    g.finish();

    // Stream generation alone: every warp stream of the workload into one
    // reused buffer, as capture and the cycle engine consume them.
    let mut g = c.benchmark_group("workloads");
    g.sample_size(10);
    g.bench_function("gen_lps", |b| {
        let mut buf = Vec::new();
        b.iter(|| {
            let mut lines = 0usize;
            for k in 0..w.num_kernels() {
                let d = w.kernel(k);
                for t in 0..d.num_tbs {
                    for warp in 0..d.warps_per_tb {
                        w.warp_accesses_into(
                            k,
                            mcm_types::TbId::new(t),
                            mcm_types::WarpId::new(warp),
                            &mut buf,
                        );
                        lines += buf.len();
                    }
                }
            }
            lines
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_cell,
    bench_fig1,
    bench_fig2,
    bench_fig6,
    bench_fig8,
    bench_fig10,
    bench_fig18,
    bench_fig19,
    bench_fig20,
    bench_fig21,
    bench_fig22,
    bench_table2,
    bench_table4,
    bench_ablation,
    bench_micro,
    bench_hotpath,
    bench_sched,
    bench_analytic
);
criterion_main!(benches);
