//! Per-data-structure access patterns.
//!
//! Each pattern realises one chiplet-locality shape from the paper's §3.4
//! taxonomy. The key construction is [`Pattern::Sliced`]: within every
//! `period` bytes of the structure, threadblock `t` of `n` touches the
//! `[t/n, (t+1)/n)` slice. Under contiguous TB scheduling (`tb_chiplet`),
//! each period therefore splits into `num_chiplets` contiguous per-chiplet
//! segments of `period / num_chiplets` bytes — the structure's
//! chiplet-locality group size. `period == 0` denotes a single period (pure
//! block partitioning: huge groups, large-page friendly).

use mcm_types::{TbId, WarpId};
use rand::rngs::StdRng;
use rand::Rng;

/// Cache-line granularity of generated addresses.
pub const LINE: u64 = 128;

/// How one kernel part touches one data structure.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Pattern {
    /// C-periodic slicing (see module docs). `halo` is the probability an
    /// access lands in the neighbouring TB's slice (stencil boundary
    /// exchange).
    Sliced {
        /// Slicing period in bytes; 0 = whole structure.
        period: u64,
        /// Probability of touching the adjacent slice.
        halo: f64,
    },
    /// Uniform random over the structure (globally scattered data).
    Uniform,
    /// Globally shared data that every threadblock streams *in order*
    /// (GEMM matrix B: all tiles consume B along the K dimension
    /// together). Fill is prefix-dense but every chiplet touches
    /// everything.
    SharedSweep,
    /// A 2D working set: threadblock tiles of `tile_rows` rows over an
    /// image whose row is `row_bytes`. Contiguous threadblocks tile
    /// row-major, so chiplets own horizontal bands (large locality groups,
    /// 2MB-friendly) while each TB touches `tile_rows` row-strided pages —
    /// the TLB pressure 2D kernels exhibit.
    Tiled2D {
        /// Bytes per image row.
        row_bytes: u64,
        /// Rows per threadblock tile.
        tile_rows: u64,
    },
    /// With probability `locality`, behaves like `Sliced { period }`;
    /// otherwise shared. `spread == 0` models globally shared reads (all
    /// chiplets stream the same data: graph neighbours, frontier pulls) as
    /// an in-order shared sweep; `spread > 0` scatters within ±`spread`
    /// bytes of the in-order position (local irregularity, e.g.
    /// pathfinder's bounded row neighbourhoods).
    Irregular {
        /// Slicing period for the local fraction; 0 = whole structure.
        period: u64,
        /// Fraction of accesses that respect the slicing.
        locality: f64,
        /// Scatter radius in bytes for the irregular fraction (0 =
        /// whole structure).
        spread: u64,
    },
    /// Block-partitioned like `Sliced { period: 0 }` but touching only
    /// every `stride_pages`-th 64KB page of the slice (triangular/sparse
    /// sweeps, e.g. LUD): VA blocks fill slowly and non-contiguously.
    SparseStrided {
        /// Stride between touched pages, in 64KB pages.
        stride_pages: u64,
    },
}

impl Pattern {
    /// Emits the first `n` unique line addresses (offsets into the
    /// structure) of warp `warp` of threadblock `tb`, in order.
    ///
    /// `bytes` is the structure (or window) length, at least [`LINE`];
    /// `num_tbs` and `warps_per_tb` describe the launch. `rng` supplies
    /// randomness for `Uniform`/`Irregular`/halo decisions and is part of
    /// the warp's deterministic stream. Each pattern's per-warp constants
    /// are computed once and the position is stepped by counting, so a
    /// line costs a few adds; the output equals [`Pattern::offset`] for
    /// `k` in `0..n`, drawing `rng` in the same order.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn fill(
        &self,
        n: usize,
        tb: TbId,
        warp: WarpId,
        num_tbs: u32,
        warps_per_tb: u32,
        bytes: u64,
        rng: &mut StdRng,
        mut emit: impl FnMut(u64),
    ) {
        if n == 0 {
            return;
        }
        let (tb, warp) = (tb.index() as u64, warp.index() as u64);
        let (num_tbs, warps_per_tb) = (num_tbs as u64, warps_per_tb as u64);
        match *self {
            Pattern::Sliced { period, halo } => {
                let mut walk = SlicedWalk::new(tb, warp, num_tbs, warps_per_tb, bytes, period);
                for _ in 0..n {
                    let jitter = halo > 0.0 && rng.gen_bool(halo);
                    emit(walk.offset(jitter));
                    walk.step();
                }
            }
            Pattern::Uniform => {
                let lines = (bytes / LINE).max(1);
                for _ in 0..n {
                    emit(rng.gen_range(0..lines) * LINE);
                }
            }
            Pattern::SharedSweep => {
                let mut sweep = SharedSweep::new(n, tb, warp, bytes);
                for _ in 0..n {
                    emit(sweep.pos);
                    sweep.step();
                }
            }
            Pattern::Tiled2D {
                row_bytes,
                tile_rows,
            } => {
                let row_bytes = row_bytes.clamp(LINE, bytes);
                let image_rows = (bytes / row_bytes).max(1);
                let tile_rows = tile_rows.clamp(1, image_rows);
                let tiles_per_row = (num_tbs * tile_rows / image_rows).max(1);
                let tile_w = (row_bytes / tiles_per_row).max(LINE);
                let sub_w = (tile_w / warps_per_tb).max(LINE);
                let lines_pr = (sub_w / LINE).clamp(1, 2);
                let col_step = sub_w / lines_pr;
                let row0 = tb / tiles_per_row * tile_rows;
                let col0 = tb % tiles_per_row * tile_w + warp % warps_per_tb * sub_w;
                let (mut r, mut c) = (0u64, 0u64);
                for _ in 0..n {
                    let col = col0 + c * col_step;
                    let off = (row0 + r) * row_bytes + (col & !(LINE - 1)).min(row_bytes - LINE);
                    emit(off.min(bytes - LINE));
                    c += 1;
                    if c == lines_pr {
                        c = 0;
                        r += 1;
                        if r == tile_rows {
                            r = 0;
                        }
                    }
                }
            }
            Pattern::Irregular {
                period,
                locality,
                spread,
            } => {
                let mut walk = SlicedWalk::new(tb, warp, num_tbs, warps_per_tb, bytes, period);
                let mut sweep = SharedSweep::new(n, tb, warp, bytes);
                let locality = locality.clamp(0.0, 1.0);
                for _ in 0..n {
                    let base = walk.offset(false);
                    emit(if rng.gen_bool(locality) {
                        base
                    } else if spread == 0 {
                        sweep.pos
                    } else {
                        // Scatter behind the in-order position: local
                        // irregularity revisits data the sweep already
                        // produced, so owners win first-touch races while
                        // the accesses themselves still cross slice (and
                        // chiplet) boundaries.
                        let lo = base.saturating_sub(spread);
                        let lines = ((base - lo) / LINE).max(1);
                        lo + rng.gen_range(0..lines) * LINE
                    });
                    walk.step();
                    sweep.step();
                }
            }
            Pattern::SparseStrided { stride_pages } => {
                let slice = (bytes / num_tbs).max(SPARSE_PAGE);
                let slice_start = tb * bytes / num_tbs;
                let slice_pages = slice / SPARSE_PAGE;
                let stride = stride_pages.max(1) % slice_pages;
                let lines_per_page = SPARSE_PAGE / LINE;
                // `page` is `k * stride % slice_pages`; `line` is
                // `k / slice_pages + warp * 8`, modulo the page's lines.
                let (mut page, mut line, mut in_round) = (0u64, warp * 8 % lines_per_page, 0u64);
                for _ in 0..n {
                    let off = slice_start + page * SPARSE_PAGE + line * LINE;
                    emit(off.min(bytes - LINE));
                    page += stride;
                    if page >= slice_pages {
                        page -= slice_pages;
                    }
                    in_round += 1;
                    if in_round == slice_pages {
                        in_round = 0;
                        line = (line + 1) % lines_per_page;
                    }
                }
            }
        }
    }

    /// The `k`-th unique line address (an offset into the structure) for
    /// warp `warp` of threadblock `tb`: the per-line closed form of
    /// [`Pattern::fill`], kept as its test oracle.
    #[cfg(test)]
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn offset(
        &self,
        k: usize,
        n_unique: usize,
        tb: TbId,
        warp: WarpId,
        num_tbs: u32,
        warps_per_tb: u32,
        bytes: u64,
        rng: &mut StdRng,
    ) -> u64 {
        match *self {
            Pattern::Sliced { period, halo } => {
                let jitter = halo > 0.0 && rng.gen_bool(halo);
                sliced_offset(k, tb, warp, num_tbs, warps_per_tb, bytes, period, jitter)
            }
            Pattern::Uniform => uniform_offset(bytes, rng),
            Pattern::SharedSweep => shared_sweep_offset(k, n_unique, tb, warp, bytes),
            Pattern::Tiled2D {
                row_bytes,
                tile_rows,
            } => tiled_offset(
                k,
                tb,
                warp,
                num_tbs,
                warps_per_tb,
                bytes,
                row_bytes,
                tile_rows,
            ),
            Pattern::Irregular {
                period,
                locality,
                spread,
            } => {
                let base = sliced_offset(k, tb, warp, num_tbs, warps_per_tb, bytes, period, false);
                if rng.gen_bool(locality.clamp(0.0, 1.0)) {
                    base
                } else if spread == 0 {
                    shared_sweep_offset(k, n_unique, tb, warp, bytes)
                } else {
                    let lo = base.saturating_sub(spread);
                    let lines = ((base - lo) / LINE).max(1);
                    lo + rng.gen_range(0..lines) * LINE
                }
            }
            Pattern::SparseStrided { stride_pages } => {
                sparse_offset(k, tb, warp, num_tbs, warps_per_tb, bytes, stride_pages)
            }
        }
    }

    /// The static-analysis view of this pattern (what LASP/SUV would
    /// conclude; §5.2).
    pub fn static_hint(&self) -> mcm_sim::StaticHint {
        match *self {
            Pattern::Sliced { period, .. } => mcm_sim::StaticHint::Partitioned {
                period_bytes: period,
            },
            // Row-major tiling yields contiguous per-chiplet bands.
            Pattern::Tiled2D { .. } => mcm_sim::StaticHint::Partitioned { period_bytes: 0 },
            Pattern::SparseStrided { .. } => mcm_sim::StaticHint::Partitioned { period_bytes: 0 },
            Pattern::Uniform | Pattern::SharedSweep => mcm_sim::StaticHint::Shared,
            Pattern::Irregular { .. } => mcm_sim::StaticHint::Irregular,
        }
    }
}

/// Page granularity of [`Pattern::SparseStrided`]'s stride (64KB).
const SPARSE_PAGE: u64 = 64 * 1024;

/// One warp's walk through a C-periodic slicing (see module docs and
/// [`Pattern::Sliced`]). The warp sub-divides its threadblock's slice and
/// walks a bounded number of positions per period, staggered across
/// periods so the union of warps covers the structure: up to 4 distinct
/// positions per period, spread through the sub-slice. Warps sweep
/// periods front-to-back inside a small stagger window (periods/8): the
/// address space fills prefix-dense — as wavefront kernel execution
/// does, so early VA blocks become fully mapped during PMM — while the
/// live translation working set spans a realistic multi-period window
/// rather than a single period.
struct SlicedWalk {
    period: u64,
    periods: u64,
    lines_pp: u64,
    /// Byte step between a period's positions.
    within_step: u64,
    /// Start of the warp's sub-slice within a period: in its own
    /// threadblock's slice, and in the previous threadblock's (halo).
    own_start: u64,
    halo_start: u64,
    /// Period index `j` and position `l` within it, of the next line.
    j: u64,
    l: u64,
    bytes: u64,
}

impl SlicedWalk {
    fn new(tb: u64, warp: u64, num_tbs: u64, warps_per_tb: u64, bytes: u64, period: u64) -> Self {
        let period = if period == 0 || period > bytes {
            bytes
        } else {
            period
        };
        let periods = (bytes / period).max(1);
        let slice = (period / num_tbs).max(LINE);
        let sub = (slice / warps_per_tb).max(LINE);
        let lines_pp = (sub / LINE).clamp(1, 4);
        let window = (periods / 8).max(1);
        let j0 = (tb * warps_per_tb + warp).wrapping_mul(0x9E37_79B9) % window;
        let sub_start = warp % warps_per_tb * sub;
        // Halo reads target the *previous* TB's slice: stencil boundary
        // reads consume data the neighbour has already produced, so the
        // owner is (almost) always the first toucher of its own pages.
        let prev_tb = (tb + num_tbs - 1) % num_tbs;
        SlicedWalk {
            period,
            periods,
            lines_pp,
            within_step: sub / lines_pp,
            own_start: tb * period / num_tbs + sub_start,
            halo_start: prev_tb * period / num_tbs + sub_start,
            j: j0 % periods,
            l: 0,
            bytes,
        }
    }

    /// The current line's offset; `halo` reads the neighbour's slice.
    fn offset(&self, halo: bool) -> u64 {
        let start = if halo {
            self.halo_start
        } else {
            self.own_start
        };
        let within = (self.l * self.within_step) & !(LINE - 1);
        let off = self.j * self.period + (start + within).min(self.period - LINE);
        off.min(self.bytes - LINE)
    }

    fn step(&mut self) {
        self.l += 1;
        if self.l == self.lines_pp {
            self.l = 0;
            self.j += 1;
            if self.j == self.periods {
                self.j = 0;
            }
        }
    }
}

/// All warps stream the structure front-to-back together; each warp
/// samples every `bytes / n_unique` bytes with a per-warp jitter so the
/// union of warps covers every page while fill stays prefix-dense.
struct SharedSweep {
    /// The current line's offset: `(k * stride + jitter) % len`.
    pos: u64,
    stride: u64,
    len: u64,
}

impl SharedSweep {
    fn new(n_unique: usize, tb: u64, warp: u64, bytes: u64) -> Self {
        let stride = (bytes / n_unique.max(1) as u64).max(LINE) & !(LINE - 1);
        let h = tb
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(warp)
            .wrapping_mul(0xBF58_476D_1CE4_E5B9);
        let jitter = (h % (stride / LINE).max(1)) * LINE;
        let len = bytes.max(LINE);
        SharedSweep {
            pos: jitter % len,
            // `pos + stride < 2 * len`: one subtraction keeps `pos` reduced.
            stride: stride % len,
            len,
        }
    }

    fn step(&mut self) {
        self.pos += self.stride;
        if self.pos >= self.len {
            self.pos -= self.len;
        }
    }
}

#[cfg(test)]
fn uniform_offset(bytes: u64, rng: &mut StdRng) -> u64 {
    let lines = (bytes / LINE).max(1);
    rng.gen_range(0..lines) * LINE
}

/// Closed form of [`SharedSweep`]'s `k`-th position.
#[cfg(test)]
fn shared_sweep_offset(k: usize, n_unique: usize, tb: TbId, warp: WarpId, bytes: u64) -> u64 {
    let stride = (bytes / n_unique.max(1) as u64).max(LINE) & !(LINE - 1);
    let h = (tb.index() as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(warp.index() as u64)
        .wrapping_mul(0xBF58_476D_1CE4_E5B9);
    let jitter = (h % (stride / LINE).max(1)) * LINE;
    (k as u64 * stride + jitter) % bytes.max(LINE)
}

/// Closed form of [`SlicedWalk`]'s `k`-th offset: TB `t` owns slice
/// `[t/n, (t+1)/n)` of each period.
#[cfg(test)]
#[allow(clippy::too_many_arguments)]
fn sliced_offset(
    k: usize,
    tb: TbId,
    warp: WarpId,
    num_tbs: u32,
    warps_per_tb: u32,
    bytes: u64,
    period: u64,
    halo_jitter: bool,
) -> u64 {
    let period = if period == 0 || period > bytes {
        bytes
    } else {
        period
    };
    let periods = (bytes / period).max(1);
    let slice = (period / num_tbs as u64).max(LINE);
    let sub = (slice / warps_per_tb as u64).max(LINE);
    let lines_pp = (sub / LINE).clamp(1, 4);
    let window = (periods / 8).max(1);
    let j0 = (tb.index() as u64 * warps_per_tb as u64 + warp.index() as u64)
        .wrapping_mul(0x9E37_79B9)
        % window;
    let j = (j0 + k as u64 / lines_pp) % periods;
    let l = k as u64 % lines_pp;
    let tb_for_slice = if halo_jitter {
        (tb.index() as u64 + num_tbs as u64 - 1) % num_tbs as u64
    } else {
        tb.index() as u64
    };
    let slice_start = (tb_for_slice * period) / num_tbs as u64;
    let sub_start = warp.index() as u64 % warps_per_tb as u64 * sub;
    let within = (l * (sub / lines_pp)) & !(LINE - 1);
    let off = j * period + (slice_start + sub_start + within).min(period - LINE);
    off.min(bytes - LINE)
}

/// Row-major 2D tiling: TB `t` covers a `tile_rows`-row tile; access `k`
/// walks the tile row by row, so a TB touches `tile_rows` row-strided
/// pages. Contiguous TBs tile row-major.
#[cfg(test)]
#[allow(clippy::too_many_arguments)]
fn tiled_offset(
    k: usize,
    tb: TbId,
    warp: WarpId,
    num_tbs: u32,
    warps_per_tb: u32,
    bytes: u64,
    row_bytes: u64,
    tile_rows: u64,
) -> u64 {
    let row_bytes = row_bytes.clamp(LINE, bytes);
    let image_rows = (bytes / row_bytes).max(1);
    let tile_rows = tile_rows.clamp(1, image_rows);
    let tile_cols_total = num_tbs as u64 * tile_rows / image_rows;
    let tiles_per_row = tile_cols_total.max(1);
    let tile_w = (row_bytes / tiles_per_row).max(LINE);
    let tile_row_idx = tb.index() as u64 / tiles_per_row;
    let tile_col_idx = tb.index() as u64 % tiles_per_row;
    let sub_w = (tile_w / warps_per_tb as u64).max(LINE);
    let lines_pr = (sub_w / LINE).clamp(1, 2);
    let r = (k as u64 / lines_pr) % tile_rows;
    let col = tile_col_idx * tile_w
        + warp.index() as u64 % warps_per_tb as u64 * sub_w
        + (k as u64 % lines_pr) * (sub_w / lines_pr);
    let off =
        (tile_row_idx * tile_rows + r) * row_bytes + (col & !(LINE - 1)).min(row_bytes - LINE);
    off.min(bytes - LINE)
}

#[cfg(test)]
fn sparse_offset(
    k: usize,
    tb: TbId,
    warp: WarpId,
    num_tbs: u32,
    warps_per_tb: u32,
    bytes: u64,
    stride_pages: u64,
) -> u64 {
    const PAGE: u64 = SPARSE_PAGE;
    let slice = (bytes / num_tbs as u64).max(PAGE);
    let slice_start = (tb.index() as u64 * bytes) / num_tbs as u64;
    let slice_pages = slice / PAGE;
    // Walk the slice's pages with a stride (coprime strides eventually
    // cover every page, but coverage is sparse-in-time: VA blocks are only
    // partially mapped while CLAP profiles — the LUD edge case of §4.5).
    let page = (k as u64 * stride_pages.max(1)) % slice_pages;
    let line_in_page = (k as u64 / slice_pages + warp.index() as u64 * 8) % (PAGE / LINE);
    let off = slice_start + page * PAGE + line_in_page * LINE;
    let _ = warps_per_tb;
    off.min(bytes - LINE)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn sliced_respects_tb_slices() {
        // 4MB structure, 1MB period, 64 TBs, 4 warps: slice = 16KB.
        let bytes = 4 << 20;
        let period = 1 << 20;
        let mut r = rng();
        for tb in [0u32, 17, 63] {
            for k in 0..32 {
                let off = Pattern::Sliced { period, halo: 0.0 }.offset(
                    k,
                    32,
                    TbId::new(tb),
                    WarpId::new(1),
                    64,
                    4,
                    bytes,
                    &mut r,
                );
                assert!(off < bytes);
                assert_eq!(off % LINE, 0);
                let within_period = off % period;
                let slice = period / 64;
                assert!(
                    within_period >= tb as u64 * slice && within_period < (tb as u64 + 1) * slice,
                    "tb {tb} k {k}: {within_period:#x} outside its slice"
                );
            }
        }
    }

    #[test]
    fn sliced_zero_period_means_whole_structure() {
        let bytes = 8 << 20;
        let mut r = rng();
        let off = Pattern::Sliced {
            period: 0,
            halo: 0.0,
        }
        .offset(0, 32, TbId::new(3), WarpId::new(0), 8, 4, bytes, &mut r);
        // TB 3 of 8 owns [3MB, 4MB).
        assert!((3 << 20..4 << 20).contains(&off));
    }

    #[test]
    fn halo_touches_neighbour_slice() {
        let bytes = 4 << 20;
        let mut r = rng();
        let p = Pattern::Sliced {
            period: 0,
            halo: 1.0,
        };
        let off = p.offset(0, 32, TbId::new(1), WarpId::new(0), 4, 4, bytes, &mut r);
        // With halo probability 1, TB 1 reads from TB 0's slice.
        assert!(off < bytes / 4);
    }

    #[test]
    fn uniform_is_line_aligned_and_in_bounds() {
        let mut r = rng();
        for _ in 0..100 {
            let off =
                Pattern::Uniform.offset(0, 32, TbId::new(0), WarpId::new(0), 4, 4, 1 << 20, &mut r);
            assert!(off < 1 << 20);
            assert_eq!(off % LINE, 0);
        }
    }

    #[test]
    fn irregular_mixes_local_and_random() {
        let bytes = 16 << 20;
        let mut r = rng();
        let p = Pattern::Irregular {
            period: 0,
            locality: 0.5,
            spread: 0,
        };
        let mut inside = 0;
        let n = 400;
        for k in 0..n {
            let off = p.offset(k, 32, TbId::new(0), WarpId::new(0), 4, 4, bytes, &mut r);
            if off < bytes / 4 {
                inside += 1;
            }
        }
        // ~ 0.5 + 0.5*0.25 = 62.5% expected inside TB 0's quarter.
        assert!(inside > n / 2, "only {inside}/{n} inside home slice");
        assert!(inside < n, "never random");
    }

    #[test]
    fn sparse_strided_skips_pages() {
        let bytes = 64 << 20;
        let mut r = rng();
        let p = Pattern::SparseStrided { stride_pages: 4 };
        let o0 = p.offset(0, 32, TbId::new(0), WarpId::new(0), 16, 4, bytes, &mut r);
        let o1 = p.offset(1, 32, TbId::new(0), WarpId::new(0), 16, 4, bytes, &mut r);
        assert_eq!((o1 - o0) / (64 * 1024), 4);
    }

    #[test]
    fn shared_sweep_is_ordered_and_covers() {
        let bytes = 4 << 20;
        let n_unique = 32;
        // Positions ascend with k (prefix-dense fill) for any warp.
        let mut prev = 0;
        for k in 0..n_unique {
            let off = shared_sweep_offset(k, n_unique, TbId::new(3), WarpId::new(1), bytes);
            assert!(off < bytes);
            assert_eq!(off % LINE, 0);
            if k > 0 {
                assert!(off >= prev, "sweep must ascend: {off} after {prev}");
            }
            prev = off;
        }
        // The union over many (tb, warp) jitters covers every 64KB page.
        let mut pages = std::collections::HashSet::new();
        for tb in 0..64u32 {
            for w in 0..4u32 {
                for k in 0..n_unique {
                    let off =
                        shared_sweep_offset(k, n_unique, TbId::new(tb), WarpId::new(w), bytes);
                    pages.insert(off / (64 * 1024));
                }
            }
        }
        assert_eq!(pages.len() as u64, bytes / (64 * 1024));
    }

    #[test]
    fn tiled_2d_touches_row_strided_pages() {
        // 64MB image, 64KB rows, 8-row tiles, 1024 TBs: each TB touches 8
        // distinct row-strided 64KB pages.
        let bytes = 64 << 20;
        let p = Pattern::Tiled2D {
            row_bytes: 64 * 1024,
            tile_rows: 8,
        };
        let mut r = rng();
        let mut pages = std::collections::HashSet::new();
        for k in 0..32 {
            let off = p.offset(
                k,
                32,
                TbId::new(17),
                WarpId::new(2),
                1024,
                16,
                bytes,
                &mut r,
            );
            assert!(off < bytes);
            pages.insert(off / (64 * 1024));
        }
        assert_eq!(pages.len(), 8, "one page per tile row");
        // And adjacent TBs of the same tile row stay within the same rows
        // (horizontal neighbours -> same chiplet band).
        let rows17: std::collections::HashSet<u64> = (0..32)
            .map(|k| {
                p.offset(
                    k,
                    32,
                    TbId::new(17),
                    WarpId::new(0),
                    1024,
                    16,
                    bytes,
                    &mut r,
                ) / (64 * 1024)
            })
            .collect();
        let rows18: std::collections::HashSet<u64> = (0..32)
            .map(|k| {
                p.offset(
                    k,
                    32,
                    TbId::new(18),
                    WarpId::new(0),
                    1024,
                    16,
                    bytes,
                    &mut r,
                ) / (64 * 1024)
            })
            .collect();
        assert_eq!(rows17, rows18, "same tile row -> same pages");
    }

    #[test]
    fn irregular_spread_zero_is_a_shared_sweep() {
        // With locality 0, every access follows the ordered shared sweep.
        let p = Pattern::Irregular {
            period: 0,
            locality: 0.0,
            spread: 0,
        };
        let mut r = rng();
        let bytes = 8 << 20;
        let a = p.offset(0, 16, TbId::new(0), WarpId::new(0), 64, 4, bytes, &mut r);
        let b = p.offset(8, 16, TbId::new(0), WarpId::new(0), 64, 4, bytes, &mut r);
        assert!(b > a, "sweep ascends");
    }

    #[test]
    fn irregular_spread_trails_the_sweep() {
        // Backward scatter: the irregular fraction lands at or before the
        // in-order position, so owners win first-touch races.
        let p = Pattern::Irregular {
            period: 1 << 20,
            locality: 0.0,
            spread: 64 * 1024,
        };
        let mut r = rng();
        let bytes = 8 << 20;
        for k in 0..64 {
            let base = sliced_offset(
                k,
                TbId::new(32),
                WarpId::new(1),
                64,
                4,
                bytes,
                1 << 20,
                false,
            );
            let got = p.offset(k, 64, TbId::new(32), WarpId::new(1), 64, 4, bytes, &mut r);
            assert!(got <= base, "scatter must trail: {got} > {base}");
            assert!(base - got <= 64 * 1024 + LINE);
        }
    }

    #[test]
    fn offsets_are_deterministic_per_seed() {
        let p = Pattern::Irregular {
            period: 1 << 20,
            locality: 0.7,
            spread: 1 << 20,
        };
        let mut r1 = rng();
        let mut r2 = rng();
        for k in 0..50 {
            let a = p.offset(
                k,
                32,
                TbId::new(5),
                WarpId::new(2),
                64,
                4,
                32 << 20,
                &mut r1,
            );
            let b = p.offset(
                k,
                32,
                TbId::new(5),
                WarpId::new(2),
                64,
                4,
                32 << 20,
                &mut r2,
            );
            assert_eq!(a, b);
        }
    }

    #[test]
    fn static_hints_match_patterns() {
        use mcm_sim::StaticHint;
        assert_eq!(
            Pattern::Sliced {
                period: 4096,
                halo: 0.0
            }
            .static_hint(),
            StaticHint::Partitioned { period_bytes: 4096 }
        );
        assert_eq!(Pattern::Uniform.static_hint(), StaticHint::Shared);
        assert_eq!(
            Pattern::Irregular {
                period: 0,
                locality: 0.5,
                spread: 0
            }
            .static_hint(),
            StaticHint::Irregular
        );
        assert_eq!(
            Pattern::SparseStrided { stride_pages: 2 }.static_hint(),
            StaticHint::Partitioned { period_bytes: 0 }
        );
    }

    fn any_pattern() -> impl proptest::prelude::Strategy<Value = Pattern> {
        use proptest::prelude::*;
        let period = prop_oneof![Just(0u64), 1u64..4096, 1u64..64].prop_map(|p| p * LINE);
        (0u32..6, period, 0u64..20, 0u64..1 << 22, 0u32..5).prop_map(
            |(kind, period, small, big, q)| match kind {
                0 => Pattern::Sliced {
                    period,
                    halo: q as f64 / 4.0,
                },
                1 => Pattern::Uniform,
                2 => Pattern::SharedSweep,
                3 => Pattern::Tiled2D {
                    row_bytes: big,
                    tile_rows: small,
                },
                4 => Pattern::Irregular {
                    period,
                    locality: q as f64 / 4.0,
                    spread: big,
                },
                _ => Pattern::SparseStrided {
                    stride_pages: small,
                },
            },
        )
    }

    proptest::proptest! {
        /// `fill` emits exactly `offset(0..n)` and leaves the generator
        /// where the per-line closed form leaves it.
        #[test]
        fn fill_equals_per_line_offsets(
            p in any_pattern(),
            n in 0usize..300,
            launch in (1u32..2000, 1u32..33),
            at in (0u32..u32::MAX, 0u32..u32::MAX),
            bytes in (1u64..1 << 30, 0u32..2),
            seed in 0u64..u64::MAX,
        ) {
            let (num_tbs, warps_per_tb) = launch;
            let (tb, warp) = (TbId::new(at.0 % num_tbs), WarpId::new(at.1 % warps_per_tb));
            // Line-aligned, or any length of at least one line.
            let bytes = if bytes.1 == 0 { bytes.0 * LINE } else { bytes.0 + LINE };
            let (mut r1, mut r2) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
            let mut got = Vec::new();
            p.fill(n, tb, warp, num_tbs, warps_per_tb, bytes, &mut r1, |o| got.push(o));
            let want: Vec<u64> = (0..n)
                .map(|k| p.offset(k, n, tb, warp, num_tbs, warps_per_tb, bytes, &mut r2))
                .collect();
            proptest::prop_assert!(got == want, "{p:?} n {n} bytes {bytes}: {got:?} vs {want:?}");
            proptest::prop_assert_eq!(r1.gen_range(0..u64::MAX), r2.gen_range(0..u64::MAX));
        }
    }
}
