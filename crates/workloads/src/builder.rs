//! Assembling synthetic workloads from allocations, kernels, and patterns.

use mcm_sim::{AllocInfo, KernelDesc, StaticHint, Workload};
use mcm_types::{AllocId, TbId, VirtAddr, WarpId, VA_BLOCK_BYTES};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::pattern::{Pattern, LINE};

/// One structure's role in one kernel: which allocation, what share of the
/// kernel's accesses, with what pattern, over which window of the
/// structure.
#[derive(Clone, Debug)]
pub struct Part {
    /// Index into the workload's allocation list.
    pub alloc: usize,
    /// Fraction of the kernel's memory instructions hitting this part.
    pub weight: f64,
    /// Access pattern.
    pub pattern: Pattern,
    /// Optional `(offset, len)` window restricting accesses to a sub-range
    /// of the allocation (e.g. "only one quarter of C* is reused", §5.2).
    pub window: Option<(u64, u64)>,
}

impl Part {
    /// A part covering the whole allocation.
    pub fn new(alloc: usize, weight: f64, pattern: Pattern) -> Self {
        Part {
            alloc,
            weight,
            pattern,
            window: None,
        }
    }

    /// Restricts the part to `(offset, len)` within the allocation.
    pub fn with_window(mut self, offset: u64, len: u64) -> Self {
        self.window = Some((offset, len));
        self
    }
}

/// Shape of one kernel of a synthetic workload.
#[derive(Clone, Debug)]
pub struct KernelSpec {
    /// Threadblocks launched.
    pub num_tbs: u32,
    /// Warps per threadblock issuing memory traffic.
    pub warps_per_tb: u32,
    /// Warp instructions per memory instruction (arithmetic intensity).
    pub insts_per_mem: u32,
    /// Memory instructions per generated line (intra-line reuse; see
    /// `mcm_sim::KernelDesc::line_reuse`).
    pub line_reuse: u32,
    /// Unique line addresses per warp (footprint knob).
    pub unique_lines: usize,
    /// Times each warp revisits its unique lines (reuse knob).
    pub passes: usize,
    /// The structures this kernel touches.
    pub parts: Vec<Part>,
}

/// A fully assembled synthetic workload.
#[derive(Clone, Debug)]
pub struct SyntheticWorkload {
    name: String,
    seed: u64,
    allocs: Vec<AllocInfo>,
    kernels: Vec<KernelSpec>,
}

/// Builder for [`SyntheticWorkload`] (C-BUILDER).
///
/// # Examples
///
/// ```
/// use mcm_workloads::{WorkloadBuilder, KernelSpec, Part, Pattern};
/// use mcm_sim::Workload;
///
/// let w = WorkloadBuilder::new("toy")
///     .alloc("in", 8 << 20)
///     .alloc("out", 8 << 20)
///     .kernel(KernelSpec {
///         num_tbs: 64,
///         warps_per_tb: 4,
///         insts_per_mem: 4,
///         line_reuse: 1,
///         unique_lines: 32,
///         passes: 2,
///         parts: vec![
///             Part::new(0, 0.5, Pattern::Sliced { period: 1 << 20, halo: 0.0 }),
///             Part::new(1, 0.5, Pattern::Sliced { period: 0, halo: 0.0 }),
///         ],
///     })
///     .build();
/// assert_eq!(w.allocs().len(), 2);
/// ```
#[derive(Clone, Debug)]
pub struct WorkloadBuilder {
    name: String,
    seed: u64,
    allocs: Vec<(String, u64)>,
    kernels: Vec<KernelSpec>,
}

impl WorkloadBuilder {
    /// Starts a workload named `name`.
    pub fn new(name: impl Into<String>) -> Self {
        WorkloadBuilder {
            name: name.into(),
            seed: 0xC1A9,
            allocs: Vec::new(),
            kernels: Vec::new(),
        }
    }

    /// Sets the deterministic seed (default is fixed; change only to study
    /// generator variance).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Declares a data structure of `bytes` (rounded up to a whole number
    /// of 2MB VA blocks, as GPU drivers align large allocations).
    pub fn alloc(mut self, name: impl Into<String>, bytes: u64) -> Self {
        self.allocs.push((name.into(), bytes));
        self
    }

    /// Appends a kernel.
    ///
    /// # Panics
    ///
    /// Panics if a part references an undeclared allocation or weights are
    /// all zero.
    pub fn kernel(mut self, spec: KernelSpec) -> Self {
        assert!(
            spec.parts.iter().all(|p| p.alloc < self.allocs.len()),
            "kernel part references undeclared allocation"
        );
        assert!(
            spec.parts.iter().map(|p| p.weight).sum::<f64>() > 0.0,
            "kernel needs positive total weight"
        );
        self.kernels.push(spec);
        self
    }

    /// Finalises the workload, laying allocations out at VA-block-aligned,
    /// well-separated bases and deriving each structure's static hint from
    /// its dominant pattern.
    ///
    /// # Panics
    ///
    /// Panics if no kernel was added.
    pub fn build(self) -> SyntheticWorkload {
        assert!(!self.kernels.is_empty(), "a workload needs >= 1 kernel");
        let mut base = VA_BLOCK_BYTES; // leave page 0 unmapped
        let mut allocs = Vec::new();
        for (i, (name, bytes)) in self.allocs.iter().enumerate() {
            let rounded = bytes.div_ceil(VA_BLOCK_BYTES) * VA_BLOCK_BYTES;
            let hint = self
                .kernels
                .iter()
                .flat_map(|k| &k.parts)
                .filter(|p| p.alloc == i)
                .max_by(|a, b| a.weight.total_cmp(&b.weight))
                .map(|p| p.pattern.static_hint())
                .unwrap_or(StaticHint::Irregular);
            allocs.push(AllocInfo {
                id: AllocId::new(i as u16),
                base: VirtAddr::new(base),
                bytes: rounded,
                name: name.clone(),
                hint,
            });
            // Separate structures by a guard block so they never share a
            // VA block.
            base += rounded + VA_BLOCK_BYTES;
        }
        SyntheticWorkload {
            name: self.name,
            seed: self.seed,
            allocs,
            kernels: self.kernels,
        }
    }
}

impl SyntheticWorkload {
    /// The kernel specifications (for harnesses that scale workloads).
    pub fn kernels(&self) -> &[KernelSpec] {
        &self.kernels
    }

    /// Returns a copy with every kernel's `num_tbs` multiplied by `num`
    /// and divided by `den` (at least 1). Used to right-size launches for
    /// different chiplet counts.
    pub fn with_tb_scale(mut self, num: u32, den: u32) -> Self {
        for k in &mut self.kernels {
            k.num_tbs = (k.num_tbs * num / den).max(1);
        }
        self
    }
}

impl Workload for SyntheticWorkload {
    fn name(&self) -> &str {
        &self.name
    }

    fn allocs(&self) -> &[AllocInfo] {
        &self.allocs
    }

    fn num_kernels(&self) -> usize {
        self.kernels.len()
    }

    fn kernel(&self, k: usize) -> KernelDesc {
        let s = &self.kernels[k];
        KernelDesc {
            num_tbs: s.num_tbs,
            warps_per_tb: s.warps_per_tb,
            insts_per_mem: s.insts_per_mem,
            line_reuse: s.line_reuse,
        }
    }

    fn warp_accesses(&self, k: usize, tb: TbId, warp: WarpId) -> Vec<VirtAddr> {
        let mut out = Vec::new();
        self.warp_accesses_into(k, tb, warp, &mut out);
        out
    }

    fn warp_accesses_into(&self, k: usize, tb: TbId, warp: WarpId, out: &mut Vec<VirtAddr>) {
        let spec = &self.kernels[k];
        out.clear();
        if spec.passes == 0 {
            return;
        }
        let mut rng = StdRng::seed_from_u64(
            self.seed
                ^ (k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ (tb.index() as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9)
                ^ (warp.index() as u64).wrapping_mul(0x94D0_49BB_1331_11EB),
        );
        let total_weight: f64 = spec.parts.iter().map(|p| p.weight).sum();
        // Each part's share of the warp's unique lines.
        let share = |part: &Part| {
            (((part.weight / total_weight) * spec.unique_lines as f64).round() as usize).max(1)
        };

        // Every part's unique working set, part after part, in one buffer.
        let mut uniques: Vec<VirtAddr> =
            Vec::with_capacity(spec.parts.iter().map(share).sum::<usize>());
        for part in &spec.parts {
            let a = &self.allocs[part.alloc];
            let (w_off, w_len) = part.window.unwrap_or((0, a.bytes));
            let w_len = w_len.min(a.bytes - w_off).max(LINE);
            let base = a.base + w_off;
            part.pattern.fill(
                share(part),
                tb,
                warp,
                spec.num_tbs,
                spec.warps_per_tb,
                w_len,
                &mut rng,
                |off| uniques.push(base + off),
            );
        }

        // Interleave parts proportionally so structures mix in time: round
        // `r` emits a small burst of each part's lines `4r..4r + 4`, for
        // spatial locality.
        out.reserve(uniques.len() * spec.passes);
        for round in 0.. {
            let (mut start, mut emitted) = (0, false);
            for part in &spec.parts {
                let n = share(part);
                let lo = 4 * round;
                if lo < n {
                    out.extend_from_slice(&uniques[start + lo..start + n.min(lo + 4)]);
                    emitted = true;
                }
                start += n;
            }
            if !emitted {
                break;
            }
        }
        // Repeat the whole sequence `passes` times for reuse, alternating
        // direction to vary reuse distance slightly.
        let one_pass = out.len();
        for pass in 1..spec.passes {
            out.extend_from_within(..one_pass);
            if pass % 2 == 1 {
                out[pass * one_pass..].reverse();
            }
        }
        // A pinch of shuffling within small windows keeps streams from
        // being perfectly in lockstep across warps.
        if out.len() > 8 {
            let n = out.len();
            for i in (0..n - 4).step_by(8) {
                let j = i + rng.gen_range(0..4);
                out.swap(i, j);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> SyntheticWorkload {
        WorkloadBuilder::new("toy")
            .alloc("a", 8 << 20)
            .alloc("b", 4 << 20)
            .kernel(KernelSpec {
                num_tbs: 32,
                warps_per_tb: 2,
                insts_per_mem: 4,
                line_reuse: 1,
                unique_lines: 24,
                passes: 2,
                parts: vec![
                    Part::new(
                        0,
                        0.75,
                        Pattern::Sliced {
                            period: 1 << 20,
                            halo: 0.0,
                        },
                    ),
                    Part::new(1, 0.25, Pattern::Uniform),
                ],
            })
            .build()
    }

    #[test]
    fn layout_is_block_aligned_and_disjoint() {
        let w = toy();
        let a = &w.allocs()[0];
        let b = &w.allocs()[1];
        assert_eq!(a.base.raw() % VA_BLOCK_BYTES, 0);
        assert_eq!(b.base.raw() % VA_BLOCK_BYTES, 0);
        assert!(b.base.raw() >= a.base.raw() + a.bytes + VA_BLOCK_BYTES);
        assert_eq!(
            a.hint,
            StaticHint::Partitioned {
                period_bytes: 1 << 20
            }
        );
        assert_eq!(b.hint, StaticHint::Shared);
    }

    #[test]
    fn accesses_fall_inside_their_allocations() {
        let w = toy();
        for tb in [0u32, 15, 31] {
            for warp in 0..2 {
                for va in w.warp_accesses(0, TbId::new(tb), WarpId::new(warp)) {
                    assert!(
                        w.allocs().iter().any(|a| a.contains(va)),
                        "{va} outside all allocations"
                    );
                }
            }
        }
    }

    #[test]
    fn streams_are_deterministic() {
        let w = toy();
        let a = w.warp_accesses(0, TbId::new(3), WarpId::new(1));
        let b = w.warp_accesses(0, TbId::new(3), WarpId::new(1));
        assert_eq!(a, b);
        let c = w.warp_accesses(0, TbId::new(4), WarpId::new(1));
        assert_ne!(a, c);
    }

    #[test]
    fn passes_multiply_stream_length_with_same_uniques() {
        let w = toy();
        let s = w.warp_accesses(0, TbId::new(0), WarpId::new(0));
        let uniques: std::collections::HashSet<_> = s.iter().collect();
        assert!(s.len() >= 2 * uniques.len(), "passes should repeat lines");
    }

    #[test]
    fn window_restricts_range() {
        let w = WorkloadBuilder::new("win")
            .alloc("a", 16 << 20)
            .kernel(KernelSpec {
                num_tbs: 8,
                warps_per_tb: 2,
                insts_per_mem: 4,
                line_reuse: 1,
                unique_lines: 16,
                passes: 1,
                parts: vec![Part::new(0, 1.0, Pattern::Uniform).with_window(0, 4 << 20)],
            })
            .build();
        let base = w.allocs()[0].base;
        for va in w.warp_accesses(0, TbId::new(0), WarpId::new(0)) {
            assert!(va.distance_from(base) < (4 << 20));
        }
    }

    #[test]
    fn tb_scale_clamps_to_one() {
        let w = toy().with_tb_scale(1, 64);
        assert_eq!(w.kernel(0).num_tbs, 1);
        let w2 = toy().with_tb_scale(2, 1);
        assert_eq!(w2.kernel(0).num_tbs, 64);
    }

    #[test]
    #[should_panic(expected = "undeclared allocation")]
    fn bad_part_index_panics() {
        let _ = WorkloadBuilder::new("bad")
            .alloc("a", 1 << 20)
            .kernel(KernelSpec {
                num_tbs: 1,
                warps_per_tb: 1,
                insts_per_mem: 1,
                line_reuse: 1,
                unique_lines: 1,
                passes: 1,
                parts: vec![Part::new(1, 1.0, Pattern::Uniform)],
            });
    }

    /// The stream as the generator once built it: a `Vec` of uniques per
    /// part from per-line [`Pattern::offset`] calls, interleaved through
    /// cursors into a separate pass buffer, then repeated.
    fn reference_stream(w: &SyntheticWorkload, k: usize, tb: TbId, warp: WarpId) -> Vec<VirtAddr> {
        let spec = &w.kernels[k];
        let mut rng = StdRng::seed_from_u64(
            w.seed
                ^ (k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ (tb.index() as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9)
                ^ (warp.index() as u64).wrapping_mul(0x94D0_49BB_1331_11EB),
        );
        let total_weight: f64 = spec.parts.iter().map(|p| p.weight).sum();
        let mut uniques: Vec<Vec<VirtAddr>> = Vec::new();
        for part in &spec.parts {
            let n =
                (((part.weight / total_weight) * spec.unique_lines as f64).round() as usize).max(1);
            let a = &w.allocs[part.alloc];
            let (w_off, w_len) = part.window.unwrap_or((0, a.bytes));
            let w_len = w_len.min(a.bytes - w_off).max(LINE);
            let v = (0..n)
                .map(|kk| {
                    let off = part.pattern.offset(
                        kk,
                        n,
                        tb,
                        warp,
                        spec.num_tbs,
                        spec.warps_per_tb,
                        w_len,
                        &mut rng,
                    );
                    a.base + w_off + off
                })
                .collect();
            uniques.push(v);
        }
        let mut one_pass = Vec::new();
        let mut cursors = vec![0usize; uniques.len()];
        let mut exhausted = 0;
        while exhausted < uniques.len() {
            exhausted = 0;
            for (i, u) in uniques.iter().enumerate() {
                if cursors[i] < u.len() {
                    let burst = 4.min(u.len() - cursors[i]);
                    one_pass.extend_from_slice(&u[cursors[i]..cursors[i] + burst]);
                    cursors[i] += burst;
                } else {
                    exhausted += 1;
                }
            }
        }
        let mut out = Vec::new();
        for pass in 0..spec.passes {
            if pass % 2 == 1 {
                out.extend(one_pass.iter().rev().copied());
            } else {
                out.extend(one_pass.iter().copied());
            }
        }
        if out.len() > 8 {
            let n = out.len();
            for i in (0..n - 4).step_by(8) {
                let j = i + rng.gen_range(0..4);
                out.swap(i, j);
            }
        }
        out
    }

    #[test]
    fn streams_equal_the_per_line_reference() {
        let mut suite = crate::suite::all();
        suite.push(toy());
        let mut buf = vec![VirtAddr::new(7)];
        for w in &suite {
            for k in 0..w.num_kernels() {
                let d = w.kernel(k);
                for t in [0, d.num_tbs / 3, d.num_tbs - 1] {
                    for warp in 0..d.warps_per_tb {
                        let (tb, warp) = (TbId::new(t), WarpId::new(warp));
                        let want = reference_stream(w, k, tb, warp);
                        w.warp_accesses_into(k, tb, warp, &mut buf);
                        assert_eq!(buf, want, "{} kernel {k} tb {t}", w.name());
                    }
                }
            }
        }
        // Zero passes, several kernels, windows and uneven bursts.
        let odd = WorkloadBuilder::new("odd")
            .alloc("a", 3 << 20)
            .alloc("b", 5 << 20)
            .kernel(KernelSpec {
                num_tbs: 5,
                warps_per_tb: 3,
                insts_per_mem: 1,
                line_reuse: 1,
                unique_lines: 23,
                passes: 3,
                parts: vec![
                    Part::new(0, 0.2, Pattern::SharedSweep).with_window(4096, 1 << 20),
                    Part::new(1, 0.7, Pattern::SparseStrided { stride_pages: 3 }),
                    Part::new(0, 0.1, Pattern::Uniform),
                ],
            })
            .kernel(KernelSpec {
                num_tbs: 2,
                warps_per_tb: 1,
                insts_per_mem: 1,
                line_reuse: 1,
                unique_lines: 9,
                passes: 0,
                parts: vec![Part::new(1, 1.0, Pattern::Uniform)],
            })
            .build();
        for k in 0..2 {
            for t in 0..odd.kernel(k).num_tbs {
                let tb = TbId::new(t);
                let want = reference_stream(&odd, k, tb, WarpId::new(0));
                assert_eq!(odd.warp_accesses(k, tb, WarpId::new(0)), want);
            }
        }
    }
}
