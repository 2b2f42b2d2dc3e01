//! The warp-scheduling stage: threadblock-to-SM distribution and warp
//! bookkeeping for one kernel launch.
//!
//! Owns the monotone radix heap of wake-up events that interleaves warps,
//! the threadblock queues per SM, and the residency accounting that starts
//! the next queued threadblock when one retires. The engine pops ready warps,
//! simulates their memory batch through the other stages, and pushes them
//! back with [`KernelSchedule::reschedule`].

use std::collections::VecDeque;

use mcm_types::{TbId, VirtAddr, WarpId};

use crate::config::SimConfig;
use crate::trace::{TraceEventKind, Tracer};
use crate::workload::{tb_chiplet, KernelDesc, Workload};

/// Radix buckets of [`RadixHeap`]: bucket 0 holds keys equal to the last
/// popped key, bucket `b ≥ 1` keys whose highest bit differing from it is
/// bit `b - 1` of the 128-bit key.
const BUCKETS: usize = 129;

/// A monotone radix heap of `(ready_cycle, warp_id)` wake-up events.
///
/// Keys pack as `(cycle << 32) | warp` and are bucketed by the highest bit
/// that differs from the last popped key; a 3-word occupancy mask finds
/// the lowest non-empty bucket with `trailing_zeros`. Unless that is
/// bucket 0, `pop` empties it, returns its minimum as the new reference
/// key and redistributes the rest into strictly lower buckets, so each key
/// moves at most once per key bit over its life instead of sifting through
/// a tree on every pop.
///
/// Sound only for monotone use — every pushed key is ≥ the last popped
/// one — which the engine guarantees (DESIGN.md §15):
/// `reschedule(wid, at)` always has `at ≥ t` for the popped `(t, wid)`;
/// `start_tb` pushes `(t + jitter, id)` with a fresh `id` above every live
/// one; and each kernel launch starts a fresh queue. Each live warp is
/// enqueued at most once, so keys are distinct and the heap pops the
/// identical ascending `(cycle, warp)` sequence any min-queue would.
struct RadixHeap {
    buckets: [Vec<u128>; BUCKETS],
    /// Bit `b` set ⇔ `buckets[b]` is non-empty.
    occupied: [u64; 3],
    /// The last popped key (0 before the first pop).
    last: u128,
}

impl Default for RadixHeap {
    fn default() -> Self {
        RadixHeap {
            buckets: std::array::from_fn(|_| Vec::new()),
            occupied: [0; 3],
            last: 0,
        }
    }
}

impl RadixHeap {
    #[inline]
    fn bucket_of(key: u128, last: u128) -> usize {
        (u128::BITS - (key ^ last).leading_zeros()) as usize
    }

    fn push(&mut self, t: u64, wid: u32) {
        let key = (u128::from(t) << 32) | u128::from(wid);
        debug_assert!(
            key >= self.last,
            "non-monotone push: ({t}, {wid}) before the last popped ({}, {})",
            (self.last >> 32) as u64,
            self.last as u32
        );
        let b = Self::bucket_of(key, self.last);
        self.buckets[b].push(key);
        self.occupied[b / 64] |= 1 << (b % 64);
    }

    fn pop(&mut self) -> Option<(u64, usize)> {
        let b = match self.occupied {
            [0, 0, 0] => return None,
            [0, 0, w] => 128 + w.trailing_zeros() as usize,
            [0, w, _] => 64 + w.trailing_zeros() as usize,
            [w, _, _] => w.trailing_zeros() as usize,
        };
        let key = if b == 0 {
            let key = self.buckets[0].pop()?;
            if self.buckets[0].is_empty() {
                self.occupied[0] &= !1;
            }
            key
        } else {
            // Re-anchor on the bucket's minimum: every other key of the
            // bucket shares the bits above `b - 1` with it, so it lands in
            // a strictly lower bucket.
            let mut keys = std::mem::take(&mut self.buckets[b]);
            self.occupied[b / 64] &= !(1 << (b % 64));
            let (mut at, mut min) = (0, keys[0]);
            for (i, &k) in keys.iter().enumerate().skip(1) {
                if k < min {
                    (at, min) = (i, k);
                }
            }
            keys.swap_remove(at);
            self.last = min;
            let mut mask = [0u64; 3];
            for &key in &keys {
                let nb = Self::bucket_of(key, min);
                self.buckets[nb].push(key);
                mask[nb / 64] |= 1 << (nb % 64);
            }
            for (o, m) in self.occupied.iter_mut().zip(mask) {
                *o |= m;
            }
            keys.clear();
            self.buckets[b] = keys;
            min
        };
        Some(((key >> 32) as u64, key as u32 as usize))
    }
}

/// One warp's progress through its access stream.
pub struct WarpCtx {
    /// The SM the warp is resident on.
    pub sm: usize,
    /// The warp's threadblock.
    pub tb: TbId,
    /// The warp's line-granular access stream, in program order.
    pub accesses: Vec<VirtAddr>,
    /// Index of the next unissued access.
    pub next: usize,
}

/// The warp schedule of one kernel launch.
pub struct KernelSchedule {
    kd: KernelDesc,
    /// Queued (not yet started) threadblocks per SM.
    sm_queue: Vec<VecDeque<TbId>>,
    warps: Vec<WarpCtx>,
    /// Monotone min-queue of `(ready_cycle, warp_id)`.
    heap: RadixHeap,
    /// Live warps per started threadblock, indexed by start slot.
    tb_live_warps: Vec<u32>,
    /// Start slot of each warp's threadblock.
    warp_tb_slot: Vec<usize>,
}

impl KernelSchedule {
    /// Distributes kernel `k`'s threadblocks — contiguous across chiplets
    /// (FT scheduling), then round-robin over each chiplet's SMs — and
    /// launches the initial resident threadblocks at cycle `start`.
    /// `pool` recycles per-warp access-stream buffers across warps and
    /// kernels (DESIGN.md §15): starting warps pop a cleared buffer
    /// instead of allocating, retiring warps push theirs back.
    pub fn new(
        cfg: &SimConfig,
        workload: &dyn Workload,
        k: usize,
        start: u64,
        pool: &mut Vec<Vec<VirtAddr>>,
        tracer: &mut Tracer,
    ) -> Self {
        let kd = workload.kernel(k);
        let sms = cfg.total_sms();
        let mut sched = KernelSchedule {
            kd,
            sm_queue: vec![VecDeque::new(); sms],
            warps: Vec::new(),
            heap: RadixHeap::default(),
            tb_live_warps: Vec::new(),
            warp_tb_slot: Vec::new(),
        };
        if kd.num_tbs == 0 {
            return sched;
        }
        let mut per_chiplet_counter = vec![0usize; cfg.num_chiplets];
        for t in 0..kd.num_tbs {
            let tb = TbId::new(t);
            let ch = tb_chiplet(tb, kd.num_tbs, cfg.num_chiplets);
            let sm = ch * cfg.sms_per_chiplet + per_chiplet_counter[ch] % cfg.sms_per_chiplet;
            per_chiplet_counter[ch] += 1;
            sched.sm_queue[sm].push_back(tb);
        }
        let concurrent_tbs = (cfg.max_warps_per_sm / kd.warps_per_tb.max(1) as usize).max(1);
        for sm in 0..sms {
            for _ in 0..concurrent_tbs {
                if let Some(tb) = sched.sm_queue[sm].pop_front() {
                    sched.start_tb(workload, k, sm, tb, start, pool, tracer);
                }
            }
        }
        sched
    }

    /// The kernel's launch shape.
    pub fn kernel(&self) -> &KernelDesc {
        &self.kd
    }

    /// Launches `tb`'s warps on `sm` at cycle `at`.
    #[allow(clippy::too_many_arguments)]
    fn start_tb(
        &mut self,
        workload: &dyn Workload,
        k: usize,
        sm: usize,
        tb: TbId,
        at: u64,
        pool: &mut Vec<Vec<VirtAddr>>,
        tracer: &mut Tracer,
    ) {
        tracer.event(TraceEventKind::TbStart {
            sm: sm as u32,
            tb,
            cycle: at,
        });
        let slot = self.tb_live_warps.len();
        self.tb_live_warps.push(self.kd.warps_per_tb);
        for w in 0..self.kd.warps_per_tb {
            let mut accesses = pool.pop().unwrap_or_default();
            workload.warp_accesses_into(k, tb, WarpId::new(w), &mut accesses);
            let id = self.warps.len();
            self.warps.push(WarpCtx {
                sm,
                tb,
                accesses,
                next: 0,
            });
            self.warp_tb_slot.push(slot);
            // Deterministic per-warp jitter: warps of concurrently launched
            // TBs do not start in threadblock order, so first-touch races
            // at equal progress are unbiased.
            let jitter = (tb.index() as u64 * 131 + w as u64 * 17).wrapping_mul(0x9E37_79B9) % 64;
            self.heap.push(at + jitter, id as u32);
        }
    }

    /// Pops the next ready warp: `(ready_cycle, warp_id)`. `None` once
    /// every warp retired.
    pub fn pop(&mut self) -> Option<(u64, usize)> {
        self.heap.pop()
    }

    /// Re-enqueues warp `wid` to continue at `at`.
    pub fn reschedule(&mut self, wid: usize, at: u64) {
        self.heap.push(at, wid as u32);
    }

    /// The next up-to-`warp_mlp` accesses warp `wid` keeps in flight (GPU
    /// load pipelining): `(sm, tb, batch)`. The batch is a slice into the
    /// warp's access stream — no per-wakeup allocation; it is empty once
    /// the stream is exhausted.
    pub fn batch(&self, cfg: &SimConfig, wid: usize) -> (usize, TbId, &[VirtAddr]) {
        let w = &self.warps[wid];
        let n = cfg
            .warp_mlp
            .max(1)
            .min(w.accesses.len() - w.next.min(w.accesses.len()));
        (w.sm, w.tb, &w.accesses[w.next..w.next + n])
    }

    /// Marks `advanced` accesses of warp `wid`'s current batch complete.
    pub fn advance(&mut self, wid: usize, advanced: usize) {
        self.warps[wid].next += advanced;
    }

    /// `true` once warp `wid` has issued its whole access stream.
    pub fn warp_finished(&self, wid: usize) -> bool {
        let w = &self.warps[wid];
        w.next >= w.accesses.len()
    }

    /// Retires warp `wid` at cycle `t`; when it was its threadblock's last
    /// live warp, the SM's next queued threadblock (if any) starts at `t`.
    pub fn retire_warp(
        &mut self,
        workload: &dyn Workload,
        k: usize,
        wid: usize,
        t: u64,
        pool: &mut Vec<Vec<VirtAddr>>,
        tracer: &mut Tracer,
    ) {
        // A retired warp never batches again: recycle its stream buffer.
        let mut stream = std::mem::take(&mut self.warps[wid].accesses);
        stream.clear();
        pool.push(stream);
        let slot = self.warp_tb_slot[wid];
        self.tb_live_warps[slot] -= 1;
        if self.tb_live_warps[slot] == 0 {
            let sm = self.warps[wid].sm;
            if let Some(next_tb) = self.sm_queue[sm].pop_front() {
                self.start_tb(workload, k, sm, next_tb, t, pool, tracer);
            }
        }
    }

    /// Returns every remaining warp buffer to `pool` at kernel end, so the
    /// next kernel's warps start from recycled capacity.
    pub fn recycle(self, pool: &mut Vec<Vec<VirtAddr>>) {
        for mut w in self.warps {
            if w.accesses.capacity() > 0 {
                w.accesses.clear();
                pool.push(w.accesses);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::AllocInfo;
    use crate::SimConfig;

    /// Two TBs of two warps each, four accesses per warp.
    struct TinyWorkload;
    impl Workload for TinyWorkload {
        fn name(&self) -> &str {
            "tiny"
        }
        fn allocs(&self) -> &[AllocInfo] {
            &[]
        }
        fn num_kernels(&self) -> usize {
            1
        }
        fn kernel(&self, _k: usize) -> KernelDesc {
            KernelDesc {
                num_tbs: 2,
                warps_per_tb: 2,
                insts_per_mem: 1,
                line_reuse: 1,
            }
        }
        fn warp_accesses(&self, _k: usize, tb: TbId, warp: WarpId) -> Vec<VirtAddr> {
            (0..4u64)
                .map(|i| {
                    VirtAddr::new((tb.index() as u64 * 1024 + warp.index() as u64 * 512 + i) * 128)
                })
                .collect()
        }
    }

    fn cfg() -> SimConfig {
        let mut c = SimConfig::baseline().scaled(8);
        c.num_chiplets = 2;
        c.sms_per_chiplet = 1;
        c
    }

    #[test]
    fn tbs_spread_over_chiplets_and_warps_drain() {
        let c = cfg();
        let w = TinyWorkload;
        let mut s = KernelSchedule::new(&c, &w, 0, 0, &mut Vec::new(), &mut Tracer::new());
        assert_eq!(s.kernel().num_tbs, 2);
        let mut sms_seen = std::collections::HashSet::new();
        let mut popped = 0usize;
        while let Some((t, wid)) = s.pop() {
            popped += 1;
            let (sm, _tb, batch) = s.batch(&c, wid);
            sms_seen.insert(sm);
            assert!(!batch.is_empty());
            s.advance(wid, batch.len());
            if !s.warp_finished(wid) {
                s.reschedule(wid, t + 1);
            } else {
                s.retire_warp(&w, 0, wid, t, &mut Vec::new(), &mut Tracer::new());
            }
        }
        assert_eq!(sms_seen.len(), 2, "both chiplets' SMs must host TBs");
        assert!(popped >= 4, "every warp must be scheduled at least once");
    }

    #[test]
    fn start_jitter_is_deterministic_and_bounded() {
        let c = cfg();
        let w = TinyWorkload;
        let mut a = KernelSchedule::new(&c, &w, 0, 1_000, &mut Vec::new(), &mut Tracer::new());
        let mut b = KernelSchedule::new(&c, &w, 0, 1_000, &mut Vec::new(), &mut Tracer::new());
        loop {
            let (ea, eb) = (a.pop(), b.pop());
            assert_eq!(ea, eb, "schedule must be deterministic");
            match ea {
                Some((t, wid)) => {
                    assert!(
                        (1_000..1_064).contains(&t),
                        "jitter is bounded to 64 cycles"
                    );
                    let n = a.batch(&c, wid).2.len();
                    a.advance(wid, n);
                    b.advance(wid, n);
                    // Drain without rescheduling: one batch per warp.
                    if !a.warp_finished(wid) {
                        continue;
                    }
                }
                None => break,
            }
        }
    }

    #[test]
    fn empty_kernel_schedules_nothing() {
        struct EmptyWorkload;
        impl Workload for EmptyWorkload {
            fn name(&self) -> &str {
                "empty"
            }
            fn allocs(&self) -> &[AllocInfo] {
                &[]
            }
            fn num_kernels(&self) -> usize {
                1
            }
            fn kernel(&self, _k: usize) -> KernelDesc {
                KernelDesc {
                    num_tbs: 0,
                    warps_per_tb: 1,
                    insts_per_mem: 1,
                    line_reuse: 1,
                }
            }
            fn warp_accesses(&self, _k: usize, _tb: TbId, _warp: WarpId) -> Vec<VirtAddr> {
                Vec::new()
            }
        }
        let c = cfg();
        let mut s = KernelSchedule::new(
            &c,
            &EmptyWorkload,
            0,
            0,
            &mut Vec::new(),
            &mut Tracer::new(),
        );
        assert!(s.pop().is_none());
    }

    /// One step of the differential queue test: `op` picks the action,
    /// `r` and `w` parameterise it.
    type QueueOp = (u8, u64, u32);

    fn queue_op() -> impl proptest::Strategy<Value = QueueOp> {
        (0u8..10, 0u64..1 << 20, 0u32..8)
    }

    /// Pops both queues and checks they agree; records the popped key in
    /// `last`. `Ok(false)` once both are empty.
    fn pop_both(
        heap: &mut RadixHeap,
        model: &mut std::collections::BinaryHeap<std::cmp::Reverse<(u64, u32)>>,
        live: &mut std::collections::HashSet<(u64, u32)>,
        last: &mut (u64, u32),
    ) -> Result<bool, proptest::test_runner::TestCaseError> {
        let want = model.pop().map(|std::cmp::Reverse(k)| k);
        let got = heap.pop().map(|(t, w)| (t, w as u32));
        proptest::prop_assert_eq!(got, want);
        if let Some(k) = want {
            live.remove(&k);
            *last = k;
        }
        Ok(want.is_some())
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(256))]

        /// The radix heap pops the exact sequence a `BinaryHeap` min-queue
        /// pops under random monotone pushes and pops: ties at one cycle,
        /// pushes at exactly the popped cycle with higher warp ids, gaps
        /// beyond 2^32 cycles, cycles near 2^40, and drains to empty
        /// followed by refills.
        #[test]
        fn radix_heap_matches_binary_heap(
            near_2_40 in 0u8..2,
            offset in 0u64..1 << 12,
            ops in proptest::collection::vec(queue_op(), 1..400),
        ) {
            use std::cmp::Reverse;
            use std::collections::{BinaryHeap, HashSet};

            let base = if near_2_40 == 1 { (1u64 << 40) - (1 << 11) + offset } else { offset };
            let mut heap = RadixHeap::default();
            let mut model: BinaryHeap<Reverse<(u64, u32)>> = BinaryHeap::new();
            let mut live: HashSet<(u64, u32)> = HashSet::new();
            // The last popped key; pushes never go below it.
            let mut last = (base, 0u32);
            for (op, r, w) in ops {
                let (lc, lw) = last;
                let key = match op {
                    // Small steps: a quarter land on the popped cycle.
                    0..=3 => (lc + r % 4, w),
                    // Exactly the popped cycle, at or above the popped warp.
                    4 => (lc, lw + w),
                    // A gap beyond 2^32 cycles.
                    5 => (lc + (1 << 32) + r, w),
                    6 => (lc + r, w),
                    7 | 8 => {
                        pop_both(&mut heap, &mut model, &mut live, &mut last)?;
                        continue;
                    }
                    _ => {
                        while pop_both(&mut heap, &mut model, &mut live, &mut last)? {}
                        continue;
                    }
                };
                // Distinct keys, monotone with respect to the last pop.
                if key < last || !live.insert(key) {
                    continue;
                }
                heap.push(key.0, key.1);
                model.push(Reverse(key));
            }
            while pop_both(&mut heap, &mut model, &mut live, &mut last)? {}
            proptest::prop_assert!(heap.pop().is_none());
        }
    }
}
