//! Offline vendored stub of the `criterion` 0.5 API subset this
//! workspace's benches use.
//!
//! The build environment has no crates.io access, so the workspace vendors
//! a minimal bench harness: [`Criterion::benchmark_group`],
//! [`BenchmarkGroup::bench_function`], [`Bencher::iter`], and the
//! [`criterion_group!`]/[`criterion_main!`] macros. Each bench runs its
//! routine `sample_size` times and prints the mean wall-clock time — enough
//! to track harness regressions by eye, with none of upstream criterion's
//! statistics. As upstream, `cargo bench -- <filter>` runs only the benches
//! whose `group/name` id contains `<filter>`.

#![warn(clippy::unwrap_used, clippy::expect_used)]

use std::time::{Duration, Instant};

/// Bench-run context (stub of `criterion::Criterion`).
#[derive(Default)]
pub struct Criterion {
    _private: (),
}

impl Criterion {
    /// Open a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        println!("group {name}");
        BenchmarkGroup {
            _c: self,
            name: name.to_string(),
            sample_size: 10,
        }
    }

    /// Run a single benchmark outside any group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, mut f: F) -> &mut Self {
        if selected(name) {
            run_bench(name, 10, &mut f);
        }
        self
    }
}

/// Whether the bench `id` matches the command line's filter: the first
/// argument not starting with `-` (cargo passes `--bench` itself).
fn selected(id: &str) -> bool {
    std::env::args()
        .skip(1)
        .find(|a| !a.starts_with('-'))
        .is_none_or(|filter| id.contains(&filter))
}

/// A named group of benchmarks sharing a sample size.
pub struct BenchmarkGroup<'a> {
    _c: &'a mut Criterion,
    name: String,
    sample_size: usize,
}

impl BenchmarkGroup<'_> {
    /// Set how many samples each bench in this group collects.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Time one routine.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, mut f: F) -> &mut Self {
        if selected(&format!("{}/{name}", self.name)) {
            run_bench(name, self.sample_size, &mut f);
        }
        self
    }

    /// End the group (upstream finalises reports here; the stub only
    /// terminates the group's output block).
    pub fn finish(self) {}
}

fn run_bench<F: FnMut(&mut Bencher)>(name: &str, samples: usize, f: &mut F) {
    let mut b = Bencher {
        elapsed: Duration::ZERO,
        iters: 0,
    };
    for _ in 0..samples {
        f(&mut b);
    }
    let mean = if b.iters > 0 {
        b.elapsed / b.iters as u32
    } else {
        Duration::ZERO
    };
    println!("  {name:<40} {mean:>12.2?}/iter ({} iters)", b.iters);
}

/// Timing handle passed to bench closures.
pub struct Bencher {
    elapsed: Duration,
    iters: u64,
}

impl Bencher {
    /// Time one call of `routine` (upstream batches; the stub times each
    /// call individually, which is fine at this workspace's macro scale).
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        let t0 = Instant::now();
        let out = routine();
        self.elapsed += t0.elapsed();
        self.iters += 1;
        drop(out);
    }
}

/// Opaque measurement marker (some call sites name it in signatures).
pub mod measurement {
    /// Wall-clock measurement marker type.
    pub struct WallTime;
}

/// Prevents the optimiser from deleting a value the bench computes.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// Bundle bench functions into one runner callable from
/// [`criterion_main!`].
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut c = $crate::Criterion::default();
            $($target(&mut c);)+
        }
    };
}

/// Emit a `main` that runs the given groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_times_and_counts_iters() {
        let mut c = Criterion::default();
        let mut g = c.benchmark_group("t");
        g.sample_size(3);
        let mut calls = 0u32;
        g.bench_function("count", |b| {
            b.iter(|| {
                calls += 1;
                black_box(calls)
            })
        });
        g.finish();
        assert_eq!(calls, 3);
    }
}
