//! Minimal, dependency-free stand-in for the parts of `criterion` the BEAS
//! benches use (the build environment has no registry access).
//!
//! Benchmarks run a fixed warm-up plus `sample_size` timed iterations and
//! print mean wall-clock time per iteration. No statistics, plots or
//! baselines — just enough to keep `cargo bench` runnable and the bench
//! sources compiling unchanged.
//!
//! `BEAS_BENCH_FAST=1` caps every group's sample size at 2, so a full bench
//! binary finishes in seconds.

use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Entry point handed to each benchmark function by `criterion_group!`.
#[derive(Debug, Default)]
pub struct Criterion {
    _private: (),
}

impl Criterion {
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            _criterion: self,
            name: name.into(),
            sample_size: 10,
        }
    }
}

/// Whether `BEAS_BENCH_FAST` asks for the minimal-sample smoke mode.
fn fast_mode() -> bool {
    std::env::var("BEAS_BENCH_FAST").is_ok_and(|v| !v.is_empty() && v != "0")
}

/// A named group of related benchmarks sharing a sample size.
pub struct BenchmarkGroup<'a> {
    _criterion: &'a mut Criterion,
    name: String,
    sample_size: usize,
}

impl BenchmarkGroup<'_> {
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    pub fn bench_function<F>(&mut self, id: impl std::fmt::Display, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        self.run(&id.to_string(), &mut f);
        self
    }

    pub fn bench_with_input<I, F>(&mut self, id: BenchmarkId, input: &I, mut f: F) -> &mut Self
    where
        I: ?Sized,
        F: FnMut(&mut Bencher, &I),
    {
        self.run(&id.to_string(), &mut |b: &mut Bencher| f(b, input));
        self
    }

    pub fn finish(&mut self) {}

    fn run(&mut self, id: &str, f: &mut dyn FnMut(&mut Bencher)) {
        let samples = if fast_mode() {
            self.sample_size.min(2)
        } else {
            self.sample_size
        };
        let mut bencher = Bencher {
            samples,
            total: Duration::ZERO,
            iterations: 0,
        };
        f(&mut bencher);
        let mean = if bencher.iterations > 0 {
            bencher.total / bencher.iterations as u32
        } else {
            Duration::ZERO
        };
        println!(
            "{}/{:<40} time: {:>12.3?}  ({} iterations)",
            self.name, id, mean, bencher.iterations
        );
    }
}

/// Identifier combining a function name and an input parameter.
pub struct BenchmarkId {
    full: String,
}

impl BenchmarkId {
    pub fn new(function: impl std::fmt::Display, parameter: impl std::fmt::Display) -> Self {
        BenchmarkId {
            full: format!("{function}/{parameter}"),
        }
    }

    pub fn from_parameter(parameter: impl std::fmt::Display) -> Self {
        BenchmarkId {
            full: parameter.to_string(),
        }
    }
}

impl std::fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.full)
    }
}

/// Runs and times the closure passed to `iter`.
pub struct Bencher {
    samples: usize,
    total: Duration,
    iterations: usize,
}

impl Bencher {
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        // One untimed warm-up iteration.
        black_box(f());
        let start = Instant::now();
        for _ in 0..self.samples {
            black_box(f());
        }
        self.total += start.elapsed();
        self.iterations += self.samples;
    }
}

#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

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
    fn group_runs_and_counts_iterations() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("shim");
        group.sample_size(3);
        let mut calls = 0usize;
        group.bench_function("counting", |b| b.iter(|| calls += 1));
        group.bench_with_input(BenchmarkId::new("with_input", 7), &7, |b, x| {
            b.iter(|| black_box(*x))
        });
        group.finish();
        // 1 warm-up + 3 samples
        assert_eq!(calls, 4);
    }
}
