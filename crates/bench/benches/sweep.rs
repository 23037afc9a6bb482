//! Criterion bench for the parallel sweep engine: timings for a small
//! sweep at 1 worker and at all available cores. It writes no file — the
//! committed `BENCH_sweep.json` is the `sweep` driver's wall-clock-free
//! summary, which timings would only spoil.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use enviromic::default_jobs;
use enviromic::sweep::{run_sweep, SweepPlan};

fn bench_pool(c: &mut Criterion) {
    let mut group = c.benchmark_group("sweep_4x2_30s");
    group.sample_size(10);
    // Floored at 4 workers so the multi-worker path is exercised even on
    // small hosts.
    for (label, workers) in [("jobs_1", 1), ("jobs_pool", default_jobs().max(4))] {
        group.bench_function(label, |b| {
            let plan = SweepPlan::quick(vec![42, 43, 44, 45]).with_duration(30.0);
            b.iter(|| black_box(run_sweep(&plan, workers).digests()));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_pool);
criterion_main!(benches);
