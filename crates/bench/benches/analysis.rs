//! Criterion benches for the metrics pipeline (trace post-processing) and
//! waveform comparison.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use enviromic::core::{Mode, NodeConfig};
use enviromic::harness::{indoor_world_config, run_scenario, ExperimentRun};
use enviromic::metrics::{amplitude_envelope, best_xcorr, IntervalSet};
use enviromic::types::MsgKind;
use enviromic::workloads::{indoor_scenario, IndoorParams};

fn sample_run() -> ExperimentRun {
    let params = IndoorParams {
        duration_secs: 300.0,
        ..IndoorParams::default()
    };
    let scenario = indoor_scenario(&params, 5);
    let cfg = NodeConfig::default()
        .with_mode(Mode::Full)
        .with_flash_chunks(650);
    run_scenario(scenario, &cfg, indoor_world_config(5), 5.0)
}

fn bench_metrics(c: &mut Criterion) {
    let run = sample_run();
    let mut group = c.benchmark_group("metrics");
    group.sample_size(20);
    group.bench_function("miss_ratio_series", |b| {
        b.iter(|| black_box(run.experiment().miss_ratio_series(300.0, 30.0)))
    });
    group.bench_function("redundancy_series", |b| {
        b.iter(|| black_box(run.experiment().redundancy_series(300.0, 30.0)))
    });
    group.bench_function("message_series", |b| {
        b.iter(|| {
            black_box(run.experiment().message_series(
                &[
                    MsgKind::TaskRequest,
                    MsgKind::TaskConfirm,
                    MsgKind::BulkData,
                ],
                300.0,
                30.0,
            ))
        })
    });
    group.finish();
}

fn bench_intervals(c: &mut Criterion) {
    c.bench_function("interval_set_10k_adds", |b| {
        b.iter(|| {
            let mut s = IntervalSet::new();
            for i in 0..10_000u64 {
                let a = (i * 7919) % 1_000_000;
                s.add(a, a + 500);
            }
            black_box(s.total_len())
        })
    });
}

fn bench_waveform(c: &mut Criterion) {
    let a: Vec<u8> = (0..20_000)
        .map(|i| (128.0 + 80.0 * (i as f64 / 15.0).sin()) as u8)
        .collect();
    let b_sig: Vec<u8> = a.iter().map(|&s| s.saturating_add(2)).collect();
    c.bench_function("voice_envelope_xcorr", |bch| {
        bch.iter(|| {
            let ea = amplitude_envelope(black_box(&a), 136);
            let eb = amplitude_envelope(black_box(&b_sig), 136);
            black_box(best_xcorr(&ea, &eb, 8))
        })
    });
}

criterion_group!(benches, bench_metrics, bench_intervals, bench_waveform);
criterion_main!(benches);
