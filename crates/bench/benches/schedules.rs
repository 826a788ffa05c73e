//! Criterion: schedule generation, validation and exact timing.

use bfpp_core::{Schedule, ScheduleKind};
use bfpp_parallel::Placement;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_generate(c: &mut Criterion) {
    let mut group = c.benchmark_group("schedule_generate");
    for kind in ScheduleKind::ALL {
        let placement = if kind.supports_looping() {
            Placement::looping(8, 8)
        } else {
            Placement::linear(8)
        };
        group.bench_with_input(
            BenchmarkId::new("generate", kind.to_string()),
            &kind,
            |b, &k| b.iter(|| Schedule::generate(k, placement, 64).unwrap().num_actions()),
        );
    }
    group.finish();
}

fn bench_validate_and_time(c: &mut Criterion) {
    let mut group = c.benchmark_group("schedule_analysis");
    let s = Schedule::generate(ScheduleKind::BreadthFirst, Placement::looping(8, 8), 64).unwrap();
    group.bench_function("validate", |b| b.iter(|| s.validate().unwrap()));
    group.bench_function("exact_timing", |b| {
        b.iter(|| s.exact_timing(1, 2).makespan())
    });
    group.bench_function("peak_checkpoints", |b| b.iter(|| s.peak_checkpoints()));
    group.bench_function("stage_runs", |b| {
        b.iter(|| (0..8).map(|d| s.stage_runs(d).len()).sum::<usize>())
    });
    group.finish();
}

fn quick_criterion() -> Criterion {
    Criterion::default()
        .sample_size(20)
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(3))
}

criterion_group! {
    name = benches;
    config = quick_criterion();
    targets = bench_generate, bench_validate_and_time
}
criterion_main!(benches);
