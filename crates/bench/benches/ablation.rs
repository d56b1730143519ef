//! Criterion ablations of three design choices: perturbation on/off,
//! restart-vs-dynamic maintenance, and workload shape (uniform vs burst
//! vs window).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dynamis_baselines::{Restart, RestartSolver};
use dynamis_core::{DyOneSwap, DyTwoSwap, DynamicMis, EngineBuilder, EngineConfig};
use dynamis_gen::temporal::{burst, sliding_window, BurstConfig, SlidingWindowConfig};
use dynamis_gen::{powerlaw::chung_lu, StreamConfig, UpdateStream, Workload};

fn perturbation_cost(c: &mut Criterion) {
    let g = chung_lu(8_000, 2.4, 8.0, 31);
    let ups = UpdateStream::new(&g, StreamConfig::default(), 32).take_updates(1_500);
    let mut group = c.benchmark_group("perturbation");
    group.sample_size(10);
    for (label, perturbation) in [("off", false), ("on", true)] {
        group.bench_with_input(
            BenchmarkId::from_parameter(label),
            &perturbation,
            |b, &p| {
                b.iter(|| {
                    let cfg = EngineConfig {
                        perturbation: p,
                        ..EngineConfig::default()
                    };
                    let mut e: DyOneSwap =
                        EngineBuilder::on(g.clone()).config(cfg).build_as().unwrap();
                    for u in &ups {
                        e.try_apply(u).unwrap();
                    }
                    e.size()
                });
            },
        );
    }
    group.finish();
}

fn restart_vs_dynamic(c: &mut Criterion) {
    let g = chung_lu(4_000, 2.4, 8.0, 33);
    let ups = UpdateStream::new(&g, StreamConfig::default(), 34).take_updates(800);
    let mut group = c.benchmark_group("restart_vs_dynamic");
    group.sample_size(10);
    group.bench_function("restart_every_50", |b| {
        b.iter(|| {
            let mut e =
                Restart::from_builder(EngineBuilder::on(g.clone()), RestartSolver::Greedy, 50)
                    .unwrap();
            for u in &ups {
                e.try_apply(u).unwrap();
            }
            e.size()
        });
    });
    group.bench_function("dy_one_swap", |b| {
        b.iter(|| {
            let mut e: DyOneSwap = EngineBuilder::on(g.clone()).build_as().unwrap();
            for u in &ups {
                e.try_apply(u).unwrap();
            }
            e.size()
        });
    });
    group.finish();
}

fn workload_shapes(c: &mut Criterion) {
    let n = 6_000usize;
    let base = chung_lu(n, 2.4, 8.0, 35);
    let shapes: Vec<(&str, Workload)> = vec![
        (
            "uniform",
            Workload::generate(base.clone(), 3_000, StreamConfig::edges_only(), 36),
        ),
        (
            "window",
            sliding_window(
                SlidingWindowConfig {
                    n,
                    window: 3 * n,
                    arrivals: 1_500 + 3 * n,
                },
                37,
            ),
        ),
        (
            "burst",
            burst(
                base,
                BurstConfig {
                    bursts: 16,
                    burst_size: 96,
                    decay: 0.75,
                },
                38,
            ),
        ),
    ];
    let mut group = c.benchmark_group("workload_shape");
    group.sample_size(10);
    for (label, wl) in &shapes {
        group.bench_with_input(BenchmarkId::from_parameter(*label), wl, |b, wl| {
            b.iter(|| {
                let mut e: DyTwoSwap = EngineBuilder::on(wl.graph.clone()).build_as().unwrap();
                for u in &wl.updates {
                    e.try_apply(u).unwrap();
                }
                e.size()
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    perturbation_cost,
    restart_vs_dynamic,
    workload_shapes
);
criterion_main!(benches);
