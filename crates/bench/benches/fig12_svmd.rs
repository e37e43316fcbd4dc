//! Figure 12: multi-dimensional stability verification time vs dataset
//! size (d = 3, Monte-Carlo oracle), with the exact d = 3 oracle (the
//! orthant triangle clipped by the region's planes) alongside.
//!
//! Paper shape: the region has O(n) half-spaces so cost grows with n, but
//! the early-exit oracle stays near-linear in |S| because most samples
//! violate one of the first constraints they test. The exact oracle is
//! O(n·h) for a polygon of h vertices, so it too grows about linearly.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use srank_bench::bluenile_dataset;
use srank_core::prelude::*;
use std::hint::black_box;
use std::time::Duration;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig12_svmd");
    g.sample_size(10).warm_up_time(Duration::from_millis(300));
    let roi = RegionOfInterest::full(3);
    let mut rng = StdRng::seed_from_u64(12);
    let samples = roi.sampler().sample_buffer(&mut rng, 100_000);
    for n in [100usize, 1_000, 10_000] {
        let data = bluenile_dataset(n, 3);
        let ranking = data.rank(&[1.0, 1.0, 1.0]).unwrap();
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                black_box(
                    stability_verify_md(black_box(&data), black_box(&ranking), &samples).unwrap(),
                )
            })
        });
    }
    g.finish();

    let mut g = c.benchmark_group("fig12_svmd_girard");
    g.sample_size(10).warm_up_time(Duration::from_millis(300));
    for n in [100usize, 400, 1_000] {
        let data = bluenile_dataset(n, 3);
        let ranking = data.rank(&[1.0, 1.0, 1.0]).unwrap();
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| black_box(stability_verify_3d_exact(black_box(&data), &ranking).unwrap()))
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
