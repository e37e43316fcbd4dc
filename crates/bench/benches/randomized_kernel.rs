//! The randomized-sampler hot path: interned kernel vs the pre-PR
//! accumulator shape, on the full-scope DoT workload (reduced sample
//! counts — `bench_record` runs the committed 100k-sample figures).
//!
//! Three flavours: the legacy HashMap accumulator (row-major scores,
//! indirect comparator sort, owned-key clone per sample), the interned
//! kernel (`sample_n`), and the worker-merged parallel kernel
//! (`sample_n_parallel`).
//!
//! Plus the top-k-ranked k=10 model on DoT n=2000: selection over the
//! top-k candidates (the k-skyband `K`) against selection over all items,
//! printed as µs per sample (weight sampling included) and `|K|/n`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use srank_bench::{bluenile_dataset, dot_dataset};
use srank_core::prelude::*;
use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("randomized_kernel");
    g.sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(10));
    let data = bluenile_dataset(2000, 3);
    let roi = RegionOfInterest::full(3);
    let samples = 2_000usize;

    g.bench_with_input(
        BenchmarkId::new("legacy_hashmap", samples),
        &samples,
        |b, &n| {
            b.iter(|| {
                let sampler = roi.sampler();
                let mut rng = StdRng::seed_from_u64(7);
                let mut counts: HashMap<Vec<u32>, u64> = HashMap::new();
                let (mut scores, mut idx) = (Vec::new(), Vec::new());
                for _ in 0..n {
                    let w = sampler.sample(&mut rng);
                    data.scores_into_row_major(&w, &mut scores);
                    idx.clear();
                    idx.extend(0..data.len() as u32);
                    idx.sort_unstable_by(|&a, &b| {
                        scores[b as usize]
                            .partial_cmp(&scores[a as usize])
                            .unwrap()
                            .then(a.cmp(&b))
                    });
                    *counts.entry(idx.clone()).or_insert(0) += 1;
                }
                black_box(counts.len())
            })
        },
    );

    g.bench_with_input(
        BenchmarkId::new("interned_kernel", samples),
        &samples,
        |b, &n| {
            b.iter(|| {
                let mut e =
                    RandomizedEnumerator::new(&data, &roi, RankingScope::Full, 0.05).unwrap();
                let mut rng = StdRng::seed_from_u64(7);
                e.sample_n(&mut rng, n);
                black_box(e.distinct_observed())
            })
        },
    );

    g.bench_with_input(
        BenchmarkId::new("parallel_kernel", samples),
        &samples,
        |b, &n| {
            let threads = std::thread::available_parallelism().map_or(1, |p| p.get().min(8));
            b.iter(|| {
                let mut e =
                    RandomizedEnumerator::new(&data, &roi, RankingScope::Full, 0.05).unwrap();
                e.sample_n_parallel(7, n, threads);
                black_box(e.distinct_observed())
            })
        },
    );

    let dot = dot_dataset(2000);
    let sky = dot.k_skyband(10).expect("DoT builds its candidate set");
    println!(
        "top-k-ranked k=10, DoT n={}: |K|/n = {}/{} = {:.3}",
        dot.len(),
        sky.items().len(),
        dot.len(),
        sky.items().len() as f64 / dot.len() as f64
    );
    let sampler = roi.sampler();
    for label in ["candidates", "all items"] {
        let n = 20_000;
        let mut rng = StdRng::seed_from_u64(7);
        let (mut w, mut scores, mut keys, mut out) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        let t = Instant::now();
        for _ in 0..n {
            sampler.sample_into(&mut rng, &mut w);
            if label == "all items"
                || !sky.top_k_into_keyed(&w, 10, &mut scores, &mut keys, &mut out)
            {
                dot.top_k_into_keyed(&w, 10, &mut scores, &mut keys, &mut out);
            }
            black_box(&out);
        }
        println!(
            "top-k-ranked k=10, {label}: {:.2} us per sample",
            t.elapsed().as_secs_f64() * 1e6 / n as f64
        );
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
