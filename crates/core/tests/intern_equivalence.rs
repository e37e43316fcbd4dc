//! The fingerprint-keyed accumulator must be *indistinguishable* from the
//! straightforward `HashMap<Vec<u32>, (count, exemplar)>` accumulator:
//! re-deriving each entry's ranking from its exemplar with the plain
//! ranking APIs (`Dataset::rank` / `top_k`) must give the reference's
//! ranking → (count, exemplar) map exactly, across scopes, seeds, and
//! thread counts — plus run-to-run determinism of the parallel sampler.

use rand::rngs::StdRng;
use rand::SeedableRng;
use srank_core::intern::fingerprint;
use srank_core::prelude::*;
use std::collections::HashMap;

fn lcg_rows(n: usize, d: usize, mut state: u64) -> Vec<Vec<f64>> {
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        ((state >> 11) as f64) / ((1u64 << 53) as f64)
    };
    (0..n).map(|_| (0..d).map(|_| next()).collect()).collect()
}

/// The counting key of `w` under `scope`, via the convenience ranking
/// APIs (not the enumerator's keyed kernels).
fn ranking_of(data: &Dataset, scope: RankingScope, w: &[f64]) -> Vec<u32> {
    match scope {
        RankingScope::Full => data.rank(w).unwrap().order().to_vec(),
        RankingScope::TopKRanked(k) => data.top_k(w, k).unwrap(),
        RankingScope::TopKSet(k) => {
            let mut set = data.top_k(w, k).unwrap();
            set.sort_unstable();
            set
        }
    }
}

/// The reference accumulator: sample with the *same* RNG stream, key
/// with the convenience ranking APIs, count into a `HashMap`.
fn reference_counts(
    data: &Dataset,
    roi: &RegionOfInterest,
    scope: RankingScope,
    seed: u64,
    n: usize,
) -> HashMap<Vec<u32>, (u64, Vec<f64>)> {
    let sampler = roi.sampler();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut counts: HashMap<Vec<u32>, (u64, Vec<f64>)> = HashMap::new();
    for _ in 0..n {
        let w = sampler.sample(&mut rng);
        let key = ranking_of(data, scope, &w);
        counts.entry(key).and_modify(|e| e.0 += 1).or_insert((1, w));
    }
    counts
}

/// The enumerator's table as ranking → (count, exemplar), each ranking
/// re-derived from its entry's exemplar. Every entry's fingerprint must be
/// its re-derived ranking's, and no two entries may re-derive the same
/// ranking.
fn interned_counts(
    data: &Dataset,
    e: &RandomizedEnumerator<'_>,
    scope: RankingScope,
) -> HashMap<Vec<u32>, (u64, Vec<f64>)> {
    let mut out = HashMap::new();
    for (fp, count, exemplar) in e.observed() {
        let ranking = ranking_of(data, scope, exemplar);
        assert_eq!(fp, fingerprint(&ranking), "exemplar re-ranks to its entry");
        let dup = out.insert(ranking, (count, exemplar.to_vec()));
        assert!(dup.is_none(), "two entries hold the same ranking");
    }
    out
}

#[test]
fn interned_accumulator_matches_hashmap_reference_across_scopes_and_seeds() {
    let data = Dataset::from_rows(&lcg_rows(18, 3, 901)).unwrap();
    let roi = RegionOfInterest::full(3);
    let scopes = [
        RankingScope::Full,
        RankingScope::TopKRanked(5),
        RankingScope::TopKSet(5),
        RankingScope::TopKRanked(30), // clamps past n
    ];
    for scope in scopes {
        for seed in [1u64, 77, 4040] {
            let reference = reference_counts(&data, &roi, scope, seed, 3000);
            let mut e = RandomizedEnumerator::new(&data, &roi, scope, 0.05).unwrap();
            let mut rng = StdRng::seed_from_u64(seed);
            e.sample_n(&mut rng, 3000);
            let got = interned_counts(&data, &e, scope);
            assert_eq!(got.len(), reference.len(), "{scope:?} seed {seed}");
            assert_eq!(got, reference, "{scope:?} seed {seed}");
        }
    }
}

#[test]
fn interned_accumulator_matches_reference_on_cone_roi() {
    let data = Dataset::from_rows(&lcg_rows(25, 4, 55)).unwrap();
    let roi = RegionOfInterest::cone(&[1.0, 0.8, 0.6, 0.4], std::f64::consts::PI / 30.0);
    let scope = RankingScope::TopKRanked(8);
    let reference = reference_counts(&data, &roi, scope, 9, 2000);
    let mut e = RandomizedEnumerator::new(&data, &roi, scope, 0.05).unwrap();
    let mut rng = StdRng::seed_from_u64(9);
    e.sample_n(&mut rng, 2000);
    assert_eq!(interned_counts(&data, &e, scope), reference);
}

#[test]
fn parallel_tables_merge_to_the_worker_union_for_every_thread_count() {
    let data = Dataset::from_rows(&lcg_rows(14, 3, 313)).unwrap();
    let roi = RegionOfInterest::full(3);
    for scope in [
        RankingScope::Full,
        RankingScope::TopKRanked(4),
        RankingScope::TopKSet(4),
    ] {
        for threads in [1usize, 2, 3, 4, 7] {
            // Reference: per-worker sequential accumulation with the
            // worker-seed convention of sample_n_parallel.
            let n = 2003usize;
            let share = n / threads;
            let remainder = n % threads;
            let mut reference: HashMap<Vec<u32>, (u64, Vec<f64>)> = HashMap::new();
            for t in 0..threads {
                let budget = share + usize::from(t < remainder);
                for (key, (count, exemplar)) in
                    reference_counts(&data, &roi, scope, 91 + t as u64, budget)
                {
                    reference
                        .entry(key)
                        .and_modify(|e| e.0 += count)
                        .or_insert((count, exemplar));
                }
            }
            let mut e = RandomizedEnumerator::new(&data, &roi, scope, 0.05).unwrap();
            e.sample_n_parallel(91, n, threads);
            assert_eq!(e.total_samples(), n as u64);
            assert_eq!(
                interned_counts(&data, &e, scope),
                reference,
                "{scope:?} × {threads}"
            );
        }
    }
}

#[test]
fn parallel_sampling_is_deterministic_over_the_interned_layout() {
    let data = Dataset::from_rows(&lcg_rows(16, 3, 717)).unwrap();
    let roi = RegionOfInterest::full(3);
    let run = |threads: usize| {
        let mut e =
            RandomizedEnumerator::new(&data, &roi, RankingScope::TopKRanked(6), 0.05).unwrap();
        e.sample_n_parallel(5, 5000, threads);
        // Full dump, order included: insertion order must reproduce.
        e.observed()
            .map(|(fp, c, x)| (fp, c, x.to_vec()))
            .collect::<Vec<_>>()
    };
    assert_eq!(run(4), run(4), "same thread count ⇒ identical table");
    assert_eq!(run(1), run(1));
}

#[test]
fn observe_samples_equals_drawing_the_same_stream() {
    // A cached batch drawn from the sampler must count exactly like
    // sampling live with the RNG that generated it.
    let data = Dataset::from_rows(&lcg_rows(20, 3, 99)).unwrap();
    let roi = RegionOfInterest::full(3);
    let scope = RankingScope::TopKSet(5);

    let mut rng = StdRng::seed_from_u64(1234);
    let batch = roi.sampler().sample_buffer(&mut rng, 4000);
    let mut fed = RandomizedEnumerator::new(&data, &roi, scope, 0.05).unwrap();
    fed.observe_samples(&batch).unwrap();

    let mut live = RandomizedEnumerator::new(&data, &roi, scope, 0.05).unwrap();
    let mut rng2 = StdRng::seed_from_u64(1234);
    live.sample_n(&mut rng2, 4000);

    assert_eq!(fed.total_samples(), live.total_samples());
    assert_eq!(
        interned_counts(&data, &fed, scope),
        interned_counts(&data, &live, scope)
    );
}

#[test]
fn observe_samples_rejects_dimension_mismatch() {
    let data = Dataset::figure1();
    let roi3 = RegionOfInterest::full(3);
    let mut rng = StdRng::seed_from_u64(3);
    let batch = roi3.sampler().sample_buffer(&mut rng, 10);
    let roi2 = RegionOfInterest::full(2);
    let mut e = RandomizedEnumerator::new(&data, &roi2, RankingScope::Full, 0.05).unwrap();
    assert!(e.observe_samples(&batch).is_err());
    assert_eq!(e.total_samples(), 0, "failed feed must not count");
}

#[test]
fn state_round_trip_preserves_the_interned_table_exactly() {
    let data = Dataset::from_rows(&lcg_rows(12, 3, 47)).unwrap();
    let roi = RegionOfInterest::full(3);
    let mut e = RandomizedEnumerator::new(&data, &roi, RankingScope::Full, 0.05).unwrap();
    let mut rng = StdRng::seed_from_u64(8);
    e.sample_n(&mut rng, 1500);
    let first = e.get_next_budget(&mut rng, 0).unwrap();
    let before = interned_counts(&data, &e, RankingScope::Full);

    let state = e.into_state();
    assert_eq!(state.total_samples(), 1500);
    let mut back = RandomizedEnumerator::from_state(&data, state).unwrap();
    assert_eq!(interned_counts(&data, &back, RankingScope::Full), before);
    // Returned flags survive the round trip: the first ranking does not
    // come back.
    while let Some(d) = back.get_next_budget(&mut rng, 0) {
        assert_ne!(d.items, first.items);
    }
}

/// DoT n=2000, the benchmark's dataset shape, whose top-10 candidate set
/// is a small fraction of the items.
fn dot_2000() -> Dataset {
    let mut rng = StdRng::seed_from_u64(2018);
    Dataset::from_rows(&srank_data::dot(&mut rng, 2000).normalized()).unwrap()
}

#[test]
fn candidate_filter_matches_reference_with_pruning_active() {
    let data = dot_2000();
    let roi = RegionOfInterest::full(3);
    for scope in [RankingScope::TopKRanked(10), RankingScope::TopKSet(10)] {
        for threads in [1usize, 2, 3] {
            let n = 1500usize;
            let (share, remainder) = (n / threads, n % threads);
            let mut reference: HashMap<Vec<u32>, (u64, Vec<f64>)> = HashMap::new();
            for t in 0..threads {
                let budget = share + usize::from(t < remainder);
                for (key, (count, exemplar)) in
                    reference_counts(&data, &roi, scope, 404 + t as u64, budget)
                {
                    reference
                        .entry(key)
                        .and_modify(|e| e.0 += count)
                        .or_insert((count, exemplar));
                }
            }
            let mut e = RandomizedEnumerator::new(&data, &roi, scope, 0.05).unwrap();
            let pruned = e.candidates().expect("DoT builds its candidate set").len();
            assert!(pruned < data.len() / 4, "|K| = {pruned} of {}", data.len());
            e.sample_n_parallel(404, n, threads);
            assert_eq!(
                interned_counts(&data, &e, scope),
                reference,
                "{scope:?} × {threads}"
            );
        }
    }
}

#[test]
fn leaked_negative_weights_score_all_items() {
    // A wide cap around an edge ray, not clipped to the orthant: some
    // samples carry a negative component, under which items outside the
    // candidate set can reach the top k.
    let data = dot_2000();
    let roi = RegionOfInterest::cone(&[1.0, 0.05, 0.05], std::f64::consts::PI / 6.0);
    let scope = RankingScope::TopKRanked(10);
    let reference = reference_counts(&data, &roi, scope, 31, 1500);
    let mut e = RandomizedEnumerator::new(&data, &roi, scope, 0.05).unwrap();
    let candidates = e.candidates().unwrap().to_vec();
    let outside = reference
        .iter()
        .filter(|(key, _)| key.iter().any(|i| candidates.binary_search(i).is_err()))
        .count();
    assert!(outside > 0, "the leak must reach beyond the candidates");
    let mut rng = StdRng::seed_from_u64(31);
    e.sample_n(&mut rng, 1500);
    assert_eq!(interned_counts(&data, &e, scope), reference);
}
