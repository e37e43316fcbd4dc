//! The top-k candidate filter must be exact: for every admissible weight
//! vector, selection over the k-skyband's rows ([`Skyband::top_k_into_keyed`])
//! returns exactly `Dataset::top_k` over all items — same items, same
//! order — on data built to break the beating rules: duplicate rows, rows
//! tied in one coordinate, rows a few ulps apart, items dominated only by
//! higher-index items, weights with exact zero components, and `k` at or
//! above the candidate-set size.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use srank_core::dataset::Skyband;
use srank_core::prelude::*;

fn lcg(mut state: u64) -> impl FnMut() -> f64 {
    move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        ((state >> 11) as f64) / ((1u64 << 53) as f64)
    }
}

/// `x` moved up by `ulps` units in the last place.
fn ulps_up(mut x: f64, ulps: usize) -> f64 {
    for _ in 0..ulps {
        x = x.next_up();
    }
    x
}

/// `n` rows over a coarse grid (so coordinates tie often, zeros
/// included), each after the first either fresh or derived from an
/// earlier row: an exact duplicate, a copy a few ulps higher everywhere,
/// a copy higher in one coordinate only, or a copy a grid step higher in
/// one coordinate. Every derived row sits at a *higher* index than the
/// row it matches or dominates.
fn edge_rows(n: usize, d: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut next = lcg(seed);
    let mut rows: Vec<Vec<f64>> = Vec::with_capacity(n);
    while rows.len() < n {
        let pick = (next() * 5.0) as usize;
        let base = rows
            .get((next() * rows.len() as f64) as usize)
            .cloned()
            .unwrap_or_default();
        let c = (next() * d as f64) as usize;
        let ulps = 1 + (next() * 4.0) as usize;
        let row = match pick {
            _ if base.is_empty() => Vec::new(),
            1 => base,
            2 => base.iter().map(|&x| ulps_up(x, ulps)).collect(),
            3 => {
                let mut r = base;
                r[c] = ulps_up(r[c], ulps);
                r
            }
            4 => {
                let mut r = base;
                r[c] = (r[c] + 0.125).min(1.0);
                r
            }
            _ => Vec::new(),
        };
        let row = if row.is_empty() {
            (0..d).map(|_| (next() * 8.0).floor() / 8.0).collect()
        } else {
            row
        };
        rows.push(row);
    }
    rows
}

/// Orthant samples plus the same samples with one exact zero (of either
/// sign), scaled far down and far up, and the axis and all-ones vectors.
fn admissible_weights(d: usize, seed: u64, samples: usize) -> Vec<Vec<f64>> {
    let sampler = RegionOfInterest::full(d).sampler();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::new();
    for s in 0..samples {
        let w = sampler.sample(&mut rng);
        let mut zeroed = w.clone();
        zeroed[s % d] = if s % 2 == 0 { 0.0 } else { -0.0 };
        out.push(w.iter().map(|x| x * 1e-25).collect());
        out.push(w.iter().map(|x| x * 1e25).collect());
        out.push(zeroed);
        out.push(w);
    }
    for c in 0..d {
        let mut axis = vec![0.0; d];
        axis[c] = 1.0;
        out.push(axis);
    }
    out.push(vec![1.0; d]);
    out
}

/// Checks the filter against `Dataset::top_k` for every weight vector and
/// every `k' ≤ k` the set serves.
fn assert_exact(data: &Dataset, sky: &Skyband, k: usize, weights: &[Vec<f64>]) {
    let (mut scores, mut keys, mut out) = (Vec::new(), Vec::new(), Vec::new());
    for w in weights {
        for kk in [1, k.div_ceil(2), k] {
            assert!(
                sky.top_k_into_keyed(w, kk, &mut scores, &mut keys, &mut out),
                "admissible weights {w:?} refused"
            );
            assert_eq!(out, data.top_k(w, kk).unwrap(), "k = {kk}, w = {w:?}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn filtered_top_k_equals_top_k_over_all_items(
        n in 2usize..60,
        d in 2usize..5,
        k_pick in 0usize..1000,
        seed in 0u64..1_000_000,
    ) {
        let data = Dataset::from_rows(&edge_rows(n, d, seed)).unwrap();
        // k from 1 to n + 2, so k ≥ n comes up too.
        let k = 1 + k_pick % (n + 2);
        let sky = data.k_skyband(k).expect("small inputs stay within the build bound");
        prop_assert!(sky.items().len() >= k.min(n));
        prop_assert!(sky.items().windows(2).all(|p| p[0] < p[1]), "ascending ids");
        assert_exact(&data, &sky, k, &admissible_weights(d, seed ^ 0x5eed, 40));
    }
}

/// Equal-valued rows: the lower index wins every tie, so a duplicate at a
/// higher index is beaten by its twin, and one at a lower index is not.
#[test]
fn duplicates_resolve_by_index() {
    let data = Dataset::from_rows(&[
        vec![0.5, 0.5],
        vec![0.9, 0.1],
        vec![0.5, 0.5],
        vec![0.5, 0.5],
        vec![0.1, 0.9],
    ])
    .unwrap();
    let sky = data.k_skyband(1).unwrap();
    // Items 2 and 3 tie with item 0 under every weight vector and lose
    // the tie-break; nothing beats items 0, 1 and 4.
    assert_eq!(sky.items(), &[0, 1, 4]);
    assert_exact(&data, &sky, 1, &admissible_weights(2, 3, 200));
}

/// Items dominated only by higher-index items in a tied coordinate, or
/// by a few ulps: neither is beaten, since a zero weight on the
/// separating coordinates ties the scores and the lower index wins.
#[test]
fn dominated_only_by_higher_index_items_are_kept() {
    let data = Dataset::from_rows(&[
        vec![0.5, 0.5],
        vec![0.5, 0.75],
        vec![0.25, 0.25],
        vec![ulps_up(0.25, 2), ulps_up(0.25, 2)],
    ])
    .unwrap();
    let sky = data.k_skyband(1).unwrap();
    // Item 0 ties item 1 under w = (1, 0) and wins on index.
    assert!(sky.items().contains(&0));
    let sky2 = data.k_skyband(3).unwrap();
    // Item 2 is beaten by 0 and 1 (lower index), not by 3 (ulps above,
    // higher index): two beaters, so it stays a top-3 candidate.
    assert!(sky2.items().contains(&2));
    let weights = admissible_weights(2, 5, 200);
    assert_exact(&data, &sky, 1, &weights);
    assert_exact(&data, &sky2, 3, &weights);
}

/// A strict margin in every coordinate beats from a higher index.
#[test]
fn clear_margin_beats_from_a_higher_index() {
    let data = Dataset::from_rows(&[vec![0.25, 0.25], vec![0.5, 0.5], vec![0.75, 0.75]]).unwrap();
    let sky = data.k_skyband(1).unwrap();
    assert_eq!(sky.items(), &[2]);
    assert_exact(&data, &sky, 1, &admissible_weights(2, 7, 100));
}

/// The first `k` rows clear every other row, so the candidate set is
/// exactly `k` items and selection sorts all of them; `k ≥ n` keeps
/// every item.
#[test]
fn k_at_or_above_the_candidate_set_size() {
    let mut rows = vec![
        vec![0.95, 0.9, 0.91],
        vec![0.9, 0.97, 0.9],
        vec![0.92, 0.9, 0.99],
    ];
    rows.extend(
        edge_rows(40, 3, 11)
            .into_iter()
            .map(|r| r.iter().map(|x| x * 0.8).collect::<Vec<_>>()),
    );
    let data = Dataset::from_rows(&rows).unwrap();
    let weights = admissible_weights(3, 13, 100);
    let sky = data.k_skyband(3).unwrap();
    assert_eq!(sky.items(), &[0, 1, 2]);
    assert_exact(&data, &sky, 3, &weights);
    for k in [data.len(), data.len() + 5] {
        let all = data.k_skyband(k).unwrap();
        assert_eq!(all.items().len(), data.len());
        assert_exact(&data, &all, k, &weights);
    }
}

/// Negative, NaN, infinite, all-zero and vanishing weights are not
/// admissible: the caller must score all items.
#[test]
fn inadmissible_weights_are_refused() {
    let data = Dataset::from_rows(&edge_rows(30, 3, 17)).unwrap();
    let sky = data.k_skyband(2).unwrap();
    let (mut scores, mut keys, mut out) = (Vec::new(), Vec::new(), Vec::new());
    for w in [
        [0.5, -0.1, 0.8],
        [0.5, f64::NAN, 0.8],
        [0.5, f64::INFINITY, 0.8],
        [0.0, 0.0, 0.0],
        [1e-40, 0.0, 1e-40],
    ] {
        assert!(!sky.admits(&w), "{w:?}");
        assert!(!sky.top_k_into_keyed(&w, 2, &mut scores, &mut keys, &mut out));
    }
    // A set built for k = 2 does not serve k = 3.
    assert!(!sky.top_k_into_keyed(&[0.5, 0.5, 0.5], 3, &mut scores, &mut keys, &mut out));
}

/// On a real dataset the filter prunes most items, and the enumerator
/// reports the same candidates.
#[test]
fn dot_candidates_are_a_small_exact_subset() {
    let mut rng = StdRng::seed_from_u64(2018);
    let data = Dataset::from_rows(&srank_data::dot(&mut rng, 2000).normalized()).unwrap();
    let sky = data.k_skyband(10).unwrap();
    assert!(sky.items().len() >= 10);
    assert!(
        sky.items().len() < data.len() / 4,
        "|K| = {}",
        sky.items().len()
    );
    assert_exact(&data, &sky, 10, &admissible_weights(3, 19, 300));
    let roi = RegionOfInterest::full(3);
    let e = RandomizedEnumerator::new(&data, &roi, RankingScope::TopKSet(10), 0.05).unwrap();
    assert_eq!(e.candidates(), Some(sky.items()));
    let full = RandomizedEnumerator::new(&data, &roi, RankingScope::Full, 0.05).unwrap();
    assert_eq!(full.candidates(), None, "the full scope scores every item");
}

/// Anti-correlated rows leave almost nothing to prune: the build gives
/// up within its fixed work bound instead of paying `O(n²)`.
#[test]
fn anti_correlated_build_gives_up() {
    let n = 3000;
    let rows: Vec<Vec<f64>> = (0..n)
        .map(|i| {
            let x = i as f64 / n as f64;
            vec![x, 1.0 - x]
        })
        .collect();
    let data = Dataset::from_rows(&rows).unwrap();
    assert!(data.k_skyband(10).is_none());
    let roi = RegionOfInterest::full(2);
    let e = RandomizedEnumerator::new(&data, &roi, RankingScope::TopKRanked(10), 0.05).unwrap();
    assert_eq!(e.candidates(), None);
}
