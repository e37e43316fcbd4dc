//! Round-trip property tests for the durable state serialization: every
//! detachable enumerator state must survive `to_value` → JSON text →
//! `from_value` with its *behavior* intact — a restored enumerator must
//! continue the exact stream an uninterrupted one would have produced,
//! including mid-enumeration snapshots taken at arbitrary points.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use srank_core::prelude::*;
use srank_core::{MdState, RandomizedState, Sweep2DState};
use srank_sample::roi::RegionOfInterest;

fn attr() -> impl Strategy<Value = f64> {
    0.01..0.99f64
}

fn rows(d: usize, n: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec(prop::collection::vec(attr(), d), n)
}

/// Detach → serialize → parse → restore, through actual JSON text (the
/// same path the on-disk snapshot files take).
fn reload_sweep(state: Sweep2DState) -> Sweep2DState {
    let text = serde_json::to_string(&state.to_value()).unwrap();
    Sweep2DState::from_value(&serde_json::from_str(&text).unwrap()).unwrap()
}

fn reload_md(state: MdState) -> MdState {
    let text = serde_json::to_string(&state.to_value()).unwrap();
    MdState::from_value(&serde_json::from_str(&text).unwrap()).unwrap()
}

fn reload_randomized(state: RandomizedState) -> RandomizedState {
    let text = serde_json::to_string(&state.to_value()).unwrap();
    RandomizedState::from_value(&serde_json::from_str(&text).unwrap()).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A 2-D sweep session serialized mid-enumeration continues with the
    /// identical region stream (ranking, stability, and region bounds).
    #[test]
    fn sweep2d_state_survives_json(data in rows(2, 2..20), advance in 0usize..6) {
        let data = Dataset::from_rows(&data).unwrap();
        let mut reference = Enumerator2D::new(&data, AngleInterval::full()).unwrap();
        let mut session = Enumerator2D::new(&data, AngleInterval::full()).unwrap();
        for _ in 0..advance {
            reference.get_next();
            session.get_next();
        }
        let mut session =
            Enumerator2D::from_state(&data, reload_sweep(session.into_state())).unwrap();
        loop {
            match (reference.get_next(), session.get_next()) {
                (None, None) => break,
                (Some(a), Some(b)) => {
                    prop_assert_eq!(a.ranking, b.ranking);
                    prop_assert_eq!(a.stability.to_bits(), b.stability.to_bits());
                    prop_assert_eq!(a.region, b.region);
                }
                other => prop_assert!(false, "streams diverged: {:?}", other),
            }
        }
    }

    /// The stored-rankings sweep variant round-trips too (its snapshots
    /// ride in the serialized state).
    #[test]
    fn sweep2d_stored_rankings_survive_json(data in rows(2, 2..15)) {
        let data = Dataset::from_rows(&data).unwrap();
        let mut reference =
            Enumerator2D::new_storing_rankings(&data, AngleInterval::full()).unwrap();
        let session = Enumerator2D::new_storing_rankings(&data, AngleInterval::full()).unwrap();
        let mut session =
            Enumerator2D::from_state(&data, reload_sweep(session.into_state())).unwrap();
        while let (Some(a), Some(b)) = (reference.get_next(), session.get_next()) {
            prop_assert_eq!(a.ranking, b.ranking);
        }
    }

    /// An arrangement session (lazy refinement, partitioned samples)
    /// serialized mid-enumeration continues identically: same rankings,
    /// same stability estimates, same representatives — even when the
    /// snapshot is taken between two splits of the same region.
    #[test]
    fn md_state_survives_json(
        data in rows(3, 2..10),
        n_samples in 50usize..300,
        advance in 0usize..4,
    ) {
        let data = Dataset::from_rows(&data).unwrap();
        let roi = RegionOfInterest::full(3);
        let mut rng = StdRng::seed_from_u64(7);
        let reference = MdEnumerator::new(&data, &roi, n_samples, &mut rng).unwrap();
        let mut session = reference.clone();
        let mut reference = reference;
        for _ in 0..advance {
            reference.get_next();
            session.get_next();
        }
        let mut session = MdEnumerator::from_state(&data, reload_md(session.into_state())).unwrap();
        loop {
            match (reference.get_next(), session.get_next()) {
                (None, None) => break,
                (Some(a), Some(b)) => {
                    prop_assert_eq!(a.ranking, b.ranking);
                    prop_assert_eq!(a.stability.to_bits(), b.stability.to_bits());
                    prop_assert_eq!(a.representative, b.representative);
                }
                other => prop_assert!(false, "streams diverged: {:?}", other),
            }
        }
    }

    /// A randomized session (interned counts + its RNG position, carried
    /// alongside as the service does) continues with identical
    /// discoveries across every scope.
    #[test]
    fn randomized_state_survives_json(
        data in rows(3, 4..12),
        seed in 0u64..1000,
        scope_pick in 0usize..3,
        advance in 0usize..3,
    ) {
        let data = Dataset::from_rows(&data).unwrap();
        let roi = RegionOfInterest::full(3);
        let scope = match scope_pick {
            0 => RankingScope::Full,
            1 => RankingScope::TopKRanked(3),
            _ => RankingScope::TopKSet(3),
        };
        let mut reference = RandomizedEnumerator::new(&data, &roi, scope, 0.05).unwrap();
        let mut session = RandomizedEnumerator::new(&data, &roi, scope, 0.05).unwrap();
        let mut ref_rng = StdRng::seed_from_u64(seed);
        let mut ses_rng = StdRng::seed_from_u64(seed);
        for _ in 0..advance {
            reference.get_next_budget(&mut ref_rng, 400);
            session.get_next_budget(&mut ses_rng, 400);
        }
        // Persist the counting state and the RNG position exactly as a
        // service session checkpoint does.
        let state = reload_randomized(session.into_state());
        let rng_words = ses_rng.state();
        let mut session = RandomizedEnumerator::from_state(&data, state).unwrap();
        let mut ses_rng = StdRng::from_state(rng_words);
        for _ in 0..3 {
            match (
                reference.get_next_budget(&mut ref_rng, 400),
                session.get_next_budget(&mut ses_rng, 400),
            ) {
                (None, None) => break,
                (Some(a), Some(b)) => {
                    prop_assert_eq!(a.items, b.items);
                    prop_assert_eq!(a.stability.to_bits(), b.stability.to_bits());
                    prop_assert_eq!(a.samples_used, b.samples_used);
                    prop_assert_eq!(a.exemplar_weights, b.exemplar_weights);
                }
                other => prop_assert!(false, "streams diverged: {:?}", other),
            }
        }
    }

    /// Cone regions of interest exercise the cap sampler's exact
    /// serialization (stored rotation matrix, rebuilt CDF): the restored
    /// sampler must replay the identical sample stream.
    #[test]
    fn randomized_cone_roi_survives_json(data in rows(4, 4..10), seed in 0u64..1000) {
        let data = Dataset::from_rows(&data).unwrap();
        let roi = RegionOfInterest::cone(&[1.0, 0.7, 0.5, 0.3], 0.2);
        let mut reference =
            RandomizedEnumerator::new(&data, &roi, RankingScope::TopKRanked(3), 0.05).unwrap();
        let session =
            RandomizedEnumerator::new(&data, &roi, RankingScope::TopKRanked(3), 0.05).unwrap();
        let mut ref_rng = StdRng::seed_from_u64(seed);
        let mut ses_rng = StdRng::seed_from_u64(seed);
        let state = reload_randomized(session.into_state());
        let mut session = RandomizedEnumerator::from_state(&data, state).unwrap();
        let a = reference.get_next_budget(&mut ref_rng, 500).unwrap();
        let b = session.get_next_budget(&mut ses_rng, 500).unwrap();
        prop_assert_eq!(a.items, b.items);
        prop_assert_eq!(a.stability.to_bits(), b.stability.to_bits());
        prop_assert_eq!(a.exemplar_weights, b.exemplar_weights);
    }
}

/// Corrupted payloads must decode to errors, never panic — the service
/// loader log-and-skips whatever this layer rejects.
#[test]
fn corrupted_states_error_instead_of_panicking() {
    let data = Dataset::figure1();
    let state = Enumerator2D::new(&data, AngleInterval::full())
        .unwrap()
        .into_state();
    let good = state.to_value();

    // Shape-level corruption.
    for bad in [
        "null",
        "{}",
        r#"{"n_items": 5}"#,
        r#"{"n_items": 5, "regions": "x", "stored": null, "heap": []}"#,
        // Heap referencing a region index beyond the region list.
        r#"{"n_items": 5, "regions": [[0.0, 1.0, 1.0]], "stored": null, "heap": [[1.0, 7]]}"#,
        // Stored ranking that is not a permutation.
        r#"{"n_items": 2, "regions": [[0.0, 1.0, 1.0]], "stored": [[0, 0]], "heap": []}"#,
    ] {
        let v = serde_json::from_str(bad).unwrap();
        assert!(
            Sweep2DState::from_value(&v).is_err(),
            "accepted corrupt state: {bad}"
        );
    }

    // Field-level corruption of an otherwise-valid snapshot.
    let serde_json::Value::Object(fields) = good else {
        panic!("states serialize as objects")
    };
    for (k, _) in &fields {
        let mutated: Vec<(String, serde_json::Value)> = fields
            .iter()
            .map(|(key, v)| {
                if key == k {
                    (key.clone(), serde_json::Value::String("corrupt".into()))
                } else {
                    (key.clone(), v.clone())
                }
            })
            .collect();
        assert!(
            Sweep2DState::from_value(&serde_json::Value::Object(mutated)).is_err(),
            "field '{k}' replaced by a string must not decode"
        );
    }

    // Randomized: a non-numeric total, a malformed fingerprint, and a
    // fingerprint column that disagrees with the counts.
    let roi = RegionOfInterest::full(2);
    let mut op = RandomizedEnumerator::new(&data, &roi, RankingScope::Full, 0.05).unwrap();
    op.sample_n(&mut StdRng::seed_from_u64(3), 200);
    let text = serde_json::to_string(&op.into_state().to_value()).unwrap();
    let parses =
        |text: &str| RandomizedState::from_value(&serde_json::from_str(text).unwrap()).is_ok();
    assert!(parses(&text));
    let (head, tail) = text.split_at(text.find("\"fingerprints\":[\"").unwrap() + 17);
    for bad in [
        text.replace("\"total\":200", "\"total\":\"x\""),
        format!("{head}zz{}", &tail[2..]),
        format!("{head}0{tail}"),
        format!("{head}{}\",\"{tail}", &tail[..32]),
    ] {
        assert!(!parses(&bad), "accepted corrupt state: {bad}");
    }
}

/// A randomized state in the store layout v1 shape, built by hand: the
/// count table holds the full key arena (`keys`), not fingerprints. It
/// must restore with the same counts and exemplars in the same order, and
/// the restored enumerator must emit exactly the stored, not-yet-returned
/// rankings, each of whose exemplar re-ranks to its items.
#[test]
fn v1_key_arena_state_restores_and_emits_reproducible_rankings() {
    use serde_json::Value;
    use srank_core::intern::fingerprint;
    use srank_core::persist::{f64_slice_value, obj, u32_slice_value};

    let data = Dataset::from_rows(&[
        vec![0.9, 0.1, 0.4],
        vec![0.2, 0.8, 0.5],
        vec![0.5, 0.5, 0.2],
        vec![0.3, 0.3, 0.9],
        vec![0.7, 0.6, 0.1],
    ])
    .unwrap();
    let roi = RegionOfInterest::full(3);
    let sampler = roi.sampler();
    let mut rng = StdRng::seed_from_u64(21);
    let mut keys: Vec<Vec<u32>> = Vec::new();
    let mut counts: Vec<u64> = Vec::new();
    let mut exemplars: Vec<Vec<f64>> = Vec::new();
    for _ in 0..600 {
        let w = sampler.sample(&mut rng);
        let key = data.rank(&w).unwrap().order().to_vec();
        match keys.iter().position(|k| *k == key) {
            Some(e) => counts[e] += 1,
            None => {
                keys.push(key);
                counts.push(1);
                exemplars.push(w);
            }
        }
    }
    assert!(keys.len() >= 3, "the fixture needs several rankings");
    let table = obj([
        ("stride", Value::Number(5.0)),
        ("dim", Value::Number(3.0)),
        ("keys", u32_slice_value(&keys.concat())),
        (
            "counts",
            Value::Array(counts.iter().map(|&c| Value::Number(c as f64)).collect()),
        ),
        ("exemplars", f64_slice_value(&exemplars.concat())),
    ]);
    let v1 = obj([
        ("dim", Value::Number(3.0)),
        ("n_items", Value::Number(5.0)),
        ("scope", Value::String("full".into())),
        ("k", Value::Number(0.0)),
        ("sampler", sampler.to_value()),
        ("alpha", Value::Number(0.05)),
        ("table", table),
        ("total", Value::Number(600.0)),
        // Entry 0 was already returned before the snapshot.
        ("returned", Value::Array(vec![Value::Bool(true)])),
        ("emitted", Value::Number(1.0)),
    ]);
    let text = serde_json::to_string(&v1).unwrap();
    let state = RandomizedState::from_value(&serde_json::from_str(&text).unwrap()).unwrap();
    let mut e = RandomizedEnumerator::from_state(&data, state).unwrap();

    let restored: Vec<(u128, u64, Vec<f64>)> =
        e.observed().map(|(fp, c, x)| (fp, c, x.to_vec())).collect();
    let original: Vec<(u128, u64, Vec<f64>)> = keys
        .iter()
        .zip(&counts)
        .zip(&exemplars)
        .map(|((k, &c), x)| (fingerprint(k), c, x.clone()))
        .collect();
    assert_eq!(restored, original);
    assert_eq!(e.total_samples(), 600);

    let mut emitted = Vec::new();
    let mut last = u64::MAX;
    while let Some(d) = e.get_next_budget(&mut rng, 0) {
        let reranked = data.rank(&d.exemplar_weights).unwrap();
        assert_eq!(reranked.order(), d.items.as_slice(), "exemplar re-ranks");
        let count = (d.stability * 600.0).round() as u64;
        assert!(count <= last, "emitted in non-increasing count order");
        last = count;
        emitted.push(d.items);
    }
    assert_eq!(e.fingerprint_mismatches(), 0);
    let mut expected = keys[1..].to_vec();
    expected.sort();
    emitted.sort();
    assert_eq!(
        emitted, expected,
        "every stored ranking but the returned one"
    );
}

fn dot_rows(seed: u64, n: usize) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    Dataset::from_rows(&srank_data::dot(&mut rng, n).normalized()).unwrap()
}

/// The top-k candidate set is not persisted: a state written without it
/// rebuilds it on reattach and continues bit-identically to a session
/// that never detached.
#[test]
fn state_written_without_candidates_continues_bit_identically() {
    let data = dot_rows(5, 600);
    let roi = RegionOfInterest::full(3);
    for scope in [RankingScope::TopKRanked(10), RankingScope::TopKSet(10)] {
        let mut reference = RandomizedEnumerator::new(&data, &roi, scope, 0.05).unwrap();
        let mut session = RandomizedEnumerator::new(&data, &roi, scope, 0.05).unwrap();
        let candidates = reference.candidates().unwrap().to_vec();
        assert!(candidates.len() < data.len() / 2, "the filter prunes");
        let (mut ref_rng, mut ses_rng) = (StdRng::seed_from_u64(8), StdRng::seed_from_u64(8));
        for _ in 0..2 {
            reference.get_next_budget(&mut ref_rng, 300);
            session.get_next_budget(&mut ses_rng, 300);
        }
        let mut session =
            RandomizedEnumerator::from_state(&data, reload_randomized(session.into_state()))
                .unwrap();
        assert_eq!(session.candidates(), Some(candidates.as_slice()));
        for _ in 0..4 {
            let a = reference.get_next_budget(&mut ref_rng, 300).unwrap();
            let b = session.get_next_budget(&mut ses_rng, 300).unwrap();
            assert_eq!(a.items, b.items);
            assert_eq!(a.stability.to_bits(), b.stability.to_bits());
            assert_eq!(a.samples_used, b.samples_used);
            assert_eq!(a.exemplar_weights, b.exemplar_weights);
        }
    }
}

/// A state reattached to a different dataset of the same shape must not
/// score against the old dataset's candidates (its rankings would still
/// match their fingerprints, yet name the wrong items): it rebuilds them
/// from the new rows, and every ranking it emits re-ranks to its items
/// there.
#[test]
fn reattach_to_other_rows_rebuilds_candidates() {
    let (old, new) = (dot_rows(5, 600), dot_rows(6, 600));
    let roi = RegionOfInterest::full(3);
    let scope = RankingScope::TopKRanked(10);
    let mut e = RandomizedEnumerator::new(&old, &roi, scope, 0.05).unwrap();
    let mut rng = StdRng::seed_from_u64(9);
    e.get_next_budget(&mut rng, 500).unwrap();
    let old_candidates = e.candidates().unwrap().to_vec();
    let new_candidates = new.k_skyband(10).unwrap().items().to_vec();
    assert_ne!(old_candidates, new_candidates);

    let mut e = RandomizedEnumerator::from_state(&new, e.into_state()).unwrap();
    assert_eq!(e.candidates(), Some(new_candidates.as_slice()));
    let mut emitted = 0;
    for _ in 0..6 {
        if let Some(d) = e.get_next_budget(&mut rng, 500) {
            assert_eq!(new.top_k(&d.exemplar_weights, 10).unwrap(), d.items);
            emitted += 1;
        }
    }
    assert!(emitted > 0);
}
