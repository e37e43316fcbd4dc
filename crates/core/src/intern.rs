//! A fingerprint-keyed count table for the randomized operator's
//! accumulator.
//!
//! Algorithm 7 only needs to know how often each distinct (partial)
//! ranking came up, plus one weight vector that produces it. The ranking
//! itself never has to be stored: it is a deterministic function of that
//! weight vector, so it can be re-derived whenever it is needed. A
//! [`KeyInterner`] therefore keeps, per distinct ranking key:
//!
//! * a **128-bit fingerprint** of the key ([`fingerprint`]), the only
//!   identity the table knows — lookups, merges and persistence all go by
//!   fingerprint, and the key bytes are read once, when it is computed;
//! * an **observation count**;
//! * an **exemplar** — the first weight vector observed to generate the
//!   key.
//!
//! That is `16 + 8 + 8·dim` bytes per distinct ranking (plus a 4-byte
//! slot under ¾ load), independent of the key length: a full ranking of
//! `n` items no longer costs `4n` bytes. Re-deriving the key from the
//! exemplar and checking it against the fingerprint is the caller's job
//! (see `RandomizedEnumerator`'s emit path), and a mismatch there is
//! counted, never trusted.
//!
//! ## Layout
//!
//! Columns are parallel `Vec`s indexed by entry id: `fingerprints`,
//! `counts` (a dense `u64` column, so "most frequent entry" is one linear
//! pass) and the fixed-stride `exemplars` arena. Entries are appended and
//! never move, which gives deterministic, first-observation-ordered
//! iteration and lets the enumerator keep per-entry flags (e.g. "already
//! returned") in a parallel `Vec<bool>`.
//!
//! ## Invariants
//!
//! * `fingerprints.len() == counts.len() == len()`,
//!   `exemplars.len() == len() · dim`.
//! * `slots` is a power-of-two open-addressing table of `entry + 1`
//!   values (`0` = empty) kept under ¾ load, probed from the
//!   fingerprint's low bits; every entry appears in exactly one slot.
//! * Fingerprints are distinct; entry ids are dense, stable, and ordered
//!   by first observation.

/// Deterministic 128-bit fingerprint of a `u32` key sequence.
///
/// Key words are packed in pairs and fed, alternately, to two lanes per
/// half (four multiply chains, short enough to pipeline on full-ranking
/// keys). Each half folds both of its lanes together, so **each 64-bit
/// half depends on every key word**; the halves use different seeds,
/// multipliers and rotations, and a SplitMix64 finalizer avalanches each.
/// Every lane step is a bijection of the lane state, so two keys of equal
/// length that differ in a single word never collide.
#[inline]
pub fn fingerprint(key: &[u32]) -> u128 {
    const K_LO: u64 = 0x517c_c1b7_2722_0a95;
    const K_HI: u64 = 0x9e37_79b9_7f4a_7c15;
    let len = key.len() as u64;
    let (mut lo0, mut lo1): (u64, u64) = (0x243f_6a88_85a3_08d3 ^ len, 0x1319_8a2e_0370_7344);
    let (mut hi0, mut hi1): (u64, u64) = (0xa409_3822_299f_31d0 ^ len, 0x082e_fa98_ec4e_6c89);
    let pack = |a: u32, b: u32| (u64::from(a) << 32) | u64::from(b);
    let mut chunks = key.chunks_exact(4);
    for c in &mut chunks {
        let (a, b) = (pack(c[0], c[1]), pack(c[2], c[3]));
        lo0 = (lo0.rotate_left(5) ^ a).wrapping_mul(K_LO);
        lo1 = (lo1.rotate_left(5) ^ b).wrapping_mul(K_LO);
        hi0 = (hi0.rotate_left(23) ^ a).wrapping_mul(K_HI);
        hi1 = (hi1.rotate_left(23) ^ b).wrapping_mul(K_HI);
    }
    for &v in chunks.remainder() {
        lo0 = (lo0.rotate_left(5) ^ u64::from(v)).wrapping_mul(K_LO);
        hi0 = (hi0.rotate_left(23) ^ u64::from(v)).wrapping_mul(K_HI);
    }
    let lo = fmix64(lo0 ^ lo1.rotate_left(32));
    let hi = fmix64(hi0 ^ hi1.rotate_left(32) ^ K_LO);
    (u128::from(hi) << 64) | u128::from(lo)
}

/// SplitMix64's finalizer.
#[inline]
fn fmix64(mut h: u64) -> u64 {
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

/// The count table: distinct key fingerprints, each with an observation
/// count and an exemplar `f64` vector.
#[derive(Clone, Debug)]
pub struct KeyInterner {
    stride: usize,
    dim: usize,
    fingerprints: Vec<u128>,
    counts: Vec<u64>,
    exemplars: Vec<f64>,
    /// Open addressing: `entry + 1`, `0` = empty. Power-of-two length.
    slots: Vec<u32>,
}

const INITIAL_SLOTS: usize = 64;

impl KeyInterner {
    /// An empty table for keys of length `stride` and exemplars of length
    /// `dim`.
    pub fn new(stride: usize, dim: usize) -> Self {
        Self {
            stride,
            dim,
            fingerprints: Vec::new(),
            counts: Vec::new(),
            exemplars: Vec::new(),
            slots: vec![0; INITIAL_SLOTS],
        }
    }

    /// Number of distinct keys counted.
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Key length this table counts.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Exemplar length this table stores.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Entry `e`'s key fingerprint.
    #[inline]
    pub fn fingerprint_of(&self, e: u32) -> u128 {
        self.fingerprints[e as usize]
    }

    /// Entry `e`'s observation count.
    #[inline]
    pub fn count(&self, e: u32) -> u64 {
        self.counts[e as usize]
    }

    /// The dense count column, indexed by entry id.
    #[inline]
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Entry `e`'s exemplar (the first weight vector observed to generate
    /// the key).
    #[inline]
    pub fn exemplar(&self, e: u32) -> &[f64] {
        let e = e as usize;
        &self.exemplars[e * self.dim..(e + 1) * self.dim]
    }

    /// `(id, fingerprint, count, exemplar)` entries in insertion
    /// (first-observation) order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, u128, u64, &[f64])> + '_ {
        (0..self.len() as u32)
            .map(move |e| (e, self.fingerprint_of(e), self.count(e), self.exemplar(e)))
    }

    /// Bytes of heap the table holds (allocated capacity of every column
    /// and of the slot array).
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.fingerprints.capacity() * size_of::<u128>()
            + self.counts.capacity() * size_of::<u64>()
            + self.exemplars.capacity() * size_of::<f64>()
            + self.slots.capacity() * size_of::<u32>()
    }

    /// The entry holding fingerprint `fp`, if counted.
    pub fn lookup(&self, fp: u128) -> Option<u32> {
        self.probe(fp).ok()
    }

    /// `Ok(entry)` holding `fp`, or `Err(slot)`: the empty slot where it
    /// would be inserted.
    #[inline]
    fn probe(&self, fp: u128) -> Result<u32, usize> {
        let mask = self.slots.len() - 1;
        let mut i = fp as usize & mask;
        loop {
            let s = self.slots[i];
            if s == 0 {
                return Err(i);
            }
            if self.fingerprints[(s - 1) as usize] == fp {
                return Ok(s - 1);
            }
            i = (i + 1) & mask;
        }
    }

    /// Counts one observation of `key`: the key is fingerprinted (its only
    /// read) and a repeat bumps the count with zero allocations; a first
    /// observation stores the fingerprint and `exemplar`. Returns the
    /// entry id.
    #[inline]
    pub fn observe(&mut self, key: &[u32], exemplar: &[f64]) -> u32 {
        debug_assert_eq!(key.len(), self.stride);
        self.add(fingerprint(key), 1, exemplar)
    }

    /// Adds `count` observations of the key with fingerprint `fp` (the
    /// merge primitive). The `exemplar` is stored only when the key is
    /// new.
    pub fn add(&mut self, fp: u128, count: u64, exemplar: &[f64]) -> u32 {
        debug_assert_eq!(exemplar.len(), self.dim);
        match self.probe(fp) {
            Ok(e) => {
                self.counts[e as usize] += count;
                e
            }
            Err(slot) => {
                let e = self.counts.len() as u32;
                self.fingerprints.push(fp);
                self.counts.push(count);
                self.exemplars.extend_from_slice(exemplar);
                self.slots[slot] = e + 1;
                // Grow before the next insert would push load past ¾.
                if (self.counts.len() + 1) * 4 > self.slots.len() * 3 {
                    self.grow();
                }
                e
            }
        }
    }

    /// Serializes the count table for durable storage: fingerprints (as
    /// 32-digit hex strings — JSON numbers are not exact past 2⁵³), counts
    /// and the exemplar arena, in entry (first-observation) order. The
    /// slot table is *not* stored; it is rebuilt on load.
    pub fn to_value(&self) -> serde_json::Value {
        use serde_json::Value;
        use srank_sample::persist::{f64_slice_value, obj};
        obj([
            ("stride", Value::Number(self.stride as f64)),
            ("dim", Value::Number(self.dim as f64)),
            (
                "fingerprints",
                Value::Array(
                    self.fingerprints
                        .iter()
                        .map(|fp| Value::String(format!("{fp:032x}")))
                        .collect(),
                ),
            ),
            (
                "counts",
                Value::Array(
                    self.counts
                        .iter()
                        .map(|&c| Value::Number(c as f64))
                        .collect(),
                ),
            ),
            ("exemplars", f64_slice_value(&self.exemplars)),
        ])
    }

    /// Rebuilds a table serialized by [`to_value`](Self::to_value) by
    /// replaying `add` in entry order — entry ids, counts, and exemplars
    /// come back identical; slots are recomputed.
    ///
    /// Tables written before fingerprints (store layout v1) carry the full
    /// key arena under `keys` instead; each stored key is fingerprinted on
    /// load, so the restored table is the one the fingerprinted path would
    /// have built from the same observations.
    pub fn from_value(v: &serde_json::Value) -> srank_sample::persist::PersistResult<Self> {
        use srank_sample::persist::{
            array_field, f64_vec_field, field, u32_vec_field, u64_vec_field, usize_field,
            PersistError,
        };
        let stride = usize_field(v, "stride")?;
        let dim = usize_field(v, "dim")?;
        let counts = u64_vec_field(v, "counts")?;
        let exemplars = f64_vec_field(v, "exemplars")?;
        let n = counts.len();
        let fingerprints: Vec<u128> = if field(v, "fingerprints").is_ok() {
            array_field(v, "fingerprints")?
                .iter()
                .map(|x| {
                    x.as_str()
                        .filter(|s| s.len() == 32)
                        .and_then(|s| u128::from_str_radix(s, 16).ok())
                        .ok_or_else(|| {
                            PersistError::new("'fingerprints' must hold 32-digit hex strings")
                        })
                })
                .collect::<Result<_, _>>()?
        } else {
            let keys = u32_vec_field(v, "keys")?;
            if keys.len() != n * stride {
                return Err(PersistError::new(format!(
                    "interner key arena disagrees: {n} entries, {} keys (stride {stride})",
                    keys.len()
                )));
            }
            (0..n)
                .map(|e| fingerprint(&keys[e * stride..(e + 1) * stride]))
                .collect()
        };
        if fingerprints.len() != n || exemplars.len() != n * dim {
            return Err(PersistError::new(format!(
                "interner columns disagree: {n} counts, {} fingerprints, \
                 {} exemplars (dim {dim})",
                fingerprints.len(),
                exemplars.len()
            )));
        }
        let mut table = Self::new(stride, dim);
        for (e, &fp) in fingerprints.iter().enumerate() {
            let id = table.add(fp, counts[e], &exemplars[e * dim..(e + 1) * dim]);
            if id as usize != e {
                return Err(PersistError::new(format!(
                    "duplicate fingerprint at entry {e}"
                )));
            }
        }
        Ok(table)
    }

    /// Doubles the slot table, re-seating entries from their fingerprints.
    fn grow(&mut self) {
        let new_len = self.slots.len() * 2;
        let mask = new_len - 1;
        let mut slots = vec![0u32; new_len];
        for (e, &fp) in self.fingerprints.iter().enumerate() {
            let mut i = fp as usize & mask;
            while slots[i] != 0 {
                i = (i + 1) & mask;
            }
            slots[i] = e as u32 + 1;
        }
        self.slots = slots;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn observe_counts_and_interns_once() {
        let mut t = KeyInterner::new(3, 2);
        let a = t.observe(&[1, 2, 3], &[0.5, 0.5]);
        let b = t.observe(&[1, 2, 3], &[0.9, 0.1]); // repeat: exemplar kept
        let c = t.observe(&[3, 2, 1], &[0.1, 0.9]);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(t.len(), 2);
        assert_eq!(t.count(a), 2);
        assert_eq!(t.count(c), 1);
        assert_eq!(t.fingerprint_of(a), fingerprint(&[1, 2, 3]));
        assert_eq!(t.exemplar(a), &[0.5, 0.5], "first observation wins");
        assert_eq!(t.lookup(fingerprint(&[3, 2, 1])), Some(c));
        assert_eq!(t.lookup(fingerprint(&[9, 9, 9])), None);
    }

    #[test]
    fn growth_preserves_every_entry() {
        let mut t = KeyInterner::new(2, 1);
        let mut reference: HashMap<u128, u64> = HashMap::new();
        let mut state = 7u64;
        for i in 0..10_000u32 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let key = [(state >> 40) as u32 % 97, i % 53];
            t.observe(&key, &[i as f64]);
            *reference.entry(fingerprint(&key)).or_insert(0) += 1;
        }
        assert_eq!(t.len(), reference.len());
        for (e, fp, count, _) in t.iter() {
            assert_eq!(reference[&fp], count, "entry {e}");
            assert_eq!(t.lookup(fp), Some(e));
        }
    }

    #[test]
    fn iteration_is_insertion_ordered() {
        let mut t = KeyInterner::new(1, 1);
        for v in [5u32, 3, 9, 3, 5, 1] {
            t.observe(&[v], &[f64::from(v)]);
        }
        let firsts: Vec<f64> = t.iter().map(|(_, _, _, x)| x[0]).collect();
        assert_eq!(firsts, vec![5.0, 3.0, 9.0, 1.0]);
        let counts: Vec<u64> = t.iter().map(|(_, _, c, _)| c).collect();
        assert_eq!(counts, vec![2, 2, 1, 1]);
        assert_eq!(t.counts(), &[2, 2, 1, 1]);
    }

    #[test]
    fn add_merges_counts() {
        let mut a = KeyInterner::new(2, 1);
        a.observe(&[1, 2], &[0.1]);
        a.observe(&[1, 2], &[0.2]);
        let mut b = KeyInterner::new(2, 1);
        b.observe(&[1, 2], &[0.3]);
        b.observe(&[4, 5], &[0.4]);
        for (_, fp, count, ex) in b.iter() {
            a.add(fp, count, ex);
        }
        let at = |t: &KeyInterner, key: &[u32]| t.lookup(fingerprint(key)).unwrap();
        assert_eq!(a.len(), 2);
        assert_eq!(a.count(at(&a, &[1, 2])), 3);
        assert_eq!(a.exemplar(at(&a, &[1, 2])), &[0.1]);
        assert_eq!(a.count(at(&a, &[4, 5])), 1);
        assert_eq!(a.exemplar(at(&a, &[4, 5])), &[0.4]);
    }

    #[test]
    fn empty_stride_is_a_single_bucket() {
        let mut t = KeyInterner::new(0, 1);
        let a = t.observe(&[], &[1.0]);
        let b = t.observe(&[], &[2.0]);
        assert_eq!(a, b);
        assert_eq!(t.len(), 1);
        assert_eq!(t.count(a), 2);
    }

    #[test]
    fn hash_is_deterministic_and_length_sensitive() {
        assert_eq!(fingerprint(&[1, 2, 3]), fingerprint(&[1, 2, 3]));
        assert_ne!(fingerprint(&[1, 2, 3]), fingerprint(&[1, 2]));
        assert_ne!(fingerprint(&[0, 0]), fingerprint(&[0, 0, 0]));
        assert_ne!(fingerprint(&[1, 2, 3, 4]), fingerprint(&[2, 1, 3, 4]));
    }

    #[test]
    fn both_halves_depend_on_every_key_word() {
        // Flip each word of a full-ranking-sized key in turn (every lane
        // position and the unpaired tail): both 64-bit halves must move.
        let base: Vec<u32> = (0..2003).collect();
        let fp = fingerprint(&base);
        for i in 0..base.len() {
            let mut key = base.clone();
            key[i] ^= 1 << (i % 32);
            let other = fingerprint(&key);
            assert_ne!(other as u64, fp as u64, "low half ignores word {i}");
            assert_ne!(other >> 64, fp >> 64, "high half ignores word {i}");
        }
    }

    #[test]
    fn v1_key_arena_loads_by_fingerprinting_its_keys() {
        let v1 = serde_json::from_str(
            r#"{"stride": 2, "dim": 1, "keys": [1, 0, 0, 1],
                "counts": [4, 1], "exemplars": [0.2, 0.8]}"#,
        )
        .unwrap();
        let t = KeyInterner::from_value(&v1).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.lookup(fingerprint(&[1, 0])), Some(0));
        assert_eq!(t.lookup(fingerprint(&[0, 1])), Some(1));
        assert_eq!(t.counts(), &[4, 1]);
        assert_eq!(t.exemplar(1), &[0.8]);
        // A duplicated key, or an arena that disagrees with the counts,
        // does not load.
        for bad in [
            r#"{"stride": 1, "dim": 1, "keys": [3, 3], "counts": [1, 1], "exemplars": [0.1, 0.2]}"#,
            r#"{"stride": 2, "dim": 1, "keys": [1, 0], "counts": [1, 1], "exemplars": [0.1, 0.2]}"#,
        ] {
            assert!(KeyInterner::from_value(&serde_json::from_str(bad).unwrap()).is_err());
        }
    }

    #[test]
    fn five_thousand_full_rankings_fit_in_a_mebibyte() {
        use crate::dataset::Dataset;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        const N: usize = 2000;
        let mut rng = StdRng::seed_from_u64(12);
        let rows: Vec<Vec<f64>> = (0..N)
            .map(|_| (0..3).map(|_| rng.random::<f64>()).collect())
            .collect();
        let data = Dataset::from_rows(&rows).unwrap();
        let sampler = srank_sample::roi::RegionOfInterest::full(3).sampler();
        let mut t = KeyInterner::new(N, 3);
        let (mut w, mut scores, mut keys, mut spare, mut order) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
        while t.len() < 5000 {
            sampler.sample_into(&mut rng, &mut w);
            data.rank_into_keyed(&w, &mut scores, &mut keys, &mut spare, &mut order);
            t.observe(&order, &w);
        }
        // The n-wide keys alone would take 5000 · 4 · 2000 B ≈ 38 MiB.
        assert!(
            t.heap_bytes() < 1 << 20,
            "table holds {} bytes of heap",
            t.heap_bytes()
        );
    }
}
