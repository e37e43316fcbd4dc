//! The randomized `GET-NEXT` operator — Algorithms 7 and 8 (§4.3–§4.5).
//!
//! Uniform samples from `U*` hit each ranking region with probability equal
//! to its stability, so counting which (partial) ranking each sampled
//! function induces simultaneously *discovers* rankings and *estimates*
//! their stability. Two budgets are supported:
//!
//! * **fixed budget** (Algorithm 7): spend `N` samples per call, return the
//!   most frequent not-yet-returned ranking with its Eq. 10 confidence
//!   error;
//! * **fixed confidence** (Algorithm 8): keep sampling until the estimate's
//!   confidence error drops to the requested `e` (with a sample cap so a
//!   caller can bound the work — exceeding it returns the best candidate
//!   with its achieved, larger error).
//!
//! Unlike the arrangement-based operator, this one supports the top-k
//! models of §2.2.5 directly: count ranked top-k prefixes or top-k sets
//! instead of complete rankings. A top-k enumerator first builds its
//! candidate set `K` once, in `O(n·|K|)`: the k-skyband, the items fewer
//! than `k` others beat under every non-negative weight vector
//! ([`Dataset::k_skyband`]). Each sample then selects over the candidates'
//! rows only, `O(|K|)` rather than `O(n)` — on DoT n=2000 with k=10 about
//! a tenth of the items — with bit-identical keys, which is what makes the
//! million-item DoT experiment (Figure 18) tractable. Samples with a
//! negative component (an unclipped cone's leak, an external batch) and
//! datasets whose build gives up score all items. The candidates travel
//! with a detached [`RandomizedState`], tagged with their dataset's
//! [`digest`](Dataset::digest), and are rebuilt on reattach when missing
//! (they are never persisted) or built from other rows.
//!
//! ## The sampling hot path
//!
//! Throughput is the whole game here (Hall & Miller's bootstrap view of
//! ranking variability needs samples in bulk for tight estimates), so the
//! per-sample loop is built to do **zero steady-state heap allocations**:
//!
//! 1. the weight vector is sampled into a reusable scratch buffer
//!    ([`RoiSampler::sample_into`]);
//! 2. scores come from the columnar kernel and the ranking key from the
//!    bucket-scatter sort ([`Dataset::rank_into`]) or the packed top-k
//!    selection ([`Dataset::top_k_into_keyed`], over the candidate rows
//!    via [`Skyband::top_k_into_keyed`]), all into scratch buffers;
//! 3. the key is fingerprinted and counted against a [`KeyInterner`]: a
//!    repeat observation bumps a counter after one pass over the scratch
//!    slice, and a first observation stores only the 128-bit fingerprint,
//!    the count and the sampled weight vector as the entry's *exemplar* —
//!    `16 + 8 + 8d` bytes, never the `n`-wide key.
//!
//! [`sample_n_parallel`](RandomizedEnumerator::sample_n_parallel) gives
//! each worker its own table and merges the tables by fingerprint (a
//! few dozen bytes per entry), and
//! [`observe_samples`](RandomizedEnumerator::observe_samples) feeds an
//! externally drawn (e.g. cached, shared) sample batch through the same
//! accumulator without redrawing anything.
//!
//! ## Emission: re-derive, then check
//!
//! The table does not hold rankings, so emitting an entry re-derives its
//! items by re-ranking the exemplar with the scope's own kernel (the same
//! `rank_into_keyed` / `top_k_into_keyed` call that keyed it) into the
//! enumerator's scratch buffers, and checks the result against the stored
//! fingerprint. The two agree unless the table was corrupted or forged
//! (e.g. a hand-edited snapshot). On a mismatch the entry is counted in
//! [`fingerprint_mismatches`](RandomizedEnumerator::fingerprint_mismatches),
//! marked returned so it is never emitted, and the next candidate is
//! tried: a ranking that cannot be reproduced is never reported.
//!
//! The candidate is the most frequent not-yet-returned entry, found in
//! one pass over the table's dense count column; among equal counts the
//! **first-observed** entry wins (entry ids are first-observation
//! ordered), which keeps emission deterministic without touching keys.

use crate::dataset::{Dataset, Skyband};
use crate::error::{Result, StableRankError};
use crate::intern::{fingerprint, KeyInterner};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use srank_sample::confidence::confidence_error;
use srank_sample::roi::{RegionOfInterest, RoiSampler};
use srank_sample::store::SampleBuffer;

/// Which portion of the ranking defines "the same result" (§2.2.5).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RankingScope {
    /// The complete ranking of all items.
    Full,
    /// The top-k items in order.
    TopKRanked(usize),
    /// The top-k items as a set.
    TopKSet(usize),
}

/// A ranking discovered by the randomized operator.
#[derive(Clone, Debug, PartialEq)]
pub struct DiscoveredRanking {
    /// The item indices — ranked order for `Full`/`TopKRanked`, ascending
    /// index order for `TopKSet`.
    pub items: Vec<u32>,
    /// Which scope the key lives in.
    pub scope: RankingScope,
    /// Estimated stability `count / samples_used`.
    pub stability: f64,
    /// Eq. 10 confidence error at the enumerator's `alpha`.
    pub confidence_error: f64,
    /// Total samples the estimate is based on (all calls so far).
    pub samples_used: u64,
    /// A sampled weight vector that generated this (partial) ranking.
    pub exemplar_weights: Vec<f64>,
}

/// Reusable scoring workspace of one sampling thread: the sampled weight
/// vector, the score buffer, the packed sort keys, and the index/output
/// buffers of the ranking kernels. Steady-state sampling touches no other
/// memory besides the count table.
#[derive(Clone, Default)]
struct RankScratch {
    w: Vec<f64>,
    scores: Vec<f64>,
    keys: Vec<u64>,
    spare: Vec<u64>,
    idx: Vec<u32>,
    out: Vec<u32>,
}

impl RankScratch {
    /// Computes the counting key of `w` under `scope` into the scratch
    /// buffers and returns it as a slice — no owned key is materialized.
    /// Top-k scopes score only the `skyband` candidates when `w` is
    /// admissible, all items otherwise. For [`RankingScope::TopKSet`] the
    /// top-k buffer is sorted *in place* (it is scratch; the next sample
    /// overwrites it anyway).
    fn key_for(
        &mut self,
        data: &Dataset,
        scope: RankingScope,
        skyband: Option<&Skyband>,
        w: &[f64],
    ) -> &[u32] {
        match scope {
            RankingScope::Full => {
                data.rank_into_keyed(
                    w,
                    &mut self.scores,
                    &mut self.keys,
                    &mut self.spare,
                    &mut self.idx,
                );
                &self.idx
            }
            RankingScope::TopKRanked(k) => {
                self.top_k(data, k, skyband, w);
                &self.out
            }
            RankingScope::TopKSet(k) => {
                self.top_k(data, k, skyband, w);
                self.out.sort_unstable();
                &self.out
            }
        }
    }

    fn top_k(&mut self, data: &Dataset, k: usize, skyband: Option<&Skyband>, w: &[f64]) {
        let (scores, keys, out) = (&mut self.scores, &mut self.keys, &mut self.out);
        if !skyband.is_some_and(|s| s.top_k_into_keyed(w, k, scores, keys, out)) {
            data.top_k_into_keyed(w, k, scores, keys, out);
        }
    }
}

/// The top-k candidate set of an enumeration, tagged with the digest of
/// the dataset it was built from so a reattach to other rows rebuilds it.
/// Never persisted: a restored state rebuilds it on reattach.
#[derive(Clone)]
struct Candidates {
    digest: u128,
    /// `None` when the build gave up: every sample scores all items.
    skyband: Option<Skyband>,
}

impl Candidates {
    /// The candidates of `scope` over `data`; `None` for the full scope,
    /// which ranks every item anyway.
    fn build(data: &Dataset, scope: RankingScope) -> Option<Self> {
        match scope {
            RankingScope::Full => None,
            RankingScope::TopKRanked(k) | RankingScope::TopKSet(k) => Some(Self {
                digest: data.digest(),
                skyband: data.k_skyband(k),
            }),
        }
    }
}

/// The skyband the sampling loop scores against, if any.
fn skyband_of(candidates: &Option<Candidates>) -> Option<&Skyband> {
    candidates.as_ref()?.skyband.as_ref()
}

/// Key length of a scope over `n` items (fixed per enumeration; checked
/// against the count table's stride on load).
fn key_len(scope: RankingScope, n: usize) -> usize {
    match scope {
        RankingScope::Full => n,
        RankingScope::TopKRanked(k) | RankingScope::TopKSet(k) => k.min(n),
    }
}

/// An owned, `Send + 'static` snapshot of a [`RandomizedEnumerator`]'s
/// accumulated counts, detached from the dataset borrow.
///
/// Detach with [`RandomizedEnumerator::into_state`], reattach with
/// [`RandomizedEnumerator::from_state`]; both are O(1) moves (the scoring
/// scratch buffers are dropped on detach and lazily regrown), except that
/// reattaching a top-k state without candidates for `data`'s rows — one
/// restored from storage — builds them once. The RNG is
/// *not* part of the state — callers that need reproducible continuation
/// keep their seeded `StdRng` alongside (as `srank-service` sessions do).
#[derive(Clone)]
pub struct RandomizedState {
    dim: usize,
    n_items: usize,
    scope: RankingScope,
    sampler: RoiSampler,
    alpha: f64,
    table: KeyInterner,
    total: u64,
    /// Per-entry "already returned" flags, parallel to the table's
    /// entry ids (lazily grown; a missing index means not returned).
    returned: Vec<bool>,
    /// Rankings emitted (returned to a caller) over the enumeration's
    /// lifetime — a progress counter, distinct from `returned` flags
    /// inherited through `merge`.
    emitted: u64,
    /// Entries whose exemplar did not re-rank to their fingerprint.
    fingerprint_mismatches: u64,
    /// Top-k candidates, carried across detach/reattach (not persisted).
    candidates: Option<Candidates>,
}

impl RandomizedState {
    /// Total samples accumulated so far.
    pub fn total_samples(&self) -> u64 {
        self.total
    }

    /// Number of distinct (partial) rankings observed so far.
    pub fn distinct_observed(&self) -> usize {
        self.table.len()
    }

    /// Rankings emitted by `get_next_*` over the enumeration's lifetime.
    pub fn regions_emitted(&self) -> u64 {
        self.emitted
    }

    /// Entries refused on emit because their exemplar did not re-rank to
    /// their fingerprint (see the module docs).
    pub fn fingerprint_mismatches(&self) -> u64 {
        self.fingerprint_mismatches
    }

    /// Serializes the accumulated counting state for durable storage:
    /// scope, sampler, interning table, and the returned flags. The RNG
    /// is not part of the state (it never was — see the type docs);
    /// callers persist their seeded generator alongside.
    pub fn to_value(&self) -> serde_json::Value {
        use serde_json::Value;
        use srank_sample::persist::obj;
        let (scope, k) = match self.scope {
            RankingScope::Full => ("full", 0usize),
            RankingScope::TopKRanked(k) => ("top-k-ranked", k),
            RankingScope::TopKSet(k) => ("top-k-set", k),
        };
        obj([
            ("dim", Value::Number(self.dim as f64)),
            ("n_items", Value::Number(self.n_items as f64)),
            ("scope", Value::String(scope.into())),
            ("k", Value::Number(k as f64)),
            ("sampler", self.sampler.to_value()),
            ("alpha", Value::Number(self.alpha)),
            ("table", self.table.to_value()),
            ("total", Value::Number(self.total as f64)),
            (
                "returned",
                Value::Array(self.returned.iter().map(|&b| Value::Bool(b)).collect()),
            ),
            ("emitted", Value::Number(self.emitted as f64)),
            (
                "fingerprint_mismatches",
                Value::Number(self.fingerprint_mismatches as f64),
            ),
        ])
    }

    /// Rebuilds a state serialized by [`to_value`](Self::to_value).
    pub fn from_value(v: &serde_json::Value) -> srank_sample::persist::PersistResult<Self> {
        use srank_sample::persist::{
            array_field, f64_field, field, str_field, u64_field, usize_field, PersistError,
        };
        let dim = usize_field(v, "dim")?;
        let n_items = usize_field(v, "n_items")?;
        let k = usize_field(v, "k")?;
        let scope = match str_field(v, "scope")? {
            "full" => RankingScope::Full,
            "top-k-ranked" if k > 0 => RankingScope::TopKRanked(k),
            "top-k-set" if k > 0 => RankingScope::TopKSet(k),
            other => {
                return Err(PersistError::new(format!(
                    "bad ranking scope '{other}' (k = {k})"
                )))
            }
        };
        let sampler = RoiSampler::from_value(field(v, "sampler")?)?;
        let alpha = f64_field(v, "alpha")?;
        if !(alpha > 0.0 && alpha < 1.0) {
            return Err(PersistError::new(format!("alpha out of range: {alpha}")));
        }
        let table = KeyInterner::from_value(field(v, "table")?)?;
        if table.stride() != key_len(scope, n_items) || table.dim() != dim {
            return Err(PersistError::new(
                "interner stride/dim disagree with the scope and dataset shape",
            ));
        }
        let total = u64_field(v, "total")?;
        if total < table.iter().map(|(_, _, c, _)| c).sum::<u64>() {
            return Err(PersistError::new(
                "total samples below the counted observations",
            ));
        }
        let returned = array_field(v, "returned")?
            .iter()
            .map(|b| {
                b.as_bool()
                    .ok_or_else(|| PersistError::new("'returned' must hold booleans"))
            })
            .collect::<srank_sample::persist::PersistResult<Vec<bool>>>()?;
        if returned.len() > table.len() {
            return Err(PersistError::new(
                "more returned flags than counted rankings",
            ));
        }
        // States persisted before a counter existed carry no field for
        // it; they resume with that counter at 0 (reporting restarts,
        // enumeration correctness is untouched).
        let counter = |key: &str| match field(v, key) {
            Ok(_) => u64_field(v, key),
            Err(_) => Ok(0),
        };
        let emitted = counter("emitted")?;
        let fingerprint_mismatches = counter("fingerprint_mismatches")?;
        Ok(Self {
            dim,
            n_items,
            scope,
            sampler,
            alpha,
            table,
            total,
            returned,
            emitted,
            fingerprint_mismatches,
            candidates: None,
        })
    }
}

/// The randomized `GET-NEXT` operator over a dataset and region of
/// interest.
///
/// Cloning checkpoints the accumulated counts (useful for benchmarks and
/// for exploring different continuation budgets from a shared prefix).
#[derive(Clone)]
pub struct RandomizedEnumerator<'a> {
    data: &'a Dataset,
    scope: RankingScope,
    sampler: RoiSampler,
    alpha: f64,
    table: KeyInterner,
    total: u64,
    returned: Vec<bool>,
    emitted: u64,
    fingerprint_mismatches: u64,
    candidates: Option<Candidates>,
    // Reusable scoring workspace (hot path at n = 10⁶, and re-ranking on
    // emit).
    scratch: RankScratch,
}

impl<'a> RandomizedEnumerator<'a> {
    /// Builds the operator. `alpha` is the significance level of reported
    /// confidence errors (0.05 → 95%).
    pub fn new(
        data: &'a Dataset,
        roi: &RegionOfInterest,
        scope: RankingScope,
        alpha: f64,
    ) -> Result<Self> {
        if roi.dim() != data.dim() {
            return Err(StableRankError::DimensionMismatch {
                expected: data.dim(),
                got: roi.dim(),
            });
        }
        if !(0.0..1.0).contains(&alpha) || alpha <= 0.0 {
            return Err(StableRankError::InvalidWeights(format!(
                "alpha must lie in (0, 1), got {alpha}"
            )));
        }
        match scope {
            RankingScope::TopKRanked(k) | RankingScope::TopKSet(k) if k == 0 => {
                return Err(StableRankError::InvalidRanking(
                    "top-k scope needs k ≥ 1".into(),
                ));
            }
            _ => {}
        }
        Ok(Self {
            data,
            scope,
            sampler: roi.sampler(),
            alpha,
            table: KeyInterner::new(key_len(scope, data.len()), data.dim()),
            total: 0,
            returned: Vec::new(),
            emitted: 0,
            fingerprint_mismatches: 0,
            candidates: Candidates::build(data, scope),
            scratch: RankScratch::default(),
        })
    }

    /// Detaches the accumulated counting state from the dataset borrow
    /// (see [`RandomizedState`]).
    pub fn into_state(self) -> RandomizedState {
        RandomizedState {
            dim: self.data.dim(),
            n_items: self.data.len(),
            scope: self.scope,
            sampler: self.sampler,
            alpha: self.alpha,
            table: self.table,
            total: self.total,
            returned: self.returned,
            emitted: self.emitted,
            fingerprint_mismatches: self.fingerprint_mismatches,
            candidates: self.candidates,
        }
    }

    /// Reattaches a detached state to its dataset. The state's top-k
    /// candidates are reused when they were built from rows with `data`'s
    /// digest, and rebuilt otherwise (a state restored from storage
    /// carries none; a state reattached to other rows must not score
    /// against the old ones).
    ///
    /// # Errors
    /// Fails when `data` disagrees with the dataset the state was
    /// accumulated over on dimension or item count (the cheap shape
    /// checks available).
    pub fn from_state(data: &'a Dataset, state: RandomizedState) -> Result<Self> {
        if state.dim != data.dim() {
            return Err(StableRankError::DimensionMismatch {
                expected: state.dim,
                got: data.dim(),
            });
        }
        if state.n_items != data.len() {
            return Err(StableRankError::DimensionMismatch {
                expected: state.n_items,
                got: data.len(),
            });
        }
        let candidates = match state.candidates {
            Some(c) if c.digest == data.digest() => Some(c),
            _ => Candidates::build(data, state.scope),
        };
        Ok(Self {
            data,
            scope: state.scope,
            sampler: state.sampler,
            alpha: state.alpha,
            table: state.table,
            total: state.total,
            returned: state.returned,
            emitted: state.emitted,
            fingerprint_mismatches: state.fingerprint_mismatches,
            candidates,
            scratch: RankScratch::default(),
        })
    }

    /// Total samples drawn so far (the paper's `N'`).
    pub fn total_samples(&self) -> u64 {
        self.total
    }

    /// Number of distinct (partial) rankings observed so far.
    pub fn distinct_observed(&self) -> usize {
        self.table.len()
    }

    /// Rankings emitted by `get_next_*` over the enumeration's lifetime
    /// (merging inherits the counter from both sides).
    pub fn regions_emitted(&self) -> u64 {
        self.emitted
    }

    /// Entries refused on emit because their exemplar did not re-rank to
    /// their fingerprint (see the module docs); 0 unless the table was
    /// corrupted or forged.
    pub fn fingerprint_mismatches(&self) -> u64 {
        self.fingerprint_mismatches
    }

    /// The top-k candidate items (ascending ids) that admissible samples
    /// score instead of all `n`; `None` for the full scope, or when the
    /// candidate build gave up and every sample scores all items.
    pub fn candidates(&self) -> Option<&[u32]> {
        skyband_of(&self.candidates).map(Skyband::items)
    }

    /// The accumulated `(fingerprint, count, exemplar)` triples, in
    /// first-observation order — the raw counting distribution behind the
    /// stability estimates. An entry's ranking is its exemplar's ranking
    /// under the enumeration's scope.
    pub fn observed(&self) -> impl Iterator<Item = (u128, u64, &[f64])> + '_ {
        self.table.iter().map(|(_, fp, c, x)| (fp, c, x))
    }

    /// Counts one already-sampled weight vector (the allocation-free core
    /// of every sampling flavour).
    #[inline]
    fn observe_weight(&mut self, w: &[f64]) {
        let skyband = skyband_of(&self.candidates);
        let key = self.scratch.key_for(self.data, self.scope, skyband, w);
        self.total += 1;
        self.table.observe(key, w);
    }

    /// Draws one sample and updates the counts.
    fn observe<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        let mut w = std::mem::take(&mut self.scratch.w);
        self.sampler.sample_into(rng, &mut w);
        self.observe_weight(&w);
        self.scratch.w = w;
    }

    /// Draws `n` samples (shared by both operator flavours).
    pub fn sample_n<R: Rng + ?Sized>(&mut self, rng: &mut R, n: usize) {
        for _ in 0..n {
            self.observe(rng);
        }
    }

    /// Feeds an externally drawn sample batch through the accumulator —
    /// the cached-batch path of `srank-service`: a shared Monte-Carlo
    /// buffer for this dataset/ROI counts into the table directly, with
    /// no redrawing.
    ///
    /// The caller is responsible for the batch being uniform draws from
    /// this enumerator's region of interest (feeding anything else biases
    /// every stability estimate).
    ///
    /// # Errors
    /// Fails when the batch dimension disagrees with the dataset.
    pub fn observe_samples(&mut self, batch: &SampleBuffer) -> Result<()> {
        if batch.dim() != self.data.dim() {
            return Err(StableRankError::DimensionMismatch {
                expected: self.data.dim(),
                got: batch.dim(),
            });
        }
        for i in 0..batch.len() {
            self.observe_weight(batch.row(i));
        }
        Ok(())
    }

    /// Draws `n` samples using `threads` worker threads and merges the
    /// counts — a drop-in accelerator for the large-`n` configurations of
    /// Figure 18 (sampling is embarrassingly parallel).
    ///
    /// Deterministic for a fixed `(base_seed, n, threads)` triple: worker
    /// `t` uses seed `base_seed + t` and a fixed share of the budget, and
    /// merging happens in worker order. The resulting sample *stream*
    /// differs from the sequential [`sample_n`](Self::sample_n) — both are
    /// uniform over `U*`, so all estimates converge to the same values.
    pub fn sample_n_parallel(&mut self, base_seed: u64, n: usize, threads: usize) {
        let threads = threads.clamp(1, n.max(1));
        if threads == 1 {
            let mut rng = StdRng::seed_from_u64(base_seed);
            self.sample_n(&mut rng, n);
            return;
        }
        let share = n / threads;
        let remainder = n % threads;
        let data = self.data;
        let scope = self.scope;
        let (stride, dim) = (self.table.stride(), self.table.dim());
        let sampler = &self.sampler;
        let skyband = skyband_of(&self.candidates);
        let locals: Vec<KeyInterner> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let budget = share + usize::from(t < remainder);
                    let sampler = sampler.clone();
                    s.spawn(move || {
                        let mut rng = StdRng::seed_from_u64(base_seed.wrapping_add(t as u64));
                        let mut local = KeyInterner::new(stride, dim);
                        let mut scratch = RankScratch::default();
                        let mut w = Vec::new();
                        for _ in 0..budget {
                            sampler.sample_into(&mut rng, &mut w);
                            let key = scratch.key_for(data, scope, skyband, &w);
                            local.observe(key, &w);
                        }
                        local
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("sampler worker panicked"))
                .collect()
        });
        // Tables merge by fingerprint, in worker order: entries stream out
        // in each worker's first-observation order, so the merged table
        // (and every exemplar) is deterministic.
        for local in locals {
            for (_, fp, count, exemplar) in local.iter() {
                self.table.add(fp, count, exemplar);
            }
        }
        self.total += n as u64;
    }

    /// Merges another enumerator's accumulated counts into this one —
    /// the distributed-estimation pattern: sample on several machines (or
    /// checkpointed sessions) against the same dataset and region of
    /// interest, then combine. Rankings already returned by either side
    /// stay returned.
    ///
    /// # Errors
    /// Fails when the two enumerators disagree on scope (their keys would
    /// be incomparable).
    pub fn merge(&mut self, other: &RandomizedEnumerator<'_>) -> Result<()> {
        if self.scope != other.scope {
            return Err(StableRankError::InvalidRanking(
                "cannot merge enumerators with different ranking scopes".into(),
            ));
        }
        let mut here = Vec::with_capacity(other.table.len());
        for (_, fp, count, exemplar) in other.table.iter() {
            here.push(self.table.add(fp, count, exemplar));
        }
        self.total += other.total;
        self.emitted += other.emitted;
        self.fingerprint_mismatches += other.fingerprint_mismatches;
        for (e, &returned) in other.returned.iter().enumerate() {
            if returned {
                self.mark_returned(here[e]);
            }
        }
        Ok(())
    }

    fn mark_returned(&mut self, e: u32) {
        if self.returned.len() <= e as usize {
            self.returned.resize(e as usize + 1, false);
        }
        self.returned[e as usize] = true;
    }

    fn is_returned(&self, e: u32) -> bool {
        self.returned.get(e as usize).copied().unwrap_or(false)
    }

    /// The most frequent not-yet-returned entry: one pass over the dense
    /// count column, the first-observed entry winning among equal counts.
    fn best_candidate(&self) -> Option<u32> {
        let mut best: Option<(u32, u64)> = None;
        for (e, &c) in self.table.counts().iter().enumerate() {
            let e = e as u32;
            if best.is_none_or(|(_, bc)| c > bc) && !self.is_returned(e) {
                best = Some((e, c));
            }
        }
        best.map(|(e, _)| e)
    }

    /// Re-derives entry `e`'s ranking from its exemplar and marks the
    /// entry returned. `None` (counted as a fingerprint mismatch) when the
    /// re-derived key does not match the stored fingerprint.
    fn emit(&mut self, e: u32) -> Option<DiscoveredRanking> {
        self.mark_returned(e);
        let exemplar = self.table.exemplar(e);
        let skyband = skyband_of(&self.candidates);
        let key = self
            .scratch
            .key_for(self.data, self.scope, skyband, exemplar);
        if fingerprint(key) != self.table.fingerprint_of(e) {
            self.fingerprint_mismatches += 1;
            return None;
        }
        let stability = self.table.count(e) as f64 / self.total as f64;
        self.emitted += 1;
        Some(DiscoveredRanking {
            items: key.to_vec(),
            scope: self.scope,
            stability,
            confidence_error: confidence_error(stability, self.total as usize, self.alpha),
            samples_used: self.total,
            exemplar_weights: exemplar.to_vec(),
        })
    }

    /// Emits the best candidate whose ranking re-derives, skipping (and
    /// counting) any that do not.
    fn emit_best(&mut self) -> Option<DiscoveredRanking> {
        loop {
            let e = self.best_candidate()?;
            if let Some(d) = self.emit(e) {
                return Some(d);
            }
        }
    }

    /// Algorithm 7 — fixed budget: draw `budget` fresh samples, then return
    /// the most frequent undiscovered ranking (`None` if every observed
    /// ranking has already been returned).
    pub fn get_next_budget<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        budget: usize,
    ) -> Option<DiscoveredRanking> {
        self.sample_n(rng, budget);
        self.emit_best()
    }

    /// Algorithm 8 — fixed confidence: sample until the best undiscovered
    /// ranking's Eq. 10 error is at most `e`, or `max_samples` additional
    /// samples have been spent. In the capped case the best candidate is
    /// returned with its achieved (larger) error; callers detect the cap
    /// by `confidence_error > e`. Returns `None` only when no undiscovered
    /// ranking is ever observed.
    pub fn get_next_confidence<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        e: f64,
        max_samples: usize,
    ) -> Option<DiscoveredRanking> {
        assert!(e > 0.0, "get_next_confidence: need e > 0");
        // Eq. 10 estimates the Bernoulli variance from the sample mean, so
        // it degenerates to zero width at m ∈ {0, 1}; insist on a CLT-scale
        // sample count before trusting the interval.
        const MIN_SAMPLES: u64 = 30;
        let mut spent = 0usize;
        loop {
            if self.total >= MIN_SAMPLES {
                if let Some(entry) = self.best_candidate() {
                    let m = self.table.count(entry) as f64 / self.total as f64;
                    let err = confidence_error(m, self.total as usize, self.alpha);
                    if err <= e {
                        match self.emit(entry) {
                            Some(d) => return Some(d),
                            // Refused: look at the next candidate.
                            None => continue,
                        }
                    }
                }
            }
            if spent >= max_samples {
                return self.emit_best();
            }
            self.observe(rng);
            spent += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sv2d::{stability_verify_2d, AngleInterval};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn lcg_rows(n: usize, d: usize, mut state: u64) -> Vec<Vec<f64>> {
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 11) as f64) / ((1u64 << 53) as f64)
        };
        (0..n).map(|_| (0..d).map(|_| next()).collect()).collect()
    }

    #[test]
    fn full_scope_matches_exact_2d_stability() {
        let data = Dataset::figure1();
        let roi = RegionOfInterest::full(2);
        let mut e = RandomizedEnumerator::new(&data, &roi, RankingScope::Full, 0.05).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let top = e.get_next_budget(&mut rng, 50_000).unwrap();
        let ranking = crate::ranking::Ranking::new(top.items.clone()).unwrap();
        let exact = stability_verify_2d(&data, &ranking, AngleInterval::full())
            .unwrap()
            .expect("discovered ranking must be feasible")
            .stability;
        assert!(
            (top.stability - exact).abs() < 3.0 * top.confidence_error.max(0.005),
            "estimate {} vs exact {}",
            top.stability,
            exact
        );
    }

    #[test]
    fn successive_calls_return_distinct_rankings_with_decreasing_counts() {
        let data = Dataset::from_rows(&lcg_rows(10, 3, 5)).unwrap();
        let roi = RegionOfInterest::full(3);
        let mut e = RandomizedEnumerator::new(&data, &roi, RankingScope::Full, 0.05).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let first = e.get_next_budget(&mut rng, 5000).unwrap();
        let second = e.get_next_budget(&mut rng, 1000).unwrap();
        let third = e.get_next_budget(&mut rng, 1000).unwrap();
        assert_ne!(first.items, second.items);
        assert_ne!(second.items, third.items);
        assert_ne!(first.items, third.items);
    }

    #[test]
    fn exemplar_weights_reproduce_the_key() {
        let data = Dataset::from_rows(&lcg_rows(30, 3, 9)).unwrap();
        let roi = RegionOfInterest::full(3);
        let mut e =
            RandomizedEnumerator::new(&data, &roi, RankingScope::TopKRanked(5), 0.05).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let d = e.get_next_budget(&mut rng, 2000).unwrap();
        let reproduced = data.top_k(&d.exemplar_weights, 5).unwrap();
        assert_eq!(reproduced, d.items);
    }

    #[test]
    fn set_scope_is_order_insensitive() {
        let data = Dataset::from_rows(&lcg_rows(30, 3, 13)).unwrap();
        let roi = RegionOfInterest::full(3);
        let mut rng = StdRng::seed_from_u64(4);

        let mut ranked =
            RandomizedEnumerator::new(&data, &roi, RankingScope::TopKRanked(5), 0.05).unwrap();
        ranked.sample_n(&mut rng, 4000);
        let mut set =
            RandomizedEnumerator::new(&data, &roi, RankingScope::TopKSet(5), 0.05).unwrap();
        let mut rng2 = StdRng::seed_from_u64(4);
        set.sample_n(&mut rng2, 4000);

        // Fewer distinct outcomes under the set model, and the most stable
        // set is at least as stable as the most stable ranked prefix
        // (§6.3's observation on Figures 17/20).
        assert!(set.distinct_observed() <= ranked.distinct_observed());
        let best_set = set.get_next_budget(&mut rng2, 0).unwrap();
        let best_ranked = ranked.get_next_budget(&mut rng, 0).unwrap();
        assert!(best_set.stability >= best_ranked.stability - 1e-9);
        // Set keys are sorted.
        let mut sorted = best_set.items.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, best_set.items);
    }

    #[test]
    fn fixed_confidence_meets_the_requested_error() {
        let data = Dataset::figure1();
        let roi = RegionOfInterest::full(2);
        let mut e = RandomizedEnumerator::new(&data, &roi, RankingScope::Full, 0.05).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let d = e.get_next_confidence(&mut rng, 0.01, 2_000_000).unwrap();
        assert!(d.confidence_error <= 0.01, "err = {}", d.confidence_error);
        // Theorem-2 sanity: sample cost is of order 1/S plus CI cost.
        assert!(d.samples_used >= 10);
    }

    #[test]
    fn capped_confidence_reports_achieved_error() {
        let data = Dataset::from_rows(&lcg_rows(10, 3, 17)).unwrap();
        let roi = RegionOfInterest::full(3);
        let mut e = RandomizedEnumerator::new(&data, &roi, RankingScope::Full, 0.05).unwrap();
        let mut rng = StdRng::seed_from_u64(6);
        // Absurdly tight error with a tiny cap: must return a capped result.
        let d = e.get_next_confidence(&mut rng, 1e-9, 500).unwrap();
        assert!(d.confidence_error > 1e-9);
        assert_eq!(d.samples_used, 500);
    }

    #[test]
    fn exhausting_all_rankings_returns_none() {
        // Two items, one exchange: at most 2 distinct rankings.
        let data = Dataset::from_rows(&[vec![0.8, 0.2], vec![0.3, 0.9]]).unwrap();
        let roi = RegionOfInterest::full(2);
        let mut e = RandomizedEnumerator::new(&data, &roi, RankingScope::Full, 0.05).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        assert!(e.get_next_budget(&mut rng, 1000).is_some());
        assert!(e.get_next_budget(&mut rng, 1000).is_some());
        assert!(e.get_next_budget(&mut rng, 1000).is_none());
    }

    #[test]
    fn stability_estimates_sum_to_one_over_all_rankings() {
        let data = Dataset::from_rows(&lcg_rows(6, 3, 29)).unwrap();
        let roi = RegionOfInterest::full(3);
        let mut e = RandomizedEnumerator::new(&data, &roi, RankingScope::Full, 0.05).unwrap();
        let mut rng = StdRng::seed_from_u64(8);
        e.sample_n(&mut rng, 20_000);
        let mut total = 0.0;
        while let Some(d) = e.get_next_budget(&mut rng, 0) {
            total += d.stability;
        }
        assert!(
            (total - 1.0).abs() < 1e-9,
            "counted mass must be exhaustive: {total}"
        );
    }

    #[test]
    fn narrow_cone_roi_samples_stay_inside() {
        let data = Dataset::from_rows(&lcg_rows(20, 4, 31)).unwrap();
        let roi = RegionOfInterest::cone(&[1.0, 0.5, 0.3, 0.2], std::f64::consts::PI / 100.0);
        let mut e =
            RandomizedEnumerator::new(&data, &roi, RankingScope::TopKRanked(10), 0.05).unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        let d = e.get_next_budget(&mut rng, 2000).unwrap();
        assert!(roi.contains(&d.exemplar_weights));
    }

    #[test]
    fn constructor_validation() {
        let data = Dataset::figure1();
        let roi3 = RegionOfInterest::full(3);
        assert!(RandomizedEnumerator::new(&data, &roi3, RankingScope::Full, 0.05).is_err());
        let roi2 = RegionOfInterest::full(2);
        assert!(RandomizedEnumerator::new(&data, &roi2, RankingScope::TopKSet(0), 0.05).is_err());
        assert!(RandomizedEnumerator::new(&data, &roi2, RankingScope::Full, 0.0).is_err());
        assert!(RandomizedEnumerator::new(&data, &roi2, RankingScope::Full, 1.0).is_err());
    }

    #[test]
    fn merge_combines_counts_and_returned_sets() {
        let data = Dataset::from_rows(&lcg_rows(12, 3, 81)).unwrap();
        let roi = RegionOfInterest::full(3);
        let make = |seed: u64, n: usize| {
            let mut op =
                RandomizedEnumerator::new(&data, &roi, RankingScope::TopKSet(4), 0.05).unwrap();
            let mut rng = StdRng::seed_from_u64(seed);
            op.sample_n(&mut rng, n);
            op
        };
        let mut a = make(1, 3000);
        let b = make(2, 2000);
        // The merged estimate equals counting over the union stream.
        a.merge(&b).unwrap();
        assert_eq!(a.total_samples(), 5000);
        let mut rng = StdRng::seed_from_u64(3);
        let merged_best = a.get_next_budget(&mut rng, 0).unwrap();

        // Single enumerator over both streams (same seeds, same budgets).
        let mut combined =
            RandomizedEnumerator::new(&data, &roi, RankingScope::TopKSet(4), 0.05).unwrap();
        let mut r1 = StdRng::seed_from_u64(1);
        combined.sample_n(&mut r1, 3000);
        let mut r2 = StdRng::seed_from_u64(2);
        combined.sample_n(&mut r2, 2000);
        let mut rng2 = StdRng::seed_from_u64(3);
        let combined_best = combined.get_next_budget(&mut rng2, 0).unwrap();
        assert_eq!(merged_best.items, combined_best.items);
        assert_eq!(merged_best.stability, combined_best.stability);
    }

    #[test]
    fn merge_rejects_scope_mismatch() {
        let data = Dataset::from_rows(&lcg_rows(6, 3, 83)).unwrap();
        let roi = RegionOfInterest::full(3);
        let mut a = RandomizedEnumerator::new(&data, &roi, RankingScope::TopKSet(3), 0.05).unwrap();
        let b = RandomizedEnumerator::new(&data, &roi, RankingScope::Full, 0.05).unwrap();
        assert!(a.merge(&b).is_err());
    }

    #[test]
    fn merge_preserves_returned_rankings() {
        let data = Dataset::from_rows(&lcg_rows(8, 3, 85)).unwrap();
        let roi = RegionOfInterest::full(3);
        let mut a = RandomizedEnumerator::new(&data, &roi, RankingScope::Full, 0.05).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let first = a.get_next_budget(&mut rng, 2000).unwrap();
        let mut b = RandomizedEnumerator::new(&data, &roi, RankingScope::Full, 0.05).unwrap();
        let mut rng_b = StdRng::seed_from_u64(5);
        b.sample_n(&mut rng_b, 2000);
        b.merge(&a).unwrap();
        // The ranking `a` already returned must not come back from `b`.
        while let Some(d) = b.get_next_budget(&mut rng_b, 0) {
            assert_ne!(
                d.items, first.items,
                "returned ranking re-emitted after merge"
            );
        }
    }

    #[test]
    fn parallel_sampling_merges_counts_exactly() {
        let data = Dataset::from_rows(&lcg_rows(20, 3, 61)).unwrap();
        let roi = RegionOfInterest::full(3);
        let mut op =
            RandomizedEnumerator::new(&data, &roi, RankingScope::TopKSet(5), 0.05).unwrap();
        op.sample_n_parallel(99, 4003, 4);
        assert_eq!(op.total_samples(), 4003);
        // All counts sum to the total.
        let mut total = 0.0;
        let mut rng = StdRng::seed_from_u64(0);
        while let Some(d) = op.get_next_budget(&mut rng, 0) {
            total += d.stability;
        }
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn parallel_sampling_is_deterministic() {
        let data = Dataset::from_rows(&lcg_rows(15, 3, 67)).unwrap();
        let roi = RegionOfInterest::full(3);
        let run = || {
            let mut op =
                RandomizedEnumerator::new(&data, &roi, RankingScope::TopKRanked(4), 0.05).unwrap();
            op.sample_n_parallel(7, 2000, 3);
            let mut rng = StdRng::seed_from_u64(1);
            op.get_next_budget(&mut rng, 0).unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.items, b.items);
        assert_eq!(a.stability, b.stability);
    }

    #[test]
    fn parallel_and_sequential_agree_statistically() {
        // Different streams, same distribution: top-set estimates within
        // combined confidence error.
        let data = Dataset::from_rows(&lcg_rows(12, 3, 71)).unwrap();
        let roi = RegionOfInterest::full(3);
        let mut seq =
            RandomizedEnumerator::new(&data, &roi, RankingScope::TopKSet(3), 0.01).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        seq.sample_n(&mut rng, 20_000);
        let mut par =
            RandomizedEnumerator::new(&data, &roi, RankingScope::TopKSet(3), 0.01).unwrap();
        par.sample_n_parallel(5, 20_000, 8);
        let mut rng2 = StdRng::seed_from_u64(6);
        let a = seq.get_next_budget(&mut rng, 0).unwrap();
        let b = par.get_next_budget(&mut rng2, 0).unwrap();
        assert_eq!(a.items, b.items, "both must find the same most stable set");
        assert!(
            (a.stability - b.stability).abs() <= 3.0 * (a.confidence_error + b.confidence_error),
            "{} vs {}",
            a.stability,
            b.stability
        );
    }

    #[test]
    fn detached_state_resumes_exactly_where_it_left_off() {
        let data = Dataset::from_rows(&lcg_rows(10, 3, 55)).unwrap();
        let roi = RegionOfInterest::full(3);
        let run = |detach: bool| {
            let mut op = RandomizedEnumerator::new(&data, &roi, RankingScope::Full, 0.05).unwrap();
            let mut rng = StdRng::seed_from_u64(9);
            let mut out = Vec::new();
            for _ in 0..4 {
                if detach {
                    op = RandomizedEnumerator::from_state(&data, op.into_state()).unwrap();
                }
                if let Some(d) = op.get_next_budget(&mut rng, 800) {
                    out.push((d.items, d.stability));
                }
            }
            out
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn emitted_counter_tracks_returns_and_survives_persistence() {
        let data = Dataset::from_rows(&lcg_rows(10, 3, 41)).unwrap();
        let roi = RegionOfInterest::full(3);
        let mut e = RandomizedEnumerator::new(&data, &roi, RankingScope::Full, 0.05).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        assert_eq!(e.regions_emitted(), 0);
        e.get_next_budget(&mut rng, 2000).unwrap();
        e.get_next_budget(&mut rng, 500).unwrap();
        assert_eq!(e.regions_emitted(), 2);

        // Round-trips through the persisted form.
        let state = e.into_state();
        assert_eq!(state.regions_emitted(), 2);
        let restored = RandomizedState::from_value(&state.to_value()).unwrap();
        assert_eq!(restored.regions_emitted(), 2);

        // A state persisted before the counter existed (no "emitted"
        // field) still restores, with the counter reset to 0.
        let serde_json::Value::Object(mut fields) = state.to_value() else {
            panic!("state serializes to an object");
        };
        fields.retain(|(k, _)| k != "emitted");
        let legacy = RandomizedState::from_value(&serde_json::Value::Object(fields)).unwrap();
        assert_eq!(legacy.regions_emitted(), 0);
        assert_eq!(legacy.total_samples(), 2500);
    }

    #[test]
    fn from_state_rejects_dimension_mismatch() {
        let data = Dataset::from_rows(&lcg_rows(6, 3, 57)).unwrap();
        let roi = RegionOfInterest::full(3);
        let op = RandomizedEnumerator::new(&data, &roi, RankingScope::Full, 0.05).unwrap();
        let state = op.into_state();
        assert_eq!(state.total_samples(), 0);
        let other = Dataset::figure1();
        assert!(RandomizedEnumerator::from_state(&other, state).is_err());
    }

    #[test]
    fn forged_entry_is_counted_and_never_emitted() {
        let data = Dataset::from_rows(&lcg_rows(8, 3, 87)).unwrap();
        let roi = RegionOfInterest::full(3);
        let mut e = RandomizedEnumerator::new(&data, &roi, RankingScope::Full, 0.05).unwrap();
        let mut rng = StdRng::seed_from_u64(12);
        e.sample_n(&mut rng, 3000);
        // A ranking no sample produced, claimed with the most votes, but
        // whose exemplar re-ranks to some other ranking.
        let real = e.observed().count();
        let forged: Vec<u32> = (0..8).collect();
        let w = [0.2, 0.3, 0.5];
        assert_ne!(data.rank(&w).unwrap().order(), forged.as_slice());
        let id = e.table.add(fingerprint(&forged), 3000, &w);
        e.total += 3000;
        assert_eq!(id as usize, real, "the forged ranking is new");

        let mut emitted = Vec::new();
        while let Some(d) = e.get_next_budget(&mut rng, 0) {
            assert_ne!(d.items, forged, "forged ranking emitted");
            assert_eq!(data.rank(&d.exemplar_weights).unwrap().order(), d.items);
            emitted.push(d.items);
        }
        assert_eq!(e.fingerprint_mismatches(), 1);
        assert_eq!(emitted.len(), real, "every real ranking still comes out");
        assert_eq!(e.regions_emitted(), real as u64);
        // The counter persists with the state.
        let state = RandomizedState::from_value(&e.into_state().to_value()).unwrap();
        assert_eq!(state.fingerprint_mismatches(), 1);
    }

    #[test]
    fn equal_counts_emit_in_first_observation_order() {
        let data = Dataset::from_rows(&lcg_rows(6, 3, 89)).unwrap();
        let roi = RegionOfInterest::full(3);
        let mut e = RandomizedEnumerator::new(&data, &roi, RankingScope::TopKSet(2), 0.05).unwrap();
        let mut rng = StdRng::seed_from_u64(13);
        e.sample_n(&mut rng, 2000);
        let by_entry: Vec<(u64, Vec<f64>)> =
            e.observed().map(|(_, c, x)| (c, x.to_vec())).collect();
        let mut expected: Vec<usize> = (0..by_entry.len()).collect();
        // Stable sort: among equal counts, entry (first-observation) order.
        expected.sort_by(|&a, &b| by_entry[b].0.cmp(&by_entry[a].0));
        for want in expected {
            let d = e.get_next_budget(&mut rng, 0).unwrap();
            assert_eq!(d.exemplar_weights, by_entry[want].1);
        }
        assert!(e.get_next_budget(&mut rng, 0).is_none());
    }

    /// §2.2.5's toy example: the most stable top-3 *set* is {t2, t3, t4},
    /// not a skyline subset ({t1, t2, t5} is the skyline).
    #[test]
    fn paper_toy_example_stable_top3_vs_skyline() {
        let data = Dataset::from_rows(&[
            vec![1.0, 0.0],
            vec![0.99, 0.99],
            vec![0.98, 0.98],
            vec![0.97, 0.97],
            vec![0.0, 1.0],
        ])
        .unwrap();
        let roi = RegionOfInterest::full(2);
        let mut e = RandomizedEnumerator::new(&data, &roi, RankingScope::TopKSet(3), 0.05).unwrap();
        let mut rng = StdRng::seed_from_u64(10);
        let best = e.get_next_budget(&mut rng, 20_000).unwrap();
        assert_eq!(
            best.items,
            vec![1, 2, 3],
            "most stable top-3 must be {{t2,t3,t4}}"
        );
        let skyline = srank_geom::dominance::skyline_bnl(
            &(0..5).map(|i| data.item(i).to_vec()).collect::<Vec<_>>(),
        );
        assert_eq!(skyline, vec![0, 1, 4], "while the skyline is {{t1,t2,t5}}");
    }
}
