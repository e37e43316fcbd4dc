//! Live observability: windowed telemetry, per-client resource
//! accounting, worst-case exemplars, and a stall watchdog.
//!
//! Everything in this module answers a question the cumulative
//! counters in [`crate::metrics`] cannot: *what is happening right
//! now, and who is causing it?*
//!
//! * [`WindowRing`] — a ring of per-second telemetry slots. Each op
//!   and phase latency recorded through the existing
//!   [`crate::metrics::OpLatencies`] / [`crate::metrics::PhaseLatencies`]
//!   seams is also folded into the current second's slot, so `stats`
//!   can report rate, error rate, shed rate and p50/p90/p99 over the
//!   last 10 s / 60 s / 300 s instead of since boot. Recording is a
//!   handful of relaxed atomic adds — no locks on the hot path — and
//!   each slot keeps the trace id of its worst sample per op as an
//!   *exemplar*, so a windowed p99 spike links straight to a `trace`
//!   span tree.
//! * [`ClientTable`] — a bounded (LRU-capped) table charging kernel
//!   CPU time, queue wait, bytes written, cache hits/misses, sheds and
//!   deadline expiries to the request's `"client"` tag (anonymous
//!   bucket for untagged traffic). Read back by the `top` wire op;
//!   this is the measurement substrate for future per-client budgets.
//! * [`Watchdog`] — supervisor state: per-worker busy stamps, journal
//!   heartbeats and metrics-scrape heartbeats, scanned once a second
//!   by a supervisor thread that emits structured warnings, flips
//!   `/healthz` to degraded, and feeds the `debug.dump` op.
//!
//! Windowed counts lose no samples: a slot moving to a new second is
//! first *claimed* with a sentinel epoch, then zeroed, then published,
//! and recorders that find the sentinel wait for the publish instead of
//! counting into a slot about to be wiped (see [`WindowRing`]'s claim
//! protocol). A reader that catches a slot mid-claim skips it, so a
//! windowed count never exceeds its cumulative twin.

use crate::cache::LruCache;
use crate::lockorder::{rank, OrderedMutex};
use crate::proto::Object;
use serde_json::Value;
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::metrics::{LATENCY_BUCKETS, OPS, PHASES};

/// The reporting horizons, in seconds, of the `window` stats block.
pub const WINDOWS: &[u64] = &[10, 60, 300];

/// Ring capacity in one-second slots — a little above the largest
/// window so the slot being recycled for the in-progress second never
/// aliases a slot still inside the 300 s horizon.
const SLOTS: usize = 304;

/// Upper bound of log2 latency bucket `i` (micros), matching
/// [`crate::metrics::LatencyHistogram`]'s bucket edges.
#[inline]
fn bucket_upper_bound(i: usize) -> u64 {
    1u64 << (i + 1)
}

/// Log2 bucket index for a microsecond duration (edges pinned by the
/// `LatencyHistogram` tests; this must stay in lockstep).
#[inline]
fn bucket_index(micros: u64) -> usize {
    ((63 - micros.max(1).leading_zeros()) as usize).min(LATENCY_BUCKETS - 1)
}

/// One second of telemetry. `epoch` holds `second + 1` (0 = never
/// used) so slot zero at boot is distinguishable from an empty slot;
/// [`CLAIMED`] while a recorder is recycling it.
struct Slot {
    epoch: AtomicU64,
    requests: AtomicU64,
    errors: AtomicU64,
    sheds: AtomicU64,
    /// `OPS.len() × LATENCY_BUCKETS` log2 bucket counts, row-major.
    op_buckets: Vec<AtomicU64>,
    /// `PHASES.len() × LATENCY_BUCKETS` log2 bucket counts, row-major.
    phase_buckets: Vec<AtomicU64>,
    /// Worst sample seen this second, per op (micros).
    op_worst: Vec<AtomicU64>,
    /// Trace id of the worst sample, per op (0 = untraced).
    op_exemplar: Vec<AtomicU64>,
}

impl Slot {
    fn new() -> Self {
        let zeros = |n: usize| (0..n).map(|_| AtomicU64::new(0)).collect();
        Slot {
            epoch: AtomicU64::new(0),
            requests: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            sheds: AtomicU64::new(0),
            op_buckets: zeros(OPS.len() * LATENCY_BUCKETS),
            phase_buckets: zeros(PHASES.len() * LATENCY_BUCKETS),
            op_worst: zeros(OPS.len()),
            op_exemplar: zeros(OPS.len()),
        }
    }

    fn reset(&self) {
        self.requests.store(0, Ordering::Relaxed);
        self.errors.store(0, Ordering::Relaxed);
        self.sheds.store(0, Ordering::Relaxed);
        for c in &self.op_buckets {
            c.store(0, Ordering::Relaxed);
        }
        for c in &self.phase_buckets {
            c.store(0, Ordering::Relaxed);
        }
        for c in &self.op_worst {
            c.store(0, Ordering::Relaxed);
        }
        for c in &self.op_exemplar {
            c.store(0, Ordering::Relaxed);
        }
    }
}

/// Epoch of a slot being recycled: claimed, not yet zeroed and published.
const CLAIMED: u64 = u64::MAX;

/// What a recorder found at a second's ring slot.
#[derive(Debug, PartialEq)]
enum Claim {
    /// The slot already holds the second: count into it.
    Live,
    /// This recorder claimed the slot for the second; it must
    /// [`Slot::reset`] and then publish the epoch.
    Won,
    /// Another recorder is recycling the slot: retry.
    Busy,
}

/// A lock-cheap ring of per-second telemetry slots (see module docs).
///
/// Recycling a slot for a new second is a three-step claim protocol:
/// CAS the old epoch to [`CLAIMED`], [`Slot::reset`], then store
/// `second + 1`. Publishing before the reset (the naive order) loses
/// updates: a second recorder sees the new epoch, counts, and the
/// first recorder's reset wipes that count. Under the claim, a recorder
/// that sees [`CLAIMED`] yields and retries, and one that sees the
/// published epoch counts into an already-zeroed slot.
///
/// All `record_*` methods have `*_at(sec, …)` twins taking an explicit
/// second — the injected-clock seam the deterministic rotation tests
/// drive; production callers use the wall-clock wrappers.
pub struct WindowRing {
    started: Instant,
    slots: Vec<Slot>,
}

impl Default for WindowRing {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for WindowRing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WindowRing")
            .field("slots", &self.slots.len())
            .finish()
    }
}

impl WindowRing {
    pub fn new() -> Self {
        WindowRing {
            started: Instant::now(),
            slots: (0..SLOTS).map(|_| Slot::new()).collect(),
        }
    }

    /// Seconds since the ring was created — the ring's wall clock.
    #[inline]
    pub fn now_sec(&self) -> u64 {
        self.started.elapsed().as_secs()
    }

    fn slot(&self, sec: u64) -> &Slot {
        &self.slots[(sec as usize) % SLOTS]
    }

    /// One attempt to make `sec`'s ring slot live (see the claim
    /// protocol in the type docs).
    fn try_claim(&self, sec: u64) -> Claim {
        let epoch = &self.slot(sec).epoch;
        match epoch.load(Ordering::Acquire) {
            seen if seen == sec + 1 => Claim::Live,
            CLAIMED => Claim::Busy,
            seen => {
                match epoch.compare_exchange(seen, CLAIMED, Ordering::AcqRel, Ordering::Acquire) {
                    Ok(_) => Claim::Won,
                    Err(_) => Claim::Busy,
                }
            }
        }
    }

    /// Zeroes a slot this recorder [`Claim::Won`], then publishes `sec`.
    /// The `Release` store pairs with the `Acquire` epoch loads of
    /// [`try_claim`](Self::try_claim) and `aggregate`: whoever sees the
    /// published epoch sees the zeroed counters.
    fn publish(&self, sec: u64) {
        let slot = self.slot(sec);
        slot.reset();
        slot.epoch.store(sec + 1, Ordering::Release);
    }

    /// The live slot for `sec`, recycling (and zeroing) the ring
    /// position when the second has advanced past its previous tenant.
    fn slot_for(&self, sec: u64) -> &Slot {
        loop {
            match self.try_claim(sec) {
                Claim::Live => return self.slot(sec),
                Claim::Won => {
                    self.publish(sec);
                    return self.slot(sec);
                }
                Claim::Busy => std::thread::yield_now(),
            }
        }
    }

    /// Folds one op-latency sample (already recorded cumulatively)
    /// into the current second. `trace` is the sample's trace id (0 =
    /// untraced) — kept as the slot's exemplar if this is its worst
    /// sample so far.
    pub fn record_op(&self, op: usize, micros: u64, trace: u64) {
        self.record_op_at(self.now_sec(), op, micros, trace);
    }

    pub fn record_op_at(&self, sec: u64, op: usize, micros: u64, trace: u64) {
        if op >= OPS.len() {
            return;
        }
        let slot = self.slot_for(sec);
        slot.requests.fetch_add(1, Ordering::Relaxed);
        slot.op_buckets[op * LATENCY_BUCKETS + bucket_index(micros)]
            .fetch_add(1, Ordering::Relaxed);
        let prev = slot.op_worst[op].fetch_max(micros, Ordering::Relaxed);
        if micros >= prev && trace != 0 {
            slot.op_exemplar[op].store(trace, Ordering::Relaxed);
        }
    }

    /// Folds one phase-latency sample into the current second.
    pub fn record_phase(&self, phase: usize, micros: u64) {
        self.record_phase_at(self.now_sec(), phase, micros);
    }

    pub fn record_phase_at(&self, sec: u64, phase: usize, micros: u64) {
        if phase >= PHASES.len() {
            return;
        }
        let slot = self.slot_for(sec);
        slot.phase_buckets[phase * LATENCY_BUCKETS + bucket_index(micros)]
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one failed request in the current second.
    pub fn record_error(&self) {
        self.record_error_at(self.now_sec());
    }

    pub fn record_error_at(&self, sec: u64) {
        self.slot_for(sec).errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one shed (admission refusal) in the current second.
    pub fn record_shed(&self) {
        self.record_shed_at(self.now_sec());
    }

    pub fn record_shed_at(&self, sec: u64) {
        self.slot_for(sec).sheds.fetch_add(1, Ordering::Relaxed);
    }

    /// Sums the live slots inside `(now - window, now]`.
    fn aggregate(&self, now: u64, window: u64) -> WindowAgg {
        let mut agg = WindowAgg::new();
        let lo = now.saturating_sub(window - 1);
        for sec in lo..=now {
            let slot = self.slot(sec);
            if slot.epoch.load(Ordering::Acquire) != sec + 1 {
                continue;
            }
            agg.requests += slot.requests.load(Ordering::Relaxed);
            agg.errors += slot.errors.load(Ordering::Relaxed);
            agg.sheds += slot.sheds.load(Ordering::Relaxed);
            for (i, c) in slot.op_buckets.iter().enumerate() {
                agg.op_buckets[i] += c.load(Ordering::Relaxed);
            }
            for (i, c) in slot.phase_buckets.iter().enumerate() {
                agg.phase_buckets[i] += c.load(Ordering::Relaxed);
            }
            for op in 0..OPS.len() {
                let worst = slot.op_worst[op].load(Ordering::Relaxed);
                if worst > agg.op_worst[op].0 {
                    agg.op_worst[op] = (worst, slot.op_exemplar[op].load(Ordering::Relaxed));
                }
            }
        }
        agg
    }

    /// The `window` stats block at the ring's current second.
    pub fn to_value(&self) -> Value {
        self.to_value_at(self.now_sec())
    }

    /// The `window` stats block as of second `now` (injected-clock
    /// twin of [`to_value`](Self::to_value)).
    ///
    /// Shape: at-a-glance summary fields over the shortest window
    /// (`rate`/`error_rate`/`shed_rate`, plus `ops`/`phases` quantiles
    /// merged across all ops), then one block per window (`"10s"`,
    /// `"60s"`, `"300s"`) with per-op and per-phase breakdowns.
    pub fn to_value_at(&self, now: u64) -> Value {
        let mut out = Object::new();
        {
            let head = self.aggregate(now, WINDOWS[0]);
            let span = WINDOWS[0] as f64;
            out = out
                .field("rate", head.requests as f64 / span)
                .field("error_rate", head.errors as f64 / span)
                .field("shed_rate", head.sheds as f64 / span);
            let mut merged_ops = vec![0u64; LATENCY_BUCKETS];
            for i in 0..OPS.len() {
                for (b, m) in head.op_buckets[i * LATENCY_BUCKETS..(i + 1) * LATENCY_BUCKETS]
                    .iter()
                    .zip(merged_ops.iter_mut())
                {
                    *m += b;
                }
            }
            let (worst, worst_trace) = head
                .op_worst
                .iter()
                .copied()
                .max_by_key(|&(micros, _)| micros)
                .unwrap_or((0, 0));
            let mut ops = Object::new()
                .field("count", merged_ops.iter().sum::<u64>())
                .field("p50", quantile_upper_bound(&merged_ops, 0.50).unwrap_or(0))
                .field("p90", quantile_upper_bound(&merged_ops, 0.90).unwrap_or(0))
                .field("p99", quantile_upper_bound(&merged_ops, 0.99).unwrap_or(0))
                .field("worst_micros", worst);
            if worst_trace != 0 {
                ops = ops.field("exemplar_trace", worst_trace);
            }
            out = out.field("ops", ops.build());
            let mut merged_phases = vec![0u64; LATENCY_BUCKETS];
            for p in 0..PHASES.len() {
                for (b, m) in head.phase_buckets[p * LATENCY_BUCKETS..(p + 1) * LATENCY_BUCKETS]
                    .iter()
                    .zip(merged_phases.iter_mut())
                {
                    *m += b;
                }
            }
            out = out.field(
                "phases",
                Object::new()
                    .field("count", merged_phases.iter().sum::<u64>())
                    .field(
                        "p50",
                        quantile_upper_bound(&merged_phases, 0.50).unwrap_or(0),
                    )
                    .field(
                        "p99",
                        quantile_upper_bound(&merged_phases, 0.99).unwrap_or(0),
                    )
                    .build(),
            );
        }
        for &window in WINDOWS {
            let agg = self.aggregate(now, window);
            let span = window as f64;
            let mut block = Object::new()
                .field("requests", agg.requests)
                .field("errors", agg.errors)
                .field("sheds", agg.sheds)
                .field("rate", agg.requests as f64 / span)
                .field("error_rate", agg.errors as f64 / span)
                .field("shed_rate", agg.sheds as f64 / span);
            let mut ops = Object::new();
            for (i, name) in OPS.iter().enumerate() {
                let row = &agg.op_buckets[i * LATENCY_BUCKETS..(i + 1) * LATENCY_BUCKETS];
                let count: u64 = row.iter().sum();
                if count == 0 {
                    continue;
                }
                let mut entry = Object::new()
                    .field("count", count)
                    .field("p50", quantile_upper_bound(row, 0.50).unwrap_or(0))
                    .field("p90", quantile_upper_bound(row, 0.90).unwrap_or(0))
                    .field("p99", quantile_upper_bound(row, 0.99).unwrap_or(0));
                let (worst, trace) = agg.op_worst[i];
                entry = entry.field("worst_micros", worst);
                if trace != 0 {
                    entry = entry.field("exemplar_trace", trace);
                }
                ops = ops.field(name, entry.build());
            }
            block = block.field("ops", ops.build());
            let mut phases = Object::new();
            for (p, name) in PHASES.iter().enumerate() {
                let row = &agg.phase_buckets[p * LATENCY_BUCKETS..(p + 1) * LATENCY_BUCKETS];
                let count: u64 = row.iter().sum();
                if count == 0 {
                    continue;
                }
                phases = phases.field(
                    name,
                    Object::new()
                        .field("count", count)
                        .field("p50", quantile_upper_bound(row, 0.50).unwrap_or(0))
                        .field("p90", quantile_upper_bound(row, 0.90).unwrap_or(0))
                        .field("p99", quantile_upper_bound(row, 0.99).unwrap_or(0))
                        .build(),
                );
            }
            block = block.field("phases", phases.build());
            out = out.field(&format!("{window}s"), block.build());
        }
        out.build()
    }

    /// Prometheus gauge exposition of the windowed aggregates
    /// (`srank_window_*`, labelled by `window` and, where relevant,
    /// `op`/`phase`/`trace`).
    pub fn to_prometheus(&self) -> String {
        use std::fmt::Write as _;
        let now = self.now_sec();
        let mut out = String::new();
        for (name, help) in [
            ("srank_window_rate", "Requests per second over the window."),
            (
                "srank_window_error_rate",
                "Failed requests per second over the window.",
            ),
            (
                "srank_window_shed_rate",
                "Shed requests per second over the window.",
            ),
        ] {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} gauge");
        }
        let mut rates = String::new();
        let mut quantiles = String::new();
        let mut exemplars = String::new();
        for &window in WINDOWS {
            let agg = self.aggregate(now, window);
            let span = window as f64;
            let w = format!("{window}s");
            let _ = writeln!(
                rates,
                "srank_window_rate{{window=\"{w}\"}} {}",
                agg.requests as f64 / span
            );
            let _ = writeln!(
                rates,
                "srank_window_error_rate{{window=\"{w}\"}} {}",
                agg.errors as f64 / span
            );
            let _ = writeln!(
                rates,
                "srank_window_shed_rate{{window=\"{w}\"}} {}",
                agg.sheds as f64 / span
            );
            for (i, op) in OPS.iter().enumerate() {
                let row = &agg.op_buckets[i * LATENCY_BUCKETS..(i + 1) * LATENCY_BUCKETS];
                let count: u64 = row.iter().sum();
                if count == 0 {
                    continue;
                }
                for (q, label) in [(0.50, "p50"), (0.90, "p90"), (0.99, "p99")] {
                    let _ = writeln!(
                        quantiles,
                        "srank_window_op_{label}_micros{{window=\"{w}\",op=\"{op}\"}} {}",
                        quantile_upper_bound(row, q).unwrap_or(0)
                    );
                }
                let (worst, trace) = agg.op_worst[i];
                if trace != 0 {
                    let _ = writeln!(
                        exemplars,
                        "srank_window_exemplar_micros{{window=\"{w}\",op=\"{op}\",trace=\"{trace}\"}} {worst}"
                    );
                }
            }
            for (p, phase) in PHASES.iter().enumerate() {
                let row = &agg.phase_buckets[p * LATENCY_BUCKETS..(p + 1) * LATENCY_BUCKETS];
                let count: u64 = row.iter().sum();
                if count == 0 {
                    continue;
                }
                for (q, label) in [(0.50, "p50"), (0.99, "p99")] {
                    let _ = writeln!(
                        quantiles,
                        "srank_window_phase_{label}_micros{{window=\"{w}\",phase=\"{phase}\"}} {}",
                        quantile_upper_bound(row, q).unwrap_or(0)
                    );
                }
            }
        }
        out.push_str(&rates);
        for (name, help) in [
            (
                "srank_window_op_p50_micros",
                "Windowed per-op latency p50 upper bound.",
            ),
            (
                "srank_window_op_p90_micros",
                "Windowed per-op latency p90 upper bound.",
            ),
            (
                "srank_window_op_p99_micros",
                "Windowed per-op latency p99 upper bound.",
            ),
            (
                "srank_window_phase_p50_micros",
                "Windowed per-phase latency p50 upper bound.",
            ),
            (
                "srank_window_phase_p99_micros",
                "Windowed per-phase latency p99 upper bound.",
            ),
        ] {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} gauge");
        }
        out.push_str(&quantiles);
        let _ = writeln!(
            out,
            "# HELP srank_window_exemplar_micros Worst windowed sample per op; the trace label resolves via the trace op."
        );
        let _ = writeln!(out, "# TYPE srank_window_exemplar_micros gauge");
        out.push_str(&exemplars);
        out
    }
}

/// Merged view of the slots inside one window.
struct WindowAgg {
    requests: u64,
    errors: u64,
    sheds: u64,
    op_buckets: Vec<u64>,
    phase_buckets: Vec<u64>,
    /// Per op: (worst micros, trace id of that sample).
    op_worst: Vec<(u64, u64)>,
}

impl WindowAgg {
    fn new() -> Self {
        WindowAgg {
            requests: 0,
            errors: 0,
            sheds: 0,
            op_buckets: vec![0; OPS.len() * LATENCY_BUCKETS],
            phase_buckets: vec![0; PHASES.len() * LATENCY_BUCKETS],
            op_worst: vec![(0, 0); OPS.len()],
        }
    }
}

/// The upper bound of the log2 bucket containing the `q`-quantile of a
/// merged bucket row — same contract as
/// [`crate::metrics::LatencyHistogram::percentile_upper_bound`].
fn quantile_upper_bound(buckets: &[u64], q: f64) -> Option<u64> {
    let count: u64 = buckets.iter().sum();
    if count == 0 {
        return None;
    }
    let rank = ((q.clamp(0.0, 1.0) * count as f64).ceil() as u64).clamp(1, count);
    let mut cumulative = 0u64;
    for (i, &c) in buckets.iter().enumerate() {
        cumulative += c;
        if cumulative >= rank {
            return Some(bucket_upper_bound(i));
        }
    }
    Some(1u64 << LATENCY_BUCKETS)
}

// ---------------------------------------------------------------------------
// Per-client resource accounting
// ---------------------------------------------------------------------------

/// Default cardinality bound of the per-client table.
pub const DEFAULT_CLIENT_TABLE_CAP: usize = 64;

/// The table key for requests that carry no `"client"` tag.
pub const ANONYMOUS_CLIENT: &str = "(anonymous)";

/// Resources one client tag has consumed since boot (or since its row
/// was LRU-evicted and re-created).
#[derive(Debug, Default, Clone)]
pub struct ClientUsage {
    pub requests: u64,
    pub errors: u64,
    pub kernel_cpu_micros: u64,
    pub queue_wait_micros: u64,
    pub bytes_written: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub sheds: u64,
    pub deadline_expired: u64,
}

thread_local! {
    /// The `"client"` tag of the request this thread is currently
    /// serving (None = untagged). Installed by the engine's dispatch
    /// entry points and captured into pool-job closures, mirroring the
    /// ambient-deadline plumbing in [`crate::guard`].
    static AMBIENT_CLIENT: RefCell<Option<Arc<str>>> = const { RefCell::new(None) };
}

/// The ambient client tag for the current thread.
pub fn ambient_client() -> Option<Arc<str>> {
    AMBIENT_CLIENT.with(|c| c.borrow().clone())
}

/// Runs `f` with `tag` as the current thread's ambient client tag,
/// restoring the previous tag afterwards (panic-safe).
pub fn with_client<T>(tag: Option<Arc<str>>, f: impl FnOnce() -> T) -> T {
    struct Restore(Option<Arc<str>>);
    impl Drop for Restore {
        fn drop(&mut self) {
            AMBIENT_CLIENT.with(|c| *c.borrow_mut() = self.0.take());
        }
    }
    let _restore = Restore(AMBIENT_CLIENT.with(|c| c.replace(tag)));
    f()
}

/// A bounded per-client usage table (see module docs). The LRU cap
/// bounds cardinality against tag-spraying clients; the anonymous
/// bucket aggregates untagged traffic and is pinned by regular use
/// like any other row.
pub struct ClientTable {
    rows: OrderedMutex<LruCache<Arc<str>, ClientUsage>>,
    evicted: AtomicU64,
    capacity: usize,
}

impl std::fmt::Debug for ClientTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClientTable")
            .field("capacity", &self.capacity)
            .finish()
    }
}

impl ClientTable {
    /// A table bounded at `capacity` rows. `0` disables accounting
    /// entirely: every charge becomes a single branch (the bench
    /// baseline and the operator escape hatch).
    pub fn new(capacity: usize) -> Self {
        ClientTable {
            rows: OrderedMutex::new(
                rank::CLIENT_TABLE,
                "client_table",
                LruCache::new(capacity.max(1)),
            ),
            evicted: AtomicU64::new(0),
            capacity,
        }
    }

    /// Whether charges are recorded at all (`capacity > 0`).
    pub fn is_enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Applies `f` to the row for the current thread's ambient client
    /// tag (anonymous bucket when untagged), creating the row — and
    /// LRU-evicting the coldest — as needed.
    pub fn charge(&self, f: impl FnOnce(&mut ClientUsage)) {
        self.charge_tag(ambient_client().as_deref(), f);
    }

    /// Applies `f` to the row for an explicit tag.
    pub fn charge_tag(&self, tag: Option<&str>, f: impl FnOnce(&mut ClientUsage)) {
        if self.capacity == 0 {
            return;
        }
        let key: Arc<str> = Arc::from(tag.unwrap_or(ANONYMOUS_CLIENT));
        let mut rows = self.rows.lock();
        if rows.get(&key).is_none() {
            let before = rows.len();
            rows.insert(key.clone(), ClientUsage::default());
            if rows.len() == before && before == self.capacity {
                self.evicted.fetch_add(1, Ordering::Relaxed);
            }
        }
        // Re-probe: `get` marks the row most recently used; the row is
        // guaranteed present because we just inserted on miss.
        if let Some(row) = rows.get_mut(&key) {
            f(row);
        }
    }

    /// Rows currently tracked.
    pub fn len(&self) -> usize {
        self.rows.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The cardinality bound (rows beyond this evict the coldest).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Rows evicted by the cardinality bound since boot.
    pub fn evicted(&self) -> u64 {
        self.evicted.load(Ordering::Relaxed)
    }

    /// The `top` op's result: rows sorted by `sort_by` (descending),
    /// truncated to `limit`.
    pub fn top_value(&self, sort_by: &str, limit: usize) -> Value {
        let rows: Vec<(Arc<str>, ClientUsage)> = {
            let table = self.rows.lock();
            table
                .iter_lru()
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect()
        };
        let metric = |u: &ClientUsage| -> u64 {
            match sort_by {
                "requests" => u.requests,
                "queue_wait_micros" => u.queue_wait_micros,
                "bytes_written" => u.bytes_written,
                "sheds" => u.sheds,
                "deadline_expired" => u.deadline_expired,
                "cache_hits" => u.cache_hits,
                "cache_misses" => u.cache_misses,
                "errors" => u.errors,
                _ => u.kernel_cpu_micros,
            }
        };
        let mut rows = rows;
        rows.sort_by(|a, b| metric(&b.1).cmp(&metric(&a.1)).then(a.0.cmp(&b.0)));
        rows.truncate(limit);
        let clients: Vec<Value> = rows
            .iter()
            .map(|(tag, u)| {
                Object::new()
                    .field("client", tag.as_ref())
                    .field("requests", u.requests)
                    .field("errors", u.errors)
                    .field("kernel_cpu_micros", u.kernel_cpu_micros)
                    .field("queue_wait_micros", u.queue_wait_micros)
                    .field("bytes_written", u.bytes_written)
                    .field("cache_hits", u.cache_hits)
                    .field("cache_misses", u.cache_misses)
                    .field("sheds", u.sheds)
                    .field("deadline_expired", u.deadline_expired)
                    .build()
            })
            .collect();
        Object::new()
            .field("sorted_by", sort_by)
            .field("tracked", self.len())
            .field("capacity", self.capacity)
            .field("evicted", self.evicted())
            .field("clients", Value::Array(clients))
            .build()
    }

    /// Prometheus exposition of the table's cardinality gauges.
    pub fn to_prometheus(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (name, help, kind, value) in [
            (
                "srank_clients_tracked",
                "Client tags currently tracked by the accounting table.",
                "gauge",
                self.len() as u64,
            ),
            (
                "srank_clients_evicted_total",
                "Client rows evicted by the cardinality bound.",
                "counter",
                self.evicted(),
            ),
        ] {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} {kind}");
            let _ = writeln!(out, "{name} {value}");
        }
        out
    }
}

/// CPU time consumed by the calling thread, in microseconds, from
/// `clock_gettime(CLOCK_THREAD_CPUTIME_ID)`, which brings the running
/// thread's total up to date; procfs `schedstat` advances only at
/// scheduler ticks, so it reads 0 for a kernel shorter than a tick, such
/// as a 0.05 ms exact 3-D verify. Returns `None`
/// off 64-bit Linux; callers fall back to wall-clock attribution. Read
/// once at kernel entry and once at exit — not per sample chunk — to
/// keep the accounting overhead inside the obs layer's ≲2% budget.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn thread_cpu_micros() -> Option<u64> {
    /// `struct timespec` on 64-bit Linux.
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` writes one `struct timespec` through the
    // pointer, which points at a live local with that exact layout.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    let secs = u64::try_from(ts.tv_sec).ok()?;
    let nanos = u64::try_from(ts.tv_nsec).ok()?;
    (rc == 0).then(|| secs * 1_000_000 + nanos / 1_000)
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn thread_cpu_micros() -> Option<u64> {
    None
}

/// A running kernel-CPU measurement: captures thread CPU time at
/// construction and charges the delta (wall-clock fallback) on
/// [`finish`](Self::finish).
pub struct CpuTimer {
    cpu_start: Option<u64>,
    wall_start: Instant,
}

impl CpuTimer {
    pub fn start() -> Self {
        CpuTimer {
            cpu_start: thread_cpu_micros(),
            wall_start: Instant::now(),
        }
    }

    /// Microseconds of thread CPU consumed since `start` (wall-clock
    /// fallback when the thread CPU clock is unavailable).
    pub fn finish(self) -> u64 {
        match (self.cpu_start, thread_cpu_micros()) {
            (Some(a), Some(b)) => b.saturating_sub(a),
            _ => self.wall_start.elapsed().as_micros() as u64,
        }
    }
}

// ---------------------------------------------------------------------------
// Watchdog
// ---------------------------------------------------------------------------

/// Maximum worker slots the watchdog tracks busy stamps for.
pub const MAX_WATCHED_WORKERS: usize = 64;

/// Shared watchdog state: heartbeat stamps written by the pool, store
/// and metrics endpoint; scanned by the supervisor thread.
pub struct Watchdog {
    started: Instant,
    /// Per-worker: millisecond stamp when the current job started
    /// (0 = idle). Written by the pool's worker loop.
    busy_since_ms: Vec<AtomicU64>,
    /// Millisecond stamp of the last journal write *attempt*.
    journal_attempt_ms: AtomicU64,
    /// Millisecond stamp of the last journal write *success*.
    journal_ok_ms: AtomicU64,
    /// Millisecond stamp when the most recent metrics render started.
    scrape_start_ms: AtomicU64,
    /// Millisecond stamp when the most recent metrics render finished.
    scrape_end_ms: AtomicU64,
    /// Whether the watchdog currently considers the service degraded.
    degraded: AtomicBool,
    /// Stalled workers found by the last scan.
    stalled_workers: AtomicU64,
    /// Scans performed since boot.
    scans: AtomicU64,
    /// Structured warnings emitted since boot.
    warnings: AtomicU64,
    /// Supervisor shutdown flag (set on engine drop).
    shutdown: AtomicBool,
}

impl std::fmt::Debug for Watchdog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Watchdog")
            .field("degraded", &self.is_degraded())
            .finish()
    }
}

impl Default for Watchdog {
    fn default() -> Self {
        Self::new()
    }
}

impl Watchdog {
    pub fn new() -> Self {
        Watchdog {
            started: Instant::now(),
            busy_since_ms: (0..MAX_WATCHED_WORKERS)
                .map(|_| AtomicU64::new(0))
                .collect(),
            journal_attempt_ms: AtomicU64::new(0),
            journal_ok_ms: AtomicU64::new(0),
            scrape_start_ms: AtomicU64::new(0),
            scrape_end_ms: AtomicU64::new(0),
            degraded: AtomicBool::new(false),
            stalled_workers: AtomicU64::new(0),
            scans: AtomicU64::new(0),
            warnings: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
        }
    }

    /// Milliseconds since watchdog creation, offset by 1 so a live
    /// stamp is never 0 (0 means "idle"/"never").
    #[inline]
    pub fn now_ms(&self) -> u64 {
        self.started.elapsed().as_millis() as u64 + 1
    }

    /// Pool worker `slot` started executing a job.
    #[inline]
    pub fn worker_busy(&self, slot: usize) {
        if let Some(s) = self.busy_since_ms.get(slot) {
            s.store(self.now_ms(), Ordering::Relaxed);
        }
    }

    /// Pool worker `slot` finished its job.
    #[inline]
    pub fn worker_idle(&self, slot: usize) {
        if let Some(s) = self.busy_since_ms.get(slot) {
            s.store(0, Ordering::Relaxed);
        }
    }

    /// How long each currently-busy worker has been executing, in
    /// milliseconds, as `(slot, busy_ms)` pairs.
    pub fn busy_workers(&self) -> Vec<(usize, u64)> {
        let now = self.now_ms();
        self.busy_since_ms
            .iter()
            .enumerate()
            .filter_map(|(slot, s)| {
                let since = s.load(Ordering::Relaxed);
                (since != 0).then(|| (slot, now.saturating_sub(since)))
            })
            .collect()
    }

    /// A journal write is being attempted.
    pub fn journal_attempt(&self) {
        self.journal_attempt_ms
            .store(self.now_ms(), Ordering::Relaxed);
    }

    /// A journal write completed successfully.
    pub fn journal_ok(&self) {
        self.journal_ok_ms.store(self.now_ms(), Ordering::Relaxed);
    }

    /// A metrics render (scrape or `/healthz`) is starting.
    pub fn scrape_start(&self) {
        self.scrape_start_ms.store(self.now_ms(), Ordering::Relaxed);
    }

    /// A metrics render finished.
    pub fn scrape_end(&self) {
        self.scrape_end_ms.store(self.now_ms(), Ordering::Relaxed);
    }

    /// Whether the last scan found the service degraded (stalled
    /// worker, wedged journal, or starved metrics endpoint).
    pub fn is_degraded(&self) -> bool {
        self.degraded.load(Ordering::Relaxed)
    }

    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::Relaxed);
    }

    pub fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::Relaxed)
    }

    /// One supervisor scan: returns the current findings and updates
    /// the degraded flag and gauges. `stall_ms` is the stalled-worker
    /// threshold; the journal and scrape thresholds derive from it.
    pub fn scan(&self, stall_ms: u64) -> Vec<WatchdogFinding> {
        self.scans.fetch_add(1, Ordering::Relaxed);
        let now = self.now_ms();
        let mut findings = Vec::new();
        let mut stalled = 0u64;
        for (slot, busy_ms) in self.busy_workers() {
            if busy_ms >= stall_ms {
                stalled += 1;
                findings.push(WatchdogFinding {
                    kind: "stalled_worker",
                    detail: format!("worker {slot} executing for {busy_ms} ms"),
                });
            }
        }
        self.stalled_workers.store(stalled, Ordering::Relaxed);
        let attempt = self.journal_attempt_ms.load(Ordering::Relaxed);
        let ok = self.journal_ok_ms.load(Ordering::Relaxed);
        if attempt != 0 && attempt > ok && now.saturating_sub(attempt) >= stall_ms {
            findings.push(WatchdogFinding {
                kind: "wedged_journal",
                detail: format!(
                    "journal write pending for {} ms",
                    now.saturating_sub(attempt)
                ),
            });
        }
        let scrape_start = self.scrape_start_ms.load(Ordering::Relaxed);
        let scrape_end = self.scrape_end_ms.load(Ordering::Relaxed);
        if scrape_start != 0
            && scrape_start > scrape_end
            && now.saturating_sub(scrape_start) >= stall_ms
        {
            findings.push(WatchdogFinding {
                kind: "metrics_starvation",
                detail: format!(
                    "metrics render running for {} ms",
                    now.saturating_sub(scrape_start)
                ),
            });
        }
        if !findings.is_empty() {
            self.warnings
                .fetch_add(findings.len() as u64, Ordering::Relaxed);
        }
        self.degraded.store(!findings.is_empty(), Ordering::Relaxed);
        findings
    }

    /// The `watchdog` block of `stats`/`debug.dump`.
    pub fn to_value(&self) -> Value {
        let busy: Vec<Value> = self
            .busy_workers()
            .iter()
            .map(|&(slot, ms)| {
                Object::new()
                    .field("worker", slot)
                    .field("busy_ms", ms)
                    .build()
            })
            .collect();
        Object::new()
            .field("degraded", self.is_degraded())
            .field(
                "stalled_workers",
                self.stalled_workers.load(Ordering::Relaxed),
            )
            .field("scans", self.scans.load(Ordering::Relaxed))
            .field("warnings", self.warnings.load(Ordering::Relaxed))
            .field("busy_workers", Value::Array(busy))
            .build()
    }

    /// Prometheus exposition of the watchdog gauges.
    pub fn to_prometheus(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (name, help, kind, value) in [
            (
                "srank_watchdog_degraded",
                "1 when the watchdog considers the service degraded.",
                "gauge",
                self.is_degraded() as u64,
            ),
            (
                "srank_watchdog_stalled_workers",
                "Workers stalled past the threshold at the last scan.",
                "gauge",
                self.stalled_workers.load(Ordering::Relaxed),
            ),
            (
                "srank_watchdog_scans_total",
                "Watchdog scans since boot.",
                "counter",
                self.scans.load(Ordering::Relaxed),
            ),
            (
                "srank_watchdog_warnings_total",
                "Watchdog warnings emitted since boot.",
                "counter",
                self.warnings.load(Ordering::Relaxed),
            ),
        ] {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} {kind}");
            let _ = writeln!(out, "{name} {value}");
        }
        out
    }
}

/// One watchdog finding, as scanned.
pub struct WatchdogFinding {
    /// Finding class: `stalled_worker`, `wedged_journal` or
    /// `metrics_starvation`.
    pub kind: &'static str,
    /// Human-readable specifics (worker slot, stall age).
    pub detail: String,
}

// ---------------------------------------------------------------------------
// The obs bundle
// ---------------------------------------------------------------------------

/// The engine's observability bundle: one windowed ring, one client
/// table, one watchdog. Each piece is its own `Arc` so the latency
/// histograms, the worker pool, the metrics transport and the
/// supervisor thread can hold exactly the handle they need.
#[derive(Clone, Debug)]
pub struct Obs {
    pub window: Arc<WindowRing>,
    pub clients: Arc<ClientTable>,
    pub watchdog: Arc<Watchdog>,
}

impl Default for Obs {
    fn default() -> Self {
        Self::new()
    }
}

impl Obs {
    pub fn new() -> Self {
        Self::with_client_capacity(DEFAULT_CLIENT_TABLE_CAP)
    }

    pub fn with_client_capacity(client_capacity: usize) -> Self {
        Obs {
            window: Arc::new(WindowRing::new()),
            clients: Arc::new(ClientTable::new(client_capacity)),
            watchdog: Arc::new(Watchdog::new()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn field<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
        match v {
            Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn window_block<'a>(v: &'a Value, window: &str) -> &'a Value {
        field(v, window).expect("window block")
    }

    fn op_idx(name: &str) -> usize {
        OPS.iter().position(|&o| o == name).expect("known op")
    }

    #[test]
    fn bucket_index_matches_histogram_edges() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 1);
        assert_eq!(bucket_index(1 << 29), LATENCY_BUCKETS - 1);
        assert_eq!(bucket_index(u64::MAX), LATENCY_BUCKETS - 1);
    }

    #[test]
    fn windowed_counts_appear_in_matching_horizons() {
        let ring = WindowRing::new();
        let verify = op_idx("verify");
        // Three samples at second 1000, one at second 1050.
        for _ in 0..3 {
            ring.record_op_at(1000, verify, 100, 0);
        }
        ring.record_op_at(1050, verify, 100, 0);
        let v = ring.to_value_at(1050);
        let in_10s = window_block(&v, "10s");
        assert_eq!(
            field(in_10s, "requests").and_then(Value::as_u64),
            Some(1),
            "only the second-1050 sample is inside the 10s horizon"
        );
        let in_60s = window_block(&v, "60s");
        assert_eq!(field(in_60s, "requests").and_then(Value::as_u64), Some(4));
        let in_300s = window_block(&v, "300s");
        assert_eq!(field(in_300s, "requests").and_then(Value::as_u64), Some(4));
    }

    #[test]
    fn ring_rotation_recycles_slots_deterministically() {
        let ring = WindowRing::new();
        let ping = op_idx("ping");
        ring.record_op_at(7, ping, 10, 0);
        // Second 7 + SLOTS lands on the same ring slot; recording there
        // must evict the old second's data, not add to it.
        ring.record_op_at(7 + SLOTS as u64, ping, 10, 0);
        ring.record_op_at(7 + SLOTS as u64, ping, 10, 0);
        let v = ring.to_value_at(7 + SLOTS as u64);
        let in_10s = window_block(&v, "10s");
        assert_eq!(field(in_10s, "requests").and_then(Value::as_u64), Some(2));
        // The old second's view is gone: its slot now belongs to the
        // new second, so a window over the old time range is empty.
        let old = ring.to_value_at(7);
        let old_10s = window_block(&old, "10s");
        assert_eq!(field(old_10s, "requests").and_then(Value::as_u64), Some(0));
    }

    /// The claim protocol, stepped by hand with the injected clock: the
    /// interleaving that lost an update under publish-before-reset.
    #[test]
    fn slot_claim_interleaving_loses_no_update() {
        let ring = WindowRing::new();
        let ping = op_idx("ping");
        let requests = |now: u64| {
            let v = ring.to_value_at(now);
            field(window_block(&v, "10s"), "requests").and_then(Value::as_u64)
        };
        ring.record_op_at(3, ping, 10, 0);
        let next = 3 + SLOTS as u64; // the same ring slot, a new second

        // Recorder A claims the stale slot for the new second...
        assert_eq!(ring.try_claim(next), Claim::Won);
        // ...recorder B arrives before A has zeroed it: it must wait,
        // not count into a slot A is about to wipe.
        assert_eq!(ring.try_claim(next), Claim::Busy);
        // A reader mid-claim sees neither the old nor the new second.
        assert_eq!(requests(next), Some(0));
        assert_eq!(requests(3), Some(0));
        // A zeroes and publishes, then counts its own sample.
        ring.publish(next);
        ring.record_op_at(next, ping, 10, 0);
        // B retries: the slot is live, and B's sample survives.
        assert_eq!(ring.try_claim(next), Claim::Live);
        ring.record_op_at(next, ping, 10, 0);
        assert_eq!(requests(next), Some(2));
    }

    #[test]
    fn window_percentiles_use_log2_upper_bounds() {
        let ring = WindowRing::new();
        let verify = op_idx("verify");
        for _ in 0..90 {
            ring.record_op_at(5, verify, 3, 0); // bucket [2, 4)
        }
        for _ in 0..10 {
            ring.record_op_at(5, verify, 1000, 0); // bucket [512, 1024)
        }
        let v = ring.to_value_at(5);
        let ops = field(window_block(&v, "10s"), "ops").unwrap();
        let verify_block = field(ops, "verify").unwrap();
        assert_eq!(field(verify_block, "p50").and_then(Value::as_u64), Some(4));
        assert_eq!(field(verify_block, "p90").and_then(Value::as_u64), Some(4));
        assert_eq!(
            field(verify_block, "p99").and_then(Value::as_u64),
            Some(1024)
        );
    }

    #[test]
    fn exemplar_tracks_worst_sample_trace() {
        let ring = WindowRing::new();
        let verify = op_idx("verify");
        ring.record_op_at(9, verify, 50, 11);
        ring.record_op_at(9, verify, 5000, 42); // the worst sample
        ring.record_op_at(9, verify, 100, 13);
        let v = ring.to_value_at(9);
        let ops = field(window_block(&v, "10s"), "ops").unwrap();
        let verify_block = field(ops, "verify").unwrap();
        assert_eq!(
            field(verify_block, "worst_micros").and_then(Value::as_u64),
            Some(5000)
        );
        assert_eq!(
            field(verify_block, "exemplar_trace").and_then(Value::as_u64),
            Some(42)
        );
    }

    #[test]
    fn errors_and_sheds_fold_into_rates() {
        let ring = WindowRing::new();
        ring.record_op_at(20, op_idx("ping"), 10, 0);
        ring.record_error_at(20);
        ring.record_shed_at(20);
        ring.record_shed_at(20);
        let v = ring.to_value_at(20);
        let b = window_block(&v, "10s");
        assert_eq!(field(b, "errors").and_then(Value::as_u64), Some(1));
        assert_eq!(field(b, "sheds").and_then(Value::as_u64), Some(2));
        let rate = field(b, "shed_rate").and_then(Value::as_f64).unwrap();
        assert!((rate - 0.2).abs() < 1e-9, "2 sheds over 10s");
    }

    #[test]
    fn client_table_caps_cardinality_with_lru_eviction() {
        let table = ClientTable::new(2);
        table.charge_tag(Some("a"), |u| u.requests += 1);
        table.charge_tag(Some("b"), |u| u.requests += 1);
        table.charge_tag(Some("a"), |u| u.requests += 1); // refresh a
        table.charge_tag(Some("c"), |u| u.requests += 1); // evicts b
        assert_eq!(table.len(), 2);
        assert_eq!(table.evicted(), 1);
        let v = table.top_value("requests", 10);
        let clients = field(&v, "clients").and_then(Value::as_array).unwrap();
        let tags: Vec<&str> = clients
            .iter()
            .map(|c| field(c, "client").and_then(Value::as_str).unwrap())
            .collect();
        assert_eq!(tags, vec!["a", "c"], "b was least recently used");
        assert_eq!(
            field(&clients[0], "requests").and_then(Value::as_u64),
            Some(2)
        );
    }

    #[test]
    fn ambient_client_restores_on_exit() {
        assert!(ambient_client().is_none());
        with_client(Some(Arc::from("tenant-1")), || {
            assert_eq!(ambient_client().as_deref(), Some("tenant-1"));
            with_client(None, || assert!(ambient_client().is_none()));
            assert_eq!(ambient_client().as_deref(), Some("tenant-1"));
        });
        assert!(ambient_client().is_none());
    }

    #[test]
    fn anonymous_traffic_lands_in_the_anonymous_bucket() {
        let table = ClientTable::new(4);
        table.charge(|u| u.requests += 1); // no ambient tag
        let v = table.top_value("requests", 10);
        let clients = field(&v, "clients").and_then(Value::as_array).unwrap();
        assert_eq!(
            field(&clients[0], "client").and_then(Value::as_str),
            Some(ANONYMOUS_CLIENT)
        );
    }

    #[test]
    fn watchdog_flags_stalled_worker_and_recovers() {
        let dog = Watchdog::new();
        assert!(dog.scan(10_000).is_empty());
        assert!(!dog.is_degraded());
        // Stamp worker 3 busy, then scan with a zero threshold so any
        // busy worker counts as stalled.
        dog.worker_busy(3);
        let findings = dog.scan(0);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].kind, "stalled_worker");
        assert!(dog.is_degraded());
        dog.worker_idle(3);
        assert!(dog.scan(0).is_empty());
        assert!(!dog.is_degraded());
    }

    #[test]
    fn watchdog_flags_wedged_journal() {
        let dog = Watchdog::new();
        dog.journal_attempt();
        // Success never arrives; with a zero threshold the pending
        // attempt reads as wedged.
        let findings = dog.scan(0);
        assert!(findings.iter().any(|f| f.kind == "wedged_journal"));
        dog.journal_ok();
        assert!(dog.scan(0).is_empty());
    }

    #[test]
    fn watchdog_flags_starved_metrics_render() {
        let dog = Watchdog::new();
        dog.scrape_start();
        let findings = dog.scan(0);
        assert!(findings.iter().any(|f| f.kind == "metrics_starvation"));
        dog.scrape_end();
        assert!(dog.scan(0).is_empty());
    }

    #[test]
    fn cpu_timer_reports_monotonic_charge() {
        let timer = CpuTimer::start();
        // Burn a little CPU: the thread CPU clock must see it even when
        // no scheduler tick lands inside the loop.
        let mut acc = 0u64;
        for i in 0..200_000u64 {
            acc = std::hint::black_box(acc.wrapping_add(i.wrapping_mul(2_654_435_761)));
        }
        assert!(acc != 1, "keep the loop");
        let micros = timer.finish();
        assert!(micros > 0, "sub-tick work is charged");
        assert!(micros < 60_000_000, "sane upper bound");
    }
}
