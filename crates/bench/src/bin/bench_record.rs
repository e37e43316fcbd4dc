//! `bench_record` — the PR-over-PR performance trajectory recorder.
//!
//! Measures the randomized-sampler kernel (cold `sample_n`, parallel
//! `sample_n_parallel`) on the full-scope DoT workload (n = 2000,
//! 100k samples), the faithful pre-interning baseline for comparison,
//! the service batch-op round-trip, the warm-restart
//! time-to-first-cached-verify through a snapshot/restore cycle, and the
//! request-tracing overhead (the same DoT 100k-sample verify kernel
//! through an engine with `--trace-sample 1` vs tracing disabled), and
//! the overload benchmark (open-loop probe p50/p99 against a swamped
//! pool, admission-control shedding on vs off), and the batch-dispatch
//! suite (cold/cached/mixed 8-sub batches vs sequential round-trips
//! plus a two-client session fairness probe), and the observability
//! overhead (the same DoT 100k-sample verify kernel with windowed
//! telemetry + per-client accounting on vs off), and the exact 3-D
//! (Girard) verify on DoT n = 400 (ms per verify), then writes the
//! numbers as JSON (`BENCH_10.json` by default) so future PRs can
//! diff throughput.
//!
//! ```text
//! cargo run --release -p srank-bench --bin bench_record -- [--smoke] [--out PATH]
//! ```
//!
//! Each sampler phase re-executes this binary (`--phase …`) so every
//! measurement runs in a fresh process: the legacy accumulator churns
//! ~1 GB of heap, and allocator/THP state left behind by one phase was
//! measured to distort the next by >50% when they share a process.
//!
//! `--smoke` shrinks every workload ~20× for a sub-minute CI sanity run
//! (same shape, useless absolute numbers — never commit a smoke file).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde_json::Value;
use srank_bench::dot_dataset;
use srank_core::prelude::*;
use srank_core::Dataset;
use srank_service::registry::DatasetSource;
use srank_service::{serve_tcp, Client, Engine, EngineConfig};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

const N_ITEMS: usize = 2000;
const SEED: u64 = 16;

/// The pre-PR accumulator, verbatim: allocate a weight vector per draw,
/// score row-major, sort with the indirect comparator, clone the scratch
/// ranking into an owned key, and count it in a `HashMap` under the
/// default (SipHash) hasher. Kept here so the recorded speedup is against
/// the real historical kernel, not a strawman.
fn legacy_sample_n(data: &Dataset, roi: &RegionOfInterest, n: usize) -> usize {
    let sampler = roi.sampler();
    let mut rng = StdRng::seed_from_u64(SEED);
    let mut counts: HashMap<Vec<u32>, (u64, Vec<f64>)> = HashMap::new();
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
        match counts.entry(idx.clone()) {
            Entry::Occupied(mut e) => e.get_mut().0 += 1,
            Entry::Vacant(e) => {
                e.insert((1, w));
            }
        }
    }
    counts.len()
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// The nearest-rank `p` quantile of an ascending slice (0 when empty).
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

fn rate(n: usize, seconds: f64) -> Value {
    obj(vec![
        ("seconds", Value::Number(seconds)),
        ("ops_per_sec", Value::Number(n as f64 / seconds)),
    ])
}

/// Runs one sampler phase in *this* process and prints a JSON line.
fn run_phase(phase: &str, samples: usize, threads: usize) {
    let data = dot_dataset(N_ITEMS);
    let roi = RegionOfInterest::full(data.dim());
    let (seconds, distinct) = match phase {
        "legacy" => {
            let t = Instant::now();
            let distinct = legacy_sample_n(&data, &roi, samples);
            (t.elapsed().as_secs_f64(), distinct)
        }
        "kernel" => {
            let mut e = RandomizedEnumerator::new(&data, &roi, RankingScope::Full, 0.05).unwrap();
            let mut rng = StdRng::seed_from_u64(SEED);
            let t = Instant::now();
            e.sample_n(&mut rng, samples);
            (t.elapsed().as_secs_f64(), e.distinct_observed())
        }
        "parallel" => {
            let mut e = RandomizedEnumerator::new(&data, &roi, RankingScope::Full, 0.05).unwrap();
            let t = Instant::now();
            e.sample_n_parallel(SEED, samples, threads);
            (t.elapsed().as_secs_f64(), e.distinct_observed())
        }
        other => panic!("bench_record: unknown phase {other}"),
    };
    let line = obj(vec![
        ("seconds", Value::Number(seconds)),
        ("distinct", Value::Number(distinct as f64)),
    ]);
    println!("{}", serde_json::to_string(&line).unwrap());
}

/// Re-executes this binary for one phase, several fresh-process trials,
/// and returns the **minimum** wall time (the noise-free estimate on a
/// shared/virtualized host — first trials absorb frequency ramp-up and
/// page-cache warming) plus the distinct-key count.
fn spawn_phase(phase: &str, samples: usize, threads: usize, trials: usize) -> (f64, usize) {
    let exe = std::env::current_exe().expect("current exe");
    let mut best = f64::INFINITY;
    let mut distinct = 0usize;
    for trial in 0..trials {
        eprintln!(
            "sampler phase '{phase}' trial {}/{trials}: {samples} samples…",
            trial + 1
        );
        let output = std::process::Command::new(&exe)
            .args([
                "--phase",
                phase,
                "--samples",
                &samples.to_string(),
                "--threads",
                &threads.to_string(),
            ])
            .output()
            .expect("spawn phase");
        assert!(
            output.status.success(),
            "phase {phase} failed: {}",
            String::from_utf8_lossy(&output.stderr)
        );
        let text = String::from_utf8(output.stdout).expect("phase output utf8");
        let value: Value = serde_json::from_str(text.trim()).expect("phase output JSON");
        best = best.min(
            value
                .get("seconds")
                .and_then(Value::as_f64)
                .expect("seconds"),
        );
        distinct = value
            .get("distinct")
            .and_then(Value::as_u64)
            .expect("distinct") as usize;
    }
    (best, distinct)
}

fn measure_sampler(samples: usize, trials: usize) -> (Value, f64) {
    let threads = std::thread::available_parallelism().map_or(1, |p| p.get().min(8));
    let (legacy_secs, legacy_distinct) = spawn_phase("legacy", samples, threads, trials);
    let (kernel_secs, kernel_distinct) = spawn_phase("kernel", samples, threads, trials);
    assert_eq!(
        kernel_distinct, legacy_distinct,
        "kernel and baseline must count the same stream identically"
    );
    let (parallel_secs, _) = spawn_phase("parallel", samples, threads, trials);

    let speedup = legacy_secs / kernel_secs;
    let value = obj(vec![
        (
            "workload",
            obj(vec![
                ("dataset", Value::String("dot".into())),
                ("n", Value::Number(N_ITEMS as f64)),
                ("d", Value::Number(3.0)),
                ("scope", Value::String("full".into())),
                ("samples", Value::Number(samples as f64)),
                ("distinct_rankings", Value::Number(legacy_distinct as f64)),
            ]),
        ),
        ("legacy_sample_n", rate(samples, legacy_secs)),
        ("cold_sample_n", rate(samples, kernel_secs)),
        (
            "parallel_sample_n",
            obj(vec![
                ("threads", Value::Number(threads as f64)),
                ("seconds", Value::Number(parallel_secs)),
                ("ops_per_sec", Value::Number(samples as f64 / parallel_secs)),
            ]),
        ),
        ("speedup_vs_legacy", Value::Number(speedup)),
    ]);
    (value, speedup)
}

fn measure_service(rounds: usize) -> Value {
    let engine = Arc::new(Engine::new(EngineConfig::default()));
    engine
        .registry()
        .load(
            "dot2000",
            &DatasetSource::Builtin {
                family: "dot".into(),
                n: N_ITEMS,
                d: 0,
                seed: 1322,
            },
        )
        .expect("builtin dataset loads");
    let mut server = serve_tcp(Arc::clone(&engine), "127.0.0.1:0", 4).expect("bind");
    let addr = server.addr();
    let mut client = Client::connect(addr).expect("connect");

    const SUBS: usize = 8;
    let sub = |i: usize| {
        format!(
            r#"{{"id": {i}, "op": "verify", "dataset": "dot2000", "weights": [1, 1, {}], "samples": 20000}}"#,
            1.0 + i as f64 * 1e-3
        )
    };
    let batch_line = format!(
        r#"{{"op": "batch", "requests": [{}]}}"#,
        (0..SUBS).map(sub).collect::<Vec<_>>().join(", ")
    );
    let parse = |s: &str| serde_json::from_str(s).expect("valid JSON");

    // Warm every sub-result so both measurements exercise the same
    // (cached) compute and the difference is round-trip/fan-out overhead.
    for i in 0..SUBS {
        client.call_ok(&parse(&sub(i))).expect("warm verify");
    }

    eprintln!("service: {rounds} rounds of {SUBS} sequential round-trips…");
    let t = Instant::now();
    for _ in 0..rounds {
        for i in 0..SUBS {
            client.call_ok(&parse(&sub(i))).expect("sequential verify");
        }
    }
    let sequential_secs = t.elapsed().as_secs_f64();

    eprintln!("service: {rounds} rounds of one {SUBS}-sub batch op…");
    let batch_request = parse(&batch_line);
    let t = Instant::now();
    for _ in 0..rounds {
        let result = client.call_ok(&batch_request).expect("batch verify");
        let results = result
            .get("results")
            .and_then(Value::as_array)
            .expect("batch results");
        assert_eq!(results.len(), SUBS);
    }
    let batch_secs = t.elapsed().as_secs_f64();
    server.shutdown();

    obj(vec![
        ("sub_requests", Value::Number(SUBS as f64)),
        ("rounds", Value::Number(rounds as f64)),
        ("sequential", rate(rounds * SUBS, sequential_secs)),
        ("batch_op", rate(rounds * SUBS, batch_secs)),
        ("batch_speedup", Value::Number(sequential_secs / batch_secs)),
    ])
}

/// Batch-dispatch benchmark — the regression this PR series chased:
/// BENCH_5 measured an 8-sub batch *slower* than 8 sequential
/// round-trips (0.97×) because every sub paid the pool hop plus a
/// per-line serialize/flush. Three batch shapes, each batch-op vs
/// sequential over the same TCP connection:
///
/// * `cold_batch` — 8 cold exact verifies (pool-class): honest ~1.0× on
///   a single-core box (the kernels dominate and cannot overlap);
///   recorded, not gated.
/// * `cached_batch` — 8 result-cache hits: pure dispatch overhead.
/// * `mixed_batch` — 3 cached + 3 tiny cold inline-class verifies +
///   2 pings, the shape the inline classifier exists for.
///
/// Plus a two-client session fairness probe (tagged `session.get_next`
/// contention) recording `session_queue.fair_grants`.
fn measure_batch_dispatch(smoke: bool) -> Value {
    let rounds = if smoke { 5 } else { 50 };
    let engine = Arc::new(Engine::new(EngineConfig::default()));
    engine
        .registry()
        .load(
            "dot2000",
            &DatasetSource::Builtin {
                family: "dot".into(),
                n: N_ITEMS,
                d: 0,
                seed: 1322,
            },
        )
        .expect("builtin dataset loads");
    // Small sibling dataset for the tiny inline-class subs: a verify's
    // floor is the query's own scoring + ranking pass, so on the
    // 2000-row set even a 200-sample Monte-Carlo verify costs ~400 µs —
    // swamping the dispatch overhead the mixed shape exists to measure.
    // On 200 rows the whole sub is tens of microseconds of kernel.
    engine
        .registry()
        .load(
            "dot200",
            &DatasetSource::Builtin {
                family: "dot".into(),
                n: 200,
                d: 0,
                seed: 1322,
            },
        )
        .expect("builtin dataset loads");
    let mut server = serve_tcp(Arc::clone(&engine), "127.0.0.1:0", 4).expect("bind");
    let addr = server.addr();
    let mut client = Client::connect(addr).expect("connect");
    let parse = |s: &str| -> Value { serde_json::from_str(s).expect("valid JSON") };

    // Cached sub: fixed weights, warmed below → result-LRU hit.
    let cached_sub = |i: usize| {
        format!(
            r#"{{"id": {i}, "op": "verify", "dataset": "dot2000", "weights": [1, 1, {}], "samples": 20000}}"#,
            1.0 + i as f64 * 1e-3
        )
    };
    // Tiny inline-class sub: the cone ROI forces the d = 3 verify onto
    // the Monte-Carlo kernel, and 100 samples on the 200-row dataset is
    // tens of microseconds of kernel — well under the inline threshold,
    // and small enough that the dispatch cost (RTTs, pool hops,
    // serializes) stays the dominant term. `salt` keeps weights unique
    // per leg/round/slot so every call is a result-cache miss (the
    // *sample batch* is keyed without weights and stays warm — the
    // realistic steady state).
    let tiny_sub = |i: usize, salt: usize| {
        format!(
            r#"{{"id": {i}, "op": "verify", "dataset": "dot200", "weights": [1, 1, {}], "roi": {{"around": [1, 1, 1], "theta": 0.5}}, "samples": 100, "seed": 99}}"#,
            1.0 + salt as f64 * 1e-5
        )
    };
    // Cold pool-class sub: no ROI → the exact d = 3 kernel over all
    // 2000 rows, well over the inline row bound; unique weights per
    // leg/round/slot keep every call a real kernel run.
    let cold_sub = |i: usize, salt: usize| {
        format!(
            r#"{{"id": {i}, "op": "verify", "dataset": "dot2000", "weights": [1, 1, {}]}}"#,
            1.0 + salt as f64 * 1e-5
        )
    };

    // Warms the cached subs and the tiny subs' shared sample batch.
    // Re-run before every shape that depends on warm entries: the cold
    // shape inserts 8 unique results per round, which churns the
    // 512-entry result LRU past the warm set on a full-length run.
    let warm = |client: &mut Client| {
        for i in 0..8 {
            client.call_ok(&parse(&cached_sub(i))).expect("warm verify");
        }
        client
            .call_ok(&parse(&tiny_sub(0, 999_999)))
            .expect("warm sample batch");
    };
    warm(&mut client);

    // Measures `shape_rounds` rounds of one 8-sub shape, sequential
    // then batch; `subs(round, slot, leg)` yields each sub-request
    // line. The cheap shapes run 10× the rounds of the kernel-bound
    // cold shape — their legs are microseconds per call, and the extra
    // rounds keep one scheduler hiccup from flipping the speedup.
    let measure_shape = |client: &mut Client,
                         name: &str,
                         shape_rounds: usize,
                         subs: &dyn Fn(usize, usize, usize) -> String|
     -> Value {
        eprintln!("batch_dispatch/{name}: {shape_rounds} rounds, sequential vs batch…");
        let t = Instant::now();
        for round in 0..shape_rounds {
            for slot in 0..8 {
                client
                    .call_ok(&parse(&subs(round, slot, 0)))
                    .expect("sequential sub");
            }
        }
        let sequential_secs = t.elapsed().as_secs_f64();

        let t = Instant::now();
        for round in 0..shape_rounds {
            let line = format!(
                r#"{{"op": "batch", "requests": [{}]}}"#,
                (0..8)
                    .map(|slot| subs(round, slot, 1))
                    .collect::<Vec<_>>()
                    .join(", ")
            );
            let result = client.call_ok(&parse(&line)).expect("batch op");
            let results = result
                .get("results")
                .and_then(Value::as_array)
                .expect("batch results");
            assert_eq!(results.len(), 8);
        }
        let batch_secs = t.elapsed().as_secs_f64();
        obj(vec![
            ("rounds", Value::Number(shape_rounds as f64)),
            ("sequential", rate(shape_rounds * 8, sequential_secs)),
            ("batch_op", rate(shape_rounds * 8, batch_secs)),
            ("batch_speedup", Value::Number(sequential_secs / batch_secs)),
        ])
    };

    // Salt stride of 10_000 per leg: wider than any shape's round
    // count, so a sequential-leg weight can never collide with (and
    // pre-cache) a batch-leg weight.
    let cold = measure_shape(&mut client, "cold", rounds, &|round, slot, leg| {
        cold_sub(slot, (leg * 10_000 + round) * 8 + slot + 1)
    });
    warm(&mut client);
    let cached = measure_shape(&mut client, "cached", rounds * 10, &|_, slot, _| {
        cached_sub(slot)
    });
    warm(&mut client);
    let mixed = measure_shape(
        &mut client,
        "mixed",
        rounds * 10,
        &|round, slot, leg| match slot {
            0..=2 => cached_sub(slot),
            3..=5 => tiny_sub(slot, 100_000 + (leg * 10_000 + round) * 8 + slot),
            _ => format!(r#"{{"id": {slot}, "op": "ping"}}"#),
        },
    );

    // The dispatch-cost attribution behind the speedups: phase
    // histograms plus the inline/coalescing counters, snapshotted after
    // the three shapes ran.
    let stats = client
        .call_ok(&parse(r#"{"op": "stats"}"#))
        .expect("stats op");
    let pool = stats.get("pool").cloned().unwrap_or(Value::Null);
    let dispatch_counters = obj(vec![
        (
            "inline_answered",
            pool.get("inline_answered").cloned().unwrap_or(Value::Null),
        ),
        (
            "writes_coalesced",
            pool.get("writes_coalesced").cloned().unwrap_or(Value::Null),
        ),
        (
            "pool_submitted",
            pool.get("submitted").cloned().unwrap_or(Value::Null),
        ),
    ]);
    let phases = stats.get("phases").cloned().unwrap_or(Value::Null);

    // Fairness probe: a greedy client "A" (two connections) and a
    // polite client "B" (one) hammer tagged `session.get_next` on the
    // same session. When both of A's requests bracket B in the queue,
    // FIFO would grant A twice in a row; the fair pick lets B overtake,
    // visible as `fair_grants`. (Two single-connection clients strictly
    // alternate on their own, so the fair path would never fire.)
    let open = client
        .call_ok(&parse(
            r#"{"op": "session.open", "dataset": "dot2000", "kind": "randomized", "scope": "top-k-set", "k": 5, "seed": 7, "budget": 1000000}"#,
        ))
        .expect("session opens");
    let session = open
        .get("session")
        .and_then(Value::as_u64)
        .expect("session id");
    let probe_rounds = if smoke { 20 } else { 200 };
    std::thread::scope(|s| {
        for tag in ["A", "A", "B"] {
            s.spawn(move || {
                let mut c = Client::connect(addr).expect("connect");
                // Small per-call budget override: the probe measures
                // queue contention, not enumeration depth — a full
                // 1M-sample draw per call would dominate the wait times
                // (and outlast the server's idle disconnect).
                let line = format!(
                    r#"{{"op": "session.get_next", "session": {session}, "client": "{tag}", "budget": 20000}}"#
                );
                let request: Value = serde_json::from_str(&line).expect("valid JSON");
                for _ in 0..probe_rounds {
                    c.call_ok(&request).expect("tagged get_next");
                }
            });
        }
    });
    // The probe can outlast the server's 60 s idle disconnect on the
    // (quiet) main connection; re-dial before reading the stats.
    client.reconnect().expect("reconnect");
    let stats = client
        .call_ok(&parse(r#"{"op": "stats"}"#))
        .expect("stats op");
    let queue = stats.get("session_queue").cloned().unwrap_or(Value::Null);
    let fairness = obj(vec![
        (
            "probe_rounds_per_connection",
            Value::Number(probe_rounds as f64),
        ),
        (
            "fair_grants",
            queue.get("fair_grants").cloned().unwrap_or(Value::Null),
        ),
        (
            "granted",
            queue.get("granted").cloned().unwrap_or(Value::Null),
        ),
        (
            "wait_p99_micros",
            queue.get("wait_p99_micros").cloned().unwrap_or(Value::Null),
        ),
    ]);
    server.shutdown();

    obj(vec![
        ("rounds", Value::Number(rounds as f64)),
        ("cold_batch", cold),
        ("cached_batch", cached),
        ("mixed_batch", mixed),
        ("dispatch_counters", dispatch_counters),
        ("phases", phases),
        ("fairness_probe", fairness),
    ])
}

/// Tracing-overhead benchmark: the full-scope DoT verify (Monte-Carlo
/// kernel over `samples` weight samples, forced by a wide cone ROI on
/// the d = 3 data) through an engine tracing every request
/// (`trace_sample: 1`) vs one with tracing compiled to its disabled
/// path (`trace_sample: 0`). Every call uses fresh weights (result-cache
/// misses), so each one runs the real kernel; the shared sample batch is
/// warmed first in both engines so per-call work is identical. Reports
/// the min-of-`trials` block time per mode and the overhead percentage —
/// the acceptance gate is ≤ 2%.
fn measure_tracing(samples: usize, rounds: usize, trials: usize) -> Value {
    let engine_for = |trace_sample: u64| {
        let engine = Engine::new(EngineConfig {
            trace_sample,
            ..EngineConfig::default()
        });
        engine
            .registry()
            .load(
                "dot2000",
                &DatasetSource::Builtin {
                    family: "dot".into(),
                    n: N_ITEMS,
                    d: 0,
                    seed: 1322,
                },
            )
            .expect("builtin dataset loads");
        engine
    };
    let call = |engine: &Engine, req: &str| {
        let response: Value = serde_json::from_str(&engine.handle_line(req)).unwrap();
        assert_eq!(
            response.get("ok").and_then(Value::as_bool),
            Some(true),
            "{req}: {response:?}"
        );
    };
    // Unique weights per call → result-cache miss → the kernel runs.
    // The ROI forces the d = 3 verify onto the Monte-Carlo kernel.
    let verify = |i: usize| {
        format!(
            r#"{{"op": "verify", "dataset": "dot2000", "weights": [1, 1, {}], "roi": {{"around": [1, 1, 1], "theta": 0.5}}, "samples": {samples}, "seed": 99}}"#,
            1.0 + i as f64 * 1e-4
        )
    };
    let run_block = |engine: &Engine, base: usize| -> f64 {
        let t = Instant::now();
        for i in 0..rounds {
            call(engine, &verify(base + i));
        }
        t.elapsed().as_secs_f64()
    };

    let off = engine_for(0);
    let on = engine_for(1);
    // Warm the shared sample batch (and code/caches) in both engines.
    call(&off, &verify(999_999));
    call(&on, &verify(999_999));

    let (mut best_off, mut best_on) = (f64::INFINITY, f64::INFINITY);
    for trial in 0..trials {
        eprintln!(
            "tracing trial {}/{trials}: {rounds} verifies × {samples} samples, off vs on…",
            trial + 1
        );
        // Interleave modes within each trial, alternating which goes
        // first, so frequency drift and scheduler preemption hit both
        // sides equally instead of always taxing the second block.
        if trial % 2 == 0 {
            best_off = best_off.min(run_block(&off, 1 + trial * rounds));
            best_on = best_on.min(run_block(&on, 1 + trial * rounds));
        } else {
            best_on = best_on.min(run_block(&on, 1 + trial * rounds));
            best_off = best_off.min(run_block(&off, 1 + trial * rounds));
        }
    }
    let overhead_percent = (best_on - best_off) / best_off * 100.0;
    obj(vec![
        ("samples", Value::Number(samples as f64)),
        ("rounds", Value::Number(rounds as f64)),
        ("trace_sample", Value::Number(1.0)),
        ("tracing_disabled", rate(rounds, best_off)),
        ("tracing_enabled", rate(rounds, best_on)),
        ("overhead_percent", Value::Number(overhead_percent)),
    ])
}

/// Observability overhead: the 100k-sample Monte-Carlo verify kernel
/// through an engine with the obs layer fully on (windowed ring
/// attached, per-client accounting charging a tagged client, kernel
/// CPU measured) vs fully off (`window_telemetry: false`,
/// `client_table_capacity: 0`). Same structure as [`measure_tracing`]:
/// interleaved min-of-N blocks so drift taxes both sides equally.
fn measure_obs(samples: usize, rounds: usize, trials: usize) -> Value {
    let engine_for = |on: bool| {
        let engine = Engine::new(EngineConfig {
            window_telemetry: on,
            client_table_capacity: if on { 64 } else { 0 },
            ..EngineConfig::default()
        });
        engine
            .registry()
            .load(
                "dot2000",
                &DatasetSource::Builtin {
                    family: "dot".into(),
                    n: N_ITEMS,
                    d: 0,
                    seed: 1322,
                },
            )
            .expect("builtin dataset loads");
        engine
    };
    let call = |engine: &Engine, req: &str| {
        let response: Value = serde_json::from_str(&engine.handle_line(req)).unwrap();
        assert_eq!(
            response.get("ok").and_then(Value::as_bool),
            Some(true),
            "{req}: {response:?}"
        );
    };
    // Unique weights per call → result-cache miss → the kernel runs;
    // the client tag exercises the accounting path on the on-side (the
    // off-side parses the same bytes, so the request cost is identical).
    let verify = |i: usize| {
        format!(
            r#"{{"op": "verify", "dataset": "dot2000", "weights": [1, 1, {}], "roi": {{"around": [1, 1, 1], "theta": 0.5}}, "samples": {samples}, "seed": 99, "client": "bench-tenant"}}"#,
            1.0 + i as f64 * 1e-4
        )
    };
    let run_block = |engine: &Engine, base: usize| -> f64 {
        let t = Instant::now();
        for i in 0..rounds {
            call(engine, &verify(base + i));
        }
        t.elapsed().as_secs_f64()
    };

    let off = engine_for(false);
    let on = engine_for(true);
    call(&off, &verify(999_999));
    call(&on, &verify(999_999));

    let (mut best_off, mut best_on) = (f64::INFINITY, f64::INFINITY);
    for trial in 0..trials {
        eprintln!(
            "obs trial {}/{trials}: {rounds} tagged verifies × {samples} samples, off vs on…",
            trial + 1
        );
        if trial % 2 == 0 {
            best_off = best_off.min(run_block(&off, 1 + trial * rounds));
            best_on = best_on.min(run_block(&on, 1 + trial * rounds));
        } else {
            best_on = best_on.min(run_block(&on, 1 + trial * rounds));
            best_off = best_off.min(run_block(&off, 1 + trial * rounds));
        }
    }
    let overhead_percent = (best_on - best_off) / best_off * 100.0;
    obj(vec![
        ("samples", Value::Number(samples as f64)),
        ("rounds", Value::Number(rounds as f64)),
        ("obs_disabled", rate(rounds, best_off)),
        ("obs_enabled", rate(rounds, best_on)),
        ("overhead_percent", Value::Number(overhead_percent)),
    ])
}

/// Warm-restart benchmark: time-to-first-cached-verify across a
/// snapshot/restore cycle, against the cold computation it avoids.
fn measure_persistence(samples: usize) -> Value {
    let dir = std::env::temp_dir().join(format!("srank-bench-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let with_dir = || {
        Engine::new(EngineConfig {
            data_dir: Some(dir.clone()),
            ..EngineConfig::default()
        })
    };
    let load = format!(
        r#"{{"op": "registry.load", "dataset": "dot2000", "builtin": "dot", "n": {N_ITEMS}, "d": 0, "seed": 1322}}"#
    );
    let verify = format!(
        r#"{{"op": "verify", "dataset": "dot2000", "weights": [1, 1, 1.5], "samples": {samples}}}"#
    );
    let call = |engine: &Engine, req: &str| -> Value {
        let response: Value = serde_json::from_str(&engine.handle_line(req)).unwrap();
        assert_eq!(
            response.get("ok").and_then(Value::as_bool),
            Some(true),
            "{req}: {response:?}"
        );
        response
    };

    eprintln!("persistence: cold verify + snapshot…");
    let cold_secs;
    {
        let engine = with_dir();
        call(&engine, &load);
        let t = Instant::now();
        call(&engine, &verify);
        cold_secs = t.elapsed().as_secs_f64();
        call(&engine, r#"{"op": "snapshot"}"#);
    }

    eprintln!("persistence: warm restart…");
    let t = Instant::now();
    let engine = with_dir(); // boot restore happens inside
    let restore_secs = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let response = call(&engine, &verify);
    let warm_secs = t.elapsed().as_secs_f64();
    assert_eq!(
        response.get("cached").and_then(Value::as_bool),
        Some(true),
        "first verify after restart must be a cache hit"
    );
    let _ = std::fs::remove_dir_all(&dir);

    obj(vec![
        ("samples", Value::Number(samples as f64)),
        ("cold_verify_seconds", Value::Number(cold_secs)),
        ("restore_boot_seconds", Value::Number(restore_secs)),
        ("warm_first_cached_verify_seconds", Value::Number(warm_secs)),
        (
            "time_to_first_cached_verify_seconds",
            Value::Number(restore_secs + warm_secs),
        ),
        (
            "warm_speedup_vs_cold",
            Value::Number(cold_secs / (restore_secs + warm_secs)),
        ),
    ])
}

/// Exact 3-D verify (`stability_verify_3d_exact`, the service's
/// `exact-girard-3d`) on DoT n = 400 full rankings: region construction
/// plus the spherical-polygon area, timed one call at a time over fresh
/// weight vectors. Reports ms per verify as a median with quartiles;
/// `check.sh --bench-smoke` gates the median.
fn measure_girard_3d(smoke: bool) -> Value {
    const N: usize = 400;
    let verifies = if smoke { 50 } else { 400 };
    let data = dot_dataset(N);
    let mut rng = StdRng::seed_from_u64(SEED);
    let mut ms: Vec<f64> = (0..verifies)
        .map(|_| {
            let w: Vec<f64> = (0..3).map(|_| 0.05 + 0.95 * rng.random::<f64>()).collect();
            let ranking = data.rank(&w).expect("positive weights rank");
            let start = Instant::now();
            let verified = stability_verify_3d_exact(&data, &ranking).expect("d = 3");
            let elapsed = start.elapsed().as_secs_f64() * 1e3;
            assert!(verified.is_some_and(|v| v.stability > 0.0));
            elapsed
        })
        .collect();
    ms.sort_by(f64::total_cmp);
    obj(vec![
        ("n", Value::Number(N as f64)),
        ("verifies", Value::Number(verifies as f64)),
        ("ms_per_verify_p25", Value::Number(percentile(&ms, 0.25))),
        ("ms_per_verify_median", Value::Number(percentile(&ms, 0.50))),
        ("ms_per_verify_p75", Value::Number(percentile(&ms, 0.75))),
    ])
}

/// Overload benchmark: open-loop latency of probe requests against a
/// deliberately swamped pool (2 workers, background threads keeping
/// dozens of cold Monte-Carlo verifies queued), with admission-control
/// shedding on vs off. Probes ride through the same pool (single-sub
/// batches) on a fixed arrival schedule; latency is measured from the
/// *scheduled* send time, so backlog-induced drift counts against the
/// tail instead of being coordinated-omitted away. The claim under
/// test: shedding fast-fails the backlog, keeping both the cold-probe
/// tail (fast typed `overloaded` instead of a long queue wait) and the
/// cache-hit tail (hits are always admitted) bounded.
fn measure_overload(smoke: bool) -> Value {
    use srank_service::guard::GuardConfig;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

    // Each buffered batch holds at most pool-width subs in flight, so
    // queue depth scales with *connections*: 4 background connections ×
    // a 2-wide window keep ~6 jobs queued against a threshold of 2.
    const BG_THREADS: usize = 4;
    const BG_SUBS: usize = 8;
    let (probes, interval_ms) = if smoke {
        (10usize, 20u64)
    } else {
        (40usize, 25u64)
    };

    let run_mode = |shedding: bool| -> Value {
        let engine = Arc::new(Engine::new(EngineConfig {
            pool_workers: 2,
            guard: GuardConfig {
                shed_pool_queue: if shedding { 2 } else { 0 },
                ..GuardConfig::default()
            },
            ..EngineConfig::default()
        }));
        engine
            .registry()
            .load(
                "dot2000",
                &DatasetSource::Builtin {
                    family: "dot".into(),
                    n: N_ITEMS,
                    d: 0,
                    seed: 1322,
                },
            )
            .expect("builtin dataset loads");
        let mut server =
            serve_tcp(Arc::clone(&engine), "127.0.0.1:0", BG_THREADS + 4).expect("bind");
        let addr = server.addr();
        let parse = |s: &str| -> Value { serde_json::from_str(s).expect("valid JSON") };

        // Warm the fixed-weight verify so warm probes are cache hits.
        let warm_sub =
            r#"{"op": "verify", "dataset": "dot2000", "weights": [1, 1, 1.5], "samples": 20000}"#
                .to_string();
        {
            let mut setup = Client::connect(addr).expect("connect");
            setup.call_ok(&parse(&warm_sub)).expect("warm verify");
        }

        // Uncontended baseline: the same warm single-sub batch probe with
        // no background load. The acceptance bar for shedding is the warm
        // RTT p99 under overload staying within 5× of this.
        let warm_line = format!(r#"{{"op": "batch", "requests": [{warm_sub}]}}"#);
        let mut uncontended: Vec<f64> = {
            let mut client = Client::connect(addr).expect("connect");
            (0..probes)
                .map(|_| {
                    let sent = Instant::now();
                    client.call_ok(&parse(&warm_line)).expect("baseline probe");
                    sent.elapsed().as_secs_f64() * 1_000.0
                })
                .collect()
        };
        uncontended.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let uncontended_p50 = percentile(&uncontended, 0.50);
        let uncontended_p99 = percentile(&uncontended, 0.99);

        let stop = AtomicBool::new(false);
        let bg_batches = AtomicUsize::new(0);
        let cold_seq = AtomicUsize::new(0);
        // Unique weights per draw → never a cache hit → real kernel work.
        let cold_sub = |i: usize| {
            format!(
                r#"{{"op": "verify", "dataset": "dot2000", "weights": [1, 1, {}], "samples": 20000}}"#,
                2.0 + i as f64 * 1e-4
            )
        };

        eprintln!(
            "overload (shedding {}): {probes} probes × {interval_ms} ms against a swamped 2-worker pool…",
            if shedding { "on" } else { "off" }
        );
        let (cold_lat, warm_lat, shed_count) = std::thread::scope(|scope| {
            for _ in 0..BG_THREADS {
                scope.spawn(|| {
                    let mut client = Client::connect(addr).expect("connect");
                    while !stop.load(Ordering::Relaxed) {
                        let base = cold_seq.fetch_add(BG_SUBS, Ordering::Relaxed);
                        let line = format!(
                            r#"{{"op": "batch", "requests": [{}]}}"#,
                            (base..base + BG_SUBS)
                                .map(&cold_sub)
                                .collect::<Vec<_>>()
                                .join(", ")
                        );
                        // Sub-requests may individually be shed; the
                        // batch op itself still answers ok.
                        let _ = client.call_ok(&parse(&line));
                        bg_batches.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }

            let probe_thread = scope.spawn(|| {
                let mut client = Client::connect(addr).expect("connect");
                // Let the background threads build a backlog first.
                std::thread::sleep(std::time::Duration::from_millis(200));
                let mut cold_lat = Vec::new();
                let mut warm_lat = Vec::new();
                let mut shed = 0usize;
                let interval = std::time::Duration::from_millis(interval_ms);
                let start = Instant::now();
                for i in 0..probes * 2 {
                    let scheduled = interval * i as u32;
                    if let Some(wait) = scheduled.checked_sub(start.elapsed()) {
                        std::thread::sleep(wait);
                    }
                    let cold = i % 2 == 0;
                    let sub = if cold {
                        cold_sub(1_000_000 + i)
                    } else {
                        warm_sub.clone()
                    };
                    let line = format!(r#"{{"op": "batch", "requests": [{sub}]}}"#);
                    let sent = Instant::now();
                    let result = client.call_ok(&parse(&line)).expect("probe batch");
                    // Open-loop latency: measured from the *scheduled*
                    // send, so when the server falls behind the arrival
                    // rate the drift lands in the tail (it diverges with
                    // run length once capacity is exceeded — that
                    // divergence is the shedding-off pathology). The RTT
                    // of the same probe is recorded alongside.
                    let latency = (start.elapsed() - scheduled).as_secs_f64() * 1_000.0;
                    let rtt = sent.elapsed().as_secs_f64() * 1_000.0;
                    let envelope = &result
                        .get("results")
                        .and_then(Value::as_array)
                        .expect("batch results")[0];
                    let code = envelope
                        .get("error")
                        .and_then(|e| e.get("code"))
                        .and_then(Value::as_str);
                    match code {
                        None | Some("overloaded") => {
                            if code.is_some() {
                                shed += 1;
                            }
                            if cold {
                                cold_lat.push((latency, rtt));
                            } else {
                                warm_lat.push((latency, rtt));
                            }
                        }
                        Some(other) => panic!("probe failed with {other}: {envelope:?}"),
                    }
                }
                (cold_lat, warm_lat, shed)
            });
            let out = probe_thread.join().expect("probe thread");
            stop.store(true, Ordering::Relaxed);
            out
        });
        server.shutdown();

        let stats: Value =
            serde_json::from_str(&engine.handle_line(r#"{"op": "stats"}"#)).expect("stats JSON");
        let shed_total = stats
            .get("result")
            .and_then(|r| r.get("guard"))
            .and_then(|g| g.get("shed_total"))
            .and_then(Value::as_u64)
            .unwrap_or(0);

        let class = |probes: &[(f64, f64)]| -> Value {
            let mut open: Vec<f64> = probes.iter().map(|p| p.0).collect();
            let mut rtt: Vec<f64> = probes.iter().map(|p| p.1).collect();
            open.sort_by(|a, b| a.partial_cmp(b).unwrap());
            rtt.sort_by(|a, b| a.partial_cmp(b).unwrap());
            obj(vec![
                ("open_loop_p50_ms", Value::Number(percentile(&open, 0.50))),
                ("open_loop_p99_ms", Value::Number(percentile(&open, 0.99))),
                ("rtt_p50_ms", Value::Number(percentile(&rtt, 0.50))),
                ("rtt_p99_ms", Value::Number(percentile(&rtt, 0.99))),
            ])
        };
        let mut warm_rtt: Vec<f64> = warm_lat.iter().map(|p| p.1).collect();
        warm_rtt.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let warm_rtt_p99 = percentile(&warm_rtt, 0.99);

        obj(vec![
            ("shedding", Value::Bool(shedding)),
            ("probes_per_class", Value::Number(probes as f64)),
            ("probe_interval_ms", Value::Number(interval_ms as f64)),
            ("probes_shed", Value::Number(shed_count as f64)),
            ("shed_total", Value::Number(shed_total as f64)),
            (
                "background_batches",
                Value::Number(bg_batches.load(Ordering::Relaxed) as f64),
            ),
            ("cold_probe", class(&cold_lat)),
            ("warm_probe", class(&warm_lat)),
            (
                "uncontended_warm",
                obj(vec![
                    ("rtt_p50_ms", Value::Number(uncontended_p50)),
                    ("rtt_p99_ms", Value::Number(uncontended_p99)),
                ]),
            ),
            (
                "warm_rtt_p99_vs_uncontended",
                Value::Number(if uncontended_p99 > 0.0 {
                    warm_rtt_p99 / uncontended_p99
                } else {
                    0.0
                }),
            ),
        ])
    };

    let off = run_mode(false);
    let on = run_mode(true);
    obj(vec![
        ("workload", Value::String(
            "2-worker pool, 4 background connections of 8-sub cold-verify batches, open-loop probes through the same pool".into(),
        )),
        ("shedding_off", off),
        ("shedding_on", on),
    ])
}

fn main() {
    let mut smoke = false;
    let mut out = "BENCH_10.json".to_string();
    let mut phase: Option<String> = None;
    let mut samples_override: Option<usize> = None;
    let mut threads = 1usize;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--smoke" => smoke = true,
            "--out" => out = args.next().expect("--out needs a path"),
            "--phase" => phase = Some(args.next().expect("--phase needs a name")),
            "--samples" => {
                samples_override = Some(
                    args.next()
                        .expect("--samples needs a count")
                        .parse()
                        .unwrap(),
                )
            }
            "--threads" => threads = args.next().expect("--threads").parse().unwrap(),
            other => panic!("bench_record: unknown option {other}"),
        }
    }
    let (samples, rounds, trials) = if smoke {
        (5_000, 5, 1)
    } else {
        (100_000, 50, 3)
    };
    if let Some(phase) = phase {
        run_phase(&phase, samples_override.unwrap_or(samples), threads);
        return;
    }

    let girard_3d = measure_girard_3d(smoke);
    let (sampler, speedup) = measure_sampler(samples, trials);
    let service = measure_service(rounds);
    let persistence = measure_persistence(if smoke { 2_000 } else { 20_000 });
    // 40 rounds ≈ 100 ms per timed block: long enough that scheduler
    // jitter stops dominating the on-vs-off delta we are after. The
    // blocks are cheap, so take more trials than the sampler phases —
    // min-of-N converges on the unpreempted time for both sides.
    let tracing = measure_tracing(
        samples,
        if smoke { 2 } else { 40 },
        if smoke { trials } else { 10 },
    );
    let overload = measure_overload(smoke);
    let batch_dispatch = measure_batch_dispatch(smoke);
    let obs_overhead = measure_obs(
        samples,
        if smoke { 2 } else { 40 },
        if smoke { trials } else { 10 },
    );
    let report = obj(vec![
        ("bench", Value::String("BENCH_10".into())),
        (
            "mode",
            Value::String(if smoke { "smoke" } else { "full" }.into()),
        ),
        ("sampler", sampler),
        ("service_batch", service),
        ("warm_restart", persistence),
        ("tracing_overhead", tracing),
        ("overload_shedding", overload),
        ("batch_dispatch", batch_dispatch),
        ("obs_overhead", obs_overhead),
        ("girard_3d", girard_3d),
    ]);
    let json = serde_json::to_string_pretty(&report).expect("serializable");
    std::fs::write(&out, format!("{json}\n")).expect("write report");
    println!("{json}");
    eprintln!("sampler speedup vs legacy: {speedup:.2}× → {out}");
}
