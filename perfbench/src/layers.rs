//! The traced run: per-layer numbers. The benchmark records a span
//! around each call into a layer's public function (see [`crate::trace`]),
//! keeps the spans in memory and writes them to
//! `.perfbench/trace-<workload>-<seed>.jsonl` when the run ends. Engine
//! calls in-process use the settings `srank serve` ships with (tracing on
//! at 1 in 1); counters come from `stats` before and after a short burst
//! against the shipped server. Latencies are never read from the
//! service's own histograms.

use crate::consumer::{self, Answers, Library, Mix, BLUENILE, CSMETRICS, DOT400, FIFA, SPECS};
use crate::kernel::{dot, dot_seed, reranks};
use crate::plan::{self, DOT_N, KERNEL_ROUND, OPEN_LOOP_RATE, PRODUCER_BUDGET, PUBLISHED, TOPK_K};
use crate::report::{Metric, Outcome};
use crate::server::{nproc, vm_kib, Phase};
use crate::stats::{median, percentile};
use crate::trace::Recorder;
use crate::{call, connect, mix, producer, request};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde_json::Value;
use srank_core::intern::KeyInterner;
use srank_core::{
    ranking_region_md, stability_verify_2d, stability_verify_3d_exact, AngleInterval, Dataset,
    RandomizedEnumerator, RankingScope,
};
use srank_sample::oracle::count_inside;
use srank_sample::roi::RegionOfInterest;
use srank_service::{Engine, EngineConfig};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Samples in each traced kernel loop.
const TRACED_SAMPLES: usize = 2000;
/// Pairs of plain and traced kernel loops, interleaved.
const TRACED_REPS: u64 = 10;

/// Collects per-layer metrics; units come from the plan.
struct Layers {
    out: Outcome,
}

impl Layers {
    fn put(&mut self, name: &str, value: Option<f64>, count: usize) {
        let unit = plan::LAYERS
            .iter()
            .find(|l| l.name == name)
            .map_or("count", |l| l.unit);
        self.out.push(Metric::new(name, value, unit, count));
    }

    fn check(&mut self, ok: bool) {
        self.out.attempted += 1;
        if !ok {
            self.out.failed += 1;
        }
    }
}

fn secs_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Median of the spans called `name`, in microseconds.
fn span_us(by_name: &BTreeMap<&'static str, Vec<f64>>, name: &str) -> (Option<f64>, usize) {
    by_name
        .get(name)
        .map_or((None, 0), |v| (median(v), v.len()))
}

/// Difference of two medians (`None` if either is missing).
fn diff(a: Option<f64>, b: Option<f64>) -> Option<f64> {
    Some(a? - b?)
}

/// Relative change of `on` over `off`, in percent.
fn pct(on: Option<f64>, off: Option<f64>) -> Option<f64> {
    let (on, off) = (on?, off?);
    (off > 0.0).then(|| (on - off) / off * 100.0)
}

/// One round of samples split across `threads` per-thread tables, as
/// `sample_n_parallel` splits it.
fn thread_tables(data: &Dataset, seed: u64, threads: usize) -> Vec<KeyInterner> {
    let sampler = RegionOfInterest::full(3).sampler();
    let (mut w, mut scores, mut keys, mut spare, mut idx) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut rng = StdRng::seed_from_u64(mix(seed, 0x7B00));
    (0..threads)
        .map(|_| {
            let mut local = KeyInterner::new(DOT_N, 3);
            for _ in 0..KERNEL_ROUND / threads {
                sampler.sample_into(&mut rng, &mut w);
                data.rank_into_keyed(&w, &mut scores, &mut keys, &mut spare, &mut idx);
                local.observe(&idx, &w);
            }
            local
        })
        .collect()
}

/// Merges per-thread tables as `sample_n_parallel` merges them.
fn merge_into(merged: &mut KeyInterner, locals: &[KeyInterner]) {
    for local in locals {
        for (_, key, count, exemplar) in local.iter() {
            merged.add(key, count, exemplar);
        }
    }
}

/// Body of the `kernel-arena` process: builds the per-thread tables of a
/// round, prints `ready`, then merges them and prints how much the
/// resident set grew while the merged table was built.
pub fn arena_child(seed: u64) -> Result<(), String> {
    let data = dot(dot_seed(), DOT_N);
    let locals = thread_tables(&data, seed, nproc());
    println!("ready");
    let rss = || vm_kib("self", "VmRSS").ok_or("no VmRSS in /proc/self/status");
    let before = rss()?;
    let mut merged = KeyInterner::new(DOT_N, 3);
    merge_into(&mut merged, &locals);
    let after = rss()?;
    println!(
        "{{\"arena_kib\":{},\"distinct\":{}}}",
        after.saturating_sub(before),
        black_box(&merged).len()
    );
    Ok(())
}

fn kernel(rec: &mut Recorder, l: &mut Layers, seed: u64) -> Result<(), String> {
    let data = dot(dot_seed(), DOT_N);
    let roi = RegionOfInterest::full(3);
    let sampler = roi.sampler();
    let (mut w, mut scores, mut keys, mut spare, mut idx, mut top) = (
        Vec::new(),
        Vec::new(),
        Vec::new(),
        Vec::new(),
        Vec::new(),
        Vec::new(),
    );

    // The per-sample loop of Algorithm 7, one span per layer call, next to
    // the same loop without spans: both do the same work, so the
    // difference is what tracing costs. The two alternate which runs first.
    let (mut traced, mut plain) = (Vec::new(), Vec::new());
    let (mut topk_hits, mut topk_seen) = (0usize, 0usize);
    for rep in 0..TRACED_REPS {
        for with_spans in [rep % 2 == 1, rep % 2 == 0] {
            let mut rng = StdRng::seed_from_u64(mix(seed, 0x7A00 + rep));
            let mut full = KeyInterner::new(DOT_N, 3);
            // Interning the top-k key is the producer's lookup-heavy case;
            // it runs outside the spans.
            let mut topk = KeyInterner::new(TOPK_K, 3);
            let t = Instant::now();
            if with_spans {
                for i in 0..TRACED_SAMPLES as u64 {
                    let root = rec.begin("kernel.sample", None, i);
                    rec.span("roi.sample_into", Some(root), i, || {
                        sampler.sample_into(&mut rng, &mut w)
                    });
                    rec.span("dataset.scores_into", Some(root), i, || {
                        data.scores_into(&w, &mut scores)
                    });
                    rec.span("dataset.rank_into_keyed", Some(root), i, || {
                        data.rank_into_keyed(&w, &mut scores, &mut keys, &mut spare, &mut idx)
                    });
                    rec.span("intern.observe", Some(root), i, || full.observe(&idx, &w));
                    rec.span("dataset.top_k_into_keyed", Some(root), i, || {
                        data.top_k_into_keyed(&w, TOPK_K, &mut scores, &mut keys, &mut top)
                    });
                    rec.end(root);
                    topk.observe(&top, &w);
                }
                traced.push(secs_since(t));
                // Every observation that added no entry was a hit.
                topk_seen += TRACED_SAMPLES;
                topk_hits += TRACED_SAMPLES - topk.len();
            } else {
                for _ in 0..TRACED_SAMPLES {
                    sampler.sample_into(&mut rng, &mut w);
                    data.scores_into(&w, &mut scores);
                    data.rank_into_keyed(&w, &mut scores, &mut keys, &mut spare, &mut idx);
                    full.observe(&idx, &w);
                    data.top_k_into_keyed(&w, TOPK_K, &mut scores, &mut keys, &mut top);
                    topk.observe(&top, &w);
                }
                plain.push(secs_since(t));
            }
            black_box((&full, &topk));
        }
    }
    // Each rep's pair ran back to back, so its ratio is free of the
    // host's slower drifts.
    let pairs: Vec<f64> = traced
        .iter()
        .zip(&plain)
        .filter_map(|(&t, &p)| pct(Some(t), Some(p)))
        .collect();
    let by_name = rec.self_micros_by_name();
    let (sample, n) = span_us(&by_name, "roi.sample_into");
    l.put("kernel.sample_us", sample, n);
    let (score, n) = span_us(&by_name, "dataset.scores_into");
    l.put("kernel.score_us", score, n);
    let (rank, n) = span_us(&by_name, "dataset.rank_into_keyed");
    l.put("kernel.rank_us", diff(rank, score), n);
    let (topk_us, n) = span_us(&by_name, "dataset.top_k_into_keyed");
    l.put("kernel.topk_us", topk_us, n);
    let (intern, n) = span_us(&by_name, "intern.observe");
    l.put("kernel.intern_us", intern, n);
    l.put(
        "kernel.intern_hit_ratio",
        Some(topk_hits as f64 / topk_seen.max(1) as f64),
        topk_seen,
    );

    // Interning and merge at full size. The merged table's memory is
    // measured in a fresh process, where no earlier phase has left freed
    // memory for it to reuse.
    let threads = nproc();
    let locals = thread_tables(&data, seed, threads);
    let mut merged = KeyInterner::new(DOT_N, 3);
    let merge = rec.begin("intern.merge", None, 0);
    merge_into(&mut merged, &locals);
    rec.end(merge);
    drop(locals);
    let merge_ms = rec.spans()[merge].nanos() as f64 / 1e6;
    l.put("kernel.merge_ms", Some(merge_ms), 1);
    let distinct = merged.len();
    l.put("kernel.distinct", Some(distinct as f64), 1);
    let counted: u64 = merged.iter().map(|(_, _, c, _)| c).sum();
    l.check(counted == (KERNEL_ROUND / threads * threads) as u64);
    drop(merged);
    let mut child = Phase::spawn(&["kernel-arena".to_string(), seed.to_string()])?;
    child.ready()?;
    let v = child.finish()?;
    let field = |k: &str| v.get(k).and_then(Value::as_u64);
    l.check(field("distinct") == Some(distinct as u64));
    l.put(
        "kernel.arena_mib",
        field("arena_kib").map(|kib| kib as f64 / 1024.0),
        1,
    );

    // Thread scaling of the whole operator, and emission after sampling.
    let (mut one, mut many) = (Vec::new(), Vec::new());
    let mut emit = Vec::new();
    for rep in 0..3u64 {
        for (t, out) in [(1, &mut one), (threads, &mut many)] {
            let mut e = RandomizedEnumerator::new(&data, &roi, RankingScope::Full, 0.05)
                .expect("full scope over DoT is valid");
            let span = rec.begin("randomized.sample_n_parallel", None, rep);
            e.sample_n_parallel(mix(seed, 0x7C00 + rep), KERNEL_ROUND / 2, t);
            rec.end(span);
            out.push(rec.spans()[span].nanos() as f64);
            if t == threads && rep == 0 {
                let mut rng = StdRng::seed_from_u64(mix(seed, 0x7D00));
                for i in 0..200 {
                    let span = rec.begin("randomized.get_next_budget", None, i);
                    let d = e.get_next_budget(&mut rng, 0);
                    rec.end(span);
                    emit.push(rec.spans()[span].nanos() as f64 / 1e3);
                    l.check(d.is_some_and(|d| reranks(&data, &d)));
                }
            }
        }
    }
    let eff = match (median(&one), median(&many)) {
        (Some(a), Some(b)) if b > 0.0 => Some(a / (b * threads as f64)),
        _ => None,
    };
    l.put("kernel.scaling_efficiency", eff, one.len() + many.len());
    l.put("kernel.emit_us", median(&emit), emit.len());
    l.put("bench.trace_overhead_pct", median(&pairs), pairs.len());
    Ok(())
}

fn verify(rec: &mut Recorder, l: &mut Layers, lib: &Library, seed: u64) {
    let mut rng = StdRng::seed_from_u64(mix(seed, 0x7E00));
    let idx = |spec: &consumer::Spec| {
        SPECS
            .iter()
            .position(|s| s.name == spec.name)
            .expect("known spec")
    };
    let mut weights =
        |d: usize| -> Vec<f64> { (0..d).map(|_| 0.05 + 0.95 * rng.random::<f64>()).collect() };
    for i in 0..60u64 {
        for spec in [BLUENILE, FIFA] {
            let k = idx(&spec);
            let data = &*lib.data[k];
            let batch = lib.batches[k].as_ref().expect("MC datasets have a batch");
            let ranking = data.rank(&weights(spec.d)).expect("valid weights");
            let region = rec.span("svmd.ranking_region_md", None, i, || {
                ranking_region_md(data, &ranking)
            });
            if let Ok(Some(region)) = region {
                rec.span("oracle.count_inside", None, i, || {
                    black_box(count_inside(&region, batch, 0, batch.len()))
                });
            }
        }
        if i < 30 {
            let data = &*lib.data[idx(&DOT400)];
            let ranking = data.rank(&weights(3)).expect("valid weights");
            rec.span("svmd.stability_verify_3d_exact", None, i, || {
                black_box(stability_verify_3d_exact(data, &ranking).is_ok())
            });
        }
        let data = &*lib.data[idx(&CSMETRICS)];
        let ranking = data.rank(&weights(2)).expect("valid weights");
        rec.span("sv2d.stability_verify_2d", None, i, || {
            black_box(stability_verify_2d(data, &ranking, AngleInterval::full()).is_ok())
        });
    }
    let by_name = rec.self_micros_by_name();
    let (region, n) = span_us(&by_name, "svmd.ranking_region_md");
    l.put("verify.region_us", region, n);
    let (oracle, n) = span_us(&by_name, "oracle.count_inside");
    l.put("verify.oracle_us", oracle, n);
    let (girard, n) = span_us(&by_name, "svmd.stability_verify_3d_exact");
    l.put("verify.girard_ms", girard.map(|us| us / 1e3), n);
    let (exact2d, n) = span_us(&by_name, "sv2d.stability_verify_2d");
    l.put("verify.exact2d_us", exact2d, n);
}

/// An engine with the settings `srank serve` ships with, changed by `f`.
fn engine(f: impl FnOnce(&mut EngineConfig)) -> Engine {
    let mut config = EngineConfig {
        trace_sample: 1,
        ..EngineConfig::default()
    };
    f(&mut config);
    Engine::new(config)
}

/// Times `n` calls of `req` on `engine`, one span each.
fn timed(
    rec: &mut Recorder,
    name: &'static str,
    engine: &Engine,
    req: &Value,
    n: usize,
) -> Vec<f64> {
    (0..n)
        .map(|i| {
            let span = rec.begin(name, None, i as u64);
            black_box(engine.handle(req));
            rec.end(span);
            rec.spans()[span].nanos() as f64 / 1e3
        })
        .collect()
}

fn ok(v: &Value) -> bool {
    v.get("ok").and_then(Value::as_bool) == Some(true)
}

fn engine_layers(
    rec: &mut Recorder,
    l: &mut Layers,
    mix_: &Mix,
    answers: &mut Answers,
    rounds: usize,
) -> Result<Option<f64>, String> {
    let seed = mix_.seed;
    let base = engine(|_| {});
    let variants = [
        ("ab.trace_pct", engine(|c| c.trace_sample = 0)),
        ("ab.window_pct", engine(|c| c.window_telemetry = false)),
        ("ab.accounting_pct", engine(|c| c.client_table_capacity = 0)),
    ];
    let published: Vec<Value> = mix_.verifies[..PUBLISHED]
        .iter()
        .map(|v| request(&v.json(seed, None)))
        .collect();
    for e in std::iter::once(&base).chain(variants.iter().map(|(_, e)| e)) {
        for spec in &SPECS {
            l.check(ok(&e.handle(&consumer::load_request(spec))));
        }
        for p in &published[..8] {
            l.check(ok(&e.handle(p)));
        }
    }
    answers.fill(mix_, &(0..8).collect::<Vec<_>>())?;
    let hit = &published[0];
    // A/B of each optional layer on the hit path, interleaved in rounds.
    let mut on = Vec::new();
    let mut off: Vec<Vec<f64>> = vec![Vec::new(); variants.len()];
    for _ in 0..rounds {
        on.extend(timed(rec, "engine.handle", &base, hit, 100));
        for (k, (_, e)) in variants.iter().enumerate() {
            off[k].extend(timed(rec, "engine.handle.variant", e, hit, 100));
        }
    }
    let hit_us = median(&on);
    l.put("engine.hit_us", hit_us, on.len());
    for (k, (name, _)) in variants.iter().enumerate() {
        l.put(name, pct(hit_us, median(&off[k])), off[k].len());
    }
    drop(variants);
    let response = base.handle(hit);
    l.check(
        response
            .get("result")
            .is_some_and(|r| answers.matches(0, r)),
    );

    // The line path: parse + handle + serialize.
    let line = serde_json::to_string(hit).expect("request serializes");
    let (mut lines, mut sers) = (Vec::new(), Vec::new());
    for i in 0..2000u64 {
        let span = rec.begin("engine.handle_line", None, i);
        black_box(base.handle_line(&line));
        rec.end(span);
        lines.push(rec.spans()[span].nanos() as f64 / 1e3);
        let span = rec.begin("serialize", None, i);
        black_box(serde_json::to_string(&response).expect("response serializes"));
        rec.end(span);
        sers.push(rec.spans()[span].nanos() as f64 / 1e3);
    }
    let ser = median(&sers);
    l.put("engine.serialize_us", ser, sers.len());
    l.put(
        "engine.parse_us",
        diff(diff(median(&lines), hit_us), ser),
        lines.len(),
    );

    // A batch of 8 hits against 8 sequential hits.
    let subs: Vec<String> = (0..8)
        .map(|j| mix_.verifies[j].json(seed, Some(j)))
        .collect();
    let batch = request(&format!(
        "{{\"op\":\"batch\",\"requests\":[{}]}}",
        subs.join(",")
    ));
    let batched = timed(rec, "engine.handle.batch", &base, &batch, 300);
    let mut sequential = Vec::new();
    for i in 0..300u64 {
        let span = rec.begin("engine.handle.sequential8", None, i);
        for p in &published[..8] {
            black_box(base.handle(p));
        }
        rec.end(span);
        sequential.push(rec.spans()[span].nanos() as f64 / 1e3);
    }
    l.put(
        "pool.batch_us",
        diff(median(&batched), median(&sequential)),
        batched.len(),
    );

    // Sessions: open, and get_next against the library call with the
    // same budget on the same sample stream (answers must agree exactly).
    let data = dot(dot_seed(), DOT_N);
    l.check(ok(&base.handle(&producer::dot_load())));
    let (mut opens, mut engine_gets, mut lib_gets) = (Vec::new(), Vec::new(), Vec::new());
    let roi = RegionOfInterest::full(3);
    for s in 0..40u64 {
        let session_seed = mix(seed, 0x5E00 + s);
        let open = request(&format!(
            "{{\"op\":\"session.open\",\"dataset\":\"dot\",\"kind\":\"randomized\",\"scope\":\"top-k-ranked\",\"k\":{TOPK_K},\"budget\":{PRODUCER_BUDGET},\"seed\":{session_seed}}}"
        ));
        let span = rec.begin("engine.handle.session_open", None, s);
        let opened = base.handle(&open);
        rec.end(span);
        opens.push(rec.spans()[span].nanos() as f64 / 1e3);
        let id = opened
            .get("result")
            .and_then(|r| r.get("session"))
            .and_then(Value::as_u64);
        l.check(id.is_some());
        let Some(id) = id else { continue };
        if s < 5 {
            let next = request(&format!("{{\"op\":\"session.get_next\",\"session\":{id}}}"));
            let mut e =
                RandomizedEnumerator::new(&data, &roi, RankingScope::TopKRanked(TOPK_K), 0.05)
                    .expect("top-k scope over DoT is valid");
            let mut rng = StdRng::seed_from_u64(session_seed);
            for g in 0..10u64 {
                let span = rec.begin("engine.handle.get_next", None, g);
                let served = base.handle(&next);
                rec.end(span);
                engine_gets.push(rec.spans()[span].nanos() as f64 / 1e3);
                let span = rec.begin("randomized.get_next_budget", None, g);
                let local = e.get_next_budget(&mut rng, PRODUCER_BUDGET);
                rec.end(span);
                lib_gets.push(rec.spans()[span].nanos() as f64 / 1e3);
                let stability = served
                    .get("result")
                    .and_then(|r| r.get("stability"))
                    .and_then(Value::as_f64);
                l.check(local.is_some_and(|d| Some(d.stability) == stability));
            }
        }
        let close = request(&format!("{{\"op\":\"session.close\",\"session\":{id}}}"));
        l.check(ok(&base.handle(&close)));
    }
    l.put("session.open_us", median(&opens), opens.len());
    l.put(
        "session.get_next_overhead_us",
        diff(median(&engine_gets), median(&lib_gets)),
        engine_gets.len(),
    );
    let ping = request("{\"op\":\"ping\"}");
    Ok(median(&timed(
        rec,
        "engine.handle.ping",
        &base,
        &ping,
        1000,
    )))
}

fn num(v: &Value, path: &[&str]) -> f64 {
    path.iter()
        .try_fold(v, |v, k| v.get(k))
        .and_then(Value::as_f64)
        .unwrap_or(0.0)
}

/// `stats` over a connection of its own.
fn stats_now(addr: &str) -> Result<Value, String> {
    call(&mut connect(addr)?, &request("{\"op\":\"stats\"}"))
}

fn tcp_layers(
    rec: &mut Recorder,
    l: &mut Layers,
    srank: &Path,
    mix_: &Mix,
    answers: &mut Answers,
    ping_local_us: Option<f64>,
    burst_secs: f64,
) -> Result<(), String> {
    let (server, _) = consumer::start(srank, mix_)?;
    let mut client = connect(&server.addr)?;
    let ping = request("{\"op\":\"ping\"}");
    let mut rtts = Vec::new();
    for i in 0..1000u64 {
        let span = rec.begin("client.call.ping", None, i);
        let answer = client.call(&ping);
        rec.end(span);
        rtts.push(rec.spans()[span].nanos() as f64 / 1e3);
        l.check(answer.is_ok());
    }
    l.put(
        "transport.rtt_us",
        diff(median(&rtts), ping_local_us),
        rtts.len(),
    );
    // The server has nproc connection workers and the load uses all of
    // them, so no connection outlives its phase.
    drop(client);

    let before = stats_now(&server.addr)?;
    let burst = rec.begin("open_loop", None, 0);
    let open = consumer::open_loop(&server.addr, mix_, OPEN_LOOP_RATE, burst_secs)?;
    rec.end(burst);
    let after = stats_now(&server.addr)?;
    let (attempted, wrong) = answers.grade(mix_, &open.sent)?;
    l.out.attempted += attempted;
    l.out.failed += wrong;
    let delta = |path: &[&str]| num(&after, path) - num(&before, path);
    let ratio = |hits: f64, misses: f64| (hits + misses > 0.0).then(|| hits / (hits + misses));
    let (rh, rm) = (
        delta(&["result_cache", "hits"]),
        delta(&["result_cache", "misses"]),
    );
    l.put("cache.result_hit_ratio", ratio(rh, rm), (rh + rm) as usize);
    let (sh, sm) = (
        delta(&["sample_cache", "hits"]),
        delta(&["sample_cache", "misses"]),
    );
    l.put("cache.sample_hit_ratio", ratio(sh, sm), (sh + sm) as usize);
    let (inline, pooled) = (
        delta(&["pool", "inline_answered"]),
        delta(&["pool", "submitted"]),
    );
    l.put(
        "pool.inline_share",
        ratio(inline, pooled),
        (inline + pooled) as usize,
    );
    l.put(
        "gen.late_p99_ms",
        percentile(&open.lateness_ms, 0.99),
        open.lateness_ms.len(),
    );

    // A short producer burst for the session queue and stability rises.
    let mut client = connect(&server.addr)?;
    call(&mut client, &producer::dot_load())?;
    drop(client);
    let before = stats_now(&server.addr)?;
    let mut producers = producer::closed_loop(&server.addr, mix_.seed, nproc(), 1.5)?;
    let after = stats_now(&server.addr)?;
    producer::check(&mut producers);
    l.out.attempted += producers.attempted;
    l.out.failed += producers.failed;
    let delta = |path: &[&str]| num(&after, path) - num(&before, path);
    l.put(
        "session.queue_waits",
        Some(delta(&["session_queue", "queued_total"])),
        producers.latencies_ms.len(),
    );
    l.put(
        "session.stability_rises",
        Some(producers.rises as f64),
        producers.latencies_ms.len(),
    );
    l.put("guard.shed", Some(num(&after, &["guard", "shed_total"])), 1);
    l.put(
        "guard.deadline_exceeded",
        Some(num(&after, &["guard", "deadline_expired_total"])),
        1,
    );
    drop(server);
    Ok(())
}

/// The traced run. Every layer is measured whatever the workload; the
/// workload names the trace file.
pub fn run(srank: &Path, workload: &str, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let mut rec = Recorder::new();
    let mut l = Layers {
        out: Outcome::default(),
    };
    kernel(&mut rec, &mut l, seed)?;
    let mix_ = Mix::new(seed);
    let mut answers = Answers::new(seed, mix_.verifies.len())?;
    verify(&mut rec, &mut l, &answers.lib, seed);
    // A/B rounds grow with the run, so a longer run narrows the A/B.
    let rounds = (seconds as usize).max(10);
    let ping_local = engine_layers(&mut rec, &mut l, &mix_, &mut answers, rounds)?;
    // At least 1000 releases, so the generator's p99 lateness is supported.
    let burst = (seconds * 0.2).max(1000.0 / OPEN_LOOP_RATE + 0.5);
    tcp_layers(
        &mut rec,
        &mut l,
        srank,
        &mix_,
        &mut answers,
        ping_local,
        burst,
    )?;

    let order = |m: &Metric| plan::LAYERS.iter().position(|x| x.name == m.name);
    l.out.metrics.sort_by_key(order);
    std::fs::create_dir_all(".perfbench").map_err(|e| format!(".perfbench: {e}"))?;
    let path = format!(".perfbench/trace-{workload}-{seed}.jsonl");
    let mut file =
        std::io::BufWriter::new(std::fs::File::create(&path).map_err(|e| format!("{path}: {e}"))?);
    rec.write_jsonl(&mut file)
        .map_err(|e| format!("{path}: {e}"))?;
    std::io::Write::flush(&mut file).map_err(|e| format!("{path}: {e}"))?;
    l.out.note(format!(
        "{} spans written to {path}; nproc {}",
        rec.spans().len(),
        nproc()
    ));
    Ok(l.out)
}
