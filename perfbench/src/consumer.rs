//! `consumer-verify`: the interactive consumer path. A fixed mix of
//! `verify` requests — Zipf repeats of published rankings (result-cache
//! hits), fresh Monte-Carlo, exact-2d and Girard weight vectors (cold),
//! 8-verify `batch` requests, and a rare `registry.load` reload — runs in
//! a closed loop at 1 and at nproc connections (capacity), then in an
//! open loop at a fixed rate. Every answer is compared with the library's
//! answer for the same inputs.

use crate::plan::{DATASET_SEED, OPEN_LOOP_RATE, PUBLISHED};
use crate::probe::{factor, probe_ms, SLICE_S};
use crate::report::{Metric, Outcome};
use crate::sched::{run_closed_loop, run_open_loop, Schedule};
use crate::server::{nproc, Server};
use crate::stats::{median, percentile, Latency};
use crate::{call, connect, mix, request};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde_json::Value;
use srank_core::{
    ranking_region_md, stability_verify_2d, stability_verify_3d_exact, AngleInterval, Dataset,
};
use srank_sample::roi::RegionOfInterest;
use srank_sample::store::SampleBuffer;
use srank_service::{Client, DatasetRegistry, DatasetSource};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Monte-Carlo samples per verify (one cached batch per dataset).
pub const MC_SAMPLES: usize = 20_000;
/// Requests generated per run; no phase sends more.
const REQUESTS: usize = 60_000;
/// One request in this many is a `registry.load` reload: a tenth of the
/// 1% beyond p99, so the reload alone never sets p99.
const RELOAD_EVERY: usize = 1000;
/// Sub-requests per `batch`.
pub const BATCH: usize = 8;

/// A dataset of the mix: registry name, builtin family, rows, dimension.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub name: &'static str,
    pub family: &'static str,
    pub n: usize,
    pub d: usize,
}

pub const BLUENILE: Spec = Spec {
    name: "bluenile",
    family: "bluenile",
    n: 1000,
    d: 5,
};
pub const FIFA: Spec = Spec {
    name: "fifa",
    family: "fifa",
    n: 500,
    d: 4,
};
pub const CSMETRICS: Spec = Spec {
    name: "cs",
    family: "csmetrics",
    n: 1000,
    d: 2,
};
pub const DOT400: Spec = Spec {
    name: "dot400",
    family: "dot",
    n: 400,
    d: 3,
};
/// The small dataset the rare reload re-registers.
pub const SMALL: Spec = Spec {
    name: "small",
    family: "csmetrics",
    n: 100,
    d: 2,
};
pub const SPECS: [Spec; 5] = [BLUENILE, FIFA, CSMETRICS, DOT400, SMALL];

/// The seed of a dataset of the mix (see [`DATASET_SEED`]).
fn data_seed(spec: &Spec) -> u64 {
    mix(
        DATASET_SEED,
        spec.name.bytes().fold(0xDA7A, |h: u64, b| {
            h.wrapping_mul(31).wrapping_add(u64::from(b))
        }),
    )
}

fn mc_seed(seed: u64) -> u64 {
    mix(seed, 0x5A3D)
}

pub fn load_request(spec: &Spec) -> Value {
    request(&format!(
        "{{\"op\":\"registry.load\",\"dataset\":\"{}\",\"builtin\":\"{}\",\"n\":{},\"d\":{},\"seed\":{}}}",
        spec.name,
        spec.family,
        spec.n,
        spec.d,
        data_seed(spec)
    ))
}

/// One verify: a dataset and a weight vector.
#[derive(Clone, Debug)]
pub struct Verify {
    pub spec: usize,
    pub weights: Vec<f64>,
}

impl Verify {
    pub fn json(&self, seed: u64, id: Option<usize>) -> String {
        let w: Vec<String> = self.weights.iter().map(|x| x.to_string()).collect();
        let id = id.map_or(String::new(), |i| format!("\"id\":{i},"));
        format!(
            "{{{id}\"op\":\"verify\",\"dataset\":\"{}\",\"weights\":[{}],\"samples\":{MC_SAMPLES},\"seed\":{}}}",
            SPECS[self.spec].name,
            w.join(","),
            mc_seed(seed)
        )
    }
}

/// What a slot of the mix holds.
#[derive(Clone, Copy, Debug)]
enum Kind {
    Published,
    Fresh(usize),
    Batch,
}

/// One block of 100 requests. The shares follow two rules rather than a
/// measured traffic mix, which this service does not have:
/// - hits (Zipf repeats of the published rankings) are 90%, so p50 is a
///   hit with 40 points to spare;
/// - the five other kinds of request — fresh Monte-Carlo on Blue Nile,
///   fresh Monte-Carlo on FIFA, exact-2d on CSMetrics, Girard on DoT n=400
///   and 8-verify batches — get equal shares, as none is weighted above
///   another, and each gets 2%, twice the 1% beyond p99. The slowest kind
///   alone then holds that 1%, so p99 lies inside the slowest cold kinds'
///   latencies, not on the edge between two kinds, where it would jump.
const BLOCK: &[(Kind, usize)] = &[
    (Kind::Published, 90),
    (Kind::Fresh(0), 2),
    (Kind::Fresh(1), 2),
    (Kind::Fresh(2), 2),
    (Kind::Fresh(3), 2),
    (Kind::Batch, 2),
];

/// Fisher–Yates shuffle.
fn shuffle<T>(rng: &mut StdRng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        let j = (rng.random::<u64>() % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

/// Top-level requests sent, by index, each with its answer.
pub type Sent = Vec<(usize, Result<Value, String>)>;

/// A top-level request of the mix.
#[derive(Clone, Debug)]
pub enum Req {
    Verify(usize),
    Batch(Vec<usize>),
    Reload,
}

/// The whole mix, generated from the seed before any timing starts.
pub struct Mix {
    pub seed: u64,
    /// Verifies `0..PUBLISHED` are the published rankings.
    pub verifies: Vec<Verify>,
    pub requests: Vec<Req>,
    pub wire: Vec<Value>,
}

fn weights(rng: &mut StdRng, d: usize) -> Vec<f64> {
    (0..d).map(|_| 0.05 + 0.95 * rng.random::<f64>()).collect()
}

impl Mix {
    pub fn new(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(mix(seed, 0x3317));
        // Published rankings: spread evenly over the datasets.
        let mut verifies: Vec<Verify> = (0..PUBLISHED)
            .map(|i| {
                let spec = i % SPECS.len();
                Verify {
                    spec,
                    weights: weights(&mut rng, SPECS[spec].d),
                }
            })
            .collect();
        // Zipf's law in its plain form (exponent 1) over the published
        // rankings.
        let harmonic: Vec<f64> = (1..=PUBLISHED)
            .scan(0.0, |acc, r| {
                *acc += 1.0 / r as f64;
                Some(*acc)
            })
            .collect();
        let zipf = |rng: &mut StdRng| -> usize {
            let x = rng.random::<f64>() * harmonic[PUBLISHED - 1];
            harmonic.partition_point(|&h| h < x).min(PUBLISHED - 1)
        };
        let fresh = |rng: &mut StdRng, verifies: &mut Vec<Verify>, spec: usize| -> usize {
            verifies.push(Verify {
                spec,
                weights: weights(rng, SPECS[spec].d),
            });
            verifies.len() - 1
        };
        // The mix is stratified: every block of 100 requests holds exactly
        // the shares below, in an order shuffled by the seed, so any prefix a
        // phase sends carries the same work whatever the seed.
        let mut block: Vec<Kind> = Vec::with_capacity(100);
        for (kind, n) in BLOCK {
            block.extend(std::iter::repeat_n(*kind, *n));
        }
        let mut requests = Vec::with_capacity(REQUESTS);
        while requests.len() < REQUESTS {
            shuffle(&mut rng, &mut block);
            for kind in &block {
                let req = match kind {
                    _ if requests.len() % RELOAD_EVERY == RELOAD_EVERY - 1 => Req::Reload,
                    Kind::Published => Req::Verify(zipf(&mut rng)),
                    Kind::Fresh(spec) => Req::Verify(fresh(&mut rng, &mut verifies, *spec)),
                    Kind::Batch => {
                        // Half published subs, which run inline, and half
                        // fresh Monte-Carlo subs, which go to the pool.
                        let mut subs: Vec<usize> = (0..BATCH)
                            .map(|j| match j % 4 {
                                0 | 1 => zipf(&mut rng),
                                spec => fresh(&mut rng, &mut verifies, spec - 2),
                            })
                            .collect();
                        shuffle(&mut rng, &mut subs);
                        Req::Batch(subs)
                    }
                };
                requests.push(req);
            }
        }
        requests.truncate(REQUESTS);
        let wire = requests
            .iter()
            .map(|r| match r {
                Req::Verify(v) => request(&verifies[*v].json(seed, None)),
                Req::Batch(subs) => {
                    let subs: Vec<String> = subs
                        .iter()
                        .enumerate()
                        .map(|(j, v)| verifies[*v].json(seed, Some(j)))
                        .collect();
                    request(&format!(
                        "{{\"op\":\"batch\",\"requests\":[{}]}}",
                        subs.join(",")
                    ))
                }
                Req::Reload => load_request(&SMALL),
            })
            .collect();
        Self {
            seed,
            verifies,
            requests,
            wire,
        }
    }
}

/// The library's answer to a verify.
#[derive(Clone, Debug, PartialEq)]
pub struct Answer {
    pub method: &'static str,
    pub stability: f64,
    pub head: Vec<u64>,
}

/// The library side of the comparison: the same datasets the server
/// loads and the same Monte-Carlo sample batches it draws.
pub struct Library {
    pub data: Vec<Arc<Dataset>>,
    pub batches: Vec<Option<SampleBuffer>>,
}

impl Library {
    pub fn new(seed: u64) -> Result<Self, String> {
        let registry = DatasetRegistry::new();
        let mut data = Vec::new();
        let mut batches = Vec::new();
        for spec in &SPECS {
            let source = DatasetSource::Builtin {
                family: spec.family.to_string(),
                n: spec.n,
                d: spec.d,
                seed: data_seed(spec),
            };
            let entry = registry
                .load(spec.name, &source)
                .map_err(|e| e.to_string())?;
            batches.push((spec.d > 3).then(|| {
                let mut rng = StdRng::seed_from_u64(mc_seed(seed));
                RegionOfInterest::full(spec.d)
                    .sampler()
                    .sample_buffer(&mut rng, MC_SAMPLES)
            }));
            data.push(Arc::clone(&entry.dataset));
        }
        Ok(Self { data, batches })
    }

    pub fn answer(&self, v: &Verify) -> Result<Answer, String> {
        let data = &*self.data[v.spec];
        let ranking = data.rank(&v.weights).map_err(|e| e.to_string())?;
        let err = |e: srank_core::StableRankError| e.to_string();
        let (method, stability) = match data.dim() {
            2 => (
                "exact-2d",
                stability_verify_2d(data, &ranking, AngleInterval::full())
                    .map_err(err)?
                    .map_or(0.0, |x| x.stability),
            ),
            3 => (
                "exact-girard-3d",
                stability_verify_3d_exact(data, &ranking)
                    .map_err(err)?
                    .map_or(0.0, |x| x.stability),
            ),
            _ => {
                let batch = self.batches[v.spec]
                    .as_ref()
                    .expect("MC datasets have a batch");
                let inside = match ranking_region_md(data, &ranking).map_err(err)? {
                    Some(region) => {
                        srank_sample::oracle::count_inside(&region, batch, 0, batch.len())
                    }
                    None => 0,
                };
                ("monte-carlo", inside as f64 / batch.len() as f64)
            }
        };
        Ok(Answer {
            method,
            stability,
            head: ranking
                .order()
                .iter()
                .take(10)
                .map(|&i| u64::from(i))
                .collect(),
        })
    }
}

/// Library answers, computed once per verify actually sent.
pub struct Answers {
    pub lib: Library,
    memo: Vec<Option<Answer>>,
}

impl Answers {
    pub fn new(seed: u64, verifies: usize) -> Result<Self, String> {
        Ok(Self {
            lib: Library::new(seed)?,
            memo: vec![None; verifies],
        })
    }

    /// Computes the answers of `needed` not yet known, on nproc threads.
    pub fn fill(&mut self, mix: &Mix, needed: &[usize]) -> Result<(), String> {
        let mut todo: Vec<usize> = needed
            .iter()
            .copied()
            .filter(|&v| self.memo[v].is_none())
            .collect();
        todo.sort_unstable();
        todo.dedup();
        let chunk = todo.len().div_ceil(nproc()).max(1);
        let lib = &self.lib;
        let solved: Vec<Result<Vec<(usize, Answer)>, String>> = std::thread::scope(|s| {
            let handles: Vec<_> = todo
                .chunks(chunk)
                .map(|part| {
                    s.spawn(move || {
                        part.iter()
                            .map(|&v| lib.answer(&mix.verifies[v]).map(|a| (v, a)))
                            .collect()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("answer thread panicked"))
                .collect()
        });
        for part in solved {
            for (v, a) in part? {
                self.memo[v] = Some(a);
            }
        }
        Ok(())
    }

    pub fn matches(&self, v: usize, result: &Value) -> bool {
        let Some(want) = &self.memo[v] else {
            return false;
        };
        let head: Vec<u64> = result
            .get("head")
            .and_then(Value::as_array)
            .map(|h| h.iter().filter_map(Value::as_u64).collect())
            .unwrap_or_default();
        result.get("method").and_then(Value::as_str) == Some(want.method)
            && result.get("stability").and_then(Value::as_f64) == Some(want.stability)
            && head == want.head
    }

    /// Whether the answer to top-level request `i` is right: every
    /// stability bit-identical to the library's, methods and heads equal.
    pub fn check(&self, mix: &Mix, i: usize, answer: &Result<Value, String>) -> bool {
        let Ok(result) = answer else {
            return false;
        };
        match &mix.requests[i] {
            Req::Verify(v) => self.matches(*v, result),
            Req::Reload => result.get("rows").and_then(Value::as_u64) == Some(SMALL.n as u64),
            Req::Batch(subs) => {
                let Some(envs) = result.get("results").and_then(Value::as_array) else {
                    return false;
                };
                envs.len() == subs.len()
                    && envs.iter().enumerate().all(|(j, env)| {
                        env.get("id").and_then(Value::as_u64) == Some(j as u64)
                            && env.get("ok").and_then(Value::as_bool) == Some(true)
                            && env.get("result").is_some_and(|r| self.matches(subs[j], r))
                    })
            }
        }
    }

    /// Marks every answer of a phase right or wrong.
    pub fn grade(
        &mut self,
        mix: &Mix,
        sent: &[(usize, Result<Value, String>)],
    ) -> Result<(u64, u64), String> {
        let mut needed = Vec::new();
        for (i, _) in sent {
            match &mix.requests[*i] {
                Req::Verify(v) => needed.push(*v),
                Req::Batch(subs) => needed.extend(subs),
                Req::Reload => {}
            }
        }
        self.fill(mix, &needed)?;
        let wrong = sent.iter().filter(|(i, a)| !self.check(mix, *i, a)).count();
        Ok((sent.len() as u64, wrong as u64))
    }
}

/// Starts a server, loads the datasets, draws the sample batches and
/// verifies every published ranking once; returns the server and its
/// set-up time in seconds.
pub fn start(srank: &Path, mix: &Mix) -> Result<(Server, f64), String> {
    let server = Server::spawn(srank)?;
    let mut client = connect(&server.addr)?;
    for spec in &SPECS {
        call(&mut client, &load_request(spec))?;
    }
    for v in &mix.verifies[..PUBLISHED] {
        call(&mut client, &request(&v.json(mix.seed, None)))?;
    }
    let setup = server.started.elapsed().as_secs_f64();
    Ok((server, setup))
}

/// Sends request `i` and keeps the answer.
fn send(client: &mut Client, mix: &Mix, i: usize) -> Result<Value, String> {
    call(client, &mix.wire[i])
}

/// What a closed loop saw: the answers, each request's round trip in
/// milliseconds, and the seconds the phase took.
pub struct ClosedLoop {
    pub sent: Sent,
    pub latencies_ms: Vec<f64>,
    pub secs: f64,
}

/// `conns` connections in a closed loop for `secs`, taking requests in
/// order from one shared counter, from request `first` on.
pub fn closed_loop(
    addr: &str,
    mix: &Mix,
    first: usize,
    conns: usize,
    secs: f64,
) -> Result<ClosedLoop, String> {
    let states = (0..conns)
        .map(|_| connect(addr).map(|c| (c, Vec::new(), Vec::new())))
        .collect::<Result<Vec<_>, _>>()?;
    let (states, secs) = run_closed_loop(states, secs, |(client, sent, latencies), i| {
        let i = first + i;
        if i >= mix.requests.len() {
            return false;
        }
        let t = Instant::now();
        sent.push((i, send(client, mix, i)));
        latencies.push(t.elapsed().as_secs_f64() * 1e3);
        true
    });
    let mut out = ClosedLoop {
        sent: Vec::new(),
        latencies_ms: Vec::new(),
        secs,
    };
    for (_, sent, latencies) in states {
        out.sent.extend(sent);
        out.latencies_ms.extend(latencies);
    }
    Ok(out)
}

/// What the open loop saw.
pub struct OpenLoop {
    pub sent: Sent,
    pub latencies_ms: Vec<f64>,
    pub lateness_ms: Vec<f64>,
}

/// The open loop: one generator thread releases requests at `rate`, and
/// nproc connections send them; latency counts from each due time.
pub fn open_loop(addr: &str, mix: &Mix, rate: f64, secs: f64) -> Result<OpenLoop, String> {
    let schedule = Schedule {
        rate,
        duration: Duration::from_secs_f64(secs),
    };
    if schedule.count() > mix.requests.len() {
        return Err("the open loop would outrun the generated requests".into());
    }
    let states = (0..nproc())
        .map(|_| connect(addr).map(|c| (c, Vec::new())))
        .collect::<Result<Vec<_>, _>>()?;
    let (latencies, lateness, states) = run_open_loop(schedule, states, |(client, sent), r| {
        sent.push((r.index, send(client, mix, r.index)));
    });
    Ok(OpenLoop {
        sent: states.into_iter().flat_map(|(_, s)| s).collect(),
        latencies_ms: latencies.iter().map(|&(_, l)| l * 1e3).collect(),
        lateness_ms: lateness.iter().map(|l| l * 1e3).collect(),
    })
}

pub fn run(srank: &Path, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let mix = Mix::new(seed);
    let mut answers = Answers::new(seed, mix.verifies.len())?;
    let (mut setups, mut raw_setups) = (Vec::new(), Vec::new());
    let mut out = Outcome::default();
    let mut grade =
        |out: &mut Outcome, sent: &[(usize, Result<Value, String>)]| -> Result<(), String> {
            let (attempted, wrong) = answers.grade(&mix, sent)?;
            out.attempted += attempted;
            out.failed += wrong;
            Ok(())
        };

    // Each phase against a fresh server; the three phases run twice so
    // that a slow stretch of the host falls on all of them. The gated
    // figures come from the nproc closed loop, where both cores stay busy.
    // The 1-connection and the open loop wait on idle cores waking, which a
    // shared host slows by up to half from one run to the next, so their
    // figures are printed only.
    let (mut one, mut many) = (Vec::new(), Vec::new());
    let (mut one_secs, mut many_secs) = (0.0, 0.0);
    let (mut open_lat, mut lateness, mut hwm, mut cpu) = (Vec::new(), Vec::new(), 0u64, 0.0);
    let (mut raw_many, mut probes, mut raw_cpu) = (Vec::new(), Vec::new(), 0.0);
    let mut probed_start = |probes: &mut Vec<f64>| -> Result<Server, String> {
        let probe = probe_ms();
        probes.push(probe);
        let (server, setup) = start(srank, &mix)?;
        raw_setups.push(setup);
        setups.push(setup * factor(probe));
        Ok(server)
    };
    for _ in 0..2 {
        let server = probed_start(&mut probes)?;
        let phase = closed_loop(&server.addr, &mix, 0, 1, seconds * 0.06)?;
        drop(server);
        grade(&mut out, &phase.sent)?;
        one.extend(phase.latencies_ms);
        one_secs += phase.secs;

        let server = probed_start(&mut probes)?;
        let end = Instant::now() + Duration::from_secs_f64(seconds * 0.25);
        let mut first = 0;
        while Instant::now() < end {
            let probe = probe_ms();
            probes.push(probe);
            let f = factor(probe);
            let cpu0 = server.cpu_s().ok_or("server CPU time unreadable")?;
            let phase = closed_loop(&server.addr, &mix, first, nproc(), SLICE_S)?;
            let used = server.cpu_s().ok_or("server CPU time unreadable")? - cpu0;
            cpu += used * f;
            raw_cpu += used;
            first += phase.sent.len();
            grade(&mut out, &phase.sent)?;
            many.extend(phase.latencies_ms.iter().map(|l| l * f));
            raw_many.extend(phase.latencies_ms);
            many_secs += phase.secs;
        }
        hwm = hwm.max(server.hwm_kib().unwrap_or(0));
        drop(server);

        let server = probed_start(&mut probes)?;
        let open = open_loop(&server.addr, &mix, OPEN_LOOP_RATE, seconds * 0.07)?;
        drop(server);
        grade(&mut out, &open.sent)?;
        open_lat.extend(open.latencies_ms);
        lateness.extend(open.lateness_ms);
    }
    let hwm = hwm as f64 / 1024.0;

    let lat = Latency::of(&many);
    out.push(Metric::new("setup_s", median(&setups), "s", setups.len()));
    out.push(Metric::new(
        "cpu_us_per_op",
        Some(cpu * 1e6 / many.len() as f64),
        "us",
        many.len(),
    ));
    out.push(Metric::new("p50_ms", lat.p50, "ms", lat.count));
    out.push(Metric::new("p99_ms", lat.p99, "ms", lat.count));
    out.push(Metric::new(
        "peak_rss_mib",
        (hwm > 0.0).then_some(hwm),
        "MiB",
        1,
    ));
    out.push_info(Metric::new(
        "ops_per_s",
        Some(many.len() as f64 / many_secs),
        "1/s",
        many.len(),
    ));
    let raw = Latency::of(&raw_many);
    out.push_info(Metric::new("probe_ms", median(&probes), "ms", probes.len()));
    out.push_info(Metric::new(
        "raw_setup_s",
        median(&raw_setups),
        "s",
        raw_setups.len(),
    ));
    out.push_info(Metric::new(
        "raw_cpu_us_per_op",
        Some(raw_cpu * 1e6 / many.len() as f64),
        "us",
        many.len(),
    ));
    out.push_info(Metric::new("raw_p50_ms", raw.p50, "ms", raw.count));
    out.push_info(Metric::new("raw_p99_ms", raw.p99, "ms", raw.count));
    let single = Latency::of(&one);
    out.push_info(Metric::new(
        "ops_per_s_1conn",
        Some(one.len() as f64 / one_secs),
        "1/s",
        one.len(),
    ));
    out.push_info(Metric::new("p50_ms_1conn", single.p50, "ms", single.count));
    out.push_info(Metric::new("p99_ms_1conn", single.p99, "ms", single.count));
    let open = Latency::of(&open_lat);
    out.push_info(Metric::new("open_p50_ms", open.p50, "ms", open.count));
    out.push_info(Metric::new("open_p99_ms", open.p99, "ms", open.count));
    out.push_info(Metric::new(
        "gen_late_p99_ms",
        percentile(&lateness, 0.99),
        "ms",
        lateness.len(),
    ));
    out.note(format!(
        "nproc {}; open loop at {OPEN_LOOP_RATE} requests/s, its latencies timed from due time",
        nproc()
    ));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_is_a_function_of_the_seed() {
        let (a, b, c) = (Mix::new(5), Mix::new(5), Mix::new(6));
        assert_eq!(a.wire, b.wire);
        assert_ne!(a.wire, c.wire);
        assert_eq!(a.requests.len(), REQUESTS);
    }

    #[test]
    fn every_block_carries_the_same_work() {
        let m = Mix::new(9);
        for block in m.requests.chunks(100).take(50) {
            let girard = block
                .iter()
                .filter(
                    |r| matches!(r, Req::Verify(v) if *v >= PUBLISHED && m.verifies[*v].spec == 3),
                )
                .count();
            let batches = block.iter().filter(|r| matches!(r, Req::Batch(_))).count();
            let reloads = block.iter().filter(|r| matches!(r, Req::Reload)).count();
            // A reload takes the place of whatever its slot held.
            assert!(
                (1..=2).contains(&girard) && (1..=2).contains(&batches),
                "{girard} {batches}"
            );
            assert!(reloads <= 1);
        }
        let reloads = m
            .requests
            .iter()
            .filter(|r| matches!(r, Req::Reload))
            .count();
        assert_eq!(reloads, REQUESTS / RELOAD_EVERY);
    }

    #[test]
    fn library_answers_carry_method_and_head() {
        let m = Mix::new(3);
        let lib = Library::new(3).unwrap();
        for (v, method) in [
            (0, "monte-carlo"),
            (1, "monte-carlo"),
            (2, "exact-2d"),
            (3, "exact-girard-3d"),
            (4, "exact-2d"),
        ] {
            let a = lib.answer(&m.verifies[v]).unwrap();
            assert_eq!(a.method, method);
            assert_eq!(a.head.len(), 10);
            assert!((0.0..=1.0).contains(&a.stability));
            assert_eq!(a, lib.answer(&m.verifies[v]).unwrap());
        }
    }
}
