//! `producer-topk`: closed-loop `GET-NEXT` producers over TCP. Each
//! connection opens a randomized session on DoT n=2000 with a top-k model
//! (alternating ranked and set, k=10), calls `session.get_next` a fixed
//! number of times with a fixed budget, and closes it. Every answer is
//! checked after timing against the library's Algorithm 7 run on the same
//! session parameters.

use crate::kernel::{dot, dot_seed};
use crate::plan::{DOT_N, GETS_PER_SESSION, PRODUCER_BUDGET, TOPK_K};
use crate::probe::{factor, probe_ms, SLICE_S};
use crate::report::{Metric, Outcome};
use crate::sched::run_closed_loop;
use crate::server::{nproc, Server};
use crate::stats::{median, Latency};
use crate::{call, connect, mix, request};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde_json::Value;
use srank_core::{Dataset, RandomizedEnumerator, RankingScope};
use srank_sample::roi::RegionOfInterest;
use srank_service::Client;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

/// One producer session, fixed before timing starts.
#[derive(Clone, Copy, Debug)]
pub struct SessionPlan {
    pub scope: &'static str,
    pub seed: u64,
}

impl SessionPlan {
    fn scope(&self) -> RankingScope {
        match self.scope {
            "top-k-set" => RankingScope::TopKSet(TOPK_K),
            _ => RankingScope::TopKRanked(TOPK_K),
        }
    }
}

/// What one `session.get_next` answered, kept for the check after timing.
#[derive(Clone, Debug)]
pub struct Got {
    head: Vec<u64>,
    stability: f64,
    confidence_error: f64,
    samples_used: u64,
}

impl Got {
    fn parse(r: &Value) -> Option<Got> {
        let head = r.get("head")?.as_array()?;
        Some(Got {
            head: head.iter().map(Value::as_u64).collect::<Option<_>>()?,
            stability: r.get("stability")?.as_f64()?,
            confidence_error: r.get("confidence_error")?.as_f64()?,
            samples_used: r.get("samples_used")?.as_u64()?,
        })
    }

    /// Samples that fell on this ranking. `stability` is that count over
    /// `samples_used`, so the product is a whole number up to rounding.
    fn count(&self) -> f64 {
        (self.stability * self.samples_used as f64).round()
    }
}

/// Session `i` of the workload: scopes alternate, seeds come from the
/// workload seed.
pub fn session_plan(seed: u64, i: usize) -> SessionPlan {
    SessionPlan {
        scope: if i.is_multiple_of(2) {
            "top-k-ranked"
        } else {
            "top-k-set"
        },
        seed: mix(seed, 0x5E55_0000 + i as u64),
    }
}

/// What one phase of producers saw.
#[derive(Debug, Default)]
pub struct Tally {
    pub latencies_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Emitted stabilities above the previous one in the same session.
    /// Algorithm 7 estimates each stability from all samples drawn so
    /// far, so a later estimate may exceed an earlier one; see [`check`].
    pub rises: u64,
    pub elapsed: f64,
    /// Every session run, with its well-formed answers in order.
    pub sessions: Vec<(SessionPlan, Vec<Got>)>,
}

impl Tally {
    fn absorb(&mut self, other: Tally) {
        self.latencies_ms.extend(other.latencies_ms);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.rises += other.rises;
        self.sessions.extend(other.sessions);
    }

    fn check(&mut self, ok: bool) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
        ok
    }
}

/// The `registry.load` of the workload's DoT dataset.
pub fn dot_load() -> Value {
    request(&format!(
        "{{\"op\":\"registry.load\",\"dataset\":\"dot\",\"builtin\":\"dot\",\"n\":{DOT_N},\"seed\":{}}}",
        dot_seed()
    ))
}

/// Starts a server and loads the workload's dataset; returns the server
/// and its set-up time in seconds.
pub fn start(srank: &Path, seed: u64) -> Result<(Server, f64), String> {
    let server = Server::spawn(srank)?;
    let mut client = connect(&server.addr)?;
    call(&mut client, &dot_load())?;
    for i in 0..2 {
        let mut warm = Tally::default();
        run_session(&mut client, session_plan(seed ^ 0xA11, i), 1, &mut warm);
        if warm.failed > 0 {
            return Err("warm-up session failed".into());
        }
    }
    let setup = server.started.elapsed().as_secs_f64();
    Ok((server, setup))
}

/// Runs one session, recording each `session.get_next` round trip.
pub fn run_session(client: &mut Client, plan: SessionPlan, gets: usize, tally: &mut Tally) {
    let open = request(&format!(
        "{{\"op\":\"session.open\",\"dataset\":\"dot\",\"kind\":\"randomized\",\"scope\":\"{}\",\"k\":{TOPK_K},\"budget\":{PRODUCER_BUDGET},\"seed\":{}}}",
        plan.scope, plan.seed
    ));
    let opened = call(client, &open);
    let id = opened
        .as_ref()
        .ok()
        .and_then(|r| r.get("session"))
        .and_then(Value::as_u64);
    let Some(id) = tally.check(id.is_some()).then_some(id).flatten() else {
        return;
    };
    let next = request(&format!("{{\"op\":\"session.get_next\",\"session\":{id}}}"));
    let mut got: Vec<Got> = Vec::with_capacity(gets);
    for _ in 0..gets {
        let t = Instant::now();
        let answer = call(client, &next);
        tally.latencies_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let parsed = answer
            .ok()
            .filter(|r| r.get("done").and_then(Value::as_bool) == Some(false));
        let Some(g) = parsed.as_ref().and_then(Got::parse) else {
            tally.check(false);
            continue;
        };
        let fresh = g.head.len() == TOPK_K && !got.iter().any(|p| p.head == g.head);
        tally.rises += u64::from(got.last().is_some_and(|p| g.stability > p.stability));
        tally.check(fresh);
        got.push(g);
    }
    tally.sessions.push((plan, got));
    let close = request(&format!("{{\"op\":\"session.close\",\"session\":{id}}}"));
    let closed = call(client, &close);
    tally.check(closed.is_ok_and(|r| r.get("closed").and_then(Value::as_bool) == Some(true)));
}

/// The library's answers for one session: the service's session state is
/// a [`RandomizedEnumerator`] on the same dataset with `StdRng(seed)`, and
/// each `session.get_next` is one `get_next_budget` call.
fn replay(data: &Dataset, plan: SessionPlan, gets: usize) -> Vec<Got> {
    let roi = RegionOfInterest::full(data.dim());
    let mut e = RandomizedEnumerator::new(data, &roi, plan.scope(), 0.05)
        .expect("the workload's session parameters are valid");
    let mut rng = StdRng::seed_from_u64(plan.seed);
    (0..gets)
        .map_while(|_| e.get_next_budget(&mut rng, PRODUCER_BUDGET))
        .map(|d| Got {
            head: d.items.iter().take(TOPK_K).map(|&i| i as u64).collect(),
            stability: d.stability,
            confidence_error: d.confidence_error,
            samples_used: d.samples_used,
        })
        .collect()
}

/// Checks every recorded answer after timing, counting each wrong one
/// into `failed` (it was counted into `attempted` when it arrived):
///
/// - it equals the library's answer at the same position of the same
///   session, with bit-identical stability and confidence error;
/// - Algorithm 7 emits the most frequent ranking not yet returned, so a
///   ranking emitted later had at most the earlier one's count then, and
///   can since have gained only the samples drawn in between.
///
/// A raw stability rise is not a wrong answer: each estimate is over all
/// samples drawn so far, and a later one may exceed an earlier one
/// within their confidence errors. Rises are reported, not failed.
///
/// Sessions with the same plan repeat across phases; each distinct plan
/// is replayed once, on nproc threads.
pub fn check(tally: &mut Tally) {
    let mut plans: BTreeMap<(u64, &str), usize> = BTreeMap::new();
    for (plan, got) in &tally.sessions {
        let n = plans.entry((plan.seed, plan.scope)).or_default();
        *n = (*n).max(got.len());
    }
    let jobs: Vec<(SessionPlan, usize)> = plans
        .into_iter()
        .map(|((seed, scope), gets)| (SessionPlan { scope, seed }, gets))
        .collect();
    let data = dot(dot_seed(), DOT_N);
    let next = std::sync::atomic::AtomicUsize::new(0);
    let mut library: BTreeMap<(u64, &str), Vec<Got>> = BTreeMap::new();
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..nproc())
            .map(|_| {
                s.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        let Some(&(plan, gets)) = jobs.get(i) else {
                            return out;
                        };
                        out.push(((plan.seed, plan.scope), replay(&data, plan, gets)));
                    }
                })
            })
            .collect();
        for w in workers {
            library.extend(w.join().expect("replay thread"));
        }
    });
    for (plan, got) in &tally.sessions {
        let lib = &library[&(plan.seed, plan.scope)];
        for (i, g) in got.iter().enumerate() {
            let same = lib.get(i).is_some_and(|l| {
                l.head == g.head
                    && l.samples_used == g.samples_used
                    && l.stability.to_bits() == g.stability.to_bits()
                    && l.confidence_error.to_bits() == g.confidence_error.to_bits()
            });
            let ordered = i == 0 || {
                let p = &got[i - 1];
                g.count() - p.count() <= g.samples_used as f64 - p.samples_used as f64
            };
            if !(same && ordered) {
                tally.failed += 1;
            }
        }
    }
}

/// `conns` producers in a closed loop for `secs`; sessions are taken in
/// order from one shared counter, so every phase runs a prefix of the
/// same session list.
pub fn closed_loop(addr: &str, seed: u64, conns: usize, secs: f64) -> Result<Tally, String> {
    closed_loop_from(addr, seed, 0, conns, secs)
}

/// [`closed_loop`] starting at session `first` of the list.
fn closed_loop_from(
    addr: &str,
    seed: u64,
    first: usize,
    conns: usize,
    secs: f64,
) -> Result<Tally, String> {
    let states = (0..conns)
        .map(|_| connect(addr).map(|c| (c, Tally::default())))
        .collect::<Result<Vec<_>, _>>()?;
    let (states, elapsed) = run_closed_loop(states, secs, |(client, tally), i| {
        run_session(
            client,
            session_plan(seed, first + i),
            GETS_PER_SESSION,
            tally,
        );
        true
    });
    let mut total = Tally {
        elapsed,
        ..Tally::default()
    };
    for (_, t) in states {
        total.absorb(t);
    }
    Ok(total)
}

/// Runs the workload: three phases of nproc connections, each against a
/// fresh server and cut into slices of [`SLICE_S`] with a host probe
/// before each (see [`crate::probe`]). The slices of a run continue one
/// list of sessions; each phase starts the list again, and the check
/// replays every distinct session once.
pub fn run(srank: &Path, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let (mut setups, mut raw_setups, mut probes) = (Vec::new(), Vec::new(), Vec::new());
    let mut setup = |probes: &mut Vec<f64>| -> Result<Server, String> {
        let probe = probe_ms();
        probes.push(probe);
        let (server, secs) = start(srank, seed)?;
        raw_setups.push(secs);
        setups.push(secs * factor(probe));
        Ok(server)
    };
    // Set-up takes milliseconds: a few servers that only set up give its
    // median more samples.
    for _ in 0..5 {
        setup(&mut probes)?;
    }
    let mut many = Tally::default();
    let (mut latencies, mut hwm, mut cpu, mut raw_cpu) = (Vec::new(), 0u64, 0.0, 0.0);
    for _ in 0..3 {
        let server = setup(&mut probes)?;
        let end = Instant::now() + Duration::from_secs_f64(seconds * 0.3);
        let mut first = 0;
        while Instant::now() < end {
            let probe = probe_ms();
            probes.push(probe);
            let f = factor(probe);
            let cpu0 = server.cpu_s().ok_or("server CPU time unreadable")?;
            let t = closed_loop_from(&server.addr, seed, first, nproc(), SLICE_S)?;
            let used = server.cpu_s().ok_or("server CPU time unreadable")? - cpu0;
            cpu += used * f;
            raw_cpu += used;
            first += t.sessions.len();
            latencies.extend(t.latencies_ms.iter().map(|l| l * f));
            many.elapsed += t.elapsed;
            many.absorb(t);
        }
        hwm = hwm.max(server.hwm_kib().unwrap_or(0));
    }
    check(&mut many);
    let hwm = hwm as f64 / 1024.0;
    let lat = Latency::of(&latencies);
    let raw = Latency::of(&many.latencies_ms);
    let n = many.latencies_ms.len();
    let mut out = Outcome {
        attempted: many.attempted,
        failed: many.failed,
        ..Outcome::default()
    };
    out.push(Metric::new("setup_s", median(&setups), "s", setups.len()));
    out.push(Metric::new(
        "cpu_us_per_op",
        Some(cpu * 1e6 / n as f64),
        "us",
        n,
    ));
    out.push(Metric::new("p50_ms", lat.p50, "ms", n));
    out.push(Metric::new("p99_ms", lat.p99, "ms", n));
    out.push(Metric::new(
        "peak_rss_mib",
        (hwm > 0.0).then_some(hwm),
        "MiB",
        1,
    ));
    out.push_info(Metric::new(
        "ops_per_s",
        Some(n as f64 / many.elapsed),
        "1/s",
        n,
    ));
    out.push_info(Metric::new("probe_ms", median(&probes), "ms", probes.len()));
    out.push_info(Metric::new(
        "raw_setup_s",
        median(&raw_setups),
        "s",
        raw_setups.len(),
    ));
    out.push_info(Metric::new(
        "raw_cpu_us_per_op",
        Some(raw_cpu * 1e6 / n as f64),
        "us",
        n,
    ));
    out.push_info(Metric::new("raw_p50_ms", raw.p50, "ms", n));
    out.push_info(Metric::new("raw_p99_ms", raw.p99, "ms", n));
    out.push_info(Metric::new(
        "stability_rises",
        Some(many.rises as f64),
        "count",
        n,
    ));
    out.note(format!(
        "nproc {}; budget {PRODUCER_BUDGET}; {GETS_PER_SESSION} get_next per session; every answer checked against the library's replay; stability rises are reported, not failed",
        nproc()
    ));
    Ok(out)
}
