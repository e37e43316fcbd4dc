//! `mc-kernel`: Algorithm 7 in-process on DoT n=2000, d=3, full-ranking
//! scope. Each thread-count phase runs in a fresh process so allocator
//! state never carries over from one phase to the next.

use crate::plan::{DATASET_SEED, DOT_N, EMITS_PER_ROUND, KERNEL_ROUND};
use crate::probe::{factor, probe_ms};
use crate::report::{Metric, Outcome};
use crate::server::{cpu_s, nproc, vm_kib, Phase};
use crate::stats::{median, Latency};
use crate::{mix, num_list};
use rand::rngs::StdRng;
use rand::SeedableRng;
use srank_core::{Dataset, DiscoveredRanking, RandomizedEnumerator, RankingScope};
use srank_sample::roi::RegionOfInterest;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The DoT simulator at `n` items, built exactly as the service's
/// `registry.load` builds its `dot` builtin.
pub fn dot(seed: u64, n: usize) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    Dataset::from_rows(&srank_data::dot(&mut rng, n).normalized()).expect("DoT rows are valid")
}

/// The seed of the DoT dataset (see [`DATASET_SEED`]).
pub fn dot_seed() -> u64 {
    mix(DATASET_SEED, 0xD07)
}

/// An emitted ranking is sound when its exemplar weights re-rank the
/// dataset to exactly its items.
pub fn reranks(data: &Dataset, d: &DiscoveredRanking) -> bool {
    data.rank(&d.exemplar_weights)
        .is_ok_and(|r| r.order() == d.items.as_slice())
}

/// Body of a round process: one `sample_n_parallel` round of
/// [`KERNEL_ROUND`] samples at 1 thread (`1t`) or at nproc threads
/// (`nt`, followed by [`EMITS_PER_ROUND`] emissions), in a process of its
/// own so every round starts from the same allocator state.
pub fn child(phase: &str, seed: u64, round: u64) -> Result<(), String> {
    let threads = match phase {
        "1t" => 1,
        "nt" => nproc(),
        _ => return Err(format!("unknown kernel phase {phase}")),
    };
    let data = dot(dot_seed(), DOT_N);
    let roi = RegionOfInterest::full(3);
    let new = || RandomizedEnumerator::new(&data, &roi, RankingScope::Full, 0.05);
    let mut warm = new().map_err(|e| e.to_string())?;
    warm.sample_n_parallel(mix(seed, 0x3A3), 200, threads);
    drop(warm);
    println!("ready");

    let (mut attempted, mut failed) = (1u64, 0u64);
    let mut e = new().map_err(|e| e.to_string())?;
    let cpu0 = cpu_s("self").ok_or("own CPU time unreadable")?;
    let t = Instant::now();
    e.sample_n_parallel(mix(seed, 0x1000 + round), KERNEL_ROUND, threads);
    let secs = t.elapsed().as_secs_f64();
    let cpu = cpu_s("self").ok_or("own CPU time unreadable")? - cpu0;
    let counted: u64 = e.observed().map(|(_, c, _)| c).sum();
    if counted != KERNEL_ROUND as u64 || e.total_samples() != KERNEL_ROUND as u64 {
        failed += 1;
    }
    let mut emits = Vec::new();
    if phase == "nt" {
        let mut rng = StdRng::seed_from_u64(mix(seed, 0x2000 + round));
        for _ in 0..EMITS_PER_ROUND {
            let t = Instant::now();
            let d = black_box(e.get_next_budget(&mut rng, 0));
            emits.push(t.elapsed().as_secs_f64() * 1e3);
            attempted += 1;
            if !d.is_some_and(|d| reranks(&data, &d)) {
                failed += 1;
            }
        }
    }
    let hwm = vm_kib("self", "VmHWM").unwrap_or(0);
    println!(
        "{{\"secs\":{secs},\"cpu\":{cpu},\"emits\":{},\"attempted\":{attempted},\"failed\":{failed},\"hwm_kib\":{hwm}}}",
        num_list(&emits)
    );
    Ok(())
}

fn floats(v: &serde_json::Value, key: &str) -> Vec<f64> {
    v.get(key)
        .and_then(|a| a.as_array())
        .map(|a| a.iter().filter_map(|x| x.as_f64()).collect())
        .unwrap_or_default()
}

fn count(v: &serde_json::Value, key: &str) -> u64 {
    v.get(key).and_then(|x| x.as_u64()).unwrap_or(0)
}

/// Runs the workload: 1-thread and nproc-thread rounds alternate, each
/// in a fresh process, until the time is spent. A host probe before each
/// pair of rounds scales that pair's times (see [`crate::probe`]).
pub fn run(seed: u64, seconds: f64) -> Result<Outcome, String> {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds * 0.9);
    let (mut setups, mut raw_setups) = (Vec::new(), Vec::new());
    let (mut rounds_1, mut rounds_n) = (Vec::new(), Vec::new());
    let (mut emits, mut raw_emits, mut probes) = (Vec::new(), Vec::new(), Vec::new());
    let (mut cpu_n, mut raw_cpu_n) = (0.0, 0.0);
    let mut out = Outcome::default();
    let mut hwm = 0u64;
    let mut round = 0u64;
    while round < 6 || Instant::now() < deadline {
        let probe = probe_ms();
        let f = factor(probe);
        probes.push(probe);
        for phase in ["1t", "nt"] {
            let args = [
                "kernel-phase".to_string(),
                phase.into(),
                seed.to_string(),
                round.to_string(),
            ];
            let mut p = Phase::spawn(&args)?;
            let setup = p.ready()?;
            raw_setups.push(setup);
            setups.push(setup * f);
            let v = p.finish()?;
            let secs = v
                .get("secs")
                .and_then(|x| x.as_f64())
                .ok_or("round without time")?;
            if phase == "1t" {
                rounds_1.push(secs);
            } else {
                rounds_n.push(secs);
                let cpu = v
                    .get("cpu")
                    .and_then(|x| x.as_f64())
                    .ok_or("round without CPU time")?;
                cpu_n += cpu * f;
                raw_cpu_n += cpu;
                let round_emits = floats(&v, "emits");
                emits.extend(round_emits.iter().map(|e| e * f));
                raw_emits.extend(round_emits);
                hwm = hwm.max(count(&v, "hwm_kib"));
            }
            out.attempted += count(&v, "attempted");
            out.failed += count(&v, "failed");
        }
        round += 1;
    }
    let lat = Latency::of(&emits);
    let per_s = |rounds: &[f64]| median(rounds).map(|m| KERNEL_ROUND as f64 / m);
    out.push(Metric::new("setup_s", median(&setups), "s", setups.len()));
    out.push(Metric::new(
        "cpu_us_per_op",
        Some(cpu_n * 1e6 / (rounds_n.len() * KERNEL_ROUND) as f64),
        "us",
        rounds_n.len(),
    ));
    out.push(Metric::new("p50_ms", lat.p50, "ms", lat.count));
    out.push(Metric::new("p99_ms", lat.p99, "ms", lat.count));
    let hwm = hwm as f64 / 1024.0;
    out.push(Metric::new(
        "peak_rss_mib",
        (hwm > 0.0).then_some(hwm),
        "MiB",
        rounds_n.len(),
    ));
    out.push_info(Metric::new(
        "ops_per_s",
        per_s(&rounds_n),
        "1/s",
        rounds_n.len(),
    ));
    out.push_info(Metric::new(
        "samples_per_s_1t",
        per_s(&rounds_1),
        "1/s",
        rounds_1.len(),
    ));
    let raw = Latency::of(&raw_emits);
    out.push_info(Metric::new("probe_ms", median(&probes), "ms", probes.len()));
    out.push_info(Metric::new(
        "raw_setup_s",
        median(&raw_setups),
        "s",
        raw_setups.len(),
    ));
    out.push_info(Metric::new(
        "raw_cpu_us_per_op",
        Some(raw_cpu_n * 1e6 / (rounds_n.len() * KERNEL_ROUND) as f64),
        "us",
        rounds_n.len(),
    ));
    out.push_info(Metric::new("raw_p50_ms", raw.p50, "ms", raw.count));
    out.push_info(Metric::new("raw_p99_ms", raw.p99, "ms", raw.count));
    out.note(format!(
        "nproc {}; {} samples per round; {} emits per round",
        nproc(),
        KERNEL_ROUND,
        EMITS_PER_ROUND
    ));
    Ok(out)
}
