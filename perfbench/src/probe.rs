//! How fast the host runs right now, read from a fixed piece of the
//! benchmark's own code.
//!
//! On a small shared host the cores' caches are shared with other
//! tenants, and their load comes and goes within seconds: the same
//! kernel round takes 1.3 to 1.9 times as long while they run, in CPU time
//! as well as in wall-clock time. [`probe_ms`] times a plain replica of
//! the per-sample work of Algorithm 7 (score every item, sort, count the
//! ranking in a hash map), written here and never shared with the
//! program, so no change to the program moves it. A workload times the
//! probe beside each slice of its own work and scales that slice's times
//! by [`factor`]: the figures then read as if the host ran at the probe's
//! [`NOMINAL_MS`].

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// Items of the probe's table, as in the DoT dataset the kernel runs.
const ITEMS: usize = 2000;
/// Rankings one probe computes.
const SAMPLES: usize = 100;

/// Seconds of one slice of a TCP phase: the probe runs between slices,
/// while the server is idle, and scales the slice's times. The host's
/// load changes within seconds, so a probe a slice away still sees it.
pub const SLICE_S: f64 = 1.0;

/// The probe's time on a quiet host of the kind the benchmark was
/// defined on (2 vCPUs of a shared x86-64 host), in milliseconds. Only
/// the scale of the reported figures depends on it.
pub const NOMINAL_MS: f64 = 7.0;

fn next(state: &mut u64) -> f64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    (*state >> 11) as f64 / (1u64 << 53) as f64
}

/// Milliseconds one probe takes now.
pub fn probe_ms() -> f64 {
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let rows: Vec<[f64; 3]> = (0..ITEMS)
        .map(|_| [next(&mut state), next(&mut state), next(&mut state)])
        .collect();
    let mut scores = vec![0.0f64; ITEMS];
    let mut order: Vec<u32> = (0..ITEMS as u32).collect();
    let mut counts: HashMap<Vec<u32>, u32> = HashMap::new();
    let t = Instant::now();
    for _ in 0..SAMPLES {
        let w = [next(&mut state), next(&mut state), next(&mut state)];
        for (s, r) in scores.iter_mut().zip(&rows) {
            *s = r[0] * w[0] + r[1] * w[1] + r[2] * w[2];
        }
        order.sort_unstable_by(|a, b| scores[*b as usize].total_cmp(&scores[*a as usize]));
        *counts.entry(order.clone()).or_insert(0) += 1;
    }
    black_box(&counts);
    t.elapsed().as_secs_f64() * 1e3
}

/// The scale that turns a time measured beside a probe of `probe_ms`
/// into the time at [`NOMINAL_MS`].
pub fn factor(probe_ms: f64) -> f64 {
    NOMINAL_MS / probe_ms
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_does_its_work_each_time() {
        let a = probe_ms();
        assert!(a > 0.0 && a.is_finite());
        assert_eq!(factor(NOMINAL_MS), 1.0);
        assert_eq!(factor(2.0 * NOMINAL_MS), 0.5);
    }
}
