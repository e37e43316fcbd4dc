//! How load is offered. In a closed loop each connection sends its next
//! request once the previous one is answered. In the open loop one
//! generator thread releases requests on a fixed schedule, whether or not
//! earlier ones have been answered, and several connection threads send
//! them. Each request is timed from when it was *due*, so a stall charges
//! its wait to every request queued behind it, and the generator's own
//! lateness is recorded so that a stalled generator can be told apart from
//! a slow server.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Runs one thread per entry of `states` for `secs`. Each thread takes
/// the next index from one shared counter and calls `work(state, index)`,
/// until the time is up or `work` returns `false`; so the indices done are
/// always a prefix. Returns the states and the seconds the loop took.
pub fn run_closed_loop<S, F>(mut states: Vec<S>, secs: f64, work: F) -> (Vec<S>, f64)
where
    S: Send,
    F: Fn(&mut S, usize) -> bool + Sync,
{
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let stop = start + Duration::from_secs_f64(secs);
    std::thread::scope(|s| {
        for state in states.iter_mut() {
            let (next, work) = (&next, &work);
            s.spawn(move || {
                while Instant::now() < stop && work(state, next.fetch_add(1, Ordering::Relaxed)) {}
            });
        }
    });
    (states, start.elapsed().as_secs_f64())
}

/// A constant-rate arrival schedule: request `i` is due `i / rate`
/// seconds after the start.
#[derive(Clone, Copy, Debug)]
pub struct Schedule {
    pub rate: f64,
    pub duration: Duration,
}

impl Schedule {
    /// Requests the schedule releases.
    pub fn count(&self) -> usize {
        (self.rate * self.duration.as_secs_f64()).floor() as usize
    }

    /// Offset of request `i` from the start.
    pub fn due(&self, i: usize) -> Duration {
        Duration::from_secs_f64(i as f64 / self.rate)
    }
}

/// One released request: its index in the schedule and the instant it
/// was due.
#[derive(Clone, Copy, Debug)]
pub struct Release {
    pub index: usize,
    pub due: Instant,
}

/// Runs `schedule` with one thread per entry of `states`.
/// `work(state, release)` sends request `release.index` and returns once
/// answered; it runs on the worker's own thread (the worker owns its
/// connection). Returns, per request, the
/// latency from due time to answer, and the generator's lateness per
/// release, both in seconds.
pub fn run_open_loop<S, F>(
    schedule: Schedule,
    mut states: Vec<S>,
    work: F,
) -> (Vec<(usize, f64)>, Vec<f64>, Vec<S>)
where
    S: Send,
    F: Fn(&mut S, Release) + Sync,
{
    let total = schedule.count();
    // The queue may hold every release, so the generator never blocks on
    // a full channel: a slow server makes requests wait, not the clock.
    let (tx, rx) = sync_channel::<Release>(total.max(1));
    let rx: Arc<Mutex<Receiver<Release>>> = Arc::new(Mutex::new(rx));
    let mut lateness = Vec::with_capacity(total);
    let mut latencies = Vec::with_capacity(total);
    std::thread::scope(|s| {
        let handles: Vec<_> = states
            .iter_mut()
            .map(|state| {
                let rx = Arc::clone(&rx);
                let work = &work;
                s.spawn(move || {
                    let mut done = Vec::new();
                    loop {
                        let next = rx.lock().expect("release queue poisoned").recv();
                        let Ok(release) = next else { break };
                        work(state, release);
                        done.push((release.index, release.due.elapsed().as_secs_f64()));
                    }
                    done
                })
            })
            .collect();
        let start = Instant::now();
        for index in 0..total {
            let due = start + schedule.due(index);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            lateness.push(due.elapsed().as_secs_f64());
            tx.send(Release { index, due })
                .expect("workers outlive the generator");
        }
        drop(tx);
        for h in handles {
            latencies.extend(h.join().expect("open-loop worker panicked"));
        }
    });
    latencies.sort_by_key(|&(i, _)| i);
    (latencies, lateness, states)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn closed_loop_does_a_prefix_of_the_indices() {
        let (states, secs) = run_closed_loop(vec![Vec::new(); 3], 10.0, |done, i| {
            let go = i < 50;
            if go {
                done.push(i);
            }
            go
        });
        let mut all: Vec<usize> = states.into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, (0..50).collect::<Vec<_>>());
        assert!(secs < 10.0);
    }

    #[test]
    fn schedule_spaces_releases_at_the_rate() {
        let s = Schedule {
            rate: 200.0,
            duration: Duration::from_millis(500),
        };
        assert_eq!(s.count(), 100);
        assert_eq!(s.due(0), Duration::ZERO);
        assert_eq!(s.due(200), Duration::from_secs(1));
        for i in 1..s.count() {
            assert!(s.due(i) > s.due(i - 1));
        }
    }

    #[test]
    fn every_release_is_sent_once_and_timed() {
        let s = Schedule {
            rate: 2000.0,
            duration: Duration::from_millis(100),
        };
        let sent = AtomicUsize::new(0);
        let (lat, late, states) = run_open_loop(s, vec![0usize; 3], |n, _| {
            *n += 1;
            sent.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(sent.load(Ordering::SeqCst), 200);
        assert_eq!(states.iter().sum::<usize>(), 200);
        assert_eq!(late.len(), 200);
        let idx: Vec<usize> = lat.iter().map(|&(i, _)| i).collect();
        assert_eq!(idx, (0..200).collect::<Vec<_>>());
        assert!(lat.iter().all(|&(_, l)| l >= 0.0));
    }

    #[test]
    fn a_stall_is_charged_to_the_requests_queued_behind_it() {
        // One worker; request 0 holds it until 40 ms after its own due
        // time, so request 1 (due 10 ms after request 0) cannot start
        // before then. Timed from its due time, its latency includes
        // that wait whatever the scheduler does.
        let s = Schedule {
            rate: 100.0,
            duration: Duration::from_millis(100),
        };
        let (lat, late, _) = run_open_loop(s, vec![()], |_, r| {
            if r.index == 0 {
                let until = r.due + Duration::from_millis(40);
                while Instant::now() < until {
                    std::thread::sleep(until.saturating_duration_since(Instant::now()));
                }
            }
        });
        assert_eq!(lat.len(), 10);
        assert_eq!(late.len(), 10);
        assert!(lat[1].1 >= 0.030, "latency from due time: {}", lat[1].1);
    }
}
