//! Open- and closed-loop request timing against an injectable clock.
//!
//! An open loop sends on a schedule whether or not earlier requests have
//! been answered, as independent users do. Each request is timed from the
//! moment it was *due*, so a stall charges the requests queued behind it,
//! and how late the generator itself ran is reported beside the latency.

use std::time::{Duration, Instant};

/// Nanoseconds since an arbitrary origin, and a way to wait for a moment.
pub trait Clock {
    fn now_ns(&self) -> u64;
    /// Returns no earlier than `ns`; immediately when `ns` has passed.
    fn wait_until(&self, ns: u64);
}

/// The wall clock, counted from `origin`.
#[derive(Debug, Clone, Copy)]
pub struct WallClock {
    pub origin: Instant,
}

impl Clock for WallClock {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn wait_until(&self, ns: u64) {
        let now = self.now_ns();
        if ns > now {
            std::thread::sleep(Duration::from_nanos(ns - now));
        }
    }
}

/// When slot `slot` of a schedule at `rate_per_s` is due, from `start_ns`.
pub fn due_ns(start_ns: u64, slot: usize, rate_per_s: f64) -> u64 {
    start_ns + (slot as f64 * 1e9 / rate_per_s) as u64
}

/// What the generator measured for one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sample {
    /// Reply time minus the time the latency is counted from: the due time
    /// in an open loop, the send time in a closed loop.
    pub latency_ns: u64,
    /// Send time minus due time: how late the generator ran.
    pub late_ns: u64,
}

/// Issues one request. `due` is its scheduled time in an open loop and
/// `None` in a closed loop, where the request goes out at once.
pub fn issue<T>(clock: &impl Clock, due: Option<u64>, send: impl FnOnce() -> T) -> (T, Sample) {
    if let Some(due) = due {
        clock.wait_until(due);
    }
    let sent = clock.now_ns();
    let from = due.unwrap_or(sent);
    let reply = send();
    let sample = Sample {
        latency_ns: clock.now_ns() - from,
        late_ns: sent - from,
    };
    (reply, sample)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// A clock that only moves when told to, or when waited on.
    struct FakeClock(Cell<u64>);

    impl FakeClock {
        fn advance(&self, ns: u64) {
            self.0.set(self.0.get() + ns);
        }
    }

    impl Clock for FakeClock {
        fn now_ns(&self) -> u64 {
            self.0.get()
        }
        fn wait_until(&self, ns: u64) {
            self.0.set(self.0.get().max(ns));
        }
    }

    #[test]
    fn schedule_is_evenly_spaced() {
        assert_eq!(due_ns(500, 0, 1_000.0), 500);
        assert_eq!(due_ns(500, 3, 1_000.0), 3_000_500);
    }

    #[test]
    fn an_on_time_request_is_timed_from_its_due_time() {
        let clock = FakeClock(Cell::new(0));
        let (_, s) = issue(&clock, Some(100), || clock.advance(30));
        assert_eq!(
            s,
            Sample {
                latency_ns: 30,
                late_ns: 0
            }
        );
        assert_eq!(clock.now_ns(), 130);
    }

    #[test]
    fn a_stall_charges_the_requests_queued_behind_it() {
        // One generator, requests due every 10 ns, service takes 30 ns: the
        // backlog grows, and each request's latency includes its wait.
        let clock = FakeClock(Cell::new(0));
        let samples: Vec<Sample> = (0..3)
            .map(|slot| issue(&clock, Some(due_ns(0, slot, 1e8)), || clock.advance(30)).1)
            .collect();
        assert_eq!(
            samples,
            vec![
                Sample {
                    latency_ns: 30,
                    late_ns: 0
                },
                Sample {
                    latency_ns: 50,
                    late_ns: 20
                },
                Sample {
                    latency_ns: 70,
                    late_ns: 40
                },
            ]
        );
    }

    #[test]
    fn a_closed_loop_request_is_timed_from_its_send() {
        let clock = FakeClock(Cell::new(1_000));
        let (reply, s) = issue(&clock, None, || {
            clock.advance(25);
            "ok"
        });
        assert_eq!(reply, "ok");
        assert_eq!(
            s,
            Sample {
                latency_ns: 25,
                late_ns: 0
            }
        );
    }
}
