//! Order statistics, open-loop latency accounting and span shares.
//!
//! Everything here is pure so the unit tests can pin it on hand-made
//! inputs.

/// Samples a tail percentile must leave beyond it before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Median of a non-empty sample (mean of the two middle values when the
/// count is even, like Python's `statistics.median`).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// A reported tail percentile with the sample count behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile asked for, in `(0, 1)`.
    pub q: f64,
    /// The nearest-rank value.
    pub value: f64,
    /// Samples strictly beyond the rank.
    pub beyond: usize,
    /// Samples in total.
    pub n: usize,
}

/// The nearest-rank `q` percentile, or `None` when fewer than
/// [`MIN_BEYOND`] samples lie beyond it.
pub fn tail(xs: &[f64], q: f64) -> Option<Tail> {
    let n = xs.len();
    if n == 0 {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    let beyond = n - rank;
    if beyond < MIN_BEYOND {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    Some(Tail {
        q,
        value: v[rank - 1],
        beyond,
        n,
    })
}

/// The `q` percentile when the sample supports it, else the highest
/// percentile among `fallbacks` that it supports, else the maximum (a
/// sample too small for any tail still reports its worst case).
pub fn tail_or_highest(xs: &[f64], q: f64, fallbacks: &[f64]) -> Tail {
    std::iter::once(q)
        .chain(fallbacks.iter().copied())
        .find_map(|q| tail(xs, q))
        .unwrap_or_else(|| Tail {
            q: 1.0,
            value: xs.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            beyond: 0,
            n: xs.len(),
        })
}

/// One open-loop request: when it was due, when it was handed to a
/// connection, when its reply ended, and whether it succeeded.
/// Times are seconds from the start of the phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timed {
    /// Scheduled send time.
    pub due: f64,
    /// Actual send time (never before `due`).
    pub sent: f64,
    /// Time the reply was complete (or the failure was seen).
    pub done: f64,
    /// `true` when the request was admitted.
    pub ok: bool,
}

/// Latencies in milliseconds, each measured from the request's *due*
/// time, so a stall counts against every request it delays. A failed
/// request counts as missing the limit: its latency is at least
/// `limit_ms`.
pub fn open_loop_latencies_ms(reqs: &[Timed], limit_ms: f64) -> Vec<f64> {
    reqs.iter()
        .map(|r| {
            let ms = (r.done - r.due) * 1e3;
            if r.ok {
                ms
            } else {
                ms.max(limit_ms)
            }
        })
        .collect()
}

/// How late the generator ran: send time minus due time, milliseconds.
pub fn lateness_ms(reqs: &[Timed]) -> Vec<f64> {
    reqs.iter().map(|r| (r.sent - r.due) * 1e3).collect()
}

/// The largest self time of a span that has children, as a share of the
/// wall time (the sum of top-level totals). `spans` lists
/// `(depth, total_ns, self_ns)` in depth-first order, as the profiler's
/// views do, so a span has children when the next one is deeper. `0` for
/// an empty list.
pub fn max_nonleaf_self_share(spans: &[(usize, u64, u64)]) -> f64 {
    let wall: u64 = spans.iter().filter(|s| s.0 == 0).map(|s| s.1).sum();
    if wall == 0 {
        return 0.0;
    }
    spans
        .windows(2)
        .filter(|w| w[1].0 > w[0].0)
        .map(|w| w[0].2)
        .max()
        .map_or(0.0, |s| s as f64 / wall as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_matches_python_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // 1..=1000: the nearest-rank p99 is 990 with exactly 10 beyond.
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p99 = tail(&xs, 0.99).expect("1000 samples support p99");
        assert_eq!((p99.value, p99.beyond, p99.n), (990.0, 10, 1000));
        // One sample fewer leaves only 9 beyond the rank.
        assert_eq!(tail(&xs[..999], 0.99), None);
        // p90 of 100 samples has exactly 10 beyond; of 99 it has 9.
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&hundred, 0.9).map(|t| t.value), Some(90.0));
        assert_eq!(tail(&hundred[..99], 0.9), None);
    }

    #[test]
    fn tail_falls_back_to_the_highest_supported_percentile() {
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        let t = tail_or_highest(&xs, 0.99, &[0.95, 0.9]);
        assert_eq!((t.q, t.value, t.beyond), (0.95, 190.0, 10));
        let few = [5.0, 1.0, 3.0];
        let t = tail_or_highest(&few, 0.99, &[0.9]);
        assert_eq!((t.q, t.value, t.n), (1.0, 5.0, 3));
    }

    #[test]
    fn latency_runs_from_the_due_time() {
        // A 100 ms stall at the first request delays the two queued
        // behind it: each is charged from its own due time.
        let reqs = [
            Timed {
                due: 0.000,
                sent: 0.000,
                done: 0.101,
                ok: true,
            },
            Timed {
                due: 0.010,
                sent: 0.101,
                done: 0.102,
                ok: true,
            },
            Timed {
                due: 0.020,
                sent: 0.102,
                done: 0.103,
                ok: true,
            },
        ];
        let lat = open_loop_latencies_ms(&reqs, 50.0);
        let want = [101.0, 92.0, 83.0];
        for (got, want) in lat.iter().zip(want) {
            assert!((got - want).abs() < 1e-9, "{got} vs {want}");
        }
        let late = lateness_ms(&reqs);
        assert!((late[1] - 91.0).abs() < 1e-9 && (late[2] - 82.0).abs() < 1e-9);
    }

    #[test]
    fn a_failed_request_misses_the_limit() {
        let reqs = [
            Timed {
                due: 0.0,
                sent: 0.0,
                done: 0.002,
                ok: false,
            },
            Timed {
                due: 0.0,
                sent: 0.0,
                done: 0.080,
                ok: false,
            },
        ];
        assert_eq!(open_loop_latencies_ms(&reqs, 50.0)[0], 50.0);
        assert!((open_loop_latencies_ms(&reqs, 50.0)[1] - 80.0).abs() < 1e-9);
    }

    #[test]
    fn nonleaf_self_share_sees_inner_self_time() {
        // The top-level span is fully covered by its child, so a
        // top-level attribution reads 100%, yet the inner `ssam` keeps
        // 70 of 100 ns to itself.
        // round(100) ⊃ ssam(100 ⊃ pricing(30)).
        let spans = [(0, 100, 0), (1, 100, 70), (2, 30, 30)];
        assert!((max_nonleaf_self_share(&spans) - 0.7).abs() < 1e-12);
        assert_eq!(max_nonleaf_self_share(&[]), 0.0);
        // Leaves never count, however large their self time: `patch`
        // keeps 40 to itself but has no children.
        let spans = [(0, 100, 10), (1, 40, 40), (1, 50, 20), (2, 30, 30)];
        assert!((max_nonleaf_self_share(&spans) - 0.2).abs() < 1e-12);
    }
}
