//! Host speed, measured beside the program so timings can be scaled to
//! one reference speed.
//!
//! On a shared host the same auction takes anywhere from 1.0 to 1.7
//! times its best time, in phases that last from seconds to minutes:
//! other tenants compete for the caches and the memory system, and no
//! steal time shows it. A phase often covers a whole run, so no
//! statistic over one run's repetitions removes it. The benchmark
//! therefore times a fixed reference computation of its own between the
//! program's repetitions and scales each CPU-bound timing by
//! `REFERENCE_S / median reference time`. The reference is a binary heap
//! and a sort over a few megabytes — branchy, cache-resident work like
//! the auction's own selection and pricing — and tracks the phases more
//! closely than a pointer chase or an arithmetic chain did. It does not
//! depend on the program, so a change to the program moves the scaled
//! timings exactly as it moves the raw ones.

use crate::stats;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

/// The reference computation's time on an unloaded 2-vCPU Xeon VM. The
/// scaled timings read as seconds on a host where the reference takes
/// this long.
pub const REFERENCE_S: f64 = 0.045;

/// Keys pushed through the heap, and sorted, in one reference sample.
const HEAP_KEYS: usize = 300_000;
const SORT_KEYS: usize = 400_000;

/// Reference samples taken during one run, with buffers kept between
/// samples so a sample allocates nothing but the sort's scratch.
pub struct HostSpeed {
    samples: Vec<f64>,
    heap: BinaryHeap<u64>,
    keys: Vec<f64>,
}

impl HostSpeed {
    pub fn new() -> Self {
        HostSpeed {
            samples: Vec::new(),
            heap: BinaryHeap::with_capacity(HEAP_KEYS),
            keys: Vec::with_capacity(SORT_KEYS),
        }
    }

    /// Times one run of the reference computation.
    pub fn sample(&mut self) {
        let t = Instant::now();
        black_box(reference(&mut self.heap, &mut self.keys));
        self.samples.push(t.elapsed().as_secs_f64());
    }

    /// The median reference time of this run, in seconds.
    pub fn reference_s(&self) -> f64 {
        stats::median(&self.samples)
    }

    /// The factor that scales a wall time measured in this run to the
    /// reference speed.
    pub fn factor(&self) -> f64 {
        REFERENCE_S / self.reference_s()
    }

    /// A note line: the samples behind the factor.
    pub fn describe(&self) -> String {
        format!(
            "host speed: {} reference samples, median {:.4} s, timings scaled by {:.4} to a {REFERENCE_S} s reference",
            self.samples.len(),
            self.reference_s(),
            self.factor()
        )
    }
}

/// The reference computation: `HEAP_KEYS` pseudo-random keys pushed into
/// a binary heap and popped, then `SORT_KEYS` keys sorted. Returns a
/// checksum so nothing is optimized away.
fn reference(heap: &mut BinaryHeap<u64>, keys: &mut Vec<f64>) -> u64 {
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut next = || {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        x >> 11
    };
    heap.clear();
    for _ in 0..HEAP_KEYS {
        heap.push(next() % 1_000_000_007);
    }
    let mut sum = 0u64;
    while let Some(k) = heap.pop() {
        sum ^= k;
    }
    keys.clear();
    keys.extend((0..SORT_KEYS).map(|_| next() as f64));
    keys.sort_by(f64::total_cmp);
    sum ^ keys[SORT_KEYS / 2] as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_reference_computation_is_fixed() {
        let (mut heap, mut keys) = (BinaryHeap::new(), Vec::new());
        let first = reference(&mut heap, &mut keys);
        assert_eq!(reference(&mut heap, &mut keys), first);
        assert!(keys.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn timings_scale_by_the_median_reference_sample() {
        let host = HostSpeed {
            samples: vec![0.09, 0.5, 0.08],
            heap: BinaryHeap::new(),
            keys: Vec::new(),
        };
        // The median sample is twice the reference time: the host ran at
        // half speed, so a 3 s wall time reads 1.5 s.
        assert!((host.reference_s() - 0.09).abs() < 1e-12);
        assert!((3.0 * host.factor() - 1.5).abs() < 1e-12);
    }
}
