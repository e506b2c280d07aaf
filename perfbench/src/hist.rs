//! Log-linear latency histogram in nanoseconds.
//!
//! Values below 64 get a bucket each; above that every power of two is
//! split into 64 equal sub-buckets, so no bucket is wider than 1/64
//! (about 1.6%) of its lower edge. Every operation of a window is
//! recorded — there is no sampling and no ring that forgets the start.

const SUB_BITS: u32 = 6;
const SUB: usize = 1 << SUB_BITS;
/// Highest power of two tracked (2^40 ns is about 18 minutes); larger
/// values land in the last bucket.
const MAX_EXP: usize = 40;
const BUCKETS: usize = (MAX_EXP - SUB_BITS as usize + 2) * SUB;

#[derive(Clone)]
pub struct Hist {
    counts: Box<[u64]>,
    n: u64,
}

fn index(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let exp = (63 - v.leading_zeros()) as usize;
    if exp > MAX_EXP {
        return BUCKETS - 1;
    }
    let shift = exp - SUB_BITS as usize;
    let sub = ((v >> shift) as usize) - SUB;
    (exp - SUB_BITS as usize + 1) * SUB + sub
}

/// `(lower edge, width)` of bucket `i`.
fn bounds(i: usize) -> (u64, u64) {
    if i < SUB {
        return (i as u64, 1);
    }
    let shift = i / SUB - 1;
    let sub = (i % SUB) as u64;
    ((SUB as u64 + sub) << shift, 1 << shift)
}

impl Hist {
    /// An empty histogram, its memory already written (so paged in).
    pub fn new() -> Self {
        let mut counts = vec![0; BUCKETS].into_boxed_slice();
        counts.fill(std::hint::black_box(0));
        Self { counts, n: 0 }
    }

    #[inline]
    pub fn record(&mut self, ns: u64) {
        self.counts[index(ns)] += 1;
        self.n += 1;
    }

    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.n += other.n;
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    /// The `q`-quantile (0 < q < 1), interpolated linearly by rank inside
    /// its bucket; 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let rank = (self.n as f64 * q).clamp(1.0, self.n as f64);
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            if c > 0 && (seen + c) as f64 >= rank {
                let (lo, width) = bounds(i);
                let within = (rank - seen as f64 - 0.5).max(0.0) / c as f64;
                return lo as f64 + width as f64 * within;
            }
            seen += c;
        }
        unreachable!("rank is at most the total count")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_contiguous_and_narrow() {
        let mut next = 0;
        for i in 0..BUCKETS {
            let (lo, width) = bounds(i);
            assert_eq!(lo, next, "bucket {i}");
            assert!(lo < SUB as u64 || width as f64 / lo as f64 <= 1.0 / 64.0);
            assert_eq!(index(lo), i);
            assert_eq!(index(lo + width - 1), i);
            next = lo + width;
        }
    }

    #[test]
    fn quantiles_land_within_a_bucket() {
        let mut h = Hist::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        let p50 = h.quantile(0.5);
        assert!((p50 - 5_000.0).abs() / 5_000.0 < 0.016, "{p50}");
        let p99 = h.quantile(0.99);
        assert!((p99 - 9_900.0).abs() / 9_900.0 < 0.016, "{p99}");
    }
}
