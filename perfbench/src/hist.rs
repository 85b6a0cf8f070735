//! Fixed-memory latency histogram: exact below 1024 ns, then 1024
//! linear sub-buckets per power of two (0.1% relative width), so a
//! run's memory does not grow with the number of requests it serves.
//! Quantiles interpolate inside the bucket that holds the rank.

const SUB_BITS: u32 = 10;
const SUB: usize = 1 << SUB_BITS;
/// Octaves above the exact range: values up to 2^(10 + 31) ns (~36 min).
const OCTAVES: usize = 31;

#[derive(Clone)]
pub struct Hist {
    counts: Vec<u64>,
    n: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            counts: vec![0; SUB + OCTAVES * SUB],
            n: 0,
        }
    }
}

fn index_of(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let e = 63 - v.leading_zeros(); // >= SUB_BITS
    let octave = (e - SUB_BITS) as usize;
    if octave >= OCTAVES {
        return SUB + OCTAVES * SUB - 1;
    }
    let mantissa = (v >> (e - SUB_BITS)) as usize - SUB;
    SUB + octave * SUB + mantissa
}

/// `(lower bound, width)` of bucket `i`.
fn bounds_of(i: usize) -> (f64, f64) {
    if i < SUB {
        return (i as f64, 1.0);
    }
    let octave = (i - SUB) / SUB;
    let mantissa = ((i - SUB) % SUB + SUB) as f64;
    let width = (1u64 << octave) as f64;
    (mantissa * width, width)
}

impl Hist {
    pub fn record(&mut self, v: u64) {
        self.counts[index_of(v)] += 1;
        self.n += 1;
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.n += other.n;
    }

    /// The `q`-quantile (`0.0..=1.0`), or 0 with no samples.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let target = q.clamp(0.0, 1.0) * self.n as f64;
        let mut below = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if (below + c) as f64 >= target {
                let (lo, width) = bounds_of(i);
                let frac = ((target - below as f64) / c as f64).clamp(0.0, 1.0);
                return lo + frac * width;
            }
            below += c;
        }
        let last = self.counts.iter().rposition(|&c| c > 0).unwrap_or(0);
        let (lo, width) = bounds_of(last);
        lo + width
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_cover_values_in_order() {
        let mut prev = 0;
        for v in [0u64, 1, 1023, 1024, 1025, 4096, 123_456, 9_999_999] {
            let i = index_of(v);
            assert!(i >= prev, "index of {v} went backwards");
            let (lo, width) = bounds_of(i);
            assert!(
                lo <= v as f64 && (v as f64) < lo + width,
                "{v} outside its bucket"
            );
            prev = i;
        }
    }

    #[test]
    fn quantiles_track_uniform_samples() {
        let mut h = Hist::default();
        for v in 1..=100_000u64 {
            h.record(v);
        }
        let p50 = h.quantile(0.5);
        let p99 = h.quantile(0.99);
        assert!((p50 - 50_000.0).abs() / 50_000.0 < 0.002, "p50 {p50}");
        assert!((p99 - 99_000.0).abs() / 99_000.0 < 0.002, "p99 {p99}");
    }
}
