//! The bounded log-linear [`Histogram`] behind every `Hist` and the causal
//! graph's latency roll-ups: its bucket arithmetic and rank queries.

/// Values below this are binned exactly (one bucket per value).
pub(super) const EXACT: u64 = 256;
/// Sub-buckets per power of two above the exact range (2^5 = 32).
const SUB_BITS: u32 = 5;
const SUBS: usize = 1 << SUB_BITS;
/// Total bucket count: 256 exact + 32 per octave for octaves 8..=63.
pub(super) const NBUCKETS: usize = EXACT as usize + (64 - 8) * SUBS;

/// A bounded log-linear histogram: fixed worst-case footprint (2048
/// `u64` buckets, allocated lazily on the first sample) no matter how
/// many samples are recorded, with rank queries answered by a cumulative
/// scan — no per-query sort, no retained sample vector.
///
/// # Error bounds
///
/// Values below 256 are binned exactly. Above that, each power of two is
/// split into 32 sub-buckets, so a quantile's reported value is the lower
/// bound of its bucket: at most 1/32 (~3.1%) below the true sample.
/// `min`, `max`, the 0.0- and 1.0-quantiles, and the mean are always
/// exact (`sum`/`count` are kept at full precision).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
    /// Empty until the first sample, then exactly `NBUCKETS` long.
    pub(super) buckets: Vec<u64>,
}

pub(super) fn bucket_index(v: u64) -> usize {
    if v < EXACT {
        v as usize
    } else {
        let exp = 63 - v.leading_zeros(); // 8..=63 here
        let sub = ((v >> (exp - SUB_BITS)) & (SUBS as u64 - 1)) as usize;
        EXACT as usize + (exp as usize - 8) * SUBS + sub
    }
}

pub(super) fn bucket_floor(idx: usize) -> u64 {
    if idx < EXACT as usize {
        idx as u64
    } else {
        let rel = idx - EXACT as usize;
        let exp = 8 + (rel / SUBS) as u32;
        let sub = (rel % SUBS) as u64;
        (1u64 << exp) + (sub << (exp - SUB_BITS))
    }
}

impl Histogram {
    /// Creates an empty histogram (no bucket storage until a sample).
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        if self.count == 0 || v < self.min {
            self.min = v;
        }
        self.max = self.max.max(v);
        self.sum += v as u128;
        self.count += 1;
        if self.buckets.is_empty() {
            self.buckets = vec![0; NBUCKETS];
        }
        self.buckets[bucket_index(v)] += 1;
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of all samples.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Smallest sample (exact), or `None` if empty.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample (exact), or `None` if empty.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Exact arithmetic mean, or `None` if empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// The `p`-quantile (0.0..=1.0) by nearest rank, or `None` if empty.
    /// The extremes are exact (`min`/`max`, returned for `p <= 0.0` and
    /// `p >= 1.0` without touching float rank math; NaN reads as 0.0);
    /// interior quantiles report their bucket's lower bound (≤ 3.1% below
    /// the true sample — see the type docs).
    pub fn quantile(&self, p: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        if p.is_nan() || p <= 0.0 {
            return Some(self.min);
        }
        if p >= 1.0 {
            return Some(self.max);
        }
        // Nearest rank, with the product nudged down a hair before the
        // ceiling: `p * count` can round a whisker above an exact integer
        // boundary (0.001 * 7000 = 7.0000000000000001 in f64) and a bare
        // `ceil` would then overshoot by a whole rank.
        let product = p * self.count as f64;
        let rank = ((product * (1.0 - 1e-12)).ceil() as u64).clamp(1, self.count);
        if rank == 1 {
            return Some(self.min);
        }
        if rank == self.count {
            return Some(self.max);
        }
        let mut cum = 0u64;
        for (idx, &n) in self.buckets.iter().enumerate() {
            cum += n;
            if cum >= rank {
                return Some(bucket_floor(idx).clamp(self.min, self.max));
            }
        }
        Some(self.max) // unreachable: cum reaches count
    }
}
