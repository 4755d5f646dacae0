//! A log-bucketed (HDR-style) latency histogram.
//!
//! Values 0..15 get exact linear buckets; from 16 up, every power-of-two
//! octave is split into 16 sub-buckets, so any recorded value is off by
//! at most 1/16 of itself when read back — plenty for p50/p90/p99 of
//! DRAM latencies while keeping the table a fixed 976 `u64` slots.
//!
//! Everything is integer arithmetic: recording, merging, and quantile
//! extraction are deterministic, so histograms built on different worker
//! threads and merged in a fixed order serialise byte-identically.

use crate::json::{Json, JsonValue};

/// Sub-buckets per power-of-two octave (and the size of the linear
/// region at the bottom).
const SUBBUCKETS: u64 = 16;

/// Highest possible bucket index (`value_to_index(u64::MAX)`).
const MAX_INDEX: usize = (16 * 63 - 48 + 15) as usize; // 975

/// A fixed-shape log-bucketed histogram over `u64` values.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    /// Bucket counts, grown lazily up to the highest index touched.
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

/// Bucket index of `v`: exact below 16, then 16 sub-buckets per octave.
fn value_to_index(v: u64) -> usize {
    if v < SUBBUCKETS {
        return v as usize;
    }
    let m = 63 - v.leading_zeros() as u64; // floor(log2 v), >= 4
    (16 * m - 48 + ((v >> (m - 4)) & 15)) as usize
}

/// Inclusive `(low, high)` value range of bucket `idx`.
fn bucket_bounds(idx: usize) -> (u64, u64) {
    if idx < SUBBUCKETS as usize {
        return (idx as u64, idx as u64);
    }
    let m = (idx as u64 + 48) / 16;
    let sub = idx as u64 - (16 * m - 48);
    let low = (SUBBUCKETS + sub) << (m - 4);
    let width = 1u64 << (m - 4);
    // `low + (width - 1)`: subtracting first keeps the top bucket's
    // upper bound (u64::MAX) from overflowing.
    (low, low + (width - 1))
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Record one value.
    pub fn record(&mut self, v: u64) {
        self.record_n(v, 1);
    }

    /// Record `n` occurrences of `v`.
    pub fn record_n(&mut self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        let idx = value_to_index(v);
        if idx >= self.counts.len() {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] += n;
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += n;
        self.sum += v.saturating_mul(n);
    }

    /// Values recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded values (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded value (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.max
        }
    }

    /// Arithmetic mean (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The value at quantile `q` in `[0, 1]`: the upper bound of the
    /// bucket holding the `ceil(q * count)`-th smallest sample, clamped
    /// to the recorded `[min, max]` range. Pure integer cumulation, so
    /// deterministic across platforms.
    pub fn value_at_quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= target {
                let (_, high) = bucket_bounds(idx);
                return high.clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Fold `other` into `self`. Merging is element-wise addition, so it
    /// is associative and order-independent — merged histograms are
    /// byte-identical however the shards were produced.
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        if self.count == 0 {
            self.min = other.min;
            self.max = other.max;
        } else {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// Per-bucket `(low, high, count)` triples for the non-empty buckets
    /// (ascending), for downstream renderers.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, c)| **c > 0)
            .map(|(i, c)| {
                let (lo, hi) = bucket_bounds(i);
                (lo, hi, *c)
            })
            .collect()
    }
}

impl JsonValue for Histogram {
    /// JSON form: summary fields plus the non-empty buckets as sparse
    /// `[index, count]` pairs.
    fn to_json(&self) -> Json {
        Json::obj([
            ("count", Json::uint(self.count)),
            ("sum", Json::uint(self.sum)),
            ("min", Json::uint(self.min())),
            ("max", Json::uint(self.max())),
            ("mean", Json::num(self.mean())),
            ("p50", Json::uint(self.value_at_quantile(0.50))),
            ("p90", Json::uint(self.value_at_quantile(0.90))),
            ("p99", Json::uint(self.value_at_quantile(0.99))),
            (
                "buckets",
                Json::arr(
                    self.counts
                        .iter()
                        .enumerate()
                        .filter(|(_, c)| **c > 0)
                        .map(|(i, c)| Json::arr([Json::uint(i as u64), Json::uint(*c)])),
                ),
            ),
        ])
    }

    /// Rebuild a histogram from that form: an error when a field is
    /// missing, malformed, or the bucket counts disagree with the
    /// recorded total.
    fn from_json(v: &Json) -> Result<Histogram, String> {
        let mut h = Histogram {
            counts: Vec::new(),
            count: v.field("count")?,
            sum: v.field("sum")?,
            min: v.field("min")?,
            max: v.field("max")?,
        };
        let mut total = 0u64;
        for b in v.req_arr("buckets")? {
            let pair =
                b.as_arr().filter(|p| p.len() == 2).ok_or("bucket must be [index, count]")?;
            let idx = pair[0].as_u64().ok_or("bucket index must be a non-negative integer")?;
            let c = pair[1].as_u64().ok_or("bucket count must be a non-negative integer")?;
            if idx > MAX_INDEX as u64 {
                return Err(format!("bucket index {idx} out of range"));
            }
            let idx = idx as usize;
            if idx >= h.counts.len() {
                h.counts.resize(idx + 1, 0);
            }
            total = total.checked_add(c).ok_or("bucket counts overflow")?;
            h.counts[idx] += c;
        }
        if total != h.count {
            return Err(format!("bucket counts sum to {total}, header says {}", h.count));
        }
        Ok(h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn indexing_is_monotone_and_continuous() {
        // Every value maps into a bucket whose bounds contain it, and
        // indices never decrease as values grow.
        let mut last = 0usize;
        for v in (0u64..2048).chain([1 << 20, (1 << 20) + 12345, u64::MAX / 2, u64::MAX]) {
            let idx = value_to_index(v);
            let (lo, hi) = bucket_bounds(idx);
            assert!(lo <= v && v <= hi, "v={v} idx={idx} bounds=({lo},{hi})");
            assert!(idx >= last || v < 2048, "index must not decrease");
            if v < 2048 {
                assert!(idx >= last);
                last = idx;
            }
        }
        assert_eq!(value_to_index(u64::MAX), MAX_INDEX);
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::new();
        for v in 0..16u64 {
            h.record(v);
        }
        for q in [0.01, 0.25, 0.5, 0.75, 1.0] {
            let got = h.value_at_quantile(q);
            let want = ((q * 16.0).ceil() as u64).clamp(1, 16) - 1;
            assert_eq!(got, want, "q={q}");
        }
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 15);
        assert_eq!(h.sum(), 120);
    }

    #[test]
    fn quantiles_bound_relative_error() {
        let mut h = Histogram::new();
        for v in [100u64, 200, 300, 400, 500, 600, 700, 800, 900, 1000] {
            h.record(v);
        }
        let p50 = h.value_at_quantile(0.5);
        // 5th smallest is 500; bucket resolution is 1/16.
        assert!((468..=532).contains(&p50), "p50={p50}");
        assert_eq!(h.value_at_quantile(1.0), 1000, "max is exact");
        assert!(h.value_at_quantile(0.0) >= 100);
    }

    #[test]
    fn empty_histogram_is_zeroed() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.value_at_quantile(0.99), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
        assert!(h.is_empty());
    }

    #[test]
    fn merge_equals_combined_recording() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut both = Histogram::new();
        for v in 0..500u64 {
            let x = v * v % 7919;
            if v % 2 == 0 {
                a.record(x);
            } else {
                b.record(x);
            }
            both.record(x);
        }
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged, both);
        // And merge order does not matter.
        let mut rev = b.clone();
        rev.merge(&a);
        assert_eq!(rev, both);
        // Merging an empty histogram is a no-op.
        merged.merge(&Histogram::new());
        assert_eq!(merged, both);
    }

    #[test]
    fn merging_two_empty_histograms_stays_empty() {
        let mut a = Histogram::new();
        a.merge(&Histogram::new());
        assert_eq!(a, Histogram::new());
        assert!(a.is_empty());
        assert_eq!((a.count(), a.sum(), a.min(), a.max()), (0, 0, 0, 0));
        // ... and still behaves as a fresh histogram afterwards: the
        // first real sample must seed min/max, not min() against a stale
        // zero.
        a.record(42);
        assert_eq!((a.min(), a.max()), (42, 42));
        // Empty ⊕ non-empty adopts the other side's min/max wholesale.
        let mut b = Histogram::new();
        b.merge(&a);
        assert_eq!(b, a);
    }

    #[test]
    fn merge_saturates_sum_instead_of_wrapping() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(u64::MAX);
        b.record(u64::MAX);
        assert_eq!(a.sum(), u64::MAX, "single-shard recording already saturates");
        a.merge(&b);
        assert_eq!(a.sum(), u64::MAX, "merged sum must clamp, not wrap");
        assert_eq!(a.count(), 2);
        assert_eq!(a.max(), u64::MAX);
        assert_eq!(a.value_at_quantile(1.0), u64::MAX, "quantile clamps to recorded max");
        assert!(a.mean() > 0.0);
    }

    #[test]
    fn cross_octave_merge_round_trips_and_resizes_either_way() {
        // One shard only touches the exact linear region, the other only
        // a high octave, so the two `counts` tables have very different
        // lengths and merging must grow whichever side is shorter.
        let mut low = Histogram::new();
        for v in 0..16u64 {
            low.record(v);
        }
        let mut high = Histogram::new();
        high.record_n(1 << 40, 3);
        high.record((1 << 40) + 12_345);

        let mut a = low.clone();
        a.merge(&high); // short grows to fit long
        let mut b = high.clone();
        b.merge(&low); // long absorbs short
        assert_eq!(a, b, "merge must be symmetric across octaves");
        assert_eq!(a.count(), 20);
        assert_eq!(a.min(), 0);
        assert_eq!(a.max(), (1 << 40) + 12_345);
        // Low quantiles come from the linear shard, high from the octave
        // shard — the merge kept both populations.
        assert!(a.value_at_quantile(0.5) < 16);
        assert!(a.value_at_quantile(0.99) >= 1 << 40);
        // And the merged histogram survives a JSON round-trip exactly.
        let back = Histogram::from_json(&json::parse(&a.to_json().to_json()).unwrap()).unwrap();
        assert_eq!(back, a);
    }

    #[test]
    fn json_round_trips() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 15, 16, 17, 255, 4096, 1 << 30] {
            h.record_n(v, v % 5 + 1);
        }
        let text = h.to_json().to_json();
        let back = Histogram::from_json(&json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, h);
        assert_eq!(back.value_at_quantile(0.9), h.value_at_quantile(0.9));
    }

    #[test]
    fn from_json_rejects_inconsistent_documents() {
        let bad = json::parse(r#"{"count":5,"sum":10,"min":1,"max":4,"buckets":[[1,2]]}"#).unwrap();
        assert!(Histogram::from_json(&bad).unwrap_err().contains("sum to 2"));
        let bad = json::parse(r#"{"count":0,"sum":0,"min":0,"max":0}"#).unwrap();
        assert!(Histogram::from_json(&bad).unwrap_err().contains("buckets"));
        let bad = json::parse(r#"{"sum":0,"min":0,"max":0,"buckets":[]}"#).unwrap();
        assert!(Histogram::from_json(&bad).unwrap_err().contains("count"));
    }

    #[test]
    fn nonzero_buckets_report_bounds() {
        let mut h = Histogram::new();
        h.record(3);
        h.record_n(100, 4);
        let b = h.nonzero_buckets();
        assert_eq!(b.len(), 2);
        assert_eq!(b[0], (3, 3, 1));
        assert!(b[1].0 <= 100 && 100 <= b[1].1);
        assert_eq!(b[1].2, 4);
    }
}
