//! Raw-sample statistics, answer digests, the peak-RSS sampler and the
//! report every run prints.
//!
//! Percentiles here always come from the raw samples the benchmark took
//! itself (nearest rank over the sorted values), never from the program's
//! bucketed histograms.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Most consecutive blocks a run's samples are cut into for a median over
/// blocks (about one per second of a 20-second run).
pub const BLOCKS: usize = 20;

/// The median of per-block values.
pub fn median_of(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut s = Samples::new();
    values.into_iter().for_each(|v| s.push(v));
    s.median().unwrap_or(0.0)
}

/// Raw measurements (microseconds, nanoseconds, … — the caller decides
/// the unit), kept in the order they were taken.
#[derive(Clone, Debug, Default)]
pub struct Samples {
    values: Vec<f64>,
}

impl Samples {
    pub fn new() -> Samples {
        Samples::default()
    }

    pub fn push(&mut self, v: f64) {
        self.values.push(v);
    }

    pub fn extend(&mut self, other: &Samples) {
        self.values.extend_from_slice(&other.values);
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Nearest-rank percentile `p` (0 < p ≤ 100); `None` when empty.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        if self.values.is_empty() {
            return None;
        }
        let mut sorted = self.values.clone();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let rank = ((p / 100.0) * n as f64).ceil().clamp(1.0, n as f64) as usize;
        Some(sorted[rank - 1])
    }

    pub fn median(&self) -> Option<f64> {
        self.percentile(50.0)
    }

    pub fn sum(&self) -> f64 {
        self.values.iter().sum()
    }

    /// The samples split, in the order taken, into `n` consecutive parts of
    /// (nearly) equal size.
    pub fn blocks(&self, n: usize) -> Vec<Samples> {
        let n = n.clamp(1, self.values.len().max(1));
        (0..n)
            .map(|i| Samples {
                values: self.values[i * self.values.len() / n..(i + 1) * self.values.len() / n]
                    .to_vec(),
            })
            .collect()
    }

    /// Percentile `p` made robust to bursts of machine noise: the samples
    /// are cut, in the order taken, into up to [`BLOCKS`] consecutive
    /// blocks — as many as still leave ten samples beyond `p` in each — and
    /// the median of the blocks' percentiles is returned, with a note
    /// giving the block count and the sample count per block.
    pub fn blocked_percentile(&self, p: f64) -> (f64, String) {
        let n = self.values.len();
        let per_block_tail = n as f64 * (1.0 - p / 100.0) / 10.0;
        let b = (per_block_tail.floor() as usize).clamp(1, BLOCKS);
        let mut per_block = Samples::new();
        for block in self.blocks(b) {
            if let Some(v) = block.percentile(p) {
                per_block.push(v);
            }
        }
        let note = if b == 1 {
            self.note()
        } else {
            format!(
                "median of {b} consecutive blocks' p{p}, each {}",
                self.blocks(b)[0].note()
            )
        };
        (per_block.median().unwrap_or(0.0), note)
    }

    /// The highest percentile that still has at least ten samples above
    /// its rank, to one decimal; `None` below eleven samples.
    pub fn supported_percentile(&self) -> Option<f64> {
        let n = self.values.len();
        if n <= 10 {
            return None;
        }
        Some(((n - 10) as f64 * 1000.0 / n as f64).floor() / 10.0)
    }

    /// A note for the human-readable report: sample count and the
    /// highest percentile the sample supports.
    pub fn note(&self) -> String {
        match self.supported_percentile() {
            Some(p) => format!("n={} supports<=p{p}", self.len()),
            None => format!("n={} (too few for a tail percentile)", self.len()),
        }
    }
}

/// Order-sensitive 64-bit digest of a sorted row-id list (length
/// included), so the benchmark can keep one word per timed answer and
/// check it against the scan afterwards.
pub fn digest(rows: &[u32]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ rows.len() as u64;
    for &r in rows {
        h = (h ^ u64::from(r)).wrapping_mul(0x0000_0100_0000_01b3);
        h ^= h >> 29;
    }
    h
}

/// Samples the process's resident set every few milliseconds on a
/// background thread and keeps the maximum, so the peak covers exactly
/// the interval between [`RssSampler::start`] and [`RssSampler::stop`].
pub struct RssSampler {
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<u64>>,
}

fn resident_bytes() -> u64 {
    // Field 2 of statm is resident pages; x86-64 and aarch64 Linux
    // default to 4 KiB pages.
    std::fs::read_to_string("/proc/self/statm")
        .ok()
        .and_then(|s| s.split_whitespace().nth(1)?.parse::<u64>().ok())
        .map_or(0, |pages| pages * 4096)
}

impl RssSampler {
    pub fn start() -> RssSampler {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            let mut peak = resident_bytes();
            while !flag.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(5));
                peak = peak.max(resident_bytes());
            }
            peak.max(resident_bytes())
        });
        RssSampler {
            stop,
            thread: Some(thread),
        }
    }

    /// Stops sampling and returns the peak in MB (10^6 bytes).
    pub fn stop(mut self) -> f64 {
        self.stop.store(true, Ordering::Relaxed);
        let peak = self
            .thread
            .take()
            .expect("sampler joined once")
            .join()
            .expect("rss sampler thread panicked");
        peak as f64 / 1e6
    }
}

impl Drop for RssSampler {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Sample count / supported percentile, or how the value was formed.
    pub note: String,
}

/// Everything one run reports: the answer tally, the metrics, and why the
/// run failed if it did.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    /// Metrics of the result line.
    pub metrics: Vec<Metric>,
    /// Metrics printed for reading only.
    pub printed: Vec<Metric>,
}

impl Report {
    pub fn metric(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        note: String,
    ) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
            note,
        });
    }

    /// Records a failed operation (error, shed, deadline miss, wrong
    /// answer or lost write); the first few get a description.
    pub fn fail(&mut self, what: impl Into<String>) {
        self.failed += 1;
        if self.problems.len() < 20 {
            self.problems.push(what.into());
        }
    }

    /// A failure of the benchmark itself (not of one operation).
    pub fn problem(&mut self, what: impl Into<String>) {
        self.problems.push(what.into());
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty() && self.attempted > 0
    }

    /// The machine-readable result line.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_string(&m.name),
                    json_number(m.value),
                    json_string(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// JSON has no NaN or infinity; a non-finite value is a benchmark bug and
/// is written as `null` so the result line stays parseable (and the run
/// has already been marked failed by the caller).
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let mut s = Samples::new();
        for v in 1..=100 {
            s.push(v as f64);
        }
        assert_eq!(s.percentile(50.0), Some(50.0));
        assert_eq!(s.percentile(99.0), Some(99.0));
        assert_eq!(s.percentile(100.0), Some(100.0));
        assert_eq!(s.supported_percentile(), Some(90.0));
    }

    #[test]
    fn blocked_percentile_takes_the_median_block() {
        let mut s = Samples::new();
        // Twenty blocks of 100; the second is a burst of slow samples.
        for b in 0..20 {
            for v in 0..100 {
                s.push(if b == 1 { 1000.0 } else { v as f64 });
            }
        }
        let (p50, note) = s.blocked_percentile(50.0);
        assert_eq!(p50, 49.0);
        assert!(note.starts_with("median of 20"));
        // p99 over 2,000 samples: two blocks of 1,000, the burst in the
        // first; the pooled p99 lands in the burst.
        assert_eq!(s.percentile(99.0), Some(1000.0));
        assert_eq!(s.blocked_percentile(99.0).0, 98.0);
    }

    #[test]
    fn digest_depends_on_order_and_length() {
        assert_ne!(digest(&[1, 2]), digest(&[2, 1]));
        assert_ne!(digest(&[]), digest(&[0]));
        assert_eq!(digest(&[5, 9]), digest(&[5, 9]));
    }
}
