//! The benchmark's own span recorder, used only by traced runs.
//!
//! Spans are recorded from the benchmark's files around each call into a
//! layer of the program: name, start, end, parent span and request id,
//! kept in an in-memory buffer and written out as JSON lines when the run
//! ends. They deliberately bypass `ibis_obs`: the server switches the
//! process-global obs recorder on, so the program's own spans would land
//! in the same buffer.
//!
//! A span's layer is its name up to the first `.`; a layer's self time is
//! the time its spans cover minus the part their children cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct SpanRecord {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub request: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// A span buffer. A disabled tracer records nothing and costs one branch
/// per call.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<SpanRecord>>,
}

/// An open span; closes (and is recorded) on drop.
pub struct Span<'t> {
    tracer: &'t Tracer,
    id: u64,
    parent: u64,
    name: &'static str,
    request: u64,
    start: Instant,
}

impl Span<'_> {
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if self.id != 0 {
            self.tracer.record_with_id(
                self.id,
                self.parent,
                self.name,
                self.request,
                self.start,
                Instant::now(),
            );
        }
    }
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn fresh_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Opens a span now; `parent` 0 makes it a root.
    pub fn span(&self, name: &'static str, parent: u64, request: u64) -> Span<'_> {
        Span {
            tracer: self,
            id: if self.enabled { self.fresh_id() } else { 0 },
            parent,
            name,
            request,
            start: Instant::now(),
        }
    }

    /// Records an already-finished interval (for spans that start on one
    /// thread and end on another); returns its id (0 when disabled).
    pub fn record(
        &self,
        name: &'static str,
        parent: u64,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        if !self.enabled {
            return 0;
        }
        let id = self.fresh_id();
        self.record_with_id(id, parent, name, request, start, end);
        id
    }

    fn record_with_id(
        &self,
        id: u64,
        parent: u64,
        name: &'static str,
        request: u64,
        start: Instant,
        end: Instant,
    ) {
        if !self.enabled || id == 0 {
            return;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans
            .lock()
            .expect("span buffer poisoned")
            .push(SpanRecord {
                id,
                parent,
                name,
                request,
                start_ns: ns(start),
                end_ns: ns(end).max(ns(start)),
            });
    }

    pub fn spans(&self) -> Vec<SpanRecord> {
        self.spans.lock().expect("span buffer poisoned").clone()
    }

    /// Self time per layer in nanoseconds: each span's duration minus the
    /// union of its children's intervals clipped to it.
    pub fn self_time_by_layer(&self) -> BTreeMap<&'static str, u64> {
        let spans = self.spans();
        let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
        for s in &spans {
            if s.parent != 0 {
                children
                    .entry(s.parent)
                    .or_default()
                    .push((s.start_ns, s.end_ns));
            }
        }
        let mut by_layer: BTreeMap<&'static str, u64> = BTreeMap::new();
        for s in &spans {
            let covered = children
                .get_mut(&s.id)
                .map_or(0, |c| covered_ns(c, s.start_ns, s.end_ns));
            let layer = s.name.split('.').next().unwrap_or(s.name);
            *by_layer.entry(layer).or_default() += (s.end_ns - s.start_ns).saturating_sub(covered);
        }
        by_layer
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            writeln!(
                w,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"request\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.name, s.request, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi)`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.clamp(lo, hi), e.clamp(lo, hi));
        if s >= e {
            continue;
        }
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covered_merges_overlaps_and_clips() {
        let mut iv = vec![(5, 10), (0, 3), (8, 12), (20, 30)];
        assert_eq!(covered_ns(&mut iv, 1, 25), 2 + 7 + 5);
    }

    #[test]
    fn self_time_subtracts_children() {
        let t = Tracer::new(true);
        let t0 = Instant::now();
        let ms = |n| t0 + std::time::Duration::from_millis(n);
        let root = t.record("request", 0, 1, ms(0), ms(10));
        t.record("server.call", root, 1, ms(2), ms(6));
        let by = t.self_time_by_layer();
        assert_eq!(by["request"], 6_000_000);
        assert_eq!(by["server"], 4_000_000);
    }
}
