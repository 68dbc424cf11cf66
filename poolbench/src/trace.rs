//! In-memory spans around the benchmark's calls into each layer, their
//! self times, and their export as a Chrome/Perfetto trace.
//!
//! Spans are recorded from the benchmark's own code only, around public
//! calls (`pick`, `inject`, `tick`, `snapshot`, `replay`, …); the beat
//! number in a span's name is the request id every span of one beat
//! shares. Recording is a no-op unless the tracer is on, so the untraced
//! run pays nothing for it.

use hiphop_runtime::{chrome_trace, SpanKind, SpanRecord};
use std::collections::BTreeMap;
use std::time::Instant;

/// Span id: an index-based handle, 0 for "no parent".
pub type SpanId = u64;

#[derive(Debug)]
struct Span {
    id: SpanId,
    parent: SpanId,
    name: &'static str,
    beat: Option<u64>,
    start: Instant,
    end: Instant,
}

/// Collects spans when on.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    next: SpanId,
    spans: Vec<Span>,
}

/// Aggregated self time of every span with one name.
#[derive(Debug, Clone, PartialEq)]
pub struct SelfTime {
    /// Span name (the layer call).
    pub name: &'static str,
    /// Summed self time: each span's duration minus the part of it its
    /// children cover, milliseconds.
    pub self_ms: f64,
}

impl Tracer {
    /// A tracer that records only when `on`.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            next: 0,
            spans: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Reserves an id for a span whose children are recorded before it.
    pub fn reserve(&mut self) -> SpanId {
        self.next += 1;
        self.next
    }

    /// Records a finished span under a reserved id.
    pub fn record_as(
        &mut self,
        id: SpanId,
        parent: SpanId,
        name: &'static str,
        beat: Option<u64>,
        start: Instant,
        end: Instant,
    ) {
        if self.on {
            self.spans.push(Span {
                id,
                parent,
                name,
                beat,
                start,
                end,
            });
        }
    }

    /// Records a finished span under a fresh id and returns it.
    pub fn record(
        &mut self,
        parent: SpanId,
        name: &'static str,
        beat: Option<u64>,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let id = self.reserve();
        self.record_as(id, parent, name, beat, start, end);
        id
    }

    /// Self time per span name, in name order.
    pub fn self_times(&self) -> Vec<SelfTime> {
        let mut children: BTreeMap<SpanId, Vec<(Instant, Instant)>> = BTreeMap::new();
        for s in &self.spans {
            if s.parent != 0 {
                children.entry(s.parent).or_default().push((s.start, s.end));
            }
        }
        let mut by_name: BTreeMap<&'static str, f64> = BTreeMap::new();
        for s in &self.spans {
            let covered = children
                .get_mut(&s.id)
                .map_or(0.0, |kids| covered_secs(kids, s.start, s.end));
            let own = (s.end - s.start).as_secs_f64() - covered;
            *by_name.entry(s.name).or_default() += own * 1e3;
        }
        by_name
            .into_iter()
            .map(|(name, self_ms)| SelfTime { name, self_ms })
            .collect()
    }

    /// Renders the spans as Chrome trace-event JSON on the pool's
    /// [`SpanKind::Tick`] track.
    pub fn chrome_json(&self) -> String {
        let us = |t: Instant| t.saturating_duration_since(self.epoch).as_micros() as u64;
        let records: Vec<SpanRecord> = self
            .spans
            .iter()
            .map(|s| SpanRecord {
                id: s.id,
                parent: s.parent,
                name: match s.beat {
                    Some(b) => format!("{} {b}", s.name),
                    None => s.name.to_owned(),
                },
                kind: SpanKind::Tick,
                shard: 0,
                ts_us: us(s.start),
                dur_us: (us(s.end) - us(s.start)).max(1),
            })
            .collect();
        chrome_trace(&records)
    }
}

/// Seconds of `[start, end]` covered by the union of `intervals`.
fn covered_secs(intervals: &mut [(Instant, Instant)], start: Instant, end: Instant) -> f64 {
    intervals.sort();
    let mut covered = 0.0;
    let mut cursor = start;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(cursor), e.min(end));
        if e > s {
            covered += (e - s).as_secs_f64();
            cursor = e;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let t0 = Instant::now();
        let ms = |n: u64| t0 + Duration::from_millis(n);
        let mut tr = Tracer::new(true);
        let root = tr.reserve();
        // Two overlapping children cover [1, 6] of the root's [0, 10].
        tr.record(root, "a", Some(0), ms(1), ms(4));
        tr.record(root, "b", Some(0), ms(3), ms(6));
        tr.record_as(root, 0, "beat", Some(0), ms(0), ms(10));
        let st = tr.self_times();
        let beat = st.iter().find(|s| s.name == "beat").expect("root span");
        assert!((beat.self_ms - 5.0).abs() < 1e-6, "{st:?}");
        assert!(tr.chrome_json().contains("\"beat 0\""));
    }

    #[test]
    fn an_off_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        let t = Instant::now();
        tr.record(0, "tick", Some(1), t, t);
        assert!(tr.self_times().is_empty());
    }
}
