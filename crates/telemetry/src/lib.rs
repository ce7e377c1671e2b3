//! `apiphany_telemetry` — the observability plane of the APIphany stack.
//!
//! One [`Telemetry`] handle bundles the two instruments every layer
//! shares:
//!
//! * a [`registry`] of named **counters, gauges, and log-scale
//!   histograms** — per-worker-sharded relaxed atomics, aggregated only
//!   at snapshot time, so the DFS hot path pays one relaxed add (and a
//!   *disabled* handle pays one branch);
//! * a **flight [`recorder`]** — a bounded ring of recent structured
//!   events (job transitions, admission decisions, disconnects,
//!   fault-plane trips, cache quarantines), dumpable on demand as a
//!   causal timeline.
//!
//! The handle is a cheap `Arc` clone and `Telemetry::default()` is the
//! disabled plane: code threads it unconditionally and instrumentation
//! costs nothing until somebody turns it on. Instrumentation **observes,
//! never steers**: no search or scheduling decision may branch on a
//! telemetry value, which is what keeps the stack's bit-identical-stream
//! guarantee intact with telemetry enabled.
//!
//! ```
//! use apiphany_telemetry::Telemetry;
//!
//! let telemetry = Telemetry::enabled();
//! let nodes = telemetry.counter("search.nodes");
//! nodes.add(41);
//! nodes.inc();
//! telemetry.histogram("catalog.analyze_us").record(1_250);
//! telemetry.record("cache", [("service", "demo"), ("probe", "miss")]);
//! let snapshot = telemetry.snapshot();
//! assert_eq!(snapshot.counter("search.nodes"), Some(42));
//! assert_eq!(snapshot.histogram("catalog.analyze_us").unwrap().count(), 1);
//! assert_eq!(telemetry.recorder_dump()[0].field("probe"), Some("miss"));
//!
//! // The disabled plane accepts the same calls for free.
//! let off = Telemetry::disabled();
//! off.counter("search.nodes").inc();
//! assert!(off.snapshot().counters.is_empty());
//! ```

pub mod recorder;
pub mod registry;

use std::sync::Arc;
use std::time::Instant;

use apiphany_json::Value;

pub use recorder::{RecordedEvent, Recorder, DEFAULT_RECORDER_CAP};
pub use registry::{
    Counter, Gauge, Histogram, HistogramSnapshot, Registry, Snapshot, HISTOGRAM_BUCKETS,
};

#[derive(Debug)]
struct Inner {
    start: Instant,
    registry: Registry,
    recorder: Recorder,
}

/// The shared observability handle. See the crate docs.
///
/// Clones share one registry and recorder. The default value is the
/// **disabled** plane: every operation is a single `Option` branch and
/// every accessor reports empty.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Inner>>,
}

impl Telemetry {
    /// An enabled plane, keeping the last [`DEFAULT_RECORDER_CAP`]
    /// flight-recorder events.
    pub fn enabled() -> Telemetry {
        let start = Instant::now();
        Telemetry {
            inner: Some(Arc::new(Inner {
                start,
                registry: Registry::default(),
                recorder: Recorder::new(DEFAULT_RECORDER_CAP, start),
            })),
        }
    }

    /// The disabled plane (same as `Telemetry::default()`).
    pub fn disabled() -> Telemetry {
        Telemetry::default()
    }

    /// Whether this handle records anything at all.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Milliseconds since this plane was created (0 when disabled).
    pub fn uptime_ms(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |inner| u64::try_from(inner.start.elapsed().as_millis()).unwrap_or(u64::MAX))
    }

    /// A counter handle for `name` (inert when disabled). Fetch once,
    /// keep the handle: registration locks, updates never do.
    pub fn counter(&self, name: &str) -> Counter {
        match &self.inner {
            Some(inner) => inner.registry.counter(name),
            None => Counter::default(),
        }
    }

    /// A gauge handle for `name` (inert when disabled).
    pub fn gauge(&self, name: &str) -> Gauge {
        match &self.inner {
            Some(inner) => inner.registry.gauge(name),
            None => Gauge::default(),
        }
    }

    /// A histogram handle for `name` (inert when disabled).
    pub fn histogram(&self, name: &str) -> Histogram {
        match &self.inner {
            Some(inner) => inner.registry.histogram(name),
            None => Histogram::default(),
        }
    }

    /// Appends one structured event to the flight recorder. A no-op when
    /// disabled.
    pub fn record<I, K, V>(&self, kind: &str, fields: I)
    where
        I: IntoIterator<Item = (K, V)>,
        K: Into<String>,
        V: Into<String>,
    {
        if let Some(inner) = &self.inner {
            inner.recorder.record(kind, fields);
        }
    }

    /// A point-in-time aggregation of every registered series (empty
    /// when disabled).
    pub fn snapshot(&self) -> Snapshot {
        match &self.inner {
            Some(inner) => inner.registry.snapshot(),
            None => Snapshot::default(),
        }
    }

    /// The snapshot as a JSON object, with `uptime_ms` and the recorder
    /// depth alongside the series:
    /// `{"uptime_ms":..,"recorded_events":..,"counters":{..},"gauges":{..},"histograms":{..}}`.
    pub fn snapshot_value(&self) -> Value {
        let snap = self.snapshot().to_value();
        let mut fields = vec![
            (
                "uptime_ms".to_string(),
                Value::Int(i64::try_from(self.uptime_ms()).unwrap_or(i64::MAX)),
            ),
            (
                "recorded_events".to_string(),
                Value::Int(i64::try_from(self.recorded_events()).unwrap_or(i64::MAX)),
            ),
        ];
        if let Value::Object(series) = snap {
            fields.extend(series);
        }
        Value::Object(fields)
    }

    /// Total flight-recorder events ever recorded, including those the
    /// ring has since dropped (0 when disabled).
    pub fn recorded_events(&self) -> u64 {
        self.inner.as_ref().map_or(0, |inner| inner.recorder.recorded())
    }

    /// The retained flight-recorder events, oldest first (empty when
    /// disabled).
    pub fn recorder_dump(&self) -> Vec<RecordedEvent> {
        self.inner.as_ref().map_or_else(Vec::new, |inner| inner.recorder.dump())
    }

    /// The retained flight-recorder events as a JSON array.
    pub fn recorder_dump_value(&self) -> Value {
        self.inner.as_ref().map_or(Value::Array(Vec::new()), |inner| inner.recorder.dump_value())
    }

    /// Writes the flight-recorder timeline to stderr, one JSON event per
    /// line, bracketed by a reason header — the automatic post-mortem
    /// dump daemons emit on drain or panic. A no-op when disabled or
    /// when nothing was recorded.
    pub fn dump_to_stderr(&self, reason: &str) {
        let events = self.recorder_dump();
        if events.is_empty() {
            return;
        }
        eprintln!("--- flight recorder dump ({reason}): {} events ---", events.len());
        for event in &events {
            eprintln!("{}", event.to_value().to_json());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn disabled_plane_reports_empty_everything() {
        let t = Telemetry::disabled();
        assert!(!t.is_enabled());
        t.counter("c").add(7);
        t.gauge("g").set(7);
        t.histogram("h").record(7);
        t.record("e", [("k", "v")]);
        assert!(t.snapshot().counters.is_empty());
        assert!(t.recorder_dump().is_empty());
        assert_eq!(t.recorded_events(), 0);
        let text = t.snapshot_value().to_json();
        assert!(text.contains("\"counters\":{}"), "{text}");
    }

    #[test]
    fn clones_share_one_plane() {
        let t = Telemetry::enabled();
        let u = t.clone();
        t.counter("shared").add(2);
        u.counter("shared").add(3);
        assert_eq!(t.snapshot().counter("shared"), Some(5));
        u.record("evt", [("from", "clone")]);
        assert_eq!(t.recorder_dump().len(), 1);
    }

    #[test]
    fn snapshot_value_carries_uptime_and_series() {
        let t = Telemetry::enabled();
        t.counter("search.nodes").add(9);
        let text = t.snapshot_value().to_json();
        assert!(text.contains("\"uptime_ms\":"), "{text}");
        assert!(text.contains("\"search.nodes\":9"), "{text}");
    }

    proptest! {
        /// Concurrent histogram writers never produce a torn snapshot:
        /// every observed count equals its bucket sum (structurally
        /// guaranteed — the count IS the bucket sum) and never exceeds
        /// the number of writes issued; after the writers join, the
        /// final snapshot accounts for every write exactly.
        #[test]
        fn concurrent_snapshots_are_consistent(
            writers in 1usize..4,
            per_writer in 1usize..200,
            values in proptest::collection::vec(0u64..1_000_000, 8),
        ) {
            let t = Telemetry::enabled();
            let h = t.histogram("h");
            let c = t.counter("c");
            let total = (writers * per_writer) as u64;
            std::thread::scope(|scope| {
                for w in 0..writers {
                    let h = h.clone();
                    let c = c.clone();
                    let values = values.clone();
                    scope.spawn(move || {
                        for i in 0..per_writer {
                            h.record(values[(w + i) % values.len()]);
                            c.inc();
                        }
                    });
                }
                // Snapshot while the writers hammer.
                for _ in 0..50 {
                    let snap = t.snapshot();
                    if let Some(hist) = snap.histogram("h") {
                        let count = hist.count();
                        prop_assert!(count <= total, "count {count} > writes {total}");
                        prop_assert_eq!(count, hist.buckets.iter().sum::<u64>());
                    }
                    if let Some(seen) = snap.counter("c") {
                        prop_assert!(seen <= total);
                    }
                }
                Ok(())
            })?;
            let hist = t.snapshot().histogram("h").unwrap().clone();
            prop_assert_eq!(hist.count(), total);
            let len = values.len();
            let expected_sum: u64 = (0..writers)
                .flat_map(|w| (0..per_writer).map(move |i| (w + i) % len))
                .map(|idx| values[idx])
                .sum();
            prop_assert_eq!(hist.sum, expected_sum);
            prop_assert_eq!(t.snapshot().counter("c"), Some(total));
        }
    }
}
