//! Benchmark-side spans: one per call into a layer, kept in memory and
//! written when the run ends. Spans inside the program are not recorded
//! here — the per-flow stage spans are reduced from the `Obs` log the
//! program returns anyway.

use std::time::Instant;
use substrate::ser::JsonValue;

/// One span: a named interval, the span that caused it, and the flow it
/// belongs to (if any). Times are µs since the tracer was created.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// `layer.call` for calls into a layer, a plain word for the
    /// benchmark's own phases.
    pub name: &'static str,
    /// Start, µs.
    pub start_us: f64,
    /// End, µs.
    pub end_us: f64,
    /// Index of the causing span.
    pub parent: Option<usize>,
    /// The flow the span belongs to.
    pub flow: Option<u64>,
}

/// Handle of an open span.
#[derive(Clone, Copy, Debug)]
pub struct SpanId(Option<usize>);

/// Records spans when enabled; every call is a no-op otherwise, so the
/// untraced run executes the same benchmark code minus the recording.
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// µs from the tracer's epoch to `t`.
    pub fn us_at(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.epoch).as_secs_f64() * 1e6
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let now = self.us_at(Instant::now());
        self.spans.push(Span {
            name,
            start_us: now,
            end_us: now,
            parent: self.open.last().copied(),
            flow: None,
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        SpanId(Some(id))
    }

    /// Closes `id` (and anything opened under it and left open).
    pub fn exit(&mut self, id: SpanId) {
        let Some(id) = id.0 else { return };
        let now = self.us_at(Instant::now());
        while let Some(top) = self.open.pop() {
            self.spans[top].end_us = now;
            if top == id {
                break;
            }
        }
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let r = f();
        self.exit(id);
        r
    }

    /// Adds a finished span with explicit times (the per-flow stage spans
    /// reduced from `Obs`).
    pub fn record(
        &mut self,
        name: &'static str,
        start_us: f64,
        end_us: f64,
        parent: SpanId,
        flow: u64,
    ) {
        if self.enabled {
            self.spans.push(Span {
                name,
                start_us,
                end_us,
                parent: parent.0,
                flow: Some(flow),
            });
        }
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as a JSON array, one object per span.
    pub fn to_json(&self) -> JsonValue {
        let opt = |v: Option<f64>| v.map_or(JsonValue::Null, JsonValue::Num);
        JsonValue::Array(
            self.spans
                .iter()
                .enumerate()
                .map(|(i, s)| {
                    JsonValue::object([
                        ("id", JsonValue::Num(i as f64)),
                        ("name", JsonValue::Str(s.name.to_string())),
                        ("start_us", JsonValue::Num(s.start_us)),
                        ("end_us", JsonValue::Num(s.end_us)),
                        ("parent", opt(s.parent.map(|p| p as f64))),
                        ("flow", opt(s.flow.map(|f| f as f64))),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_under_the_open_span() {
        let mut t = Tracer::new(true);
        let root = t.enter("workload");
        t.span("core.plan", || ());
        let batch = t.enter("batch");
        t.span("node.inject_flows", || ());
        t.record("core.intake_order", 1.0, 2.0, batch, 7);
        t.exit(batch);
        t.exit(root);
        let s = t.spans();
        let names: Vec<_> = s.iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            [
                "workload",
                "core.plan",
                "batch",
                "node.inject_flows",
                "core.intake_order"
            ]
        );
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(0));
        assert_eq!(s[3].parent, Some(2));
        assert_eq!((s[4].parent, s[4].flow), (Some(2), Some(7)));
        assert!(s[0].end_us >= s[2].end_us && s[2].end_us >= s[3].end_us);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.enter("workload");
        assert_eq!(t.span("core.plan", || 3), 3);
        t.record("core.intake_order", 1.0, 2.0, id, 1);
        t.exit(id);
        assert!(t.spans().is_empty());
    }
}
