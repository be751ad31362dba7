//! Wall-clock spans recorded around the benchmark's calls into each layer.
//!
//! Spans stay in memory and are written once, at exit, as Chrome
//! trace-event JSON (complete `"X"` events, the format
//! `cllm_obs::chrome_trace_json` emits for simulated time). A disabled
//! tracer records nothing, so the untraced and traced runs execute the
//! same benchmark code.

use serde_json::{Number, Value};
use std::collections::BTreeMap;
use std::time::Instant;

/// Layer name of the benchmark's own root spans (requests, batches,
/// set-up steps, simulation phases).
pub const ROOT: &str = "bench";

/// One closed span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Crate the call belongs to (`tee`, `infer`, ...) or [`ROOT`].
    pub layer: &'static str,
    /// The call, e.g. `forward_chunk`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Request (or batch, or phase) the span belongs to.
    pub req: u64,
}

impl Span {
    /// Duration in nanoseconds.
    #[must_use]
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle of an open span.
#[must_use]
struct Open(Option<usize>);

/// In-memory span recorder for one thread.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    req: u64,
}

impl Tracer {
    /// A tracer that records only when `enabled`.
    #[must_use]
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            req: 0,
        }
    }

    /// Switch recording on or off between spans.
    pub fn set_enabled(&mut self, enabled: bool) {
        assert!(self.stack.is_empty(), "toggled inside an open span");
        self.enabled = enabled;
    }

    /// Request id given to spans opened from now on.
    pub fn set_request(&mut self, req: u64) {
        self.req = req;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Open a span nested in the innermost open one.
    fn begin(&mut self, layer: &'static str, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            layer,
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            req: self.req,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    /// Close a span; spans close in the reverse order they opened.
    fn end(&mut self, open: Open) {
        let Some(id) = open.0 else { return };
        assert_eq!(
            self.stack.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end_ns = self.now_ns();
    }

    /// Run `f` inside a span that `f` may open further spans in. The span
    /// closes whatever `f` returns, an early error included.
    pub fn within<T>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce(&mut Self) -> T,
    ) -> T {
        let open = self.begin(layer, name);
        let out = f(self);
        self.end(open);
        out
    }

    /// Run `f` inside a span.
    pub fn span<T>(&mut self, layer: &'static str, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.timed(layer, name, f).0
    }

    /// Run `f` inside a span and return its wall time in seconds, which
    /// is measured whether or not the tracer records.
    pub fn timed<T>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let open = self.begin(layer, name);
        let t0 = Instant::now();
        let out = f();
        let secs = t0.elapsed().as_secs_f64();
        self.end(open);
        (out, secs)
    }

    /// Every closed span, in opening order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in milliseconds of the `layer`/`name` spans directly
    /// inside a top-level [`ROOT`] span called `root` (so warm-up work
    /// nested in set-up is left out).
    #[must_use]
    pub fn durations_ms(&self, root: &str, layer: &str, name: &str) -> Vec<f64> {
        let top = |p: usize| {
            let r = &self.spans[p];
            r.layer == ROOT && r.name == root && r.parent.is_none()
        };
        self.spans
            .iter()
            .filter(|s| s.layer == layer && s.name == name && s.parent.is_some_and(top))
            .map(|s| ns_to_ms(s.dur_ns()))
            .collect()
    }
}

/// Wall time spent in operations, seconds: `(untraced, traced)`.
pub type Walls = (f64, f64);

/// Run operation `id` once with the tracer as the run set it; in a traced
/// run, run it twice, untraced and traced, alternating which copy goes
/// first, so the two totals in `walls` give the tracing overhead. Returns
/// the copy the run reports and, in a traced run, the other one.
pub fn paired<T>(
    t: &mut Tracer,
    traced: bool,
    id: u64,
    walls: &mut Walls,
    mut op: impl FnMut(&mut Tracer) -> T,
) -> (T, Option<T>) {
    t.set_request(id);
    let order: &[bool] = match (traced, id % 2) {
        (false, _) => &[false],
        (true, 0) => &[false, true],
        (true, _) => &[true, false],
    };
    let (mut kept, mut other) = (None, None);
    for &on in order {
        t.set_enabled(on);
        let t0 = Instant::now();
        let out = op(t);
        let wall = t0.elapsed().as_secs_f64();
        if on {
            walls.1 += wall;
        } else {
            walls.0 += wall;
        }
        if on == traced {
            kept = Some(out);
        } else {
            other = Some(out);
        }
    }
    t.set_enabled(traced);
    (kept.expect("one copy is the reported one"), other)
}

/// Nanoseconds to milliseconds.
#[must_use]
#[allow(clippy::cast_precision_loss)]
pub fn ns_to_ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Each span's self time: its duration minus the time its direct
/// children cover.
#[must_use]
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut child = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child[p] += s.dur_ns();
        }
    }
    spans
        .iter()
        .zip(child)
        .map(|(s, c)| s.dur_ns().saturating_sub(c))
        .collect()
}

/// Self time (ns) and span count per layer.
#[must_use]
pub fn layer_totals(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut out = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times_ns(spans)) {
        let e = out.entry(s.layer).or_insert((0, 0));
        e.0 += self_ns;
        e.1 += 1;
    }
    out
}

/// Share of the time inside top-level operation spans (every top-level
/// [`ROOT`] span but set-up) that no layer span covers.
#[must_use]
#[allow(clippy::cast_precision_loss)]
pub fn unattributed_frac(spans: &[Span]) -> f64 {
    let selfs = self_times_ns(spans);
    let (mut own, mut total) = (0u64, 0u64);
    for (s, self_ns) in spans.iter().zip(selfs) {
        if s.layer == ROOT && s.name != "setup" && s.parent.is_none() {
            own += self_ns;
            total += s.dur_ns();
        }
    }
    if total == 0 {
        0.0
    } else {
        own as f64 / total as f64
    }
}

fn uint(v: u64) -> Value {
    Value::Number(Number::PosInt(v))
}

fn micros(ns: u64) -> Value {
    #[allow(clippy::cast_precision_loss)]
    Value::Number(Number::Float(ns as f64 / 1e3))
}

/// Chrome trace-event JSON of `spans`: one complete event per span on a
/// single thread, with the parent index and request id in `args`.
#[must_use]
pub fn chrome_json(spans: &[Span]) -> String {
    let events = spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let parent = s.parent.map_or(Value::Null, |p| uint(p as u64));
            Value::Object(vec![
                ("name".into(), Value::String(s.name.into())),
                ("cat".into(), Value::String(s.layer.into())),
                ("ph".into(), Value::String("X".into())),
                ("ts".into(), micros(s.start_ns)),
                ("dur".into(), micros(s.dur_ns())),
                ("pid".into(), uint(1)),
                ("tid".into(), uint(1)),
                (
                    "args".into(),
                    Value::Object(vec![
                        ("id".into(), uint(i as u64)),
                        ("parent".into(), parent),
                        ("req".into(), uint(s.req)),
                    ]),
                ),
            ])
        })
        .collect();
    let doc = Value::Object(vec![
        ("traceEvents".into(), Value::Array(events)),
        ("displayTimeUnit".into(), Value::String("ms".into())),
    ]);
    serde_json::to_string(&doc).expect("trace serialisation cannot fail")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            layer,
            name: "x",
            start_ns,
            end_ns,
            parent,
            req: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // root [0,100) > a [10,40) > b [15,25); root > c [50,70)
        let spans = vec![
            span(ROOT, 0, 100, None),
            span("tee", 10, 40, Some(0)),
            span("crypto", 15, 25, Some(1)),
            span("infer", 50, 70, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 20, 10, 20]);
        let totals = layer_totals(&spans);
        assert_eq!(totals[ROOT], (50, 1));
        assert_eq!(totals["tee"], (20, 1));
        assert!((unattributed_frac(&spans) - 0.5).abs() < 1e-12);
        let mut setup = spans.clone();
        setup[0].name = "setup";
        assert_eq!(unattributed_frac(&setup), 0.0);
    }

    #[test]
    fn tracer_nests_and_disabled_records_nothing() {
        let mut t = Tracer::new(true);
        t.set_request(7);
        let v = t.within(ROOT, "request", |t| t.span("infer", "forward", || 3));
        assert_eq!(v, 3);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].req, 7);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let json = chrome_json(spans);
        assert!(json.starts_with("{\"traceEvents\":["), "{json}");
        assert!(json.contains("\"ph\":\"X\""));

        let mut off = Tracer::new(false);
        off.within(ROOT, "request", |t| t.span("infer", "forward", || ()));
        assert!(off.spans().is_empty());
        // An early error inside `within` still closes the span.
        let r: Result<(), &str> = t.within(ROOT, "request", |t| {
            t.span("tee", "recv", || Err("bad record"))?;
            Ok(())
        });
        assert!(r.is_err());
        t.set_enabled(false);
        assert_eq!(t.spans().len(), 4);
    }
}
