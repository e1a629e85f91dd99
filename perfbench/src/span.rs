//! In-memory span tracer for the traced run.
//!
//! Every timed call into a layer goes through [`Tracer::time`], which
//! always returns the call's duration (the end-to-end metrics need
//! some of them) and, when tracing is on, also records a [`Span`]:
//! its name, start, end and the span that was open when it began.
//! Spans stay in memory until the run ends.

use std::time::Instant;

/// One recorded span. Times are seconds since the tracer was created.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// `<layer>.<call>`, e.g. `runtime.run`.
    pub name: &'static str,
    /// Start, seconds since the tracer's origin.
    pub start: f64,
    /// End, seconds since the tracer's origin.
    pub end: f64,
    /// Index of the enclosing span, `None` for a root.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in seconds.
    pub fn dur(&self) -> f64 {
        self.end - self.start
    }

    /// The layer a span belongs to: its name up to the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Span recorder; it starts disabled, and a disabled tracer only times.
pub struct Tracer {
    origin: Instant,
    on: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// A disabled tracer.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            on: false,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Switch recording on or off between passes. Panics with a span open.
    pub fn set_on(&mut self, on: bool) {
        assert!(self.open.is_empty(), "cannot toggle tracing inside a span");
        self.on = on;
    }

    /// Run `f`, returning its result and its duration in seconds; with
    /// tracing on, record it as a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> (R, f64) {
        if !self.on {
            let t0 = Instant::now();
            let r = f(self);
            return (r, t0.elapsed().as_secs_f64());
        }
        let idx = self.spans.len();
        let start = self.origin.elapsed().as_secs_f64();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        let r = f(self);
        let end = self.origin.elapsed().as_secs_f64();
        self.open.pop();
        self.spans[idx].end = end;
        (r, end - start)
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Per-span self time: the span's duration minus the time its children
/// cover. Children run one after another on one thread, so their
/// durations add up without overlap.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut child = vec![0.0; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child[p] += s.dur();
        }
    }
    spans.iter().zip(child).map(|(s, c)| s.dur() - c).collect()
}

/// Check that every span lies inside its parent and that siblings do
/// not overlap. Returns the first violation found.
pub fn check_nesting(spans: &[Span]) -> Result<(), String> {
    let mut last_child_end: Vec<Option<f64>> = vec![None; spans.len()];
    let mut last_root_end: Option<f64> = None;
    for (i, s) in spans.iter().enumerate() {
        if s.end < s.start {
            return Err(format!("span {i} ({}) ends before it starts", s.name));
        }
        let prev = match s.parent {
            Some(p) => {
                if p >= i {
                    return Err(format!("span {i} ({}) names a later parent", s.name));
                }
                let ps = &spans[p];
                if s.start < ps.start || s.end > ps.end {
                    return Err(format!("span {i} ({}) escapes parent {}", s.name, ps.name));
                }
                last_child_end[p].replace(s.end)
            }
            None => last_root_end.replace(s.end),
        };
        if prev.is_some_and(|e| s.start < e) {
            return Err(format!("span {i} ({}) overlaps its sibling", s.name));
        }
    }
    Ok(())
}

/// The spans as a JSON array.
pub fn to_json(spans: &[Span]) -> String {
    let rows: Vec<String> = spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            format!(
                "  {{\"id\": {i}, \"name\": \"{}\", \"start\": {}, \"end\": {}, \"parent\": {parent}}}",
                s.name, s.start, s.end
            )
        })
        .collect();
    format!("[\n{}\n]", rows.join(",\n"))
}
