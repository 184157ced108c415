//! Host-time spans around the benchmark's calls into each layer.
//!
//! A span has a name, a start and an end, the span that was open when it
//! began (its parent), the repetition it belongs to, and the host thread
//! that recorded it. Spans stay in memory and are written once, at exit,
//! as Chrome trace-event JSON. A disabled tracer still runs the wrapped
//! calls but records nothing, so untraced repetitions pay only for the
//! clock reads the benchmark needs anyway.

use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Instant;

/// Caller-timed spans kept per tracer; later ones are counted but not
/// stored.
const MAX_RECORDED: usize = 20_000;

/// Span ids are unique across every tracer of the process. Ids publish
/// no data, so a relaxed counter suffices.
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    /// Id of the enclosing span; 0 at the top level.
    pub parent: u64,
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
    pub rep: u32,
    pub tid: u32,
}

pub struct Tracer {
    pub on: bool,
    epoch: Instant,
    rep: u32,
    tid: u32,
    /// Ids of the spans open right now, innermost last.
    open: Vec<u64>,
    spans: Vec<Span>,
    recorded: usize,
    dropped: u64,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            rep: 0,
            tid: 0,
            open: Vec::new(),
            spans: Vec::new(),
            recorded: 0,
            dropped: 0,
        }
    }

    /// A tracer for another host thread: same epoch and repetition, with
    /// the currently open span as the parent of everything it records.
    pub fn child(&self, tid: u32) -> Tracer {
        Tracer {
            on: self.on,
            epoch: self.epoch,
            rep: self.rep,
            tid,
            open: self.open.last().copied().into_iter().collect(),
            spans: Vec::new(),
            recorded: 0,
            dropped: 0,
        }
    }

    /// Takes over the spans a [`Tracer::child`] recorded.
    pub fn merge(&mut self, child: Tracer) {
        self.spans.extend(child.spans);
        self.dropped += child.dropped;
    }

    pub fn set_rep(&mut self, rep: u32) {
        self.rep = rep;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let id = NEXT_ID.fetch_add(1, Relaxed);
        let parent = self.open.last().copied().unwrap_or(0);
        let start = Instant::now();
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        let end = Instant::now();
        self.push_at(id, parent, name, start, end);
        out
    }

    /// Records an interval the caller timed itself, such as one queue
    /// operation. There are many of those, so only the first
    /// [`MAX_RECORDED`] of the first repetition are kept.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        if self.rep == 0 && self.recorded < MAX_RECORDED {
            self.recorded += 1;
            self.mark(name, start, end);
        } else if self.on {
            self.dropped += 1;
        }
    }

    /// Records an instant (a span of zero length).
    pub fn instant(&mut self, name: &'static str, at: Instant) {
        self.mark(name, at, at);
    }

    fn mark(&mut self, name: &'static str, start: Instant, end: Instant) {
        if self.on {
            let id = NEXT_ID.fetch_add(1, Relaxed);
            let parent = self.open.last().copied().unwrap_or(0);
            self.push_at(id, parent, name, start, end);
        }
    }

    fn push_at(&mut self, id: u64, parent: u64, name: &'static str, start: Instant, end: Instant) {
        let since = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            id,
            parent,
            name,
            start_ns: since(start),
            end_ns: since(end),
            rep: self.rep,
            tid: self.tid,
        });
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the spans as Chrome trace-event JSON (Perfetto,
    /// `chrome://tracing`): complete events for spans, instant events for
    /// zero-length ones, times in microseconds.
    pub fn write_chrome(&self, w: &mut impl Write) -> std::io::Result<()> {
        writeln!(
            w,
            "{{\"otherData\": {{\"dropped_spans\": {}}}, \"traceEvents\": [",
            self.dropped
        )?;
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            let ts = s.start_ns as f64 / 1e3;
            let kind = if s.end_ns == s.start_ns {
                "\"ph\": \"i\", \"s\": \"t\"".to_string()
            } else {
                format!(
                    "\"ph\": \"X\", \"dur\": {:.3}",
                    (s.end_ns - s.start_ns) as f64 / 1e3
                )
            };
            writeln!(
                w,
                "{{\"name\": \"{}\", {kind}, \"ts\": {ts:.3}, \"pid\": 1, \"tid\": {}, \
                 \"args\": {{\"id\": {}, \"parent\": {}, \"rep\": {}}}}}{sep}",
                s.name, s.tid, s.id, s.parent, s.rep
            )?;
        }
        writeln!(w, "]}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_export_as_valid_json() {
        let mut tr = Tracer::new(true);
        tr.set_rep(3);
        tr.span("outer", |tr| {
            tr.span("inner", |_| ());
            let mut child = tr.child(1);
            child.instant("mark", Instant::now());
            tr.merge(child);
        });
        let by_name = |n: &str| {
            tr.spans()
                .iter()
                .find(|s| s.name == n)
                .expect("span recorded")
        };
        let outer = by_name("outer");
        assert_eq!(outer.parent, 0);
        assert_eq!(by_name("inner").parent, outer.id);
        assert_eq!(by_name("mark").parent, outer.id);
        assert!(tr.spans().iter().all(|s| s.rep == 3));

        let mut out = Vec::new();
        tr.write_chrome(&mut out).expect("trace written");
        let text = String::from_utf8(out).expect("trace is UTF-8");
        let doc = obs::json::parse(&text).expect("valid JSON");
        let events = doc
            .get("traceEvents")
            .and_then(|v| v.as_arr())
            .expect("events");
        assert_eq!(events.len(), 3);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        assert_eq!(tr.span("x", |_| 7), 7);
        tr.instant("y", Instant::now());
        assert!(tr.spans().is_empty());
    }
}
