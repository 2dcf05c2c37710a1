//! In-memory spans recorded around calls into the repository's crates.
//!
//! A span has a name, a start and end (nanoseconds since the tracer was
//! created), the span that caused it, and the id of the request it
//! belongs to. Spans are only kept when tracing is on; timing itself
//! always happens, because the untraced run needs the same durations
//! for its end-to-end metrics. Spans are written out once, at the end.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One finished span.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub req: u64,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// A span that has started and not yet ended.
pub struct Open {
    id: u64,
    parent: u64,
    req: u64,
    name: String,
    start: Instant,
}

impl Open {
    /// The id children of this span name as their parent (0 when
    /// tracing is off).
    pub fn id(&self) -> u64 {
        self.id
    }
}

pub struct Tracer {
    on: bool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn begin(&self, name: impl Into<String>, parent: u64, req: u64) -> Open {
        let id = if self.on { self.next_id.fetch_add(1, Ordering::Relaxed) } else { 0 };
        let name = if self.on { name.into() } else { String::new() };
        Open { id, parent, req, name, start: Instant::now() }
    }

    /// Ends `open`, records it when tracing is on, and returns its
    /// duration.
    pub fn end(&self, open: Open) -> Duration {
        self.finish(open, Instant::now())
    }

    fn finish(&self, open: Open, end: Instant) -> Duration {
        let took = end.saturating_duration_since(open.start);
        if self.on {
            let ns = |t: Instant| (t - self.origin).as_nanos() as u64;
            let span = Span {
                id: open.id,
                parent: open.parent,
                req: open.req,
                name: open.name,
                start_ns: ns(open.start),
                end_ns: ns(end),
            };
            self.spans.lock().expect("span list lock poisoned").push(span);
        }
        took
    }

    /// Records a span whose start and end were taken elsewhere (for
    /// requests sent by one thread and answered on another).
    pub fn record(&self, name: &str, parent: u64, req: u64, start: Instant, end: Instant) {
        let mut open = self.begin(name, parent, req);
        open.start = start;
        self.finish(open, end);
    }

    /// Runs `f` inside a span and returns its result and duration.
    pub fn time<R>(
        &self,
        name: &str,
        parent: u64,
        req: u64,
        f: impl FnOnce() -> R,
    ) -> (R, Duration) {
        let open = self.begin(name, parent, req);
        let out = f();
        (out, self.end(open))
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list lock poisoned").clone()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans.lock().expect("span list lock poisoned").iter() {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"req\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.req, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Sum of the durations of the spans named `name`, in seconds.
pub fn total_secs(spans: &[Span], name: &str) -> f64 {
    spans.iter().filter(|s| s.name == name).map(Span::secs).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_only_record_when_on() {
        let t = Tracer::new(true);
        let outer = t.begin("outer", 0, 7);
        let (_, inner) =
            t.time("inner", outer.id(), 7, || std::thread::sleep(Duration::from_millis(2)));
        let outer_took = t.end(outer);
        assert!(outer_took >= inner);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, spans[1].id);
        assert!(total_secs(&spans, "inner") >= 0.002);

        let off = Tracer::new(false);
        let (_, took) = off.time("x", 0, 0, || ());
        assert!(off.spans().is_empty());
        assert!(took < Duration::from_secs(1));
    }
}
