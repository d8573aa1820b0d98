//! In-memory spans recorded around the benchmark's calls into the
//! compiler's public functions, in the style of Dapper (Sigelman et
//! al., 2010): name, start, end, parent span and request id.
//!
//! All spans are opened on the client thread, strictly nested, so a
//! span's children never overlap and its self time is its duration
//! minus theirs. A call whose work runs on other threads (the service's
//! `drain`) can be given children after it returns: intervals the
//! program itself reported, such as a request's milestones. A disabled
//! tracer runs the wrapped call and records nothing.

use std::io::Write as _;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer-qualified call name, e.g. `parser.parse`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// Request the span belongs to (0 for work not tied to one request).
    pub req: u64,
    /// A count measured at the same boundary (bytes parsed, nodes
    /// built), 0 when none.
    pub count: u64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Span recorder for one run.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    last_closed: Option<usize>,
}

impl Tracer {
    /// A tracer, recording or not.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            last_closed: None,
        }
    }

    /// Starts or stops recording (between spans only).
    pub fn set(&mut self, on: bool) {
        assert!(self.open.is_empty(), "tracing toggled inside a span");
        self.on = on;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, req: u64, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            req,
            count: 0,
        });
        self.open.push(idx as u32);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        self.last_closed = Some(idx);
        out
    }

    /// Index of the span that closed last, if recording.
    pub fn last_closed(&self) -> Option<usize> {
        self.last_closed.filter(|_| self.on)
    }

    /// Records an interval the program reported, `start..end`, as a
    /// child of span `parent`, clipped to that span and to the end of
    /// its children so far, so children stay disjoint: reported in
    /// order of start, overlapping intervals add up to their union. An
    /// interval that clips to nothing is not recorded.
    pub fn reported(&mut self, parent: usize, name: &'static str, start: Instant, end: Instant) {
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        let p = self.spans[parent];
        // Children are recorded after their parent.
        let taken = self.spans[parent + 1..]
            .iter()
            .filter(|s| s.parent == Some(parent as u32))
            .map(|s| s.end_ns)
            .max()
            .unwrap_or(p.start_ns);
        let start_ns = ns(start).max(taken);
        let end_ns = ns(end).min(p.end_ns);
        if start_ns < end_ns {
            self.spans.push(Span {
                name,
                start_ns,
                end_ns,
                parent: Some(parent as u32),
                req: p.req,
                count: 0,
            });
        }
    }

    /// Attaches a count to the span that closed last.
    pub fn count_last(&mut self, count: u64) {
        if let (true, Some(i)) = (self.on, self.last_closed) {
            self.spans[i].count = count;
        }
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ms) of the spans named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.named(name).map(Span::ms).collect()
    }

    /// Total duration (ms) and total count of the spans named `name`.
    pub fn totals(&self, name: &str) -> (f64, u64) {
        self.named(name)
            .fold((0.0, 0), |(ms, n), s| (ms + s.ms(), n + s.count))
    }

    fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Self time of every span (ns): its duration minus its children's.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p as usize] -= s.end_ns - s.start_ns;
            }
        }
        own
    }

    /// The share of root-span time the trace cannot attribute: the
    /// self time of the root spans (the client's glue between calls)
    /// plus the self time of the `opaque` spans, calls whose work runs
    /// elsewhere and is explained only by the intervals the program
    /// reported inside them.
    pub fn unexplained_share(&self, opaque: &[&str]) -> f64 {
        let own = self.self_times_ns();
        let (mut unexplained, mut total) = (0u64, 0u64);
        for (s, own) in self.spans.iter().zip(own) {
            if s.parent.is_none() {
                total += s.end_ns - s.start_ns;
            }
            if s.parent.is_none() || opaque.contains(&s.name) {
                unexplained += own;
            }
        }
        if total == 0 {
            0.0
        } else {
            unexplained as f64 / total as f64
        }
    }

    /// Writes the spans as one JSON object per line, with self times.
    ///
    /// # Errors
    ///
    /// Any I/O error creating or writing the file.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, (s, own)) in self.spans.iter().zip(self.self_times_ns()).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{own},\"parent\":{parent},\"req\":{},\"count\":{}}}",
                s.name, s.start_ns, s.end_ns, s.req, s.count
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_give_self_times_and_unexplained_share() {
        let mut tr = Tracer::new(true);
        tr.span("request", 1, |tr| {
            tr.span("a", 1, |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            tr.count_last(7);
            tr.span("b", 1, |tr| tr.span("c", 1, |_| ()));
        });
        let spans = tr.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[3].parent, Some(2));
        assert_eq!(tr.totals("a").1, 7);
        let own = tr.self_times_ns();
        let root = spans[0].end_ns - spans[0].start_ns;
        let children: u64 = spans[1..3].iter().map(|s| s.end_ns - s.start_ns).sum();
        assert_eq!(own[0], root - children);
        let share = tr.unexplained_share(&[]);
        assert!((0.0..0.5).contains(&share), "{share}");
    }

    #[test]
    fn opaque_spans_are_explained_only_by_reported_intervals() {
        let mut tr = Tracer::new(true);
        let sleep = |ms| std::thread::sleep(std::time::Duration::from_millis(ms));
        let (mut mid, mut drain) = (None, None);
        tr.span("request", 1, |tr| {
            tr.span("drain", 1, |_| {
                sleep(4);
                mid = Some(Instant::now());
                sleep(4);
            });
            drain = tr.last_closed();
        });
        let drain = drain.unwrap();
        assert_eq!(tr.spans()[drain].name, "drain");
        let opaque = tr.unexplained_share(&["drain"]);
        assert!(opaque > 0.99, "nothing inside drain is reported: {opaque}");
        // The second half is reported; an interval overlapping it, or
        // starting before the span, is clipped.
        let (mid, far) = (
            mid.unwrap(),
            Instant::now() + std::time::Duration::from_secs(1),
        );
        tr.reported(drain, "second_half", mid, far);
        tr.reported(drain, "overlap", mid, far);
        assert_eq!(tr.spans().len(), 3);
        assert_eq!(tr.spans()[2].end_ns, tr.spans()[drain].end_ns);
        let share = tr.unexplained_share(&["drain"]);
        assert!((0.3..0.7).contains(&share), "{share}");
        assert!(tr.unexplained_share(&[]) < 0.01);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        assert_eq!(tr.span("x", 0, |_| 5), 5);
        tr.count_last(3);
        assert!(tr.spans().is_empty());
        assert_eq!(tr.last_closed(), None);
        assert_eq!(tr.unexplained_share(&[]), 0.0);
    }
}
