//! The benchmark's own host-time spans.
//!
//! These are recorded from outside the program, around each call the
//! replays make into a layer (spans inside the program are a later
//! change). A span has a name, start, end, the span that caused it and
//! the request it belongs to. Spans are kept in memory and written as
//! Chrome trace JSON when the benchmark ends; per-name totals and self
//! times (a span's duration minus the part its children cover) are
//! accumulated for every span, including those past the retention cap.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

use crate::host::NsSamples;

/// Spans retained for the Chrome export; later ones still count in the
/// per-name totals but are not kept.
const RETAINED: usize = 1 << 20;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the causing span among the retained ones.
    pub parent: Option<u32>,
    /// The request (op) this span belongs to; 0 outside any request.
    pub request: u64,
}

#[derive(Debug, Default, Clone, Copy)]
pub struct NameTotal {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

struct Open {
    name: &'static str,
    start_ns: u64,
    children_ns: u64,
    retained: Option<u32>,
}

pub struct SpanLog {
    origin: Instant,
    retained: Vec<Span>,
    dropped: u64,
    open: Vec<Open>,
    request: u64,
    totals: BTreeMap<&'static str, NameTotal>,
}

impl SpanLog {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            // Reserved up front so recording never allocates while a
            // replay counts the program's allocations.
            retained: Vec::with_capacity(RETAINED),
            dropped: 0,
            open: Vec::new(),
            request: 0,
            totals: BTreeMap::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Sets the request id stamped on spans begun from now on.
    pub fn set_request(&mut self, request: u64) {
        self.request = request;
    }

    pub fn begin(&mut self, name: &'static str) {
        let retained = if self.retained.len() < RETAINED {
            let parent = self.open.last().and_then(|o| o.retained);
            self.retained.push(Span {
                name,
                start_ns: 0,
                end_ns: 0,
                parent,
                request: self.request,
            });
            Some((self.retained.len() - 1) as u32)
        } else {
            self.dropped += 1;
            None
        };
        // Read the clock last so bookkeeping stays outside the span.
        let start_ns = self.now_ns();
        self.open.push(Open {
            name,
            start_ns,
            children_ns: 0,
            retained,
        });
    }

    /// Ends the innermost open span and returns its duration in ns.
    pub fn end(&mut self) -> u64 {
        let end_ns = self.now_ns();
        let open = self.open.pop().expect("end() without a matching begin()");
        let duration = end_ns - open.start_ns;
        if let Some(index) = open.retained {
            let span = &mut self.retained[index as usize];
            span.start_ns = open.start_ns;
            span.end_ns = end_ns;
        }
        if let Some(parent) = self.open.last_mut() {
            parent.children_ns += duration;
        }
        let total = self.totals.entry(open.name).or_default();
        total.count += 1;
        total.total_ns += duration;
        total.self_ns += duration.saturating_sub(open.children_ns);
        duration
    }

    /// Times `f` as a span named `name`, also recording the duration in
    /// `samples`.
    pub fn timed<T>(
        &mut self,
        name: &'static str,
        samples: &mut NsSamples,
        f: impl FnOnce() -> T,
    ) -> T {
        self.begin(name);
        let out = f();
        samples.push(self.end());
        out
    }

    /// Times `f` as a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.begin(name);
        let out = f();
        self.end();
        out
    }

    pub fn recorded(&self) -> u64 {
        self.retained.len() as u64 + self.dropped
    }

    /// The per-name table: count, total and self host time.
    pub fn print_table(&self, title: &str) {
        println!(
            "  host spans — {title} ({} recorded, {} past the retention cap)",
            self.recorded(),
            self.dropped
        );
        let mut rows: Vec<_> = self.totals.iter().collect();
        rows.sort_by(|a, b| b.1.total_ns.cmp(&a.1.total_ns).then(a.0.cmp(b.0)));
        for (name, t) in rows {
            println!(
                "    {:<28} n={:<9} total {:>10.3} ms  self {:>10.3} ms  mean {:>9.0} ns",
                name,
                t.count,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6,
                t.total_ns as f64 / t.count.max(1) as f64
            );
        }
    }

    /// Appends the retained spans as Chrome "complete" events (`ph: X`,
    /// microsecond timestamps) on thread `tid`.
    fn write_chrome(&self, out: &mut impl Write, tid: usize, first: &mut bool) -> io::Result<()> {
        for (i, s) in self.retained.iter().enumerate() {
            if !std::mem::take(first) {
                out.write_all(b",\n")?;
            }
            write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":0,\
                 \"tid\":{tid},\"args\":{{\"id\":{i},\"parent\":{},\"request\":{}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.parent
                    .map_or_else(|| "null".to_string(), |p| p.to_string()),
                s.request,
            )?;
        }
        Ok(())
    }
}

/// Writes the logs as one Chrome trace file, one thread lane per log
/// (named after it), loadable in `chrome://tracing` or Perfetto.
pub fn write_chrome_file(path: &str, logs: &[(&'static str, SpanLog)]) -> io::Result<()> {
    let mut out = io::BufWriter::new(std::fs::File::create(path)?);
    out.write_all(b"{\"traceEvents\":[\n")?;
    let mut first = true;
    for (tid, (title, log)) in logs.iter().enumerate() {
        if !std::mem::take(&mut first) {
            out.write_all(b",\n")?;
        }
        write!(
            out,
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{tid},\
             \"args\":{{\"name\":\"{title}\"}}}}"
        )?;
        log.write_chrome(&mut out, tid, &mut first)?;
    }
    out.write_all(b"\n]}\n")?;
    out.flush()
}
