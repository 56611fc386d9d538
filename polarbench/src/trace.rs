//! In-memory span recorder for the traced run.
//!
//! Every call the benchmark makes into a library layer goes through
//! [`Tracer::call`], which times it with two `Instant` reads. Those two
//! reads are all the untraced run pays, and it needs them anyway for its
//! end-to-end latencies. With tracing on, the same reads also become a
//! [`Span`] whose parent is the innermost span still open, so the
//! traced run costs one extra `Vec` push per call. Spans stay in memory
//! and are written out once, when the run ends.

use std::io::Write;
use std::time::{Duration, Instant};

const NO_PARENT: u32 = u32::MAX;

/// One timed call: `name` is `layer.function`, `group` the letter or
/// drain-round id every span of one unit of work shares.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub group: u64,
}

impl Span {
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle to a span opened with [`Tracer::open`].
#[derive(Debug, Clone, Copy)]
pub struct Open {
    index: u32,
    start: Instant,
}

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    /// Whether an enabled tracer records spans right now.
    recording: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    /// A tracer that records spans if `enabled`, until told otherwise.
    pub fn new(enabled: bool) -> Tracer {
        let (recording, origin) = (enabled, Instant::now());
        Tracer { enabled, recording, origin, spans: Vec::new(), stack: Vec::new() }
    }

    /// Whether this is a traced run.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Record spans of the next units of work or not, so that a traced
    /// run can interleave traced and untraced units. Only between units.
    pub fn set_recording(&mut self, recording: bool) {
        assert!(self.stack.is_empty(), "a span is still open");
        self.recording = recording;
    }

    fn on(&self) -> bool {
        self.enabled && self.recording
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn ns(&self, at: Instant) -> u64 {
        at.duration_since(self.origin).as_nanos() as u64
    }

    fn parent(&self) -> u32 {
        self.stack.last().copied().unwrap_or(NO_PARENT)
    }

    /// Time one call into a layer; record it as a leaf span when on.
    pub fn call<T>(
        &mut self,
        name: &'static str,
        group: u64,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        if self.on() {
            let span = Span {
                name,
                start_ns: self.ns(start),
                end_ns: self.ns(end),
                parent: self.parent(),
                group,
            };
            self.spans.push(span);
        }
        (out, end - start)
    }

    /// Open a span that later calls nest under.
    pub fn open(&mut self, name: &'static str, group: u64) -> Open {
        let start = Instant::now();
        let index = self.spans.len() as u32;
        if self.on() {
            let at = self.ns(start);
            let parent = self.parent();
            self.spans.push(Span { name, start_ns: at, end_ns: at, parent, group });
            self.stack.push(index);
        }
        Open { index, start }
    }

    /// Close a span opened with [`open`](Self::open); returns its length.
    pub fn close(&mut self, open: Open) -> Duration {
        let end = Instant::now();
        if self.on() {
            let popped = self.stack.pop();
            assert_eq!(popped, Some(open.index), "spans must close innermost first");
            let at = self.ns(end);
            self.spans[open.index as usize].end_ns = at;
        }
        end - open.start
    }

    /// Per-span self time: the span's length minus its children's.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::ns).collect();
        for s in &self.spans {
            if s.parent != NO_PARENT {
                let p = s.parent as usize;
                own[p] = own[p].saturating_sub(s.ns());
            }
        }
        own
    }

    /// Summed self time per layer, in first-seen order.
    pub fn layer_self_ns(&self) -> Vec<(&'static str, u64)> {
        let mut out: Vec<(&'static str, u64)> = Vec::new();
        for (s, own) in self.spans.iter().zip(self.self_ns()) {
            match out.iter_mut().find(|(l, _)| *l == s.layer()) {
                Some(entry) => entry.1 += own,
                None => out.push((s.layer(), own)),
            }
        }
        out
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = if s.parent == NO_PARENT { -1 } else { i64::from(s.parent) };
            writeln!(
                w,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"group\":{}}}",
                s.name, s.start_ns, s.end_ns, parent, s.group
            )?;
        }
        w.flush()
    }
}
