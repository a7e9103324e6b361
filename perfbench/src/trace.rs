//! The traced run's span recorder. Spans are taken in the benchmark's
//! own code, around its calls into each layer's public functions; they
//! stay in memory and are written out once, when the run ends. With
//! tracing off every call is a branch on a flag and no clock is read.

use std::io::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Clone, Copy)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    /// Index of the enclosing span, if any.
    parent: Option<u32>,
}

/// An open span, returned by [`Tracer::enter`] and closed by
/// [`Tracer::exit`].
#[must_use]
pub struct Open(Option<u32>);

pub struct Tracer {
    on: bool,
    run: u64,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    /// A tracer for run `run`; records nothing unless `on`.
    pub fn new(on: bool, run: u64) -> Self {
        Self {
            on,
            run,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span named `name`, nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let idx = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    /// Close `open`, which must be the innermost open span.
    pub fn exit(&mut self, open: Open) {
        if let Some(idx) = open.0 {
            let end_ns = self.now_ns();
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(idx), "spans close innermost first");
            self.spans[idx as usize].end_ns = end_ns;
        }
    }

    /// Run `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.enter(name);
        let out = f();
        self.exit(open);
        out
    }

    /// Durations of the spans named `name` that lie inside a span named
    /// `within`, in recording order.
    pub fn durations(&self, name: &str, within: &str) -> Vec<Duration> {
        self.spans
            .iter()
            .filter(|s| s.name == name && self.inside(s, within))
            .map(|s| Duration::from_nanos(s.end_ns - s.start_ns))
            .collect()
    }

    /// Summed duration of the spans [`Tracer::durations`] selects.
    pub fn total(&self, name: &str, within: &str) -> Duration {
        self.durations(name, within).into_iter().sum()
    }

    fn inside(&self, span: &Span, within: &str) -> bool {
        let mut up = span.parent;
        while let Some(p) = up {
            let parent = &self.spans[p as usize];
            if parent.name == within {
                return true;
            }
            up = parent.parent;
        }
        false
    }

    /// Write every span as one tab-separated line: run id, span id,
    /// parent id (`-` for a root), name, start and end in ns since the
    /// run's epoch.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "run\tid\tparent\tname\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{}\t{i}\t{parent}\t{}\t{}\t{}",
                self.run, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}
