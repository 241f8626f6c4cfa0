//! In-memory span recorder for the traced run.
//!
//! The benchmark records a span around each block of calls it makes
//! into one of the program's layers (never around a single ns-scale
//! call). A span keeps its name, start, end and parent; spans stay in
//! memory and are written out once, after the run. In the untraced run
//! the recorder is disabled and every call is a branch on a bool.

use std::io::Write;
use std::time::Instant;

/// Prefixes of span names that stand for a layer of the program. Every
/// other span (`pass`, `gate`, ...) is the benchmark's own glue.
pub const LAYERS: &[&str] = &["libm", "posit", "serve", "mp", "core", "lp", "cert", "ref"];

/// One recorded span; times are ns since the recorder's epoch.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in [`Spans::all`], if any.
    pub parent: Option<usize>,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer this span belongs to, or `None` for benchmark glue.
    pub fn layer(&self) -> Option<&'static str> {
        let head = self.name.split('.').next().unwrap_or("");
        LAYERS.iter().copied().find(|l| *l == head)
    }
}

pub struct Spans {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an open span; pass it back to [`Spans::close`].
#[must_use]
pub struct Open(Option<usize>);

impl Spans {
    pub fn new(on: bool) -> Spans {
        Spans {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, name: impl Into<String>) -> Open {
        if !self.on {
            return Open(None);
        }
        let i = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.into(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(i);
        Open(Some(i))
    }

    pub fn close(&mut self, o: Open) {
        if let Some(i) = o.0 {
            let end = self.now_ns();
            assert_eq!(
                self.open.pop(),
                Some(i),
                "spans close in the order they open"
            );
            self.spans[i].end_ns = end;
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: impl Into<String>, f: impl FnOnce() -> R) -> R {
        let o = self.open(name);
        let r = f();
        self.close(o);
        r
    }

    pub fn all(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ns) of every closed span with exactly this name.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ns() as f64)
            .collect()
    }

    /// Share of the time inside spans named `root` that no layer span
    /// directly below it covers: the benchmark's own, unattributed time.
    pub fn unattributed_share(&self, root: &str) -> f64 {
        let mut total = 0u64;
        let mut layers = 0u64;
        for (i, s) in self.spans.iter().enumerate() {
            if s.name == root {
                total += s.ns();
                layers += self
                    .spans
                    .iter()
                    .filter(|c| c.parent == Some(i) && c.layer().is_some())
                    .map(Span::ns)
                    .sum::<u64>();
            }
        }
        if total == 0 {
            return 0.0;
        }
        1.0 - layers as f64 / total as f64
    }

    /// Writes every span as one JSON object per line, after a header
    /// line carrying the run's fingerprint.
    pub fn write_jsonl(&self, path: &str, header: &str) -> std::io::Result<()> {
        if let Some(dir) = std::path::Path::new(path).parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "{header}")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let mut s = Spans::new(false);
        s.time("libm.scalar.exp", || ());
        assert!(s.all().is_empty());
        assert_eq!(s.unattributed_share("pass"), 0.0);
    }

    #[test]
    fn parents_and_unattributed_time() {
        let mut s = Spans::new(true);
        let p = s.open("pass");
        s.time("libm.scalar.exp", || {
            std::thread::sleep(std::time::Duration::from_millis(4))
        });
        s.time("gate", || {
            std::thread::sleep(std::time::Duration::from_millis(4))
        });
        s.close(p);
        assert_eq!(s.all()[1].parent, Some(0));
        assert_eq!(s.all()[1].layer(), Some("libm"));
        assert_eq!(s.all()[2].layer(), None);
        let u = s.unattributed_share("pass");
        assert!(u > 0.3 && u < 0.7, "glue share {u}");
    }
}
