//! In-memory host-time spans recorded by the traced run around calls
//! into each layer's public functions. Nothing here reaches inside the
//! simulator: every span starts and ends in benchmark code.

use std::time::Instant;

/// One closed span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified name, e.g. `session.start`.
    pub name: &'static str,
    /// Identifier shared by the spans of one unit of work (a session or
    /// a fleet).
    pub trace: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Host nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Host nanoseconds since the recorder was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder: spans nest through [`Spans::time`].
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Spans {
    fn default() -> Self {
        Self::new()
    }
}

impl Spans {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`; spans `f` opens nest under it.
    pub fn time<T>(&mut self, name: &'static str, trace: u64, f: impl FnOnce(&mut Self) -> T) -> T {
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            trace,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Number of spans currently open.
    pub fn depth(&self) -> usize {
        self.open.len()
    }

    /// Close the bookkeeping of spans left open above `depth` by a
    /// panic, so later spans nest correctly.
    pub fn unwind_to(&mut self, depth: usize) {
        self.open.truncate(depth);
    }

    /// Attach a child of known duration to the span at `parent`. The
    /// fleet's own wall profile splits `run_checked` into phases this
    /// way; the phases are laid end to end from the parent's start.
    pub fn add_child(&mut self, parent: usize, name: &'static str, ns: u64) {
        let p = &self.spans[parent];
        let offset: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(parent))
            .map(Span::ns)
            .sum();
        let start_ns = p.start_ns + offset;
        let trace = p.trace;
        self.spans.push(Span {
            name,
            trace,
            parent: Some(parent),
            start_ns,
            end_ns: start_ns + ns,
        });
    }

    /// Index of the most recently closed or opened span named `name`.
    pub fn last(&self, name: &str) -> Option<usize> {
        self.spans.iter().rposition(|s| s.name == name)
    }

    /// All recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total nanoseconds of spans named `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ns)
            .sum()
    }

    /// Number of spans named `name`.
    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Self time of span `i`: its duration minus what its children cover.
    pub fn self_ns(&self, i: usize) -> u64 {
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(i))
            .map(Span::ns)
            .sum();
        self.spans[i].ns().saturating_sub(children)
    }

    /// Nanoseconds covered by leaf spans (spans with no children). Wall
    /// time minus this is what no timed span covers, where a later
    /// in-program span would have to go.
    pub fn leaf_ns(&self) -> u64 {
        let mut has_child = vec![false; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                has_child[p] = true;
            }
        }
        self.spans
            .iter()
            .zip(has_child)
            .filter(|(_, parent)| !parent)
            .map(|(s, _)| s.ns())
            .sum()
    }

    /// Per-name `(name, count, total ns, self ns)`, in first-seen order.
    pub fn summary(&self) -> Vec<(&'static str, usize, u64, u64)> {
        let mut rows: Vec<(&'static str, usize, u64, u64)> = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            let self_ns = self.self_ns(i);
            match rows.iter_mut().find(|r| r.0 == s.name) {
                Some(r) => {
                    r.1 += 1;
                    r.2 += s.ns();
                    r.3 += self_ns;
                }
                None => rows.push((s.name, 1, s.ns(), self_ns)),
            }
        }
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_account_self_time() {
        let mut sp = Spans::new();
        sp.time("root", 7, |sp| {
            sp.time("leaf", 7, |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let root = sp.last("root").unwrap();
        let leaf = sp.last("leaf").unwrap();
        assert_eq!(sp.spans()[leaf].parent, Some(root));
        assert_eq!(sp.spans()[leaf].trace, 7);
        assert!(sp.spans()[leaf].ns() >= 2_000_000);
        assert_eq!(sp.leaf_ns(), sp.spans()[leaf].ns());
        sp.add_child(leaf, "phase", 1_000);
        assert_eq!(sp.self_ns(leaf), sp.spans()[leaf].ns() - 1_000);
        assert_eq!(sp.count("phase"), 1);
    }
}
