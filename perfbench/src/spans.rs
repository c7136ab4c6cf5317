//! Host-clock spans around the benchmark's calls into the program.
//!
//! A traced run records one span per public call (`DistGraph::build`,
//! `dist::adjacency`, `bfs2d::try_run`, `validate_levels`,
//! `BglServer::submit`, `BglServer::pump`, …) under a parent span for the
//! operation it serves. Spans of one search or query share a run id.
//! They are kept in memory and written out as JSON when the run ends.
//! An untraced run keeps none.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = usize;

/// One host-clock interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// The call or operation timed.
    pub name: &'static str,
    /// Shared by the spans of one operation: `(kind, index)`, rendered
    /// `kind-index` (`search-3`, `query-17`, `setup-0`, `tick-42`).
    pub run: (&'static str, u64),
    /// The enclosing span.
    pub parent: Option<SpanId>,
    /// Seconds since the recorder was created.
    pub start_s: f64,
    /// Seconds since the recorder was created.
    pub end_s: f64,
}

/// In-memory span store; a disabled store records nothing.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Spans {
    /// A store that records when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Self {
            epoch: Instant::now(),
            enabled,
            spans: Vec::new(),
        }
    }

    /// Open a span at `start`; its end is set by [`Spans::close`].
    pub fn open(
        &mut self,
        name: &'static str,
        run: (&'static str, u64),
        parent: Option<SpanId>,
        start: Instant,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let at = start.duration_since(self.epoch).as_secs_f64();
        self.spans.push(Span {
            name,
            run,
            parent,
            start_s: at,
            end_s: at,
        });
        Some(self.spans.len() - 1)
    }

    /// Set the end of an opened span.
    pub fn close(&mut self, id: Option<SpanId>, end: Instant) {
        if let Some(i) = id {
            self.spans[i].end_s = end.duration_since(self.epoch).as_secs_f64();
        }
    }

    /// Record a closed span.
    pub fn record(
        &mut self,
        name: &'static str,
        run: (&'static str, u64),
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
    ) -> Option<SpanId> {
        let id = self.open(name, run, parent, start);
        self.close(id, end);
        id
    }

    /// The spans as one JSON document.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut out = format!("{{\"workload\": \"{workload}\", \"seed\": {seed}, \"spans\": [\n");
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\": {id}, \"parent\": {parent}, \"run\": \"{}-{}\", \"name\": \"{}\", \
                 \"start_s\": {}, \"end_s\": {}}}",
                s.run.0, s.run.1, s.name, s.start_s, s.end_s
            );
            out.push_str(if id + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("]}\n");
        out
    }

    /// Write [`Spans::to_json`] to `path`, creating its directory.
    pub fn write(&self, path: &Path, workload: &str, seed: u64) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, self.to_json(workload, seed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_store_records_nothing() {
        let mut s = Spans::new(false);
        let t = Instant::now();
        assert_eq!(s.record("x", ("search", 0), None, t, t), None);
        assert!(s.spans.is_empty());
    }

    #[test]
    fn children_point_at_their_parent() {
        let mut s = Spans::new(true);
        let t = Instant::now();
        let root = s.open("search", ("search", 1), None, t);
        let child = s.record("bfs2d::try_run", ("search", 1), root, t, Instant::now());
        s.close(root, Instant::now());
        assert_eq!(s.spans[child.unwrap()].parent, root);
        let json = s.to_json("w", 9);
        assert!(json.contains("\"run\": \"search-1\""));
        assert!(json.contains("\"parent\": 0"));
    }
}
