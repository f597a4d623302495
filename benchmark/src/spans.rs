//! The harness's own tracing: nanosecond spans around the calls into each
//! layer, kept in memory and written out when the run ends.
//!
//! Spans are recorded from outside the program — the crates under
//! `crates/` are not touched — so a span is one call through a layer's
//! public function. A layer's *self time* is its span's duration minus
//! the part of that interval its child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span. `id` is 1-based; `parent == 0` marks a root.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.probe`.
    pub name: &'static str,
    /// 1-based identifier, unique within a run.
    pub id: u32,
    /// The span that caused this one (`0` for a root).
    pub parent: u32,
    /// The operation the span belongs to (join repetition, TCP join,
    /// insert ordinal): spans of one request share it.
    pub request: u32,
    /// Nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the recorder's epoch.
    pub end_ns: u64,
}

impl Span {
    /// `end − start`.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle of an open span, returned by [`Recorder::enter`].
#[derive(Debug, Clone, Copy)]
pub struct Open(u32);

/// In-memory span recorder for one single-threaded run.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    request: u32,
}

impl Default for Recorder {
    fn default() -> Recorder {
        Recorder::new()
    }
}

impl Recorder {
    /// An empty recorder; its epoch is now.
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            request: 0,
        }
    }

    /// Sets the request id stamped on spans entered from now on.
    pub fn set_request(&mut self, request: u32) {
        self.request = request;
    }

    /// Opens a span as a child of the innermost open span.
    #[inline]
    pub fn enter(&mut self, name: &'static str) -> Open {
        let id = self.spans.len() as u32 + 1;
        let parent = self.stack.last().copied().unwrap_or(0);
        self.stack.push(id);
        // The clock is read last, so the bookkeeping above lands in the
        // parent's self time, not in this span.
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            id,
            parent,
            request: self.request,
            start_ns,
            end_ns: start_ns,
        });
        Open(id)
    }

    /// Closes `open`, which must be the innermost open span.
    #[inline]
    pub fn exit(&mut self, open: Open) {
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(open.0), "spans close innermost first");
        self.spans[open.0 as usize - 1].end_ns = end_ns;
    }

    /// The instant span times count from; worker threads stamp their own
    /// calls against it and hand them to [`Recorder::record_child`].
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Records a span that was timed elsewhere (on a worker thread) as a
    /// child of `parent`, which may already be closed. Children recorded
    /// this way may overlap each other; [`self_times_ns`] subtracts their
    /// cover once.
    pub fn record_child(&mut self, parent: Open, name: &'static str, start_ns: u64, end_ns: u64) {
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            name,
            id,
            parent: parent.0,
            request: self.request,
            start_ns,
            end_ns,
        });
    }

    /// Every span recorded so far, in entry order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Drops every span whose index is `keep_from` or later — how a
    /// caller discards the spans of a repetition it only aggregated.
    pub fn truncate(&mut self, keep_from: usize) {
        debug_assert!(self.stack.is_empty(), "truncate between requests");
        self.spans.truncate(keep_from);
    }
}

/// Self time of every span, aligned with `spans`: duration minus the part
/// of its interval covered by its direct children (overlapping children
/// are merged, so concurrent children are not subtracted twice).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let index_of: BTreeMap<u32, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(&p) = index_of.get(&span.parent) {
            let parent = &spans[p];
            let lo = span.start_ns.max(parent.start_ns);
            let hi = span.end_ns.min(parent.end_ns);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, span.start_ns);
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            span.duration_ns() - covered
        })
        .collect()
}

/// Per-name samples of span self time, in nanoseconds, in entry order.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, Vec<f64>> {
    let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for (span, own) in spans.iter().zip(self_times_ns(spans)) {
        by_name.entry(span.name).or_default().push(own as f64);
    }
    by_name
}

/// Most spans a trace file holds; longer runs keep the first ones (whole
/// early requests) and say so in the file's header.
pub const TRACE_FILE_SPANS: usize = 200_000;

/// Writes `spans` to `<dir>/trace-<workload>.json` as `{"workload",
/// "total_spans", "truncated", "spans": [{name, id, parent, request,
/// start_ns, end_ns}, …]}`. No directory, no file; a failed write is
/// reported on standard error and does not fail the run (the metrics were
/// computed from memory).
pub fn write_trace(dir: Option<&Path>, workload: &str, spans: &[Span]) {
    let Some(dir) = dir else { return };
    let path = dir.join(format!("trace-{workload}.json"));
    if let Err(e) = write_trace_file(&path, workload, spans) {
        eprintln!("benchmark: could not write {}: {e}", path.display());
    }
}

fn write_trace_file(path: &Path, workload: &str, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    let kept = &spans[..spans.len().min(TRACE_FILE_SPANS)];
    write!(
        out,
        "{{\"workload\":\"{workload}\",\"total_spans\":{},\"truncated\":{},\"spans\":[",
        spans.len(),
        kept.len() < spans.len()
    )?;
    for (i, s) in kept.iter().enumerate() {
        let comma = if i == 0 { "" } else { "," };
        write!(
            out,
            "{comma}\n{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"request\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.name, s.id, s.parent, s.request, s.start_ns, s.end_ns
        )?;
    }
    writeln!(out, "\n]}}")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: "t",
            id,
            parent,
            request: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        // root [0,100] with children [10,30], [20,50] (overlapping: cover
        // 40, not 50) and [60,70]; [20,50] has its own child [25,35].
        let spans = vec![
            span(1, 0, 0, 100),
            span(2, 1, 10, 30),
            span(3, 1, 20, 50),
            span(4, 3, 25, 35),
            span(5, 1, 60, 70),
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 20, 20, 10, 10]);
    }

    #[test]
    fn recorder_nests_and_stamps_requests() {
        let mut rec = Recorder::new();
        rec.set_request(7);
        let outer = rec.enter("outer");
        let inner = rec.enter("inner");
        rec.exit(inner);
        rec.exit(outer);
        let next = rec.enter("next");
        rec.exit(next);
        let s = rec.spans();
        assert_eq!((s[0].id, s[0].parent, s[0].request), (1, 0, 7));
        assert_eq!((s[1].id, s[1].parent), (2, 1));
        assert_eq!((s[2].id, s[2].parent), (3, 0));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        let own = self_times_ns(s);
        assert_eq!(own[0], s[0].duration_ns() - s[1].duration_ns());
    }

    #[test]
    fn worker_spans_become_children_of_the_open_span() {
        let mut rec = Recorder::new();
        let root = rec.enter("root");
        let a = rec.epoch().elapsed().as_nanos() as u64;
        rec.exit(root);
        // Two overlapping worker calls inside the (closed) root.
        rec.record_child(root, "worker", a, a + 1);
        rec.record_child(root, "worker", a, a + 1);
        let s = rec.spans();
        assert_eq!(
            (s[1].name, s[1].parent, s[2].parent),
            ("worker", s[0].id, s[0].id)
        );
        let covered = s[0].duration_ns().min(1);
        assert_eq!(self_times_ns(s)[0], s[0].duration_ns() - covered);
    }
}
