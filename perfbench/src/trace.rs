//! In-memory spans recorded by the benchmark around its calls into each
//! layer, and the self-time arithmetic over them.
//!
//! A span's layer is the part of its name before the first `.`
//! (`codegen.generate` belongs to `codegen`).  A layer's self time is the
//! sum, over its spans, of each span's duration minus the part of that
//! interval its child spans cover.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub job: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A single-thread span recorder.  A disabled tracer runs the same calls
/// and records nothing, which is how the untraced passes are timed.
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    next_id: Cell<u64>,
    spans: RefCell<Vec<Span>>,
}

impl Tracer {
    /// `id_base` keeps ids unique when several threads' tracers are merged.
    pub fn new(origin: Instant, enabled: bool, id_base: u64) -> Self {
        Tracer {
            origin,
            enabled,
            next_id: Cell::new(id_base),
            spans: RefCell::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// The instant span times count from.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `call` inside a span; `call` receives the span's id, the
    /// parent for spans it opens itself (`None` when disabled).
    pub fn span<T>(
        &self,
        name: &'static str,
        job: u64,
        parent: Option<u64>,
        call: impl FnOnce(Option<u64>) -> T,
    ) -> T {
        if !self.enabled {
            return call(None);
        }
        let id = self.fresh_id();
        let start_ns = self.now_ns();
        let out = call(Some(id));
        let end_ns = self.now_ns();
        self.spans.borrow_mut().push(Span {
            id,
            parent,
            job,
            name,
            start_ns,
            end_ns,
        });
        out
    }

    /// Records a span whose bounds were observed elsewhere (batch
    /// boundaries reported by a progress callback).
    pub fn record(
        &self,
        name: &'static str,
        job: u64,
        parent: Option<u64>,
        start_ns: u64,
        end_ns: u64,
    ) {
        if self.enabled {
            let id = self.fresh_id();
            self.spans.borrow_mut().push(Span {
                id,
                parent,
                job,
                name,
                start_ns,
                end_ns,
            });
        }
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans.into_inner()
    }

    fn fresh_id(&self) -> u64 {
        let id = self.next_id.get() + 1;
        self.next_id.set(id);
        id
    }
}

/// Self time of every span, by id.
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for span in spans {
        if let Some(parent) = span.parent {
            children
                .entry(parent)
                .or_default()
                .push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .map(|span| {
            let covered = children
                .get(&span.id)
                .map_or(0, |kids| covered_ns(span.start_ns, span.end_ns, kids));
            (span.id, span.duration_ns().saturating_sub(covered))
        })
        .collect()
}

/// Total self time per layer.
pub fn layer_self_ns(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let own = self_times(spans);
    let mut out = BTreeMap::new();
    for span in spans {
        *out.entry(span.layer()).or_insert(0) += own[&span.id];
    }
    out
}

/// How much of `[start, end)` the union of `intervals` covers.
fn covered_ns(start: u64, end: u64, intervals: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for (s, e) in clipped {
        current = match current {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + current.map_or(0, |(s, e)| e - s)
}

/// Spans as JSON lines, one object per span.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let parent = s
            .parent
            .map_or_else(|| "null".to_owned(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\":{},\"parent\":{parent},\"job\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.job, s.name, s.start_ns, s.end_ns
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            job: 1,
            name,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children_clipped_to_the_parent() {
        let spans = [
            span(1, None, "job", 0, 100),
            // Overlapping children (parallel work) count once.
            span(2, Some(1), "core.run", 10, 30),
            span(3, Some(1), "core.run", 20, 50),
            // A child running past its parent only covers the overlap.
            span(4, Some(1), "store.save", 90, 120),
            span(5, Some(2), "sim.run", 12, 18),
        ];
        let own = self_times(&spans);
        assert_eq!(own[&1], 100 - 40 - 10);
        assert_eq!(own[&2], 20 - 6);
        assert_eq!(own[&3], 30);
        assert_eq!(own[&4], 30);
        assert_eq!(own[&5], 6);
        let layers = layer_self_ns(&spans);
        assert_eq!(layers["job"], 50);
        assert_eq!(layers["core"], 44);
        assert_eq!(layers["store"], 30);
        assert_eq!(layers["sim"], 6);
        // Self times partition the root's wall time when children nest.
        let nested = [
            span(1, None, "job", 0, 100),
            span(2, Some(1), "core.run", 10, 60),
            span(3, Some(2), "sim.run", 20, 40),
        ];
        let total: u64 = layer_self_ns(&nested).values().sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn tracer_links_children_to_parents_and_disabled_records_nothing() {
        let tracer = Tracer::new(Instant::now(), true, 100);
        let got = tracer.span("job", 7, None, |root| {
            tracer.span("core.run", 7, root, |_| 41) + 1
        });
        assert_eq!(got, 42);
        let spans = tracer.into_spans();
        assert_eq!(spans.len(), 2);
        let (child, root) = (&spans[0], &spans[1]);
        assert_eq!(root.name, "job");
        assert_eq!(child.parent, Some(root.id));
        assert!(root.id > 100 && child.id > 100);
        assert!(root.start_ns <= child.start_ns && child.end_ns <= root.end_ns);
        assert!(to_jsonl(&spans).contains("\"name\":\"core.run\""));

        let off = Tracer::new(Instant::now(), false, 0);
        assert_eq!(off.span("job", 1, None, |id| id), None);
        off.record("core.epoch", 1, None, 0, 5);
        assert!(off.into_spans().is_empty());
    }
}
