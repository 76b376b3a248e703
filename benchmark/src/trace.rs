//! Wall-clock spans recorded from the benchmark's own files, around the
//! calls into each layer.
//!
//! The program under test is single-threaded, so spans nest strictly: a
//! span's parent is whatever span was open when it started, and a layer's
//! self time is its span's duration minus its direct children's. Spans
//! stay in memory and are written out once, when the run ends.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

use pod_diagnosis::log::Json;

/// One finished span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `<layer>.<call>`, e.g. `gateway.submit`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, same clock.
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
    /// The tenant (operation index) the call served, when it served one.
    pub tenant: Option<usize>,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug)]
struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// A cloneable handle to one span recorder; `None` inside means tracing is
/// off and [`Tracer::span`] costs one branch.
#[derive(Debug, Clone)]
pub struct Tracer(Option<Rc<RefCell<Recorder>>>);

impl Tracer {
    /// A tracer that records.
    pub fn on() -> Tracer {
        Tracer(Some(Rc::new(RefCell::new(Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }))))
    }

    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer(None)
    }

    /// Runs `f` inside a span. The recorder is not borrowed while `f`
    /// runs, so `f` may open child spans through a clone of this handle.
    pub fn span<T>(&self, name: &'static str, tenant: Option<usize>, f: impl FnOnce() -> T) -> T {
        let Some(rec) = &self.0 else {
            return f();
        };
        let index = {
            let mut r = rec.borrow_mut();
            let index = r.spans.len();
            let parent = r.open.last().copied();
            r.open.push(index);
            let start_ns = r.origin.elapsed().as_nanos() as u64;
            r.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent,
                tenant,
            });
            index
        };
        let out = f();
        let mut r = rec.borrow_mut();
        r.spans[index].end_ns = r.origin.elapsed().as_nanos() as u64;
        r.open.pop();
        out
    }

    /// The spans recorded so far (empty when tracing is off).
    pub fn spans(&self) -> Vec<Span> {
        self.0
            .as_ref()
            .map_or_else(Vec::new, |rec| rec.borrow().spans.clone())
    }
}

/// Per span name: summed duration and summed self time (duration minus
/// direct children), in nanoseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    /// Spans of this name.
    pub count: u64,
    /// Σ duration.
    pub total_ns: u64,
    /// Σ (duration − direct children's durations).
    pub self_ns: u64,
}

/// Aggregates spans by name.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut children_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children_ns[p] += s.duration_ns();
        }
    }
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (s, children) in spans.iter().zip(children_ns) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.duration_ns();
        t.self_ns += s.duration_ns().saturating_sub(children);
    }
    out
}

/// Share of the root spans' time that their direct children cover: how
/// much of the traced interval carries a layer's name.
pub fn coverage(spans: &[Span]) -> f64 {
    let (mut roots, mut covered) = (0u64, 0u64);
    for s in spans {
        match s.parent {
            None => roots += s.duration_ns(),
            Some(p) if spans[p].parent.is_none() => covered += s.duration_ns(),
            Some(_) => {}
        }
    }
    crate::stats::ratio(covered as f64, roots as f64)
}

/// The spans as a JSON array of `{name, start_ns, end_ns, parent, tenant}`.
pub fn to_json(spans: &[Span]) -> Json {
    let index = |i: Option<usize>| i.map_or(Json::Null, |i| Json::Number(i as f64));
    Json::Array(
        spans
            .iter()
            .map(|s| {
                let mut o = Json::object();
                o.set("name", Json::str(s.name));
                o.set("start_ns", Json::Number(s.start_ns as f64));
                o.set("end_ns", Json::Number(s.end_ns as f64));
                o.set("parent", index(s.parent));
                o.set("tenant", index(s.tenant));
                o
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            tenant: None,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        // root 0..100 › a 10..40 › a.inner 15..25 ; root › b 50..90 ; root › a 90..95
        let spans = [
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("a.inner", 15, 25, Some(1)),
            span("b", 50, 90, Some(0)),
            span("a", 90, 95, Some(0)),
        ];
        let t = totals_by_name(&spans);
        // Siblings a + b + a cover 75 of the root's 100; the grandchild
        // is charged to `a`, not to the root.
        assert_eq!(t["root"].self_ns, 25);
        assert_eq!(
            t["a"],
            NameTotals {
                count: 2,
                total_ns: 35,
                self_ns: 25
            }
        );
        assert_eq!(t["a.inner"].self_ns, 10);
        assert_eq!(t["b"].self_ns, 40);
        let self_sum: u64 = t.values().map(|n| n.self_ns).sum();
        assert_eq!(self_sum, 100, "self times partition the root");
        assert_eq!(coverage(&spans), 0.75);
    }

    #[test]
    fn tracer_links_children_to_the_open_span() {
        let tracer = Tracer::on();
        let inner = tracer.clone();
        let out = tracer.span("outer", None, || {
            inner.span("inner", Some(3), || 7) + inner.span("inner", Some(4), || 1)
        });
        assert_eq!(out, 8);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[1].tenant, Some(3));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[2].end_ns <= spans[0].end_ns);
        assert!(spans[1].end_ns <= spans[2].start_ns);
    }

    #[test]
    fn tracer_off_runs_the_closure_and_records_nothing() {
        let tracer = Tracer::off();
        assert_eq!(tracer.span("x", None, || 5), 5);
        assert!(tracer.spans().is_empty());
        assert_eq!(coverage(&[]), 0.0);
    }

    #[test]
    fn json_carries_every_field() {
        let mut s = span("gateway.submit", 5, 9, Some(0));
        s.tenant = Some(2);
        let doc = to_json(&[span("bench.replay", 0, 10, None), s]).to_string();
        let parsed = Json::parse(&doc).unwrap();
        let items = parsed.as_array().unwrap();
        assert_eq!(items[0].get("parent"), Some(&Json::Null));
        assert_eq!(
            items[1].get("name").unwrap().as_str(),
            Some("gateway.submit")
        );
        assert_eq!(items[1].get("end_ns").unwrap().as_f64(), Some(9.0));
        assert_eq!(items[1].get("tenant").unwrap().as_f64(), Some(2.0));
    }
}
