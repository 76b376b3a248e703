//! The annotated line as central storage keeps it.
//!
//! A [`LogEvent`] owns a dozen heap blocks: five strings, two vectors and
//! every tag, field key and value, plus its context's strings. Most of that
//! repeats what the line already holds: a capture is a substring of
//! `@message`, the process and trace ids are the same for every line of an
//! execution, and the step is one of the rule book's names. A
//! [`StoredLine`] shares the ids and the step, moves the message into one
//! text buffer, and keeps every other part of the event, in order, as a
//! span: into a shared string it equals, into the message or a shared
//! string that holds it if it is a value, and else into the text, where it
//! is appended. Read back in order, the parts render the same event.

use std::ops::Range;
use std::sync::Arc;

use pod_obs::EventAttrs;
use pod_sim::SimTime;

use crate::event::{LogEvent, ProcessContext, Severity};
use crate::matcher::RuleBook;
use crate::storage::LogRecord;

/// One line, stored: built once from the annotated [`LogEvent`] by moving
/// its `@message` into the front of its text buffer, read through
/// accessors, and rendered back into an equal event (`==` and `{:?}` alike)
/// when a query reads it. Three heap blocks, whatever the line carries: the
/// text, the span table and, when shared, the `Arc` around it.
///
/// # Examples
///
/// ```
/// use pod_log::{Boundary, LineRule, LogEvent, LogRecord, ProcessAnnotator, RuleBook, Stage,
///     StoredLine, Trigger};
/// use pod_sim::SimTime;
///
/// let mut rules = RuleBook::new();
/// let ready = r"Instance (?P<instanceid>i-[0-9a-f]+) is ready";
/// rules.push(LineRule::new("new-instance-ready", Boundary::End, &[ready]).unwrap());
/// let mut annotator = ProcessAnnotator::new(rules.clone(), "rolling-upgrade", "run-1");
/// let line = LogEvent::new(SimTime::ZERO, "asgard.log", "Instance i-7 is ready");
/// let Trigger::Conformance(annotated) = annotator.process(line).triggers.remove(0) else {
///     panic!()
/// };
/// let stored = StoredLine::new(annotated.clone(), &rules);
/// assert_eq!(stored.step(), Some("new-instance-ready"));
/// assert_eq!(stored.field("processinsid"), Some("run-1"));
/// assert_eq!(stored.cloud_instance(), Some("i-7"));
/// assert_eq!(stored.render(), annotated);
/// ```
#[derive(Debug)]
pub struct StoredLine {
    timestamp: SimTime,
    severity: Severity,
    /// Whether the last span is the cloud instance the context names.
    cloud_instance: bool,
    /// `@message`, then each other part that is in no shared string nor,
    /// for a value, in the message.
    text: Box<str>,
    /// Where each part sits, in the event's order: the message, the
    /// source, the host and the type, the tags, each field's key and value,
    /// and last the cloud instance. A span addresses the trace id, the
    /// process id and the step, followed by `text`.
    spans: Spans,
    /// How many tags follow the first four spans.
    tags: usize,
    context: Option<StoredContext>,
}

/// A stored line's process context: the ids and the step shared.
#[derive(Debug)]
struct StoredContext {
    process_id: Arc<str>,
    process_instance_id: Arc<str>,
    step: Option<Arc<str>>,
}

/// The strings a span addresses before the text, in order: the trace id,
/// the process id and the step, each empty when the line lacks it.
fn shared(context: Option<&StoredContext>) -> [&str; 3] {
    context.map_or([""; 3], |ctx| {
        [
            &ctx.process_instance_id,
            &ctx.process_id,
            ctx.step.as_deref().unwrap_or_default(),
        ]
    })
}

/// The span table, `[start, end)` per part: narrow while the shared
/// strings and the line's text take less than 64 KiB, as every operation
/// line's do.
#[derive(Debug)]
enum Spans {
    Narrow(Box<[[u16; 2]]>),
    Wide(Box<[[usize; 2]]>),
}

impl Spans {
    fn len(&self) -> usize {
        match self {
            Spans::Narrow(spans) => spans.len(),
            Spans::Wide(spans) => spans.len(),
        }
    }

    fn get(&self, i: usize) -> Range<usize> {
        match self {
            Spans::Narrow(spans) => spans[i][0] as usize..spans[i][1] as usize,
            Spans::Wide(spans) => spans[i][0]..spans[i][1],
        }
    }
}

impl StoredLine {
    /// Stores `event`: its message moves into the text buffer, its step is
    /// `rules`' own copy of the name when `rules` knows it, and each other
    /// part becomes a span into the shared strings, the message or the
    /// text.
    pub fn new(event: LogEvent, rules: &RuleBook) -> StoredLine {
        let LogEvent {
            timestamp,
            source,
            source_host,
            event_type,
            tags,
            fields,
            message,
            severity,
            context,
        } = event;
        let (context, instance) = context.map_or((None, None), |ctx| {
            let step = ctx.step_id.map(|step| match rules.step(&step) {
                Some(shared) => Arc::clone(shared),
                None => Arc::from(step),
            });
            let context = StoredContext {
                process_id: ctx.process_id,
                process_instance_id: ctx.process_instance_id,
                step,
            };
            (Some(context), ctx.cloud_instance_id)
        });
        let names = [&source, &source_host, &event_type]
            .into_iter()
            .chain(&tags)
            .map(|name| (name.as_str(), NAME));
        let fields_parts = fields
            .iter()
            .flat_map(|(key, value)| [(key.as_str(), NAME), (value.as_str(), VALUE)]);
        let parts = names
            .chain(fields_parts)
            .chain(instance.as_deref().map(|id| (id, VALUE)));
        let part_count = 3 + tags.len() + 2 * fields.len() + usize::from(instance.is_some());
        let bytes = parts.clone().map(|(part, _)| part.len()).sum();
        let mut packer = Packer::new(message, shared(context.as_ref()), bytes);
        let spans = if u16::try_from(packer.bound).is_ok() {
            Spans::Narrow(packer.pack(parts, part_count, |at| at as u16))
        } else {
            Spans::Wide(packer.pack(parts, part_count, |at| at))
        };
        StoredLine {
            timestamp,
            severity,
            cloud_instance: instance.is_some(),
            text: packer.text.into_boxed_str(),
            spans,
            tags: tags.len(),
            context,
        }
    }

    /// The `i`-th part of the span table.
    fn part(&self, i: usize) -> &str {
        let mut span = self.spans.get(i);
        for shared in shared(self.context.as_ref()) {
            if span.end <= shared.len() {
                return &shared[span];
            }
            span = span.start - shared.len()..span.end - shared.len();
        }
        &self.text[span]
    }

    /// The original log line (`@message`).
    pub fn message(&self) -> &str {
        self.part(0)
    }

    /// Whether the line carries process context (the annotator matched it).
    pub fn is_annotated(&self) -> bool {
        self.context.is_some()
    }

    /// The step the annotator tagged the line with.
    pub fn step(&self) -> Option<&str> {
        self.shared_step().map(|step| &**step)
    }

    /// The step, as the line shares it: the rule book's copy of the name
    /// when the book knows it.
    pub fn shared_step(&self) -> Option<&Arc<str>> {
        self.context.as_ref()?.step.as_ref()
    }

    /// The cloud instance the annotator extracted from the line.
    pub fn cloud_instance(&self) -> Option<&str> {
        self.cloud_instance.then(|| self.part(self.spans.len() - 1))
    }

    /// The first value of field `key` in the rendered line, if present.
    pub fn field(&self, key: &str) -> Option<&str> {
        self.fields().find(|&(k, _)| k == key).map(|(_, v)| v)
    }

    /// The line's process context, built afresh.
    pub fn context(&self) -> Option<ProcessContext> {
        let ctx = self.context.as_ref()?;
        Some(ProcessContext {
            process_id: Arc::clone(&ctx.process_id),
            process_instance_id: Arc::clone(&ctx.process_instance_id),
            step_id: ctx.step.as_deref().map(str::to_string),
            cloud_instance_id: self.cloud_instance().map(str::to_string),
        })
    }

    /// The fields, in order.
    fn fields(&self) -> impl Iterator<Item = (&str, &str)> {
        let end = self.spans.len() - usize::from(self.cloud_instance);
        (4 + self.tags..end)
            .step_by(2)
            .map(|i| (self.part(i), self.part(i + 1)))
    }
}

impl LogRecord for StoredLine {
    fn render(&self) -> LogEvent {
        LogEvent {
            timestamp: self.timestamp,
            source: self.part(1).to_string(),
            source_host: self.part(2).to_string(),
            event_type: self.part(3).to_string(),
            tags: (4..4 + self.tags)
                .map(|i| self.part(i).to_string())
                .collect(),
            fields: self
                .fields()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            message: self.message().to_string(),
            severity: self.severity,
            context: self.context(),
        }
    }
}

/// A line's pending `log.line` causal root is the line itself: it is
/// named after its source, and its record keeps the line and renders its
/// `message`, then its `step` when annotated, only when read.
impl EventAttrs for StoredLine {
    fn render_attrs(&self, out: &mut Vec<(&'static str, String)>) {
        out.push(("message", self.message().to_string()));
        if let Some(step) = self.step() {
            out.push(("step", step.to_string()));
        }
    }

    fn root_name(&self) -> Option<&str> {
        Some(self.part(1))
    }
}

/// A part is a name (source, host, type, tag, field key), which at most
/// equals a shared string, or a value (field value, cloud instance), which
/// a capture or a shared string usually holds, so it is looked for there.
const NAME: bool = false;
const VALUE: bool = true;

/// Builds a line's text and spans: the message moved to the front of the
/// text, each part a span into a shared string it equals or else, for a
/// value, into the message or a shared string that holds it, each other
/// part appended.
struct Packer<'a> {
    text: String,
    message: usize,
    shared: [&'a str; 3],
    /// The largest position a span can hold.
    bound: usize,
}

impl<'a> Packer<'a> {
    /// A packer whose parts take at most `parts` bytes.
    fn new(mut message: String, shared: [&'a str; 3], parts: usize) -> Packer<'a> {
        message.reserve_exact(parts);
        let base = shared.iter().map(|s| s.len()).sum::<usize>();
        Packer {
            message: message.len(),
            bound: base + message.len() + parts,
            text: message,
            shared,
        }
    }

    /// Packs the message and then each of the `count` parts, writing each
    /// span's ends through `at`.
    fn pack<'p, P>(
        &mut self,
        parts: impl Iterator<Item = (&'p str, bool)>,
        count: usize,
        at: impl Fn(usize) -> P,
    ) -> Box<[[P; 2]]> {
        let base = self.shared.iter().map(|s| s.len()).sum::<usize>();
        let mut spans = Vec::with_capacity(1 + count);
        spans.push([at(base), at(base + self.message)]);
        for (part, value) in parts {
            // Equality first: it settles the context's tags and the trace
            // id in `processinsid` without a scan of the message.
            let mut found = self.find_shared(|shared| (shared == part).then_some(0));
            if found.is_none() && value {
                found = find(&self.text[..self.message], part)
                    .map(|i| base + i)
                    .or_else(|| self.find_shared(|shared| find(shared, part)));
            }
            let start = found.unwrap_or_else(|| {
                self.text.push_str(part);
                base + self.text.len() - part.len()
            });
            spans.push([at(start), at(start + part.len())]);
        }
        spans.into_boxed_slice()
    }

    /// Where `found` first finds its part in the shared strings.
    fn find_shared(&self, found: impl Fn(&str) -> Option<usize>) -> Option<usize> {
        let mut end = 0;
        self.shared.iter().find_map(|shared| {
            end += shared.len();
            found(shared).map(|i| end - shared.len() + i)
        })
    }
}

/// Where `needle` first occurs in `haystack`: [`str::find`] without its
/// searcher's set-up, which costs more than the scan for parts this short.
/// A match of a whole UTF-8 needle starts and ends on char boundaries.
fn find(haystack: &str, needle: &str) -> Option<usize> {
    let (haystack, needle) = (haystack.as_bytes(), needle.as_bytes());
    let Some((&first, rest)) = needle.split_first() else {
        return Some(0);
    };
    let mut from = 0;
    while let Some(at) = haystack[from..].iter().position(|&b| b == first) {
        let at = from + at;
        if haystack[at + 1..].starts_with(rest) {
            return Some(at);
        }
        from = at + 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn annotated(message: &str, tags: usize) -> LogEvent {
        let ctx = ProcessContext::new("rolling-upgrade", "run-1")
            .with_step("ready")
            .with_cloud_instance("i-7");
        let mut event = LogEvent::new(SimTime::ZERO, "asgard.log", message)
            .with_field("taskid", "run-1")
            .with_field("done", "3");
        event.tags = (0..tags).map(|i| format!("t{i}")).collect();
        event.with_context(ctx)
    }

    fn renders_back(event: &LogEvent) -> StoredLine {
        let line = StoredLine::new(event.clone(), &RuleBook::new());
        assert_eq!(&line.render(), event);
        assert_eq!(line.field("done"), Some("3"));
        assert_eq!(line.cloud_instance(), Some("i-7"));
        line
    }

    #[test]
    fn a_line_past_64_kib_takes_wide_spans() {
        let long = format!("{} Instance i-7 is ready", "x".repeat(70_000));
        let line = renders_back(&annotated(&long, 2));
        assert!(matches!(line.spans, Spans::Wide(_)));
        assert!(matches!(
            renders_back(&annotated("short", 2)).spans,
            Spans::Narrow(_)
        ));
    }

    #[test]
    fn a_line_is_its_own_causal_root() {
        let message = "Instance i-7 is ready";
        let line = renders_back(&annotated(message, 2));
        let rendered = |line: &StoredLine| {
            let mut out = Vec::new();
            line.render_attrs(&mut out);
            out
        };
        assert_eq!(line.root_name(), Some("asgard.log"));
        assert_eq!(
            rendered(&line),
            vec![
                ("message", message.to_string()),
                ("step", "ready".to_string())
            ]
        );
        let event = LogEvent::new(SimTime::ZERO, "asgard.log", "unknown output");
        let line = StoredLine::new(event, &RuleBook::new());
        assert_eq!(line.root_name(), Some("asgard.log"));
        assert_eq!(
            rendered(&line),
            vec![("message", "unknown output".to_string())]
        );
    }

    #[test]
    fn a_recorded_root_reads_its_name_from_its_line() {
        let line = Arc::new(renders_back(&annotated("Instance i-7 is ready", 2)));
        let obs = pod_obs::Obs::detached();
        obs.begin_run("t");
        obs.pending_root("log.line", &line).resolve();
        let records = obs.events().records();
        let name = records[0].name();
        assert_eq!(name, "asgard.log");
        assert!(
            std::ptr::eq(name.as_ptr(), line.part(1).as_ptr()),
            "the name is the line's own source, not a copy"
        );
    }

    #[test]
    fn the_context_tags_and_the_trace_id_cost_no_text() {
        let message = "Instance i-7 is ready";
        let event = annotated(message, 2);
        assert_eq!(event.tags, ["t0", "t1", "rolling-upgrade", "ready"]);
        let line = renders_back(&event);
        // The tags naming the process and the step, and the trace id in
        // `taskid` and `processinsid`, are spans into the shared strings;
        // `i-7` is one into the message. The rest is text.
        let text = [message, "asgard.log", "sim.local", "operation", "t0", "t1"].concat()
            + "taskid"
            + "done"
            + "3"
            + "processinsid"
            + "instanceid";
        assert_eq!(line.text.len(), text.len());
        assert_eq!(&*line.text, text);
    }
}
