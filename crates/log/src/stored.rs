//! The annotated line as central storage keeps it.
//!
//! A [`LogEvent`] owns a dozen heap blocks: five strings, two vectors and
//! every tag, field key and value, plus its context's strings. Most of that
//! repeats what the line already holds: a capture is a substring of
//! `@message`, the process and trace ids are the same for every line of an
//! execution, the step is one of the rule book's names, and the annotator
//! mirrors the context into two tags and two fields. A [`StoredLine`] keeps
//! the message and every other string it does not already contain in one
//! text buffer, with a table of where each string sits; it shares the ids
//! and the step, leaves the mirrors out, and renders the same event when
//! read.

use std::ops::Range;
use std::sync::Arc;

use pod_obs::CauseRoot;
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
    /// `@message`, then each other part found neither in the message nor
    /// in the trace id.
    text: Box<str>,
    /// Where each part sits, in order: the message, the source, the host
    /// and the type, the kept tags, each kept field's key and value, and
    /// last the cloud instance. A span addresses the trace id followed by
    /// `text`.
    spans: Spans,
    /// How many kept tags follow the first four spans.
    tags: usize,
    context: Option<StoredContext>,
}

/// A stored line's process context: the ids and the step shared.
#[derive(Debug)]
struct StoredContext {
    process_id: Arc<str>,
    process_instance_id: Arc<str>,
    step: Option<Arc<str>>,
    /// Where the line held the tags and fields that mirror the context, by
    /// their index in the rendered list: the process-id tag, the step tag,
    /// the `processinsid` field and the `instanceid` field. `None` for a
    /// mirror the line does not hold (or holds past index `u16::MAX`, and
    /// then keeps as an ordinary tag or field).
    mirrors: [Option<u16>; 4],
}

const PROCESS_TAG: usize = 0;
const STEP_TAG: usize = 1;
const TRACE_FIELD: usize = 2;
const INSTANCE_FIELD: usize = 3;

/// The span table, `[start, end)` per part: narrow while the trace id and
/// the line's strings take less than 64 KiB, as every operation line's do.
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
    /// Stores `event`: its message moves into the text buffer, which takes
    /// each other string found neither in the message nor in the trace id;
    /// the mirrors of its context are left out and its step is `rules`' own
    /// copy of the name, when `rules` knows it.
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
        let mirrors = context
            .as_ref()
            .map_or([None; 4], |ctx| find_mirrors(ctx, &tags, &fields));
        let kept = |at: usize, i: usize| mirrors[at].map(usize::from) != Some(i);
        let kept_tags = tags
            .iter()
            .enumerate()
            .filter(|&(i, _)| kept(PROCESS_TAG, i) && kept(STEP_TAG, i))
            .map(|(_, tag)| (tag.as_str(), NAME));
        let kept_fields = fields
            .iter()
            .enumerate()
            .filter(|&(i, _)| kept(TRACE_FIELD, i) && kept(INSTANCE_FIELD, i))
            .flat_map(|(_, (key, value))| [(key.as_str(), NAME), (value.as_str(), VALUE)]);
        let elided = |of: Range<usize>| mirrors[of].iter().flatten().count();
        let tag_count = tags.len() - elided(PROCESS_TAG..STEP_TAG + 1);
        let field_count = fields.len() - elided(TRACE_FIELD..INSTANCE_FIELD + 1);
        let instance = context
            .as_ref()
            .and_then(|c| c.cloud_instance_id.as_deref());
        let head = [&source, &source_host, &event_type].map(|name| (name.as_str(), NAME));
        let parts = head
            .into_iter()
            .chain(kept_tags)
            .chain(kept_fields)
            .chain(instance.map(|id| (id, VALUE)));
        let part_count = 3 + tag_count + 2 * field_count + usize::from(instance.is_some());
        let trace = context.as_ref().map_or("", |c| &c.process_instance_id);
        let bytes = parts.clone().map(|(part, _)| part.len()).sum();
        let mut packer = Packer::new(message, trace, bytes);
        let spans = if u16::try_from(packer.bound).is_ok() {
            Spans::Narrow(packer.pack(parts, part_count, |at| at as u16))
        } else {
            Spans::Wide(packer.pack(parts, part_count, |at| at))
        };
        let text = packer.text.into_boxed_str();
        let cloud_instance = instance.is_some();
        let context = context.map(|ctx| StoredContext {
            step: ctx.step_id.as_deref().map(|step| match rules.step(step) {
                Some(shared) => Arc::clone(shared),
                None => Arc::from(step),
            }),
            process_id: ctx.process_id,
            process_instance_id: ctx.process_instance_id,
            mirrors,
        });
        StoredLine {
            timestamp,
            severity,
            cloud_instance,
            text,
            spans,
            tags: tag_count,
            context,
        }
    }

    /// The `i`-th part of the span table.
    fn part(&self, i: usize) -> &str {
        let span = self.spans.get(i);
        let trace = self.context.as_ref().map_or("", |c| &c.process_instance_id);
        match span.start.checked_sub(trace.len()) {
            Some(at) => &self.text[at..at + span.len()],
            None => &trace[span],
        }
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
        self.context.as_ref()?.step.as_deref()
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

    /// The rendered tags, in order: the kept ones with the mirrored ones
    /// put back where they sat.
    fn tags(&self) -> impl Iterator<Item = &str> {
        let kept = (4..4 + self.tags).map(|i| self.part(i));
        let mirrored = match &self.context {
            Some(ctx) => [
                (ctx.mirrors[PROCESS_TAG], &*ctx.process_id),
                (
                    ctx.mirrors[STEP_TAG],
                    ctx.step.as_deref().unwrap_or_default(),
                ),
            ],
            None => [(None, ""); 2],
        };
        restore(kept, mirrored)
    }

    /// The rendered fields, in order: the kept ones with the mirrored ones
    /// put back where they sat.
    fn fields(&self) -> impl Iterator<Item = (&str, &str)> {
        let cloud_instance = self.cloud_instance();
        let end = self.spans.len() - usize::from(cloud_instance.is_some());
        let kept = (4 + self.tags..end)
            .step_by(2)
            .map(|i| (self.part(i), self.part(i + 1)));
        let mirrored = match &self.context {
            Some(ctx) => [
                (
                    ctx.mirrors[TRACE_FIELD],
                    ("processinsid", &*ctx.process_instance_id),
                ),
                (
                    ctx.mirrors[INSTANCE_FIELD],
                    ("instanceid", cloud_instance.unwrap_or_default()),
                ),
            ],
            None => [(None, ("", "")); 2],
        };
        restore(kept, mirrored)
    }
}

impl LogRecord for StoredLine {
    fn render(&self) -> LogEvent {
        LogEvent {
            timestamp: self.timestamp,
            source: self.part(1).to_string(),
            source_host: self.part(2).to_string(),
            event_type: self.part(3).to_string(),
            tags: self.tags().map(str::to_string).collect(),
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
/// named after its source and carries its `message`, then its `step` when
/// annotated, copied only if the root materialises.
impl CauseRoot for StoredLine {
    fn name(&self) -> &str {
        self.part(1)
    }

    fn attrs(&self) -> Vec<(&'static str, String)> {
        let mut attrs = Vec::with_capacity(2);
        attrs.push(("message", self.message().to_string()));
        if let Some(step) = self.step() {
            attrs.push(("step", step.to_string()));
        }
        attrs
    }
}

/// Where `tags` and `fields` hold the mirrors of `ctx` that
/// [`LogEvent::with_context`] writes, each by the index of one element
/// equal to it (so leaving it out and putting it back there renders the
/// same lists, whoever wrote them).
fn find_mirrors(
    ctx: &ProcessContext,
    tags: &[String],
    fields: &[(String, String)],
) -> [Option<u16>; 4] {
    let process = tags.iter().position(|t| **t == *ctx.process_id);
    let step = ctx
        .step_id
        .as_deref()
        .and_then(|step| (0..tags.len()).find(|&i| Some(i) != process && tags[i] == step));
    let field = |key: &str, value: &str| fields.iter().position(|(k, v)| k == key && v == value);
    let trace = field("processinsid", &ctx.process_instance_id);
    let instance = ctx
        .cloud_instance_id
        .as_deref()
        .and_then(|id| field("instanceid", id));
    [process, step, trace, instance].map(|i| i.and_then(|i| u16::try_from(i).ok()))
}

/// `kept`, with each `(index, item)` of `restored` put back at its index.
fn restore<T: Copy>(
    mut kept: impl Iterator<Item = T>,
    restored: [(Option<u16>, T); 2],
) -> impl Iterator<Item = T> {
    let mut at = 0;
    std::iter::from_fn(move || {
        let here = restored
            .iter()
            .find(|(index, _)| index.map(usize::from) == Some(at));
        at += 1;
        match here {
            Some(&(_, item)) => Some(item),
            None => kept.next(),
        }
    })
}

/// A part is a name (source, host, type, tag, field key), appended, or a
/// value (field value, cloud instance), which a capture or the trace id
/// usually repeats, so it is looked for there first.
const NAME: bool = false;
const VALUE: bool = true;

/// Builds a line's text and spans: the message moved to the front of the
/// text, each value a span into the message or the trace id where either
/// holds it, each other part appended.
struct Packer<'a> {
    text: String,
    message: usize,
    trace: &'a str,
    /// The largest position a span can hold.
    bound: usize,
}

impl<'a> Packer<'a> {
    /// A packer whose parts take at most `parts` bytes.
    fn new(mut message: String, trace: &'a str, parts: usize) -> Packer<'a> {
        message.reserve_exact(parts);
        Packer {
            message: message.len(),
            bound: trace.len() + message.len() + parts,
            text: message,
            trace,
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
        let t = self.trace.len();
        let mut spans = Vec::with_capacity(1 + count);
        spans.push([at(t), at(t + self.message)]);
        for (part, value) in parts {
            let found = value.then(|| {
                let message = find(&self.text[..self.message], part).map(|i| t + i);
                message.or_else(|| find(self.trace, part))
            });
            let start = found.flatten().unwrap_or_else(|| {
                self.text.push_str(part);
                t + self.text.len() - part.len()
            });
            spans.push([at(start), at(start + part.len())]);
        }
        spans.into_boxed_slice()
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
        assert_eq!(line.name(), "asgard.log");
        assert_eq!(
            line.attrs(),
            vec![
                ("message", message.to_string()),
                ("step", "ready".to_string())
            ]
        );
        let event = LogEvent::new(SimTime::ZERO, "asgard.log", "unknown output");
        let line = StoredLine::new(event, &RuleBook::new());
        assert_eq!(line.name(), "asgard.log");
        assert_eq!(
            line.attrs(),
            vec![("message", "unknown output".to_string())]
        );
    }

    #[test]
    fn mirrors_past_index_u16_max_are_kept_as_they_are() {
        let line = renders_back(&annotated("Instance i-7 is ready", 70_000));
        let mirrors = line.context.as_ref().map(|c| c.mirrors);
        assert_eq!(mirrors, Some([None, None, Some(2), Some(3)]));
    }
}
