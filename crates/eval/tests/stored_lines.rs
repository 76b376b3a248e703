//! A stored line renders the line it was built from: `==` and `{:?}`
//! alike, and its accessors read what the event's fields and context hold.
//!
//! Over every line of the soak corpus (seed 2014, the `fleet-healthy`
//! shape) and of the fault-free E1 log, each through the rolling-upgrade
//! annotator; over every event a campaign at seed 2014 leaves in central
//! storage; and over generated wire lines that press on the annotator's
//! mirrors of the process context.

use pod_eval::{
    collect_streams, healthy_log, monitor_upgrade, Campaign, CampaignConfig, SoakConfig,
};
use pod_log::{
    parse_line, Boundary, LineRule, LogEvent, LogQuery, LogRecord, ProcessAnnotator,
    ProcessContext, RuleBook, Stage, StoredLine, Trigger,
};
use pod_orchestrator::process_def::rolling_upgrade_rules;
use pod_sim::SimTime;
use proptest::prelude::*;

/// Stores `event` and checks that the stored line renders it back and
/// answers every accessor as the event does.
fn stores_as_it_renders(event: &LogEvent, rules: &RuleBook) {
    let line = StoredLine::new(event.clone(), rules);
    let rendered = line.render();
    assert_eq!(&rendered, event);
    assert_eq!(format!("{rendered:?}"), format!("{event:?}"));
    let ctx = event.context.as_ref();
    assert_eq!(line.message(), event.message);
    assert_eq!(line.is_annotated(), ctx.is_some());
    assert_eq!(line.step(), ctx.and_then(|c| c.step_id.as_deref()));
    assert_eq!(
        line.cloud_instance(),
        ctx.and_then(|c| c.cloud_instance_id.as_deref())
    );
    assert_eq!(line.context().as_ref(), ctx);
    for (key, _) in &event.fields {
        assert_eq!(
            line.field(key),
            event.field(key),
            "field {key:?} of {event:?}"
        );
    }
    for key in ["processinsid", "instanceid", "no-such-field"] {
        assert_eq!(
            line.field(key),
            event.field(key),
            "field {key:?} of {event:?}"
        );
    }
}

/// What the annotator hands on for `event`.
fn annotated(annotator: &mut ProcessAnnotator, event: LogEvent) -> LogEvent {
    match annotator.process(event).triggers.remove(0) {
        Trigger::Conformance(line) => line,
        other => panic!("the annotator handed on {other:?}"),
    }
}

#[test]
fn every_soak_line_renders_as_the_annotator_wrote_it() {
    let streams = collect_streams(&SoakConfig {
        ops: 64,
        seed: 2014,
        noise_rate: 0.05,
        fault_every: 8,
    });
    let rules = rolling_upgrade_rules();
    let mut checked = 0;
    for op in &streams.ops {
        let trace = op.scenario.trace_id.as_str();
        let mut annotator = ProcessAnnotator::new(rules.clone(), "rolling-upgrade", trace);
        for (at, raw) in &op.lines {
            let event = annotated(&mut annotator, parse_line(raw, *at).event);
            stores_as_it_renders(&event, &rules);
            checked += 1;
        }
    }
    assert_eq!(checked, streams.lines_total);
}

#[test]
fn every_e1_line_renders_as_the_annotator_wrote_it() {
    let rules = rolling_upgrade_rules();
    let mut annotator = ProcessAnnotator::new(rules.clone(), "rolling-upgrade", "run-2014");
    let log = healthy_log(2014, 4);
    assert!(log.len() > 10, "the E1 log is suspiciously short");
    for event in log {
        stores_as_it_renders(&annotated(&mut annotator, event), &rules);
    }
}

#[test]
fn every_event_a_campaign_stores_round_trips() {
    let campaign = Campaign::new(CampaignConfig {
        runs_per_fault: 2,
        seed: 2014,
        recovery: true,
        ..CampaignConfig::default()
    });
    let rules = rolling_upgrade_rules();
    let mut annotated_lines = 0;
    for plan in campaign.plans() {
        let stored = monitor_upgrade(&plan)
            .scenario
            .storage
            .query(&LogQuery::new());
        for event in &stored {
            annotated_lines += usize::from(event.context.is_some() && event.source == "asgard.log");
            stores_as_it_renders(event, &rules);
        }
    }
    assert!(
        annotated_lines > 100,
        "only {annotated_lines} annotated lines"
    );
}

/// A rule book whose captures overlap the mirrors: an `instanceid`
/// capture, a `taskid` capture a wire field may also carry, and a start
/// line with no capture.
fn mirror_rules() -> RuleBook {
    let mut rules = RuleBook::new();
    let mut rule = |activity: &str, boundary, pattern: &str| {
        rules.push(LineRule::new(activity, boundary, &[pattern]).unwrap());
    };
    rule("start", Boundary::Start, r"Started task (?P<taskid>[\w-]+)");
    rule(
        "ready",
        Boundary::End,
        r"Instance (?P<instanceid>i-[0-9a-f]+) is ready",
    );
    rule(
        "ready-again",
        Boundary::End,
        r"Instance (?P<instanceid>i-[0-9a-f]+) is ready",
    );
    rules
}

/// Wire lines that press on the mirrors: tags that already hold the
/// process id or a step, wire fields named `processinsid` or `instanceid`
/// holding the trace id, the captured instance or something else,
/// duplicate keys, a wire field a capture also names, lines no rule
/// matches and lines the gateway could not classify.
fn arb_wire_line() -> impl Strategy<Value = LogEvent> {
    let message = prop::sample::select(vec![
        "Instance i-7f is ready",
        "Started task run-1",
        "Started task t-9 on run-1",
        "no rule names this line",
        "",
    ]);
    let word = prop::sample::select(vec![
        "rolling-upgrade",
        "ready",
        "start",
        "run-1",
        "i-7f",
        "push",
        "",
    ]);
    let key = prop::sample::select(vec!["processinsid", "instanceid", "taskid", "seq", ""]);
    let tags = prop::collection::vec(word.clone(), 0..4);
    let fields = prop::collection::vec((key, word), 0..5);
    (message, tags, fields, 0u8..3).prop_map(|(message, tags, fields, form)| {
        let mut event = LogEvent::new(SimTime::from_millis(7), "asgard.log", message);
        event.tags = tags.into_iter().map(str::to_string).collect();
        event.fields = fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        let mut wire = String::new();
        event.write_wire(&mut wire).unwrap();
        match form {
            // Through the gateway's parser, or cut short so it cannot parse.
            0 => parse_line(&wire, event.timestamp).event,
            1 => parse_line(&wire[..wire.len() / 2], event.timestamp).event,
            _ => event,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Whatever the wire line carries, the annotated line stores and
    /// renders back as the annotator wrote it.
    #[test]
    fn an_annotated_wire_line_renders_as_the_annotator_wrote_it(event in arb_wire_line()) {
        let rules = mirror_rules();
        let mut annotator = ProcessAnnotator::new(rules.clone(), "rolling-upgrade", "run-1");
        stores_as_it_renders(&annotated(&mut annotator, event), &rules);
    }

    /// A context set by hand, with no mirrors or with some of its values
    /// already among the tags and fields, renders back too.
    #[test]
    fn a_hand_set_context_renders_back(event in arb_wire_line(), instance in prop::bool::ANY) {
        let mut ctx = ProcessContext::new("rolling-upgrade", "run-1").with_step("ready");
        if instance {
            ctx = ctx.with_cloud_instance("i-7f");
        }
        let mut event = event;
        event.context = Some(ctx);
        stores_as_it_renders(&event, &mirror_rules());
    }
}
