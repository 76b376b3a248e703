//! Concurrency tests for the observability layer: two interleaved
//! operations, each on its own cloud and tracer, must keep their spans and
//! causal events fully separated — no cross-linked parents, no leaked
//! trace ids — even when driven from separate threads.

use std::collections::BTreeSet;
use std::thread;

use pod_diagnosis::eval::{
    build_scenario, monitor_upgrade, Campaign, CampaignConfig, ScenarioConfig, TraceDump,
};
use pod_diagnosis::log::LogQuery;
use pod_diagnosis::orchestrator::FaultType;

/// Runs one clean faulty upgrade end to end and returns its trace.
fn run_upgrade(seed: u64, fault: FaultType) -> TraceDump {
    let plans = Campaign::new(CampaignConfig::clean(seed)).plans();
    let plan = plans.iter().find(|p| p.fault == fault);
    let run = monitor_upgrade(plan.expect("every fault type has a plan"));
    // The engine replayed under the scenario's trace id and no other: every
    // line of the run's conformance log names it.
    let own = format!("[{}]", run.scenario.trace_id);
    let conformance = LogQuery::new().with_source("conformance.log");
    let replayed = run.scenario.storage.query(&conformance);
    assert!(!replayed.is_empty());
    assert!(replayed.iter().all(|e| e.message.contains(&own)));
    run.trace()
}

/// Every span parent and every event parent/span link must resolve within
/// the same trace (links only point at ids that exist, or were evicted —
/// never at another trace's ids, which these small runs never evict).
fn assert_self_contained(TraceDump { spans, events, .. }: &TraceDump) {
    let span_ids: BTreeSet<u64> = spans.iter().map(|s| s.id).collect();
    let event_ids: BTreeSet<u64> = events.iter().map(|e| e.id).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            assert!(span_ids.contains(&parent), "span {} orphaned", span.id);
        }
    }
    for event in events {
        if let Some(parent) = event.parent {
            assert!(event_ids.contains(&parent), "event {} orphaned", event.id);
        }
        if let Some(span) = event.span {
            assert!(
                span_ids.contains(&span),
                "event {} points at unknown span",
                event.id
            );
        }
    }
}

#[test]
fn interleaved_upgrades_do_not_cross_link() {
    // Two upgrades with different faults run concurrently on independent
    // clouds; their traces must be disjoint and internally consistent.
    let a = thread::spawn(|| run_upgrade(101, FaultType::AmiChangedDuringUpgrade));
    let b = thread::spawn(|| run_upgrade(202, FaultType::ElbUnavailable));
    let a = a.join().expect("upgrade A panicked");
    let b = b.join().expect("upgrade B panicked");

    assert_ne!(a.trace_id, b.trace_id);
    assert!(!a.spans.is_empty() && !b.spans.is_empty());
    assert!(!a.events.is_empty() && !b.events.is_empty());
    assert_self_contained(&a);
    assert_self_contained(&b);

    // Both runs reconstruct incidents, and each run's chains stay anchored
    // in its own log — the other run's fault never leaks into the story.
    let incidents_a = pod_diagnosis::obs::incidents(&a.events);
    let incidents_b = pod_diagnosis::obs::incidents(&b.events);
    assert!(incidents_a.iter().any(|c| c.complete()));
    assert!(incidents_b.iter().any(|c| c.complete()));
    let causes_a: BTreeSet<String> = incidents_a
        .iter()
        .flat_map(|c| c.root_causes.iter().map(|r| r.name.to_string()))
        .collect();
    let causes_b: BTreeSet<String> = incidents_b
        .iter()
        .flat_map(|c| c.root_causes.iter().map(|r| r.name.to_string()))
        .collect();
    assert!(
        causes_a.contains("lc-wrong-ami"),
        "A diagnosed {causes_a:?}"
    );
    assert!(
        causes_b.contains("elb-unavailable"),
        "B diagnosed {causes_b:?}"
    );
    assert!(
        !causes_a.contains("elb-unavailable"),
        "cross-linked: {causes_a:?}"
    );
    assert!(
        !causes_b.contains("lc-wrong-ami"),
        "cross-linked: {causes_b:?}"
    );
}

#[test]
fn sequential_runs_on_one_cloud_reset_cleanly() {
    // Same scenario config reused: begin_run must give the second run a
    // fresh trace with no events or spans carried over.
    let config = ScenarioConfig {
        seed: 303,
        ..ScenarioConfig::default()
    };
    let scenario = build_scenario(&config);
    let obs = scenario.cloud.obs();
    obs.begin_run("first");
    {
        let _span = obs.span("upgrade.step");
        obs.event("log.line", "asgard.log");
    }
    assert_eq!(obs.tracer().finished().len(), 1);
    assert_eq!(obs.events().records().len(), 1);
    obs.begin_run("second");
    assert!(obs.tracer().finished().is_empty());
    assert!(obs.events().records().is_empty());
    assert_eq!(obs.events().dropped(), 0);
}
