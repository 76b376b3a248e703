//! Concurrency tests for the observability layer: two interleaved
//! operations, each on its own cloud and event log, must keep their
//! records fully separated — no cross-linked parents, no leaked trace ids
//! — even when driven from separate threads.

use std::collections::{BTreeMap, BTreeSet};
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

/// Every record's parent and span link must resolve within the same trace,
/// in its one id space (links only point at ids that exist, or were
/// evicted — never at another trace's ids, which these small runs never
/// evict), and every span link must point at a record with an end.
fn assert_self_contained(TraceDump { events, .. }: &TraceDump) {
    let ends: BTreeMap<u64, bool> = events.iter().map(|e| (e.id, e.end.is_some())).collect();
    assert_eq!(ends.len(), events.len(), "one id per record");
    for event in events {
        if let Some(parent) = event.parent {
            assert!(ends.contains_key(&parent), "event {} orphaned", event.id);
        }
        if let Some(span) = event.span {
            assert_eq!(
                ends.get(&span),
                Some(&true),
                "event {} points at {span}, which is no span",
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
    for trace in [&a, &b] {
        assert!(trace.events.iter().any(|e| e.end.is_some()), "spans");
        assert!(trace.events.iter().any(|e| e.end.is_none()), "instants");
    }
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
        obs.event(None, "log.line", "asgard.log", || ());
    }
    let records = obs.events().records();
    assert_eq!(records.len(), 2);
    assert!(records[0].end.is_some(), "the span closed");
    assert_eq!(records[1].span, Some(records[0].id));
    obs.begin_run("second");
    assert!(obs.events().records().is_empty());
    assert_eq!(obs.events().dropped(), 0);
}
