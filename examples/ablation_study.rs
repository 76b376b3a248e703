//! Ablation study over the design choices DESIGN.md calls out:
//!
//! 1. diagnostic-test ordering: fault probability vs expected test cost;
//! 2. fault-tree amendment: with vs without the instance-limit root cause
//!    (the paper's fourth wrong-diagnosis class);
//! 3. detection modes: how much conformance checking contributes on top of
//!    assertions (the §V.D 20-of-80 discussion);
//! 4. fault-tree memoisation: tests run with and without result reuse.
//!
//! Each ablation runs a reduced campaign (deterministic seeds) and reports
//! the quality/virtual-time deltas. Run with
//! `cargo run --release --example ablation_study`.

use pod_diagnosis::eval::{
    build_scenario, render_metrics_line, Campaign, CampaignConfig, ScenarioConfig,
};
use pod_diagnosis::faulttree::TestOrder;

fn campaign(mutate: impl FnOnce(&mut CampaignConfig)) -> pod_diagnosis::eval::CampaignReport {
    let mut config = CampaignConfig {
        runs_per_fault: 8,
        seed: 2014,
        ..CampaignConfig::default()
    };
    mutate(&mut config);
    Campaign::new(config).run()
}

fn main() {
    println!("== Ablation 1: diagnostic-test ordering ==");
    println!("   (the walk always runs every relevant test; ordering changes how fast the");
    println!("    first root cause is confirmed)");
    for (label, order) in [
        (
            "by fault probability (paper default)",
            TestOrder::ByProbability,
        ),
        ("by expected test cost", TestOrder::ByCost),
    ] {
        let report = campaign(|c| c.test_order = order);
        let latencies: Vec<pod_diagnosis::sim::SimDuration> = report
            .records
            .iter()
            .flat_map(|r| r.outcome.first_cause_latencies.iter().copied())
            .collect();
        let stats = pod_diagnosis::eval::TimingStats::new(latencies);
        println!(
            "  {label:<38} time-to-first-cause: mean {}, p95 {} (n={}) | {}",
            stats.mean(),
            stats.percentile(0.95),
            stats.len(),
            render_metrics_line("quality", &report.overall)
        );
    }

    println!();
    println!("== Ablation 2: fault-tree amendment (instance-limit root cause) ==");
    for (label, amended) in [
        ("un-amended (as evaluated in the paper)", false),
        ("amended", true),
    ] {
        let report = campaign(|c| {
            c.amended_trees = amended;
            // Force capacity-pressure interference so the limit case occurs.
            c.interference_fraction = 1.0;
            c.interference_kinds =
                vec![pod_diagnosis::orchestrator::Interference::OtherTeamCapacityPressure];
        });
        println!(
            "  {label:<38} {}",
            render_metrics_line("quality", &report.overall)
        );
    }

    println!();
    println!("== Ablation 3: what conformance checking adds ==");
    let report = campaign(|c| c.interference_fraction = 0.0);
    let resource_runs: Vec<_> = report
        .records
        .iter()
        .filter(|r| !r.plan.fault.is_configuration_fault())
        .collect();
    let conf_first = resource_runs
        .iter()
        .filter(|r| r.outcome.conformance_first)
        .count();
    let conf_any = resource_runs
        .iter()
        .filter(|r| r.outcome.conformance_any)
        .count();
    println!(
        "  resource-fault runs: {} — conformance flagged first in {}, at all in {}",
        resource_runs.len(),
        conf_first,
        conf_any
    );
    let config_runs: Vec<_> = report
        .records
        .iter()
        .filter(|r| r.plan.fault.is_configuration_fault())
        .collect();
    let config_conf = config_runs
        .iter()
        .filter(|r| r.outcome.conformance_any)
        .count();
    println!(
        "  configuration-fault runs: {} — conformance flagged {} (paper: these are invisible \
         to conformance)",
        config_runs.len(),
        config_conf
    );

    println!();
    println!("== Ablation 4: fault-tree memoisation ==");
    // Measured directly on the diagnosis engine (a tree where a shared
    // child appears under two branches), against the campaign's
    // steady-state cluster.
    use pod_diagnosis::assert::{CloudAssertion, ConsistentApi, RetryPolicy};
    use pod_diagnosis::faulttree::{
        DiagnosisContext, DiagnosisEngine, DiagnosticTest, FaultNode, FaultTree,
    };
    let scenario = build_scenario(&ScenarioConfig::default());
    let shared = FaultNode::root_cause(
        "shared-check",
        "a shared diagnostic check",
        DiagnosticTest::AssertionFails(CloudAssertion::AmiAvailable),
        0.5,
    );
    let tree = FaultTree::new(
        "k",
        FaultNode::branch("root", "top")
            .child(shared.clone())
            .child(shared.clone())
            .child(shared),
    );
    let ctx = DiagnosisContext {
        env: (*scenario.env.snapshot()).clone(),
        step: None,
        instance: None,
        operation_started: pod_diagnosis::sim::SimTime::ZERO,
    };
    let api = ConsistentApi::new(scenario.cloud, RetryPolicy::default());
    let storage = scenario.storage;
    let memo = DiagnosisEngine::new(api.clone(), storage.clone()).diagnose(&tree, &ctx);
    let nomemo = DiagnosisEngine::new(api, storage)
        .without_memoisation()
        .diagnose(&tree, &ctx);
    println!(
        "  memoised:    {} tests run in {}",
        memo.tests_run, memo.duration
    );
    println!(
        "  unmemoised:  {} tests run in {}",
        nomemo.tests_run, nomemo.duration
    );
}
