//! Timeout calibration: the engine's step timeout must be derivable from
//! historical timing profiles the way the paper derives it — "set based on
//! experiments, at the 95% percentile".

use pod_eval::{healthy_log, pod_config, ScenarioConfig};
use pod_mining::ActivityTimings;
use pod_orchestrator::process_def;

/// Collects the operation logs of `n` healthy training upgrades.
fn training_logs(n: u64) -> Vec<pod_log::LogEvent> {
    let cluster_size = ScenarioConfig::default().cluster_size;
    (1000..1000 + n)
        .flat_map(|seed| healthy_log(seed, cluster_size))
        .collect()
}

#[test]
fn step_timeout_is_consistent_with_the_mined_timing_profile() {
    let events = training_logs(25);
    let timings = ActivityTimings::measure(&events, &process_def::rolling_upgrade_rules(), |e| {
        e.field("taskid").map(str::to_string)
    });
    // The step the timer guards is the replacement wait, completed by READY.
    let ready = pod_faulttree::steps::READY;
    assert!(timings.sample_count(ready) >= 80, "enough training samples");
    let recommended = timings
        .recommended_timeout(ready)
        .expect("READY was observed");
    let configured = pod_config(&ScenarioConfig::default()).step_timeout;
    // The configured timeout sits in the calibration band around the mined
    // recommendation: late enough to pass the bulk of healthy waits, tight
    // enough that the heavy tail produces the paper's timeout FPs.
    let ratio = configured.as_secs_f64() / recommended.as_secs_f64();
    assert!(
        (0.7..=1.3).contains(&ratio),
        "configured {configured} vs mined recommendation {recommended} (ratio {ratio:.2})"
    );
}

#[test]
fn timing_profile_orders_steps_sensibly() {
    let events = training_logs(10);
    let timings = ActivityTimings::measure(&events, &process_def::rolling_upgrade_rules(), |e| {
        e.field("taskid").map(str::to_string)
    });
    use pod_faulttree::steps;
    // The replacement wait dominates every other step by far.
    let ready_mean = timings.mean(steps::READY).unwrap();
    for quick in [
        steps::UPDATE_LC,
        steps::SORT,
        steps::DEREGISTER,
        steps::TERMINATE,
    ] {
        let m = timings.mean(quick).unwrap();
        assert!(
            ready_mean.as_secs_f64() > 5.0 * m.as_secs_f64(),
            "{quick} mean {m} vs READY mean {ready_mean}"
        );
    }
}
