//! Experiment E6: reproduce the paper's sample diagnosis transcript
//! (Section III.B.4) — a wrong-AMI fault whose diagnosis walks the fault
//! tree, excludes the other potential faults one by one, and pinpoints the
//! rogue AMI as the root cause.
//!
//! Run with `cargo run --example rolling_upgrade_diagnosis`.

use pod_diagnosis::cloud::Cloud;
use pod_diagnosis::eval::{
    build_engine, build_scenario, stage_self_times, ScenarioConfig, TraceDump,
};
use pod_diagnosis::log::{LogEvent, LogQuery};
use pod_diagnosis::orchestrator::{FaultInjector, FaultType, RollingUpgrade, UpgradeObserver};
use pod_diagnosis::sim::{SimDuration, SimRng, SimTime};

struct Monitor<'s> {
    engine: pod_diagnosis::core::PodEngine,
    scenario: &'s pod_diagnosis::eval::Scenario,
    injection: Option<(SimTime, FaultInjector)>,
    rng: SimRng,
}

impl UpgradeObserver for Monitor<'_> {
    fn on_log(&mut self, event: LogEvent) {
        self.engine.ingest(event);
    }

    fn on_tick(&mut self, cloud: &Cloud, now: SimTime) {
        if let Some((at, _)) = &self.injection {
            if now >= *at {
                let (_, mut injector) = self.injection.take().expect("checked above");
                injector.inject(
                    cloud,
                    &self.scenario.upgrade,
                    &self.scenario.upgrade_lc_name,
                    &mut self.rng,
                );
            }
        }
        self.engine.poll();
    }
}

fn main() {
    let config = ScenarioConfig {
        seed: 1119, // 2013-11-19, the date in the paper's sample log
        ..ScenarioConfig::default()
    };
    let scenario = build_scenario(&config);
    scenario.cloud.obs().begin_run(&scenario.trace_id);
    let engine = build_engine(&scenario, &config);
    let mut monitor = Monitor {
        engine,
        scenario: &scenario,
        injection: Some((
            SimTime::from_secs(70),
            FaultInjector::new(FaultType::AmiChangedDuringUpgrade),
        )),
        rng: SimRng::seed_from(13),
    };
    let mut upgrade = RollingUpgrade::new(
        scenario.cloud.clone(),
        scenario.upgrade.clone(),
        scenario.trace_id.clone(),
    );
    upgrade.run(&mut monitor);
    let summary = monitor.engine.finish();

    println!("== operation log (tagged lines forwarded to central storage) ==");
    for e in scenario
        .storage
        .query(&LogQuery::new().with_source("asgard.log"))
    {
        println!("{e}");
    }

    println!();
    println!("== assertion-evaluation log ==");
    for e in scenario
        .storage
        .query(&LogQuery::new().with_type("assertion"))
        .iter()
        .take(14)
    {
        println!("{e}");
    }

    println!();
    println!("== diagnosis transcript (compare with Section III.B.4 of the paper) ==");
    for e in scenario
        .storage
        .query(&LogQuery::new().with_type("diagnosis"))
    {
        println!("{e}");
    }

    println!();
    println!("== operator report ==");
    for d in &summary.detections {
        if let Some(diag) = &d.diagnosis {
            println!(
                "[{}] detected via {:?} (step {}): {} — {} potential faults, {} excluded, \
                 {} tests run in {}",
                d.at,
                d.source,
                d.step.as_deref().unwrap_or("-"),
                d.description,
                diag.potential_faults,
                diag.excluded,
                diag.tests_run,
                diag.duration,
            );
            for cause in &diag.root_causes {
                println!("    ROOT CAUSE: {}", cause.description);
            }
        }
    }

    let obs = scenario.cloud.obs();
    let dump = TraceDump {
        trace_id: scenario.trace_id.clone(),
        spans: obs.tracer().finished(),
        events: obs.events().records(),
    };
    println!();
    println!("== incident timelines (causal chains, virtual time) ==");
    print!("{}", pod_diagnosis::obs::render_timelines(&dump.events));
    println!();
    println!("== stage self time (virtual) ==");
    for (stage, us) in stage_self_times(&dump.spans) {
        let self_time = SimDuration::from_micros(us).to_string();
        println!("{stage:<34} {self_time:>12}");
    }
    println!();
    println!("== metrics summary ==");
    print!("{}", pod_diagnosis::obs::render_summary(&obs.snapshot()));
    let spans_dropped = obs.tracer().dropped();
    let events_dropped = obs.events().dropped();
    if spans_dropped > 0 || events_dropped > 0 {
        println!(
            "WARNING: retention caps hit — {spans_dropped} span(s) and {events_dropped} causal \
             event(s) dropped; the trace export below is incomplete"
        );
    } else {
        println!("spans dropped: 0, causal events dropped: 0");
    }

    std::fs::write("TRACE_e6.json", dump.chrome_trace()).expect("write chrome trace");
    println!(
        "exported {} spans and {} causal events to TRACE_e6.json (Chrome trace-event)",
        dump.spans.len(),
        dump.events.len()
    );
}
