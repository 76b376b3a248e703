//! Isolated passes: each calls one layer's public function over the same
//! generated feed (or a fixed fixture) and times it from outside. Every
//! figure is the fastest of [`PASSES`] passes.

use std::hint::black_box;

use pod_diagnosis::assert::{
    AssertionEvaluator, AssertionTrigger, CloudAssertion, ConsistentApi, ExpectedEnv, RetryPolicy,
};
use pod_diagnosis::cloud::{Cloud, CloudConfig, LaunchConfigUpdate};
use pod_diagnosis::core::{PodConfig, RunSummary};
use pod_diagnosis::eval::{build_engine, pod_config, Scenario, ScenarioConfig, SoakStreams};
use pod_diagnosis::faulttree::{version_count_tree, DiagnosisContext, DiagnosisEngine};
use pod_diagnosis::gateway::{DiagnosisSink, Gateway, GatewayConfig};
use pod_diagnosis::log::{
    parse_line, ImportantLineForwarder, LineFormat, LogEvent, LogStorage, NoiseFilter, Pipeline,
    ProcessAnnotator, TimerSetter, Trigger,
};
use pod_diagnosis::process::ConformanceChecker;
use pod_diagnosis::regex::{Regex, RegexSet};
use pod_diagnosis::sim::{Clock, SimRng, SimTime};

use crate::metrics::Report;
use crate::rows::timed;
use crate::stats::ratio;

/// Passes per isolated measurement; the fastest is reported.
const PASSES: usize = 3;

/// The fastest wall-seconds of `PASSES` calls of `pass`, and what the
/// last call returned.
fn fastest<T>(mut pass: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut kept = None;
    for _ in 0..PASSES {
        let (out, s) = timed(&mut pass);
        best = best.min(s);
        kept = Some(out);
    }
    (best, kept.expect("PASSES is at least 1"))
}

/// Every line of the feed in arrival order: (arrival, tenant, sequence) —
/// the interleaving the replay submits.
pub fn merge(streams: &SoakStreams) -> Vec<(SimTime, usize, usize)> {
    let mut merged = Vec::with_capacity(streams.lines_total as usize);
    for (i, stream) in streams.ops.iter().enumerate() {
        for (seq, (at, _)) in stream.lines.iter().enumerate() {
            merged.push((*at, i, seq));
        }
    }
    merged.sort_unstable();
    merged
}

/// A sink that discards everything: what is left is the gateway itself.
#[derive(Debug)]
struct NullSink;

impl DiagnosisSink for NullSink {
    fn ingest_batch(&mut self, events: Vec<LogEvent>) {
        black_box(events);
    }

    fn finish(&mut self) -> RunSummary {
        RunSummary::default()
    }
}

/// The engine's own stage stack, as `PodEngine::new` assembles it.
fn engine_pipeline(pod: &PodConfig) -> Pipeline {
    let mut p = Pipeline::new();
    p.add_stage(Box::new(NoiseFilter::keep(
        RegexSet::new(&pod.relevance_patterns).expect("relevance patterns compile"),
    )));
    p.add_stage(Box::new(TimerSetter::new(
        Regex::new(&pod.operation_start_pattern).expect("start pattern compiles"),
        Regex::new(&pod.operation_end_pattern).expect("end pattern compiles"),
        "isolated",
    )));
    p.add_stage(Box::new(ProcessAnnotator::new(
        pod.rules.clone(),
        pod.model.name().to_string(),
        "isolated",
    )));
    p.add_stage(Box::new(ImportantLineForwarder));
    p
}

/// The layer passes that need the feed. `replay_s` is the fastest untraced
/// product replay, the base of every `*_share`; `ingest_s` is the traced
/// run's `core.ingest_batch` total.
pub fn feed_passes(
    r: &mut Report,
    streams: &SoakStreams,
    gateway: &GatewayConfig,
    replay_s: f64,
    ingest_s: f64,
) {
    let merged = merge(streams);
    let lines = merged.len() as f64;
    let bytes: usize = streams
        .ops
        .iter()
        .flat_map(|o| &o.lines)
        .map(|(_, raw)| raw.len())
        .sum();
    r.set("log.bytes_per_line", ratio(bytes as f64, lines));

    // log: wire parse, in submission order. Each pass keeps its events per
    // tenant, so the pipeline passes below have PASSES fresh copies.
    let mut parsed: Vec<Vec<Vec<LogEvent>>> = Vec::with_capacity(PASSES);
    let (parse_s, json) = fastest(|| {
        let mut per_tenant: Vec<Vec<LogEvent>> = streams
            .ops
            .iter()
            .map(|o| Vec::with_capacity(o.lines.len()))
            .collect();
        let mut json = 0u64;
        for &(at, i, seq) in &merged {
            let line = parse_line(&streams.ops[i].lines[seq].1, at);
            json += (line.format == LineFormat::Json) as u64;
            per_tenant[i].push(line.event);
        }
        parsed.push(per_tenant);
        json
    });
    r.set("log.parse_lines_per_s", ratio(lines, parse_s));
    r.set("log.parse_share", ratio(parse_s, replay_s));
    r.set("log.parse_json_share", ratio(json as f64, lines));

    // gateway: the same submissions into sinks that do nothing.
    let (null_s, _) = fastest(|| {
        let mut gw = Gateway::new(gateway.clone());
        let ops: Vec<_> = streams
            .ops
            .iter()
            .map(|o| {
                gw.register("isolated", o.scenario.trace_id.clone(), Box::new(NullSink))
                    .expect("admission is open")
            })
            .collect();
        for &(at, i, seq) in &merged {
            gw.submit(ops[i], at, &streams.ops[i].lines[seq].1);
        }
        gw.finish().len()
    });
    r.set("gateway.null_sink_lines_per_s", ratio(lines, null_s));

    // log: rule-book matching alone, over every parsed message.
    let pod = pod_config(&streams.ops[0].scenario_config);
    let rules = &pod.rules;
    let (rulebook_s, _) = fastest(|| {
        parsed[0]
            .iter()
            .flatten()
            .filter(|e| rules.match_line(black_box(&e.message)).is_some())
            .count()
    });
    r.set("log.rulebook_lines_per_s", ratio(lines, rulebook_s));

    // log: the engine's stage stack, fed in gateway-sized batches per
    // tenant. The conformance triggers it raises are the process pass's
    // input.
    let batch = gateway.batch_size;
    let mut pipeline = engine_pipeline(&pod);
    let (pipeline_s, activities) = fastest(|| {
        let tenants = parsed.pop().expect("one parsed copy per pass");
        let mut activities: Vec<Vec<String>> = Vec::with_capacity(tenants.len());
        for events in tenants {
            let mut steps = Vec::new();
            let mut events = events.into_iter().peekable();
            while events.peek().is_some() {
                for out in pipeline.push_batch(events.by_ref().take(batch).collect()) {
                    for trigger in out.triggers {
                        if let Trigger::Conformance(e) = trigger {
                            steps.extend(e.context.and_then(|c| c.step_id));
                        }
                    }
                }
            }
            activities.push(steps);
        }
        activities
    });
    r.set("log.pipeline_lines_per_s", ratio(lines, pipeline_s));
    r.set("log.pipeline_share", ratio(pipeline_s, replay_s));

    // process: token replay of every tenant's activity sequence.
    let events: usize = activities.iter().map(Vec::len).sum();
    let (conformance_s, _) = fastest(|| {
        let mut checker = ConformanceChecker::new(&pod.model);
        for (i, steps) in activities.iter().enumerate() {
            let trace = &streams.ops[i].scenario.trace_id;
            for step in steps {
                black_box(checker.replay(trace, step));
            }
        }
        checker.instance_count()
    });
    r.set(
        "process.replay_events_per_s",
        ratio(events as f64, conformance_s),
    );

    // What the engine does per line beyond its two isolated stages:
    // assertions, diagnosis, storage and telemetry.
    r.set(
        "core.unattributed_s",
        (ingest_s - pipeline_s - conformance_s).max(0.0),
    );
}

/// Wall-microseconds of one `build_engine` call, over up to 256 scenarios.
pub fn build_us<'a>(scenarios: impl Iterator<Item = (&'a Scenario, &'a ScenarioConfig)>) -> f64 {
    let scenarios: Vec<_> = scenarios.take(256).collect();
    let (secs, _) = fastest(|| {
        for (scenario, config) in &scenarios {
            black_box(build_engine(scenario, config));
        }
    });
    ratio(secs * 1e6, scenarios.len() as f64)
}

/// A healthy 4-instance cluster whose expected environment names the
/// launch configuration it runs (the `pod-bench` fixture, rebuilt here
/// because the benchmark depends on the umbrella crate only).
fn cluster(seed: u64) -> (Cloud, ExpectedEnv) {
    let cloud = Cloud::new(
        Clock::new(),
        SimRng::seed_from(seed),
        CloudConfig {
            stale_read_prob: 0.0,
            ..CloudConfig::default()
        },
    );
    let ami = cloud.admin_create_ami("app", "2.0");
    let sg = cloud.admin_create_security_group("web", &[80]);
    let kp = cloud.admin_create_key_pair("prod");
    let elb = cloud.admin_create_elb("front");
    let lc =
        cloud.admin_create_launch_config("lc", ami.clone(), "m1.small", kp.clone(), sg.clone());
    let asg = cloud.admin_create_asg("pm--asg", lc.clone(), 1, 10, 4, Some(elb.clone()));
    let env = ExpectedEnv {
        asg,
        elb,
        launch_config: lc,
        expected_ami: ami,
        expected_version: "2.0".into(),
        expected_key_pair: kp,
        expected_security_group: sg,
        expected_instance_type: "m1.small".into(),
        expected_count: 4,
    };
    (cloud, env)
}

/// The layer passes that run on fixed fixtures, whatever the workload:
/// regex compilation, one assertion evaluation, one fault-tree walk.
/// `build_us` is the measured cost of one `build_engine`.
pub fn fixture_passes(r: &mut Report, build_us: f64) {
    // regex: every pattern `pod_config` hands `PodEngine::new`, compiled
    // the way the engine compiles them (the rule book inside `pod_config`).
    const COMPILES: usize = 8;
    let pod = pod_config(&ScenarioConfig::default());
    let (compile_s, _) = fastest(|| {
        for _ in 0..COMPILES {
            black_box(pod_diagnosis::orchestrator::process_def::rolling_upgrade_rules());
            black_box(RegexSet::new(&pod.relevance_patterns).expect("compiles"));
            black_box(RegexSet::new(&pod.known_error_patterns).expect("compiles"));
            black_box(Regex::new(&pod.operation_start_pattern).expect("compiles"));
            black_box(Regex::new(&pod.operation_end_pattern).expect("compiles"));
        }
    });
    let compile_us = compile_s * 1e6 / COMPILES as f64;
    r.set("regex.compile_us_per_engine", compile_us);
    r.set("regex.compile_share_of_build", ratio(compile_us, build_us));

    // assert: one passing high-level assertion on the healthy cluster.
    const EVALS: usize = 200;
    let (cloud, env) = cluster(1);
    let evaluator = AssertionEvaluator::new(
        ConsistentApi::new(cloud, RetryPolicy::default()),
        LogStorage::new(),
    );
    let assertion = CloudAssertion::AsgInstanceCount { count: 4 };
    let (eval_s, failures) = fastest(|| {
        (0..EVALS)
            .filter(|_| {
                evaluator
                    .evaluate(black_box(&assertion), &env, AssertionTrigger::Log, None)
                    .is_failure()
            })
            .count()
    });
    r.check(failures == 0, || {
        format!("assert fixture: {failures} of {EVALS} evaluations failed on a healthy cluster")
    });
    r.set("assert.eval_us", eval_s * 1e6 / EVALS as f64);

    // faulttree: the wrong-AMI walk of `benches/fault_tree_diagnosis.rs`,
    // each on a fresh cloud built outside the timed interval.
    let tree = version_count_tree(true);
    let mut walk_s = f64::INFINITY;
    let mut causes = 0;
    for _ in 0..PASSES * 8 {
        let (cloud, env) = cluster(2);
        let rogue = cloud.admin_create_ami("rogue", "9.9");
        cloud.admin_update_launch_config(
            &env.launch_config,
            LaunchConfigUpdate {
                ami: Some(rogue),
                ..LaunchConfigUpdate::default()
            },
        );
        let engine = DiagnosisEngine::new(
            ConsistentApi::new(cloud, RetryPolicy::default()),
            LogStorage::new(),
        );
        let ctx = DiagnosisContext {
            env,
            step: None,
            instance: None,
            operation_started: SimTime::ZERO,
        };
        let (report, s) = timed(|| engine.diagnose(black_box(&tree), &ctx));
        walk_s = walk_s.min(s);
        causes = report.root_causes.len();
    }
    r.check(causes > 0, || {
        "faulttree fixture: the wrong-AMI walk found no root cause".to_string()
    });
    r.set("faulttree.walk_us", walk_s * 1e6);
}
