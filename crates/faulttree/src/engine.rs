//! The error-diagnosis engine: top-down fault-tree traversal with on-demand
//! diagnostic tests, result caching and a paper-style diagnosis transcript.

use std::collections::HashMap;

use pod_assert::ConsistentApi;
use pod_log::{LogEvent, LogRecord, LogStorage, Severity};
use pod_obs::{Counter, Histogram, Obs};
use pod_sim::{SimDuration, SimTime};

use crate::test::{DiagnosisContext, TestResult};
use crate::tree::{FaultNode, FaultTree};

/// Sibling visiting order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TestOrder {
    /// Highest fault probability first — the paper's default.
    #[default]
    ByProbability,
    /// Cheapest diagnostic test first — the alternative the paper mentions.
    ByCost,
}

/// A confirmed root cause.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiagnosedCause {
    /// The fault-tree node id.
    pub node_id: String,
    /// Instantiated description.
    pub description: String,
}

/// The overall verdict of a diagnosis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DiagnosisVerdict {
    /// One or more root causes were confirmed.
    RootCauseIdentified,
    /// An error was confirmed but its cause could not be determined
    /// ("diagnosis stops at the point where no further child nodes can be
    /// checked").
    ErrorConfirmedCauseUnknown,
    /// Nothing in the tree is present — the detection was likely spurious.
    NoRootCauseIdentified,
}

/// The result of one diagnosis run.
#[derive(Debug, Clone)]
pub struct DiagnosisReport {
    /// Confirmed root causes, in discovery order.
    pub root_causes: Vec<DiagnosedCause>,
    /// Confirmed error events whose children were all excluded or
    /// uncheckable (deepest successful error tests without a cause).
    pub stopped_at: Vec<DiagnosedCause>,
    /// Number of potential faults in the (pruned, instantiated) tree.
    pub potential_faults: usize,
    /// Faults excluded by tests.
    pub excluded: usize,
    /// Diagnostic tests actually executed (cache hits not counted).
    pub tests_run: usize,
    /// How long after diagnosis start the first root cause was confirmed —
    /// the quantity the probability-ordered visit optimises.
    pub first_cause_after: Option<SimDuration>,
    /// When diagnosis started.
    pub started_at: SimTime,
    /// Total (virtual) diagnosis time.
    pub duration: SimDuration,
}

impl DiagnosisReport {
    /// The verdict derived from the report contents.
    pub fn verdict(&self) -> DiagnosisVerdict {
        if !self.root_causes.is_empty() {
            DiagnosisVerdict::RootCauseIdentified
        } else if !self.stopped_at.is_empty() {
            DiagnosisVerdict::ErrorConfirmedCauseUnknown
        } else {
            DiagnosisVerdict::NoRootCauseIdentified
        }
    }
}

/// Cached handles for the engine's metrics so the walk never touches the
/// registry lock.
#[derive(Debug, Clone)]
struct EngineMetrics {
    walks: Counter,
    tests_run: Counter,
    memo_hits: Counter,
    walk_depth: Histogram,
    time_to_first_cause_us: Histogram,
}

impl EngineMetrics {
    fn new(obs: &Obs) -> EngineMetrics {
        EngineMetrics {
            walks: obs.counter("faulttree.walks"),
            tests_run: obs.counter("faulttree.tests_run"),
            memo_hits: obs.counter("faulttree.memo_hits"),
            walk_depth: obs.histogram("faulttree.walk_depth"),
            time_to_first_cause_us: obs.histogram("faulttree.time_to_first_cause_us"),
        }
    }
}

/// The diagnosis engine. One engine serves many diagnoses; each call gets a
/// fresh test-result cache (results are reused across the single traversal,
/// including when a node is reachable from several ancestors).
#[derive(Debug, Clone)]
pub struct DiagnosisEngine {
    api: ConsistentApi,
    storage: LogStorage,
    order: TestOrder,
    memoise: bool,
    metrics: EngineMetrics,
}

impl DiagnosisEngine {
    /// Creates an engine logging its transcript to `storage`.
    pub fn new(api: ConsistentApi, storage: LogStorage) -> DiagnosisEngine {
        let metrics = EngineMetrics::new(api.cloud().obs());
        DiagnosisEngine {
            api,
            storage,
            order: TestOrder::ByProbability,
            memoise: true,
            metrics,
        }
    }

    /// Sets the sibling visiting order.
    pub fn with_order(mut self, order: TestOrder) -> DiagnosisEngine {
        self.order = order;
        self
    }

    /// Disables test-result memoisation (ablation baseline).
    pub fn without_memoisation(mut self) -> DiagnosisEngine {
        self.memoise = false;
        self
    }

    /// Diagnoses a detected error: selects the instantiated, pruned tree
    /// and walks it top-down, running diagnostic tests until root causes
    /// are confirmed or excluded.
    pub fn diagnose(&self, tree: &FaultTree, ctx: &DiagnosisContext) -> DiagnosisReport {
        let span = self.api.cloud().obs().span("faulttree.walk");
        span.attr("tree", &tree.assertion_key);
        self.metrics.walks.incr();
        let started_at = self.api.cloud().clock().now();
        let variables = ctx.env.variables();
        let step = ctx.step.as_deref();
        let potential = tree.root.potential_faults(step);
        self.log(
            started_at,
            ctx,
            Severity::Info,
            format!(
                "Performing on demand assertion checking: {}. {} potential faults in total",
                tree.root.instantiate(&variables),
                potential
            ),
        );
        let mut walk = Walk {
            engine: self,
            ctx,
            variables: &variables,
            cache: HashMap::new(),
            depth: 0,
            max_depth: 0,
            report: DiagnosisReport {
                root_causes: Vec::new(),
                stopped_at: Vec::new(),
                potential_faults: potential,
                excluded: 0,
                tests_run: 0,
                first_cause_after: None,
                started_at,
                duration: SimDuration::ZERO,
            },
        };
        walk.visit_children(&tree.root);
        let max_depth = walk.max_depth;
        let mut report = walk.report;
        report.duration = self.api.cloud().clock().now().duration_since(started_at);
        self.metrics.walk_depth.record(max_depth as u64);
        if let Some(first) = report.first_cause_after {
            self.metrics
                .time_to_first_cause_us
                .record(first.as_micros());
        }
        span.attr("tests_run", report.tests_run);
        let verdict_tag = match report.verdict() {
            DiagnosisVerdict::RootCauseIdentified => "root-cause-identified",
            DiagnosisVerdict::ErrorConfirmedCauseUnknown => "cause-unknown",
            DiagnosisVerdict::NoRootCauseIdentified => "no-root-cause",
        };
        span.attr("verdict", verdict_tag);
        let verdict_event = self
            .api
            .cloud()
            .obs()
            .event("diagnosis.verdict", verdict_tag);
        verdict_event.attr("tests_run", report.tests_run);
        verdict_event.attr("excluded", report.excluded);
        verdict_event.attr("duration_ms", report.duration.as_millis());
        if !report.root_causes.is_empty() {
            verdict_event.attr(
                "root_causes",
                report
                    .root_causes
                    .iter()
                    .map(|c| c.node_id.as_str())
                    .collect::<Vec<_>>()
                    .join("|"),
            );
        }
        let now = self.api.cloud().clock().now();
        match report.verdict() {
            DiagnosisVerdict::RootCauseIdentified => self.log(
                now,
                ctx,
                Severity::Info,
                format!(
                    "{} root cause(s) identified: {}",
                    report.root_causes.len(),
                    report
                        .root_causes
                        .iter()
                        .map(|c| c.description.as_str())
                        .collect::<Vec<_>>()
                        .join("; ")
                ),
            ),
            DiagnosisVerdict::ErrorConfirmedCauseUnknown => self.log(
                now,
                ctx,
                Severity::Warn,
                format!(
                    "Error confirmed but cause unknown; diagnosis stopped at: {}",
                    report
                        .stopped_at
                        .iter()
                        .map(|c| c.description.as_str())
                        .collect::<Vec<_>>()
                        .join("; ")
                ),
            ),
            DiagnosisVerdict::NoRootCauseIdentified => self.log(
                now,
                ctx,
                Severity::Info,
                "No root cause identified".to_string(),
            ),
        }
        report
    }

    fn log(&self, at: SimTime, ctx: &DiagnosisContext, severity: Severity, message: String) {
        self.storage.append_record(DiagnosisLine {
            at,
            step: ctx.step.clone(),
            severity,
            message,
        });
    }
}

/// A diagnosis step as central storage keeps it: what its `diagnosis.log`
/// line is built from, rendered when a query reads it.
#[derive(Debug)]
struct DiagnosisLine {
    at: SimTime,
    step: Option<String>,
    severity: Severity,
    message: String,
}

impl LogRecord for DiagnosisLine {
    fn render(&self) -> LogEvent {
        let step = self.step.as_deref().unwrap_or("-");
        LogEvent::new(
            self.at,
            "diagnosis.log",
            format!("[diagnosis] [step:{step}] {}", self.message),
        )
        .with_type("diagnosis")
        .with_severity(self.severity)
    }
}

struct Walk<'a> {
    engine: &'a DiagnosisEngine,
    ctx: &'a DiagnosisContext,
    variables: &'a [(String, String)],
    cache: HashMap<String, (TestResult, pod_obs::EventId)>,
    depth: usize,
    max_depth: usize,
    report: DiagnosisReport,
}

impl Walk<'_> {
    /// Visits the children of `node` in the configured order.
    fn visit_children(&mut self, node: &FaultNode) {
        let mut order: Vec<&FaultNode> = node
            .children
            .iter()
            .filter(|c| c.relevant_for(self.ctx.step.as_deref()))
            .collect();
        match self.engine.order {
            TestOrder::ByProbability => {
                order.sort_by(|a, b| {
                    b.probability
                        .partial_cmp(&a.probability)
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then_with(|| a.id.cmp(&b.id))
                });
            }
            TestOrder::ByCost => {
                order.sort_by(|a, b| {
                    let ca = a.test.as_ref().map(|t| t.cost_estimate()).unwrap_or(0);
                    let cb = b.test.as_ref().map(|t| t.cost_estimate()).unwrap_or(0);
                    ca.cmp(&cb).then_with(|| a.id.cmp(&b.id))
                });
            }
        }
        for child in order {
            self.visit(child);
        }
    }

    fn visit(&mut self, node: &FaultNode) {
        self.depth += 1;
        self.max_depth = self.max_depth.max(self.depth);
        let description = node.instantiate(self.variables);
        match &node.test {
            None => {
                // Structural node: descend directly.
                self.visit_children(node);
            }
            Some(test) => {
                let now = self.engine.api.cloud().clock().now();
                self.engine.log(
                    now,
                    self.ctx,
                    Severity::Info,
                    format!("Verifying: {description}"),
                );
                let (result, test_event) = self.run_cached(&node.id, test);
                let now = self.engine.api.cloud().clock().now();
                match result {
                    TestResult::Absent => {
                        self.report.excluded += node.potential_faults(self.ctx.step.as_deref());
                        self.engine.log(
                            now,
                            self.ctx,
                            Severity::Info,
                            format!(
                                "Verified: {description} — not present. {}/{} faults excluded",
                                self.report.excluded, self.report.potential_faults
                            ),
                        );
                    }
                    TestResult::Present => {
                        self.engine.log(
                            now,
                            self.ctx,
                            Severity::Error,
                            format!("Failed verification: {description} — fault present"),
                        );
                        if node.is_root_cause && node.children.is_empty() {
                            if self.report.first_cause_after.is_none() {
                                self.report.first_cause_after =
                                    Some(now.duration_since(self.report.started_at));
                            }
                            self.engine
                                .api
                                .cloud()
                                .obs()
                                .event_under(test_event, "diagnosis.cause", &node.id)
                                .attr("description", &description);
                            self.report.root_causes.push(DiagnosedCause {
                                node_id: node.id.clone(),
                                description,
                            });
                        } else {
                            let causes_before = self.report.root_causes.len();
                            self.visit_children(node);
                            if self.report.root_causes.len() == causes_before {
                                // Deepest confirmed error without a cause.
                                self.report.stopped_at.push(DiagnosedCause {
                                    node_id: node.id.clone(),
                                    description,
                                });
                            }
                        }
                    }
                    TestResult::Inconclusive { reason } => {
                        self.engine.log(
                            now,
                            self.ctx,
                            Severity::Warn,
                            format!("Cannot verify {description}: {reason}"),
                        );
                        // "Diagnosis stops at the point where no further
                        // child nodes can be checked."
                    }
                }
            }
        }
        self.depth -= 1;
    }

    /// Runs (or serves from cache) one diagnostic test, returning the
    /// result and the `faulttree.test` causal event it is evidenced by (the
    /// original test's event on a memo hit, so a cause confirmed twice
    /// still chains to the test that actually ran).
    fn run_cached(
        &mut self,
        id: &str,
        test: &crate::test::DiagnosticTest,
    ) -> (TestResult, pod_obs::EventId) {
        if self.engine.memoise {
            if let Some(hit) = self.cache.get(id) {
                self.engine.metrics.memo_hits.incr();
                return hit.clone();
            }
        }
        let obs = self.engine.api.cloud().obs().clone();
        // The test's event is the span of the test: consistent-layer
        // retries made by the test chain under it and nest in it.
        let emitted = obs.event_span("faulttree.test", id);
        let result = {
            let _scope = obs.events().scope(Some(emitted.id()));
            test.run(&self.engine.api, self.ctx)
        };
        let tag = match &result {
            TestResult::Absent => "absent",
            TestResult::Present => "present",
            TestResult::Inconclusive { .. } => "inconclusive",
        };
        emitted.attr("result", tag);
        self.report.tests_run += 1;
        self.engine.metrics.tests_run.incr();
        if self.engine.memoise {
            self.cache
                .insert(id.to_string(), (result.clone(), emitted.id()));
        }
        (result, emitted.id())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test::DiagnosticTest;
    use crate::tree::{FaultNode, FaultTree};
    use pod_assert::{CloudAssertion, ExpectedEnv, RetryPolicy};
    use pod_cloud::{Cloud, CloudConfig};
    use pod_log::LogQuery;
    use pod_sim::{Clock, SimRng};

    fn setup() -> (DiagnosisEngine, DiagnosisContext, Cloud, LogStorage) {
        let cloud = Cloud::new(
            Clock::new(),
            SimRng::seed_from(21),
            CloudConfig {
                stale_read_prob: 0.0,
                ..CloudConfig::default()
            },
        );
        let ami = cloud.admin_create_ami("app", "2.0");
        let cluster = cloud.admin_create_cluster(ami, "prod", "lc", "g", 10, 2);
        let env = ExpectedEnv::for_cluster(cluster, "2.0", 2);
        let ctx = DiagnosisContext {
            env,
            step: None,
            instance: None,
            operation_started: SimTime::ZERO,
        };
        let storage = LogStorage::new();
        let policy = RetryPolicy {
            max_retries: 2,
            timeout: SimDuration::from_secs(10),
            ..RetryPolicy::default()
        };
        let engine = DiagnosisEngine::new(
            pod_assert::ConsistentApi::new(cloud.clone(), policy),
            storage.clone(),
        );
        (engine, ctx, cloud, storage)
    }

    fn demo_tree() -> FaultTree {
        let root = FaultNode::branch("root", "system does not have {N} instances of {VERSION}")
            .child(
                FaultNode::branch("lc-wrong", "launch configuration {LC} incorrect")
                    .with_test(DiagnosticTest::AssertionFails(
                        CloudAssertion::AsgLaunchConfigCorrect,
                    ))
                    .with_probability(0.4)
                    .child(FaultNode::root_cause(
                        "lc-wrong-ami",
                        "the launch configuration {LC} uses a wrong AMI",
                        DiagnosticTest::AssertionFails(CloudAssertion::LaunchConfigUsesAmi),
                        0.5,
                    )),
            )
            .child(FaultNode::root_cause(
                "ami-wrong",
                "the launch configuration uses a wrong AMI",
                DiagnosticTest::AssertionFails(CloudAssertion::LaunchConfigUsesAmi),
                0.6,
            ))
            .child(FaultNode::root_cause(
                "kp-wrong",
                "the launch configuration uses a wrong key pair",
                DiagnosticTest::AssertionFails(CloudAssertion::LaunchConfigUsesKeyPair),
                0.3,
            ));
        FaultTree::new("asg-has-n-instances-with-version", root)
    }

    #[test]
    fn healthy_system_yields_no_root_cause() {
        let (engine, ctx, _cloud, storage) = setup();
        let report = engine.diagnose(&demo_tree(), &ctx);
        assert_eq!(report.verdict(), DiagnosisVerdict::NoRootCauseIdentified);
        assert!(report.excluded > 0);
        assert!(report.duration > SimDuration::ZERO);
        let transcript = storage.query(&LogQuery::new());
        assert!(transcript
            .iter()
            .any(|e| e.message.contains("No root cause identified")));
        assert!(transcript[0].message.contains("potential faults in total"));
    }

    #[test]
    fn wrong_ami_is_pinpointed() {
        let (engine, ctx, cloud, storage) = setup();
        let evil = cloud.admin_create_ami("evil", "9.9");
        cloud.admin_update_launch_config(
            &ctx.env.launch_config,
            pod_cloud::LaunchConfigUpdate {
                ami: Some(evil),
                ..pod_cloud::LaunchConfigUpdate::default()
            },
        );
        let report = engine.diagnose(&demo_tree(), &ctx);
        assert_eq!(report.verdict(), DiagnosisVerdict::RootCauseIdentified);
        assert!(report
            .root_causes
            .iter()
            .any(|c| c.node_id == "ami-wrong" || c.node_id == "lc-wrong-ami"));
        // The key-pair fault was excluded.
        assert!(report.excluded >= 1);
        assert!(storage
            .query(&LogQuery::new())
            .iter()
            .any(|e| e.message.contains("root cause(s) identified")));
    }

    #[test]
    fn memoisation_reuses_duplicate_tests() {
        let (engine, ctx, cloud, _) = setup();
        let evil = cloud.admin_create_ami("evil", "9.9");
        cloud.admin_update_launch_config(
            &ctx.env.launch_config,
            pod_cloud::LaunchConfigUpdate {
                ami: Some(evil),
                ..pod_cloud::LaunchConfigUpdate::default()
            },
        );
        // Tree where the same node id appears under two branches.
        let dup = FaultNode::root_cause(
            "shared-ami-check",
            "wrong AMI",
            DiagnosticTest::AssertionFails(CloudAssertion::LaunchConfigUsesAmi),
            0.5,
        );
        let tree = FaultTree::new(
            "k",
            FaultNode::branch("root", "top")
                .child(dup.clone())
                .child(dup),
        );
        let memo = engine.clone().diagnose(&tree, &ctx);
        assert_eq!(memo.tests_run, 1, "second occurrence served from cache");
        let nomemo = engine.without_memoisation().diagnose(&tree, &ctx);
        assert_eq!(nomemo.tests_run, 2);
    }

    #[test]
    fn step_context_prunes_irrelevant_branches() {
        let (engine, mut ctx, cloud, _) = setup();
        let evil_kp = cloud.admin_create_key_pair("evil");
        cloud.admin_update_launch_config(
            &ctx.env.launch_config,
            pod_cloud::LaunchConfigUpdate {
                key_pair: Some(evil_kp),
                ..pod_cloud::LaunchConfigUpdate::default()
            },
        );
        let tree = FaultTree::new(
            "k",
            FaultNode::branch("root", "top")
                .child(
                    FaultNode::root_cause(
                        "kp",
                        "wrong key pair",
                        DiagnosticTest::AssertionFails(CloudAssertion::LaunchConfigUsesKeyPair),
                        0.5,
                    )
                    .in_step("update-launch-config"),
                )
                .child(
                    FaultNode::root_cause(
                        "ami",
                        "wrong AMI",
                        DiagnosticTest::AssertionFails(CloudAssertion::LaunchConfigUsesAmi),
                        0.5,
                    )
                    .in_step("new-instance-ready"),
                ),
        );
        ctx.step = Some("new-instance-ready".to_string());
        let report = engine.diagnose(&tree, &ctx);
        // The key-pair fault IS present, but its branch was pruned away.
        assert_eq!(report.verdict(), DiagnosisVerdict::NoRootCauseIdentified);
        assert_eq!(report.potential_faults, 1);
        // Without a step context, it is found.
        ctx.step = None;
        let report = engine.diagnose(&tree, &ctx);
        assert_eq!(report.verdict(), DiagnosisVerdict::RootCauseIdentified);
    }

    #[test]
    fn confirmed_branch_without_cause_stops_there() {
        let (engine, ctx, cloud, _) = setup();
        // Make the top-level LC check fail but keep all child checks green:
        // point the ASG at a *different* (but internally consistent) LC.
        let other_lc = cloud.admin_create_launch_config(
            "lc-other",
            ctx.env.expected_ami.clone(),
            "m1.small",
            ctx.env.expected_key_pair.clone(),
            ctx.env.expected_security_group.clone(),
        );
        cloud
            .update_asg(
                &ctx.env.asg,
                pod_cloud::AsgUpdate {
                    launch_config: Some(other_lc),
                    ..pod_cloud::AsgUpdate::default()
                },
            )
            .unwrap();
        let tree = FaultTree::new(
            "k",
            FaultNode::branch("root", "top").child(
                FaultNode::branch(
                    "asg-lc",
                    "ASG {ASG} uses an unexpected launch configuration",
                )
                .with_test(DiagnosticTest::AssertionFails(
                    CloudAssertion::AsgLaunchConfigCorrect,
                ))
                .child(FaultNode::root_cause(
                    "ami",
                    "wrong AMI",
                    DiagnosticTest::AssertionFails(CloudAssertion::LaunchConfigUsesAmi),
                    0.5,
                )),
            ),
        );
        let report = engine.diagnose(&tree, &ctx);
        assert_eq!(
            report.verdict(),
            DiagnosisVerdict::ErrorConfirmedCauseUnknown
        );
        assert_eq!(report.stopped_at.len(), 1);
        assert!(report.stopped_at[0].description.contains("g uses"));
    }

    #[test]
    fn cost_order_is_never_more_expensive_on_library_trees() {
        // Library-wide contract between the two sibling orders: on every
        // tree of the shipped repository, cheapest-test-first must reach the
        // same verdict and the same root causes as the paper's
        // probability-first default, without running more diagnostic tests.
        let repository = crate::library::rolling_upgrade_repository(true);
        for scenario in ["healthy", "lc-wrong-ami", "ami-unavailable"] {
            let (engine, ctx, cloud, _storage) = setup();
            match scenario {
                "lc-wrong-ami" => {
                    let rogue = cloud.admin_create_ami("app", "0.9");
                    cloud.admin_update_launch_config(
                        &ctx.env.launch_config,
                        pod_cloud::LaunchConfigUpdate {
                            ami: Some(rogue),
                            ..pod_cloud::LaunchConfigUpdate::default()
                        },
                    );
                }
                "ami-unavailable" => {
                    cloud.admin_set_ami_available(&ctx.env.expected_ami, false);
                }
                _ => {}
            }
            for tree in repository.trees() {
                let by_cost = engine
                    .clone()
                    .with_order(TestOrder::ByCost)
                    .diagnose(tree, &ctx);
                let by_probability = engine
                    .clone()
                    .with_order(TestOrder::ByProbability)
                    .diagnose(tree, &ctx);
                assert_eq!(
                    by_cost.verdict(),
                    by_probability.verdict(),
                    "verdicts diverge on tree {} under {scenario}",
                    tree.assertion_key
                );
                let causes = |r: &DiagnosisReport| {
                    let mut ids: Vec<String> =
                        r.root_causes.iter().map(|c| c.node_id.clone()).collect();
                    ids.sort();
                    ids
                };
                assert_eq!(
                    causes(&by_cost),
                    causes(&by_probability),
                    "root causes diverge on tree {} under {scenario}",
                    tree.assertion_key
                );
                assert!(
                    by_cost.tests_run <= by_probability.tests_run,
                    "ByCost ran {} tests but ByProbability only {} on tree {} under {scenario}",
                    by_cost.tests_run,
                    by_probability.tests_run,
                    tree.assertion_key
                );
            }
        }
    }

    #[test]
    fn cost_order_runs_cheap_tests_first() {
        let (engine, ctx, _cloud, storage) = setup();
        let tree = FaultTree::new(
            "k",
            FaultNode::branch("root", "top")
                .child(FaultNode::root_cause(
                    "expensive",
                    "expensive high-level check",
                    DiagnosticTest::AssertionFails(CloudAssertion::AsgHasInstancesWithVersion {
                        count: 2,
                    }),
                    0.9,
                ))
                .child(FaultNode::root_cause(
                    "cheap",
                    "cheap low-level check",
                    DiagnosticTest::AssertionFails(CloudAssertion::LaunchConfigUsesAmi),
                    0.1,
                )),
        );
        let logged = || storage.query(&LogQuery::new());
        let first_verify_after = |seen: usize| {
            let mut verifying = logged().into_iter().skip(seen);
            let first = verifying.find(|e| e.message.contains("Verifying:"));
            first.unwrap().message
        };
        let seen = logged().len();
        engine
            .clone()
            .with_order(TestOrder::ByCost)
            .diagnose(&tree, &ctx);
        assert!(first_verify_after(seen).contains("cheap"));
        let seen = logged().len();
        engine
            .with_order(TestOrder::ByProbability)
            .diagnose(&tree, &ctx);
        assert!(first_verify_after(seen).contains("expensive"));
    }

    use pod_sim::SimDuration;
}
