//! On-demand diagnostic tests: how a fault-tree node is confirmed or
//! excluded at diagnosis time.

use std::sync::LazyLock;

use pod_assert::{
    AssertionOutcome, CloudAssertion, ConsistentApi, ExpectedEnv, InstanceAssertionKind,
};
use pod_cloud::{ActivityStatus, InstanceId};
use pod_regex::Regex;
use pod_sim::SimTime;

/// A termination request in the scaling-activity feed.
static TERMINATION_REQUESTED: LazyLock<Regex> = LazyLock::new(|| {
    Regex::new(r"Terminating EC2 instance.*: (?P<id>i-[0-9a-f]+)").expect("static pattern")
});
/// A completed termination in the scaling-activity feed.
static TERMINATION_COMPLETED: LazyLock<Regex> = LazyLock::new(|| {
    Regex::new(r"Terminated EC2 instance: (?P<id>i-[0-9a-f]+)").expect("static pattern")
});

/// The outcome of one diagnostic test.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TestResult {
    /// The fault is present.
    Present,
    /// The fault is excluded.
    Absent,
    /// The test could not be performed (e.g. it needs an instance id the
    /// trigger did not carry, or the monitoring source is unavailable).
    Inconclusive {
        /// Why the test could not run.
        reason: String,
    },
}

/// A diagnostic test bound to a fault-tree node.
#[derive(Debug, Clone)]
pub enum DiagnosticTest {
    /// Run an on-demand assertion; the fault is present iff it **fails**.
    AssertionFails(CloudAssertion),
    /// Run a per-instance assertion against the instance from the error
    /// context; inconclusive when the context has no instance id (the
    /// paper's first wrong-diagnosis class: purely timer-based triggers
    /// carry no instance id).
    InstanceAssertionFails(InstanceAssertionKind),
    /// Consult the scaling-activity feed: the fault is present iff a
    /// **failed** activity since operation start matches the pattern.
    FailedActivityMatching {
        /// Pattern over activity descriptions.
        pattern: Regex,
    },
    /// Consult the scaling-activity feed: present iff **any** activity
    /// since operation start matches the pattern (used for legitimate
    /// concurrent operations such as scale-in).
    ActivityMatching {
        /// Pattern over activity descriptions.
        pattern: Regex,
    },
    /// Consult the scaling-activity feed for an instance that completed
    /// termination without any recorded termination *request* — the
    /// signature of a termination outside every known operation. The cause
    /// cannot be established without API-call logs (CloudTrail), so this
    /// test confirms the *event* but never a root cause.
    UnexpectedTermination,
    /// The ASG's desired capacity no longer matches the configuration
    /// repository — the signature of a concurrent scale-in/out by another
    /// operation.
    DesiredCapacityDiffersFromExpected,
}

/// Everything a diagnostic test may need at run time.
#[derive(Debug, Clone)]
pub struct DiagnosisContext {
    /// Expected environment (configuration repository snapshot).
    pub env: ExpectedEnv,
    /// The process step the triggering error belongs to, if known.
    pub step: Option<String>,
    /// The cloud instance implicated by the triggering log line, if any.
    pub instance: Option<InstanceId>,
    /// When the operation started (activity-feed queries look from here).
    pub operation_started: SimTime,
}

impl DiagnosticTest {
    /// [`DiagnosticTest::FailedActivityMatching`] over `pattern`, compiled
    /// here, when the tree is built; panics on an invalid pattern.
    pub fn failed_activity_matching(pattern: &str) -> DiagnosticTest {
        let pattern = Regex::new(pattern).expect("valid activity pattern");
        DiagnosticTest::FailedActivityMatching { pattern }
    }

    /// [`DiagnosticTest::ActivityMatching`] over `pattern`, compiled here,
    /// when the tree is built; panics on an invalid pattern.
    pub fn activity_matching(pattern: &str) -> DiagnosticTest {
        let pattern = Regex::new(pattern).expect("valid activity pattern");
        DiagnosticTest::ActivityMatching { pattern }
    }

    /// A rough cost estimate in API calls, used by the cost-ordered visit
    /// strategy (the paper's "another option would be to consider the
    /// expected time/cost of the diagnostic tests").
    pub fn cost_estimate(&self) -> u32 {
        match self {
            DiagnosticTest::AssertionFails(a) => match a.level() {
                pod_assert::AssertionLevel::High => 4,
                pod_assert::AssertionLevel::Low => 1,
            },
            DiagnosticTest::InstanceAssertionFails(_) => 1,
            DiagnosticTest::FailedActivityMatching { .. }
            | DiagnosticTest::ActivityMatching { .. }
            | DiagnosticTest::UnexpectedTermination => 2,
            DiagnosticTest::DesiredCapacityDiffersFromExpected => 1,
        }
    }

    /// Runs the test.
    pub fn run(&self, api: &ConsistentApi, ctx: &DiagnosisContext) -> TestResult {
        match self {
            DiagnosticTest::AssertionFails(assertion) => match assertion.evaluate(api, &ctx.env) {
                AssertionOutcome::Passed => TestResult::Absent,
                AssertionOutcome::Failed { .. } => TestResult::Present,
            },
            DiagnosticTest::InstanceAssertionFails(check) => {
                let Some(instance) = &ctx.instance else {
                    return TestResult::Inconclusive {
                        reason: "no instance id in the error context".to_string(),
                    };
                };
                match check.on(instance.clone()).evaluate(api, &ctx.env) {
                    AssertionOutcome::Passed => TestResult::Absent,
                    AssertionOutcome::Failed { .. } => TestResult::Present,
                }
            }
            DiagnosticTest::FailedActivityMatching { pattern } => {
                self.match_activities(api, ctx, pattern, true)
            }
            DiagnosticTest::ActivityMatching { pattern } => {
                self.match_activities(api, ctx, pattern, false)
            }
            DiagnosticTest::UnexpectedTermination => self.unexpected_termination(api, ctx),
            DiagnosticTest::DesiredCapacityDiffersFromExpected => {
                let expected = ctx.env.expected_count;
                match api.execute(|c| c.describe_asg(&ctx.env.asg)) {
                    Ok(group) => {
                        if group.desired_capacity != expected {
                            TestResult::Present
                        } else {
                            TestResult::Absent
                        }
                    }
                    Err(e) => TestResult::Inconclusive {
                        reason: format!("cannot read ASG: {e}"),
                    },
                }
            }
        }
    }

    /// Looks for a completed termination with no matching termination
    /// request in the activity feed.
    fn unexpected_termination(&self, api: &ConsistentApi, ctx: &DiagnosisContext) -> TestResult {
        let activities =
            api.execute(|c| c.describe_scaling_activities(&ctx.env.asg, ctx.operation_started));
        match activities {
            Ok(acts) => {
                let mut asked: Vec<String> = Vec::new();
                let mut done: Vec<String> = Vec::new();
                for a in &acts {
                    if let Some(caps) = TERMINATION_REQUESTED.captures(&a.description) {
                        asked.push(caps.name("id").expect("captured").to_string());
                    } else if let Some(caps) = TERMINATION_COMPLETED.captures(&a.description) {
                        done.push(caps.name("id").expect("captured").to_string());
                    }
                }
                if done.iter().any(|id| !asked.contains(id)) {
                    TestResult::Present
                } else {
                    TestResult::Absent
                }
            }
            Err(e) => TestResult::Inconclusive {
                reason: format!("activity feed unavailable: {e}"),
            },
        }
    }

    fn match_activities(
        &self,
        api: &ConsistentApi,
        ctx: &DiagnosisContext,
        pattern: &Regex,
        failed_only: bool,
    ) -> TestResult {
        let activities =
            api.execute(|c| c.describe_scaling_activities(&ctx.env.asg, ctx.operation_started));
        match activities {
            Ok(acts) => {
                let hit = acts.iter().any(|a| {
                    let status_ok = !failed_only || matches!(a.status, ActivityStatus::Failed(_));
                    status_ok && pattern.is_match(&a.description)
                });
                if hit {
                    TestResult::Present
                } else {
                    TestResult::Absent
                }
            }
            Err(e) => TestResult::Inconclusive {
                reason: format!("activity feed unavailable: {e}"),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pod_assert::RetryPolicy;
    use pod_cloud::{Cloud, CloudConfig};
    use pod_sim::{Clock, SimDuration, SimRng};

    fn setup() -> (ConsistentApi, DiagnosisContext, Cloud) {
        let cloud = Cloud::new(
            Clock::new(),
            SimRng::seed_from(4),
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
        let policy = RetryPolicy {
            max_retries: 2,
            timeout: SimDuration::from_secs(10),
            ..RetryPolicy::default()
        };
        (ConsistentApi::new(cloud.clone(), policy), ctx, cloud)
    }

    #[test]
    fn assertion_test_inverts_outcome() {
        let (api, ctx, cloud) = setup();
        let t = DiagnosticTest::AssertionFails(CloudAssertion::AmiAvailable);
        assert_eq!(t.run(&api, &ctx), TestResult::Absent);
        cloud.admin_set_ami_available(&ctx.env.expected_ami, false);
        assert_eq!(t.run(&api, &ctx), TestResult::Present);
    }

    #[test]
    fn instance_test_needs_context() {
        let (api, mut ctx, cloud) = setup();
        let t = DiagnosticTest::InstanceAssertionFails(InstanceAssertionKind::UsesExpectedAmi);
        assert!(matches!(t.run(&api, &ctx), TestResult::Inconclusive { .. }));
        let id = cloud.admin_describe_asg(&ctx.env.asg).unwrap().instances[0].clone();
        ctx.instance = Some(id);
        assert_eq!(t.run(&api, &ctx), TestResult::Absent);
    }

    #[test]
    fn failed_activity_test_sees_launch_failures() {
        let (api, ctx, cloud) = setup();
        let t = DiagnosticTest::failed_activity_matching("AMI .* unavailable");
        assert_eq!(t.run(&api, &ctx), TestResult::Absent);
        // Break the AMI and force a replacement launch.
        cloud.admin_set_ami_available(&ctx.env.expected_ami, false);
        let victim = cloud.admin_describe_asg(&ctx.env.asg).unwrap().instances[0].clone();
        cloud.admin_terminate_instance(&victim);
        cloud.sleep(SimDuration::from_secs(120));
        assert_eq!(t.run(&api, &ctx), TestResult::Present);
    }

    #[test]
    fn scale_in_activity_is_visible() {
        let (api, ctx, cloud) = setup();
        let t = DiagnosticTest::activity_matching("scale in");
        assert_eq!(t.run(&api, &ctx), TestResult::Absent);
        cloud
            .update_asg(
                &ctx.env.asg,
                pod_cloud::AsgUpdate {
                    desired_capacity: Some(1),
                    ..pod_cloud::AsgUpdate::default()
                },
            )
            .unwrap();
        cloud.sleep(SimDuration::from_secs(60));
        assert_eq!(t.run(&api, &ctx), TestResult::Present);
    }

    #[test]
    fn cost_estimates_rank_high_level_higher() {
        let high =
            DiagnosticTest::AssertionFails(CloudAssertion::AsgHasInstancesWithVersion { count: 4 });
        let low = DiagnosticTest::AssertionFails(CloudAssertion::LaunchConfigUsesAmi);
        assert!(high.cost_estimate() > low.cost_estimate());
    }
}
