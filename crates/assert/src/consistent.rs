//! The consistent-API layer (Section IV of the paper).
//!
//! "To be resilient against AWS API inconsistency we also implemented a
//! consistent AWS API layer. This includes an exponential retry mechanism:
//! if the supposed status of a specific cloud resource is different from our
//! expectation we retry the respective AWS API calls automatically. We also
//! introduce an API timeout mechanism: assertion evaluations are regarded as
//! failed if API calls time out."

use std::fmt;

use pod_cloud::{ApiError, Cloud};
use pod_obs::{Counter, Histogram};
use pod_sim::{SimDuration, SimTime};

/// Retry/timeout policy of the consistent layer.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Maximum number of retries after the first attempt.
    pub max_retries: u32,
    /// Backoff before the first retry; doubles each time (exponential).
    pub base_backoff: SimDuration,
    /// Multiplier applied to the backoff after each retry.
    pub multiplier: f64,
    /// Total wall-clock budget; exceeding it fails the call with
    /// [`ConsistentError::Timeout`]. The paper sets this from the 95th
    /// percentile of measured call latencies.
    pub timeout: SimDuration,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_retries: 5,
            base_backoff: SimDuration::from_millis(200),
            multiplier: 2.0,
            timeout: SimDuration::from_secs(15),
        }
    }
}

/// An error from the consistent layer.
#[derive(Debug, Clone, PartialEq)]
pub enum ConsistentError {
    /// The call (including retries) exceeded the policy timeout.
    Timeout {
        /// How long the call ran before being abandoned.
        elapsed: SimDuration,
    },
    /// A non-retryable API error, or retries were exhausted on a retryable
    /// one.
    Api(ApiError),
    /// The expectation predicate never held within the retry budget.
    ExpectationNotMet {
        /// Number of attempts made.
        attempts: u32,
    },
}

impl fmt::Display for ConsistentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConsistentError::Timeout { elapsed } => {
                write!(f, "API call timed out after {elapsed}")
            }
            ConsistentError::Api(e) => write!(f, "API error: {e}"),
            ConsistentError::ExpectationNotMet { attempts } => {
                write!(f, "expected state not observed after {attempts} attempts")
            }
        }
    }
}

impl std::error::Error for ConsistentError {}

impl From<ApiError> for ConsistentError {
    fn from(e: ApiError) -> Self {
        ConsistentError::Api(e)
    }
}

/// A [`Cloud`] wrapper adding exponential retry and timeouts.
///
/// # Examples
///
/// ```
/// use pod_assert::{ConsistentApi, RetryPolicy};
/// use pod_cloud::{Cloud, CloudConfig};
/// use pod_sim::{Clock, SimRng};
///
/// let cloud = Cloud::new(Clock::new(), SimRng::seed_from(3), CloudConfig::default());
/// let ami = cloud.admin_create_ami("app", "1.0");
/// let api = ConsistentApi::new(cloud.clone(), RetryPolicy::default());
///
/// // Read-until: retries stale reads until the predicate holds.
/// let got = api
///     .read_until(|c| c.describe_ami(&ami), |a| a.available)
///     .unwrap();
/// assert_eq!(got.version, "1.0");
/// ```
#[derive(Debug, Clone)]
pub struct ConsistentApi {
    cloud: Cloud,
    policy: RetryPolicy,
    metrics: ConsistentMetrics,
}

/// Cached handles for the consistent-layer metrics.
#[derive(Debug, Clone)]
struct ConsistentMetrics {
    calls: Counter,
    retries: Counter,
    timeouts: Counter,
    expectation_failures: Counter,
    converge_us: Histogram,
}

impl ConsistentApi {
    /// Wraps a cloud handle with the given policy.
    pub fn new(cloud: Cloud, policy: RetryPolicy) -> ConsistentApi {
        let obs = cloud.obs();
        let metrics = ConsistentMetrics {
            calls: obs.counter("consistent.calls"),
            retries: obs.counter("consistent.retries"),
            timeouts: obs.counter("consistent.timeouts"),
            expectation_failures: obs.counter("consistent.expectation_failures"),
            converge_us: obs.histogram("consistent.converge_us"),
        };
        ConsistentApi {
            cloud,
            policy,
            metrics,
        }
    }

    /// The underlying cloud handle.
    pub fn cloud(&self) -> &Cloud {
        &self.cloud
    }

    /// Executes `call`, retrying transient API errors with exponential
    /// backoff, within the policy timeout.
    ///
    /// # Errors
    ///
    /// [`ConsistentError::Api`] on non-retryable errors or exhausted
    /// retries, [`ConsistentError::Timeout`] when the budget is exceeded.
    pub fn execute<T>(
        &self,
        mut call: impl FnMut(&Cloud) -> Result<T, ApiError>,
    ) -> Result<T, ConsistentError> {
        self.read_until(&mut call, |_| true)
    }

    /// Executes `call` until `expect` holds on the result, retrying both
    /// transient errors and unexpected (presumed stale) reads.
    ///
    /// # Errors
    ///
    /// As [`ConsistentApi::execute`], plus
    /// [`ConsistentError::ExpectationNotMet`] when retries are exhausted
    /// while the API keeps answering successfully but unexpectedly.
    pub fn read_until<T>(
        &self,
        mut call: impl FnMut(&Cloud) -> Result<T, ApiError>,
        expect: impl Fn(&T) -> bool,
    ) -> Result<T, ConsistentError> {
        let start = self.now();
        self.metrics.calls.incr();
        let mut backoff = self.policy.base_backoff;
        let mut attempts = 0u32;
        loop {
            attempts += 1;
            if attempts > 1 {
                self.metrics.retries.incr();
            }
            let result = call(&self.cloud);
            let elapsed = self.now().duration_since(start);
            if elapsed > self.policy.timeout {
                self.metrics.timeouts.incr();
                self.emit_retry("timeout", attempts, elapsed);
                return Err(ConsistentError::Timeout { elapsed });
            }
            match result {
                Ok(value) if expect(&value) => {
                    self.metrics.converge_us.record(elapsed.as_micros());
                    if attempts > 1 {
                        self.emit_retry("converged", attempts, elapsed);
                    }
                    return Ok(value);
                }
                Ok(_) if attempts > self.policy.max_retries => {
                    self.metrics.expectation_failures.incr();
                    self.emit_retry("expectation-not-met", attempts, elapsed);
                    return Err(ConsistentError::ExpectationNotMet { attempts });
                }
                Ok(_) => {}
                Err(e) if !e.is_retryable() => {
                    self.emit_retry("api-error", attempts, elapsed);
                    return Err(ConsistentError::Api(e));
                }
                Err(e) => {
                    if attempts > self.policy.max_retries {
                        self.emit_retry("api-error", attempts, elapsed);
                        return Err(ConsistentError::Api(e));
                    }
                }
            }
            // Back off before the next attempt; this consumes virtual time,
            // which is what makes diagnosis latency realistic.
            self.cloud.sleep(backoff);
            backoff = SimDuration::from_secs_f64(backoff.as_secs_f64() * self.policy.multiplier);
            let elapsed = self.now().duration_since(start);
            if elapsed > self.policy.timeout {
                self.metrics.timeouts.incr();
                self.emit_retry("timeout", attempts, elapsed);
                return Err(ConsistentError::Timeout { elapsed });
            }
        }
    }

    /// Emits the `consistent.retry` causal event summarising a call that
    /// needed the retry machinery (or failed). First-attempt successes stay
    /// silent so the event ring records hand-offs, not every API call.
    fn emit_retry(&self, outcome: &str, attempts: u32, elapsed: SimDuration) {
        let emitted = self.cloud.obs().event("consistent.retry", outcome);
        emitted.attr("attempts", attempts);
        emitted.attr("elapsed_ms", elapsed.as_millis());
    }

    fn now(&self) -> SimTime {
        self.cloud.clock().now()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pod_cloud::CloudConfig;
    use pod_sim::{Clock, SimRng};

    fn cloud_with(stale_prob: f64) -> Cloud {
        Cloud::new(
            Clock::new(),
            SimRng::seed_from(11),
            CloudConfig {
                stale_read_prob: stale_prob,
                ..CloudConfig::default()
            },
        )
    }

    #[test]
    fn passthrough_on_success() {
        let cloud = cloud_with(0.0);
        let ami = cloud.admin_create_ami("a", "1");
        let api = ConsistentApi::new(cloud, RetryPolicy::default());
        let got = api.execute(|c| c.describe_ami(&ami)).unwrap();
        assert_eq!(got.version, "1");
    }

    #[test]
    fn non_retryable_error_is_immediate() {
        let cloud = cloud_with(0.0);
        let api = ConsistentApi::new(cloud, RetryPolicy::default());
        let t0 = api.cloud().clock().now();
        let err = api
            .execute(|c| c.describe_ami(&pod_cloud::AmiId::new("ami-none")))
            .unwrap_err();
        assert!(matches!(
            err,
            ConsistentError::Api(ApiError::NotFound { .. })
        ));
        // Only one call's worth of latency consumed (no backoff).
        let dt = api.cloud().clock().now() - t0;
        assert!(dt < SimDuration::from_millis(100), "elapsed {dt}");
    }

    #[test]
    fn retries_transient_failures() {
        let cloud = cloud_with(0.0);
        let elb = cloud.admin_create_elb("front");
        cloud.admin_set_elb_available(&elb, false);
        let api = ConsistentApi::new(cloud.clone(), RetryPolicy::default());
        // The load balancer answers `ServiceUnavailable` until it comes
        // back, just before the third attempt.
        let mut attempts = 0;
        let got = api.execute(|c| {
            attempts += 1;
            if attempts == 3 {
                c.admin_set_elb_available(&elb, true);
            }
            c.describe_elb(&elb)
        });
        assert!(got.unwrap().available);
        assert_eq!(cloud.obs().counter("consistent.retries").get(), 2);
    }

    #[test]
    fn read_until_masks_stale_reads() {
        let cloud = cloud_with(0.9); // almost every read is stale
        let asg_setup = {
            let ami = cloud.admin_create_ami("a", "1");
            let sg = cloud.admin_create_security_group("sg", &[80]);
            let kp = cloud.admin_create_key_pair("kp");
            let lc = cloud.admin_create_launch_config("lc", ami, "m1.small", kp, sg);
            cloud.admin_create_asg("g", lc, 1, 10, 2, None)
        };
        cloud
            .update_asg(
                &asg_setup,
                pod_cloud::AsgUpdate {
                    desired_capacity: Some(3),
                    ..pod_cloud::AsgUpdate::default()
                },
            )
            .unwrap();
        let api = ConsistentApi::new(
            cloud,
            RetryPolicy {
                max_retries: 30,
                timeout: SimDuration::from_secs(300),
                ..RetryPolicy::default()
            },
        );
        let got = api
            .read_until(|c| c.describe_asg(&asg_setup), |g| g.desired_capacity == 3)
            .unwrap();
        assert_eq!(got.desired_capacity, 3);
    }

    #[test]
    fn expectation_not_met_when_state_truly_differs() {
        let cloud = cloud_with(0.0);
        let ami = cloud.admin_create_ami("a", "1");
        let api = ConsistentApi::new(
            cloud,
            RetryPolicy {
                max_retries: 2,
                timeout: SimDuration::from_secs(60),
                ..RetryPolicy::default()
            },
        );
        let err = api
            .read_until(|c| c.describe_ami(&ami), |a| a.version == "2")
            .unwrap_err();
        assert_eq!(err, ConsistentError::ExpectationNotMet { attempts: 3 });
    }

    #[test]
    fn timeout_fires_on_slow_convergence() {
        let cloud = cloud_with(0.0);
        let elb = cloud.admin_create_elb("front");
        cloud.admin_set_elb_available(&elb, false); // every call fails transiently
        let api = ConsistentApi::new(
            cloud,
            RetryPolicy {
                max_retries: 100,
                base_backoff: SimDuration::from_millis(500),
                multiplier: 2.0,
                timeout: SimDuration::from_secs(3),
            },
        );
        let err = api.execute(|c| c.describe_elb(&elb)).unwrap_err();
        assert!(matches!(err, ConsistentError::Timeout { .. }), "{err:?}");
    }
}
