//! Property-based tests for the consistent API.

use pod_assert::{ConsistentApi, RetryPolicy};
use pod_cloud::{Cloud, CloudConfig};
use pod_sim::{Clock, SimDuration, SimRng};
use proptest::prelude::*;

proptest! {
    /// The consistent layer never exceeds its timeout budget by more than
    /// one backoff + one call.
    #[test]
    fn consistent_api_respects_timeout(seed in 0u64..200, timeout_s in 1u64..8) {
        let cloud = Cloud::new(
            Clock::new(),
            SimRng::seed_from(seed),
            CloudConfig::default(),
        );
        let elb = cloud.admin_create_elb("front");
        cloud.admin_set_elb_available(&elb, false); // never succeeds
        let policy = RetryPolicy {
            max_retries: 1000,
            base_backoff: SimDuration::from_millis(100),
            multiplier: 2.0,
            timeout: SimDuration::from_secs(timeout_s),
        };
        let api = ConsistentApi::new(cloud.clone(), policy);
        let t0 = cloud.clock().now();
        let result = api.execute(|c| c.describe_elb(&elb));
        prop_assert!(result.is_err());
        let elapsed = cloud.clock().now().duration_since(t0);
        // Budget plus the last backoff (bounded by the budget itself) plus
        // one call.
        let slack = SimDuration::from_secs(timeout_s) + SimDuration::from_millis(200);
        prop_assert!(
            elapsed <= SimDuration::from_secs(timeout_s) + slack,
            "elapsed {elapsed}"
        );
    }
}
