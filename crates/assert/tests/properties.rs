//! Property-based tests for timers and the consistent API.

use pod_assert::{ConsistentApi, RetryPolicy, TimerService};
use pod_cloud::{Cloud, CloudConfig};
use pod_sim::{Clock, SimDuration, SimRng, SimTime};
use proptest::prelude::*;

proptest! {
    /// One-off timers fire exactly once, in chronological order, no matter
    /// how `due` calls are spaced.
    #[test]
    fn one_off_timers_fire_exactly_once(
        fire_times in prop::collection::vec(1u64..500, 1..20),
        polls in prop::collection::vec(1u64..600, 1..10),
    ) {
        let mut timers = TimerService::new();
        for (i, t) in fire_times.iter().enumerate() {
            timers.schedule_once(SimTime::from_millis(*t), i);
        }
        let mut poll_points = polls.clone();
        poll_points.sort_unstable();
        poll_points.push(1000); // final catch-all poll
        let mut fired = Vec::new();
        for p in poll_points {
            fired.extend(timers.due(SimTime::from_millis(p)));
        }
        prop_assert_eq!(fired.len(), fire_times.len());
        // Each payload appears exactly once.
        let mut payloads: Vec<usize> = fired.iter().map(|f| f.2).collect();
        payloads.sort_unstable();
        payloads.dedup();
        prop_assert_eq!(payloads.len(), fire_times.len());
        // Due times never exceed the poll time and never decrease.
        for pair in fired.windows(2) {
            prop_assert!(pair[0].1 <= pair[1].1);
        }
    }

    /// A periodic timer fires floor((horizon - first)/period) + 1 times.
    #[test]
    fn periodic_fire_count_is_exact(
        first in 1u64..50,
        period in 1u64..50,
        horizon in 100u64..500,
    ) {
        let mut timers = TimerService::new();
        timers.schedule_periodic(
            SimTime::from_millis(first),
            SimDuration::from_millis(period),
            (),
        );
        let fired = timers.due(SimTime::from_millis(horizon));
        let expected = (horizon - first) / period + 1;
        prop_assert_eq!(fired.len() as u64, expected);
    }

    /// The consistent layer never exceeds its timeout budget by more than
    /// one backoff + one call.
    #[test]
    fn consistent_api_respects_timeout(seed in 0u64..200, timeout_s in 1u64..8) {
        let cloud = Cloud::new(
            Clock::new(),
            SimRng::seed_from(seed),
            CloudConfig {
                api_failure_prob: 1.0, // never succeeds
                ..CloudConfig::default()
            },
        );
        let ami = cloud.admin_create_ami("a", "1");
        let policy = RetryPolicy {
            max_retries: 1000,
            base_backoff: SimDuration::from_millis(100),
            multiplier: 2.0,
            timeout: SimDuration::from_secs(timeout_s),
        };
        let api = ConsistentApi::new(cloud.clone(), policy);
        let t0 = cloud.clock().now();
        let result = api.execute(|c| c.describe_ami(&ami));
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
