//! Property-based tests on the simulation substrate.

use pod_sim::{EventQueue, LatencyModel, SimDuration, SimRng, SimTime};
use proptest::prelude::*;

proptest! {
    /// The event queue is a stable priority queue: pops come out in
    /// non-decreasing time order, and same-time events in insertion order.
    #[test]
    fn event_queue_orders_stably(times in prop::collection::vec(0u64..100, 1..50)) {
        let mut q = EventQueue::new();
        for (i, t) in times.iter().enumerate() {
            q.schedule(SimTime::from_millis(*t), i);
        }
        let mut last: Option<(SimTime, usize)> = None;
        while let Some((at, idx)) = q.pop() {
            if let Some((lt, lidx)) = last {
                prop_assert!(at >= lt);
                if at == lt {
                    prop_assert!(idx > lidx, "same-time events keep insertion order");
                }
            }
            last = Some((at, idx));
        }
    }

    /// Latency samples are non-negative and deterministic per seed.
    #[test]
    fn latency_models_are_deterministic(seed in 0u64..10_000, median in 1.0f64..500.0) {
        let model = LatencyModel::lognormal_median_millis(median, 0.4);
        let mut a = SimRng::seed_from(seed);
        let mut b = SimRng::seed_from(seed);
        for _ in 0..20 {
            let x = model.sample(&mut a);
            let y = model.sample(&mut b);
            prop_assert_eq!(x, y);
        }
    }

    /// Duration arithmetic: (a + b) - b == a.
    #[test]
    fn duration_addition_roundtrips(a in 0u64..1_000_000, b in 0u64..1_000_000) {
        let da = SimDuration::from_micros(a);
        let db = SimDuration::from_micros(b);
        prop_assert_eq!((da + db).as_micros() - db.as_micros(), da.as_micros());
    }

    /// SimTime ordering agrees with the underlying micros.
    #[test]
    fn time_ordering_is_consistent(a in 0u64..u64::MAX / 2, b in 0u64..u64::MAX / 2) {
        let ta = SimTime::from_micros(a);
        let tb = SimTime::from_micros(b);
        prop_assert_eq!(ta < tb, a < b);
        prop_assert_eq!(ta.duration_since(tb).as_micros(), a.saturating_sub(b));
    }
}
