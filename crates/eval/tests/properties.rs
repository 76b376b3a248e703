//! Property-based tests on the evaluation metrics and timing statistics.

use pod_eval::{MetricSet, RunOutcome, TimingStats};
use pod_sim::SimDuration;
use proptest::prelude::*;

fn arb_outcome() -> impl Strategy<Value = RunOutcome> {
    (
        prop::bool::ANY,
        prop::bool::ANY,
        0usize..4,
        0usize..4,
        0usize..4,
    )
        .prop_map(
            |(detected, correct, interference, fps, fp_none)| RunOutcome {
                fault_detected: detected,
                fault_diagnosed_correctly: detected && correct,
                interference_detections: interference,
                interference_diagnosed_correctly: interference, // all correct here
                false_positives: fps.max(fp_none),
                fp_diagnosed_as_none: fp_none.min(fps.max(fp_none)),
                raw_detections: 0,
                conformance_first: false,
                conformance_any: false,
                diagnosis_times: Vec::new(),
                first_cause_latencies: Vec::new(),
            },
        )
}

proptest! {
    /// All four Table-I metrics stay within [0, 1] for any outcome mix.
    #[test]
    fn metrics_are_bounded(outcomes in prop::collection::vec(arb_outcome(), 0..40)) {
        let mut m = MetricSet::default();
        for o in &outcomes {
            m.add(o);
        }
        for v in [
            m.detection_precision(),
            m.detection_recall(),
            m.diagnosis_accuracy_over_detected(),
            m.accuracy_rate(),
        ] {
            prop_assert!((0.0..=1.0).contains(&v), "metric {v} out of range");
        }
        prop_assert_eq!(m.runs, outcomes.len());
    }

    /// Recall is exactly detected/(detected+missed), and adding a detected
    /// run never lowers it.
    #[test]
    fn recall_is_monotone_in_detections(outcomes in prop::collection::vec(arb_outcome(), 1..30)) {
        let mut m = MetricSet::default();
        for o in &outcomes {
            m.add(o);
        }
        let before = m.detection_recall();
        m.add(&RunOutcome {
            fault_detected: true,
            ..RunOutcome::default()
        });
        prop_assert!(m.detection_recall() >= before - 1e-12);
    }

    /// TimingStats: percentile is monotone and bracketed by min/max, and
    /// the histogram always partitions the full sample.
    #[test]
    fn timing_stats_invariants(
        samples in prop::collection::vec(1u64..100_000, 1..60),
        q in 0.01f64..0.99,
        buckets in 1usize..12,
    ) {
        let stats = TimingStats::new(
            samples.iter().map(|ms| SimDuration::from_millis(*ms)).collect(),
        );
        let p = stats.percentile(q);
        prop_assert!(stats.min() <= p && p <= stats.max());
        prop_assert!(stats.min() <= stats.mean() && stats.mean() <= stats.max());
        let hist = stats.histogram(buckets);
        let total: usize = hist.iter().map(|(_, _, c)| c).sum();
        prop_assert_eq!(total, samples.len());
        // Bins are contiguous and ordered.
        for pair in hist.windows(2) {
            prop_assert_eq!(pair[0].1, pair[1].0);
        }
    }

    /// Higher quantiles never decrease.
    #[test]
    fn percentile_monotone_in_q(samples in prop::collection::vec(1u64..10_000, 1..50)) {
        let stats = TimingStats::new(
            samples.iter().map(|ms| SimDuration::from_millis(*ms)).collect(),
        );
        let mut last = SimDuration::ZERO;
        for q in [0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0] {
            let p = stats.percentile(q);
            prop_assert!(p >= last);
            last = p;
        }
    }
}

mod fastpath {
    use pod_eval::{execute_run, Campaign, CampaignConfig, RunRecord};
    use proptest::prelude::*;

    /// What an incident's recovery looked like, timing excluded.
    fn recovery_shape(
        record: &RunRecord,
        cause: &str,
    ) -> Option<(String, Vec<String>, &'static str)> {
        record
            .recoveries
            .iter()
            .find(|rec| rec.run.root_cause == cause)
            .map(|rec| {
                (
                    rec.run.root_cause.clone(),
                    rec.run.plans_tried.clone(),
                    rec.run.outcome.tag(),
                )
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// The eager fast path and the end-of-run sweep are semantically
        /// equivalent: for every injected fault type, the first recovery
        /// of the expected root cause identifies the same cause, tries the
        /// same plan ladder, and reaches the same outcome in both modes —
        /// only the timestamps (and therefore MTTR) differ.
        #[test]
        fn eager_and_sweep_recoveries_are_equivalent(fault_idx in 0usize..8) {
            let base = CampaignConfig {
                recovery: true,
                ..CampaignConfig::clean(42)
            };
            let eager_plan = &Campaign::new(CampaignConfig {
                eager_recovery: true,
                ..base.clone()
            })
            .plans()[fault_idx];
            let sweep_plan = &Campaign::new(CampaignConfig {
                eager_recovery: false,
                ..base
            })
            .plans()[fault_idx];
            let eager = execute_run(eager_plan);
            let sweep = execute_run(sweep_plan);
            let cause = eager_plan.fault.expected_root_cause();
            let eager_shape = recovery_shape(&eager, cause);
            let sweep_shape = recovery_shape(&sweep, cause);
            prop_assert!(
                eager_shape.is_some(),
                "no eager recovery diagnosed {cause} for {:?}",
                eager_plan.fault
            );
            prop_assert_eq!(eager_shape, sweep_shape);
        }
    }
}

mod storm {
    use pod_eval::{collect_streams, replay_with_recovery, SoakConfig, SoakReport};
    use pod_gateway::GatewayConfig;
    use pod_recovery::StormConfig;
    use pod_sim::SimDuration;
    use proptest::prelude::*;

    fn run_storm(ops: usize, seed: u64, storm: &StormConfig) -> SoakReport {
        let config = SoakConfig {
            ops,
            seed,
            ..SoakConfig::default()
        };
        // Repairs mutate the per-tenant clouds, so every replay starts
        // from freshly collected (same-seed, deterministic) streams.
        replay_with_recovery(
            &collect_streams(&config),
            &GatewayConfig::default(),
            storm.clone(),
        )
    }

    fn arb_storm() -> impl Strategy<Value = StormConfig> {
        (1usize..4, 0u64..40, 0usize..3, 0u64..5).prop_map(
            |(lanes, max_wait_secs, throttle_at, penalty_secs)| StormConfig {
                lanes,
                max_lane_wait: SimDuration::from_secs(max_wait_secs),
                throttle_at,
                throttle_penalty: SimDuration::from_secs(penalty_secs),
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        /// Recovery-storm determinism: the same seed and the same notice
        /// interleaving produce byte-identical recovery transcripts (and
        /// an identical full-report digest) across two independent
        /// replays, whatever the contention knobs.
        #[test]
        fn same_seed_storms_replay_byte_identically(
            ops in 3usize..6,
            seed in 1u64..10_000,
            storm in arb_storm(),
        ) {
            let a = run_storm(ops, seed, &storm);
            let b = run_storm(ops, seed, &storm);
            let rec_a = a.recovery.as_ref().expect("recovery ran");
            let rec_b = b.recovery.as_ref().expect("recovery ran");
            prop_assert_eq!(rec_a.transcript(), rec_b.transcript());
            prop_assert_eq!(a.digest(), b.digest());
        }

        /// Contention accounting is exact: every diagnosed incident of
        /// every tenant gets its one run, the admission ledger balances, the
        /// `recovery.storm.*` metric mirror matches the stats, and the
        /// consistent-layer retries stay within their call counts.
        #[test]
        fn storm_accounting_is_exact(
            ops in 3usize..6,
            seed in 1u64..10_000,
            storm in arb_storm(),
        ) {
            let config = SoakConfig {
                ops,
                seed,
                ..SoakConfig::default()
            };
            let streams = collect_streams(&config);
            let report = replay_with_recovery(
                &streams,
                &GatewayConfig::default(),
                storm,
            );
            let rec = report.recovery.as_ref().expect("recovery ran");

            // No incident dropped, by any tenant.
            prop_assert!(rec.none_dropped(), "{rec:#?}");
            prop_assert_eq!(rec.recovered + rec.escalated, rec.attempted);
            for t in &rec.tenants {
                prop_assert_eq!(t.recovered + t.escalated, t.attempted, "{}", &t.trace_id);
            }
            let per_tenant: usize = rec.tenants.iter().map(|t| t.attempted).sum();
            prop_assert_eq!(per_tenant, rec.attempted);

            // The admission ledger balances and throttles are counted
            // exactly once (never more than the admissions they ride on).
            let s = rec.stats;
            prop_assert_eq!(s.admitted + s.deferred, s.requests);
            prop_assert_eq!(s.swept, s.deferred);
            prop_assert!(s.throttled <= s.admitted);
            prop_assert_eq!(rec.throttled as u64, s.throttled);
            prop_assert_eq!(rec.deferred_swept as u64, s.swept);

            // The gateway-snapshot metric mirror matches the exact stats.
            let counter = |n: &str| report.snapshot.counter(&format!("recovery.storm.{n}"));
            prop_assert_eq!(counter("requests"), s.requests);
            prop_assert_eq!(counter("admitted"), s.admitted);
            prop_assert_eq!(counter("throttled"), s.throttled);
            prop_assert_eq!(counter("deferred"), s.deferred);
            prop_assert_eq!(counter("swept"), s.swept);
            // All shed backlogs were swept: the queue-depth gauge is back
            // to zero after the last sweep.
            prop_assert_eq!(
                report.snapshot.gauges.get("recovery.storm.queue_depth"),
                Some(&0)
            );

            // Consistent-layer accounting per tenant: retries and
            // timeouts never exceed the calls that produced them.
            for stream in &streams.ops {
                let snap = stream.scenario.cloud.obs().snapshot();
                let calls = snap.counter("consistent.calls");
                prop_assert!(snap.counter("consistent.retries") <= calls);
                prop_assert!(snap.counter("consistent.timeouts") <= calls);
            }
        }
    }
}
