//! Property-based tests for the pod-obs metrics layer.

use pod_obs::{FlightRecorder, Registry, RunSignals, SampleVerdict, TailSampler, FRAME_CAP};
use pod_sim::{Clock, SimDuration};
use proptest::prelude::*;

/// An arbitrary completed-run signal set for the tail sampler.
fn arb_signals() -> impl Strategy<Value = RunSignals> {
    (0usize..4, 0usize..4, 0usize..4, any::<bool>()).prop_map(
        |(detections, errors, warnings, tail_exemplar)| RunSignals {
            trace_id: "op".to_string(),
            detections,
            errors,
            warnings,
            tail_exemplar,
        },
    )
}

proptest! {
    /// Percentile estimates are monotone in q and always bounded by the
    /// observed min/max, whatever the data.
    #[test]
    fn histogram_quantiles_are_monotone_and_bounded(
        values in prop::collection::vec(0u64..5_000_000, 1..200),
        qs in prop::collection::vec(0.0..1.0f64, 2..20),
    ) {
        let reg = Registry::new();
        let h = reg.histogram("h");
        for &v in &values {
            h.record(v);
        }
        let snap = reg.snapshot();
        let hist = snap.histogram("h").unwrap();
        let lo = *values.iter().min().unwrap();
        let hi = *values.iter().max().unwrap();

        let mut sorted_qs = qs.clone();
        sorted_qs.sort_by(|a, b| a.total_cmp(b));
        let estimates: Vec<u64> =
            sorted_qs.iter().map(|&q| hist.quantile(q).unwrap()).collect();
        for pair in estimates.windows(2) {
            prop_assert!(pair[0] <= pair[1], "not monotone: {estimates:?}");
        }
        for &e in &estimates {
            prop_assert!(e >= lo && e <= hi, "estimate {e} outside [{lo}, {hi}]");
        }
        prop_assert_eq!(hist.quantile(0.0).unwrap(), lo);
        prop_assert_eq!(hist.quantile(1.0).unwrap(), hi);
    }

    /// Every instance shares one bucket layout, so merging two registries'
    /// snapshots is exactly recording every value into one registry.
    #[test]
    fn merged_snapshots_equal_one_registry_recording_everything(
        left in prop::collection::vec(0u64..(1 << 41), 0..100),
        right in prop::collection::vec(0u64..(1 << 41), 0..100),
    ) {
        let (a, b, both) = (Registry::new(), Registry::new(), Registry::new());
        for &v in &left {
            a.histogram("h").record(v);
            both.histogram("h").record(v);
        }
        for &v in &right {
            b.histogram("h").record(v);
            both.histogram("h").record(v);
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        prop_assert_eq!(merged.histogram("h"), both.snapshot().histogram("h"));
    }

    /// The documented error bound: every quantile estimate is at least the
    /// true nearest-rank value and at most 12.5% above it.
    #[test]
    fn quantile_estimates_stay_within_an_eighth_above_the_truth(
        values in prop::collection::vec(0u64..(1 << 40), 1..200),
        q in 0.0..1.0f64,
    ) {
        let reg = Registry::new();
        let h = reg.histogram("h");
        for &v in &values {
            h.record(v);
        }
        let mut sorted = values.clone();
        sorted.sort_unstable();
        let truth = pod_sim::nearest_rank(&sorted, q).expect("non-empty");
        let est = reg.snapshot().histogram("h").unwrap().quantile(q).unwrap();
        prop_assert!(est >= truth, "estimate {est} under-reports {truth} at q={q}");
        prop_assert!(
            est - truth <= truth / 8,
            "estimate {est} is more than 12.5% above {truth} at q={q}"
        );
    }

    /// diff followed by merge round-trips counter totals.
    #[test]
    fn snapshot_diff_then_merge_roundtrips(
        first in prop::collection::vec(0u64..100, 1..8),
        second in prop::collection::vec(0u64..100, 1..8),
    ) {
        let reg = Registry::new();
        let c = reg.counter("c");
        for &n in &first {
            c.add(n);
        }
        let mid = reg.snapshot();
        for &n in &second {
            c.add(n);
        }
        let end = reg.snapshot();
        let delta = end.diff(&mid);
        prop_assert_eq!(delta.counter("c"), second.iter().sum::<u64>());
        let mut rebuilt = mid.clone();
        rebuilt.merge(&delta);
        prop_assert_eq!(rebuilt.counter("c"), end.counter("c"));
    }

    /// Tail-sampler accounting never loses a decision: whatever mix of
    /// runs arrives, `kept + discarded` equals the number of decisions and the
    /// per-reason breakdown sums exactly to `kept`.
    #[test]
    fn sampler_accounts_for_every_decision(
        runs in prop::collection::vec(arb_signals(), 1..100),
    ) {
        let reg = Registry::new();
        let sampler = TailSampler::new(&reg);
        for signals in &runs {
            sampler.decide(signals);
        }
        let snap = reg.snapshot();
        let (kept, discarded) = (snap.counter("obs.sampler.kept"), snap.counter("obs.sampler.discarded"));
        prop_assert_eq!(
            kept + discarded,
            runs.len() as u64,
            "decisions lost: kept {} + discarded {} != {} runs",
            kept, discarded, runs.len()
        );
        let reasons = snap.counters.iter().filter(|(name, _)| name.starts_with("obs.sampler.kept."));
        prop_assert_eq!(
            reasons.map(|(_, kept)| kept).sum::<u64>(),
            snap.counter("obs.sampler.kept"),
            "per-reason breakdown does not sum to the kept total"
        );
    }

    /// Incident-relevant runs — any detection, error verdict, or
    /// degradation warning — are never sampled away, however many healthy
    /// runs the 1-in-N keep discards around them. This is the property behind the flight-recorder guarantee that a
    /// detection's causal chain survives sampling.
    #[test]
    fn detections_and_warnings_are_never_discarded(
        runs in prop::collection::vec(arb_signals(), 1..100),
    ) {
        let reg = Registry::new();
        let sampler = TailSampler::new(&reg);
        for signals in &runs {
            let verdict = sampler.decide(signals);
            if signals.detections > 0 || signals.errors > 0 || signals.warnings > 0 {
                prop_assert!(
                    verdict.keep(),
                    "incident-relevant run discarded: {signals:?} -> {verdict:?}"
                );
            }
            if signals.detections > 0 {
                prop_assert_eq!(verdict, SampleVerdict::KeptDetection);
            } else if signals.errors > 0 {
                prop_assert_eq!(verdict, SampleVerdict::KeptError);
            } else if signals.warnings > 0 {
                prop_assert_eq!(verdict, SampleVerdict::KeptWarning);
            }
        }
    }

    /// Whatever the interleaving of clock advances, marks and ticks, the
    /// flight recorder loses nothing silently (every mark and every frame
    /// is retained or counted as evicted), keeps its frames in time order,
    /// and a dump's last frame is never older than its last mark. Clock
    /// steps of up to 40 s cross both the 20 ms incident window and the
    /// 30 s periodic interval, so nearly every tick frames and the longer
    /// step lists take more than `FRAME_CAP` frames: eviction is exercised.
    #[test]
    fn flight_recorder_accounts_for_every_mark_and_frame(
        steps in prop::collection::vec((0u8..4, 0u64..40_000), 0..800),
    ) {
        let clock = Clock::new();
        let rec = FlightRecorder::new(clock.clone(), Registry::new());
        let (mut marks, mut frames, mut pending) = (0u64, 0u64, false);
        for &(kind, ms) in &steps {
            match kind {
                0 => {
                    clock.advance(SimDuration::from_millis(ms));
                }
                1 | 2 => {
                    rec.mark_incident("i-0001 detection");
                    marks += 1;
                    pending = true;
                }
                _ => {
                    if rec.tick() {
                        frames += 1;
                        pending = false;
                    }
                }
            }
        }
        // The dump closes a pending window with exactly one frame.
        frames += u64::from(pending);
        let dump = rec.dump();
        prop_assert_eq!(marks, dump.incidents.len() as u64 + dump.dropped_incidents);
        prop_assert_eq!(frames, dump.frames.len() as u64 + dump.evicted_frames);
        prop_assert!(dump.frames.len() <= FRAME_CAP);
        prop_assert!(dump.frames.windows(2).all(|w| w[0].at <= w[1].at));
        if let Some(last_mark) = dump.incidents.last() {
            let last_frame = dump.frames.last().expect("a mark is always followed by a frame");
            prop_assert!(last_frame.at >= last_mark.at);
        }
        prop_assert_eq!(&rec.dump(), &dump, "a second dump adds nothing");
    }
}
