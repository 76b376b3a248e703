//! Gateway behavior tests: routing stability (property-based), overload
//! policies with documented drop counts, batching, admission control and
//! determinism.

use std::sync::{Arc, Mutex};

use pod_core::RunSummary;
use pod_gateway::{shard_for, DiagnosisSink, Gateway, GatewayConfig, GatewayError, OverloadPolicy};
use pod_log::LogEvent;
use pod_sim::{SimDuration, SimTime};
use proptest::prelude::*;

/// A sink that records the batches it receives (message text only).
#[derive(Debug, Default)]
struct RecordingSink {
    batches: Arc<Mutex<Vec<Vec<String>>>>,
}

impl RecordingSink {
    fn new() -> (RecordingSink, Arc<Mutex<Vec<Vec<String>>>>) {
        let sink = RecordingSink::default();
        let handle = sink.batches.clone();
        (sink, handle)
    }
}

impl DiagnosisSink for RecordingSink {
    fn ingest_batch(&mut self, events: Vec<LogEvent>) {
        self.batches
            .lock()
            .unwrap()
            .push(events.into_iter().map(|e| e.message).collect());
    }

    fn finish(&mut self) -> RunSummary {
        RunSummary::default()
    }
}

fn messages(handle: &Arc<Mutex<Vec<Vec<String>>>>) -> Vec<String> {
    handle.lock().unwrap().iter().flatten().cloned().collect()
}

fn single_shard_config(capacity: usize, batch: usize, overload: OverloadPolicy) -> GatewayConfig {
    GatewayConfig {
        shards: 1,
        queue_capacity: capacity,
        batch_size: batch,
        // A wide flush window so all test lines land within one window.
        flush_interval: SimDuration::from_secs(10),
        overload,
        ..GatewayConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Identical (process id, instance id) pairs always land on the same
    /// shard, across calls and across gateway instances.
    #[test]
    fn routing_is_deterministic_and_in_range(
        process in "[a-z-]{1,12}",
        instance in "[a-z0-9-]{1,16}",
        shards in 1usize..32,
    ) {
        let first = shard_for(&process, &instance, shards);
        prop_assert!(first < shards);
        for _ in 0..3 {
            prop_assert_eq!(shard_for(&process, &instance, shards), first);
        }
        // A gateway with unrelated registrations routes the key identically:
        // routing depends only on (key, shard count).
        let mut gw = Gateway::new(GatewayConfig { shards, ..GatewayConfig::default() });
        let (sink, _) = RecordingSink::new();
        let _ = gw.register("other-process", "other-instance", Box::new(sink));
        prop_assert_eq!(gw.route(&process, &instance), first);
    }

    /// Rebalancing only moves keys when the shard count changes: for a
    /// fixed count the assignment is a pure function of the key.
    #[test]
    fn keys_move_only_when_shard_count_changes(
        instances in prop::collection::vec("[a-z0-9]{1,10}", 1..20),
        shards in 1usize..16,
    ) {
        let before: Vec<usize> = instances
            .iter()
            .map(|i| shard_for("rolling-upgrade", i, shards))
            .collect();
        // Same count later (any amount of other traffic in between): no key moves.
        let after: Vec<usize> = instances
            .iter()
            .map(|i| shard_for("rolling-upgrade", i, shards))
            .collect();
        prop_assert_eq!(&before, &after);
        // Different count: assignments stay in range (and only then may move).
        for i in &instances {
            prop_assert!(shard_for("rolling-upgrade", i, shards + 1) < shards + 1);
        }
    }
}

#[test]
fn shed_oldest_drops_documented_count_and_keeps_newest() {
    let mut gw = Gateway::new(single_shard_config(4, 4, OverloadPolicy::ShedOldest));
    let (sink, handle) = RecordingSink::new();
    let op = gw.register("p", "i", Box::new(sink)).unwrap();
    for i in 0..10 {
        gw.submit(op, SimTime::ZERO, &format!("line {i}"));
    }
    gw.pump_until_idle();
    assert_eq!(messages(&handle), ["line 6", "line 7", "line 8", "line 9"]);
    let stats = gw.stats();
    assert_eq!(
        stats.shed_oldest, 6,
        "10 lines into capacity 4 shed exactly 6"
    );
    assert_eq!(stats.total_shed(), 6);
    assert_eq!(stats.lines_processed, 4);
    assert_eq!(stats.shards[0].shed, 6);
    // The obs counters agree — this is what the journal serializes.
    let snap = gw.obs().snapshot();
    assert_eq!(snap.counter("gateway.shed.oldest"), 6);
    assert_eq!(snap.counter("gateway.shard.0.shed"), 6);
    assert_eq!(snap.counter("gateway.shed.newest"), 0);
}

#[test]
fn shed_newest_drops_documented_count_and_keeps_oldest() {
    let mut gw = Gateway::new(single_shard_config(4, 4, OverloadPolicy::ShedNewest));
    let (sink, handle) = RecordingSink::new();
    let op = gw.register("p", "i", Box::new(sink)).unwrap();
    for i in 0..10 {
        gw.submit(op, SimTime::ZERO, &format!("line {i}"));
    }
    gw.pump_until_idle();
    assert_eq!(messages(&handle), ["line 0", "line 1", "line 2", "line 3"]);
    assert_eq!(gw.stats().shed_newest, 6);
    assert_eq!(gw.obs().snapshot().counter("gateway.shed.newest"), 6);
}

#[test]
fn block_stalls_producer_and_loses_nothing() {
    let mut gw = Gateway::new(single_shard_config(4, 1, OverloadPolicy::Block));
    let (sink, handle) = RecordingSink::new();
    let op = gw.register("p", "i", Box::new(sink)).unwrap();
    for i in 0..10 {
        gw.submit(op, SimTime::ZERO, &format!("line {i}"));
    }
    gw.pump_until_idle();
    let got = messages(&handle);
    assert_eq!(got.len(), 10, "block never sheds");
    assert_eq!(got[0], "line 0");
    let stats = gw.stats();
    assert_eq!(stats.blocked, 6, "every over-capacity submit stalls once");
    assert_eq!(stats.total_shed(), 0);
    assert_eq!(stats.lines_processed, 10);
    // Producer stalls were measured on the virtual clock.
    let snap = gw.obs().snapshot();
    assert_eq!(
        snap.histogram("gateway.backpressure.stall_us")
            .unwrap()
            .count,
        6
    );
}

#[test]
fn shards_drain_in_batches_and_defer_overflow() {
    let mut gw = Gateway::new(single_shard_config(100, 4, OverloadPolicy::Block));
    let (sink, handle) = RecordingSink::new();
    let op = gw.register("p", "i", Box::new(sink)).unwrap();
    for i in 0..10 {
        gw.submit(op, SimTime::ZERO, &format!("line {i}"));
    }
    gw.pump_until_idle();
    let sizes: Vec<usize> = handle.lock().unwrap().iter().map(|b| b.len()).collect();
    assert_eq!(sizes, [4, 4, 2], "10 lines drain as batches of at most 4");
    let stats = gw.stats();
    assert_eq!(stats.batches, 3);
    // Lines 4..9 were enqueued behind a full batch: deferred.
    assert_eq!(stats.deferred, 6);
    // Every line waited roughly the flush window (10s here).
    let wait = stats.shards[0].queue_wait_us.as_ref().unwrap();
    assert_eq!(wait.count, 10);
    assert!(wait.min >= SimDuration::from_secs(10).as_micros());
}

#[test]
fn admission_control_caps_ops_per_shard() {
    let mut gw = Gateway::new(GatewayConfig {
        shards: 1,
        max_ops_per_shard: 2,
        ..GatewayConfig::default()
    });
    for i in 0..2 {
        let (sink, _) = RecordingSink::new();
        gw.register("p", format!("run-{i}"), Box::new(sink))
            .unwrap();
    }
    let (sink, _) = RecordingSink::new();
    let err = gw.register("p", "run-2", Box::new(sink)).unwrap_err();
    assert_eq!(err, GatewayError::AdmissionDenied { shard: 0, limit: 2 });
    assert_eq!(gw.stats().admission_denied, 1);
    assert_eq!(gw.obs().snapshot().counter("gateway.admission.denied"), 1);
}

#[test]
fn lines_never_leak_across_ops_on_one_shard() {
    let mut gw = Gateway::new(single_shard_config(100, 3, OverloadPolicy::Block));
    let (sink_a, handle_a) = RecordingSink::new();
    let (sink_b, handle_b) = RecordingSink::new();
    let a = gw.register("p", "op-a", Box::new(sink_a)).unwrap();
    let b = gw.register("p", "op-b", Box::new(sink_b)).unwrap();
    for i in 0..12 {
        let (op, name) = if i % 3 == 0 { (b, "b") } else { (a, "a") };
        gw.submit(op, SimTime::from_millis(i), &format!("{name} {i}"));
    }
    gw.pump_until_idle();
    let got_a = messages(&handle_a);
    let got_b = messages(&handle_b);
    assert_eq!(got_a.len() + got_b.len(), 12);
    assert!(got_a.iter().all(|m| m.starts_with("a ")), "{got_a:?}");
    assert!(got_b.iter().all(|m| m.starts_with("b ")), "{got_b:?}");
    // Per-op order is preserved even though batches interleave ops.
    let idx = |m: &String| m.split(' ').nth(1).unwrap().parse::<u64>().unwrap();
    assert!(got_a.windows(2).all(|w| idx(&w[0]) < idx(&w[1])));
    assert!(got_b.windows(2).all(|w| idx(&w[0]) < idx(&w[1])));
}

#[test]
fn same_input_produces_byte_identical_stats() {
    let run = || {
        let mut gw = Gateway::new(GatewayConfig {
            shards: 4,
            queue_capacity: 8,
            batch_size: 4,
            flush_interval: SimDuration::from_millis(50),
            overload: OverloadPolicy::ShedOldest,
            ..GatewayConfig::default()
        });
        let ops: Vec<_> = (0..6)
            .map(|i| {
                let (sink, _) = RecordingSink::new();
                gw.register("rolling-upgrade", format!("run-{i}"), Box::new(sink))
                    .unwrap()
            })
            .collect();
        for step in 0..200u64 {
            let op = ops[(step % 6) as usize];
            gw.submit(op, SimTime::from_millis(step * 3), &format!("line {step}"));
        }
        gw.pump_until_idle();
        gw.stats().to_json().to_string()
    };
    assert_eq!(run(), run(), "same interleaved input, same stats bytes");
}

#[test]
fn raw_json_lines_parse_and_plaintext_counts() {
    let mut gw = Gateway::new(single_shard_config(100, 8, OverloadPolicy::Block));
    let (sink, handle) = RecordingSink::new();
    let op = gw.register("p", "i", Box::new(sink)).unwrap();
    let event = LogEvent::new(SimTime::from_millis(7), "asgard.log", "Instance i-1 ready");
    gw.submit(op, SimTime::ZERO, &event.to_json().to_string());
    gw.submit(op, SimTime::ZERO, "plain progress line");
    gw.submit(op, SimTime::ZERO, "{\"@message\": truncated");
    gw.submit(op, SimTime::ZERO, "   ");
    gw.pump_until_idle();
    let stats = gw.stats();
    assert_eq!(stats.parsed_json, 1);
    assert_eq!(stats.parsed_plain, 1);
    assert_eq!(stats.unclassified, 2);
    let got = messages(&handle);
    assert_eq!(got.len(), 4, "unclassified lines still reach the sink");
    assert_eq!(got[0], "Instance i-1 ready");
}
