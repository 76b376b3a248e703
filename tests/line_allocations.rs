//! Heap allocations per wire line of a `fleet-healthy`-shaped soak replay,
//! and the heap the replay leaves behind.
//!
//! A counting global allocator tallies the allocations made on the calling
//! thread (a `const` thread-local, so the harness's other test threads do
//! not count) across one `replay_telemetry(Sampled)` of a 64-tenant plan
//! shaped like the ledger's `fleet-healthy` workload: one tenant in eight
//! faulty, 5 % plaintext noise, seed 2014. The feed is generated before the
//! count starts; the replay, engine set-up included, is what is counted.
//! The same allocator keeps the thread's live bytes (allocated minus
//! freed), so what the replay leaves on the tenants' handles once its
//! report is dropped — central storage above all — is counted too.
//!
//! Before the annotated line was shared from the annotator to central
//! storage (and assertions read cloud state in place, and token replay
//! fired without allocating), this plan cost 217.8 allocations per
//! submitted line, in debug and release builds alike; the first bound is
//! 70 % of that figure. Before central storage kept conformance verdicts,
//! assertion results and diagnosis steps as records rendered when read,
//! it cost 136.7 allocations per line and left 86.2 kB per tenant in a
//! release build (137.0 and 86.0 kB in a debug build), counted as the
//! other two tests count, after a warm-up; the other two bounds are 85 %
//! and 75 % of the lower figure of each pair. Counted cold, with the
//! shared pod compiled inside the count, the same plan cost 141.3
//! allocations per line and left 87.7 kB per tenant.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use pod_diagnosis::eval::{
    build_engine, build_scenario, collect_streams, replay_telemetry, SoakConfig, SoakStreams,
};
use pod_diagnosis::gateway::GatewayConfig;
use pod_diagnosis::log::LogEvent;
use pod_diagnosis::obs::TelemetryMode;
use pod_diagnosis::sim::SimTime;

/// Allocations per submitted line before the change, on this plan.
const BEFORE: f64 = 217.8;

/// Allocations per submitted line while results were stored as lines.
const STORED_LINES: f64 = 136.7;

/// Bytes per tenant a replay left live while results were stored as lines.
const STORED_LINES_BYTES: f64 = 86_000.0;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

struct Counting;

/// Counts one allocation and moves the live bytes by `bytes`.
fn tally(bytes: i64) {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
    LIVE.with(|n| n.set(n.get() + bytes));
}

// SAFETY: every call forwards to `System` unchanged; the counters are
// `const`-initialised `Cell`s with no destructor, so bumping them never
// allocates or re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally(layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.with(|n| n.set(n.get() - layout.size() as i64));
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        tally(layout.size() as i64);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally(new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

fn live_bytes() -> i64 {
    LIVE.with(Cell::get)
}

/// The 64-tenant `fleet-healthy`-shaped feed.
fn fleet() -> SoakStreams {
    collect_streams(&SoakConfig {
        ops: 64,
        seed: 2014,
        noise_rate: 0.05,
        fault_every: 8,
    })
}

/// Replays `streams`; returns the allocations it made and the bytes it
/// left live once its report was dropped. First it compiles, on this
/// thread and outside the count, the shared pods the tenants' engines read
/// and the matcher's per-thread scratch, so neither figure depends on which
/// test thread got there first.
fn replay_counted(streams: &SoakStreams) -> (u64, i64) {
    let mut warmed = Vec::new();
    for op in &streams.ops {
        let c = &op.scenario_config;
        let key = (c.amended_trees, c.test_order, c.batch_size);
        if !warmed.contains(&key) {
            warmed.push(key);
            let start = "Started rolling upgrade task t-1 pushing ami-0f into group pm--asg";
            build_engine(&build_scenario(c), c).ingest(LogEvent::new(
                SimTime::ZERO,
                "asgard.log",
                start,
            ));
        }
    }
    let gateway = GatewayConfig {
        max_ops_per_shard: usize::MAX,
        ..GatewayConfig::default()
    };
    let (before, live) = (allocations(), live_bytes());
    let report = replay_telemetry(streams, &gateway, TelemetryMode::Sampled);
    let counted = allocations() - before;
    drop(report);
    (counted, live_bytes() - live)
}

#[test]
fn a_wire_line_costs_at_most_seventy_percent_of_its_former_allocations() {
    let streams = collect_streams(&SoakConfig {
        ops: 64,
        seed: 2014,
        noise_rate: 0.05,
        fault_every: 8,
    });
    let gateway = GatewayConfig {
        max_ops_per_shard: usize::MAX,
        ..GatewayConfig::default()
    };
    let before = allocations();
    let report = replay_telemetry(&streams, &gateway, TelemetryMode::Sampled);
    let counted = allocations() - before;
    drop(report);
    let per_line = counted as f64 / streams.lines_total as f64;
    println!(
        "{per_line:.1} allocations per line over {} lines",
        streams.lines_total
    );
    assert!(
        per_line <= 0.7 * BEFORE,
        "{per_line:.1} allocations per line; the bound is {:.1} (70 % of {BEFORE})",
        0.7 * BEFORE
    );
}

#[test]
fn a_wire_line_costs_at_most_eighty_five_percent_of_its_stored_line_allocations() {
    let streams = fleet();
    let (counted, _) = replay_counted(&streams);
    let per_line = counted as f64 / streams.lines_total as f64;
    println!(
        "{per_line:.1} allocations per line over {} lines",
        streams.lines_total
    );
    assert!(
        per_line <= 0.85 * STORED_LINES,
        "{per_line:.1} allocations per line; the bound is {:.1} (85 % of {STORED_LINES})",
        0.85 * STORED_LINES
    );
}

#[test]
fn a_replay_leaves_at_most_seventy_five_percent_of_its_stored_line_heap() {
    let streams = fleet();
    let (_, left) = replay_counted(&streams);
    let per_tenant = left as f64 / streams.ops.len() as f64;
    println!(
        "{:.1} kB left per tenant over {} tenants",
        per_tenant / 1000.0,
        streams.ops.len()
    );
    assert!(
        per_tenant <= 0.75 * STORED_LINES_BYTES,
        "{per_tenant:.0} bytes per tenant; the bound is {:.0} (75 % of {STORED_LINES_BYTES})",
        0.75 * STORED_LINES_BYTES
    );
}
