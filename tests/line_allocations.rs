//! Heap allocations per wire line of a `fleet-healthy`-shaped soak replay.
//!
//! A counting global allocator tallies the allocations made on the calling
//! thread (a `const` thread-local, so the harness's other test threads do
//! not count) across one `replay_telemetry(Sampled)` of a 64-tenant plan
//! shaped like the ledger's `fleet-healthy` workload: one tenant in eight
//! faulty, 5 % plaintext noise, seed 2014. The feed is generated before the
//! count starts; the replay, engine set-up included, is what is counted.
//!
//! Before the annotated line was shared from the annotator to central
//! storage (and assertions read cloud state in place, and token replay
//! fired without allocating), this plan cost 217.8 allocations per
//! submitted line, in debug and release builds alike. The bound is 70 %
//! of that figure.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use pod_diagnosis::eval::{collect_streams, replay_telemetry, SoakConfig};
use pod_diagnosis::gateway::GatewayConfig;
use pod_diagnosis::obs::TelemetryMode;

/// Allocations per submitted line before the change, on this plan.
const BEFORE: f64 = 217.8;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call forwards to `System` unchanged; the counter is a
// `const`-initialised `Cell` with no destructor, so bumping it never
// allocates or re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
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
