//! The shared upgrade-log fixture.
//!
//! The one bench target, `benches/obs_overhead.rs`, is the telemetry
//! self-overhead gate; every other wall-clock figure comes from the
//! `benchmark/` ledger. This library provides the deterministic operation
//! log the annotator golden test matches against.

#![warn(missing_docs)]

use pod_orchestrator::NoiseGenerator;
use pod_sim::{SimRng, SimTime};

/// The full operation log of a clean E1 rolling upgrade interleaved with
/// deterministic application noise: `noise_per_line` noise lines are
/// inserted after every operation line. Every consumer sees byte-identical
/// lines for the same arguments.
pub fn upgrade_log_lines(seed: u64, instances: u32, noise_per_line: usize) -> Vec<String> {
    let events = pod_eval::healthy_log(seed, instances);
    let mut noise = NoiseGenerator::new(SimRng::seed_from(seed ^ 0x9e37_79b9), 1.0);
    let mut lines = Vec::with_capacity(events.len() * (1 + noise_per_line));
    for event in &events {
        lines.push(event.message.clone());
        for _ in 0..noise_per_line {
            lines.push(noise.emit(SimTime::ZERO).message);
        }
    }
    lines
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn upgrade_log_is_deterministic_and_mixed() {
        let a = upgrade_log_lines(7, 4, 2);
        let b = upgrade_log_lines(7, 4, 2);
        assert_eq!(a, b);
        assert!(a.iter().any(|l| l.contains("Started rolling upgrade")));
        assert!(a.iter().any(|l| l.contains("is ready for use")));
        // Two noise lines ride along after every operation line.
        let ops = a.len() / 3;
        assert_eq!(a.len(), ops * 3);
    }
}
