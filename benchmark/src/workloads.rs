//! The five workloads: which inputs, through which entry point, and why.

use pod_diagnosis::eval::{CampaignConfig, SoakConfig};
use pod_diagnosis::gateway::{GatewayConfig, OverloadPolicy};
use pod_diagnosis::obs::TelemetryMode;
use pod_diagnosis::recovery::StormConfig;
use pod_diagnosis::sim::SimDuration;

/// A workload's name and the one-line reason it exists.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadDef {
    /// The `--workload` name.
    pub name: &'static str,
    /// Why the workload was chosen (also the `why` of `BENCHMARK.json`).
    pub why: &'static str,
}

/// Every workload, in the order the one command runs them.
pub const WORKLOADS: &[WorkloadDef] = &[
    WorkloadDef {
        name: "fleet-healthy",
        why: "1024 tenants, 1 in 8 faulty, 93% JSON: per-tenant set-up, wire parse and conformance do \
              the work and diagnosis little; also the memory-footprint workload",
    },
    WorkloadDef {
        name: "noisy-wire",
        why: "512 fault-free tenants under full noise, 60% plaintext: parse and noise-filter \
              rejections dominate and assertion, fault tree and recovery idle, so they predict no move",
    },
    WorkloadDef {
        name: "recovery-storm",
        why: "512 tenants, every one faulty, repairs contending for 2 lanes: assertions, retries, \
              fault-tree walks and the recovery executor do the work; MTTR under contention",
    },
    WorkloadDef {
        name: "overload-shed",
        why: "256 faulty tenants into 16-line queues that shed the oldest line: the gateway used the \
              other way, so a batching change that sheds more or loses detections shows here",
    },
    WorkloadDef {
        name: "campaign",
        why: "the paper's section V experiment, 400 live monitored upgrades with recovery: the online \
              ingest-and-poll path with no wire parse and no gateway, which must not move with them",
    },
];

/// The issue sized the workloads at 2048/1024/1024/512 tenants and 800
/// runs (2.6 s a replay); every size is divided by this one constant so
/// that a 15 s run fits 7 or more timed repeats, which steadies the
/// fastest-repeat estimate more than a longer feed would. The shapes
/// (fault mix, noise rate, queue sizes) are unchanged.
const SCALE_DIV: usize = 2;

/// A soak workload: feed shape, gateway tuning and replay entry point.
#[derive(Debug, Clone)]
pub struct SoakPlan {
    /// The feed generator's configuration.
    pub config: SoakConfig,
    /// The gateway the feed is replayed through.
    pub gateway: GatewayConfig,
    /// `Some` replays through `replay_with_recovery` under this storm.
    pub storm: Option<StormConfig>,
    /// The telemetry mode of the replay (`replay_with_recovery` is `Full`).
    pub mode: TelemetryMode,
}

/// What one workload runs.
#[derive(Debug, Clone)]
pub enum Plan {
    /// A feed replayed through the gateway.
    Soak(SoakPlan),
    /// The fault-injection campaign.
    Campaign(CampaignConfig),
}

/// The plan of workload `name` under `seed`; `smoke` shrinks it to 16
/// tenants (10 runs per fault) so the harness itself can be exercised.
pub fn plan(name: &str, seed: u64, smoke: bool) -> Option<Plan> {
    let tenants = |full: usize| if smoke { 16 } else { full / SCALE_DIV };
    // Nothing may be refused at registration: admission is not under test.
    let open = GatewayConfig {
        max_ops_per_shard: usize::MAX,
        ..GatewayConfig::default()
    };
    let soak = |ops, fault_every, noise_rate| SoakConfig {
        ops,
        seed,
        noise_rate,
        fault_every,
        ..SoakConfig::default()
    };
    let sampled = |config, gateway| {
        Plan::Soak(SoakPlan {
            config,
            gateway,
            storm: None,
            mode: TelemetryMode::Sampled,
        })
    };
    Some(match name {
        "fleet-healthy" => sampled(soak(tenants(2048), 8, 0.05), open),
        "noisy-wire" => sampled(soak(tenants(1024), 0, 1.0), open),
        "recovery-storm" => Plan::Soak(SoakPlan {
            config: soak(tenants(1024), 1, 0.05),
            gateway: open,
            storm: Some(StormConfig::default()),
            mode: TelemetryMode::Full,
        }),
        "overload-shed" => sampled(
            soak(tenants(512), 1, 0.05),
            GatewayConfig {
                queue_capacity: 16,
                batch_size: 4,
                flush_interval: SimDuration::from_secs(5),
                overload: OverloadPolicy::ShedOldest,
                ..open
            },
        ),
        "campaign" => Plan::Campaign(CampaignConfig {
            runs_per_fault: if smoke { 10 } else { 100 / SCALE_DIV },
            seed,
            recovery: true,
            ..CampaignConfig::default()
        }),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_listed_workload_has_a_plan_and_nothing_else_does() {
        for w in WORKLOADS {
            assert!(plan(w.name, 1, false).is_some(), "{}", w.name);
            assert!(plan(w.name, 1, true).is_some(), "{}", w.name);
        }
        assert!(plan("fleet", 1, false).is_none());
    }

    #[test]
    fn the_seed_reaches_the_generators_and_smoke_shrinks_them() {
        let Some(Plan::Soak(p)) = plan("overload-shed", 77, false) else {
            panic!("soak plan expected")
        };
        assert_eq!((p.config.seed, p.config.ops), (77, 256));
        assert_eq!(p.gateway.overload, OverloadPolicy::ShedOldest);
        let Some(Plan::Soak(p)) = plan("fleet-healthy", 77, true) else {
            panic!("soak plan expected")
        };
        assert_eq!(p.config.ops, 16);
        let Some(Plan::Campaign(c)) = plan("campaign", 77, true) else {
            panic!("campaign plan expected")
        };
        assert_eq!((c.seed, c.runs_per_fault, c.recovery), (77, 10, true));
    }
}
