//! Configuration of a rolling-upgrade run.

use pod_cloud::{AmiId, AsgName, ElbName};
use pod_sim::SimDuration;

/// Parameters of one rolling upgrade. The orchestrator replaces one instance
/// at a time, whatever the paper's `k` the monitoring side assumes.
#[derive(Debug, Clone)]
pub struct UpgradeConfig {
    /// Application name used in log lines (the paper's example uses `pm`).
    pub app_name: String,
    /// The ASG being upgraded.
    pub asg: AsgName,
    /// The load balancer fronting the ASG.
    pub elb: ElbName,
    /// The new AMI to roll out.
    pub new_ami: AmiId,
    /// Name for the launch configuration the upgrade creates.
    pub new_launch_config: String,
    /// How long to wait for one replacement before giving up.
    pub max_wait_per_instance: SimDuration,
}

impl UpgradeConfig {
    /// Sensible defaults matching the paper's 4-instance setup.
    pub fn new(
        app_name: impl Into<String>,
        asg: AsgName,
        elb: ElbName,
        new_ami: AmiId,
    ) -> UpgradeConfig {
        UpgradeConfig {
            app_name: app_name.into(),
            asg,
            elb,
            new_ami,
            new_launch_config: "lc-upgrade".to_string(),
            max_wait_per_instance: SimDuration::from_secs(600),
        }
    }
}
