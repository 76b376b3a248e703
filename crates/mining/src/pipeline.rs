//! The end-to-end offline mining pipeline (Section III.A of the paper):
//! raw operation logs → clusters → named activities with regular
//! expressions → tagged traces → directly-follows graph → process model.

use pod_log::{Boundary, LineRule, LogEvent, RuleBook};

use crate::cluster::{cluster_lines, ClusterConfig};
use crate::dfg::Dfg;
use crate::discovery::{discover_model, DiscoveryError};
use crate::template::Template;

/// The artefacts produced by mining a set of operation logs.
#[derive(Debug)]
pub struct MinedProcess {
    /// The discovered process model.
    pub model: pod_process::ProcessModel,
    /// Transformation rules mapping raw lines to activities — ready to be
    /// installed in a local log processor.
    pub rules: RuleBook,
    /// Activity traces after tagging, one per process instance.
    pub traces: Vec<Vec<String>>,
}

/// An error from [`mine_process`].
#[derive(Debug)]
pub enum MiningError {
    /// No input events were supplied.
    NoEvents,
    /// Discovery failed.
    Discovery(DiscoveryError),
    /// A derived pattern failed to compile (template bug).
    Pattern(pod_regex::ParseError),
}

impl std::fmt::Display for MiningError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MiningError::NoEvents => f.write_str("no events to mine from"),
            MiningError::Discovery(e) => write!(f, "discovery failed: {e}"),
            MiningError::Pattern(e) => write!(f, "derived pattern invalid: {e}"),
        }
    }
}

impl std::error::Error for MiningError {}

/// Mines a process from operation-log events.
///
/// `trace_of` extracts the process-instance id an event belongs to (events
/// yielding `None` are skipped). Events must already be in chronological
/// order per trace, which is how log files arrive.
///
/// # Errors
///
/// Fails when no events are supplied, a derived regex does not compile, or
/// the mined DFG cannot be turned into a valid model.
///
/// # Examples
///
/// ```
/// use pod_log::LogEvent;
/// use pod_mining::mine_process;
/// use pod_sim::SimTime;
///
/// let mut events = Vec::new();
/// for run in 0..3 {
///     for (i, msg) in [
///         "Starting rolling upgrade task",
///         "Terminating EC2 instance: i-1a2b3c4d",
///         "Instance i-99887766 is ready for use",
///         "Rolling upgrade task completed",
///     ].iter().enumerate() {
///         events.push(
///             LogEvent::new(SimTime::from_millis((run * 10 + i) as u64), "asgard.log", *msg)
///                 .with_field("run", format!("run-{run}")),
///         );
///     }
/// }
/// let mined = mine_process(&events, |e| e.field("run").map(str::to_string),
///                          "mined-process").unwrap();
/// assert_eq!(mined.traces.len(), 3);
/// assert_eq!(mined.model.task_names().len(), 4);
/// ```
pub fn mine_process(
    events: &[LogEvent],
    trace_of: impl Fn(&LogEvent) -> Option<String>,
    model_name: &str,
) -> Result<MinedProcess, MiningError> {
    if events.is_empty() {
        return Err(MiningError::NoEvents);
    }
    // 1. Cluster the raw lines.
    let messages: Vec<&str> = events.iter().map(|e| e.message.as_str()).collect();
    let clusters = cluster_lines(&messages, &ClusterConfig::default());

    // 2. Derive a template, an activity name and a rule per cluster.
    let mut rules = RuleBook::new();
    let mut names: Vec<String> = Vec::new();
    let mut activity_of_line: Vec<Option<usize>> = vec![None; messages.len()];
    for (ci, cluster) in clusters.iter().enumerate() {
        let lines: Vec<&str> = cluster.members.iter().map(|i| messages[*i]).collect();
        let template = Template::derive(&lines);
        let mut name = template.activity_name();
        // Disambiguate duplicate names deterministically.
        if names.contains(&name) {
            name = format!("{name}-{ci}");
        }
        let pattern = template.to_pattern();
        rules.push(
            LineRule::new(name.clone(), Boundary::End, &[pattern]).map_err(MiningError::Pattern)?,
        );
        names.push(name);
        for m in &cluster.members {
            activity_of_line[*m] = Some(ci);
        }
    }

    // 3. Build traces (events are chronological within each trace).
    let mut trace_ids: Vec<String> = Vec::new();
    let mut traces: Vec<Vec<String>> = Vec::new();
    for (i, event) in events.iter().enumerate() {
        let Some(tid) = trace_of(event) else { continue };
        let Some(cluster_idx) = activity_of_line[i] else {
            continue;
        };
        let pos = match trace_ids.iter().position(|t| *t == tid) {
            Some(p) => p,
            None => {
                trace_ids.push(tid);
                traces.push(Vec::new());
                trace_ids.len() - 1
            }
        };
        traces[pos].push(names[cluster_idx].clone());
    }

    // 4. DFG + discovery.
    let dfg = Dfg::from_traces(&traces);
    let model = discover_model(model_name, &dfg).map_err(MiningError::Discovery)?;
    Ok(MinedProcess {
        model,
        rules,
        traces,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pod_sim::SimTime;

    fn asgard_run(run: usize, loops: usize) -> Vec<LogEvent> {
        let mut msgs = vec![
            "Starting rolling upgrade task for group pm--asg".to_string(),
            "Created launch configuration lc-v2".to_string(),
            "Sorting 4 instances by launch time".to_string(),
        ];
        for i in 0..loops {
            msgs.push(format!(
                "Deregistered instance i-{i:08x} from load balancer"
            ));
            msgs.push(format!("Terminating EC2 instance: i-{i:08x}"));
            msgs.push("Waiting for ASG to start new instance".to_string());
            msgs.push(format!("Instance i-{:08x} is ready for use", i + 100));
        }
        msgs.push("Rolling upgrade task completed".to_string());
        msgs.iter()
            .enumerate()
            .map(|(i, m)| {
                LogEvent::new(
                    SimTime::from_millis((run * 1000 + i) as u64),
                    "asgard.log",
                    m.clone(),
                )
                .with_field("run", format!("run-{run}"))
            })
            .collect()
    }

    #[test]
    fn mines_rolling_upgrade_shape() {
        let mut events = Vec::new();
        for run in 0..5 {
            events.extend(asgard_run(run, 2 + run % 3));
        }
        let mined = mine_process(
            &events,
            |e| e.field("run").map(str::to_string),
            "rolling-upgrade",
        )
        .unwrap();
        assert_eq!(mined.traces.len(), 5);
        // 8 distinct activities: start, create-lc, sort, deregister,
        // terminate, wait, ready, completed.
        assert_eq!(mined.model.task_names().len(), 8);
        // The mined model perfectly replays its own traces.
        let counts = pod_process::replay_fitness(&mined.model, &mined.traces);
        assert_eq!(counts.fitness(), 1.0);
        // And generalises to an unseen longer run.
        let extra = asgard_run(99, 6);
        let extra_trace: Vec<String> = extra
            .iter()
            .filter_map(|e| mined.rules.match_line(&e.message).map(|m| m.activity))
            .collect();
        assert_eq!(extra_trace.len(), extra.len(), "rules tag every line");
        let counts = pod_process::replay_fitness(&mined.model, &[extra_trace]);
        assert_eq!(counts.fitness(), 1.0);
    }

    #[test]
    fn mined_rules_extract_instance_ids() {
        let events = asgard_run(0, 2);
        let mined = mine_process(
            &events,
            |e| e.field("run").map(str::to_string),
            "mined-process",
        )
        .unwrap();
        let m = mined
            .rules
            .match_line("Terminating EC2 instance: i-deadbeef")
            .unwrap();
        assert!(m
            .fields
            .iter()
            .any(|(k, v)| k == "instanceid" && v == "i-deadbeef"));
    }

    #[test]
    fn events_without_trace_id_are_skipped() {
        let mut events = asgard_run(0, 1);
        events.push(LogEvent::new(
            SimTime::from_secs(99),
            "other.log",
            "Starting rolling upgrade task for group other--asg",
        ));
        let mined = mine_process(
            &events,
            |e| e.field("run").map(str::to_string),
            "mined-process",
        )
        .unwrap();
        assert_eq!(mined.traces.len(), 1);
    }

    #[test]
    fn no_events_is_an_error() {
        assert!(matches!(
            mine_process(&[], |_| None, "mined-process"),
            Err(MiningError::NoEvents)
        ));
    }
}
