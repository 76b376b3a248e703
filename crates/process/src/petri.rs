//! Compilation of a BPMN-subset model to a Petri net.
//!
//! The paper's conformance checking adapts the token-replay technique of
//! van der Aalst (Process Mining, ch. 7.2) from Petri nets to BPMN
//! semantics. We do the same by compiling the BPMN model to an equivalent
//! labelled Petri net: every sequence flow becomes a place; tasks become
//! labelled transitions; gateways and events become silent transitions.
//!
//! What a checker asks of the net — replay this activity in this marking —
//! is a pure function of the pair, and every checker of one model holds
//! the same net. So the net answers each pair once ([`PetriNet::replay`],
//! or on an unfit verdict [`PetriNet::enabled_labels`] and
//! [`PetriNet::hypothesise_skips`]) and keeps the answer in a table it
//! shares with every later asker.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;

use parking_lot::RwLock;

use crate::conformance::Unfit;
use crate::model::{GatewayKind, NodeKind, ProcessModel};

/// A marking: token count per place.
pub type Marking = Vec<u8>;

/// A marking as a checker's trace holds it: shared with the net's answer
/// table, so a fit replay moves a reference count instead of copying.
pub(crate) type State = Arc<[u8]>;

/// What replaying one activity in one marking comes to.
#[derive(Debug, Clone)]
pub(crate) enum Step {
    /// The activity fired: the marking after it.
    Fire(State),
    /// The activity could not fire: what the unfit verdict reports.
    Unfit(Arc<Unfit>),
}

/// The net's answers, one row per marking asked about. A row has a slot
/// per distinct label (the order of `PetriNet::labels`) and a last slot
/// shared by every activity no transition carries: such an activity never
/// fires, and its verdict depends on the marking alone.
#[derive(Debug, Default)]
struct Answers {
    rows: HashMap<State, Box<[Option<Step>]>>,
}

/// One Petri-net transition.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Transition {
    /// Activity name for task transitions; `None` for silent ones.
    label: Option<String>,
    /// Places a token is consumed from.
    consume: Vec<usize>,
    /// Places a token is produced on.
    produce: Vec<usize>,
}

/// Bound on the number of distinct markings explored when saturating silent
/// transitions; generous for operations processes (which have few gateways).
const CLOSURE_BOUND: usize = 4096;

/// Bound on the markings the answer table keeps rows for. A net whose
/// tokens pile up (a parallel split inside a loop) can reach more; past
/// the bound, a new marking's answers are worked out on every call.
const ANSWER_BOUND: usize = 4096;

/// A labelled Petri net compiled from a [`ProcessModel`].
///
/// # Examples
///
/// ```
/// use pod_process::{PetriNet, ProcessModelBuilder};
///
/// let mut b = ProcessModelBuilder::new("m");
/// let s = b.start();
/// let a = b.task("a");
/// let e = b.end();
/// b.flow(s, a);
/// b.flow(a, e);
/// let net = PetriNet::compile(&b.build().unwrap());
///
/// let m0 = net.initial_marking();
/// assert_eq!(net.enabled_labels(&m0), vec!["a".to_string()]);
/// let m1 = net.replay(&m0, "a").unwrap();
/// assert!(net.is_complete(&m1));
/// ```
#[derive(Debug)]
pub struct PetriNet {
    transitions: Vec<Transition>,
    initial: State,
    done_place: usize,
    /// Every transition label, sorted and deduplicated: the answer
    /// table's columns.
    labels: Vec<String>,
    answers: RwLock<Answers>,
}

impl PetriNet {
    /// Compiles a validated model.
    pub fn compile(model: &ProcessModel) -> PetriNet {
        // One place per sequence flow, plus a final "done" place.
        let n_flows = model.flows().len();
        let done_place = n_flows;
        let n_places = n_flows + 1;
        let mut transitions = Vec::new();
        let mut initial = vec![0u8; n_places];

        for node in model.nodes() {
            let inc: Vec<usize> = model.incoming(node.id).iter().map(|f| f.0).collect();
            let out: Vec<usize> = model.outgoing(node.id).iter().map(|f| f.0).collect();
            match &node.kind {
                NodeKind::Start => {
                    // The start event marks each outgoing flow initially.
                    for o in &out {
                        initial[*o] = 1;
                    }
                }
                NodeKind::End => {
                    // One silent transition per incoming flow into "done".
                    for i in &inc {
                        transitions.push(Transition {
                            label: None,
                            consume: vec![*i],
                            produce: vec![done_place],
                        });
                    }
                }
                NodeKind::Task(name) => {
                    // BPMN: multiple incoming = implicit XOR-merge (fire on
                    // any one); multiple outgoing = implicit AND-split.
                    for i in &inc {
                        transitions.push(Transition {
                            label: Some(name.clone()),
                            consume: vec![*i],
                            produce: out.clone(),
                        });
                    }
                }
                NodeKind::Gateway(GatewayKind::Exclusive) => {
                    for i in &inc {
                        for o in &out {
                            transitions.push(Transition {
                                label: None,
                                consume: vec![*i],
                                produce: vec![*o],
                            });
                        }
                    }
                }
                NodeKind::Gateway(GatewayKind::Parallel) => {
                    transitions.push(Transition {
                        label: None,
                        consume: inc.clone(),
                        produce: out.clone(),
                    });
                }
            }
        }
        let mut labels: Vec<String> = transitions.iter().filter_map(|t| t.label.clone()).collect();
        labels.sort();
        labels.dedup();
        PetriNet {
            transitions,
            initial: initial.into(),
            done_place,
            labels,
            answers: RwLock::default(),
        }
    }

    /// The marking before any activity has executed.
    pub fn initial_marking(&self) -> Marking {
        self.initial.to_vec()
    }

    /// The initial marking as a trace holds it.
    pub(crate) fn initial_state(&self) -> State {
        Arc::clone(&self.initial)
    }

    /// Replays `activity` in `m` for a checker: the next marking, or what
    /// the unfit verdict reports. Each (marking, activity) pair is worked
    /// out once, by [`PetriNet::replay`] and on an unfit verdict
    /// [`PetriNet::enabled_labels`] and [`PetriNet::hypothesise_skips`],
    /// then read from the table every holder of this net shares.
    pub(crate) fn step(&self, m: &State, activity: &str) -> Step {
        let column = self
            .labels
            .binary_search_by(|label| label.as_str().cmp(activity))
            .unwrap_or(self.labels.len());
        let known = self
            .answers
            .read()
            .rows
            .get(m)
            .and_then(|row| row[column].clone());
        if let Some(step) = known {
            return step;
        }
        let step = match self.replay(m, activity) {
            Some(next) => Step::Fire(next.into()),
            None => {
                let expected = self.enabled_labels(m);
                let skipped = self.hypothesise_skips(m, activity, &expected);
                Step::Unfit(Arc::new(Unfit::new(expected, skipped)))
            }
        };
        let mut answers = self.answers.write();
        if answers.rows.len() >= ANSWER_BOUND && !answers.rows.contains_key(m) {
            return step;
        }
        let width = self.labels.len() + 1;
        let row = answers
            .rows
            .entry(Arc::clone(m))
            .or_insert_with(|| vec![None; width].into());
        row[column].get_or_insert(step).clone()
    }

    /// Whether `t` is enabled in `m`.
    fn enabled(&self, m: &[u8], t: &Transition) -> bool {
        // A transition consuming the same place twice needs two tokens.
        t.consume.iter().all(|p| {
            let need = t.consume.iter().filter(|q| *q == p).count();
            usize::from(m[*p]) >= need
        })
    }

    /// Fires `t` in `m`; caller must have checked enablement.
    fn fire(&self, m: &[u8], t: &Transition) -> Marking {
        let mut next = m.to_vec();
        for p in &t.consume {
            next[*p] -= 1;
        }
        for p in &t.produce {
            next[*p] = next[*p].saturating_add(1);
        }
        next
    }

    /// All markings reachable from `m` by firing only silent transitions
    /// (including `m` itself), bounded.
    fn silent_closure(&self, m: &[u8]) -> Vec<Marking> {
        let mut seen: HashSet<Marking> = HashSet::new();
        let mut queue: VecDeque<Marking> = VecDeque::new();
        seen.insert(m.to_vec());
        queue.push_back(m.to_vec());
        let mut result = Vec::new();
        while let Some(cur) = queue.pop_front() {
            result.push(cur.clone());
            if seen.len() >= CLOSURE_BOUND {
                break;
            }
            for t in self.transitions.iter().filter(|t| t.label.is_none()) {
                if self.enabled(&cur, t) {
                    let next = self.fire(&cur, t);
                    if seen.insert(next.clone()) {
                        queue.push_back(next);
                    }
                }
            }
        }
        result
    }

    /// Activity labels executable from `m`, allowing silent moves first.
    /// Sorted and deduplicated.
    pub fn enabled_labels(&self, m: &[u8]) -> Vec<String> {
        let mut labels: Vec<String> = Vec::new();
        for marking in self.silent_closure(m) {
            for t in &self.transitions {
                if let Some(label) = &t.label {
                    if self.enabled(&marking, t) && !labels.contains(label) {
                        labels.push(label.clone());
                    }
                }
            }
        }
        labels.sort();
        labels
    }

    /// Attempts to replay `activity` from `m`: silently saturates gateways
    /// until a transition labelled `activity` is enabled, fires it, and
    /// returns the new marking. Returns `None` when the activity cannot be
    /// executed in the current state (non-conformance).
    ///
    /// `m` is the first marking of the closure walk, so a transition
    /// enabled in `m` itself fires without building the closure; the walk
    /// runs only when none is.
    pub fn replay(&self, m: &[u8], activity: &str) -> Option<Marking> {
        self.fire_labelled(m, activity).or_else(|| {
            self.silent_closure(m)
                .iter()
                .find_map(|marking| self.fire_labelled(marking, activity))
        })
    }

    /// Fires the first transition labelled `activity` enabled in `m`.
    fn fire_labelled(&self, m: &[u8], activity: &str) -> Option<Marking> {
        self.transitions
            .iter()
            .find(|t| t.label.as_deref() == Some(activity) && self.enabled(m, t))
            .map(|t| self.fire(m, t))
    }

    /// Finds the shortest forward path of other activities whose execution
    /// would enable `activity` in `m` — the hypothesised skipped
    /// activities. Searches up to three levels deep, breadth first over
    /// sequences of executable activities; `expected` is
    /// [`PetriNet::enabled_labels`] of `m`, the first level.
    pub fn hypothesise_skips(&self, m: &[u8], activity: &str, expected: &[String]) -> Vec<String> {
        let mut frontier: Vec<(Marking, Vec<String>)> = vec![(m.to_vec(), Vec::new())];
        for _depth in 0..3 {
            let mut next_frontier = Vec::new();
            for (m, path) in &frontier {
                let labels = if path.is_empty() {
                    expected.to_vec()
                } else {
                    self.enabled_labels(m)
                };
                for label in labels {
                    if let Some(m2) = self.replay(m, &label) {
                        let mut p2 = path.clone();
                        p2.push(label.clone());
                        if self.replay(&m2, activity).is_some() {
                            return p2;
                        }
                        next_frontier.push((m2, p2));
                    }
                }
            }
            if next_frontier.is_empty() {
                break;
            }
            frontier = next_frontier;
        }
        Vec::new()
    }

    /// Replays `activity` even if it is not enabled, creating the missing
    /// tokens, and reports how many were missing — the forced firing used
    /// for the token-replay *fitness* metric. Returns the new marking and
    /// the missing-token count. `None` if the net has no transition with
    /// that label at all.
    pub fn replay_forced(&self, m: &[u8], activity: &str) -> Option<(Marking, usize)> {
        if let Some(next) = self.replay(m, activity) {
            return Some((next, 0));
        }
        // Pick the variant with the fewest missing tokens from the raw
        // marking (no silent saturation — a deliberate simplification that
        // keeps forced replay deterministic).
        let mut best: Option<(Marking, usize)> = None;
        for t in &self.transitions {
            if t.label.as_deref() != Some(activity) {
                continue;
            }
            let mut missing = 0usize;
            let mut patched = m.to_vec();
            for p in &t.consume {
                if patched[*p] == 0 {
                    patched[*p] = 1;
                    missing += 1;
                }
            }
            let next = self.fire(&patched, t);
            if best.as_ref().is_none_or(|(_, b)| missing < *b) {
                best = Some((next, missing));
            }
        }
        best
    }

    /// Whether the process instance has reached an end event.
    pub fn is_complete(&self, m: &[u8]) -> bool {
        // The done place may not be directly marked yet if only silent
        // moves separate us from the end event.
        self.silent_closure(m)
            .iter()
            .any(|marking| marking[self.done_place] > 0)
    }

    /// Total tokens left on non-done places (used by the fitness metric).
    pub fn remaining_tokens(&self, m: &[u8]) -> usize {
        m.iter()
            .enumerate()
            .filter(|(p, _)| *p != self.done_place)
            .map(|(_, c)| *c as usize)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ProcessModelBuilder;
    use proptest::prelude::*;

    /// Shared by `Arc` between checkers: an `Rc` or `RefCell` inside stops this compiling.
    #[test]
    fn petri_net_is_shareable_across_threads() {
        fn shared<T: Send + Sync>() {}
        shared::<PetriNet>();
    }

    fn loop_model() -> ProcessModel {
        // start -> a -> join -> b -> c -> split -> (back to join | end)
        let mut bld = ProcessModelBuilder::new("loop");
        let s = bld.start();
        let a = bld.task("a");
        let join = bld.exclusive_gateway();
        let b = bld.task("b");
        let c = bld.task("c");
        let split = bld.exclusive_gateway();
        let e = bld.end();
        bld.flow(s, a);
        bld.flow(a, join);
        bld.flow(join, b);
        bld.flow(b, c);
        bld.flow(c, split);
        bld.flow(split, join);
        bld.flow(split, e);
        bld.build().unwrap()
    }

    use crate::model::ProcessModel;

    #[test]
    fn replays_loop_iterations() {
        let net = PetriNet::compile(&loop_model());
        let mut m = net.initial_marking();
        m = net.replay(&m, "a").unwrap();
        for _ in 0..3 {
            m = net.replay(&m, "b").unwrap();
            m = net.replay(&m, "c").unwrap();
        }
        assert!(net.is_complete(&m), "split can route to end");
    }

    #[test]
    fn out_of_order_activity_is_rejected() {
        let net = PetriNet::compile(&loop_model());
        let m = net.initial_marking();
        assert!(net.replay(&m, "b").is_none(), "b before a is unfit");
        assert!(net.replay(&m, "c").is_none());
        let m = net.replay(&m, "a").unwrap();
        assert!(net.replay(&m, "c").is_none(), "c before b is unfit");
    }

    #[test]
    fn enabled_labels_follow_the_flow() {
        let net = PetriNet::compile(&loop_model());
        let m = net.initial_marking();
        assert_eq!(net.enabled_labels(&m), vec!["a"]);
        let m = net.replay(&m, "a").unwrap();
        assert_eq!(net.enabled_labels(&m), vec!["b"]);
        let m = net.replay(&m, "b").unwrap();
        assert_eq!(net.enabled_labels(&m), vec!["c"]);
        let m = net.replay(&m, "c").unwrap();
        // After the split we may loop (b) — end is silent.
        assert_eq!(net.enabled_labels(&m), vec!["b"]);
    }

    #[test]
    fn unknown_activity_cannot_be_replayed() {
        let net = PetriNet::compile(&loop_model());
        let m = net.initial_marking();
        assert!(net.replay(&m, "zzz").is_none());
        assert!(net.replay_forced(&m, "zzz").is_none());
    }

    #[test]
    fn forced_replay_counts_missing_tokens() {
        let net = PetriNet::compile(&loop_model());
        let m = net.initial_marking();
        let (m2, missing) = net.replay_forced(&m, "b").unwrap();
        assert_eq!(missing, 1, "b's input place was empty");
        // After the forced fire, c is genuinely enabled.
        assert!(net.replay(&m2, "c").is_some());
    }

    #[test]
    fn parallel_gateway_synchronises() {
        // start -> split(+) -> {x, y} -> join(+) -> end
        let mut b = ProcessModelBuilder::new("par");
        let s = b.start();
        let split = b.parallel_gateway();
        let x = b.task("x");
        let y = b.task("y");
        let join = b.parallel_gateway();
        let e = b.end();
        b.flow(s, split);
        b.flow(split, x);
        b.flow(split, y);
        b.flow(x, join);
        b.flow(y, join);
        b.flow(join, e);
        let net = PetriNet::compile(&b.build().unwrap());
        let m = net.initial_marking();
        // Both x and y enabled after the parallel split.
        assert_eq!(net.enabled_labels(&m), vec!["x", "y"]);
        let m = net.replay(&m, "y").unwrap();
        assert!(!net.is_complete(&m));
        assert_eq!(net.enabled_labels(&m), vec!["x"]);
        let m = net.replay(&m, "x").unwrap();
        assert!(net.is_complete(&m), "join fires silently once both done");
    }

    /// The Figure-2 rolling-upgrade shape (`pod-orchestrator`'s
    /// `rolling_upgrade_model`): three setup tasks, the four-task
    /// replacement loop between two exclusive gateways, then completion.
    fn rolling_upgrade_net() -> PetriNet {
        let mut b = ProcessModelBuilder::new("rolling-upgrade");
        let start = b.start();
        let tasks: Vec<_> = ROLLING_UPGRADE.iter().map(|t| b.task(*t)).collect();
        let (join, split, end) = (b.exclusive_gateway(), b.exclusive_gateway(), b.end());
        b.flow(start, tasks[0]);
        b.flow(tasks[0], tasks[1]);
        b.flow(tasks[1], tasks[2]);
        b.flow(tasks[2], join);
        b.flow(join, tasks[3]);
        b.flow(tasks[3], tasks[4]);
        b.flow(tasks[4], tasks[5]);
        b.flow(tasks[5], tasks[6]);
        b.flow(tasks[6], split);
        b.flow(split, join);
        b.flow(split, tasks[7]);
        b.flow(tasks[7], end);
        PetriNet::compile(&b.build().unwrap())
    }

    const ROLLING_UPGRADE: [&str; 8] = [
        "start",
        "update-lc",
        "sort",
        "deregister",
        "terminate",
        "wait",
        "ready",
        "completed",
    ];

    /// The closure walk alone, from `m` on: what `replay` did before its
    /// fast path, and the reference the fast path must agree with.
    fn replay_by_closure(net: &PetriNet, m: &Marking, activity: &str) -> Option<Marking> {
        for marking in net.silent_closure(m) {
            for t in &net.transitions {
                if t.label.as_deref() == Some(activity) && net.enabled(&marking, t) {
                    return Some(net.fire(&marking, t));
                }
            }
        }
        None
    }

    proptest! {
        /// On every reachable marking of the rolling-upgrade net, `replay`
        /// of any activity (or an unknown one) equals the closure walk.
        /// Half the walk's steps pick an executable activity, so walks get
        /// around the replacement loop, whose re-entry is a silent move.
        #[test]
        fn replay_equals_the_closure_walk(
            walk in prop::collection::vec(0usize..18, 0..40),
            probe in 0usize..9,
        ) {
            let net = rolling_upgrade_net();
            let name = |i: usize| ROLLING_UPGRADE.get(i).copied().unwrap_or("garbage");
            let mut m = net.initial_marking();
            for step in walk {
                let executable = net.enabled_labels(&m);
                let activity = match step.checked_sub(9) {
                    Some(i) if !executable.is_empty() => &executable[i % executable.len()],
                    _ => name(step),
                };
                let expected = replay_by_closure(&net, &m, activity);
                prop_assert_eq!(net.replay(&m, activity), expected.clone());
                m = expected.unwrap_or(m);
            }
            let expected = replay_by_closure(&net, &m, name(probe));
            prop_assert_eq!(net.replay(&m, name(probe)), expected);
        }

        /// `enabled` counts a place a transition consumes twice as two
        /// tokens, as a per-place need vector would.
        #[test]
        fn enabled_counts_repeated_places(
            tokens in prop::collection::vec(0u8..3, 3),
            consume in prop::collection::vec(0usize..3, 0..4),
        ) {
            let net = rolling_upgrade_net();
            let t = Transition { label: None, consume, produce: Vec::new() };
            let mut need = [0u8; 3];
            for p in &t.consume {
                need[*p] += 1;
            }
            let by_vector = need.iter().zip(&tokens).all(|(n, have)| have >= n);
            prop_assert_eq!(net.enabled(&tokens, &t), by_vector);
        }
    }

    #[test]
    fn remaining_tokens_counts_non_done_places() {
        let net = PetriNet::compile(&loop_model());
        let m = net.initial_marking();
        assert_eq!(net.remaining_tokens(&m), 1);
    }
}
