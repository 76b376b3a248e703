//! The net's answer table against the net's direct functions: a checker
//! on a shared `Arc<PetriNet>` must give, for every replay, the verdict
//! that `PetriNet::replay`, `enabled_labels` and `hypothesise_skips`
//! compute from scratch, on the curated Figure-2 model and on a mined one,
//! whatever other checkers of the net asked before.

use std::sync::{Arc, OnceLock};

use pod_diagnosis::eval::healthy_log;
use pod_diagnosis::mining::mine_process;
use pod_diagnosis::obs::Obs;
use pod_diagnosis::orchestrator::process_def;
use pod_diagnosis::process::{Conformance, ConformanceChecker, PetriNet, ProcessModel};
use proptest::prelude::*;

/// The curated model and one mined from four healthy runs, with each
/// model's activities.
fn models() -> &'static [(ProcessModel, Vec<String>); 2] {
    static MODELS: OnceLock<[(ProcessModel, Vec<String>); 2]> = OnceLock::new();
    MODELS.get_or_init(|| {
        let events: Vec<_> = (1..=4).flat_map(|seed| healthy_log(seed, 4)).collect();
        let trace_of = |e: &pod_diagnosis::log::LogEvent| e.field("taskid").map(str::to_string);
        let mined = mine_process(&events, trace_of, "mined-process").expect("mines");
        [process_def::rolling_upgrade_model(), mined.model].map(|model| {
            let names = model.task_names().into_iter().map(str::to_string).collect();
            (model, names)
        })
    })
}

/// One net per model, shared by every case: its table fills as the cases
/// run, so later cases read answers earlier ones left.
fn shared_nets() -> &'static [Arc<PetriNet>; 2] {
    static NETS: OnceLock<[Arc<PetriNet>; 2]> = OnceLock::new();
    NETS.get_or_init(|| {
        models()
            .each_ref()
            .map(|(model, _)| Arc::new(PetriNet::compile(model)))
    })
}

/// The activity step `pick` names in marking `m`: half the picks take an
/// executable activity, so walks get around the replacement loop; the
/// rest take any activity of the model or one it does not know.
fn activity(net: &PetriNet, names: &[String], m: &[u8], pick: usize) -> String {
    let executable = net.enabled_labels(m);
    match pick.checked_sub(names.len() + 1) {
        Some(i) if !executable.is_empty() => executable[i % executable.len()].clone(),
        _ => names
            .get(pick)
            .map_or("garbage", String::as_str)
            .to_string(),
    }
}

/// The verdicts of `checker` over the activities of a walk.
fn verdicts(checker: &mut ConformanceChecker, trace: &str, walk: &[String]) -> Vec<Conformance> {
    walk.iter().map(|act| checker.replay(trace, act)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Every verdict of a checker on the shared net equals what the direct
    /// functions compute for the marking the direct replay reached: fit
    /// where `replay` fires, else unfit with `enabled_labels` as
    /// `expected` and `hypothesise_skips` as `skipped`.
    #[test]
    fn the_shared_net_answers_as_the_direct_functions(
        which in 0usize..2,
        picks in prop::collection::vec(0usize..40, 0..48),
    ) {
        let (_, names) = &models()[which];
        let net = &shared_nets()[which];
        let mut checker = ConformanceChecker::on(Arc::clone(net), &Obs::detached());
        let mut m = net.initial_marking();
        for pick in picks {
            let act = activity(net, names, &m, pick);
            let verdict = checker.replay("t", &act);
            match net.replay(&m, &act) {
                Some(next) => {
                    prop_assert_eq!(verdict, Conformance::Fit, "at {}", act);
                    m = next;
                }
                None => {
                    let Conformance::Unfit(unfit) = verdict else {
                        panic!("{act}: not fit, but {verdict:?}");
                    };
                    let expected = net.enabled_labels(&m);
                    let skipped = net.hypothesise_skips(&m, &act, &expected);
                    prop_assert_eq!(&unfit.expected, &expected, "at {}", act);
                    prop_assert_eq!(&unfit.skipped, &skipped, "at {}", act);
                }
            }
        }
        prop_assert_eq!(checker.is_complete("t"), net.is_complete(&m));
    }

    /// Two checkers on one fresh net give each walk the verdicts it gets
    /// on a net of its own, whichever of them replays first.
    #[test]
    fn checkers_sharing_a_net_agree_whichever_runs_first(
        which in 0usize..2,
        first in prop::collection::vec(0usize..40, 0..24),
        second in prop::collection::vec(0usize..40, 0..24),
    ) {
        let (model, names) = &models()[which];
        let fresh = || Arc::new(PetriNet::compile(model));
        let reference = fresh();
        let walk = |picks: &[usize]| {
            let mut m = reference.initial_marking();
            let mut acts = Vec::new();
            for &pick in picks {
                let act = activity(&reference, names, &m, pick);
                m = reference.replay(&m, &act).unwrap_or(m);
                acts.push(act);
            }
            acts
        };
        let (a, b) = (walk(&first), walk(&second));
        let alone = |acts: &[String]| {
            let mut checker = ConformanceChecker::on(fresh(), &Obs::detached());
            verdicts(&mut checker, "t", acts)
        };
        let (a_alone, b_alone) = (alone(&a), alone(&b));
        for a_runs_first in [true, false] {
            let net = fresh();
            let mut checker_a = ConformanceChecker::on(Arc::clone(&net), &Obs::detached());
            let mut checker_b = ConformanceChecker::on(Arc::clone(&net), &Obs::detached());
            let (a_shared, b_shared) = if a_runs_first {
                let a_shared = verdicts(&mut checker_a, "a", &a);
                (a_shared, verdicts(&mut checker_b, "b", &b))
            } else {
                let b_shared = verdicts(&mut checker_b, "b", &b);
                (verdicts(&mut checker_a, "a", &a), b_shared)
            };
            prop_assert_eq!(&a_shared, &a_alone);
            prop_assert_eq!(&b_shared, &b_alone);
        }
    }
}
