//! Property-based tests on token replay and fitness.

use pod_process::{replay_fitness, Conformance, ConformanceChecker, ProcessModelBuilder};
use proptest::prelude::*;

/// Builds a linear model a→b→…→ with `n` tasks.
fn linear_model(n: usize) -> pod_process::ProcessModel {
    let mut b = ProcessModelBuilder::new("linear");
    let start = b.start();
    let mut prev = start;
    for i in 0..n {
        let t = b.task(format!("t{i}"));
        b.flow(prev, t);
        prev = t;
    }
    let end = b.end();
    b.flow(prev, end);
    b.build().unwrap()
}

/// The rolling-upgrade-shaped loop model.
fn loop_model() -> pod_process::ProcessModel {
    let mut b = ProcessModelBuilder::new("loop");
    let s = b.start();
    let setup = b.task("setup");
    let join = b.exclusive_gateway();
    let work = b.task("work");
    let check = b.task("check");
    let split = b.exclusive_gateway();
    let done = b.task("done");
    let e = b.end();
    b.flow(s, setup);
    b.flow(setup, join);
    b.flow(join, work);
    b.flow(work, check);
    b.flow(check, split);
    b.flow(split, join);
    b.flow(split, done);
    b.flow(done, e);
    b.build().unwrap()
}

proptest! {
    /// A linear model replays exactly its own sequence and completes.
    #[test]
    fn linear_replay_completes(n in 1usize..12) {
        let model = linear_model(n);
        let mut ch = ConformanceChecker::new(&model);
        for i in 0..n {
            let act = format!("t{i}");
            let verdict = ch.replay("t", &act);
            prop_assert_eq!(verdict, Conformance::Fit);
        }
        prop_assert!(ch.is_complete("t"));
    }

    /// Any loop count replays in the loop model with fitness 1.
    #[test]
    fn loop_model_accepts_any_iteration_count(loops in 1usize..20) {
        let model = loop_model();
        let mut trace = vec!["setup".to_string()];
        for _ in 0..loops {
            trace.push("work".to_string());
            trace.push("check".to_string());
        }
        trace.push("done".to_string());
        let counts = replay_fitness(&model, std::slice::from_ref(&trace));
        prop_assert_eq!(counts.fitness(), 1.0);
        let mut ch = ConformanceChecker::new(&model);
        for act in &trace {
            let verdict = ch.replay("t", act);
            prop_assert_eq!(verdict, Conformance::Fit, "at {}", act);
        }
        prop_assert!(ch.is_complete("t"));
    }

    /// Skipping any single required activity in a linear model makes the
    /// trace unfit at or before the end, and fitness drops below 1.
    #[test]
    fn skipping_breaks_linear_fitness(n in 2usize..10, skip in 0usize..10) {
        let skip = skip % n;
        let model = linear_model(n);
        let trace: Vec<String> = (0..n)
            .filter(|i| *i != skip)
            .map(|i| format!("t{i}"))
            .collect();
        let counts = replay_fitness(&model, std::slice::from_ref(&trace));
        prop_assert!(counts.fitness() < 1.0);
        let mut ch = ConformanceChecker::new(&model);
        let any_error = trace.iter().any(|act| ch.replay("t", act).is_error());
        prop_assert!(any_error || !ch.is_complete("t"));
    }

    /// Fitness is in [0, 1] for arbitrary traces over the model alphabet.
    #[test]
    fn fitness_is_bounded(
        trace in prop::collection::vec(prop::sample::select(vec![
            "setup".to_string(), "work".to_string(), "check".to_string(),
            "done".to_string(), "garbage".to_string(),
        ]), 0..25),
    ) {
        let counts = replay_fitness(&loop_model(), &[trace]);
        let f = counts.fitness();
        prop_assert!((0.0..=1.0).contains(&f), "fitness {f}");
    }

    /// The checker's state advances only on fit events: the same unfit
    /// event replayed again meets the same expected-set.
    #[test]
    fn unfit_events_do_not_advance_state(
        bad in prop::sample::select(vec!["check", "done", "garbage"]),
    ) {
        let model = loop_model();
        let mut ch = ConformanceChecker::new(&model);
        ch.replay("t", "setup");
        let first = ch.replay("t", bad);
        prop_assert!(matches!(first, Conformance::Unfit { .. }));
        prop_assert_eq!(ch.replay("t", bad), first);
        // And the valid continuation still works.
        prop_assert_eq!(ch.replay("t", "work"), Conformance::Fit);
    }

    /// Traces are fully independent: interleaving many traces gives each
    /// the same verdicts as running it alone.
    #[test]
    fn traces_are_isolated(loops_per_trace in prop::collection::vec(1usize..4, 2..5)) {
        let model = loop_model();
        let mut ch = ConformanceChecker::new(&model);
        // Interleave: all setups, then loop bodies round-robin.
        for (t, _) in loops_per_trace.iter().enumerate() {
            let trace_id = format!("t{t}");
            let verdict = ch.replay(&trace_id, "setup");
            prop_assert_eq!(verdict, Conformance::Fit);
        }
        let max_loops = *loops_per_trace.iter().max().unwrap();
        for round in 0..max_loops {
            for (t, loops) in loops_per_trace.iter().enumerate() {
                if round < *loops {
                    let trace_id = format!("t{t}");
                    let work = ch.replay(&trace_id, "work");
                    prop_assert_eq!(work, Conformance::Fit);
                    let check = ch.replay(&trace_id, "check");
                    prop_assert_eq!(check, Conformance::Fit);
                }
            }
        }
        for (t, _) in loops_per_trace.iter().enumerate() {
            let trace_id = format!("t{t}");
            let verdict = ch.replay(&trace_id, "done");
            prop_assert_eq!(verdict, Conformance::Fit);
            prop_assert!(ch.is_complete(&trace_id));
        }
    }
}
