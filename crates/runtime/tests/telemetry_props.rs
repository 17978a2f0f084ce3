//! The metric counters against the operation oracle (`oracle/mod.rs`):
//! after every operation each runtime's `metrics()` must equal a tally
//! kept beside the reference, on runtimes with and without a recorder.

mod oracle;

use std::sync::OnceLock;

use oracle::*;
use proptest::prelude::*;
use stategen_models::session_lifecycle;
use stategen_runtime::Tier;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random flat statecharts without guards, some past 256 states.
    #[test]
    fn counters_match_ground_truth_on_random_machines(
        machine in random_machine(),
        shards in shards(),
        ops in script(),
    ) {
        check(&Subject::hsm(machine.hsm(false), vec![]), shards, &ops)?;
    }

    /// The commit EFSM at r = 64, past the unfolding budget, so every
    /// engine interprets it.
    #[test]
    fn counters_match_ground_truth_on_commit_machine(shards in few_shards(), ops in script()) {
        let subject = &commit_subjects()[2];
        prop_assert_eq!(subject.compiled.tier(), Tier::Interpreted);
        check(subject, shards, &ops)?;
    }

    /// Guarded cells of every shape, whose guards fall through.
    #[test]
    fn counters_match_ground_truth_on_guarded_efsm(
        t in 1i64..6,
        shape in 0..CELL_SHAPES.len(),
        shards in few_shards(),
        ops in script(),
    ) {
        check(&Subject::efsm(threshold_efsm(shape), vec![t]), shards, &ops)?;
    }

    /// The session-lifecycle statechart, flattened: entry and exit
    /// actions, an internal transition, and absorbed messages.
    #[test]
    fn counters_match_ground_truth_on_flattened_hsm(shards in shards(), ops in script()) {
        static SUBJECT: OnceLock<Subject> = OnceLock::new();
        let subject = SUBJECT.get_or_init(|| Subject::hsm(session_lifecycle(), vec![]));
        check(subject, shards, &ops)?;
    }

    /// The commit protocol's generated machine and its EFSM unfolded
    /// at r = 4, the recorders attached or detached after every third
    /// operation: the observed runtimes still match the reference and
    /// the unobserved ones.
    #[test]
    fn observation_never_changes_behaviour(
        shards in few_shards(),
        ops in dense(Op::ToggleRecorder),
    ) {
        for subject in &commit_subjects()[..2] {
            check(subject, shards, &ops)?;
        }
    }
}
