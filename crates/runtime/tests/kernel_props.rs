//! The kernels against the operation oracle (`oracle/mod.rs`): the
//! dense and unfolded batch kernels, sharded pools and the finished
//! count, each family of machines run through every way of serving it
//! against one reference per session and its scalar replay.

mod oracle;

use oracle::support::two_counter;
use oracle::*;
use proptest::prelude::*;
use stategen_runtime::Tier;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Dense tables of random generated machines.
    #[test]
    fn dense_kernel_matches_scalar(model in two_counter(), shards in few_shards(), ops in script()) {
        check(&Subject::machine(&model), shards, &ops)?;
    }

    /// Dense tables of random generated machines over 4–8 shards.
    #[test]
    fn sharded_dense_pool_matches_flat(
        model in two_counter(),
        shards in many_shards(),
        ops in script(),
    ) {
        check(&Subject::machine(&model), shards, &ops)?;
    }

    /// A guarded machine with cells of every shape: unfolded onto the
    /// dense table or, where an always-true `Inc` leaves it unbounded,
    /// on the interpreter.
    #[test]
    fn efsm_kernel_matches_scalar(
        t in 1i64..6,
        shape in 0..CELL_SHAPES.len(),
        shards in few_shards(),
        ops in script(),
    ) {
        let subject = Subject::efsm(threshold_efsm(shape), vec![t]);
        if shape == 6 {
            prop_assert_eq!(subject.compiled.tier(), Tier::Compiled);
        }
        check(&subject, shards, &ops)?;
    }

    /// The same guarded machines over 4–8 shards.
    #[test]
    fn sharded_efsm_pool_matches_flat(
        t in 1i64..6,
        shape in 0..CELL_SHAPES.len(),
        shards in many_shards(),
        ops in script(),
    ) {
        check(&Subject::efsm(threshold_efsm(shape), vec![t]), shards, &ops)?;
    }

    /// The commit protocol's generated machine, on the dense table.
    #[test]
    fn compiled_batches_match_scalar_delivery(shards in few_shards(), ops in script()) {
        let subject = &commit_subjects()[0];
        prop_assert_eq!(subject.compiled.tier(), Tier::Compiled);
        check(subject, shards, &ops)?;
    }

    /// The commit EFSM bound at r = 4, unfolded onto the dense table.
    #[test]
    fn efsm_batches_match_scalar_delivery(shards in few_shards(), ops in script()) {
        let subject = &commit_subjects()[1];
        prop_assert_eq!(subject.compiled.tier(), Tier::Compiled);
        check(subject, shards, &ops)?;
    }

    /// The commit protocol, generated and unfolded at r = 4 and
    /// interpreted at r = 64, over 4–8 shards.
    #[test]
    fn sharded_runtime_matches_flat(shards in many_shards(), ops in script()) {
        let tiers = [Tier::Compiled, Tier::Compiled, Tier::Interpreted];
        for (subject, tier) in commit_subjects().iter().zip(tiers) {
            prop_assert_eq!(subject.compiled.tier(), tier);
            check(subject, shards, &ops)?;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random flat statecharts over one variable and one parameter,
    /// some past 256 states, with final start states and final states
    /// that keep their edges.
    #[test]
    fn finished_count_is_eager_on_every_tier(
        machine in random_machine(),
        t in 1i64..5,
        shards in shards(),
        ops in script(),
    ) {
        check(&Subject::hsm(machine.hsm(true), vec![t]), shards, &ops)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random guarded EFSMs, on whichever tier `Engine::compile`
    /// decides for them; a runaway counter must leave the machine on
    /// the interpreter.
    #[test]
    fn lowerings_are_indistinguishable(
        machine in random_efsm(),
        t in 1i64..5,
        shards in shards(),
        ops in script(),
    ) {
        let subject = Subject::efsm(machine.build(), vec![t]);
        if machine.runaway && machine.finish != Some(machine.start) {
            prop_assert_eq!(subject.compiled.tier(), Tier::Interpreted, "{:?}", &subject.compiled);
        }
        check(&subject, shards, &ops)?;
    }
}
