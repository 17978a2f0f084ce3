//! Snapshots against the operation oracle (`oracle/mod.rs`): scripts
//! dense in `Restore`, each of which writes `snapshot_into` over a
//! dirty snapshot of another machine, restores it across engines and
//! replays on; and restore's refusal of a different machine.

mod oracle;

use oracle::support::two_counter;
use oracle::*;
use proptest::prelude::*;
use stategen_runtime::Runtime;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The commit protocol's generated machine and its EFSM unfolded
    /// at r = 4, restored after every third operation: each restore
    /// reproduces the peer's snapshot bit for bit and the script goes
    /// on against the reference.
    #[test]
    fn snapshot_restore_round_trips_bit_identically(
        shards in few_shards(),
        ops in dense(Op::Restore),
    ) {
        for subject in &commit_subjects()[..2] {
            check(subject, shards, &ops)?;
        }
    }

    /// Random generated machines (no registers) and guarded machines
    /// (two), each snapshot written over a dirty one with three
    /// variables and another shard count.
    #[test]
    fn snapshot_into_a_dirty_snapshot_is_snapshot_all(
        model in two_counter(),
        t in 1i64..6,
        shape in 0..CELL_SHAPES.len(),
        shards in few_shards(),
        ops in dense(Op::Restore),
    ) {
        check(&Subject::machine(&model), shards, &ops)?;
        check(&Subject::efsm(threshold_efsm(shape), vec![t]), shards, &ops)?;
    }

    /// Every engine of one commit lowering — compiled, interpreted,
    /// artifact-booted — restores that lowering's snapshots (the
    /// oracle's `Restore`), and every engine of another lowering
    /// refuses them.
    #[test]
    fn restore_respects_fingerprints(shards in few_shards(), ops in script()) {
        for (i, subject) in commit_subjects().iter().enumerate() {
            check(subject, shards, &ops)?;
            let mut rt = subject.compiled.runtime().sharded(shards);
            load(&mut rt, &mut Vec::new(), &ops);
            let snap = rt.snapshot_all();
            for (j, other) in commit_subjects().iter().enumerate() {
                for engine in [&other.compiled, &other.interpreted, &other.booted] {
                    let restored = Runtime::restore(engine, &snap);
                    prop_assert_eq!(restored.is_ok(), i == j, "{} into {}", i, j);
                }
            }
        }
    }
}
