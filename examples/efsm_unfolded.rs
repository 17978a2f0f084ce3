//! A guarded machine behind the runtime facade: one EFSM serves the
//! whole protocol family — parameters are bound at `Spec` ingest, and a
//! 40k-session sharded runtime batch-steps the result on worker
//! threads.
//!
//! The commit EFSM (paper §5.3) has 9 states *whatever the replication
//! factor*: thresholds live in guards over parameters bound at
//! instantiation time. Binding one (§4.2: bind, then generate the FSM)
//! leaves finitely many reachable `(state, counters)` configurations,
//! so `Engine::compile` unfolds the machine onto the dense table — 36
//! configurations at r = 4, 273 at r = 13 — and the engine's `Debug`
//! form says so; past 4 096 of them (r = 64 here) it falls back to the
//! interpreter, and the `Debug` form gives the reason. Either way the
//! caller sees the 9-state machine
//! and its counters. The same machine runs r = 4, 13 and 64 side by
//! side, then drives a 40k-session sharded runtime.
//!
//! ```text
//! cargo run --release --example efsm_unfolded
//! ```

use stategen::commit::{commit_efsm, commit_efsm_params, CommitConfig};
use stategen::runtime::{Engine, Spec, Tier};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Build the 9-state guarded machine once; compile one engine per
    // family member by binding different parameters at ingest.
    // Compilation validates as it lowers: duplicate (state, message)
    // transitions with identical guards are rejected.
    let efsm = commit_efsm();

    // One machine, every family member.
    for (r, tier) in [
        (4u32, Tier::Compiled),
        (13, Tier::Compiled),
        (64, Tier::Interpreted),
    ] {
        let config = CommitConfig::new(r)?;
        let engine = Engine::compile(Spec::efsm(efsm.clone(), commit_efsm_params(&config)))?;
        assert_eq!(engine.tier(), tier);
        assert_eq!(engine.state_count(), 9);
        println!("  {engine:?}");
        let mut rt = engine.runtime();
        let session = rt.spawn();
        let vote = rt.message_id("vote").expect("commit alphabet");
        let commit = rt.message_id("commit").expect("commit alphabet");
        let mut rounds = 0;
        while !rt.is_finished(session) {
            rounds += 1;
            rt.deliver(session, vote);
            rt.deliver(session, commit);
        }
        println!(
            "  r={r:>2}: finished after {rounds} vote/commit rounds (votes={}, commits={})",
            rt.vars(session)[0],
            rt.vars(session)[1],
        );
    }

    // Batch tier: 40k concurrent guarded sessions, partitioned over
    // four shards as *configuration*. Each shard owns its sessions, so
    // `deliver_all` steps them in one fork-join — the caller's thread
    // plus a scoped thread per other shard — with results bit-identical
    // to a single flat runtime.
    let config = CommitConfig::new(4)?;
    let engine = Engine::compile(Spec::efsm(efsm, commit_efsm_params(&config)))?;
    println!(
        "compiled {}: {} states x {} messages, params {:?}",
        engine.name(),
        engine.state_count(),
        engine.messages().len(),
        engine.params(),
    );
    let mut pool = engine.runtime().sharded(4);
    pool.spawn_many(40_000);
    println!(
        "sharded runtime: {} sessions over {} shards",
        pool.len(),
        pool.shard_count()
    );
    let update = engine.message_id("update").expect("commit alphabet");
    let vote = engine.message_id("vote").expect("commit alphabet");
    let commit = engine.message_id("commit").expect("commit alphabet");
    // Drive every session through the canonical happy path:
    // update, two peer votes, two peer commits.
    for mid in [update, vote, vote, commit, commit] {
        let transitions = pool.deliver_all(mid);
        println!(
            "  delivered message {:>2}: {transitions} transitions, {} finished",
            mid.index(),
            pool.finished_count()
        );
    }
    assert!(pool.all_finished());
    println!(
        "all {} sessions agreed in {} transitions total",
        pool.len(),
        pool.steps()
    );
    Ok(())
}
