//! Deployable artifacts and drain-and-switch hot-swap: the paper's
//! deployment story end to end.
//!
//! A coordinator compiles the commit protocol once, encodes it to a
//! versioned, checksummed binary artifact, and ships the *bytes*. A
//! serving peer boots its engine from the loaded image alone — no
//! model, no generator, no spec on the host — then rolls out a new
//! version on a live runtime: behaviourally identical images migrate
//! every session in place, different ones drain-and-switch (new
//! attempts land on the incoming engine while in-flight attempts
//! finish on the outgoing one), and incompatible or damaged images are
//! rejected before any session moves.
//!
//! ```text
//! cargo run --release --example hot_swap
//! ```

use stategen::commit::{commit_efsm, commit_efsm_params, CommitConfig, MESSAGE_NAMES};
use stategen::runtime::{Artifact, Engine, SwapOutcome};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The coordinator's side: one compiled machine per protocol
    // *family*, one binding per deployment. v1 binds the replication
    // factor r = 4, v2 binds r = 5 — same alphabet, new thresholds.
    let v1 = Artifact::from_efsm(&commit_efsm(), commit_efsm_params(&CommitConfig::new(4)?))?;
    let v2 = Artifact::from_efsm(&commit_efsm(), commit_efsm_params(&CommitConfig::new(5)?))?;
    let v1_image = v1.save();
    let v2_image = v2.save();
    println!(
        "shipped {}: v1 {} bytes (fingerprint {:016x}), v2 {} bytes (fingerprint {:016x})",
        v1.name(),
        v1_image.len(),
        v1.fingerprint(),
        v2_image.len(),
        v2.fingerprint(),
    );

    // The peer's side: boot from bytes alone. The loader validates
    // every section checksum, every index, the content fingerprint and
    // the canonical encoding before the engine sees a single field.
    let booted = Artifact::load(&v1_image)?;
    let engine = Engine::from_artifact(&booted)?;
    assert_eq!(engine.fingerprint(), v1.fingerprint());
    let mut rt = engine.runtime();
    let update = rt.message_id(MESSAGE_NAMES[0]).expect("commit alphabet");
    let vote = rt.message_id(MESSAGE_NAMES[1]).expect("commit alphabet");
    let old_attempts: Vec<_> = (0..3).map(|_| rt.spawn()).collect();
    rt.deliver(old_attempts[0], update);
    rt.deliver(old_attempts[0], vote);
    println!(
        "peer booted from v1 image: tier `{}`, serving {} attempts",
        engine.tier(),
        rt.len(),
    );

    // Redeploying the *same* image (say, after a host reprovision) is
    // free: matching fingerprints migrate every session in place and
    // every outstanding handle stays valid.
    let same = Engine::from_artifact(&Artifact::load(&v1_image)?)?;
    let state_before = rt.state_name(old_attempts[0]).to_string();
    match rt.begin_swap(same)? {
        SwapOutcome::Migrated { sessions } => {
            println!("same-fingerprint redeploy: migrated {sessions} sessions in place");
        }
        other => panic!("expected in-place migration, got {other:?}"),
    }
    assert_eq!(rt.state_name(old_attempts[0]), state_before);

    // The v2 rollout: fingerprints differ, so the runtime drains.
    // In-flight attempts keep being served by v1; new attempts land on
    // v2 immediately.
    let incoming = Engine::from_artifact(&Artifact::load(&v2_image)?)?;
    match rt.begin_swap(incoming)? {
        SwapOutcome::Draining { sessions } => {
            println!("v2 rollout: draining, {sessions} attempts still on v1");
        }
        other => panic!("expected a drain, got {other:?}"),
    }
    let young = rt.spawn(); // served by v2 from its first event
    rt.deliver(young, update);
    rt.deliver(old_attempts[1], update); // still v1 semantics
    assert!(
        rt.finish_swap().is_err(),
        "gate holds while v1 attempts live"
    );
    for attempt in old_attempts {
        rt.release(attempt); // in production: attempts finish and are released
    }
    rt.finish_swap()?;
    assert_eq!(rt.engine().fingerprint(), v2.fingerprint());
    println!(
        "v2 rollout complete: serving fingerprint {:016x}, {} attempt carried over",
        rt.engine().fingerprint(),
        rt.len(),
    );

    // The rejected paths. An image damaged in transit never reaches
    // the runtime: the loader refuses it wholesale.
    let mut damaged = v2_image.clone();
    damaged[v2_image.len() / 2] ^= 0x40;
    let rejection = Artifact::load(&damaged).expect_err("corruption must be caught");
    println!("damaged image rejected by the loader: {rejection}");

    // And an engine over a different alphabet is rejected before any
    // session moves — both sides must serve the same MessageIds during
    // a drain.
    let foreign = Engine::compile(stategen::runtime::Spec::hierarchical(
        stategen::models::session_lifecycle(),
    ))?;
    let refusal = rt.begin_swap(foreign).expect_err("alphabet mismatch");
    println!("incompatible engine rejected before any session moved: {refusal}");
    assert!(!rt.swap_in_progress());
    rt.deliver(young, vote); // the fleet never stopped serving

    Ok(())
}
