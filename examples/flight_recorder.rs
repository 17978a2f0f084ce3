//! Flight recorder + zero-cost telemetry: the observability story end
//! to end.
//!
//! A runtime always counts — deliveries, transitions, guard
//! fall-throughs, spawns, releases — on cache-line-padded per-shard
//! counters, snapshotted on demand as plain numbers or JSON. What it
//! does *not* do by default is trace: the transition observer is a
//! statically-dispatched no-op, so the unobserved hot loop compiles to
//! exactly the pre-telemetry walk (the `runtime_facade` bench row
//! gates this at ≤ 1.10× raw dispatch).
//!
//! Attaching a [`FlightRecorder`] arms a fixed-capacity per-shard ring
//! of transition events plus a log-bucketed batch-latency histogram —
//! still zero allocation per delivery, gated at ≤ 1.25× the facade —
//! and the ring renders as a human-readable post-mortem trace on
//! demand, on invariant failure, or on an aborted hot-swap.
//!
//! ```text
//! cargo run --release --example flight_recorder
//! ```
//!
//! [`FlightRecorder`]: stategen::runtime::FlightRecorder

use stategen::commit::{commit_efsm, commit_efsm_params, CommitConfig, MESSAGE_NAMES};
use stategen::runtime::{Engine, Spec};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The commit EFSM at r = 4, unfolded onto the dense table.
    let config = CommitConfig::new(4)?;
    let engine = Engine::compile(Spec::efsm(commit_efsm(), commit_efsm_params(&config)))?;
    let mut rt = engine.runtime();
    rt.spawn_many(1024);

    // Phase 1: unobserved. Counters run regardless — the *recorder* is
    // what costs nothing until attached.
    let script: Vec<_> = MESSAGE_NAMES
        .iter()
        .map(|name| rt.message_id(name).unwrap())
        .collect();
    for &message in &script {
        rt.deliver_all(message);
    }
    assert!(!rt.recorder_attached());
    let m = rt.metrics();
    println!(
        "unobserved: {} deliveries, {} transitions, {} guard fall-throughs",
        m.deliveries, m.transitions, m.guard_fall_throughs
    );

    // Phase 2: observed. Each shard gets a 16-event ring (one
    // allocation, here) and deliver_all starts feeding the
    // batch-latency histogram.
    rt.attach_recorder(16);
    for &message in &script {
        rt.deliver_all(message);
    }

    // The metrics snapshot is a plain struct — diff it, export it.
    println!("\nmetrics JSON:\n{}", rt.metrics().to_json());

    // Per-batch wall-clock latency, log-bucketed: p50/p99/max with no
    // allocation after construction.
    let lat = rt.batch_latency().expect("armed by attach_recorder");
    println!(
        "batch latency over {} batches: p50 {} ns, p99 {} ns, max {} ns",
        lat.count(),
        lat.p50(),
        lat.p99(),
        lat.max()
    );

    // The flight recorder retains the last 16 transitions per shard —
    // `recorded` keeps counting past the ring so a dump says how much
    // history scrolled off.
    println!("\nflight trace (newest {} events):", 16);
    print!("{}", rt.dump_trace());

    // Detaching returns the runtime to the provably-free path; the
    // counters keep running.
    rt.detach_recorder();
    assert!(rt.batch_latency().is_none());
    let final_metrics = rt.metrics();
    assert_eq!(final_metrics.deliveries, m.deliveries * 2);
    println!(
        "\ndetached again: {} total deliveries and counting",
        final_metrics.deliveries
    );
    Ok(())
}
