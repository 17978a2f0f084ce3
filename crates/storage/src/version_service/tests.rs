//! Tests of the peer's bookkeeping: the derived indexes and the
//! journaled checkpoint stay exact, replay protection still holds, and
//! what a peer walks per message does not grow with its history.

use asa_simnet::{SimConfig, TraceKind};

use super::*;

type Sim<'m> = Simulation<VhMsg, VhNode<'m>>;

fn pids(tag: &str, count: usize) -> Vec<Pid> {
    (0..count)
        .map(|i| Pid::of(format!("{tag}{i}").as_bytes()))
        .collect()
}

fn fault_free(client_updates: Vec<Vec<Pid>>) -> HarnessConfig {
    HarnessConfig {
        client_updates,
        net: SimConfig {
            seed: 1,
            min_delay: 1,
            max_delay: 10,
            ..SimConfig::default()
        },
        ..HarnessConfig::default()
    }
}

/// Steps `config`'s simulation until its event queue drains, calling
/// `each` after every event, then hands the quiescent simulation to
/// `at_end`.
fn step_through(
    config: &HarnessConfig,
    mut each: impl FnMut(&mut Sim<'_>),
    at_end: impl FnOnce(&mut Sim<'_>),
) {
    let commit_config = CommitConfig::new(config.replication_factor).expect("valid factor");
    let engine = PeerEngine::new(&commit_config);
    let mut sim = harness_simulation(config, &commit_config, &engine);
    while sim.step() {
        assert!(sim.now() <= config.deadline, "run did not quiesce");
        each(&mut sim);
    }
    at_end(&mut sim);
}

fn peer<'s, 'm>(sim: &'s Sim<'m>, index: usize) -> &'s CommitPeer<'m> {
    match sim.node(NodeId(index)) {
        VhNode::Peer(peer) => peer,
        VhNode::Client(_) => panic!("node {index} is a client"),
    }
}

fn peers<'s, 'm>(sim: &'s Sim<'m>) -> impl Iterator<Item = &'s CommitPeer<'m>> {
    sim.nodes().iter().filter_map(|node| match node {
        VhNode::Peer(peer) => Some(&**peer),
        VhNode::Client(_) => None,
    })
}

fn every_update_confirmed(sim: &Sim<'_>) -> bool {
    sim.nodes().iter().all(|node| match node {
        VhNode::Client(c) => c.is_done() && c.outcomes().iter().all(|o| o.committed),
        VhNode::Peer(_) => true,
    })
}

/// The checkpoint with the journal applied must be a copy of the live
/// bookkeeping, and the two indexes their derivations — after every
/// event, not only where `write_checkpoint`'s `debug_assert`s look.
fn assert_exact(peer: &CommitPeer<'_>, context: &str) {
    assert!(
        peer.indexes_are_exact(),
        "{context}: active/recorded drifted"
    );
    match &peer.checkpoint {
        Some(checkpoint) => {
            let mut checkpoint = checkpoint.clone();
            checkpoint.apply(&peer.journal, &peer.history);
            assert!(
                peer.holds(&checkpoint),
                "{context}: checkpoint + journal is not the live bookkeeping"
            );
        }
        None => assert!(
            peer.journal.is_empty(),
            "{context}: journal without a checkpoint"
        ),
    }
}

/// The chaos campaign's fault mix (`tests/chaos.rs`) on its pinned
/// seeds (the rollout campaign pins the same two), with longer scripts
/// and peer 3 crashed by the test itself: first between two checkpoint
/// writes — its journal holds changes no checkpoint has — and again
/// once it has recovered and written checkpoints through the journal,
/// so the second recovery reads a journal-maintained checkpoint.
#[test]
fn journaled_checkpoint_and_indexes_stay_exact_through_two_crashes() {
    const CRASHING: NodeId = NodeId(3);
    const WRITES_BETWEEN_CRASHES: usize = 4;
    for seed in [0xC0FFEE, 2007] {
        let config = HarnessConfig {
            client_updates: vec![pids("chaos-a", 20), pids("chaos-b", 20)],
            ordering: ServerOrdering::Random,
            checkpoint_every: 500,
            net: SimConfig {
                seed,
                min_delay: 1,
                max_delay: 10,
                drop_probability: 0.05,
                duplicate_probability: 0.05,
                reorder_probability: 0.2,
                reorder_bound: 50,
                ..SimConfig::default()
            },
            ..HarnessConfig::default()
        };
        let mut crashes = 0;
        // Checkpointed history length the next crash waits for.
        let mut crash_from = WRITES_BETWEEN_CRASHES;
        let mut was_down = false;
        step_through(
            &config,
            |sim| {
                for (i, peer) in peers(sim).enumerate() {
                    assert_exact(peer, &format!("seed {seed} tick {} peer {i}", sim.now()));
                }
                let down = sim.is_crashed(CRASHING);
                let victim = peer(sim, CRASHING.0);
                if was_down && !down {
                    let checkpoint = victim.checkpoint.as_ref().expect("it had written one");
                    assert!(
                        victim.journal.is_empty() && victim.holds(checkpoint),
                        "seed {seed}: a restarted peer is its checkpoint"
                    );
                }
                was_down = down;
                let durable = victim.checkpoint.as_ref().map_or(0, |c| c.history.len());
                if crashes < 2 && !down && durable >= crash_from && !victim.journal.is_empty() {
                    crashes += 1;
                    crash_from = durable + WRITES_BETWEEN_CRASHES;
                    let restart_at = sim.now() + 300;
                    sim.crash(CRASHING);
                    sim.schedule_restart(CRASHING, restart_at);
                }
            },
            |sim| {
                let stats = sim.stats();
                assert_eq!((stats.crashes, stats.restarts), (2, 2), "seed {seed}");
                assert!(stats.dropped > 0 && stats.duplicated > 0 && stats.reordered > 0);
                assert!(every_update_confirmed(sim), "seed {seed}");
            },
        );
    }
}

/// Messages for an attempt the peer has committed must hit its kept
/// finished session (or the recorded-PID check): nothing spawns, and the
/// peer answers exactly as it always has — silence for a vote or commit,
/// `Committed` for a client's update.
#[test]
fn replays_for_a_committed_attempt_spawn_nothing() {
    let config = fault_free(vec![pids("v", 2)]);
    let client = NodeId(config.replication_factor as usize);
    // Posts `message` to peer 0 and returns the `(from, to)` of every
    // delivery that follows, until the simulation is quiescent again.
    let replay = |sim: &mut Sim<'_>, from: NodeId, message: VhMsg| -> Vec<(NodeId, NodeId)> {
        sim.enable_trace(64);
        sim.post(from, NodeId(0), message);
        sim.run();
        let events = sim.trace().expect("just enabled").events();
        events
            .iter()
            .filter_map(|event| match event.kind {
                TraceKind::Delivered { from, to } => Some((from, to)),
                _ => None,
            })
            .collect()
    };
    step_through(
        &config,
        |_| {},
        |sim| {
            assert!(every_update_confirmed(sim));
            let attempt = *peer(sim, 0).committed().first().expect("two commits");
            let observe = |sim: &Sim<'_>| {
                let peer = peer(sim, 0);
                (
                    peer.metrics().spawns,
                    peer.tracked_attempts(),
                    peer.in_flight_attempts(),
                    peer.history().to_vec(),
                )
            };
            let before = observe(sim);
            assert_eq!(before.2, 0, "quiescent");
            // Peer 1's vote and commit were counted (sender-level
            // dedup); the client never sent either, so its copies reach
            // the finished session.
            for from in [NodeId(1), client] {
                for message in [VhMsg::Vote(attempt), VhMsg::Commit(attempt)] {
                    let deliveries = replay(sim, from, message.clone());
                    assert_eq!(deliveries, [(from, NodeId(0))], "{message:?} from {from}");
                }
            }
            // The same attempt again, and a retry of the recorded PID.
            let retry = AttemptId {
                attempt: attempt.attempt + 1,
                ..attempt
            };
            for a in [attempt, retry] {
                let deliveries = replay(sim, client, VhMsg::ClientUpdate(a));
                assert_eq!(deliveries, [(client, NodeId(0)), (NodeId(0), client)]);
            }
            assert_eq!(observe(sim), before);
        },
    );
}

/// `storage_commit`'s shape: 4 clients × 500 updates, fault-free. Every
/// finished attempt stays tracked (replay protection), while what the
/// per-message paths walk — the unfinished attempts — stays a small
/// multiple of the client count however long the history gets.
#[test]
fn in_flight_attempts_do_not_grow_with_the_history() {
    const CLIENTS: usize = 4;
    const UPDATES: usize = 500;
    let config = fault_free(
        (0..CLIENTS)
            .map(|c| pids(&format!("c{c}-"), UPDATES))
            .collect(),
    );
    let mut most_in_flight = 0;
    step_through(
        &config,
        |sim| {
            for peer in peers(sim) {
                most_in_flight = most_in_flight.max(peer.in_flight_attempts());
            }
        },
        |sim| {
            assert!(every_update_confirmed(sim));
            for peer in peers(sim) {
                assert_eq!(peer.history().len(), CLIENTS * UPDATES);
                assert_eq!(peer.in_flight_attempts(), 0);
                assert!(peer.tracked_attempts() >= CLIENTS * UPDATES);
                assert_eq!(peer.tracked_attempts(), peer.committed().len());
                assert_eq!(peer.runtime().len(), peer.tracked_attempts());
            }
        },
    );
    assert!(
        (1..=3 * CLIENTS).contains(&most_in_flight),
        "{most_in_flight} attempts in flight on one peer with {CLIENTS} clients"
    );
}
