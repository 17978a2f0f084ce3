//! Tests of the peer's bookkeeping: the ledger and the journaled
//! checkpoint stay exact, a crash loses no commit and a peer without
//! checkpoints restarts empty, replay protection still holds, what a
//! peer keeps and what the simulator steps through per commit do not
//! grow with the history, and the message schedule is the one the
//! five-collection peer (`reference.rs`) produced.

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

/// `true` when the runtime holds exactly the sessions of the attempts in
/// flight, all unfinished, no attempt is in two of the ledger's places,
/// and the finished log is exact: every history PID found at its own
/// position, none twice, and every later attempt in `more` one of a
/// recorded PID other than its first (`Ledger::is_exact`).
fn ledger_is_exact(peer: &CommitPeer<'_>) -> bool {
    let mut in_flight = peer.ledger.in_flight();
    in_flight.len() == peer.runtime.len()
        && in_flight.all(|(_, s)| peer.runtime.is_live(s) && !peer.runtime.is_finished(s))
        && peer.ledger.is_exact()
}

/// The checkpoint brought up to date from the journal must be a copy of
/// the live unfinished attempts, and the ledger consistent with the
/// runtime — after every event, not only where `write_checkpoint`'s
/// `debug_assert`s look.
fn assert_exact(peer: &CommitPeer<'_>, context: &str) {
    assert!(ledger_is_exact(peer), "{context}: the ledger drifted");
    match &peer.checkpoint {
        Some(checkpoint) => {
            let mut durable = checkpoint.unfinished.clone();
            durable.catch_up(peer.ledger.unfinished(), &peer.journal);
            assert!(
                durable == *peer.ledger.unfinished(),
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
/// writes — its unfinished attempts hold changes no checkpoint has —
/// and again once it has recovered and written checkpoints through the
/// journal, so the second recovery reads a journal-maintained
/// checkpoint. Each restart keeps the history and the finished set the
/// crash found: they are written through.
#[test]
fn journaled_checkpoint_and_indexes_stay_exact_through_two_crashes() {
    const CRASHING: NodeId = NodeId(3);
    const COMMITS_BETWEEN_CRASHES: usize = 4;
    for seed in [0xC0FFEE, 2007] {
        let config = HarnessConfig {
            crashes: Vec::new(),
            ..chaos(seed)
        };
        let mut crashes = 0;
        // History length the next crash waits for.
        let mut crash_from = COMMITS_BETWEEN_CRASHES;
        // What the victim had recorded and finished when it went down.
        let mut logs = (Vec::new(), BTreeSet::new());
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
                    assert!(
                        (&logs.0[..], &logs.1) == (victim.history(), &victim.committed()),
                        "seed {seed}: a restart keeps the written-through logs"
                    );
                }
                was_down = down;
                let history = victim.history().len();
                let behind = victim.checkpoint.as_ref().is_some_and(|c| !victim.holds(c));
                if crashes < 2 && !down && history >= crash_from && behind {
                    crashes += 1;
                    crash_from = history + COMMITS_BETWEEN_CRASHES;
                    logs = (victim.history().to_vec(), victim.committed());
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

/// Posts `message` from `from` to peer 0 and returns the `(from, to)` of
/// every delivery that follows, until the simulation is quiescent again.
fn replay(sim: &mut Sim<'_>, from: NodeId, message: VhMsg) -> Vec<(NodeId, NodeId)> {
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
}

/// Messages for an attempt the peer has committed must find it in the
/// finished set (or hit the recorded-PID check): nothing spawns, and the
/// peer answers exactly as it did while the finished session was kept to
/// absorb them — silence for a vote or commit, `Committed` for a
/// client's update.
#[test]
fn replays_for_a_committed_attempt_spawn_nothing() {
    let config = fault_free(vec![pids("v", 2)]);
    let client = NodeId(config.replication_factor as usize);
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

/// A later attempt of a recorded PID can finish too: peer 0, quiescent
/// after its client's update committed, is sent the other peers' votes
/// and commits for attempt 1 of that PID. The history keeps the PID once,
/// both attempts are finished, a late vote or commit for either spawns
/// nothing, and the client's update is answered `Committed` at once.
#[test]
fn a_second_finished_attempt_of_a_recorded_pid_is_kept_apart() {
    let config = fault_free(vec![pids("twice", 1)]);
    let client = NodeId(config.replication_factor as usize);
    step_through(
        &config,
        |_| {},
        |sim| {
            assert!(every_update_confirmed(sim));
            let first = *peer(sim, 0).committed().first().expect("one commit");
            let second = AttemptId {
                attempt: first.attempt + 1,
                ..first
            };
            for message in [VhMsg::Vote(second), VhMsg::Commit(second)] {
                for from in 1..config.replication_factor as usize {
                    sim.post(NodeId(from), NodeId(0), message.clone());
                }
            }
            sim.run();
            let spawns = |sim: &Sim<'_>| peer(sim, 0).metrics().spawns;
            let before = spawns(sim);
            let peer0 = peer(sim, 0);
            assert!(ledger_is_exact(peer0));
            assert_eq!(peer0.history(), [first.pid], "the PID is recorded once");
            assert_eq!(peer0.committed(), BTreeSet::from([first, second]));
            assert_eq!(peer0.in_flight_attempts(), 0);
            for a in [first, second] {
                for message in [VhMsg::Vote(a), VhMsg::Commit(a)] {
                    let deliveries = replay(sim, client, message.clone());
                    assert_eq!(deliveries, [(client, NodeId(0))], "{message:?}");
                }
            }
            let third = AttemptId {
                attempt: second.attempt + 1,
                ..second
            };
            for a in [first, second, third] {
                let deliveries = replay(sim, client, VhMsg::ClientUpdate(a));
                assert_eq!(deliveries, [(client, NodeId(0)), (NodeId(0), client)]);
            }
            assert_eq!(spawns(sim), before, "nothing spawned");
        },
    );
}

/// `storage_commit`'s shape: 4 clients × 500 updates, fault-free. The
/// runtime holds the sessions of the attempts in flight and nothing
/// else, after every event: at most a small multiple of the client
/// count however long the history gets, none at quiescence — when every
/// attempt the peer has heard of is in its finished set or was dropped.
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
                assert_eq!(peer.runtime().len(), peer.in_flight_attempts());
                most_in_flight = most_in_flight.max(peer.in_flight_attempts());
            }
        },
        |sim| {
            assert!(every_update_confirmed(sim));
            for peer in peers(sim) {
                assert!(ledger_is_exact(peer));
                assert_eq!(peer.history().len(), CLIENTS * UPDATES);
                assert_eq!(peer.in_flight_attempts(), 0);
                assert!(peer.runtime().is_empty());
                assert_eq!(peer.committed().len(), CLIENTS * UPDATES);
                assert_eq!(peer.gc_stats().finished, (CLIENTS * UPDATES) as u64);
                // A late vote can start a dropped attempt again, to be
                // dropped a second time or to finish after all.
                let dropped = peer.tracked_attempts() - peer.committed().len();
                assert!(peer.gc_stats().aborted >= dropped as u64);
                assert!(
                    dropped <= CLIENTS * UPDATES / 20,
                    "{dropped} attempts dropped: fault-free, a retry is the exception"
                );
            }
        },
    );
    assert!(
        (1..=3 * CLIENTS).contains(&most_in_flight),
        "{most_in_flight} attempts in flight on one peer with {CLIENTS} clients"
    );
}

/// Counts, not timings: what the simulator has to step through for one
/// commit is the same after 2 000 commits as after 200. Before the
/// endpoint kept a single wake-up chain every superseded wake-up bred a
/// chain of its own, one more per commit, and the ten-times-longer run
/// paid 103 timer events per commit, nearly all of them for nothing.
#[test]
fn events_per_commit_do_not_grow_with_the_history() {
    const CLIENTS: usize = 4;
    let per_commit = |updates: usize| {
        let config = fault_free(
            (0..CLIENTS)
                .map(|c| pids(&format!("c{c}-"), updates))
                .collect(),
        );
        let report = run_harness(&config);
        assert!(report.all_committed && !report.stats.budget_exhausted);
        let commits = (CLIENTS * updates) as f64;
        let attempts = commits as u64 + u64::from(report.total_retries());
        let wakes = report.client_wakes;
        assert!(
            wakes.expired_nothing <= 3 * attempts,
            "{updates} updates a client: {wakes:?} for {attempts} attempts"
        );
        assert!(wakes.superseded <= wakes.fired && wakes.fired <= report.stats.timers);
        let timers = report.stats.timers as f64 / commits;
        assert!(timers <= 10.0, "{timers} timer events per commit");
        report.stats.steps as f64 / commits
    };
    let (short, long) = (per_commit(50), per_commit(500));
    assert!(
        (long / short - 1.0).abs() <= 0.05,
        "{short} steps per commit over 200 commits, {long} over 2 000"
    );
}

/// FNV-1a over everything the message schedule of a run decides: when it
/// ended, what the network did, what every client saw and what every
/// peer recorded.
fn schedule_fingerprint(report: &HarnessReport) -> u64 {
    let mut hash = stategen_core::Fnv64::new();
    let stats = &report.stats;
    for w in [
        report.end_time,
        stats.delivered,
        stats.dropped,
        stats.duplicated,
    ] {
        hash.u64(w);
    }
    for outcome in report.outcomes.iter().flatten() {
        hash.u64(outcome.latency);
        hash.u64(u64::from(outcome.attempts));
        hash.u64(u64::from(outcome.committed));
    }
    for history in &report.histories {
        hash.u64(history.len() as u64);
        for pid in history {
            for chunk in pid.0 .0.chunks(4) {
                let word = u32::from_le_bytes(chunk.try_into().expect("20 = 5 x 4"));
                hash.u64(u64::from(word));
            }
        }
    }
    hash.finish()
}

/// The fault mix of `tests/chaos.rs` on longer scripts: loss,
/// duplication, reordering, random contact order and peer 3 crashed and
/// restarted from its checkpoint.
fn chaos(seed: u64) -> HarnessConfig {
    HarnessConfig {
        client_updates: vec![pids("chaos-a", 20), pids("chaos-b", 20)],
        ordering: ServerOrdering::Random,
        checkpoint_every: 500,
        crashes: vec![(3, 5_000, 20_000)],
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
    }
}

/// The message schedule is part of the contract: these fingerprints were
/// taken on the commit *before* the endpoint kept one wake-up chain and
/// the peer one in-flight table (PR 23), over this very word stream, so
/// a bookkeeping change that moves one delivery by one position fails
/// here, not in a benchmark diff. Fault-free runs still retry (four
/// clients split the vote); the chaos runs lose, duplicate and reorder
/// messages and recover peer 3 from its checkpoint.
#[test]
fn message_schedule_is_the_pinned_one() {
    for (seed, pinned) in [
        (1, 0x5fe2_8012_3634_35fa_u64),
        (2, 0x4791_34d1_aec3_5fa2),
        (3, 0xd4ef_8f8a_7908_0785),
    ] {
        let mut config = fault_free((0..4).map(|c| pids(&format!("c{c}-"), 50)).collect());
        config.net.seed = seed;
        let report = run_harness(&config);
        assert!(report.all_committed && report.total_retries() > 0);
        assert_eq!(
            schedule_fingerprint(&report),
            pinned,
            "fault-free, net seed {seed}"
        );
    }
    for (seed, pinned) in [
        (0xC0FFEE, 0xa7a1_4bad_64cf_4673_u64),
        (2007, 0x2a3f_c56e_a9a8_d5f1),
        (7, 0x8748_dbfb_0cad_8468),
    ] {
        let report = run_harness(&chaos(seed));
        assert!(report.all_committed && report.stats.restarts == 1);
        assert_eq!(
            schedule_fingerprint(&report),
            pinned,
            "chaos, net seed {seed}"
        );
    }
}

/// A peer set member or a client, for a harness whose peers may be the
/// reference implementation: the wiring `harness_simulation` does, over
/// any peer type.
enum Node<P> {
    Peer(P),
    Client(Box<ClientEndpoint>),
}

impl<P: SimNode<VhMsg>> SimNode<VhMsg> for Node<P> {
    fn on_start(&mut self, ctx: &mut Context<'_, VhMsg>) {
        match self {
            Node::Peer(p) => p.on_start(ctx),
            Node::Client(c) => c.on_start(ctx),
        }
    }

    fn on_message(&mut self, ctx: &mut Context<'_, VhMsg>, from: NodeId, message: VhMsg) {
        match self {
            Node::Peer(p) => p.on_message(ctx, from, message),
            Node::Client(c) => c.on_message(ctx, from, message),
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, VhMsg>, tag: u64) {
        match self {
            Node::Peer(p) => p.on_timer(ctx, tag),
            Node::Client(c) => c.on_timer(ctx, tag),
        }
    }

    fn on_restart(&mut self, ctx: &mut Context<'_, VhMsg>) {
        match self {
            Node::Peer(p) => p.on_restart(ctx),
            Node::Client(c) => c.on_restart(ctx),
        }
    }
}

/// What the differential test compares of a peer, beside the trace.
#[derive(Debug, PartialEq, Eq)]
struct PeerView {
    history: Vec<Pid>,
    committed: BTreeSet<AttemptId>,
    spawns: u64,
    aborted: u64,
}

/// Everything observable of one run: the simulator's trace (every
/// delivery, loss, duplicate, hold-back, crash, restart and timer, with
/// its tick), its counters and end time, and each peer's view.
#[derive(Debug, PartialEq, Eq)]
struct Run {
    trace: Vec<asa_simnet::TraceEvent>,
    stats: SimStats,
    end_time: SimTime,
    peers: Vec<PeerView>,
}

/// Runs `config` with peers built by `new_peer` and viewed by `view`.
fn run_with<'m, P: SimNode<VhMsg>>(
    config: &HarnessConfig,
    engine: &'m PeerEngine,
    new_peer: impl Fn(&'m PeerEngine, usize, PeerBehaviour, SimTime, SimTime) -> P,
    view: impl FnMut(&P) -> PeerView,
) -> Run {
    let mut sim = simulation_with(config, engine, new_peer);
    for &(node, crash_at, restart_at) in &config.crashes {
        sim.schedule_crash(NodeId(node as usize), crash_at);
        sim.schedule_restart(NodeId(node as usize), restart_at);
    }
    sim.run_until(config.deadline);
    finish_run(&sim, view)
}

/// `config`'s peer set, built by `new_peer`, and clients, traced and not
/// started, without the fault schedule.
fn simulation_with<'m, P: SimNode<VhMsg>>(
    config: &HarnessConfig,
    engine: &'m PeerEngine,
    new_peer: impl Fn(&'m PeerEngine, usize, PeerBehaviour, SimTime, SimTime) -> P,
) -> Simulation<VhMsg, Node<P>> {
    let r = config.replication_factor as usize;
    let mut nodes = Vec::new();
    for i in 0..r {
        let behaviour = config.behaviours.get(i).copied().unwrap_or_default();
        nodes.push(Node::Peer(new_peer(
            engine,
            r,
            behaviour,
            config.peer_gc,
            config.checkpoint_every,
        )));
    }
    for (client, updates) in config.client_updates.iter().enumerate() {
        nodes.push(Node::Client(Box::new(ClientEndpoint::new(
            client as u32,
            r,
            (config.replication_factor - 1) / 3,
            updates.clone(),
            config.retry,
            config.ordering,
            config.timeout,
            config.contact_stagger,
            config.max_attempts,
        ))));
    }
    let mut sim = Simulation::new(config.net.clone(), nodes);
    sim.enable_trace(1 << 20);
    sim
}

/// What a finished run of `sim` observed, its peers seen through `view`.
fn finish_run<P: SimNode<VhMsg>>(
    sim: &Simulation<VhMsg, Node<P>>,
    mut view: impl FnMut(&P) -> PeerView,
) -> Run {
    let stats = sim.stats();
    let trace = sim.trace().expect("enabled on construction");
    assert!(!trace.is_truncated() && !stats.budget_exhausted);
    Run {
        trace: trace.events().to_vec(),
        stats,
        end_time: sim.now(),
        peers: sim
            .nodes()
            .iter()
            .filter_map(|node| match node {
                Node::Peer(peer) => Some(view(peer)),
                Node::Client(_) => None,
            })
            .collect(),
    }
}

/// A random fault mix: loss, duplication, reordering, a peer crashed and
/// restarted (with or without checkpoints to recover from), sometimes an
/// equivocator, sometimes a GC budget short enough that stalled attempts
/// are dropped while votes for them are still in flight.
fn random_chaos(seed: u64) -> HarnessConfig {
    let mut rng = asa_simnet::SimRng::new(seed);
    let r = *rng.pick(&[4u32, 4, 7]);
    let clients = rng.range_inclusive(1, 3) as usize;
    let updates = rng.range_inclusive(2, 6) as usize;
    let mut behaviours = vec![PeerBehaviour::Correct; r as usize];
    if rng.chance(0.5) {
        behaviours[rng.below(u64::from(r)) as usize] = PeerBehaviour::Equivocator;
    }
    let crash_at = rng.range_inclusive(50, 3_000);
    HarnessConfig {
        replication_factor: r,
        behaviours,
        client_updates: (0..clients)
            .map(|c| pids(&format!("s{seed}-c{c}-"), updates))
            .collect(),
        ordering: *rng.pick(&[ServerOrdering::Fixed, ServerOrdering::Random]),
        timeout: *rng.pick(&[300, 1_000]),
        contact_stagger: rng.below(4),
        peer_gc: *rng.pick(&[150, 600, 4_000]),
        max_attempts: 30,
        checkpoint_every: *rng.pick(&[0, 200, 500]),
        crashes: vec![(
            rng.below(u64::from(r)) as u32,
            crash_at,
            crash_at + rng.range_inclusive(50, 2_000),
        )],
        net: SimConfig {
            seed,
            min_delay: 1,
            max_delay: rng.range_inclusive(5, 40),
            drop_probability: rng.below(10) as f64 / 100.0,
            duplicate_probability: rng.below(20) as f64 / 100.0,
            reorder_probability: rng.below(30) as f64 / 100.0,
            reorder_bound: rng.range_inclusive(1, 80),
            ..SimConfig::default()
        },
        deadline: 400_000,
        ..HarnessConfig::default()
    }
}

/// The table peer against the five-collection peer it replaced
/// (`reference.rs`), on random fault mixes: the same trace event for
/// event, the same histories and finished sets, as many sessions spawned
/// and as many abandoned — and the sweep must have exercised what sets
/// the two apart: recoveries, dropped attempts, and dropped attempts a
/// late message started again.
#[test]
fn table_peer_matches_the_reference_peer_on_random_chaos() {
    let (mut restarts, mut aborted, mut respawned, mut equivocated) = (0, 0, 0, 0);
    for seed in 0..48 {
        let config = random_chaos(seed);
        let commit_config = CommitConfig::new(config.replication_factor).expect("valid factor");
        let engine = PeerEngine::new(&commit_config);
        let table = run_with(&config, &engine, CommitPeer::new, |peer| {
            assert!(ledger_is_exact(peer), "seed {seed}");
            if peer.metrics().spawns > peer.tracked_attempts() as u64 {
                respawned += 1;
            }
            PeerView {
                history: peer.history().to_vec(),
                committed: peer.committed(),
                spawns: peer.metrics().spawns,
                aborted: peer.gc_stats().aborted,
            }
        });
        let reference = run_with(&config, &engine, reference::ReferencePeer::new, |peer| {
            PeerView {
                history: peer.history().to_vec(),
                committed: peer.committed().clone(),
                spawns: peer.metrics().spawns,
                aborted: peer.metrics().releases_aborted,
            }
        });
        assert!(table == reference, "seed {seed}: {config:?}");
        restarts += table.stats.restarts;
        aborted += table.peers.iter().map(|peer| peer.aborted).sum::<u64>();
        equivocated += u64::from(config.behaviours.contains(&PeerBehaviour::Equivocator));
    }
    assert!(
        restarts >= 40 && aborted >= 100 && respawned >= 10 && equivocated >= 10,
        "{restarts} restarts, {aborted} attempts dropped, {respawned} peers respawned one, \\
         {equivocated} runs with an equivocator"
    );
}

/// [`run_with`] on a run that quiesces, with `victim` crashed right
/// after the simulator's `crash_after`-th step — a point inside a tick
/// no fault schedule can name — and restarted 300 ticks later. The
/// restart must find the history and the finished set the crash left.
fn run_crashing<'m, P: SimNode<VhMsg>>(
    config: &HarnessConfig,
    engine: &'m PeerEngine,
    new_peer: impl Fn(&'m PeerEngine, usize, PeerBehaviour, SimTime, SimTime) -> P,
    mut view: impl FnMut(&P) -> PeerView,
    victim: NodeId,
    crash_after: u64,
) -> Run {
    let mut sim = simulation_with(config, engine, new_peer);
    let mut view_victim = |sim: &Simulation<VhMsg, Node<P>>| match sim.node(victim) {
        Node::Peer(peer) => view(peer),
        Node::Client(_) => panic!("{victim} is a client"),
    };
    let mut at_crash = None;
    while sim.step() {
        assert!(sim.now() <= config.deadline, "run did not quiesce");
        if sim.stats().steps == crash_after {
            at_crash = Some(view_victim(&sim));
            sim.crash(victim);
            sim.schedule_restart(victim, sim.now() + 300);
        } else if sim.stats().restarts == 1 {
            if let Some(before) = at_crash.take() {
                let after = view_victim(&sim);
                assert_eq!(
                    (after.history, after.committed),
                    (before.history, before.committed),
                    "a restart keeps the history and the finished set"
                );
            }
        }
    }
    assert!(at_crash.is_none() && sim.stats().restarts == 1);
    finish_run(&sim, view)
}

/// Where to crash `victim` around its `commit`-th commit, in the steps
/// of `config`'s run without crashes: right after the step whose
/// handler finished the attempt and wrote the checkpoint, and right
/// before the step that next delivers a message to it.
fn crash_points(
    config: &HarnessConfig,
    engine: &PeerEngine,
    victim: NodeId,
    commit: usize,
) -> [u64; 2] {
    let mut sim = simulation_with(config, engine, CommitPeer::new);
    let mut written = None;
    let mut traced = 0;
    while sim.step() {
        let steps = sim.stats().steps;
        let events = sim.trace().expect("traced").events();
        let delivered = events[traced..]
            .iter()
            .any(|event| matches!(event.kind, TraceKind::Delivered { to, .. } if to == victim));
        traced = events.len();
        let Node::Peer(peer) = sim.node(victim) else {
            panic!("{victim} is a client");
        };
        match written {
            None if peer.committed().len() == commit => written = Some(steps),
            Some(at) if delivered => return [at, steps - 1],
            _ => {}
        }
    }
    panic!("{victim} never committed {commit} attempts and heard again");
}

/// A crash right after a commit's synchronous write, and one right
/// before the next message reaches the peer, on the chaos mix: the
/// table peer — whose checkpoint holds the unfinished attempts only,
/// its finished set and history written through — recovers exactly as
/// the reference peer, whose checkpoint keeps full copies of both, event
/// for event.
#[test]
fn a_crash_around_a_commit_write_recovers_as_the_reference_peer() {
    const VICTIM: NodeId = NodeId(3);
    let mut apart = 0;
    for seed in [0xC0FFEE, 2007, 7] {
        let config = HarnessConfig {
            crashes: Vec::new(),
            ..chaos(seed)
        };
        let engine = PeerEngine::new(&CommitConfig::new(config.replication_factor).expect("r"));
        for commit in [3, 12] {
            let points = crash_points(&config, &engine, VICTIM, commit);
            apart += usize::from(points[0] != points[1]);
            for crash_after in points {
                let view = |peer: &CommitPeer<'_>| PeerView {
                    history: peer.history().to_vec(),
                    committed: peer.committed(),
                    spawns: peer.metrics().spawns,
                    aborted: peer.gc_stats().aborted,
                };
                let table =
                    run_crashing(&config, &engine, CommitPeer::new, view, VICTIM, crash_after);
                let reference = run_crashing(
                    &config,
                    &engine,
                    reference::ReferencePeer::new,
                    |peer| PeerView {
                        history: peer.history().to_vec(),
                        committed: peer.committed().clone(),
                        spawns: peer.metrics().spawns,
                        aborted: peer.metrics().releases_aborted,
                    },
                    VICTIM,
                    crash_after,
                );
                assert!(
                    table == reference,
                    "seed {seed}, commit {commit}, crash after step {crash_after}"
                );
            }
        }
    }
    assert!(apart >= 4, "only {apart} of 6 pairs of crash points differ");
}

/// With checkpointing disabled a peer has no durable store: it restarts
/// with an empty history and finished set and nothing in flight, however
/// much it had committed.
#[test]
fn a_peer_without_checkpoints_restarts_empty() {
    const CRASHING: NodeId = NodeId(3);
    for seed in [0xC0FFEE, 2007] {
        let config = HarnessConfig {
            checkpoint_every: 0,
            ..chaos(seed)
        };
        let (mut had, mut restarted, mut was_down) = (0, false, false);
        step_through(
            &config,
            |sim| {
                let down = sim.is_crashed(CRASHING);
                let victim = peer(sim, CRASHING.0);
                if was_down && !down {
                    assert!(victim.checkpoint.is_none() && victim.journal.is_empty());
                    assert!(victim.history().is_empty());
                    assert!(victim.committed().is_empty() && victim.tracked_attempts() == 0);
                    assert!(victim.runtime().is_empty());
                    restarted = true;
                } else if !down && !restarted {
                    had = victim.history().len();
                }
                was_down = down;
            },
            |_| {},
        );
        assert!(restarted && had > 0, "seed {seed}: {had} commits lost");
    }
}

/// GC tags are a ring from `base`: a tag below it (its timer fired), a
/// tag a restart forgot while its timer was still armed, and a tag never
/// issued all find nothing, and tags keep counting across a restart, so
/// none is issued twice.
#[test]
fn gc_tags_below_the_ring_or_from_before_a_restart_are_ignored() {
    let attempts: Vec<AttemptId> = (0..4)
        .map(|attempt| AttemptId {
            pid: Pid::of(b"gc"),
            client: 0,
            attempt,
        })
        .collect();
    let mut tags = GcTags::default();
    let issued: Vec<u64> = attempts[..3].iter().map(|&a| tags.arm(a)).collect();
    assert_eq!(issued, [0, 1, 2]);
    // Out of order, tag 1 leaves its slot empty: the ring keeps it until
    // tag 0 fires.
    assert_eq!(tags.fire(1), Some(attempts[1]));
    assert_eq!(tags.fire(1), None);
    assert_eq!((tags.base, tags.ring.len()), (0, 3));
    assert_eq!(tags.fire(0), Some(attempts[0]));
    assert_eq!((tags.base, tags.ring.len()), (2, 1));
    for below in [0, 1] {
        assert_eq!(tags.fire(below), None, "tag {below} is below the ring");
    }
    // `on_restart` forgets tag 2 while its timer is armed.
    tags.clear();
    assert_eq!(tags.fire(2), None, "forgotten by the restart");
    assert_eq!(tags.arm(attempts[3]), 3);
    assert_eq!(tags.fire(TAG_PEER_CHECKPOINT - 1), None, "never issued");
    assert_eq!(tags.fire(3), Some(attempts[3]));
    assert!(tags.ring.is_empty() && tags.base == 4);
}
