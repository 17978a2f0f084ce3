//! `storage_commit` and `storage_chaos`: the end-to-end commit path of
//! the ASA version-history service on generated machines — clients,
//! simulated network, peers serving attempts from a `Runtime`.
//!
//! `storage_commit` is fault-free with histories long enough (2 000
//! commits a run) that throughput is not a start-up artefact; it
//! isolates simnet + peer runtime + version service. `storage_chaos`
//! puts the same stack under loss, duplication, reordering and a peer
//! crash/restart, so retries, back-off timers and checkpoint recovery
//! do the work: a fast-path win that slows recovery shows here.
//!
//! The injected message delay is 1–10 virtual ticks. Wall-clock metrics
//! say what the simulation costs to run; the virtual-tick metrics say
//! what a client would wait, repeat exactly for a seed, and move only
//! when protocol behaviour changes.
//!
//! Throughput is timed around `run_harness` as a whole. Latency is the
//! time a peer takes to serve one protocol message, which `run_harness`
//! does not show: every repetition therefore runs its first network seed
//! a second time on `timed_harness`, the same wiring with a clock
//! around each node handler, and checks that it reproduces the first run
//! exactly. A traced run does that for every network seed.

use std::collections::BTreeSet;
use std::time::Instant;

use asa_simnet::{Context, NodeId, SimConfig, SimNode, SimStats, Simulation};
use asa_storage::{
    run_harness, ClientEndpoint, CommitPeer, HarnessConfig, HarnessReport, PeerEngine, Pid,
    RetryScheme, ServerOrdering, UpdateOutcome, VhMsg, VhNode,
};
use stategen_commit::CommitConfig;

use super::{measure, repeated_setup, Outcome, RunArgs, MIN_REPS};
use crate::alloc::{count_allocs, peak_rss_mib};
use crate::gen::{net_seeds, update_name, Fnv};
use crate::stats::{median, quantile_sorted, summarize};
use crate::trace::{CallAgg, Tracer};

/// One storage workload.
#[derive(Debug)]
pub struct Mix {
    /// Workload name.
    pub name: &'static str,
    /// Client endpoints submitting concurrently.
    pub clients: usize,
    /// Updates per client (commits per run = clients × this).
    pub updates: usize,
    /// Independent harness runs (network seeds) per repetition.
    pub runs: u64,
    /// Inject faults.
    pub chaos: bool,
}

/// Fault-free, long histories.
pub const COMMIT: Mix = Mix {
    name: "storage_commit",
    clients: 4,
    updates: 500,
    runs: 8,
    chaos: false,
};

/// Loss, duplication, reordering, one crash/restart.
pub const CHAOS: Mix = Mix {
    name: "storage_chaos",
    clients: 4,
    updates: 100,
    runs: 16,
    chaos: true,
};

/// Replication factor (f = 1).
const R: u32 = 4;

fn config(mix: &Mix, seed: u64, net_seed: u64) -> HarnessConfig {
    let client_updates = (0..mix.clients)
        .map(|c| {
            (0..mix.updates)
                .map(|u| Pid::of(update_name(seed, c, u).as_bytes()))
                .collect()
        })
        .collect();
    let net = SimConfig {
        seed: net_seed,
        min_delay: 1,
        max_delay: 10,
        ..SimConfig::default()
    };
    let base = HarnessConfig {
        replication_factor: R,
        client_updates,
        retry: RetryScheme::Exponential {
            base: 200,
            max: 5_000,
        },
        deadline: 50_000_000,
        ..HarnessConfig::default()
    };
    if !mix.chaos {
        return HarnessConfig { net, ..base };
    }
    HarnessConfig {
        ordering: ServerOrdering::Random,
        checkpoint_every: 500,
        crashes: vec![(3, 20_000, 60_000)],
        net: SimConfig {
            drop_probability: 0.05,
            duplicate_probability: 0.05,
            reorder_probability: 0.2,
            reorder_bound: 50,
            ..net
        },
        ..base
    }
}

/// What one harness run must satisfy. Fault-free: everything confirmed
/// and the correct peers agree on the committed set. Under faults the
/// chaos suite's core invariants: everything confirmed, no correct
/// history holds a duplicate or a version nobody submitted, and every
/// submitted version is held by at least f + 1 correct peers.
fn check_run(
    mix: &Mix,
    config: &HarnessConfig,
    report: &HarnessReport,
    net_seed: u64,
    out: &mut Outcome,
) {
    let name = mix.name;
    out.check(report.all_committed, || {
        format!("{name} net seed {net_seed}: not every update was confirmed")
    });
    if !mix.chaos {
        out.check(report.sets_agree(), || {
            format!("{name} net seed {net_seed}: correct peers disagree on the committed set")
        });
        return;
    }
    let legal: BTreeSet<Pid> = config.client_updates.iter().flatten().copied().collect();
    let correct = report.correct_histories();
    for (peer, history) in correct.iter().enumerate() {
        let unique: BTreeSet<&Pid> = history.iter().collect();
        out.check(unique.len() == history.len(), || {
            format!("{name} net seed {net_seed}: peer {peer} recorded a version twice")
        });
        out.check(history.iter().all(|pid| legal.contains(pid)), || {
            format!("{name} net seed {net_seed}: peer {peer} recorded a version nobody submitted")
        });
    }
    let held: Vec<BTreeSet<&Pid>> = correct.iter().map(|h| h.iter().collect()).collect();
    let under_replicated = legal
        .iter()
        .filter(|pid| held.iter().filter(|h| h.contains(pid)).count() < 2)
        .count();
    out.check(under_replicated == 0, || {
        format!("{name} net seed {net_seed}: {under_replicated} versions held by fewer than f + 1 correct peers")
    });
}

/// Exact, virtual-time outputs of one repetition.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
struct Virtual {
    commits: u64,
    retries: u64,
    delivered: u64,
    peer_deliveries: u64,
    peer_spawns: u64,
    peer_releases: u64,
    end_ticks: u64,
    crashes: u64,
    restarts: u64,
    /// Client-observed commit latencies, ascending.
    latencies: Vec<u64>,
    /// Latencies of the commits that needed more than one attempt.
    recoveries: Vec<u64>,
    hash: Fnv,
}

impl Virtual {
    fn add(&mut self, report: &HarnessReport) {
        let confirmed = report.outcomes.iter().flatten().filter(|o| o.committed);
        for o in confirmed {
            self.commits += 1;
            self.latencies.push(o.latency);
            if o.attempts > 1 {
                self.recoveries.push(o.latency);
            }
        }
        self.retries += u64::from(report.total_retries());
        self.delivered += report.stats.delivered;
        let peers = &report.peer_metrics;
        self.peer_deliveries += peers.deliveries;
        self.peer_spawns += peers.spawns;
        self.peer_releases += peers.releases_finished + peers.releases_aborted;
        self.end_ticks += report.end_time;
        self.crashes += report.stats.crashes;
        self.restarts += report.stats.restarts;
        for w in [report.end_time, report.stats.delivered, report.stats.steps] {
            self.hash.word(w);
        }
    }

    fn finish(mut self) -> Self {
        self.latencies.sort_unstable();
        self.recoveries.sort_unstable();
        self
    }
}

/// A `SimNode` wrapper that times every handler of the node inside it:
/// the traced run's layer boundary between simnet and the storage nodes.
struct Timed<N> {
    inner: N,
    is_peer: bool,
    on_message: CallAgg,
    on_timer: CallAgg,
    on_restart: CallAgg,
    /// Peer `on_message` durations in call order (history-growth deciles).
    message_ns: Vec<u32>,
}

impl<N> Timed<N> {
    fn new(inner: N, is_peer: bool) -> Self {
        Timed {
            inner,
            is_peer,
            on_message: CallAgg::default(),
            on_timer: CallAgg::default(),
            on_restart: CallAgg::default(),
            message_ns: Vec::new(),
        }
    }
}

fn timed<R>(agg: &mut CallAgg, f: impl FnOnce() -> R) -> (R, u64) {
    let a = Instant::now();
    let r = f();
    let ns = a.elapsed().as_nanos() as u64;
    agg.count += 1;
    agg.busy_ns += ns;
    (r, ns)
}

impl<N: SimNode<VhMsg>> SimNode<VhMsg> for Timed<N> {
    fn on_start(&mut self, ctx: &mut Context<'_, VhMsg>) {
        self.inner.on_start(ctx);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, VhMsg>, from: NodeId, message: VhMsg) {
        let ((), ns) = timed(&mut self.on_message, || {
            self.inner.on_message(ctx, from, message)
        });
        if self.is_peer {
            self.message_ns.push(ns.min(u64::from(u32::MAX)) as u32);
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, VhMsg>, tag: u64) {
        timed(&mut self.on_timer, || self.inner.on_timer(ctx, tag));
    }

    fn on_restart(&mut self, ctx: &mut Context<'_, VhMsg>) {
        timed(&mut self.on_restart, || self.inner.on_restart(ctx));
    }
}

/// What the traced equivalent of `run_harness` hands back.
struct TimedRun {
    stats: SimStats,
    end_time: u64,
    histories: Vec<Vec<Pid>>,
    outcomes: Vec<Vec<UpdateOutcome>>,
    wall_ns: u64,
    peer: [CallAgg; 3],
    client: [CallAgg; 3],
    first_decile_ns: f64,
    last_decile_ns: f64,
    /// Median peer `on_message` duration over every peer of the run.
    peer_message_p50_ns: u64,
    /// Sessions live in the peers' runtimes when the run ended, summed.
    live_sessions: u64,
}

/// `run_harness`'s wiring rebuilt from the same public constructors on
/// `Simulation<VhMsg, Timed<VhNode>>`. Same nodes in the same order on
/// the same seed, so the schedule — and with it `stats` and `end_time` —
/// must come out identical to the untraced run.
fn timed_harness(config: &HarnessConfig, tracer: &mut Tracer, net_seed: u64) -> TimedRun {
    let commit_config =
        CommitConfig::new(config.replication_factor).expect("valid replication factor");
    let engine = PeerEngine::new(&commit_config);
    let r = config.replication_factor as usize;
    let mut nodes: Vec<Timed<VhNode<'_>>> = Vec::new();
    for i in 0..r {
        let behaviour = config.behaviours.get(i).copied().unwrap_or_default();
        let peer = CommitPeer::new(
            &engine,
            r,
            behaviour,
            config.peer_gc,
            config.checkpoint_every,
        );
        nodes.push(Timed::new(VhNode::Peer(Box::new(peer)), true));
    }
    for (ci, updates) in config.client_updates.iter().enumerate() {
        let client = ClientEndpoint::new(
            ci as u32,
            r,
            commit_config.max_faulty(),
            updates.clone(),
            config.retry,
            config.ordering,
            config.timeout,
            config.contact_stagger,
            config.max_attempts,
        );
        nodes.push(Timed::new(VhNode::Client(Box::new(client)), false));
    }
    let mut sim = Simulation::new(config.net.clone(), nodes);
    for &(peer, crash_at, restart_at) in &config.crashes {
        sim.schedule_crash(NodeId(peer as usize), crash_at);
        if restart_at > crash_at {
            sim.schedule_restart(NodeId(peer as usize), restart_at);
        }
    }
    tracer.open("simulation", "simnet", net_seed);
    let start = Instant::now();
    sim.run_until(config.deadline);
    let wall_ns = start.elapsed().as_nanos() as u64;

    let mut run = TimedRun {
        stats: sim.stats(),
        end_time: sim.now(),
        histories: Vec::new(),
        outcomes: Vec::new(),
        wall_ns,
        peer: [CallAgg::default(); 3],
        client: [CallAgg::default(); 3],
        first_decile_ns: 0.0,
        last_decile_ns: 0.0,
        peer_message_p50_ns: 0,
        live_sessions: 0,
    };
    let (mut firsts, mut lasts) = (Vec::new(), Vec::new());
    let mut message_ns: Vec<u64> = Vec::new();
    for node in sim.nodes() {
        let side = if node.is_peer {
            &mut run.peer
        } else {
            &mut run.client
        };
        for (total, agg) in side
            .iter_mut()
            .zip([node.on_message, node.on_timer, node.on_restart])
        {
            total.count += agg.count;
            total.busy_ns += agg.busy_ns;
        }
        match &node.inner {
            VhNode::Peer(p) => {
                run.histories.push(p.history().to_vec());
                run.live_sessions += p.runtime().len() as u64;
                message_ns.extend(node.message_ns.iter().map(|&ns| u64::from(ns)));
                let tenth = node.message_ns.len() / 10;
                if tenth > 0 {
                    let mean =
                        |s: &[u32]| s.iter().map(|&x| f64::from(x)).sum::<f64>() / s.len() as f64;
                    firsts.push(mean(&node.message_ns[..tenth]));
                    lasts.push(mean(&node.message_ns[node.message_ns.len() - tenth..]));
                }
            }
            VhNode::Client(c) => run.outcomes.push(c.outcomes().to_vec()),
        }
    }
    run.first_decile_ns = firsts.iter().sum::<f64>() / firsts.len().max(1) as f64;
    run.last_decile_ns = lasts.iter().sum::<f64>() / lasts.len().max(1) as f64;
    run.peer_message_p50_ns = summarize(&mut message_ns).p50;
    for (names, side) in [
        (
            ["peer.on_message", "peer.on_timer", "peer.on_restart"],
            run.peer,
        ),
        (
            ["client.on_message", "client.on_timer", "client.on_restart"],
            run.client,
        ),
    ] {
        for (name, agg) in names.into_iter().zip(side) {
            tracer.calls(name, agg);
        }
    }
    tracer.close();
    run
}

/// Runs one storage workload.
pub fn run(mix: &Mix, args: &RunArgs, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    // Set-up: the repetition's configurations (PIDs are SHA-1 hashes of
    // the generated update names) and one warm-up run on the first seed.
    let (configs, setup_s) = repeated_setup(|| {
        let configs: Vec<(u64, HarnessConfig)> = net_seeds(args.seed, mix.runs)
            .map(|net_seed| (net_seed, config(mix, args.seed, net_seed)))
            .collect();
        std::hint::black_box(run_harness(&configs[0].1));
        configs
    });
    out.set("setup_s", setup_s);

    let mut first: Option<Virtual> = None;
    let (mut rates, mut handler_us) = (Vec::new(), Vec::new());
    let (mut walls, mut traced_walls) = (Vec::new(), Vec::new());
    let mut layers = Layers::default();
    let mut allocs = 0u64;
    let reps = measure(args.seconds, MIN_REPS, |k| {
        let mut virt = Virtual::default();
        let mut rep_wall = 0.0;
        for (i, (net_seed, config)) in configs.iter().enumerate() {
            tracer.open("harness_run", "benchmark", *net_seed);
            let start = Instant::now();
            let (report, counted) = count_allocs(args.trace, || run_harness(config));
            let wall = start.elapsed();
            tracer.leaf("run_harness", "storage", *net_seed, start, start + wall);
            allocs += counted;
            check_run(mix, config, &report, *net_seed, &mut out);
            let commits = report
                .outcomes
                .iter()
                .flatten()
                .filter(|o| o.committed)
                .count();
            rates.push(commits as f64 / wall.as_secs_f64());
            walls.push(wall.as_secs_f64());
            virt.add(&report);
            rep_wall += wall.as_secs_f64();
            if args.trace || i == 0 {
                let timed = timed_harness(config, tracer, *net_seed);
                out.check(
                    timed.stats == report.stats
                        && timed.end_time == report.end_time
                        && timed.histories == report.histories
                        && timed.outcomes.iter().flatten().map(|o| o.latency).eq(report.outcomes.iter().flatten().map(|o| o.latency)),
                    || {
                        format!(
                            "{} net seed {net_seed}: timed wiring delivered {} messages to tick {}, run_harness {} to tick {}",
                            mix.name, timed.stats.delivered, timed.end_time, report.stats.delivered, report.end_time
                        )
                    },
                );
                handler_us.push(timed.peer_message_p50_ns as f64 / 1e3);
                traced_walls.push(timed.wall_ns as f64 / 1e9);
                rep_wall += timed.wall_ns as f64 / 1e9;
                layers.add(&timed);
            }
            tracer.close();
        }
        let virt = virt.finish();
        match &first {
            None => first = Some(virt),
            Some(f) => out.check(*f == virt, || {
                format!("{}: repetition {k} diverged from the first", mix.name)
            }),
        }
        rep_wall
    });
    let peak_rss_mb = peak_rss_mib();
    let first = first.expect("at least one repetition");
    out.ops(first.commits * reps as u64);
    out.checksum = first.hash.0;

    if !args.trace {
        // One sample per harness run; every repetition covers the same
        // network seeds, so the median is over equal sets of runs.
        out.set_over_reps("ops_per_s", "confirmed commits/s per harness run", &rates);
        out.set_over_reps(
            "call_us_p50",
            "us per peer on_message (median of a run's handler calls)",
            &handler_us,
        );
        out.set("peak_rss_mb", peak_rss_mb);
    }
    let mut run_us: Vec<u64> = walls.iter().map(|w| (w * 1e6) as u64).collect();
    let sum = summarize(&mut run_us);
    out.notes.push(format!(
        "run_harness wall over {} runs ({} commits each): p50 {} us, max {} us (no tail: fewer than 100 samples)",
        sum.n,
        mix.clients * mix.updates,
        sum.p50,
        sum.max
    ));
    let commits = first.commits.max(1) as f64;
    let p = |v: &[u64], q: f64| quantile_sorted(v, q) as f64;
    out.notes.push(format!(
        "virtual time under 1-10 tick delay: commit latency p50 {} p99 {} ticks over {} commits; {} needed a retry (p99 {} ticks)",
        p(&first.latencies, 0.5),
        p(&first.latencies, 0.99),
        first.commits,
        first.recoveries.len(),
        p(&first.recoveries, 0.99),
    ));

    if args.trace {
        out.set("storage.commit_ticks_p50", p(&first.latencies, 0.5));
        out.set("storage.commit_ticks_p99", p(&first.latencies, 0.99));
        out.set("storage.recovery_ticks_p99", p(&first.recoveries, 0.99));
        out.set("storage.msgs_per_commit", first.delivered as f64 / commits);
        out.set("storage.retries_per_commit", first.retries as f64 / commits);
        out.set(
            "storage.peer_deliveries_per_commit",
            first.peer_deliveries as f64 / commits,
        );
        out.set(
            "storage.peer_spawns_per_commit",
            first.peer_spawns as f64 / commits,
        );
        out.set(
            "storage.peer_releases_per_commit",
            first.peer_releases as f64 / commits,
        );
        out.set(
            "storage.virtual_end_ticks",
            first.end_ticks as f64 / mix.runs as f64,
        );
        out.set("storage.crashes", first.crashes as f64);
        out.set("storage.restarts", first.restarts as f64);
        layers.report(&mut out);
        out.set(
            "alloc.allocs_per_kop",
            allocs as f64 * 1e3 / (commits * reps as f64),
        );
        out.set(
            "trace.overhead_ratio",
            median(&traced_walls) / median(&walls),
        );
    }
    out
}

/// Sums over every timed harness run of a traced workload run.
#[derive(Debug, Default)]
struct Layers {
    wall_ns: u64,
    steps: u64,
    runs: u64,
    live_sessions: u64,
    peer: [CallAgg; 3],
    client: [CallAgg; 3],
    first_decile_ns: Vec<f64>,
    last_decile_ns: Vec<f64>,
}

impl Layers {
    fn add(&mut self, run: &TimedRun) {
        self.wall_ns += run.wall_ns;
        self.steps += run.stats.steps;
        self.runs += 1;
        self.live_sessions += run.live_sessions;
        for (total, agg) in self
            .peer
            .iter_mut()
            .zip(run.peer)
            .chain(self.client.iter_mut().zip(run.client))
        {
            total.count += agg.count;
            total.busy_ns += agg.busy_ns;
        }
        self.first_decile_ns.push(run.first_decile_ns);
        self.last_decile_ns.push(run.last_decile_ns);
    }

    fn report(&self, out: &mut Outcome) {
        let wall = self.wall_ns.max(1) as f64;
        let busy = |side: &[CallAgg; 3]| side.iter().map(|a| a.busy_ns).sum::<u64>() as f64;
        let (peer, client) = (busy(&self.peer), busy(&self.client));
        out.set("storage.peer_busy_share", peer / wall);
        out.set("storage.client_busy_share", client / wall);
        out.set("simnet.self_share", (wall - peer - client) / wall);
        out.set("simnet.events_per_s", self.steps as f64 * 1e9 / wall);
        let (first, last) = (median(&self.first_decile_ns), median(&self.last_decile_ns));
        out.set("storage.peer_ns_per_msg_first_decile", first);
        out.set("storage.peer_ns_per_msg_last_decile", last);
        out.set(
            "storage.history_growth_ratio",
            if first > 0.0 { last / first } else { 0.0 },
        );
        out.set(
            "storage.peer_live_sessions_end",
            self.live_sessions as f64 / (self.runs.max(1) * u64::from(R)) as f64,
        );
        let restarts = self.peer[2];
        out.set(
            "storage.restart_ms",
            restarts.busy_ns as f64 / 1e6 / restarts.count.max(1) as f64,
        );
    }
}
