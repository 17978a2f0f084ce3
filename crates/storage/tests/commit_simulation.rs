//! End-to-end simulation of the version-history commit protocol (paper
//! §2.2): agreement, Byzantine tolerance, deadlock and retry.

use asa_simnet::SimConfig;
use asa_storage::{
    run_harness, HarnessConfig, HarnessReport, PeerBehaviour, Pid, RetryScheme, ServerOrdering,
};

fn pid(tag: &str) -> Pid {
    Pid::of(tag.as_bytes())
}

/// `run_harness`, refusing a run the simulator's step budget cut short:
/// such a run looks like an ordinary "not all committed".
fn run(config: &HarnessConfig) -> HarnessReport {
    let report = run_harness(config);
    assert!(
        !report.stats.budget_exhausted,
        "the step budget ended the run at tick {}",
        report.end_time
    );
    report
}

fn base_config() -> HarnessConfig {
    HarnessConfig {
        net: SimConfig {
            seed: 1,
            min_delay: 1,
            max_delay: 10,
            ..Default::default()
        },
        ..Default::default()
    }
}

#[test]
fn single_update_commits_everywhere() {
    let config = HarnessConfig {
        client_updates: vec![vec![pid("v1")]],
        ..base_config()
    };
    let report = run(&config);
    assert!(report.all_committed, "update must commit");
    assert!(report.orders_agree());
    for h in report.correct_histories() {
        assert_eq!(h, &vec![pid("v1")]);
    }
    assert_eq!(report.outcomes[0][0].attempts, 1, "no retry needed");
}

#[test]
fn sequential_updates_keep_order() {
    let updates: Vec<Pid> = (0..8).map(|i| pid(&format!("v{i}"))).collect();
    let config = HarnessConfig {
        client_updates: vec![updates.clone()],
        ..base_config()
    };
    let report = run(&config);
    assert!(report.all_committed);
    assert!(report.orders_agree());
    assert_eq!(report.correct_histories()[0], &updates);
}

#[test]
fn tolerates_one_equivocator_r4() {
    for seed in 0..10 {
        let config = HarnessConfig {
            behaviours: vec![PeerBehaviour::Equivocator],
            client_updates: vec![vec![pid("target")]],
            net: SimConfig {
                seed,
                min_delay: 1,
                max_delay: 10,
                ..Default::default()
            },
            ..base_config()
        };
        let report = run(&config);
        assert!(
            report.all_committed,
            "seed {seed}: update must commit despite equivocator"
        );
        assert!(
            report.orders_agree(),
            "seed {seed}: correct peers must agree"
        );
        assert_eq!(
            report.correct_histories()[0],
            &vec![pid("target")],
            "seed {seed}"
        );
    }
}

#[test]
fn tolerates_one_silent_peer_r4() {
    let config = HarnessConfig {
        behaviours: vec![PeerBehaviour::Silent],
        client_updates: vec![vec![pid("quiet ride")]],
        ..base_config()
    };
    let report = run(&config);
    assert!(
        report.all_committed,
        "3 live peers out of 4 reach the 2f+1 = 3 threshold"
    );
    assert!(report.orders_agree());
}

#[test]
fn tolerates_two_silent_peers_r7() {
    let config = HarnessConfig {
        replication_factor: 7,
        behaviours: vec![PeerBehaviour::Silent, PeerBehaviour::Silent],
        client_updates: vec![vec![pid("r7 update")]],
        ..base_config()
    };
    let report = run(&config);
    assert!(
        report.all_committed,
        "5 live peers out of 7 reach the 2f+1 = 5 threshold"
    );
    assert!(report.orders_agree());
}

#[test]
fn equivocator_and_concurrent_clients_r7() {
    let config = HarnessConfig {
        replication_factor: 7,
        behaviours: vec![PeerBehaviour::Equivocator, PeerBehaviour::Equivocator],
        client_updates: vec![vec![pid("alpha")], vec![pid("beta")]],
        net: SimConfig {
            seed: 5,
            min_delay: 1,
            max_delay: 8,
            ..Default::default()
        },
        ..base_config()
    };
    let report = run(&config);
    assert!(report.all_committed, "both clients commit");
    assert!(report.sets_agree(), "correct peers record the same set");
}

/// The paper's §2.2 observation: concurrent updates can deadlock when
/// votes split; the endpoint's timeout/retry resolves it.
#[test]
fn concurrent_updates_deadlock_without_retry_commit_with_it() {
    let mut deadlocks_without_retry = 0;
    let mut commits_with_retry = 0;
    let seeds: Vec<u64> = (0..20).collect();
    for &seed in &seeds {
        // Random server ordering + simultaneous clients maximise vote
        // splits; timeouts beyond the deadline disable both the client
        // retry and the peer-side execution GC — no recovery mechanism.
        let no_retry = HarnessConfig {
            client_updates: vec![vec![pid("left")], vec![pid("right")]],
            ordering: ServerOrdering::Random,
            contact_stagger: 0,
            timeout: 3_000_000, // beyond the deadline: no retry fires
            peer_gc: 3_000_000, // beyond the deadline: no GC fires
            net: SimConfig {
                seed,
                min_delay: 1,
                max_delay: 30,
                ..Default::default()
            },
            ..base_config()
        };
        let report = run(&no_retry);
        if !report.all_committed {
            deadlocks_without_retry += 1;
        }
        let with_retry = HarnessConfig {
            timeout: 2_000,
            peer_gc: 8_000,
            retry: RetryScheme::Exponential {
                base: 500,
                max: 20_000,
            },
            ..no_retry
        };
        let report = run(&with_retry);
        if report.all_committed {
            commits_with_retry += 1;
        }
        assert!(
            report.sets_agree(),
            "seed {seed}: safety must hold under retries"
        );
    }
    assert!(
        deadlocks_without_retry > 0,
        "expected at least one vote-split deadlock across {} seeds",
        seeds.len()
    );
    assert_eq!(
        commits_with_retry,
        seeds.len(),
        "timeout/retry must resolve every deadlock"
    );
}

#[test]
fn fixed_server_ordering_reduces_deadlocks() {
    let count_deadlocks = |ordering: ServerOrdering| -> usize {
        (0..30u64)
            .filter(|&seed| {
                let config = HarnessConfig {
                    client_updates: vec![vec![pid("a")], vec![pid("b")]],
                    ordering,
                    contact_stagger: 3,
                    timeout: 3_000_000,
                    peer_gc: 3_000_000,
                    net: SimConfig {
                        seed,
                        min_delay: 1,
                        max_delay: 4,
                        ..Default::default()
                    },
                    ..base_config()
                };
                !run(&config).all_committed
            })
            .count()
    };
    let fixed = count_deadlocks(ServerOrdering::Fixed);
    let random = count_deadlocks(ServerOrdering::Random);
    assert!(
        fixed <= random,
        "fixed ordering ({fixed} deadlocks) should not deadlock more than random ({random})"
    );
}

#[test]
fn consistent_read_masks_byzantine_history() {
    let config = HarnessConfig {
        behaviours: vec![PeerBehaviour::Equivocator],
        client_updates: vec![vec![pid("x1"), pid("x2")]],
        ..base_config()
    };
    let report = run(&config);
    assert!(report.all_committed);
    // f = 1 for r = 4: at least 2 identical answers required.
    let history = report.read_consistent(1).expect("consistent read succeeds");
    assert_eq!(history, vec![pid("x1"), pid("x2")]);
}

#[test]
fn lossy_network_recovers_via_retry() {
    let config = HarnessConfig {
        client_updates: vec![vec![pid("lossy")]],
        timeout: 3_000,
        retry: RetryScheme::Exponential {
            base: 500,
            max: 10_000,
        },
        net: SimConfig {
            seed: 11,
            min_delay: 1,
            max_delay: 20,
            drop_probability: 0.05,
            ..Default::default()
        },
        ..base_config()
    };
    let report = run(&config);
    assert!(report.all_committed, "retries mask 5% message loss");
    assert!(report.orders_agree());
}

#[test]
fn duplicated_messages_are_harmless() {
    let config = HarnessConfig {
        client_updates: vec![vec![pid("dup")]],
        net: SimConfig {
            seed: 13,
            min_delay: 1,
            max_delay: 10,
            duplicate_probability: 0.4,
            ..Default::default()
        },
        ..base_config()
    };
    let report = run(&config);
    assert!(report.all_committed);
    assert!(
        report.orders_agree(),
        "sender dedup makes duplicates no-ops"
    );
    for h in report.correct_histories() {
        assert_eq!(h.len(), 1, "the update is recorded exactly once");
    }
}

/// Six clients submit 25 updates each, concurrently, at r = 4, 7 and 10:
/// every update commits and the correct peers agree on the committed
/// set. (With concurrent clients only the set is serialised; order
/// agreement holds for sequential submission.)
#[test]
fn concurrent_clients_commit_at_r4_r7_r10() {
    for r in [4, 7, 10] {
        let config = HarnessConfig {
            replication_factor: r,
            client_updates: (0..6)
                .map(|c| {
                    (0..25)
                        .map(|u| pid(&format!("r{r}/client{c}/update{u}")))
                        .collect()
                })
                .collect(),
            net: SimConfig {
                seed: 7,
                ..base_config().net
            },
            deadline: 50_000_000,
            ..base_config()
        };
        let report = run(&config);
        assert!(report.all_committed, "r={r}: {:?}", report.outcomes);
        assert!(report.sets_agree(), "r={r}");
    }
}

#[test]
fn many_clients_serialise() {
    let config = HarnessConfig {
        client_updates: (0..4)
            .map(|c| vec![pid(&format!("client{c}-a")), pid(&format!("client{c}-b"))])
            .collect(),
        timeout: 2_000,
        retry: RetryScheme::Exponential {
            base: 400,
            max: 15_000,
        },
        net: SimConfig {
            seed: 17,
            min_delay: 1,
            max_delay: 12,
            ..Default::default()
        },
        ..base_config()
    };
    let report = run(&config);
    assert!(report.all_committed, "all 8 updates commit");
    assert!(report.sets_agree());
    assert_eq!(report.correct_histories()[0].len(), 8);
}

#[test]
fn determinism_same_seed_same_report() {
    let config = HarnessConfig {
        client_updates: vec![vec![pid("p")], vec![pid("q")]],
        net: SimConfig {
            seed: 23,
            min_delay: 1,
            max_delay: 15,
            ..Default::default()
        },
        ..base_config()
    };
    let a = run(&config);
    let b = run(&config);
    assert_eq!(a.histories, b.histories);
    assert_eq!(a.stats, b.stats);
    assert_eq!(a.end_time, b.end_time);
}

/// A client is a node like any other: it can crash. Its memory is
/// modelled as surviving, its timers and the reports sent to it while
/// it was down are gone, so on restart it has to wake its timer wheel
/// again or it waits forever on a timeout that will never fire.
#[test]
fn crashed_client_wakes_up_and_confirms_every_update() {
    let updates: Vec<Pid> = (0..12).map(|i| pid(&format!("w{i}"))).collect();
    let bystander: Vec<Pid> = (0..12).map(|i| pid(&format!("b{i}"))).collect();
    let client = 4; // nodes 0..4 are the peers
    for (crash_at, restart_at) in [(40, 400), (100, 5_000), (3, 60)] {
        let config = HarnessConfig {
            client_updates: vec![updates.clone(), bystander.clone()],
            crashes: vec![(client, crash_at, restart_at)],
            ..base_config()
        };
        let report = run(&config);
        assert_eq!((report.stats.crashes, report.stats.restarts), (1, 1));
        // Discarded while it was down, or as a dead epoch's afterwards.
        assert!(
            report.stats.to_crashed + report.stats.timers_stale > 0,
            "crash at {crash_at}: the client lost neither a wake-up nor a message"
        );
        assert!(
            report.all_committed,
            "crash at {crash_at}, restart at {restart_at}: {:?}",
            report.outcomes[0]
        );
        assert_eq!(report.outcomes[0].len(), updates.len());
        assert!(report.sets_agree());
        assert_eq!(report.crashed, vec![false; 4], "no peer crashed");
    }
}
