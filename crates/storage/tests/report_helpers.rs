//! Unit-level checks of the harness report helpers on synthetic data.

use asa_simnet::SimStats;
use asa_storage::{HarnessReport, LogHistogram, MetricsSnapshot, PeerBehaviour, Pid, WakeStats};

fn report(histories: Vec<Vec<Pid>>, behaviours: Vec<PeerBehaviour>) -> HarnessReport {
    let crashed = vec![false; histories.len()];
    HarnessReport {
        histories,
        behaviours,
        outcomes: vec![],
        crashed,
        all_committed: true,
        stats: SimStats::default(),
        end_time: 0,
        commit_latency: LogHistogram::new(),
        retry_attempts: LogHistogram::new(),
        peer_metrics: MetricsSnapshot::default(),
        client_wakes: WakeStats::default(),
        flight_dumps: vec![],
    }
}

fn p(tag: &str) -> Pid {
    Pid::of(tag.as_bytes())
}

#[test]
fn orders_agree_ignores_byzantine_peers() {
    let r = report(
        vec![
            vec![p("a"), p("b")],
            vec![p("a"), p("b")],
            vec![p("zzz")], // Byzantine's own story
            vec![p("a"), p("b")],
        ],
        vec![
            PeerBehaviour::Correct,
            PeerBehaviour::Correct,
            PeerBehaviour::Equivocator,
            PeerBehaviour::Correct,
        ],
    );
    assert!(r.orders_agree());
    assert!(r.sets_agree());
    assert_eq!(r.correct_histories().len(), 3);
}

#[test]
fn order_divergence_detected() {
    let r = report(
        vec![vec![p("a"), p("b")], vec![p("b"), p("a")]],
        vec![PeerBehaviour::Correct, PeerBehaviour::Correct],
    );
    assert!(!r.orders_agree());
    assert!(r.sets_agree(), "same set, different order");
}

#[test]
fn set_divergence_detected() {
    let r = report(
        vec![vec![p("a")], vec![p("a"), p("b")]],
        vec![PeerBehaviour::Correct, PeerBehaviour::Correct],
    );
    assert!(!r.orders_agree());
    assert!(!r.sets_agree());
}

#[test]
fn read_consistent_requires_f_plus_one() {
    let r = report(
        vec![vec![p("a")], vec![p("a")], vec![p("x")], vec![p("y")]],
        vec![PeerBehaviour::Correct; 4],
    );
    // f = 1: two agreeing answers suffice.
    assert_eq!(r.read_consistent(1), Some(vec![p("a")]));
    // f = 2 would need three agreeing answers: none exist.
    assert_eq!(r.read_consistent(2), None);
}

#[test]
fn read_consistent_includes_byzantine_answers_in_the_vote() {
    // A Byzantine peer claiming the majority history only strengthens it;
    // claiming a different one cannot reach f+1 alone.
    let r = report(
        vec![vec![p("a")], vec![p("a")], vec![p("forged")]],
        vec![
            PeerBehaviour::Correct,
            PeerBehaviour::Correct,
            PeerBehaviour::Equivocator,
        ],
    );
    assert_eq!(r.read_consistent(1), Some(vec![p("a")]));
}

#[test]
fn total_retries_sums_extra_attempts() {
    use asa_storage::UpdateOutcome;
    let mut r = report(vec![], vec![]);
    r.outcomes = vec![
        vec![
            UpdateOutcome {
                pid: p("a"),
                attempts: 1,
                latency: 10,
                committed: true,
            },
            UpdateOutcome {
                pid: p("b"),
                attempts: 3,
                latency: 50,
                committed: true,
            },
        ],
        vec![UpdateOutcome {
            pid: p("c"),
            attempts: 2,
            latency: 20,
            committed: true,
        }],
    ];
    assert_eq!(r.total_retries(), 3); // (1-1) + (3-1) + (2-1)
}

#[test]
fn stable_helpers_ignore_crashed_peers() {
    let mut r = report(
        vec![
            vec![p("a"), p("b")],
            vec![p("a"), p("b")],
            vec![p("a")], // restarted peer lagging behind its checkpoint
        ],
        vec![PeerBehaviour::Correct; 3],
    );
    r.crashed = vec![false, false, true];
    assert!(!r.orders_agree(), "full agreement sees the lagging peer");
    assert!(r.orders_agree_stable());
    assert!(r.sets_agree_stable());
    assert_eq!(r.stable_histories().len(), 2);
}
