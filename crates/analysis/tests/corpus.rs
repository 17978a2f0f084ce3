//! The corpus sweep: every machine the workspace's model crates build
//! goes through the analyzer, and none may carry a deny-level finding —
//! the same gate `scripts/verify.sh` enforces on every run. Warnings
//! must be fixed or explicitly accepted here, with a reason. Each
//! machine's minimization has the expected size, is idempotent, and is
//! decided equivalent to the machine by `stategen_core::equivalent`.

use stategen_analysis::{analyze, analyze_bound, minimize, Analysis, AnalysisConfig};
use stategen_commit::{commit_efsm, commit_efsm_params, CommitConfig, CommitModel};
use stategen_core::{generate, FlatIr, Level, Lint};
use stategen_models::{
    broadcast_efsm, broadcast_efsm_params, redundant_ring, session_lifecycle,
    session_lifecycle_guarded, BroadcastModel, RoundsModel, TerminationModel,
};

#[path = "../../core/tests/support/mod.rs"]
mod support;

use support::decide;

/// One corpus machine: the IR, the binding the EFSM-shaped ones deploy
/// under (`None` = analyze binding-free), the lint configuration with
/// the explicitly-accepted findings, and the expected minimization.
struct Entry {
    ir: FlatIr,
    params: Option<Vec<i64>>,
    config: AnalysisConfig,
    states_after: usize,
}

fn corpus() -> Vec<Entry> {
    let broadcast = BroadcastModel::new(4);
    let default = AnalysisConfig::new;
    vec![
        // The generated broadcast machine really carries mergeable
        // states: once delivery is decided, the echo counter no longer
        // matters. `equivalent-states` is informational (Allow) by
        // default — redundancy in *generated* machines is the
        // minimizer's job, not a spec bug.
        Entry {
            ir: FlatIr::from_machine(&generate(&broadcast).unwrap().machine),
            params: None,
            config: default(),
            states_after: 17,
        },
        Entry {
            ir: FlatIr::from_machine(&generate(&RoundsModel::new(4, 3)).unwrap().machine),
            params: None,
            config: default(),
            states_after: 13,
        },
        Entry {
            ir: FlatIr::from_machine(&generate(&TerminationModel::new(3)).unwrap().machine),
            params: None,
            config: default(),
            states_after: 9,
        },
        // Like broadcast: absorbing decided/blocked regions of the
        // generated commit machine collapse.
        Entry {
            ir: FlatIr::from_machine(
                &generate(&CommitModel::new(CommitConfig::new(4).unwrap()))
                    .unwrap()
                    .machine,
            ),
            params: None,
            config: default(),
            states_after: 27,
        },
        // Accepted: under the r=4, tv=3 binding the `vote` guards in the
        // forced/blocked states are dead — a node forced by the
        // threshold has already counted every other replica's vote, so
        // `votes_received + 1 <= r - 1` cannot hold there. The guards
        // are live under looser bindings (e.g. tv=2), and the EFSM is
        // deliberately parameter-generic, so this is expected, not a
        // bug.
        Entry {
            ir: FlatIr::from_efsm(&commit_efsm()),
            params: Some(commit_efsm_params(&CommitConfig::new(4).unwrap())),
            config: default().allow(Lint::UnsatisfiableGuard),
            states_after: 9,
        },
        Entry {
            ir: FlatIr::from_efsm(&broadcast_efsm()),
            params: Some(broadcast_efsm_params(&broadcast)),
            config: default(),
            states_after: 5,
        },
        // The statechart flattener enumerates history-decorated
        // configurations (`X` vs `X~Established=Commit`) that often
        // behave identically — the expected redundancy minimization
        // exists to remove.
        Entry {
            ir: session_lifecycle().flatten_ir(),
            params: None,
            config: default(),
            states_after: 9,
        },
        Entry {
            ir: session_lifecycle_guarded().flatten_ir(),
            params: Some(vec![3]),
            config: default(),
            states_after: 9,
        },
        Entry {
            ir: redundant_ring(8).flatten_ir(),
            params: None,
            config: default(),
            states_after: 3,
        },
    ]
}

fn report(entry: &Entry) -> Analysis {
    match &entry.params {
        Some(p) => analyze_bound(&entry.ir, p, &entry.config),
        None => analyze(&entry.ir, &entry.config),
    }
}

#[test]
fn every_model_machine_is_deny_clean() {
    for entry in corpus() {
        let analysis = report(&entry);
        assert!(
            analysis.is_clean(),
            "`{}` has deny-level findings: {:?}",
            entry.ir.name(),
            analysis.deny()
        );
    }
}

#[test]
fn corpus_warnings_are_explicitly_accounted_for() {
    // Anything the analyzer reports above Allow must be either fixed in
    // the model or downgraded in the entry's config with a comment
    // saying why — no silent accumulation of warnings.
    for entry in corpus() {
        let analysis = report(&entry);
        if let Some(d) = analysis
            .diagnostics
            .iter()
            .find(|d| d.level > Level::Allow && d.lint != Lint::EquivalentStates)
        {
            panic!("`{}` has an unaccounted finding: {d}", entry.ir.name());
        }
    }
}

#[test]
fn minimization_matches_the_expected_counts() {
    for entry in corpus() {
        let analysis = report(&entry);
        let (smaller, stats) = minimize(&entry.ir);
        assert_eq!(
            stats.states_after,
            entry.states_after,
            "`{}`: expected {} states after minimization, got {}",
            entry.ir.name(),
            entry.states_after,
            stats.states_after
        );
        assert_eq!(smaller.state_count(), stats.states_after);
        // The equivalence lint and the minimizer agree: merges happen
        // exactly when the lint fired.
        assert_eq!(
            analysis.has(Lint::EquivalentStates),
            stats.merged() > 0,
            "`{}`: lint/minimizer disagreement",
            entry.ir.name()
        );
    }
}

/// The quotient is the machine under the entry's binding, decided over
/// every reachable pair of configurations.
#[test]
fn minimized_machines_are_observation_equivalent() {
    for entry in corpus() {
        let (smaller, _) = minimize(&entry.ir);
        let binding = entry.params.clone().unwrap_or_default();
        let messages: Vec<&str> = entry.ir.messages().iter().map(String::as_str).collect();
        let quotient = smaller.instance(binding.clone());
        decide(entry.ir.instance(binding), quotient, &messages);
    }
}

#[test]
fn minimization_is_idempotent_on_the_corpus() {
    for entry in corpus() {
        let (once, _) = minimize(&entry.ir);
        let (twice, stats) = minimize(&once);
        assert_eq!(stats.merged(), 0, "`{}` re-merged", entry.ir.name());
        assert_eq!(twice, once, "`{}` not idempotent", entry.ir.name());
    }
}
