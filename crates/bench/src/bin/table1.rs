//! Regenerates paper Table 1: f, r, initial states, final states and
//! generation time for every row, in the paper's layout, and checks the
//! state counts against the published values. Then it proves each row's
//! machine is the protocol: the generated FSM, the commit EFSM bound to
//! r and the hand-written algorithm are decided equivalent over their
//! reachable pairs of configurations (`stategen_core::equivalent`). It
//! exits non-zero on a count mismatch, a distinguishing trace (printed)
//! or a search cut by its budget.

use stategen_commit::{
    commit_efsm, commit_efsm_params, CommitConfig, CommitModel, ReferenceCommit, MESSAGE_NAMES,
};
use stategen_core::{equivalent, generate, FlatIr, Verdict};
use stategen_render::{render_table1, Table1Row};

/// Most pairs one decision explores: r = 46 reaches about 3 000.
const BUDGET: usize = 1 << 16;

/// One decision's line, or the failure it reports.
fn verdict<A, B>(what: &str, verdict: Verdict<A, B>) -> Result<String, String> {
    match verdict {
        Verdict::Equivalent(pairs) => Ok(format!("{what} ({} pairs)", pairs.len())),
        Verdict::Distinguished(trace) => Err(format!("{what} FAILS: they differ after {trace:?}")),
        Verdict::Bounded(depth) => Err(format!(
            "{what} UNDECIDED: over {BUDGET} pairs at depth {depth}"
        )),
    }
}

fn main() {
    const EXPECTED: [(u32, u32, u64, usize); 5] = [
        (1, 4, 512, 33),
        (2, 7, 1568, 85),
        (4, 13, 5408, 261),
        (8, 25, 20000, 901),
        (15, 46, 67712, 2945),
    ];
    println!("Table 1. Times to generate state machines of various complexities\n");
    let efsm = FlatIr::from_efsm(&commit_efsm());
    let mut rows = Vec::new();
    let mut proofs = Vec::new();
    let mut all_ok = true;
    for (f, r, want_initial, want_final) in EXPECTED {
        let config = CommitConfig::new(r).expect("valid r");
        let g = generate(&CommitModel::new(config)).expect("generation succeeds");
        all_ok &= g.report.initial_states == want_initial && g.report.final_states == want_final;
        rows.push(Table1Row::from_report(f, r, &g.report));
        let fsm = FlatIr::from_machine(&g.machine);
        let bound = || efsm.instance(commit_efsm_params(&config));
        let fsm_efsm = equivalent(fsm.instance(vec![]), bound(), &MESSAGE_NAMES, BUDGET);
        let reference = ReferenceCommit::new(config);
        let efsm_reference = equivalent(bound(), reference, &MESSAGE_NAMES, BUDGET);
        proofs.push((
            r,
            verdict("generated FSM ≡ commit EFSM", fsm_efsm),
            verdict("commit EFSM ≡ reference", efsm_reference),
        ));
    }
    print!("{}", render_table1(&rows));
    println!();
    if all_ok {
        println!("state counts match the paper for all five rows");
    } else {
        println!("STATE COUNT MISMATCH against the paper");
        std::process::exit(1);
    }
    println!("(paper, Java on a 2.33 GHz Core 2 Duo: 0.10 / 0.12 / 0.38 / 2.2 / 19.1 s)");
    println!();
    println!("Each row's machine is the protocol, decided over reachable pairs:");
    let mut proved = true;
    for (r, first, second) in proofs {
        let [first, second] = [first, second].map(|line| {
            proved &= line.is_ok();
            line.unwrap_or_else(|failure| failure)
        });
        println!("r = {r:<3} {first}; {second}");
    }
    if !proved {
        std::process::exit(1);
    }
}
