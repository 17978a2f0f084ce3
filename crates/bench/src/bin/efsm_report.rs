//! Paper §5.3: the commit protocol as an EFSM — 9 states, generic in the
//! replication factor. Prints the EFSM, checks guard determinism for the
//! Table 1 parameters with the analyzer's `overlapping-guards` lint, and
//! writes the DOT rendering.

use repro_bench::artifacts_dir;
use stategen_analysis::{analyze_bound, AnalysisConfig};
use stategen_commit::{commit_efsm, commit_efsm_params, CommitConfig};
use stategen_core::{FlatIr, Lint, Notes};
use stategen_render::{render_dot, render_text};

fn main() {
    let efsm = commit_efsm();
    let ir = FlatIr::from_efsm(&efsm);
    print!("{}", render_text(&ir, Some(&Notes::from_efsm(&efsm))));
    println!();
    assert_eq!(efsm.state_count(), 9, "paper §5.3: the EFSM has 9 states");
    println!("state count: {} (paper §5.3: 9)", efsm.state_count());
    for r in [4u32, 7, 13, 25, 46] {
        let params = commit_efsm_params(&CommitConfig::new(r).expect("valid"));
        let mut config = AnalysisConfig::new();
        config.var_bound = i64::from(r);
        let analysis = analyze_bound(&ir, &params, &config);
        assert!(
            !analysis.has(Lint::OverlappingGuards),
            "r={r}: {:?}",
            analysis.diagnostics
        );
        println!(
            "r={r}: no overlapping-guards finding (in every reachable state, each \
             pair of sibling guards that can fire is proved disjoint)"
        );
    }
    let dir = artifacts_dir();
    std::fs::write(dir.join("commit_efsm.dot"), render_dot(&ir)).expect("write dot");
    println!("wrote {}", dir.join("commit_efsm.dot").display());
}
