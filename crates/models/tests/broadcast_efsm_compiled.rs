//! One broadcast EFSM serves the whole family (n = 4..=13), decided by
//! `stategen_core::equivalent` over every reachable pair of
//! configurations: bound to n, it is the generated broadcast FSM, and
//! its unfolded dense table — what `Engine::compile` serves — is the
//! EFSM, one table state per reachable configuration. That the runtime
//! serves those tables as `IrInstance` steps the IR is the runtime's
//! operation oracle's job (`stategen-runtime`'s `tests/oracle`).

use std::sync::OnceLock;

use stategen_core::{generate, unfold, FlatIr, IrInstance};
use stategen_models::{broadcast_efsm, broadcast_efsm_params, BroadcastModel};

#[path = "../../core/tests/support/mod.rs"]
mod support;

use support::{decide, Table};

const MESSAGES: [&str; 3] = ["initial", "echo", "ready"];

/// The broadcast EFSM's lowered IR.
fn ir() -> &'static FlatIr {
    static IR: OnceLock<FlatIr> = OnceLock::new();
    IR.get_or_init(|| FlatIr::from_efsm(&broadcast_efsm()))
}

fn efsm(n: u32) -> IrInstance<'static> {
    ir().instance(broadcast_efsm_params(&BroadcastModel::new(n)))
}

#[test]
fn compiled_matches_interpreter() {
    for n in 4..=13 {
        let params = broadcast_efsm_params(&BroadcastModel::new(n));
        let (table, _) = unfold(ir(), &params).expect("within the unfolding budget");
        let pairs = decide(efsm(n), Table::new(&table), &MESSAGES);
        assert_eq!(pairs.len(), table.state_count(), "n={n}");
        for (e, t) in pairs {
            assert_eq!(e.state_name_str(), table.state_name(t.state), "n={n}");
        }
    }
}

#[test]
fn exhaustive_short_traces_n4() {
    for n in 4..=13 {
        let machine = generate(&BroadcastModel::new(n)).unwrap().machine;
        decide(
            FlatIr::from_machine(&machine).instance(vec![]),
            efsm(n),
            &MESSAGES,
        );
    }
}
