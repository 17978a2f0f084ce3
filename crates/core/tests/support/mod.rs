//! Test support the workspace's suites share, compiled by path where a
//! suite lives outside this crate: [`decide`], which asserts that
//! `stategen_core::equivalent` proves two engines one protocol;
//! [`Table`], one session of a dense table as a `ProtocolEngine`; and
//! the [`TwoCounter`] model family. `stategen-runtime`'s `tests/oracle`
//! re-exports it.

#![allow(dead_code)]

use std::borrow::Cow;
use std::hash::{Hash, Hasher};

use proptest::prelude::*;
use stategen_core::{
    equivalent, AbstractModel, Action, CompiledMachine, InterpError, Outcome, ProtocolEngine,
    StateComponent, StateSpace, StateVector, Verdict,
};

/// Most pairs a decision explores: past every machine the suites decide
/// (the commit EFSM at r = 46 reaches 2 990 configurations).
pub const BUDGET: usize = 1 << 16;

/// The pairs of configurations reachable from `(a, b)` over `messages`,
/// which must be equivalent: a distinguishing trace (printed as a
/// replayable loop) or a search cut by the budget fails the calling
/// test.
#[track_caller]
pub fn decide<A, B>(a: A, b: B, messages: &[&str]) -> Vec<(A, B)>
where
    A: ProtocolEngine + Clone + Eq + Hash,
    B: ProtocolEngine + Clone + Eq + Hash,
{
    match equivalent(a, b, messages, BUDGET) {
        Verdict::Equivalent(pairs) => pairs,
        Verdict::Distinguished(trace) => panic!(
            "distinguished by a shortest trace; replay it on the two engines:\n\
             for m in {trace:?} {{\n    \
             assert_eq!(a.deliver(m), b.deliver(m));\n    \
             assert_eq!(a.is_finished(), b.is_finished());\n}}"
        ),
        Verdict::Bounded(depth) => panic!("undecided: over {BUDGET} pairs at depth {depth}"),
    }
}

/// One session of a dense table (`CompiledMachine::compile_ir`'s or
/// `unfold`'s): its state is its configuration.
#[derive(Clone)]
pub struct Table<'m> {
    pub machine: &'m CompiledMachine,
    pub state: u32,
}

impl<'m> Table<'m> {
    pub fn new(machine: &'m CompiledMachine) -> Table<'m> {
        Table {
            machine,
            state: machine.start(),
        }
    }
}

impl PartialEq for Table<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.state == other.state
    }
}

impl Eq for Table<'_> {}

impl Hash for Table<'_> {
    fn hash<H: Hasher>(&self, hasher: &mut H) {
        self.state.hash(hasher);
    }
}

impl ProtocolEngine for Table<'_> {
    fn deliver_ref(&mut self, message: &str) -> Result<&[Action], InterpError> {
        let id = (self.machine.message_id(message))
            .ok_or_else(|| InterpError::UnknownMessage(message.to_string()))?;
        let Some((to, actions)) = self.machine.step(self.state, id) else {
            return Ok(&[]);
        };
        self.state = to;
        Ok(actions)
    }

    fn is_finished(&self) -> bool {
        self.machine.is_finish_state(self.state)
    }

    fn state_name(&self) -> Cow<'_, str> {
        Cow::Borrowed(self.machine.state_name(self.state))
    }

    fn reset(&mut self) {
        self.state = self.machine.start();
    }
}

/// A randomised threshold model: two counters and a flag; `a` bumps
/// counter 0, `b` bumps counter 1; crossing `threshold` on the sum
/// fires an action; completion when counter 1 reaches its max. Its
/// generated machines have many states, so a churned pool spreads over
/// many table rows.
#[derive(Debug, Clone)]
pub struct TwoCounter {
    pub max0: u32,
    pub max1: u32,
    pub threshold: u32,
}

impl AbstractModel for TwoCounter {
    fn machine_name(&self) -> String {
        format!("two-counter@{}x{}t{}", self.max0, self.max1, self.threshold)
    }

    fn state_space(&self) -> Result<StateSpace, stategen_core::SchemaError> {
        StateSpace::new(vec![
            StateComponent::int("c0", self.max0),
            StateComponent::int("c1", self.max1),
            StateComponent::boolean("fired"),
        ])
    }

    fn messages(&self) -> Vec<String> {
        vec!["a".into(), "b".into()]
    }

    fn start_state(&self) -> StateVector {
        self.state_space().expect("schema").zero_vector()
    }

    fn transition(&self, state: &StateVector, message: &str) -> Outcome {
        let idx = if message == "a" { 0 } else { 1 };
        let max = if idx == 0 { self.max0 } else { self.max1 };
        if state.get(idx) == max {
            return Outcome::Ignored;
        }
        let mut t = state.clone();
        t.set(idx, state.get(idx) + 1);
        let mut actions = Vec::new();
        if t.get(0) + t.get(1) >= self.threshold && !t.flag(2) {
            t.set_flag(2, true);
            actions.push(Action::send("fire"));
        }
        Outcome::to(t, actions)
    }

    fn is_final_state(&self, state: &StateVector) -> bool {
        state.get(1) == self.max1
    }
}

pub fn two_counter() -> impl Strategy<Value = TwoCounter> {
    (1u32..6, 1u32..6, 1u32..8).prop_map(|(max0, max1, threshold)| TwoCounter {
        max0,
        max1,
        threshold,
    })
}
