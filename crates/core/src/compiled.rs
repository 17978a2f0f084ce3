//! Ahead-of-time compiled machines: dense transition tables with
//! zero-allocation dispatch.
//!
//! The interpreted tier ([`FlatIr::step`]) scans a state's transition
//! list on every delivery. That needs no preparation but is slow to
//! deploy: the paper renders machines to source code precisely because
//! interpreted dispatch is too slow (§4.2). [`CompiledMachine`] is the
//! runtime equivalent of that rendering step — a one-time *flattening*
//! pass that turns any unguarded machine into:
//!
//! * a dense `states × messages` table of target state ids (`u32`, with
//!   a sentinel for "no transition"), so dispatch is one indexed load —
//!   stored *column-major*, one contiguous column per message class, so
//!   a batch delivering one message reads a single column;
//! * an interned action arena: each distinct action list is stored once
//!   and every transition references it by `(offset, len)` range, so
//!   delivering a message returns a borrowed `&[Action]` without copying
//!   or allocating;
//! * an O(1) message-name lookup map.
//!
//! Finish states are compiled with empty rows, so they are absorbing by
//! construction and the hot path needs no role check.
//!
//! Compilation is behaviour-preserving: stepping the table is
//! observationally equivalent to [`IrInstance`](crate::IrInstance) on
//! the machine it was compiled from (asserted by the cross-engine
//! property suites).
//!
//! # Examples
//!
//! ```
//! use stategen_core::{Action, CompiledMachine, FlatIr, StateMachineBuilder};
//!
//! let mut b = StateMachineBuilder::new("ping", ["ping"]);
//! let idle = b.add_state("idle");
//! let done = b.add_state("done");
//! b.add_transition(idle, "ping", done, vec![Action::send("pong")]);
//! let machine = b.build(idle);
//!
//! let compiled = CompiledMachine::compile_ir(&FlatIr::from_machine(&machine)).unwrap();
//! let ping = compiled.message_id("ping").unwrap();
//! let (state, actions) = compiled.step(compiled.start(), ping).unwrap();
//! assert_eq!(actions, [Action::send("pong")]);
//! assert_eq!(compiled.state_name(state), "done");
//! assert_eq!(compiled.step(state, ping), None); // nothing leaves `done`
//! ```

use std::collections::HashMap;
use std::sync::Arc;

use crate::error::CompileError;
use crate::ir::{ActionArena, FlatIr};
use crate::machine::{Action, MessageId, StateRole};

/// Sentinel target meaning "message not applicable in this state": what
/// a [`CompiledMachine::column`] holds where no transition is taken.
pub const NO_TRANSITION: u32 = u32::MAX;

/// `(offset, len)` range into the interned action arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct ActionRange {
    offset: u32,
    len: u32,
}

/// An unguarded [`FlatIr`] flattened into dense integer index tables.
///
/// Compile once (at generation, startup or build time); the table holds
/// no session, so any number of executions step through one copy —
/// `stategen-runtime` serves thousands of concurrent ones from it.
#[derive(Debug, Clone)]
pub struct CompiledMachine {
    name: String,
    messages: Box<[String]>,
    message_lookup: HashMap<String, u16>,
    /// Shared strings: a table whose states unfold one source state
    /// many times over (see [`DenseRows`]) names each copy by a pointer
    /// bump, not a clone.
    state_names: Box<[Arc<str>]>,
    finish: Box<[bool]>,
    start: u32,
    /// Message id → start of its *column class*'s column in the tables
    /// below, the alphabet-compression indirection (see
    /// [`CompiledMachine::compile_ir`]).
    column_of: Box<[u32]>,
    /// The tables below are column-major: class `c`'s column is
    /// `[c * col_len ..][..col_len]`, indexed by state id, where
    /// `col_len = state_count + 1` — the trailing *skip* entry
    /// ([`NO_TRANSITION`], no actions, flag 0) is what the batch kernel
    /// clamps out-of-range ids (retired slots) onto.
    targets: Box<[u32]>,
    cells: Box<[ActionRange]>,
    /// 1 where the cell's target is a finish state, else 0.
    enters_finish: Box<[u8]>,
    arena: Box<[Action]>,
    interned_lists: usize,
}

/// A dense table under construction, row-major: states are appended
/// one at a time (each starts as an absorbing row) and cells filled in
/// any order, then [`DenseRows::finish`] compresses the alphabet and
/// lays the columns out. Both dense lowerings fill one — an unguarded
/// IR state by state, and [`unfold`](crate::unfold) a guarded IR
/// configuration by configuration, as the crate's one explorer
/// discovers them.
#[derive(Debug)]
pub(crate) struct DenseRows {
    stride: usize,
    targets: Vec<u32>,
    cells: Vec<ActionRange>,
    arena: ActionArena,
    state_names: Vec<Arc<str>>,
    finish: Vec<bool>,
}

impl DenseRows {
    /// An empty table over an alphabet of `messages` messages, the rows
    /// of its first `states` states laid out (absorbing) in one go — a
    /// compiler that knows its state count pays no per-state growth.
    pub(crate) fn new(messages: usize, states: usize) -> Self {
        DenseRows {
            stride: messages,
            targets: vec![NO_TRANSITION; states * messages],
            cells: vec![ActionRange::default(); states * messages],
            arena: ActionArena::default(),
            state_names: Vec::with_capacity(states),
            finish: Vec::with_capacity(states),
        }
    }

    /// Appends a state with no transitions; returns its id.
    pub(crate) fn push_state(&mut self, name: Arc<str>, finish: bool) -> usize {
        self.state_names.push(name);
        self.finish.push(finish);
        let cells = self.finish.len() * self.stride;
        if self.targets.len() < cells {
            self.targets.resize(cells, NO_TRANSITION);
            self.cells.resize(cells, ActionRange::default());
        }
        self.finish.len() - 1
    }

    /// Fills the `(state, message)` cell; `false`, with the cell left
    /// alone, if it already holds a transition.
    pub(crate) fn set(
        &mut self,
        state: usize,
        message: usize,
        target: u32,
        actions: &[Action],
    ) -> bool {
        let idx = state * self.stride + message;
        if self.targets[idx] != NO_TRANSITION {
            return false;
        }
        self.targets[idx] = target;
        let (offset, len) = self.arena.intern(actions);
        self.cells[idx] = ActionRange { offset, len };
        true
    }

    /// Lays the finished rows out as a [`CompiledMachine`]: messages
    /// whose columns are identical in every state share one physical
    /// column (classes numbered in first-occurrence order, so the
    /// column map is deterministic), columns are stored contiguously
    /// with the trailing skip entry, and every cell learns whether its
    /// target finishes.
    pub(crate) fn finish(self, name: &str, messages: &[String], start: u32) -> CompiledMachine {
        let DenseRows {
            stride,
            targets,
            cells,
            arena,
            state_names,
            finish,
        } = self;
        let state_count = finish.len();
        let col_len = state_count + 1;
        let mut column_of = vec![0u32; stride];
        let mut class_rep: Vec<usize> = Vec::new(); // class → representative message
        for m in 0..stride {
            let class = class_rep.iter().position(|&rep| {
                (0..state_count).all(|s| {
                    targets[s * stride + m] == targets[s * stride + rep]
                        && cells[s * stride + m] == cells[s * stride + rep]
                })
            });
            let class = class.unwrap_or_else(|| {
                class_rep.push(m);
                class_rep.len() - 1
            });
            column_of[m] = u32::try_from(class * col_len).expect("table within u32 cells");
        }
        let n_classes = class_rep.len().max(1);
        let mut compact_targets = vec![NO_TRANSITION; n_classes * col_len];
        let mut compact_cells = vec![ActionRange::default(); n_classes * col_len];
        let mut enters_finish = vec![0u8; n_classes * col_len];
        for (c, &rep) in class_rep.iter().enumerate() {
            for s in 0..state_count {
                let target = targets[s * stride + rep];
                compact_targets[c * col_len + s] = target;
                compact_cells[c * col_len + s] = cells[s * stride + rep];
                enters_finish[c * col_len + s] =
                    u8::from(target != NO_TRANSITION && finish[target as usize]);
            }
        }
        CompiledMachine {
            name: name.to_string(),
            messages: messages.to_vec().into_boxed_slice(),
            message_lookup: FlatIr::build_lookup(messages),
            state_names: state_names.into_boxed_slice(),
            finish: finish.into_boxed_slice(),
            start,
            column_of: column_of.into_boxed_slice(),
            targets: compact_targets.into_boxed_slice(),
            cells: compact_cells.into_boxed_slice(),
            enters_finish: enters_finish.into_boxed_slice(),
            interned_lists: arena.interned_lists(),
            arena: arena.into_arena(),
        }
    }
}

impl CompiledMachine {
    /// Compiles an *unguarded* [`FlatIr`] into dense tables — the shared
    /// entry point every front-end reaches through the unified lowering
    /// pipeline (flat machines lift trivially; unguarded statecharts
    /// arrive via
    /// [`HierarchicalMachine::flatten_ir`](crate::HierarchicalMachine::flatten_ir)).
    ///
    /// The table is stored in *message-alphabet-compressed* form:
    /// messages whose columns are identical across every state (same
    /// target and same actions in every cell — equivalently, messages
    /// the machine never distinguishes) share one physical column, and
    /// a tiny `message id → column` map (one `u16` per message) is
    /// consulted on dispatch. Machines whose messages are all distinct
    /// pay one extra indexed load; machines with interchangeable
    /// messages (common after statechart flattening and minimization)
    /// shrink their hot table proportionally. The compression is
    /// behaviour-preserving by construction: two messages share a
    /// column only when every state already treated them identically.
    ///
    /// # Errors
    ///
    /// [`CompileError::GuardedMachine`] if any transition carries a
    /// guard or update (or the IR declares variables/parameters) — the
    /// dense table has no registers, so a guarded IR is bound to its
    /// parameters and [`unfold`](crate::unfold)ed onto this table, or
    /// run on the interpreter; [`CompileError::DuplicateTransition`] if two transitions
    /// share a `(state, message)` cell (the second could never fire).
    pub fn compile_ir(ir: &FlatIr) -> Result<Self, CompileError> {
        if ir.is_guarded() {
            return Err(CompileError::GuardedMachine(ir.name().to_string()));
        }
        let mut rows = DenseRows::new(ir.messages().len(), ir.state_count());
        for state in ir.states() {
            let is_finish = state.role() == StateRole::Finish;
            let sid = rows.push_state(Arc::from(state.name()), is_finish);
            if is_finish {
                // Finish states absorb every message; leave the whole row
                // at the sentinel even if the source machine carries
                // (unreachable) transitions out of them.
                continue;
            }
            for transition in state.transitions() {
                let message = transition.message_index();
                if !rows.set(sid, message, transition.target(), transition.actions()) {
                    return Err(CompileError::DuplicateTransition {
                        state: state.name().to_string(),
                        message: ir.messages()[message].clone(),
                    });
                }
            }
        }
        Ok(rows.finish(ir.name(), ir.messages(), ir.start()))
    }

    /// The machine's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The message alphabet, in declaration order.
    pub fn messages(&self) -> &[String] {
        &self.messages
    }

    /// Number of states.
    pub fn state_count(&self) -> usize {
        self.state_names.len()
    }

    /// The start state's dense id.
    pub fn start(&self) -> u32 {
        self.start
    }

    /// Looks up a message id by name in O(1).
    pub fn message_id(&self, name: &str) -> Option<MessageId> {
        self.message_lookup.get(name).copied().map(MessageId)
    }

    /// The message name for an id.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this machine.
    pub fn message_name(&self, id: MessageId) -> &str {
        &self.messages[id.index()]
    }

    /// Display name of a state.
    ///
    /// # Panics
    ///
    /// Panics if `state` is out of range.
    pub fn state_name(&self, state: u32) -> &str {
        &self.state_names[state as usize]
    }

    /// `true` if `state` is a finish state.
    ///
    /// # Panics
    ///
    /// Panics if `state` is out of range.
    pub fn is_finish_state(&self, state: u32) -> bool {
        self.finish[state as usize]
    }

    /// Number of distinct action lists stored in the interned arena.
    pub fn interned_action_lists(&self) -> usize {
        self.interned_lists
    }

    /// Number of *message column classes* the table stores — its
    /// physical column count after alphabet compression. Equal to the
    /// alphabet size when every message behaves distinctly; smaller
    /// when some messages are interchangeable in every state.
    pub fn message_column_classes(&self) -> usize {
        self.targets.len() / (self.state_names.len() + 1)
    }

    /// Bytes the column tables occupy (targets, action ranges and
    /// finish flags; the action arena and names are not counted).
    pub(crate) fn table_bytes(&self) -> usize {
        std::mem::size_of_val(&*self.targets)
            + std::mem::size_of_val(&*self.cells)
            + std::mem::size_of_val(&*self.enters_finish)
    }

    /// Start of the compressed table column `message` dispatches
    /// through: that column's cell for `state` is at `start + state`.
    #[inline]
    fn column_start(&self, message: MessageId) -> usize {
        debug_assert!(
            message.index() < self.column_of.len(),
            "message id from a different machine"
        );
        self.column_of[message.index()] as usize
    }

    /// The table column `message` dispatches through — invariant for a
    /// whole batch, so the dense kernel hoists it once — as parallel
    /// slices indexed by state id: the target (or [`NO_TRANSITION`])
    /// and whether that target is a finish state. Both are
    /// `state_count + 1` long; the last entry is the skip cell.
    ///
    /// # Panics
    ///
    /// May panic if `message` does not belong to this machine.
    #[inline]
    pub fn column(&self, message: MessageId) -> (&[u32], &[u8]) {
        let start = self.column_start(message);
        let col_len = self.state_names.len() + 1;
        (
            &self.targets[start..][..col_len],
            &self.enters_finish[start..][..col_len],
        )
    }

    /// Executes one transition: from `state` on `message`, returns the
    /// target state and the borrowed action list, or `None` if the
    /// message is not applicable (including any message in a finish
    /// state).
    ///
    /// This is the allocation-free hot path: one indexed load for the
    /// target, one for the action range.
    ///
    /// `message` must come from this machine (via
    /// [`CompiledMachine::message_id`]) or one with an identical
    /// alphabet; an id from a machine with a larger alphabet indexes the
    /// wrong table cell (debug builds assert, release builds do not pay
    /// for the check).
    ///
    /// # Panics
    ///
    /// Panics if `state` is out of range for this machine.
    #[inline(always)]
    pub fn step(&self, state: u32, message: MessageId) -> Option<(u32, &[Action])> {
        assert!(
            (state as usize) < self.state_names.len(),
            "state out of range"
        );
        let idx = self.column_start(message) + state as usize;
        let target = self.targets[idx];
        if target == NO_TRANSITION {
            return None;
        }
        let range = self.cells[idx];
        let actions = &self.arena[range.offset as usize..(range.offset + range.len) as usize];
        Some((target, actions))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{ProtocolEngine, StateMachine, StateMachineBuilder, StateRole};

    fn compile(machine: &StateMachine) -> CompiledMachine {
        CompiledMachine::compile_ir(&FlatIr::from_machine(machine)).unwrap()
    }

    fn finishing_machine() -> StateMachine {
        let mut b = StateMachineBuilder::new("m", ["a", "b"]);
        let s0 = b.add_state("s0");
        let s1 = b.add_state("s1");
        let fin = b.add_state_full("FINISHED", None, StateRole::Finish, vec![]);
        b.add_transition(s0, "a", s1, vec![Action::send("x")]);
        b.add_transition(s1, "a", fin, vec![]);
        b.add_transition(s1, "b", s0, vec![Action::send("x")]);
        b.build(s0)
    }

    /// The state after stepping `compiled` from its start through
    /// `messages`, skipping inapplicable ones, and how many were taken.
    fn walk(compiled: &CompiledMachine, messages: &[&str]) -> (u32, usize) {
        let mut state = compiled.start();
        let mut taken = 0;
        for name in messages {
            let id = compiled.message_id(name).expect("declared");
            if let Some((to, _)) = compiled.step(state, id) {
                (state, taken) = (to, taken + 1);
            }
        }
        (state, taken)
    }

    #[test]
    fn walk_to_finish_matches_interpreter() {
        let m = finishing_machine();
        let compiled = compile(&m);
        let ir = FlatIr::from_machine(&m);
        let mut reference = ir.instance(vec![]);
        let mut state = compiled.start();
        for name in ["a", "a"] {
            let id = compiled.message_id(name).unwrap();
            let (to, actions) = compiled.step(state, id).unwrap();
            assert_eq!(actions, reference.deliver_ref(name).unwrap());
            assert_eq!(compiled.state_name(to), reference.state_name());
            state = to;
        }
        assert!(compiled.is_finish_state(state) && reference.is_finished());
        assert_eq!(compiled.state_name(state), "FINISHED");
    }

    #[test]
    fn inapplicable_message_ignored() {
        let compiled = compile(&finishing_machine());
        let b = compiled.message_id("b").unwrap();
        assert!(compiled.step(compiled.start(), b).is_none());
        assert_eq!(walk(&compiled, &["b"]), (compiled.start(), 0));
    }

    #[test]
    fn unknown_message_is_error() {
        let compiled = compile(&finishing_machine());
        assert_eq!(compiled.message_id("zap"), None);
    }

    #[test]
    fn messages_after_finish_ignored() {
        let compiled = compile(&finishing_machine());
        let (fin, taken) = walk(&compiled, &["a", "a", "a", "b"]);
        assert!(compiled.is_finish_state(fin));
        assert_eq!(taken, 2);
        for name in ["a", "b"] {
            let id = compiled.message_id(name).unwrap();
            assert!(compiled.step(fin, id).is_none());
        }
    }

    #[test]
    fn reset_returns_to_start() {
        // The table holds no session: a fresh walk replays the first.
        let compiled = compile(&finishing_machine());
        let first = walk(&compiled, &["a"]);
        assert!(compiled.is_finish_state(walk(&compiled, &["a", "a"]).0));
        assert_eq!(walk(&compiled, &["a"]), first);
        assert_eq!(compiled.state_name(compiled.start()), "s0");
    }

    #[test]
    fn engine_trait_default_deliver_matches_ref() {
        let m = finishing_machine();
        let compiled = compile(&m);
        let a = compiled.message_id("a").unwrap();
        let ir = FlatIr::from_machine(&m);
        let owned = ir.instance(vec![]).deliver("a").unwrap();
        assert_eq!(owned, compiled.step(compiled.start(), a).unwrap().1);
    }

    #[test]
    fn action_lists_are_interned() {
        // Both phase transitions carry the same [->x] list; the arena
        // stores it once.
        let m = finishing_machine();
        let compiled = compile(&m);
        assert_eq!(compiled.interned_action_lists(), 1);
        assert_eq!(compiled.arena.len(), 1);
    }

    #[test]
    fn returned_slice_outlives_further_deliveries() {
        let m = finishing_machine();
        let compiled = compile(&m);
        let a = compiled.message_id("a").unwrap();
        let (s1, first) = compiled.step(compiled.start(), a).unwrap();
        let _ = compiled.step(s1, a);
        // `first` borrows from the machine arena, not from any cursor.
        assert_eq!(first, [Action::send("x")]);
    }

    #[test]
    fn identical_message_columns_share_storage() {
        // `a` and `b` are treated identically in every state; `c` is
        // distinct. The table stores two physical columns, and behaviour
        // is unchanged.
        let mut b = StateMachineBuilder::new("m", ["a", "b", "c"]);
        let s0 = b.add_state("s0");
        let s1 = b.add_state("s1");
        b.add_transition(s0, "a", s1, vec![Action::send("x")]);
        b.add_transition(s0, "b", s1, vec![Action::send("x")]);
        b.add_transition(s0, "c", s0, vec![]);
        b.add_transition(s1, "a", s0, vec![]);
        b.add_transition(s1, "b", s0, vec![]);
        let m = b.build(s0);
        let compiled = compile(&m);
        assert_eq!(compiled.messages().len(), 3);
        assert_eq!(compiled.message_column_classes(), 2);
        let id = |name| compiled.message_id(name).unwrap();
        assert_eq!(
            compiled.step(0, id("b")),
            Some((1, &[Action::send("x")][..]))
        );
        assert_eq!(compiled.step(1, id("a")), Some((0, &[][..])));
        assert_eq!(compiled.step(0, id("c")), Some((0, &[][..])));
    }

    #[test]
    fn distinct_columns_are_not_compressed() {
        let m = finishing_machine();
        let compiled = compile(&m);
        assert_eq!(compiled.message_column_classes(), 2);
    }

    #[test]
    fn table_metadata_matches_source() {
        let m = finishing_machine();
        let compiled = compile(&m);
        assert_eq!(compiled.name(), "m");
        assert_eq!(compiled.state_count(), 3);
        assert_eq!(compiled.messages(), ["a", "b"]);
        assert_eq!(compiled.start(), 0);
        assert_eq!(compiled.message_id("b"), m.message_id("b"));
        assert_eq!(
            compiled.message_name(compiled.message_id("b").unwrap()),
            "b"
        );
        assert!(compiled.is_finish_state(2));
        assert!(!compiled.is_finish_state(0));
    }
}
