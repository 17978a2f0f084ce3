//! Hierarchical statecharts and the flattening compiler.
//!
//! The paper's pipeline produces *flat* FSM families, but real protocol
//! specifications — connection lifecycles, failure/recovery overlays on a
//! commit protocol — are naturally hierarchical: composite states with
//! entry/exit actions, transitions inherited from enclosing states,
//! internal (self-absorbing) transitions and shallow history. Devroey et
//! al.'s flattening mapping study names the standard bridge: lower the
//! statechart to an ordinary flat machine, then reuse all flat-FSM
//! tooling unchanged. This module is that bridge:
//!
//! * [`HierarchicalMachine`] / [`HsmBuilder`] — the statechart model: a
//!   forest of states where composites carry an initial child and
//!   optional shallow history, every state carries entry/exit action
//!   lists, and transitions may be internal, cross-level, or target a
//!   composite's history pseudostate — and may carry a
//!   [`Guard`] over declared variables/parameters plus variable
//!   [`Update`]s, making a statechart *parameter-generic* exactly like
//!   an [`Efsm`](crate::Efsm);
//! * [`HierarchicalMachine::flatten_ir`] — the compiler: enumerates the
//!   reachable *configurations* (active leaf × shallow-history memory)
//!   with the crate's one breadth-first explorer and lowers each to one
//!   state of the unified flat IR ([`FlatIr`]), expanding inherited
//!   transitions (guards carried symbolically, in firing priority
//!   order), synthesizing the exit/transition/entry action sequences,
//!   and resolving history by splitting states per remembered child.
//!   Unguarded statecharts compile onto the dense table
//!   ([`CompiledMachine::compile_ir`](crate::CompiledMachine::compile_ir)) that
//!   `stategen-runtime` serves, sharded or not, with zero engine changes
//!   (the compiled tier's action-arena interning folds the synthesized
//!   sequences back together); guarded statecharts, bound, are
//!   [`unfold`](crate::unfold)ed onto the dense table within their
//!   configuration budget and run on the interpreter otherwise;
//! * [`HsmInstance`] — a direct interpreter over the statechart, the
//!   reference the flattened machines are property-checked against
//!   (`HsmInstance ≡ IrInstance(flatten_ir) ≡ Runtime(compiled)`
//!   over random traces). Interpreter and compiler share the
//!   run-to-completion kernel by design — one semantics, two execution
//!   strategies — so the properties pin the *flattening pipeline*
//!   (configuration enumeration, naming, table construction), while
//!   the kernel's semantics are pinned by closed-form unit tests
//!   asserting exact action sequences.
//!
//! # Semantics
//!
//! The run-to-completion step for a configuration `(leaf, memory)` on
//! message `m`:
//!
//! 1. A final leaf absorbs every message (mirroring the flat machines'
//!    absorbing [`StateRole::Finish`] states).
//! 2. The handler is resolved *innermost-first with guard fall-through*:
//!    walking the active leaf's ancestor chain, each state's
//!    declarations for `m` are tried in declaration order, and the
//!    first transition whose guard holds over the live variable
//!    registers fires — inner declarations override inherited outer
//!    ones, and a state whose guards all fail falls through to its
//!    enclosing state. No enabled handler ⇒ the message is ignored.
//!    Updates apply with the EFSM tiers' staged semantics: every update
//!    expression reads the pre-transition variable values.
//! 3. An *internal* transition fires its actions and leaves the
//!    configuration untouched (no exit/entry actions run). It flattens
//!    to a self-loop.
//! 4. An external transition exits from the active leaf up to (but not
//!    including) the lowest common proper ancestor of the handler and
//!    the target — so a self- or ancestor-targeting transition exits and
//!    re-enters its source, the conventional external-transition
//!    reading. Exit actions run innermost-first; each exited composite
//!    with shallow history records its active direct child. The machine
//!    then enters the chain from that ancestor down to the target
//!    (entry actions outermost-first) and keeps descending: a history
//!    target restores the remembered (else initial) child, composites
//!    descend through initial children until a leaf is reached. The
//!    emitted action sequence is `exits ++ transition actions ++
//!    entries`.
//!
//! Entry actions of the *initial* configuration are not emitted: no
//! message delivery triggers them, and the flat model has no notion of
//! machine-start actions. Callers wanting them can read
//! [`HierarchicalMachine::start_entry_actions`].
//!
//! # Example
//!
//! ```
//! use stategen_core::{Action, HsmBuilder, HsmInstance, ProtocolEngine};
//!
//! let mut b = HsmBuilder::new("conn", ["open", "work", "drop", "resume"]);
//! let idle = b.add_state("Idle");
//! let up = b.add_state("Up");
//! let a = b.add_child(up, "A"); // initial child of Up
//! let bb = b.add_child(up, "B");
//! b.enable_history(up);
//! b.on_entry(up, vec![Action::send("hello")]);
//! b.add_transition(idle, "open", up, vec![]);          // enters Up.A
//! b.add_transition(a, "work", bb, vec![]);
//! b.add_transition(up, "drop", idle, vec![]);          // inherited by A and B
//! b.add_history_transition(idle, "resume", up, vec![]); // back to last child
//! let hsm = b.build(idle);
//!
//! let flat = hsm.flatten_ir();
//! assert_eq!(flat.state_count(), 6); // {Idle, Up.A, Up.B} × reachable memories
//!
//! let mut reference = HsmInstance::new(&hsm);
//! for m in ["open", "work", "drop", "resume"] {
//!     reference.deliver_ref(m).unwrap();
//! }
//! assert_eq!(reference.state_name(), "Up.B~Up=B"); // history restored B
//! ```

use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;

use crate::efsm::{check_operands, Guard, Operand, ParamId, Update, VarId};
use crate::error::{HsmError, InterpError};
use crate::explore::explore;
use crate::ir::{FlatIr, FlatState, FlatTransition};
use crate::machine::{check_alphabet, Action, MessageId, ProtocolEngine, StateRole};

/// Identifier of a state within a [`HierarchicalMachine`] (index into
/// its state tree, in declaration order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct HsmStateId(u32);

impl HsmStateId {
    /// The index into the machine's state table.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Where a hierarchical transition goes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HsmTarget {
    /// External transition to a state; composites are entered through
    /// their initial children.
    State(HsmStateId),
    /// External transition to the shallow-history pseudostate of a
    /// composite: re-enters the direct child that was active when the
    /// composite was last exited (or its initial child on first entry).
    History(HsmStateId),
    /// Internal transition: actions fire but the configuration is
    /// unchanged and no entry/exit actions run.
    Internal,
}

/// A transition declared on a hierarchical state (and inherited by all
/// of its descendants unless overridden closer to the leaf).
///
/// A transition may carry a [`Guard`] over the machine's variables and
/// parameters and a list of variable [`Update`]s. Guards participate in
/// inheritance and conflict resolution *innermost-first*: the handler
/// search walks the active leaf's ancestor chain and, within each
/// state, that state's transitions for the message in declaration
/// order; the first transition whose guard holds fires, and a state
/// whose guards all fail falls through to its enclosing state's
/// (inherited) transitions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HsmTransition {
    target: HsmTarget,
    guard: Guard,
    updates: Vec<Update>,
    actions: Vec<Action>,
}

impl HsmTransition {
    /// The transition's target.
    pub fn target(&self) -> HsmTarget {
        self.target
    }

    /// The guard that must hold for this transition to fire (the empty
    /// conjunction — always true — for unguarded transitions).
    pub fn guard(&self) -> &Guard {
        &self.guard
    }

    /// Variable updates applied when the transition fires, each reading
    /// the pre-transition variable values (the same staged semantics as
    /// the EFSM tiers).
    pub fn updates(&self) -> &[Update] {
        &self.updates
    }

    /// Actions (messages sent) when the transition fires, not counting
    /// the entry/exit actions synthesized around them.
    pub fn actions(&self) -> &[Action] {
        &self.actions
    }
}

/// One state of a hierarchical machine: a node in the state forest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HsmState {
    name: String,
    parent: Option<HsmStateId>,
    children: Vec<HsmStateId>,
    initial: Option<HsmStateId>,
    history: bool,
    entry: Vec<Action>,
    exit: Vec<Action>,
    role: StateRole,
    /// Per message, the transitions declared directly on this state in
    /// declaration (priority) order — several iff their guards differ.
    transitions: BTreeMap<u16, Vec<HsmTransition>>,
}

impl HsmState {
    fn new(name: String, parent: Option<HsmStateId>) -> Self {
        HsmState {
            name,
            parent,
            children: Vec::new(),
            initial: None,
            history: false,
            entry: Vec::new(),
            exit: Vec::new(),
            role: StateRole::Normal,
            transitions: BTreeMap::new(),
        }
    }

    /// The state's bare name (path-free; see
    /// [`HierarchicalMachine::path_name`] for the dotted full path).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The enclosing composite, or `None` for top-level states.
    pub fn parent(&self) -> Option<HsmStateId> {
        self.parent
    }

    /// Direct children, in declaration order (empty for leaves).
    pub fn children(&self) -> &[HsmStateId] {
        &self.children
    }

    /// The initial child entered when this composite is targeted
    /// directly (`None` for leaves).
    pub fn initial(&self) -> Option<HsmStateId> {
        self.initial
    }

    /// `true` if this composite records shallow history.
    pub fn has_history(&self) -> bool {
        self.history
    }

    /// `true` if this state has no children.
    pub fn is_leaf(&self) -> bool {
        self.children.is_empty()
    }

    /// Actions performed when the state is entered.
    pub fn entry_actions(&self) -> &[Action] {
        &self.entry
    }

    /// Actions performed when the state is exited.
    pub fn exit_actions(&self) -> &[Action] {
        &self.exit
    }

    /// The state's role; final leaves lower to absorbing
    /// [`StateRole::Finish`] flat states.
    pub fn role(&self) -> StateRole {
        self.role
    }

    /// Transitions declared directly on this state, in message-id order
    /// and declaration (priority) order within a message (inherited
    /// transitions are *not* repeated here).
    pub fn transitions(&self) -> impl Iterator<Item = (MessageId, &HsmTransition)> {
        self.transitions
            .iter()
            .flat_map(|(&m, ts)| ts.iter().map(move |t| (MessageId(m), t)))
    }
}

/// A hierarchical statechart: a forest of states with composite nesting,
/// entry/exit actions, inherited/internal/cross-level transitions and
/// shallow history. Built with [`HsmBuilder`]; executed directly by
/// [`HsmInstance`] or lowered to the flat IR by
/// [`HierarchicalMachine::flatten_ir`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HierarchicalMachine {
    name: String,
    messages: Vec<String>,
    message_lookup: HashMap<String, u16>,
    /// Parameter names, bound when an instance (or compiled binding) is
    /// created — what makes a guarded statechart generic over e.g. a
    /// retry budget or replication factor.
    params: Vec<String>,
    /// Variable names (per-instance registers, initialised to zero).
    variables: Vec<String>,
    states: Vec<HsmState>,
    start: HsmStateId,
    start_leaf: HsmStateId,
    /// Composites with shallow history enabled, in id order; the slot
    /// index is each one's position in a configuration's memory vector.
    history_states: Vec<HsmStateId>,
    /// `history_slot[state] = Some(slot)` iff the state records history.
    history_slot: Vec<Option<usize>>,
}

impl HierarchicalMachine {
    /// The machine's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The message alphabet, in declaration order.
    pub fn messages(&self) -> &[String] {
        &self.messages
    }

    /// Looks up a message id by name in O(1).
    pub fn message_id(&self, name: &str) -> Option<MessageId> {
        self.message_lookup.get(name).copied().map(MessageId)
    }

    /// Parameter names, in declaration order (empty for plain
    /// statecharts).
    pub fn params(&self) -> &[String] {
        &self.params
    }

    /// Variable names, in declaration order (empty for plain
    /// statecharts).
    pub fn variables(&self) -> &[String] {
        &self.variables
    }

    /// `true` if this statechart uses the extended-machine features —
    /// declared variables or parameters, a non-trivial guard, or an
    /// update on any transition. Guarded statecharts lower through
    /// [`HierarchicalMachine::flatten_ir`] and deploy with
    /// `Engine::compile` (`stategen-runtime`): unfolded onto the dense
    /// table, or on the interpreter past the unfolding budget. Unguarded
    /// ones lower through the same function and compile onto the dense
    /// table directly.
    ///
    /// This is the author-level predicate (over *declared* transitions);
    /// tier routing after flattening uses [`FlatIr::is_guarded`], the
    /// same definition over the *reachable* lowered candidates. The two
    /// agree whenever the machine declares a variable or parameter (the
    /// normal guarded case — both predicates test the declaration
    /// lists); they can differ only for a machine whose every guard is
    /// variable-free *and* unreachable, where the flattened IR is the
    /// authority.
    pub fn is_guarded(&self) -> bool {
        !self.variables.is_empty()
            || !self.params.is_empty()
            || self.states.iter().any(|s| {
                s.transitions
                    .values()
                    .flatten()
                    .any(|t| !t.guard.conditions().is_empty() || !t.updates.is_empty())
            })
    }

    /// Number of states in the tree (composites and leaves).
    pub fn state_count(&self) -> usize {
        self.states.len()
    }

    /// Number of composite (non-leaf) states.
    pub fn composite_count(&self) -> usize {
        self.states.iter().filter(|s| !s.is_leaf()).count()
    }

    /// Number of composites recording shallow history.
    pub fn history_count(&self) -> usize {
        self.history_states.len()
    }

    /// Total transitions declared across all states (before inheritance
    /// expansion), counting each guarded variant.
    pub fn transition_count(&self) -> usize {
        self.states
            .iter()
            .flat_map(|s| s.transitions.values())
            .map(Vec::len)
            .sum()
    }

    /// The state with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this machine.
    pub fn state(&self, id: HsmStateId) -> &HsmState {
        &self.states[id.index()]
    }

    /// Iterates over `(id, state)` pairs in declaration order.
    pub fn states_with_ids(&self) -> impl Iterator<Item = (HsmStateId, &HsmState)> {
        self.states
            .iter()
            .enumerate()
            .map(|(i, s)| (HsmStateId(i as u32), s))
    }

    /// Top-level states (those without a parent), in declaration order.
    pub fn top_level(&self) -> impl Iterator<Item = HsmStateId> + '_ {
        self.states_with_ids()
            .filter(|(_, s)| s.parent.is_none())
            .map(|(id, _)| id)
    }

    /// The declared start state (possibly a composite).
    pub fn start(&self) -> HsmStateId {
        self.start
    }

    /// The leaf the machine actually starts in, after descending through
    /// initial children from [`HierarchicalMachine::start`].
    pub fn start_leaf(&self) -> HsmStateId {
        self.start_leaf
    }

    /// Entry actions of the initial configuration (outermost-first down
    /// to the start leaf). These are *not* emitted by any delivery — no
    /// message triggers them — so both the direct interpreter and the
    /// flattened machine skip them; callers that need machine-start
    /// actions read them here.
    pub fn start_entry_actions(&self) -> Vec<Action> {
        let mut chain = Vec::new();
        let mut cur = Some(self.start);
        while let Some(s) = cur {
            chain.push(s);
            cur = self.states[s.index()].parent;
        }
        chain.reverse();
        let mut cur = self.start;
        while let Some(init) = self.states[cur.index()].initial {
            chain.push(init);
            cur = init;
        }
        chain
            .iter()
            .flat_map(|s| self.states[s.index()].entry.iter().cloned())
            .collect()
    }

    /// The canonical shallow-history memory of the initial
    /// configuration: every history composite remembers its initial
    /// child.
    pub fn initial_memory(&self) -> Vec<HsmStateId> {
        self.history_states
            .iter()
            .map(|&c| {
                self.states[c.index()]
                    .initial
                    .expect("history composites have children")
            })
            .collect()
    }

    /// The dotted root-to-state path, e.g. `Established.Commit.Voting`.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this machine.
    pub fn path_name(&self, id: HsmStateId) -> String {
        let mut chain = Vec::new();
        let mut cur = Some(id);
        while let Some(s) = cur {
            chain.push(self.states[s.index()].name.as_str());
            cur = self.states[s.index()].parent;
        }
        chain.reverse();
        chain.join(".")
    }

    /// The display name of a configuration: the active leaf's dotted
    /// path, decorated with `~<composite path>=<child>` for every
    /// history composite whose memory differs from its initial child.
    /// The decoration keys on the composite's full path (not its bare
    /// name) so equally named composites in different branches cannot
    /// make distinct configurations collide. Flattened states carry
    /// exactly these names, so the direct interpreter and the flat
    /// engines agree on [`ProtocolEngine::state_name`].
    pub fn config_name(&self, leaf: HsmStateId, memory: &[HsmStateId]) -> String {
        let mut name = self.path_name(leaf);
        for (slot, &comp) in self.history_states.iter().enumerate() {
            let initial = self.states[comp.index()]
                .initial
                .expect("history composite");
            if memory[slot] != initial {
                let _ = write!(
                    name,
                    "~{}={}",
                    self.path_name(comp),
                    self.states[memory[slot].index()].name
                );
            }
        }
        name
    }

    /// The lowest state that is a *proper* ancestor of both `a` and `b`
    /// (`None` at forest top level). For `a == b`, or one an ancestor of
    /// the other, this is the parent of the shallower state — giving
    /// external transitions their exit-and-re-enter reading.
    fn proper_lca(&self, a: HsmStateId, b: HsmStateId) -> Option<HsmStateId> {
        let mut ancestors_of_a = Vec::new();
        let mut cur = self.states[a.index()].parent;
        while let Some(p) = cur {
            ancestors_of_a.push(p);
            cur = self.states[p.index()].parent;
        }
        let mut cur = self.states[b.index()].parent;
        while let Some(p) = cur {
            if ancestors_of_a.contains(&p) {
                return Some(p);
            }
            cur = self.states[p.index()].parent;
        }
        None
    }

    /// The shared handler traversal: walks the ancestor chain from the
    /// active leaf outwards (inner declarations take priority over
    /// inherited outer ones), visiting each state's transitions for
    /// `message` in declaration order until `visit` returns `true`.
    /// Both handler-resolution strategies are built on it —
    /// [`HsmInstance::deliver_id`] stops at the first transition whose
    /// guard holds over the live registers, and
    /// [`HierarchicalMachine::candidates`] collects the whole priority
    /// list symbolically for the flattener — so the firing priority
    /// order has exactly one definition.
    fn walk_handlers<'a>(
        &'a self,
        leaf: HsmStateId,
        message: u16,
        mut visit: impl FnMut(HsmStateId, &'a HsmTransition) -> bool,
    ) {
        let mut cur = Some(leaf);
        while let Some(state) = cur {
            if let Some(ts) = self.states[state.index()].transitions.get(&message) {
                for t in ts {
                    if visit(state, t) {
                        return;
                    }
                }
            }
            cur = self.states[state.index()].parent;
        }
    }

    /// The candidate transitions for `(leaf, message)` in firing
    /// priority order ([`HierarchicalMachine::walk_handlers`] order),
    /// with the never-firing tail pruned: the scan stops after the
    /// first *unconditional* candidate — nothing declared after an
    /// always-true guard can ever fire — and an inherited candidate
    /// whose guard is *identical* to an inner one's is dropped for the
    /// same reason: whenever it would match, the inner declaration
    /// already won (and keeping it would look like a duplicate to the
    /// downstream compilers). At run time the first candidate whose
    /// guard holds wins; a state whose guards all fail falls through to
    /// its enclosing state's transitions.
    fn candidates(&self, leaf: HsmStateId, message: u16) -> Vec<(HsmStateId, &HsmTransition)> {
        let mut found: Vec<(HsmStateId, &HsmTransition)> = Vec::new();
        self.walk_handlers(leaf, message, |state, t| {
            if found.iter().any(|&(_, p)| p.guard == t.guard) {
                return false; // shadowed by an identical inner guard
            }
            found.push((state, t));
            t.guard.conditions().is_empty()
        });
        found
    }

    /// The run-to-completion kernel shared by [`HsmInstance`] and the
    /// flattening compiler: fires `transition` (declared on `handler`,
    /// an ancestor-or-self of the active `leaf`) from the configuration
    /// `(leaf, memory)`, appending the synthesized exit/transition/entry
    /// action sequence to `actions` and updating `memory` in place.
    /// Guard evaluation and variable updates are *not* performed here —
    /// the interpreter evaluates them against live registers, the
    /// flattener carries them symbolically into the IR. Returns the new
    /// active leaf (the same leaf for internal transitions).
    fn apply_transition(
        &self,
        leaf: HsmStateId,
        memory: &mut [HsmStateId],
        handler: HsmStateId,
        transition: &HsmTransition,
        actions: &mut Vec<Action>,
    ) -> HsmStateId {
        let (target, via_history) = match transition.target {
            HsmTarget::Internal => {
                actions.extend(transition.actions.iter().cloned());
                return leaf;
            }
            HsmTarget::State(t) => (t, false),
            HsmTarget::History(t) => (t, true),
        };

        let lca = self.proper_lca(handler, target);

        // Exit from the active leaf up to (but not including) the LCA,
        // innermost-first; exited history composites record their active
        // direct child.
        let mut cur = Some(leaf);
        let mut below: Option<HsmStateId> = None;
        while cur != lca {
            let s = cur.expect("the LCA is a proper ancestor of the active leaf");
            actions.extend(self.states[s.index()].exit.iter().cloned());
            if let (Some(slot), Some(child)) = (self.history_slot[s.index()], below) {
                memory[slot] = child;
            }
            below = Some(s);
            cur = self.states[s.index()].parent;
        }

        actions.extend(transition.actions.iter().cloned());

        // Enter from the LCA down to the target, outermost-first.
        let mut chain = Vec::new();
        let mut cur = Some(target);
        while cur != lca {
            let s = cur.expect("the LCA is a proper ancestor of the target");
            chain.push(s);
            cur = self.states[s.index()].parent;
        }
        for &s in chain.iter().rev() {
            actions.extend(self.states[s.index()].entry.iter().cloned());
        }

        // Descend below the target: history restores the remembered
        // child (already updated if the target itself was just exited),
        // then composites descend through initial children to a leaf.
        let mut cur = target;
        if via_history {
            let slot = self.history_slot[target.index()].expect("validated history target");
            let child = memory[slot];
            actions.extend(self.states[child.index()].entry.iter().cloned());
            cur = child;
        }
        while let Some(init) = self.states[cur.index()].initial {
            actions.extend(self.states[init.index()].entry.iter().cloned());
            cur = init;
        }
        cur
    }

    /// Lowers the statechart onto the unified flat IR
    /// ([`FlatIr`]) — the one lowering pipeline shared by guarded and
    /// unguarded statecharts.
    ///
    /// Flat states are the machine's *reachable configurations* (active
    /// leaf × shallow-history memory), discovered breadth-first from the
    /// initial configuration — so unreachable corners of the
    /// configuration product (e.g. a history memory that can never be
    /// recorded) are pruned by construction. The enumeration is
    /// *guard-aware*: a candidate transition whose guard is provably
    /// unsatisfiable ([`guard_unsat`](crate::interval::guard_unsat) —
    /// e.g. it conjoins the complementary `v + 1 < b` and `v + 1 ≥ b`)
    /// is skipped, so configurations reachable only through it are
    /// never enumerated. Each flat transition
    /// carries the full synthesized action sequence (exit actions
    /// innermost-first, then the transition's own actions, then entry
    /// actions outermost-first) plus the source transition's guard and
    /// updates, symbolically: a flat `(state, message)` cell lists every
    /// candidate in firing priority order (innermost state first,
    /// declaration order within a state, cut off at the first
    /// unconditional candidate), so every tier resolves guards exactly
    /// as the direct interpreter does. Compiling the result
    /// interns identical action sequences in the shared arena, so the
    /// expansion costs table cells, not arena bytes.
    ///
    /// Final leaves lower to absorbing [`StateRole::Finish`] states with
    /// no outgoing transitions; flat state names are
    /// [`HierarchicalMachine::config_name`]s, shared with
    /// [`HsmInstance::state_name`]. Unguarded statecharts produce an
    /// unguarded IR that lowers to the dense-table tier
    /// ([`CompiledMachine::compile_ir`](crate::CompiledMachine::compile_ir));
    /// guarded ones are bound and [`unfold`](crate::unfold)ed, or
    /// interpreted (see [`FlatIr::is_guarded`]).
    pub fn flatten_ir(&self) -> FlatIr {
        let flat_state = |leaf: HsmStateId, memory: &[HsmStateId]| FlatState {
            name: self.config_name(leaf, memory),
            role: self.states[leaf.index()].role,
            transitions: Vec::new(),
        };
        // A configuration is explored as (leaf, memory as a row).
        let mut memory = self.initial_memory();
        let mut states = vec![flat_state(self.start_leaf, &memory)];
        let mut row: Vec<i64> = memory.iter().map(|s| i64::from(s.0)).collect();
        let root = (self.start_leaf.0, row.clone());
        let Ok(_) = explore(memory.len(), [root], usize::MAX, |configs, from| {
            let leaf = HsmStateId(configs.heads()[from as usize]);
            if self.states[leaf.index()].role == StateRole::Finish {
                return Ok(()); // absorbing: no outgoing flat transitions
            }
            for m in (0..=u16::MAX).take(self.messages.len()) {
                for (handler, t) in self.candidates(leaf, m) {
                    // Guard-aware pruning: a provably unsatisfiable guard
                    // never fires, so nothing only it reaches is enumerated.
                    if crate::interval::guard_unsat(&t.guard) {
                        continue;
                    }
                    memory.clear();
                    memory.extend(configs.row(from).iter().map(|&s| HsmStateId(s as u32)));
                    let mut actions = Vec::new();
                    let target = self.apply_transition(leaf, &mut memory, handler, t, &mut actions);
                    row.clear();
                    row.extend(memory.iter().map(|s| i64::from(s.0)));
                    let (to, new) = configs
                        .visit(target.0, &row)
                        .expect("fewer configurations than u32 ids");
                    if new {
                        states.push(flat_state(target, &memory));
                    }
                    states[from as usize].transitions.push(FlatTransition {
                        message: m,
                        guard: t.guard.clone(),
                        updates: t.updates.clone(),
                        actions,
                        target: to,
                    });
                }
            }
            Ok::<_, std::convert::Infallible>(())
        });
        FlatIr {
            name: self.name.clone(),
            messages: self.messages.clone(),
            message_lookup: self.message_lookup.clone(),
            params: self.params.clone(),
            variables: self.variables.clone(),
            states,
            start: 0,
        }
    }

    /// Creates a direct-interpretation instance positioned at the
    /// initial configuration.
    ///
    /// # Panics
    ///
    /// Panics if the machine declares parameters (bind them with
    /// [`HierarchicalMachine::instance_with`]).
    pub fn instance(&self) -> HsmInstance<'_> {
        HsmInstance::new(self)
    }

    /// Creates a direct-interpretation instance with the given parameter
    /// binding.
    ///
    /// # Panics
    ///
    /// Panics if the number of parameters differs from the machine's
    /// declaration.
    pub fn instance_with(&self, params: Vec<i64>) -> HsmInstance<'_> {
        HsmInstance::with_params(self, params)
    }
}

/// Incremental builder for hierarchical machines.
///
/// States are declared top-down ([`HsmBuilder::add_state`] for top-level
/// states, [`HsmBuilder::add_child`] to nest); the first child added to
/// a state becomes its initial child (overridable with
/// [`HsmBuilder::set_initial`]). Like
/// [`StateMachineBuilder`](crate::StateMachineBuilder), the `add_*`
/// methods panic on invariant violations and have `try_*` twins
/// returning [`HsmError`] for generated or untrusted input;
/// [`HsmBuilder::build`] validates the tree invariants the flattening
/// compiler relies on.
#[derive(Debug)]
pub struct HsmBuilder {
    name: String,
    messages: Vec<String>,
    params: Vec<String>,
    variables: Vec<String>,
    states: Vec<HsmState>,
}

impl HsmBuilder {
    /// Starts a builder for a machine with the given message alphabet.
    ///
    /// # Panics
    ///
    /// Panics if `messages` is empty, has more than 65 536 entries or
    /// contains duplicates.
    pub fn new<I, S>(name: impl Into<String>, messages: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let messages: Vec<String> = messages.into_iter().map(Into::into).collect();
        if let Err(e) = check_alphabet(&messages) {
            panic!("{e}");
        }
        HsmBuilder {
            name: name.into(),
            messages,
            params: Vec::new(),
            variables: Vec::new(),
            states: Vec::new(),
        }
    }

    /// Declares an instance parameter (bound when an instance or
    /// compiled binding is created); returns its id for use in guards
    /// and updates.
    pub fn add_param(&mut self, name: impl Into<String>) -> ParamId {
        self.params.push(name.into());
        ParamId(self.params.len() - 1)
    }

    /// Declares a variable (per-instance register, initial value zero);
    /// returns its id for use in guards and updates.
    pub fn add_var(&mut self, name: impl Into<String>) -> VarId {
        self.variables.push(name.into());
        VarId(self.variables.len() - 1)
    }

    fn push_state(&mut self, name: String, parent: Option<HsmStateId>) -> HsmStateId {
        let id = HsmStateId(self.states.len() as u32);
        self.states.push(HsmState::new(name, parent));
        if let Some(p) = parent {
            let parent_state = &mut self.states[p.index()];
            parent_state.children.push(id);
            if parent_state.initial.is_none() {
                parent_state.initial = Some(id);
            }
        }
        id
    }

    fn check_id(&self, id: HsmStateId) -> Result<(), HsmError> {
        if id.index() >= self.states.len() {
            return Err(HsmError::StateOutOfRange {
                index: id.index(),
                states: self.states.len(),
            });
        }
        Ok(())
    }

    /// Adds a top-level state; returns its id.
    pub fn add_state(&mut self, name: impl Into<String>) -> HsmStateId {
        self.push_state(name.into(), None)
    }

    /// Adds a child of `parent` (turning `parent` into a composite);
    /// the first child added becomes the parent's initial child.
    ///
    /// # Panics
    ///
    /// Panics if `parent` is out of range.
    pub fn add_child(&mut self, parent: HsmStateId, name: impl Into<String>) -> HsmStateId {
        self.check_id(parent).unwrap_or_else(|e| panic!("{e}"));
        self.push_state(name.into(), Some(parent))
    }

    /// Overrides the initial child of a composite (validated against its
    /// children at [`HsmBuilder::build`] time).
    ///
    /// # Panics
    ///
    /// Panics if an id is out of range.
    pub fn set_initial(&mut self, composite: HsmStateId, child: HsmStateId) {
        self.check_id(composite).unwrap_or_else(|e| panic!("{e}"));
        self.check_id(child).unwrap_or_else(|e| panic!("{e}"));
        self.states[composite.index()].initial = Some(child);
    }

    /// Enables shallow history on a composite: when it is exited, the
    /// active direct child is remembered, and transitions targeting its
    /// history pseudostate re-enter that child.
    ///
    /// # Panics
    ///
    /// Panics if `composite` is out of range.
    pub fn enable_history(&mut self, composite: HsmStateId) {
        self.check_id(composite).unwrap_or_else(|e| panic!("{e}"));
        self.states[composite.index()].history = true;
    }

    /// Appends entry actions to a state (performed whenever the state is
    /// entered, outermost-first along an entry chain).
    ///
    /// # Panics
    ///
    /// Panics if `state` is out of range.
    pub fn on_entry(&mut self, state: HsmStateId, actions: Vec<Action>) {
        self.check_id(state).unwrap_or_else(|e| panic!("{e}"));
        self.states[state.index()].entry.extend(actions);
    }

    /// Appends exit actions to a state (performed whenever the state is
    /// exited, innermost-first along an exit chain).
    ///
    /// # Panics
    ///
    /// Panics if `state` is out of range.
    pub fn on_exit(&mut self, state: HsmStateId, actions: Vec<Action>) {
        self.check_id(state).unwrap_or_else(|e| panic!("{e}"));
        self.states[state.index()].exit.extend(actions);
    }

    /// Marks a leaf as final: its configurations lower to absorbing
    /// [`StateRole::Finish`] flat states.
    ///
    /// # Panics
    ///
    /// Panics if `state` is out of range.
    pub fn mark_final(&mut self, state: HsmStateId) {
        self.check_id(state).unwrap_or_else(|e| panic!("{e}"));
        self.states[state.index()].role = StateRole::Finish;
    }

    fn try_add(
        &mut self,
        from: HsmStateId,
        message: &str,
        target: HsmTarget,
        guard: Guard,
        updates: Vec<Update>,
        actions: Vec<Action>,
    ) -> Result<(), HsmError> {
        let mid = self
            .messages
            .iter()
            .position(|m| m == message)
            .ok_or_else(|| HsmError::UnknownMessage(message.to_string()))? as u16;
        self.check_id(from)?;
        match target {
            HsmTarget::State(t) | HsmTarget::History(t) => self.check_id(t)?,
            HsmTarget::Internal => {}
        }
        check_operands(&guard, &updates, self.variables.len(), self.params.len()).map_err(
            |operand| match operand {
                Operand::Var(v) => HsmError::VariableOutOfRange {
                    index: v.index(),
                    variables: self.variables.len(),
                },
                Operand::Param(p) => HsmError::ParamOutOfRange {
                    index: p.index(),
                    params: self.params.len(),
                },
            },
        )?;
        let state = &mut self.states[from.index()];
        if let Some(list) = state.transitions.get(&mid) {
            // Identical guards can never both be useful: the second
            // silently loses every race.
            if list.iter().any(|p| p.guard == guard) {
                return Err(HsmError::DuplicateTransition {
                    state: state.name.clone(),
                    message: message.to_string(),
                });
            }
            // A transition declared after an unconditional one on the
            // same message can never fire either (declaration order is
            // firing priority, and an always-true guard always wins).
            if list.iter().any(|p| p.guard.conditions().is_empty()) {
                return Err(HsmError::ShadowedTransition {
                    state: state.name.clone(),
                    message: message.to_string(),
                });
            }
        }
        state
            .transitions
            .entry(mid)
            .or_default()
            .push(HsmTransition {
                target,
                guard,
                updates,
                actions,
            });
        Ok(())
    }

    /// Adds an external transition from `from` on `message` to `to`
    /// (inherited by every descendant of `from` unless overridden).
    ///
    /// # Panics
    ///
    /// Panics if the message is unknown, an id is invalid, or `(from,
    /// message)` already has a transition.
    pub fn add_transition(
        &mut self,
        from: HsmStateId,
        message: &str,
        to: HsmStateId,
        actions: Vec<Action>,
    ) {
        self.try_add_transition(from, message, to, actions)
            .unwrap_or_else(|e| panic!("{e}"));
    }

    /// Fallible form of [`HsmBuilder::add_transition`].
    ///
    /// # Errors
    ///
    /// [`HsmError::UnknownMessage`], [`HsmError::StateOutOfRange`] or
    /// [`HsmError::DuplicateTransition`].
    pub fn try_add_transition(
        &mut self,
        from: HsmStateId,
        message: &str,
        to: HsmStateId,
        actions: Vec<Action>,
    ) -> Result<(), HsmError> {
        self.try_add(
            from,
            message,
            HsmTarget::State(to),
            Guard::always(),
            Vec::new(),
            actions,
        )
    }

    /// Adds a *guarded* external transition: it fires only while `guard`
    /// holds over the machine's variables and parameters, applying
    /// `updates` (each reading the pre-transition variable values) when
    /// it does. Several guarded transitions may share a `(state,
    /// message)` pair; declaration order is firing priority, and a state
    /// whose guards all fail falls through to inherited transitions on
    /// enclosing states.
    ///
    /// # Panics
    ///
    /// As for [`HsmBuilder::add_transition`], plus if the guard or an
    /// update references an undeclared variable or parameter, or the
    /// transition is unreachable (declared after an unconditional one on
    /// the same message).
    pub fn add_guarded_transition(
        &mut self,
        from: HsmStateId,
        message: &str,
        guard: Guard,
        updates: Vec<Update>,
        to: HsmStateId,
        actions: Vec<Action>,
    ) {
        self.try_add_guarded_transition(from, message, guard, updates, to, actions)
            .unwrap_or_else(|e| panic!("{e}"));
    }

    /// Fallible form of [`HsmBuilder::add_guarded_transition`].
    ///
    /// # Errors
    ///
    /// As for [`HsmBuilder::try_add_transition`], plus
    /// [`HsmError::VariableOutOfRange`] / [`HsmError::ParamOutOfRange`]
    /// for dangling operand ids and [`HsmError::ShadowedTransition`] for
    /// a transition declared after an unconditional one.
    pub fn try_add_guarded_transition(
        &mut self,
        from: HsmStateId,
        message: &str,
        guard: Guard,
        updates: Vec<Update>,
        to: HsmStateId,
        actions: Vec<Action>,
    ) -> Result<(), HsmError> {
        self.try_add(from, message, HsmTarget::State(to), guard, updates, actions)
    }

    /// Adds an external transition into the shallow-history pseudostate
    /// of `composite` (which must have history enabled by
    /// [`HsmBuilder::build`] time).
    ///
    /// # Panics
    ///
    /// As for [`HsmBuilder::add_transition`].
    pub fn add_history_transition(
        &mut self,
        from: HsmStateId,
        message: &str,
        composite: HsmStateId,
        actions: Vec<Action>,
    ) {
        self.try_add_history_transition(from, message, composite, actions)
            .unwrap_or_else(|e| panic!("{e}"));
    }

    /// Fallible form of [`HsmBuilder::add_history_transition`].
    ///
    /// # Errors
    ///
    /// As for [`HsmBuilder::try_add_transition`].
    pub fn try_add_history_transition(
        &mut self,
        from: HsmStateId,
        message: &str,
        composite: HsmStateId,
        actions: Vec<Action>,
    ) -> Result<(), HsmError> {
        self.try_add(
            from,
            message,
            HsmTarget::History(composite),
            Guard::always(),
            Vec::new(),
            actions,
        )
    }

    /// Adds a guarded transition into the shallow-history pseudostate of
    /// `composite` (see [`HsmBuilder::add_guarded_transition`] for the
    /// guard/update semantics).
    ///
    /// # Panics
    ///
    /// As for [`HsmBuilder::add_guarded_transition`].
    pub fn add_guarded_history_transition(
        &mut self,
        from: HsmStateId,
        message: &str,
        guard: Guard,
        updates: Vec<Update>,
        composite: HsmStateId,
        actions: Vec<Action>,
    ) {
        self.try_add_guarded_history_transition(from, message, guard, updates, composite, actions)
            .unwrap_or_else(|e| panic!("{e}"));
    }

    /// Fallible form of [`HsmBuilder::add_guarded_history_transition`].
    ///
    /// # Errors
    ///
    /// As for [`HsmBuilder::try_add_guarded_transition`].
    pub fn try_add_guarded_history_transition(
        &mut self,
        from: HsmStateId,
        message: &str,
        guard: Guard,
        updates: Vec<Update>,
        composite: HsmStateId,
        actions: Vec<Action>,
    ) -> Result<(), HsmError> {
        self.try_add(
            from,
            message,
            HsmTarget::History(composite),
            guard,
            updates,
            actions,
        )
    }

    /// Adds an internal transition on `from`: `actions` fire but the
    /// configuration is unchanged and no entry/exit actions run.
    ///
    /// # Panics
    ///
    /// As for [`HsmBuilder::add_transition`].
    pub fn add_internal_transition(
        &mut self,
        from: HsmStateId,
        message: &str,
        actions: Vec<Action>,
    ) {
        self.try_add_internal_transition(from, message, actions)
            .unwrap_or_else(|e| panic!("{e}"));
    }

    /// Fallible form of [`HsmBuilder::add_internal_transition`].
    ///
    /// # Errors
    ///
    /// As for [`HsmBuilder::try_add_transition`].
    pub fn try_add_internal_transition(
        &mut self,
        from: HsmStateId,
        message: &str,
        actions: Vec<Action>,
    ) -> Result<(), HsmError> {
        self.try_add(
            from,
            message,
            HsmTarget::Internal,
            Guard::always(),
            Vec::new(),
            actions,
        )
    }

    /// Adds a guarded internal transition: `actions` fire and `updates`
    /// apply while `guard` holds, with the configuration unchanged and
    /// no entry/exit actions run.
    ///
    /// # Panics
    ///
    /// As for [`HsmBuilder::add_guarded_transition`].
    pub fn add_guarded_internal_transition(
        &mut self,
        from: HsmStateId,
        message: &str,
        guard: Guard,
        updates: Vec<Update>,
        actions: Vec<Action>,
    ) {
        self.try_add_guarded_internal_transition(from, message, guard, updates, actions)
            .unwrap_or_else(|e| panic!("{e}"));
    }

    /// Fallible form of [`HsmBuilder::add_guarded_internal_transition`].
    ///
    /// # Errors
    ///
    /// As for [`HsmBuilder::try_add_guarded_transition`].
    pub fn try_add_guarded_internal_transition(
        &mut self,
        from: HsmStateId,
        message: &str,
        guard: Guard,
        updates: Vec<Update>,
        actions: Vec<Action>,
    ) -> Result<(), HsmError> {
        self.try_add(from, message, HsmTarget::Internal, guard, updates, actions)
    }

    /// Finalises the machine, validating the tree invariants.
    ///
    /// # Panics
    ///
    /// Panics on any [`HsmError`] reported by [`HsmBuilder::try_build`].
    pub fn build(self, start: HsmStateId) -> HierarchicalMachine {
        self.try_build(start).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Finalises the machine, reporting invariant violations as a
    /// [`HsmError`] — for callers constructing machines from generated
    /// or untrusted input.
    ///
    /// # Errors
    ///
    /// [`HsmError::StateOutOfRange`] if `start` is invalid;
    /// [`HsmError::InvalidStateName`] /
    /// [`HsmError::DuplicateSiblingName`] if a name is empty, contains a
    /// reserved separator, or collides with a sibling;
    /// [`HsmError::InitialNotChild`] if a composite's initial is not its
    /// own child; [`HsmError::HistoryOnLeaf`] /
    /// [`HsmError::FinalNotLeaf`] /
    /// [`HsmError::InvalidHistoryTarget`] for misplaced history or
    /// final markers.
    pub fn try_build(self, start: HsmStateId) -> Result<HierarchicalMachine, HsmError> {
        self.check_id(start)?;

        // Names: non-empty, free of reserved separators, unique among
        // siblings (so configuration names are unambiguous).
        let mut sibling_names: HashMap<(Option<HsmStateId>, &str), ()> = HashMap::new();
        for s in &self.states {
            if s.name.is_empty() || s.name.contains(['.', '~', '=']) {
                return Err(HsmError::InvalidStateName(s.name.clone()));
            }
            if sibling_names
                .insert((s.parent, s.name.as_str()), ())
                .is_some()
            {
                return Err(HsmError::DuplicateSiblingName(s.name.clone()));
            }
        }

        for (i, s) in self.states.iter().enumerate() {
            let id = HsmStateId(i as u32);
            if let Some(init) = s.initial {
                if self.states[init.index()].parent != Some(id) {
                    return Err(HsmError::InitialNotChild {
                        composite: s.name.clone(),
                        initial: self.states[init.index()].name.clone(),
                    });
                }
            }
            if s.history && s.is_leaf() {
                return Err(HsmError::HistoryOnLeaf(s.name.clone()));
            }
            if s.role == StateRole::Finish && !s.is_leaf() {
                return Err(HsmError::FinalNotLeaf(s.name.clone()));
            }
            for t in s.transitions.values().flatten() {
                if let HsmTarget::History(c) = t.target {
                    let target = &self.states[c.index()];
                    if !target.history || target.is_leaf() {
                        return Err(HsmError::InvalidHistoryTarget(target.name.clone()));
                    }
                }
            }
        }

        let history_states: Vec<HsmStateId> = self
            .states
            .iter()
            .enumerate()
            .filter(|(_, s)| s.history)
            .map(|(i, _)| HsmStateId(i as u32))
            .collect();
        let mut history_slot = vec![None; self.states.len()];
        for (slot, &c) in history_states.iter().enumerate() {
            history_slot[c.index()] = Some(slot);
        }
        let mut start_leaf = start;
        while let Some(init) = self.states[start_leaf.index()].initial {
            start_leaf = init;
        }
        Ok(HierarchicalMachine {
            name: self.name,
            message_lookup: FlatIr::build_lookup(&self.messages),
            messages: self.messages,
            params: self.params,
            variables: self.variables,
            states: self.states,
            start,
            start_leaf,
            history_states,
            history_slot,
        })
    }
}

/// One executing instance of a [`HierarchicalMachine`]: the direct
/// interpreter over the statechart, and the semantic reference the
/// flattened machines are property-checked against.
///
/// Each delivery resolves the innermost handler by walking the active
/// leaf's ancestor chain and synthesizes the exit/transition/entry
/// action sequence into an internal scratch buffer (reused across
/// deliveries; [`ProtocolEngine::deliver_ref`] borrows from it). Use it
/// for freshly authored statecharts and debugging; flatten and compile
/// for serving traffic.
#[derive(Debug, Clone)]
pub struct HsmInstance<'h> {
    machine: &'h HierarchicalMachine,
    leaf: HsmStateId,
    memory: Vec<HsmStateId>,
    params: Vec<i64>,
    vars: Vec<i64>,
    /// Pre-transition variable snapshot, reused across deliveries so the
    /// hot path does not allocate.
    old_vars: Vec<i64>,
    steps: u64,
    scratch: Vec<Action>,
}

impl<'h> HsmInstance<'h> {
    /// Creates an instance positioned at the initial configuration.
    ///
    /// # Panics
    ///
    /// Panics if the machine declares parameters; bind them with
    /// [`HsmInstance::with_params`].
    pub fn new(machine: &'h HierarchicalMachine) -> Self {
        HsmInstance::with_params(machine, Vec::new())
    }

    /// Creates an instance positioned at the initial configuration with
    /// the given parameter binding; variables start at zero.
    ///
    /// # Panics
    ///
    /// Panics if the number of parameters differs from the machine's
    /// declaration.
    pub fn with_params(machine: &'h HierarchicalMachine, params: Vec<i64>) -> Self {
        assert_eq!(
            params.len(),
            machine.params().len(),
            "wrong parameter count"
        );
        HsmInstance {
            machine,
            leaf: machine.start_leaf(),
            memory: machine.initial_memory(),
            params,
            vars: vec![0; machine.variables().len()],
            old_vars: vec![0; machine.variables().len()],
            steps: 0,
            scratch: Vec::new(),
        }
    }

    /// The machine this instance executes.
    pub fn machine(&self) -> &'h HierarchicalMachine {
        self.machine
    }

    /// Current variable values, in declaration order.
    pub fn vars(&self) -> &[i64] {
        &self.vars
    }

    /// The bound parameter values.
    pub fn params(&self) -> &[i64] {
        &self.params
    }

    /// The active leaf state.
    pub fn leaf(&self) -> HsmStateId {
        self.leaf
    }

    /// The shallow-history memory, one remembered direct child per
    /// history composite (in [`HierarchicalMachine`] id order).
    pub fn memory(&self) -> &[HsmStateId] {
        &self.memory
    }

    /// Number of transitions taken so far (internal transitions count).
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// `true` if `state` is the active leaf or one of its ancestors —
    /// the statechart notion of "being in" a composite state.
    ///
    /// # Panics
    ///
    /// Panics if `state` is out of range.
    pub fn is_in(&self, state: HsmStateId) -> bool {
        let mut cur = Some(self.leaf);
        while let Some(s) = cur {
            if s == state {
                return true;
            }
            cur = self.machine.state(s).parent();
        }
        false
    }

    /// Delivers a message by id; returns the synthesized action sequence
    /// (borrowed from an internal scratch buffer valid until the next
    /// delivery).
    ///
    /// The handler is resolved innermost-first with guard fall-through:
    /// walking the active leaf's ancestor chain, the first transition
    /// (declaration order within a state) whose guard holds over the
    /// live variable registers fires; its updates apply with the EFSM
    /// tiers' staged read-pre-transition-values semantics.
    pub fn deliver_id(&mut self, message: MessageId) -> &[Action] {
        self.scratch.clear();
        let machine = self.machine;
        if machine.state(self.leaf).role() == StateRole::Finish {
            return &self.scratch;
        }
        // Innermost handler wins; a state whose guards all fail falls
        // through to the enclosing state's (inherited) transitions.
        let mut fired: Option<(HsmStateId, &HsmTransition)> = None;
        let (vars, params) = (&self.vars, &self.params);
        machine.walk_handlers(self.leaf, message.0, |state, t| {
            if t.guard.eval(vars, params) {
                fired = Some((state, t));
                return true;
            }
            false
        });
        let Some((handler, transition)) = fired else {
            return &self.scratch;
        };
        crate::efsm::apply_staged_updates(
            &transition.updates,
            &mut self.vars,
            &mut self.old_vars,
            &self.params,
        );
        self.leaf = machine.apply_transition(
            self.leaf,
            &mut self.memory,
            handler,
            transition,
            &mut self.scratch,
        );
        self.steps += 1;
        &self.scratch
    }
}

impl ProtocolEngine for HsmInstance<'_> {
    fn deliver_ref(&mut self, message: &str) -> Result<&[Action], InterpError> {
        let id = self
            .machine
            .message_id(message)
            .ok_or_else(|| InterpError::UnknownMessage(message.to_string()))?;
        Ok(self.deliver_id(id))
    }

    fn is_finished(&self) -> bool {
        self.machine.state(self.leaf).role() == StateRole::Finish
    }

    fn state_name(&self) -> Cow<'_, str> {
        Cow::Owned(self.machine.config_name(self.leaf, &self.memory))
    }

    fn reset(&mut self) {
        self.leaf = self.machine.start_leaf();
        self.memory = self.machine.initial_memory();
        self.vars.fill(0);
        self.steps = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiled::CompiledMachine;

    /// Connection lifecycle: Idle, Up{A, B} with history, Down.
    fn connection() -> HierarchicalMachine {
        let mut b = HsmBuilder::new("conn", ["open", "work", "drop", "resume", "kill"]);
        let idle = b.add_state("Idle");
        let up = b.add_state("Up");
        let a = b.add_child(up, "A");
        let bb = b.add_child(up, "B");
        let down = b.add_state("Down");
        b.mark_final(down);
        b.enable_history(up);
        b.on_entry(up, vec![Action::send("up_in")]);
        b.on_exit(up, vec![Action::send("up_out")]);
        b.on_entry(a, vec![Action::send("a_in")]);
        b.on_exit(a, vec![Action::send("a_out")]);
        b.on_entry(bb, vec![Action::send("b_in")]);
        b.add_transition(idle, "open", up, vec![Action::send("syn")]);
        b.add_transition(a, "work", bb, vec![]);
        b.add_transition(up, "drop", idle, vec![Action::send("fin")]);
        b.add_history_transition(idle, "resume", up, vec![]);
        b.add_transition(up, "kill", down, vec![]);
        b.build(idle)
    }

    #[test]
    fn entry_exit_and_inheritance() {
        let m = connection();
        let mut i = m.instance();
        assert_eq!(i.state_name(), "Idle");
        // open: enter Up then A, transition action first after exits.
        assert_eq!(
            i.deliver_ref("open").unwrap(),
            [
                Action::send("syn"),
                Action::send("up_in"),
                Action::send("a_in")
            ]
        );
        assert_eq!(i.state_name(), "Up.A");
        let up = m
            .states_with_ids()
            .find(|(_, s)| s.name() == "Up")
            .unwrap()
            .0;
        assert!(i.is_in(up));
        assert!(i.is_in(i.leaf()));
        let down = m
            .states_with_ids()
            .find(|(_, s)| s.name() == "Down")
            .unwrap()
            .0;
        assert!(!i.is_in(down));
        // drop is declared on Up, inherited by A: exits A then Up.
        assert_eq!(
            i.deliver_ref("drop").unwrap(),
            [
                Action::send("a_out"),
                Action::send("up_out"),
                Action::send("fin")
            ]
        );
        assert_eq!(i.state_name(), "Idle");
        assert_eq!(i.steps(), 2);
    }

    #[test]
    fn shallow_history_restores_last_child() {
        let m = connection();
        let mut i = m.instance();
        i.deliver_ref("open").unwrap();
        i.deliver_ref("work").unwrap(); // now Up.B
        assert_eq!(i.state_name(), "Up.B");
        i.deliver_ref("drop").unwrap(); // memory: Up -> B
        assert_eq!(i.state_name(), "Idle~Up=B");
        assert_eq!(
            i.deliver_ref("resume").unwrap(),
            [Action::send("up_in"), Action::send("b_in")]
        );
        assert_eq!(i.state_name(), "Up.B~Up=B");
    }

    #[test]
    fn cold_history_enters_initial_child() {
        let m = connection();
        let mut i = m.instance();
        assert_eq!(
            i.deliver_ref("resume").unwrap(),
            [Action::send("up_in"), Action::send("a_in")]
        );
        assert_eq!(i.state_name(), "Up.A");
    }

    #[test]
    fn final_leaf_absorbs() {
        let m = connection();
        let mut i = m.instance();
        i.deliver_ref("open").unwrap();
        i.deliver_ref("kill").unwrap();
        assert!(i.is_finished());
        assert_eq!(i.state_name(), "Down");
        assert!(i.deliver_ref("open").unwrap().is_empty());
        assert_eq!(i.steps(), 2);
    }

    #[test]
    fn inapplicable_and_unknown_messages() {
        let m = connection();
        let mut i = m.instance();
        assert!(i.deliver_ref("work").unwrap().is_empty()); // not applicable in Idle
        assert_eq!(i.steps(), 0);
        assert_eq!(
            i.deliver_ref("zap").map(<[Action]>::to_vec),
            Err(InterpError::UnknownMessage("zap".into()))
        );
    }

    #[test]
    fn internal_transition_keeps_configuration() {
        let mut b = HsmBuilder::new("m", ["ping", "poke"]);
        let top = b.add_state("Top");
        let inner = b.add_child(top, "Inner");
        b.on_entry(inner, vec![Action::send("in")]);
        b.on_exit(inner, vec![Action::send("out")]);
        b.add_internal_transition(top, "ping", vec![Action::send("pong")]);
        let m = b.build(top);
        let mut i = m.instance();
        assert_eq!(i.deliver_ref("ping").unwrap(), [Action::send("pong")]);
        assert_eq!(i.state_name(), "Top.Inner"); // no exit/entry ran
        assert_eq!(i.steps(), 1);
        // Flat form is a self-loop with just the transition actions.
        let flat = m.flatten_ir();
        let mut f = flat.instance(vec![]);
        assert_eq!(f.deliver_ref("ping").unwrap(), [Action::send("pong")]);
        assert_eq!(f.state_name(), "Top.Inner");
        assert_eq!(f.steps(), 1);
    }

    #[test]
    fn external_self_transition_exits_and_reenters() {
        let mut b = HsmBuilder::new("m", ["again"]);
        let s = b.add_state("S");
        b.on_entry(s, vec![Action::send("in")]);
        b.on_exit(s, vec![Action::send("out")]);
        b.add_transition(s, "again", s, vec![Action::send("mid")]);
        let m = b.build(s);
        let mut i = m.instance();
        assert_eq!(
            i.deliver_ref("again").unwrap(),
            [Action::send("out"), Action::send("mid"), Action::send("in")]
        );
    }

    #[test]
    fn flatten_matches_reference_on_the_connection_machine() {
        let m = connection();
        let flat = m.flatten_ir();
        let mut reference = m.instance();
        let mut interp = flat.instance(vec![]);
        let fast = CompiledMachine::compile_ir(&flat).unwrap();
        let mut state = fast.start();
        let trace = [
            "resume", "work", "drop", "open", "work", "drop", "resume", "work", "kill", "open",
        ];
        for msg in trace {
            let want = reference.deliver_ref(msg).unwrap().to_vec();
            assert_eq!(
                interp.deliver_ref(msg).unwrap(),
                want.as_slice(),
                "at {msg}"
            );
            let id = fast.message_id(msg).unwrap();
            let (to, actions) = fast.step(state, id).unwrap_or((state, &[]));
            assert_eq!(actions, want.as_slice(), "at {msg}");
            state = to;
            assert_eq!(reference.state_name(), interp.state_name(), "at {msg}");
            assert_eq!(interp.state_name(), fast.state_name(state), "at {msg}");
            assert_eq!(
                reference.is_finished(),
                fast.is_finish_state(state),
                "at {msg}"
            );
        }
        assert_eq!(reference.steps(), interp.steps());
    }

    #[test]
    fn flatten_prunes_unreachable_memories() {
        let m = connection();
        let flat = m.flatten_ir();
        let has = |name: &str| flat.states().iter().any(|s| s.name() == name);
        // Configurations: Idle×{A,B}, Up.A×{A,B}, Up.B×{A,B}, Down×{A,B};
        // (Up.A, mem=B) is reachable via resume-then-work from mem=B, and
        // Down merges per-memory. All 8 are reachable here.
        assert_eq!(flat.state_count(), 8);
        assert!(has("Idle") && has("Idle~Up=B") && has("Up.B~Up=B"));
    }

    /// The widest alphabet an artifact may carry, 65 536 messages, keeps
    /// its last message's transition; one more is refused at the builder.
    #[test]
    fn flatten_keeps_the_last_of_65536_messages() {
        let messages: Vec<String> = (0..=u16::MAX).map(|i| format!("m{i}")).collect();
        let mut b = HsmBuilder::new("wide", messages.clone());
        let (idle, done) = (b.add_state("Idle"), b.add_state("Done"));
        b.mark_final(done);
        b.add_transition(idle, "m65535", done, vec![Action::send("bye")]);
        let flat = b.build(idle).flatten_ir();
        assert_eq!(flat.states()[0].transitions().len(), 1);
        let fast = CompiledMachine::compile_ir(&flat).unwrap();
        let last = fast.message_id("m65535").unwrap();
        let (to, actions) = fast.step(fast.start(), last).unwrap();
        assert_eq!(actions, [Action::send("bye")]);
        assert!(fast.is_finish_state(to));
        let more = messages.into_iter().chain(["m65536".into()]);
        assert!(std::panic::catch_unwind(|| HsmBuilder::new("wider", more)).is_err());
    }

    #[test]
    fn start_entry_actions_are_reported_not_emitted() {
        let m = connection();
        assert!(m.start_entry_actions().is_empty()); // Idle has no entry actions
        let mut b = HsmBuilder::new("m", ["x"]);
        let top = b.add_state("Top");
        let inner = b.add_child(top, "Inner");
        b.on_entry(top, vec![Action::send("t")]);
        b.on_entry(inner, vec![Action::send("i")]);
        let m = b.build(top);
        assert_eq!(
            m.start_entry_actions(),
            [Action::send("t"), Action::send("i")]
        );
        assert_eq!(m.start_leaf(), inner);
    }

    #[test]
    fn builder_validation() {
        let mut b = HsmBuilder::new("m", ["x"]);
        let s = b.add_state("S");
        assert_eq!(
            b.try_add_transition(s, "zap", s, vec![]),
            Err(HsmError::UnknownMessage("zap".into()))
        );
        assert_eq!(
            b.try_add_transition(s, "x", HsmStateId(9), vec![]),
            Err(HsmError::StateOutOfRange {
                index: 9,
                states: 1
            })
        );
        b.add_transition(s, "x", s, vec![]);
        assert_eq!(
            b.try_add_transition(s, "x", s, vec![]),
            Err(HsmError::DuplicateTransition {
                state: "S".into(),
                message: "x".into()
            })
        );
        // History transition to a plain leaf is rejected at build time.
        let mut b = HsmBuilder::new("m", ["x"]);
        let s = b.add_state("S");
        let t = b.add_state("T");
        b.add_history_transition(s, "x", t, vec![]);
        assert_eq!(
            b.try_build(s),
            Err(HsmError::InvalidHistoryTarget("T".into()))
        );
        // History on a leaf.
        let mut b = HsmBuilder::new("m", ["x"]);
        let s = b.add_state("S");
        b.enable_history(s);
        assert_eq!(b.try_build(s), Err(HsmError::HistoryOnLeaf("S".into())));
        // Final composite.
        let mut b = HsmBuilder::new("m", ["x"]);
        let s = b.add_state("S");
        b.add_child(s, "C");
        b.mark_final(s);
        assert_eq!(b.try_build(s), Err(HsmError::FinalNotLeaf("S".into())));
        // Initial not a child.
        let mut b = HsmBuilder::new("m", ["x"]);
        let s = b.add_state("S");
        b.add_child(s, "C");
        let other = b.add_state("Other");
        b.set_initial(s, other);
        assert_eq!(
            b.try_build(s),
            Err(HsmError::InitialNotChild {
                composite: "S".into(),
                initial: "Other".into()
            })
        );
        // Reserved separator in a name.
        let mut b = HsmBuilder::new("m", ["x"]);
        let s = b.add_state("A.B");
        assert_eq!(
            b.try_build(s),
            Err(HsmError::InvalidStateName("A.B".into()))
        );
        // Duplicate sibling name.
        let mut b = HsmBuilder::new("m", ["x"]);
        let s = b.add_state("S");
        b.add_child(s, "C");
        b.add_child(s, "C");
        assert_eq!(
            b.try_build(s),
            Err(HsmError::DuplicateSiblingName("C".into()))
        );
    }

    #[test]
    fn accessors_expose_the_tree() {
        let m = connection();
        assert_eq!(m.name(), "conn");
        assert_eq!(m.state_count(), 5);
        assert_eq!(m.composite_count(), 1);
        assert_eq!(m.history_count(), 1);
        assert_eq!(m.transition_count(), 5);
        let up = m
            .states_with_ids()
            .find(|(_, s)| s.name() == "Up")
            .unwrap()
            .0;
        let state = m.state(up);
        assert!(!state.is_leaf());
        assert!(state.has_history());
        assert_eq!(state.children().len(), 2);
        assert_eq!(state.initial(), Some(state.children()[0]));
        assert_eq!(m.path_name(state.children()[1]), "Up.B");
        assert_eq!(state.entry_actions(), [Action::send("up_in")]);
        assert_eq!(state.exit_actions(), [Action::send("up_out")]);
        assert_eq!(m.top_level().count(), 3);
        let (mid, t) = state.transitions().next().unwrap();
        assert_eq!(m.messages()[mid.index()], "drop");
        assert!(matches!(t.target(), HsmTarget::State(_)));
        assert_eq!(t.actions(), [Action::send("fin")]);
        assert_eq!(m.message_id("open").map(MessageId::index), Some(0));
    }

    #[test]
    fn cousin_history_composites_with_equal_names_stay_distinct() {
        // Two composites both named `W` (legal: not siblings), both with
        // history. Decorations key on the full path, so configurations
        // differing only in which `W`'s memory moved get distinct names
        // — and the flat machine has no duplicate state names.
        let mut b = HsmBuilder::new("cousins", ["go", "swap", "park", "back"]);
        let a = b.add_state("A");
        let aw = b.add_child(a, "W");
        let ap = b.add_child(aw, "p");
        let aq = b.add_child(aw, "q");
        let bb = b.add_state("B");
        let bw = b.add_child(bb, "W");
        let bp = b.add_child(bw, "p");
        let bq = b.add_child(bw, "q");
        b.enable_history(aw);
        b.enable_history(bw);
        let park = b.add_state("Park");
        b.add_transition(ap, "swap", aq, vec![]);
        b.add_transition(bp, "swap", bq, vec![]);
        b.add_transition(a, "go", bp, vec![]);
        b.add_transition(bb, "go", ap, vec![]);
        b.add_transition(a, "park", park, vec![]);
        b.add_transition(bb, "park", park, vec![]);
        b.add_history_transition(park, "back", aw, vec![]);
        let m = b.build(a);

        let mut i = m.instance();
        i.deliver_ref("swap").unwrap(); // A.W.q
        i.deliver_ref("park").unwrap(); // memory: A.W -> q
        assert_eq!(i.state_name(), "Park~A.W=q");
        i.reset();
        i.deliver_ref("go").unwrap(); // B.W.p (A.W memory stays p)
        i.deliver_ref("swap").unwrap(); // B.W.q
        i.deliver_ref("park").unwrap(); // memory: B.W -> q
        assert_eq!(i.state_name(), "Park~B.W=q");

        let flat = m.flatten_ir();
        let mut names: Vec<&str> = flat.states().iter().map(|s| s.name()).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "flattened state names must be unique");
        assert!(names.contains(&"Park~A.W=q") && names.contains(&"Park~B.W=q"));
    }

    #[test]
    fn reset_restores_initial_configuration() {
        let m = connection();
        let mut i = m.instance();
        i.deliver_ref("open").unwrap();
        i.deliver_ref("work").unwrap();
        i.deliver_ref("drop").unwrap();
        assert_eq!(i.state_name(), "Idle~Up=B");
        i.reset();
        assert_eq!(i.state_name(), "Idle");
        assert_eq!(i.steps(), 0);
        assert_eq!(i.memory(), m.initial_memory());
    }

    use crate::efsm::{CmpOp, LinExpr};

    /// A guarded statechart: a worker with a retry budget. `fail` in
    /// `Busy` retries (back to `Busy`, incrementing `tries`) while below
    /// the budget, and escalates into the `Down` superstate once the
    /// budget is spent. The budget is an instance parameter.
    fn retrying() -> HierarchicalMachine {
        let mut b = HsmBuilder::new("retrying", ["go", "fail", "done", "reset"]);
        let budget = b.add_param("budget");
        let tries = b.add_var("tries");
        let idle = b.add_state("Idle");
        let up = b.add_state("Up");
        let busy = b.add_child(up, "Busy");
        let down = b.add_state("Down");
        let probe = b.add_child(down, "Probe");
        b.on_entry(up, vec![Action::send("up_in")]);
        b.on_exit(up, vec![Action::send("up_out")]);
        b.on_entry(busy, vec![Action::send("busy_in")]);
        b.on_entry(down, vec![Action::send("alarm")]);
        b.on_entry(probe, vec![Action::send("probe")]);
        b.add_transition(idle, "go", busy, vec![]);
        b.add_guarded_transition(
            busy,
            "fail",
            Guard::when(
                LinExpr::var(tries).plus_const(1),
                CmpOp::Lt,
                LinExpr::param(budget),
            ),
            vec![Update::Inc(tries)],
            busy,
            vec![Action::send("retry")],
        );
        b.add_guarded_transition(
            busy,
            "fail",
            Guard::when(
                LinExpr::var(tries).plus_const(1),
                CmpOp::Ge,
                LinExpr::param(budget),
            ),
            vec![Update::Inc(tries)],
            down,
            vec![Action::send("give_up")],
        );
        b.add_transition(busy, "done", idle, vec![]);
        b.add_transition(down, "reset", idle, vec![]);
        b.build(idle)
    }

    #[test]
    fn guarded_transitions_retry_then_escalate() {
        let m = retrying();
        assert!(m.is_guarded());
        assert_eq!(m.params(), ["budget"]);
        assert_eq!(m.variables(), ["tries"]);
        let mut i = m.instance_with(vec![2]);
        i.deliver_ref("go").unwrap();
        assert_eq!(i.state_name(), "Up.Busy");
        // First failure: below budget — external self-transition on Busy
        // exits and re-enters it.
        assert_eq!(
            i.deliver_ref("fail").unwrap(),
            [Action::send("retry"), Action::send("busy_in"),]
        );
        assert_eq!(i.vars(), &[1]);
        // Second failure: budget spent — escalate into the Down
        // superstate, exiting Up on the way.
        assert_eq!(
            i.deliver_ref("fail").unwrap(),
            [
                Action::send("up_out"),
                Action::send("give_up"),
                Action::send("alarm"),
                Action::send("probe"),
            ]
        );
        assert_eq!(i.state_name(), "Down.Probe");
        assert_eq!(i.vars(), &[2]);
    }

    #[test]
    fn guard_falls_through_to_inherited_transitions() {
        // The inner state declares a guarded transition that is disabled
        // at first; the enclosing composite's unconditional transition
        // handles the message until the guard opens.
        let mut b = HsmBuilder::new("fallthrough", ["tick"]);
        let n = b.add_var("n");
        let top = b.add_state("Top");
        let inner = b.add_child(top, "Inner");
        let fired = b.add_state("Fired");
        b.add_guarded_transition(
            inner,
            "tick",
            Guard::when(LinExpr::var(n), CmpOp::Ge, LinExpr::constant(1)),
            vec![],
            fired,
            vec![Action::send("inner_wins")],
        );
        b.add_guarded_internal_transition(
            top,
            "tick",
            Guard::always(),
            vec![Update::Inc(n)],
            vec![Action::send("outer_counts")],
        );
        let m = b.build(top);
        let mut i = m.instance();
        // n = 0: the inner guard fails, the inherited internal
        // transition fires and increments n.
        assert_eq!(
            i.deliver_ref("tick").unwrap(),
            [Action::send("outer_counts")]
        );
        assert_eq!(i.state_name(), "Top.Inner");
        // n = 1: the inner declaration now wins over the inherited one.
        assert_eq!(i.deliver_ref("tick").unwrap(), [Action::send("inner_wins")]);
        assert_eq!(i.state_name(), "Fired");
    }

    #[test]
    fn updates_read_pre_transition_values() {
        // swap-like: a := b, b := a + 10 across one transition — staged
        // semantics, matching the EFSM tiers.
        let mut b = HsmBuilder::new("swap", ["go"]);
        let x = b.add_var("x");
        let y = b.add_var("y");
        let s = b.add_state("S");
        b.add_guarded_transition(
            s,
            "go",
            Guard::always(),
            vec![
                Update::Set(x, LinExpr::var(y)),
                Update::Set(y, LinExpr::var(x).plus_const(10)),
            ],
            s,
            vec![],
        );
        let m = b.build(s);
        let mut i = m.instance();
        i.deliver_ref("go").unwrap();
        assert_eq!(i.vars(), &[0, 10]);
        i.deliver_ref("go").unwrap();
        assert_eq!(i.vars(), &[10, 10]);
        i.reset();
        assert_eq!(i.vars(), &[0, 0]);
    }

    #[test]
    fn guardedness_predicates_agree_after_flattening() {
        // The author-level predicate and the IR's routing predicate pin
        // the same tier choice for both worked machines.
        let guarded = retrying();
        assert!(guarded.is_guarded());
        assert!(guarded.flatten_ir().is_guarded());
        let plain = connection();
        assert!(!plain.is_guarded());
        assert!(!plain.flatten_ir().is_guarded());
    }

    #[test]
    fn guarded_flatten_ir_enumerates_candidates() {
        let m = retrying();
        let ir = m.flatten_ir();
        assert!(ir.is_guarded());
        assert_eq!(ir.params(), ["budget"]);
        // Configurations: Idle, Up.Busy, Down.Probe.
        assert_eq!(ir.state_count(), 3);
        let busy = ir
            .states()
            .iter()
            .find(|s| s.name() == "Up.Busy")
            .expect("flattened Busy configuration");
        // go is inapplicable; fail has two guarded candidates; done one.
        assert_eq!(busy.transitions().len(), 3);
        let fails: Vec<_> = busy
            .transitions()
            .iter()
            .filter(|t| t.message_index() == 1)
            .collect();
        assert_eq!(fails.len(), 2);
        assert!(fails.iter().all(|t| !t.guard().conditions().is_empty()));
        assert!(fails.iter().all(|t| t.updates().len() == 1));
    }

    #[test]
    fn guarded_builder_validation() {
        // Guards referencing undeclared operands are rejected.
        let mut b = HsmBuilder::new("m", ["x"]);
        let s = b.add_state("S");
        assert_eq!(
            b.try_add_guarded_transition(
                s,
                "x",
                Guard::when(LinExpr::var(VarId(3)), CmpOp::Ge, LinExpr::constant(0)),
                vec![],
                s,
                vec![],
            ),
            Err(HsmError::VariableOutOfRange {
                index: 3,
                variables: 0
            })
        );
        assert_eq!(
            b.try_add_guarded_transition(
                s,
                "x",
                Guard::when(LinExpr::param(ParamId(0)), CmpOp::Ge, LinExpr::constant(0)),
                vec![],
                s,
                vec![],
            ),
            Err(HsmError::ParamOutOfRange {
                index: 0,
                params: 0
            })
        );
        assert_eq!(
            b.try_add_guarded_transition(
                s,
                "x",
                Guard::always(),
                vec![Update::Inc(VarId(0))],
                s,
                vec![],
            ),
            Err(HsmError::VariableOutOfRange {
                index: 0,
                variables: 0
            })
        );
        // A transition after an unconditional one can never fire.
        let mut b = HsmBuilder::new("m", ["x"]);
        let v = b.add_var("v");
        let s = b.add_state("S");
        b.add_transition(s, "x", s, vec![]);
        assert_eq!(
            b.try_add_guarded_transition(
                s,
                "x",
                Guard::when(LinExpr::var(v), CmpOp::Ge, LinExpr::constant(1)),
                vec![],
                s,
                vec![],
            ),
            Err(HsmError::ShadowedTransition {
                state: "S".into(),
                message: "x".into()
            })
        );
    }

    #[test]
    #[should_panic(expected = "wrong parameter count")]
    fn instance_requires_parameter_binding() {
        retrying().instance();
    }
}
