//! Behavioural equivalence and provably-safe state minimization.
//!
//! [`equivalence_classes`] partitions the *live* states of a
//! [`FlatIr`] — reachable along transitions that can actually fire —
//! into behavioural equivalence classes by Moore-style partition
//! refinement, and [`minimize`] rebuilds the quotient machine: one
//! state per class, unreachable states and provably-dead transitions
//! dropped, everything else untouched.
//!
//! Safety argument (the "provably" in provably-safe): every fact the
//! transform relies on holds for **every** parameter binding —
//!
//! * reachability follows only transitions whose guards are not proved
//!   unsatisfiable by [`guard_unsat`] (a binding-independent proof) and
//!   never leaves a [`Finish`](StateRole::Finish) state (finish states
//!   absorb every message by definition);
//! * a transition shadowed by an earlier *unconditional* transition on
//!   the same message can never fire under the first-match rule,
//!   whatever the bindings;
//! * two states merge only when their signatures agree **structurally**:
//!   same role, and per message the same guards, updates, actions and
//!   (up to the partition) targets, in the same priority order. A
//!   structural match steps identically under any binding, so the
//!   quotient is observation-equivalent (actions emitted and
//!   `is_finished`) on every execution tier.
//!
//! The refinement is conservative for guarded machines (structurally
//! different but semantically equal guards keep states apart — a missed
//! merge, never a wrong one); for unguarded machines the per-message
//! signature normalizes a missing transition to the implicit no-action
//! self-loop, so it computes the coarsest observational partition and
//! [`minimize`] is a true minimizer there.

use std::collections::HashMap;

use stategen_core::efsm::{Cond, Update};
use stategen_core::interval::guard_unsat;
use stategen_core::{Action, FlatIr, FlatState, FlatTransition, StateRole};

/// What [`minimize`] did, for reports and the bench harness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MinimizeReport {
    /// States in the input machine.
    pub states_before: usize,
    /// States in the quotient machine.
    pub states_after: usize,
    /// Transitions in the input machine (all states).
    pub transitions_before: usize,
    /// Transitions in the quotient machine.
    pub transitions_after: usize,
    /// The behavioural classes over live original state ids, in quotient
    /// state order; a class with more than one member was merged.
    pub classes: Vec<Vec<u32>>,
}

impl MinimizeReport {
    /// Number of live states removed by merging (`0` when the input was
    /// already minimal).
    pub fn merged(&self) -> usize {
        self.classes.iter().map(|c| c.len() - 1).sum()
    }
}

/// Consecutive lists in one allocation: list `i` is
/// `items[ends[i - 1]..ends[i]]`.
struct Rows<T> {
    ends: Vec<usize>,
    items: Vec<T>,
}

impl<T> Rows<T> {
    fn new() -> Self {
        Rows {
            ends: Vec::new(),
            items: Vec::new(),
        }
    }

    /// Ends the list being pushed onto `items`.
    fn close(&mut self) {
        self.ends.push(self.items.len());
    }

    fn row(&self, i: usize) -> &[T] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.items[start..self.ends[i]]
    }
}

/// The live-transition projection of an IR, computed once per
/// `analyze`/`minimize` run and read by every pass. Per state, in
/// priority order: the transitions that can ever fire — none for a
/// finish state (finish absorbs everything), and otherwise every
/// transition that is neither provably unsatisfiable ([`guard_unsat`],
/// binding-independent) nor shadowed by an earlier unconditional
/// transition on the same message — and, beside them, the shadowed ones
/// the dead-transition lint reports (a `guard_unsat` transition is the
/// unsatisfiable-guard lint's to report, so it is in neither list).
pub(crate) struct LiveIr<'a> {
    ir: &'a FlatIr,
    live: Rows<&'a FlatTransition>,
    shadowed: Rows<&'a FlatTransition>,
}

impl<'a> LiveIr<'a> {
    pub(crate) fn new(ir: &'a FlatIr) -> Self {
        let (mut live, mut shadowed) = (Rows::new(), Rows::new());
        // `closed_in[m] == s`: an unconditional transition of state `s`,
        // earlier in its list, already takes message `m`.
        let mut closed_in = vec![u32::MAX; ir.messages().len()];
        for (s, state) in ir.states().iter().enumerate() {
            if state.role() != StateRole::Finish {
                for t in state.transitions() {
                    if guard_unsat(t.guard()) {
                        continue;
                    }
                    let closed = &mut closed_in[t.message_index()];
                    if *closed == s as u32 {
                        shadowed.items.push(t);
                    } else {
                        if t.guard().conditions().is_empty() {
                            *closed = s as u32;
                        }
                        live.items.push(t);
                    }
                }
            }
            live.close();
            shadowed.close();
        }
        LiveIr { ir, live, shadowed }
    }

    /// The transitions of `state` that can ever fire, in priority order.
    pub(crate) fn of(&self, state: u32) -> &[&'a FlatTransition] {
        self.live.row(state as usize)
    }

    /// The transitions of `state` that an earlier unconditional
    /// transition on the same message keeps from ever firing.
    pub(crate) fn shadowed(&self, state: u32) -> &[&'a FlatTransition] {
        self.shadowed.row(state as usize)
    }

    /// Dense ids of the states reachable from the start along live
    /// transitions, in ascending order.
    fn reachable(&self) -> Vec<u32> {
        let n = self.ir.state_count();
        let mut seen = vec![false; n];
        let mut stack = vec![self.ir.start()];
        seen[self.ir.start() as usize] = true;
        while let Some(s) = stack.pop() {
            for t in self.of(s) {
                if !seen[t.target() as usize] {
                    seen[t.target() as usize] = true;
                    stack.push(t.target());
                }
            }
        }
        (0..n as u32).filter(|&s| seen[s as usize]).collect()
    }

    /// [`equivalence_classes`] over this projection.
    ///
    /// Every live transition's structural label — message, guard,
    /// updates, actions: everything two transitions must share besides
    /// the class of their target — is interned to a `u32` once, and each
    /// live state gets a row of `(label, target)` cells. A refinement
    /// round then keys each state by `[class, label, class_of(target),
    /// …]`, so it costs O(live transitions) whatever the class count.
    pub(crate) fn classes(&self) -> Vec<Vec<u32>> {
        type Label<'a> = (usize, &'a [Cond], &'a [Update], &'a [Action]);
        let ir = self.ir;
        let nodes = self.reachable();
        let mut labels: HashMap<Label<'a>, u32> = HashMap::new();
        let mut intern = |label: Label<'a>| {
            let fresh = labels.len() as u32;
            *labels.entry(label).or_insert(fresh)
        };
        let label_of = |t: &'a FlatTransition| -> Label<'a> {
            (
                t.message_index(),
                t.guard().conditions(),
                t.updates(),
                t.actions(),
            )
        };

        // Guarded: one cell per live transition, in priority order.
        // Unguarded: one cell per message — every transition there is
        // unconditional, so at most one per message is live, and a
        // missing handler is the implicit no-action self-loop (which is
        // also how a finish state's empty live list reads: absorbing).
        let guarded = ir.is_guarded();
        let no_action: Vec<u32> = if guarded {
            Vec::new()
        } else {
            (0..ir.messages().len())
                .map(|m| intern((m, &[], &[], &[])))
                .collect()
        };
        let mut cells: Rows<(u32, u32)> = Rows::new();
        for &s in &nodes {
            let base = cells.items.len();
            cells
                .items
                .extend(no_action.iter().map(|&label| (label, s)));
            for &t in self.of(s) {
                let cell = (intern(label_of(t)), t.target());
                if guarded {
                    cells.items.push(cell);
                } else {
                    cells.items[base + t.message_index()] = cell;
                }
            }
            cells.close();
        }

        // Initial partition: by role. `class_of` is indexed by original
        // dense id (unreachable slots keep a dummy value nothing reads).
        let mut class_of = vec![0u32; ir.state_count()];
        let mut roles: Vec<StateRole> = Vec::new();
        for &s in &nodes {
            let role = ir.states()[s as usize].role();
            let class = roles.iter().position(|&r| r == role).unwrap_or_else(|| {
                roles.push(role);
                roles.len() - 1
            });
            class_of[s as usize] = class as u32;
        }
        let mut count = roles.len();

        // Refine until stable: split classes whose members' rows differ
        // under the current partition. New class ids are assigned by
        // first occurrence in dense-id order, which makes the numbering
        // (and the rebuilt machine) deterministic and minimization
        // idempotent.
        let mut key: Vec<u32> = Vec::new();
        loop {
            let mut ids: HashMap<Vec<u32>, u32> = HashMap::with_capacity(count);
            let mut next = vec![0u32; ir.state_count()];
            for (i, &s) in nodes.iter().enumerate() {
                key.clear();
                key.push(class_of[s as usize]);
                for &(label, target) in cells.row(i) {
                    key.extend([label, class_of[target as usize]]);
                }
                let fresh = ids.len() as u32;
                next[s as usize] = match ids.get(key.as_slice()) {
                    Some(&class) => class,
                    None => {
                        ids.insert(key.clone(), fresh);
                        fresh
                    }
                };
            }
            let stable = ids.len() == count;
            class_of = next;
            count = ids.len();
            if stable {
                break;
            }
        }

        let mut classes: Vec<Vec<u32>> = vec![Vec::new(); count];
        for &s in &nodes {
            classes[class_of[s as usize] as usize].push(s);
        }
        classes
    }
}

/// Partitions the live states of `ir` into behavioural equivalence
/// classes (see the module docs for the exact relation). Returns the
/// classes in quotient order — each a sorted list of original dense
/// ids, ordered by first member — so `classes[k][0]` is the
/// representative of quotient state `k`.
pub fn equivalence_classes(ir: &FlatIr) -> Vec<Vec<u32>> {
    LiveIr::new(ir).classes()
}

/// Rebuilds `ir` as its behavioural quotient: one state per
/// [`equivalence_classes`] class (the first member is the
/// representative and keeps its name and role), unreachable states and
/// provably-dead transitions dropped, targets remapped, exact duplicate
/// transitions collapsed. The message alphabet, parameters, variables
/// and machine name are preserved, so any parameter binding valid for
/// the input is valid for the quotient.
///
/// The result is observation-equivalent to the input — same actions,
/// same `is_finished` — on every execution tier, for every binding
/// (the property suite pins this against all four tiers), and
/// `minimize` is idempotent: minimizing a quotient returns it
/// unchanged.
pub fn minimize(ir: &FlatIr) -> (FlatIr, MinimizeReport) {
    let live = LiveIr::new(ir);
    let classes = live.classes();
    let mut class_of = vec![0u32; ir.state_count()];
    for (k, class) in classes.iter().enumerate() {
        for &s in class {
            class_of[s as usize] = k as u32;
        }
    }

    let guarded = ir.is_guarded();
    let states: Vec<FlatState> = classes
        .iter()
        .map(|class| {
            let rep = &ir.states()[class[0] as usize];
            let mut picked = live.of(class[0]).to_vec();
            if !guarded {
                // At most one live transition per message; the quotient
                // lists them in alphabet order.
                picked.sort_by_key(|t| t.message_index());
            }
            let mut transitions: Vec<FlatTransition> = Vec::new();
            for t in picked {
                let rebuilt = FlatTransition::new(
                    t.message_index(),
                    t.guard().clone(),
                    t.updates().to_vec(),
                    t.actions().to_vec(),
                    class_of[t.target() as usize],
                );
                // Merging targets can turn distinct transitions into
                // exact duplicates; the later one can never fire.
                if !transitions.contains(&rebuilt) {
                    transitions.push(rebuilt);
                }
            }
            FlatState::new(rep.name(), rep.role(), transitions)
        })
        .collect();

    let report = MinimizeReport {
        states_before: ir.state_count(),
        states_after: states.len(),
        transitions_before: ir.states().iter().map(|s| s.transitions().len()).sum(),
        transitions_after: states.iter().map(|s| s.transitions().len()).sum(),
        classes,
    };
    let start = class_of[ir.start() as usize];
    let minimized = FlatIr::from_parts(
        ir.name(),
        ir.messages().to_vec(),
        ir.params().to_vec(),
        ir.variables().to_vec(),
        states,
        start,
    );
    (minimized, report)
}
