//! Batched execution of many protocol instances over one machine.
//!
//! A deployed protocol node does not run *one* state machine — it runs
//! one instance per in-flight protocol execution (the paper's ASA peers
//! hold an FSM instance per commit attempt, §2.2). Scaling that to
//! "millions of users" means the per-instance representation must be
//! tiny and stepping must not allocate. [`SessionStore`] is the one
//! struct-of-arrays store every serving path steps, over any
//! [`StepEngine`]:
//!
//! * one dense `u32` id per session (a released slot holds the
//!   [`SessionStore::RETIRED`] sentinel, which batch delivery skips) —
//!   the state id, or, under an engine that unfolded its guarded
//!   machine onto the dense table, the id of the session's whole
//!   `(state, registers)` configuration, which never leaves this
//!   module: every accessor answers with the source machine's state id
//!   and registers;
//! * the variable registers, session-major, `reg_count` per session —
//!   zero for an unguarded machine, so a flat FSM is the same store
//!   with empty rows, not a second type, and zero again for an
//!   unfolded one, whose configuration id says what they hold;
//! * an *eager* finished count: finish states are absorbing, so whether
//!   a session has finished is the finish flag of its current state,
//!   and every operation that writes states — single steps, resets,
//!   the batch kernels (which report how many sessions entered a finish
//!   state beside their transition count) — adjusts the count as it
//!   goes, so `finished_count` and `is_finished` are O(1) at any time;
//!
//! so a store of a million unguarded sessions is ~4 MB of state and no
//! session operation allocates. [`SessionStore::deliver_all`] routes
//! through the branchless batch kernels where a tier has one (see the
//! [`kernel`](crate::kernel) module);
//! [`SessionStore::deliver_all_scalar`] is the per-session walk they
//! are held to.
//!
//! Sessions are independent, so stores can be partitioned: a
//! [`Runtime`](crate::Runtime) holds one per shard, and [`fork_join`]
//! steps them in one fork-join per batch — a scoped thread per shard
//! beyond the first — with results identical to single-threaded
//! stepping whatever the schedule.

use stategen_core::{Action, MessageId, StategenError};

use crate::kernel::BatchTally;
use crate::step::StepEngine;

/// One transition taken by [`SessionStore::step`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Taken<'a> {
    /// The state the session left.
    pub(crate) from: u32,
    /// The state it entered.
    pub(crate) to: u32,
    /// The triggered actions, borrowed from the engine.
    pub(crate) actions: &'a [Action],
}

/// A store of concurrent protocol sessions executing one
/// [`StepEngine`], struct-of-arrays, stepped without per-event
/// allocation (see the [module docs](self)).
///
/// Sessions are addressed by slot index. A slot is *live* from
/// [`spawn`](SessionStore::spawn) (or
/// [`reset_session`](SessionStore::reset_session)) until
/// [`retire`](SessionStore::retire)d; retired slots keep their index,
/// are skipped by every batch operation, and may be revived by a later
/// `reset_session` — the recycling policy (free lists, generations) is
/// the caller's.
#[derive(Debug, Clone)]
pub(crate) struct SessionStore {
    engine: StepEngine,
    /// The engine's configuration id per slot — the state id, unless
    /// the engine is unfolded; [`SessionStore::RETIRED`] marks released
    /// slots.
    current: Vec<u32>,
    /// Session-major registers: slot `s`'s row is `vars[s * n_regs ..
    /// (s + 1) * n_regs]` (empty rows when `n_regs == 0`: an unguarded
    /// machine, or an unfolded one).
    vars: Vec<i64>,
    /// The interpreter's pre-transition copy, shared by all slots.
    scratch: Vec<i64>,
    /// One register row for [`SessionStore::probe_tail`], so a what-if
    /// step never touches the live row.
    probe_row: Vec<i64>,
    n_regs: usize,
    /// Slots currently retired.
    retired: usize,
    steps: u64,
    /// Live slots whose state is a finish state, kept current by every
    /// operation that writes `current`.
    finished: usize,
}

impl SessionStore {
    /// The state id marking a retired slot: out of range for every
    /// engine, so batch delivery skips it and stepping it panics.
    pub(crate) const RETIRED: u32 = u32::MAX;

    /// Creates a store of `count` sessions, all at the start state with
    /// zeroed registers.
    pub(crate) fn new(engine: StepEngine, count: usize) -> Self {
        let n_regs = engine.stored_regs();
        let mut store = SessionStore {
            scratch: vec![0; engine.scratch_len()],
            probe_row: Vec::new(),
            engine,
            current: Vec::with_capacity(count),
            vars: Vec::with_capacity(count * n_regs),
            n_regs,
            retired: 0,
            steps: 0,
            finished: 0,
        };
        for _ in 0..count {
            store.spawn();
        }
        store
    }

    /// The engine all sessions execute.
    #[inline]
    pub(crate) fn engine(&self) -> &StepEngine {
        &self.engine
    }

    /// Number of slots, live and retired.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.current.len()
    }

    /// Number of live (not retired) sessions.
    #[inline]
    pub(crate) fn live(&self) -> usize {
        self.current.len() - self.retired
    }

    /// Appends a session at the start state with zeroed registers;
    /// returns its slot. Amortised O(1); the only store operation that
    /// may allocate (growing the arrays, never per-event).
    #[inline]
    pub(crate) fn spawn(&mut self) -> usize {
        let session = self.current.len();
        let start = self.engine.start_config();
        self.current.push(start);
        self.vars.extend(std::iter::repeat_n(0, self.n_regs));
        self.finished += self.finishes(start);
        session
    }

    /// The dense state id of a slot ([`SessionStore::RETIRED`] if
    /// retired).
    ///
    /// # Panics
    ///
    /// Panics if `session` is out of range.
    #[inline]
    pub(crate) fn state(&self, session: usize) -> u32 {
        self.engine.state_of(self.current[session])
    }

    /// Display name of a session's state, borrowed from the engine.
    ///
    /// # Panics
    ///
    /// Panics if `session` is out of range or retired.
    #[inline]
    pub(crate) fn state_name(&self, session: usize) -> &str {
        self.engine.state_name(self.state(session))
    }

    /// A session's declared variables, in declaration order (empty for
    /// an unguarded machine).
    ///
    /// # Panics
    ///
    /// As for [`SessionStore::registers_of`].
    #[inline]
    pub(crate) fn vars(&self, session: usize) -> &[i64] {
        &self.registers_of(session)[..self.engine.var_count()]
    }

    /// A session's whole register row — declared variables first, then
    /// the always-zero register — [`StepEngine::reg_count`] long: its slice
    /// of the file [`SessionStore::registers_into`] writes.
    ///
    /// # Panics
    ///
    /// Panics if `session` is out of range — or retired, under an
    /// engine whose sessions keep no register file to read a stale row
    /// from.
    #[inline]
    pub(crate) fn registers_of(&self, session: usize) -> &[i64] {
        match self.engine.config_row(self.current[session]) {
            Some(row) => row,
            None => &self.vars[session * self.n_regs..][..self.n_regs],
        }
    }

    /// `true` if the slot is currently retired.
    ///
    /// # Panics
    ///
    /// Panics if `session` is out of range.
    #[inline]
    pub(crate) fn is_retired(&self, session: usize) -> bool {
        self.current[session] == Self::RETIRED
    }

    /// `true` once a live session has reached a finish state (`false`
    /// for a retired slot): the finish flag of its current state, O(1).
    ///
    /// # Panics
    ///
    /// Panics if `session` is out of range.
    #[inline]
    pub(crate) fn is_finished(&self, session: usize) -> bool {
        self.finishes(self.current[session]) == 1
    }

    /// Number of live finished sessions. O(1): the count is maintained
    /// by every operation, batches included.
    #[inline]
    pub(crate) fn finished_count(&self) -> usize {
        self.finished
    }

    /// What a slot holding `config` contributes to the finished count:
    /// 1 for a finish state, 0 otherwise (a retired slot never counts).
    #[inline]
    fn finishes(&self, config: u32) -> usize {
        usize::from(config != Self::RETIRED && self.engine.config_finishes(config))
    }

    /// The transition `from → to` (configuration ids) as callers see
    /// it: between source states.
    #[inline]
    fn taken<'a>(engine: &StepEngine, from: u32, to: u32, actions: &'a [Action]) -> Taken<'a> {
        Taken {
            from: engine.state_of(from),
            to: engine.state_of(to),
            actions,
        }
    }

    /// Total transitions taken across all sessions.
    #[inline]
    pub(crate) fn steps(&self) -> u64 {
        self.steps
    }

    /// Delivers a message to one live session; returns the transition
    /// taken, or `None` if the message is not applicable in the
    /// session's state (finished sessions absorb every message). No
    /// allocation occurs on this path.
    ///
    /// `message` must come from this store's engine (unchecked on this
    /// per-session path: a foreign id may panic or step through the
    /// wrong cell).
    ///
    /// # Panics
    ///
    /// Panics if `session` is out of range or retired.
    #[inline]
    pub(crate) fn step(&mut self, session: usize, message: MessageId) -> Option<Taken<'_>> {
        let n = self.n_regs;
        let from = self.current[session];
        let regs = &mut self.vars[session * n..][..n];
        let (to, actions) = self
            .engine
            .step_config(from, message, regs, &mut self.scratch)?;
        self.current[session] = to;
        self.steps += 1;
        // `from` was not a finish state: those take no transition.
        self.finished += usize::from(self.engine.config_finishes(to));
        Some(Self::taken(&self.engine, from, to, actions))
    }

    /// [`SessionStore::step`], returning just the triggered actions
    /// (empty when no transition was taken).
    ///
    /// # Panics
    ///
    /// Panics if `session` is out of range or retired.
    #[inline]
    pub(crate) fn deliver(&mut self, session: usize, message: MessageId) -> &[Action] {
        self.step(session, message).map_or(&[], |t| t.actions)
    }

    /// What [`SessionStore::deliver_all_with`] *would* visit last,
    /// without touching any session: walks the last `window` slots
    /// backwards, steps each live one against a copy of its register
    /// row, and calls `visit(session, taken)` for every transition
    /// found — in descending slot order — until `limit` have been.
    ///
    /// # Panics
    ///
    /// Panics, as [`SessionStore::deliver_all`] does, if `message` is
    /// outside the engine's alphabet.
    pub(crate) fn probe_tail<F>(
        &mut self,
        message: MessageId,
        window: usize,
        limit: usize,
        mut visit: F,
    ) where
        F: FnMut(usize, Taken<'_>),
    {
        self.engine.assert_in_alphabet(message);
        self.probe_row.resize(self.n_regs, 0); // sized by the first probe
        let n_states = self.engine.config_count() as u32;
        let mut rows = self.vars.rchunks_exact(self.n_regs.max(1));
        let mut found = 0;
        for (session, &from) in self.current.iter().enumerate().rev().take(window) {
            if found == limit {
                break;
            }
            let row = rows.next().unwrap_or_default();
            if from >= n_states {
                continue; // retired
            }
            if !row.is_empty() {
                self.probe_row.copy_from_slice(row);
            }
            let (regs, scratch) = (&mut self.probe_row, &mut self.scratch);
            if let Some((to, actions)) = self.engine.step_config(from, message, regs, scratch) {
                found += 1;
                visit(session, Self::taken(&self.engine, from, to, actions));
            }
        }
    }

    /// Delivers a message to every live session, discarding actions;
    /// returns the number of transitions taken. This is the batch hot
    /// loop (the engine's batch kernels): no allocation, the finished
    /// count advanced by the kernel's own tally, results
    /// bit-identical to [`SessionStore::deliver_all_scalar`].
    ///
    /// # Panics
    ///
    /// Panics if `message` is outside the engine's alphabet.
    pub(crate) fn deliver_all(&mut self, message: MessageId) -> u64 {
        let (states, vars) = (&mut self.current, &mut self.vars);
        let tally = self
            .engine
            .deliver_batch(message, states, vars, &mut self.scratch);
        self.took(tally)
    }

    /// Accounts a batch: step count and finished count.
    fn took(&mut self, tally: BatchTally) -> u64 {
        self.steps += tally.transitions;
        self.finished += tally.finished as usize;
        tally.transitions
    }

    /// The scalar reference form of [`SessionStore::deliver_all`]: a
    /// per-session [`StepEngine::step_config`] walk in slot order — the
    /// oracle the paired `batched_kernel` benchmark rows compare the
    /// kernels against, through [`bench`](crate::bench).
    pub(crate) fn deliver_all_scalar(&mut self, message: MessageId) -> u64 {
        self.deliver_all_with(message, |_, _| {})
    }

    /// Delivers a message to every live session by the scalar walk,
    /// invoking `visit(session, taken)` for each transition *before*
    /// the next session is stepped; returns the number of transitions.
    ///
    /// Visit order is ascending slot order — this path deliberately
    /// keeps the scalar walk rather than a batch kernel, so the
    /// order observers see is independent of how sessions are
    /// distributed across states (see `docs/KERNELS.md`).
    pub(crate) fn deliver_all_with<F>(&mut self, message: MessageId, mut visit: F) -> u64
    where
        F: FnMut(usize, Taken<'_>),
    {
        let (engine, states, vars) = (&self.engine, &mut self.current, &mut self.vars);
        let tally = engine.walk_batch(
            message,
            states,
            vars,
            &mut self.scratch,
            |session, from, to, actions| visit(session, Self::taken(engine, from, to, actions)),
        );
        self.took(tally)
    }

    /// Returns one slot to the start state with zeroed registers — a
    /// fresh execution in the same slot. Reviving a retired slot this
    /// way makes it live again. O(1), no allocation.
    ///
    /// # Panics
    ///
    /// Panics if `session` is out of range.
    #[inline]
    pub(crate) fn reset_session(&mut self, session: usize) {
        let start = self.engine.start_config();
        let old = std::mem::replace(&mut self.current[session], start);
        if old == Self::RETIRED {
            self.retired -= 1;
        }
        self.zero_row(session);
        self.finished = self.finished - self.finishes(old) + self.finishes(start);
    }

    /// Zeroes a slot's register row — if it has one: a zero-length
    /// `fill` is a call, not a no-op (≈ 100 ns per reset measured on
    /// the benchmark host), and an unguarded or unfolded store would
    /// pay it on every reset and release.
    #[inline]
    fn zero_row(&mut self, session: usize) {
        if self.n_regs != 0 {
            self.vars[session * self.n_regs..][..self.n_regs].fill(0);
        }
    }

    /// Retires a live slot: it keeps its index but is skipped by every
    /// batch operation until revived by
    /// [`SessionStore::reset_session`]. Its registers are zeroed, so a
    /// retired slot reads the same in a snapshot whichever tier took it.
    ///
    /// # Panics
    ///
    /// Panics if `session` is out of range or already retired.
    #[inline]
    pub(crate) fn retire(&mut self, session: usize) {
        assert!(!self.is_retired(session), "session already retired");
        self.finished -= self.finishes(self.current[session]);
        self.current[session] = Self::RETIRED;
        self.zero_row(session);
        self.retired += 1;
    }

    /// Returns every live session to the start state with zeroed
    /// registers; retired slots stay retired. The step count stays: it
    /// counts every transition the store's sessions took.
    pub(crate) fn reset_all(&mut self) {
        let start = self.engine.start_config();
        if self.retired == 0 {
            self.current.fill(start);
        } else {
            for cur in &mut self.current {
                if *cur != Self::RETIRED {
                    *cur = start;
                }
            }
        }
        self.vars.fill(0);
        self.finished = self.live() * self.finishes(start);
    }

    /// Snapshot accessor: writes the dense state id of every slot, in
    /// slot order, over `out`, reusing its allocation. Together with
    /// [`SessionStore::registers_into`] and the engine this is the
    /// store's complete execution state (finished-ness is the finish
    /// flag of each state — finish states are absorbing). A copy of the
    /// store's array; one table load per slot under an unfolded engine.
    pub(crate) fn states_into(&self, out: &mut Vec<u32>) {
        if !self.engine.states_into(&self.current, out) {
            out.clone_from(&self.current);
        }
    }

    /// Snapshot accessor: writes the session-major register file over
    /// `out` — slot `s`'s registers (declared variables first, then
    /// the always-zero register) land at `out[s * reg_count .. (s + 1) *
    /// reg_count]`. Copied or materialised as for
    /// [`SessionStore::states_into`]; a materialised file reads zero in
    /// every retired slot.
    pub(crate) fn registers_into(&self, out: &mut Vec<i64>) {
        if !self.engine.rows_into(&self.current, out) {
            out.clone_from(&self.vars);
        }
    }

    /// Replaces every slot's state and registers (and the step count)
    /// from a snapshot taken via [`SessionStore::states_into`] /
    /// [`SessionStore::registers_into`] / [`SessionStore::steps`] under a
    /// behaviourally identical engine, whatever tier either resolved
    /// onto. The store takes the snapshot's size; the finished count is
    /// recounted in the validation pass.
    ///
    /// # Errors
    ///
    /// [`StategenError::UnreachableConfiguration`], with the store
    /// untouched, if this store's engine unfolded its machine and some
    /// live slot's `(state, registers)` pair is one the machine cannot
    /// reach — no session of this engine could have produced it, so it
    /// is refused rather than resumed from a neighbouring
    /// configuration.
    ///
    /// # Panics
    ///
    /// Panics if `registers` does not hold `reg_count` registers per
    /// slot, or a state id is neither valid for the engine nor
    /// [`SessionStore::RETIRED`].
    pub(crate) fn restore(
        &mut self,
        states: &[u32],
        registers: &[i64],
        steps: u64,
    ) -> Result<(), StategenError> {
        let width = self.engine.reg_count();
        assert_eq!(
            registers.len(),
            states.len() * width,
            "corrupt snapshot: {} registers for {} slots of {} registers each",
            registers.len(),
            states.len(),
            width,
        );
        let n_states = self.engine.state_count() as u32;
        let mut rows = registers.chunks_exact(width.max(1));
        let mut current = Vec::with_capacity(states.len());
        let (mut retired, mut finished) = (0, 0);
        for (slot, &state) in states.iter().enumerate() {
            let row = rows.next().unwrap_or_default();
            assert!(
                state == Self::RETIRED || state < n_states,
                "corrupt snapshot: slot {slot} in state {state} but the engine has {n_states} states",
            );
            let config = if state == Self::RETIRED {
                retired += 1;
                Self::RETIRED
            } else {
                self.engine
                    .config_of(state, row)
                    .ok_or(StategenError::UnreachableConfiguration { slot, state })?
            };
            finished += self.finishes(config);
            current.push(config);
        }
        (self.retired, self.finished) = (retired, finished);
        self.current = current;
        self.vars = match self.n_regs {
            0 => Vec::new(),
            _ => registers.to_vec(),
        };
        self.steps = steps;
        Ok(())
    }

    /// Re-targets a store with no live session at a different engine.
    /// Every slot stays retired and keeps its index, while the register
    /// file and scratch are rebuilt for the new machine — safe
    /// precisely because no slot is live.
    ///
    /// # Panics
    ///
    /// Panics if a session is live.
    pub(crate) fn retarget(&mut self, engine: StepEngine) {
        assert_eq!(self.live(), 0, "retarget on a store with live sessions");
        self.n_regs = engine.stored_regs();
        self.scratch = vec![0; engine.scratch_len()];
        self.vars = vec![0; self.current.len() * self.n_regs];
        self.engine = engine;
        self.finished = 0;
    }
}

/// Runs `batch` over every shard in one fork-join and sums what it
/// returns. A single shard is stepped in place. With `k` shards, shards
/// `1..k` each get a scoped thread for the call while the calling
/// thread steps shard 0, and the counts are summed once every thread
/// has joined. Which thread steps which shard, and when, cannot change
/// the result as long as shards never read each other's state.
///
/// # Panics
///
/// Panics if `shards` is empty. If `batch` panics on a shard, this
/// re-raises that shard's own payload — shard 0's if the calling
/// thread's own shard panicked, else the lowest-numbered panicking
/// shard's — after every thread of the call has finished, so nothing
/// hangs and nothing keeps running. Every other shard completed its
/// batch, and the panicking one is in whatever state `batch` left it.
pub(crate) fn fork_join<S: Send>(shards: &mut [S], batch: impl Fn(&mut S) -> u64 + Sync) -> u64 {
    let (own, rest) = shards.split_first_mut().expect("at least one shard");
    if rest.is_empty() {
        return batch(own);
    }
    let batch = &batch;
    std::thread::scope(|scope| {
        let forked: Vec<_> = rest
            .iter_mut()
            .map(|shard| scope.spawn(move || batch(shard)))
            .collect();
        let transitions = batch(own);
        forked.into_iter().fold(transitions, |sum, thread| {
            sum + thread
                .join()
                .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
        })
    })
}

#[cfg(test)]
mod tests {
    use stategen_core::{FlatIr, StateMachine, StateMachineBuilder, StateRole};

    use super::*;
    use crate::step::Tier;

    fn finishing_machine() -> StateMachine {
        let mut b = StateMachineBuilder::new("m", ["a", "b"]);
        let s0 = b.add_state("s0");
        let s1 = b.add_state("s1");
        let fin = b.add_state_full("FINISHED", None, StateRole::Finish, vec![]);
        b.add_transition(s0, "a", s1, vec![Action::send("x")]);
        b.add_transition(s1, "a", fin, vec![]);
        b.build(s0)
    }

    fn dense() -> StepEngine {
        StepEngine::compile_ir(&FlatIr::from_machine(&finishing_machine()), &[]).unwrap()
    }

    fn interpreted() -> StepEngine {
        StepEngine::interpreted(FlatIr::from_machine(&finishing_machine()), &[]).unwrap()
    }

    /// `true` once every live session of `store` has finished.
    fn all_finished(store: &SessionStore) -> bool {
        store.finished_count() == store.live()
    }

    fn msg(engine: &StepEngine, name: &str) -> MessageId {
        engine.message_id(name).unwrap()
    }

    /// `sessions` sessions of `engine` cut into `shards` contiguous
    /// stores, earlier ones taking the remainder.
    fn split(engine: &StepEngine, sessions: usize, shards: usize) -> Vec<SessionStore> {
        let (base, extra) = (sessions / shards, sessions % shards);
        let len = |i| base + usize::from(i < extra);
        (0..shards)
            .map(|i| SessionStore::new(engine.clone(), len(i)))
            .collect()
    }

    /// One batch of `message` over `shards`, forked.
    fn deliver_all(shards: &mut [SessionStore], message: MessageId) -> u64 {
        fork_join(shards, |store| store.deliver_all(message))
    }

    /// Every session's `(state, finished)` in global order: shard
    /// blocks are contiguous, in shard order.
    fn sessions(shards: &[SessionStore]) -> Vec<(u32, bool)> {
        let per_shard = |shard| sessions_of(shard).collect::<Vec<_>>();
        shards.iter().flat_map(per_shard).collect()
    }

    fn sessions_of(store: &SessionStore) -> impl Iterator<Item = (u32, bool)> + '_ {
        (0..store.len()).map(|s| (store.state(s), store.is_finished(s)))
    }

    #[test]
    fn pool_steps_sessions_independently() {
        // The same body on the dense and the interpreted tier.
        for engine in [dense(), interpreted()] {
            let a = msg(&engine, "a");
            let mut pool = SessionStore::new(engine, 3);
            assert_eq!(pool.len(), 3);
            assert_eq!(pool.deliver(0, a), [Action::send("x")]);
            assert_eq!(pool.state_name(0), "s1");
            assert_eq!(pool.state_name(1), "s0");
            let mut probed = Vec::new();
            pool.probe_tail(a, 3, 2, |s, t| {
                probed.push((s, t.from, t.to, t.actions.len()))
            });
            assert_eq!(probed, [(2, 0, 1, 1), (1, 0, 1, 1)]);
            assert_eq!(pool.state_name(1), "s0", "a probe must not step");
            pool.deliver(0, a);
            assert!(pool.is_finished(0));
            assert!(!pool.is_finished(1));
            assert_eq!(pool.finished_count(), 1);
            assert_eq!(pool.steps(), 2);
        }
    }

    #[test]
    fn deliver_all_walks_every_live_session() {
        for engine in [dense(), interpreted()] {
            let (a, b) = (msg(&engine, "a"), msg(&engine, "b"));
            let mut pool = SessionStore::new(engine, 100);
            pool.retire(7);
            assert_eq!(pool.live(), 99);
            assert_eq!(pool.deliver_all(b), 0); // `b` applicable nowhere
            assert_eq!(pool.deliver_all(a), 99);
            assert_eq!(pool.finished_count(), 0);
            assert_eq!(pool.deliver_all_scalar(a), 99);
            assert!(all_finished(&pool));
            assert!(!pool.is_finished(7), "a retired slot is not finished");
            // Finished sessions absorb further messages.
            assert_eq!(pool.deliver_all(a), 0);
            assert_eq!(pool.steps(), 198);
        }
    }

    #[test]
    fn deliver_all_with_visits_phase_transitions() {
        let engine = dense();
        let a = msg(&engine, "a");
        let mut pool = SessionStore::new(engine, 5);
        let mut seen = Vec::new();
        pool.deliver_all_with(a, |session, t| {
            seen.push((session, t.from, t.to, t.actions.len()));
        });
        assert_eq!(seen, (0..5).map(|s| (s, 0, 1, 1)).collect::<Vec<_>>());
        // Second hop is a simple transition: visited, with no actions.
        let mut hops = Vec::new();
        pool.deliver_all_with(a, |_, t| hops.push((t.from, t.to, t.actions.len())));
        assert_eq!(hops, vec![(1, 2, 0); 5]);
    }

    #[test]
    fn spawn_grows_pool_and_reset_restores() {
        let engine = dense();
        let a = msg(&engine, "a");
        let mut pool = SessionStore::new(engine, 0);
        assert_eq!(pool.len(), 0);
        for _ in 0..70 {
            pool.spawn();
        }
        assert_eq!(pool.len(), 70);
        pool.deliver_all(a);
        pool.deliver_all(a);
        assert!(all_finished(&pool));
        let taken = pool.steps();
        pool.reset_all();
        assert_eq!(pool.finished_count(), 0);
        assert_eq!(pool.state_name(69), "s0");
        assert_eq!(pool.steps(), taken);
    }

    #[test]
    fn matches_single_instance_semantics() {
        let ir = FlatIr::from_machine(&finishing_machine());
        let mut pool = SessionStore::new(dense(), 1);
        let mut single = ir.instance(vec![]);
        for name in ["b", "a", "b", "a", "a"] {
            let id = ir.message_id(name).unwrap();
            assert_eq!(pool.deliver(0, id), single.deliver_id(id));
            assert_eq!(pool.state(0), single.current_state());
        }
        assert!(pool.is_finished(0));
    }

    #[test]
    fn reset_session_recycles_slot() {
        let engine = dense();
        let a = msg(&engine, "a");
        let mut pool = SessionStore::new(engine, 2);
        pool.deliver(0, a);
        pool.deliver(0, a);
        assert!(pool.is_finished(0));
        assert_eq!(pool.finished_count(), 1);
        pool.reset_session(0);
        assert!(!pool.is_finished(0));
        assert_eq!(pool.finished_count(), 0);
        assert_eq!(pool.state_name(0), "s0");
        // The other session is untouched.
        assert_eq!(pool.state_name(1), "s0");
        // The recycled slot runs a fresh execution.
        pool.deliver(0, a);
        assert_eq!(pool.state_name(0), "s1");
        // A retired slot is revived by the same call.
        pool.retire(1);
        assert_eq!((pool.live(), pool.is_retired(1)), (1, true));
        pool.reset_session(1);
        assert_eq!((pool.live(), pool.state_name(1)), (2, "s0"));
    }

    /// The counter EFSM's IR and its two engines bound to `limit`:
    /// interpreted, and unfolded onto the dense table. Every test below
    /// holds for both.
    fn counter(limit: i64) -> (FlatIr, [StepEngine; 2]) {
        use stategen_core::efsm::{CmpOp, EfsmBuilder, Guard, LinExpr, Update};
        let mut b = EfsmBuilder::new("counter", ["tick"]);
        let lim = b.add_param("limit");
        let n = b.add_var("n");
        let counting = b.add_state("counting");
        let done = b.add_state("done");
        let next = LinExpr::var(n).plus_const(1);
        b.add_transition(
            counting,
            "tick",
            Guard::when(next.clone(), CmpOp::Lt, LinExpr::param(lim)),
            vec![Update::Inc(n)],
            vec![],
            counting,
        );
        b.add_transition(
            counting,
            "tick",
            Guard::when(next, CmpOp::Ge, LinExpr::param(lim)),
            vec![Update::Inc(n)],
            vec![Action::send("done")],
            done,
        );
        let ir = FlatIr::from_efsm(&b.build(counting, Some(done)));
        let interpreted = StepEngine::interpreted(ir.clone(), &[limit]).unwrap();
        let unfolded = StepEngine::compile_ir(&ir, &[limit]).unwrap();
        assert_eq!(
            (interpreted.tier(), unfolded.tier()),
            (Tier::Interpreted, Tier::Compiled)
        );
        (ir, [interpreted, unfolded])
    }

    /// What a snapshot of `store` reads: its states and register file.
    fn image(store: &SessionStore) -> (Vec<u32>, Vec<i64>) {
        let (mut states, mut registers) = (Vec::new(), Vec::new());
        store.states_into(&mut states);
        store.registers_into(&mut registers);
        (states, registers)
    }

    #[test]
    fn efsm_pool_counts_independently() {
        for engine in counter(3).1 {
            let tick = msg(&engine, "tick");
            let mut pool = SessionStore::new(engine, 5);
            assert_eq!(pool.len(), 5);
            assert_eq!(pool.engine().params(), &[3]);
            // Step session 2 ahead of the rest.
            assert!(pool.deliver(2, tick).is_empty());
            assert_eq!(pool.vars(2), &[1]);
            assert_eq!(pool.vars(0), &[0]);
            let mut probed = Vec::new();
            pool.probe_tail(tick, 2, 3, |s, t| probed.push((s, t.to)));
            assert_eq!(probed, [(4, 0), (3, 0)]);
            assert_eq!(pool.vars(2), &[1], "a probe must not update registers");
            pool.deliver_all(tick);
            pool.deliver_all(tick);
            assert!(pool.is_finished(2));
            assert_eq!(pool.finished_count(), 1);
            assert_eq!(pool.state_name(2), "done");
            // Source state ids and the full register file, whatever
            // the slots really hold.
            let (states, registers) = image(&pool);
            assert_eq!(states, [0, 0, 1, 0, 0]);
            assert_eq!(registers, [2, 0, 2, 0, 3, 0, 2, 0, 2, 0]);
            let mut fired = Vec::new();
            pool.deliver_all_with(tick, |_, t| fired.push((t.from, t.to, t.actions.len())));
            assert_eq!(fired, [(0, 1, 1); 4]);
            assert!(all_finished(&pool));
            assert_eq!(pool.steps(), 1 + 5 + 5 + 4);
        }
    }

    #[test]
    fn efsm_pool_reset_and_spawn() {
        for engine in counter(1).1 {
            let tick = msg(&engine, "tick");
            let mut pool = SessionStore::new(engine, 0);
            assert_eq!(pool.len(), 0);
            for _ in 0..70 {
                pool.spawn();
            }
            pool.deliver_all(tick);
            assert!(all_finished(&pool));
            pool.reset_session(69);
            assert!(!pool.is_finished(69));
            assert_eq!(pool.vars(69), &[0]);
            let taken = pool.steps();
            pool.reset_all();
            assert_eq!(pool.finished_count(), 0);
            assert_eq!(pool.steps(), taken);
            assert_eq!(pool.state_name(0), "counting");
        }
    }

    #[test]
    fn efsm_pool_matches_single_instance() {
        let (ir, engines) = counter(4);
        for engine in engines {
            let tick = msg(&engine, "tick");
            let mut pool = SessionStore::new(engine, 1);
            let mut single = ir.instance(vec![4]);
            for _ in 0..6 {
                assert_eq!(pool.deliver(0, tick), single.deliver_id(tick));
                assert_eq!(pool.state(0), single.current_state());
                assert_eq!(pool.vars(0), single.vars());
            }
        }
    }

    /// Snapshots cross the two lowerings in both directions, and the
    /// unfolded engine — the one that can tell — refuses a register row
    /// no session of the machine could hold, store untouched.
    #[test]
    fn restore_crosses_lowerings_and_refuses_unreachable_rows() {
        let [interpreted, unfolded] = counter(3).1;
        let tick = msg(&interpreted, "tick");
        for (from, to) in [(&interpreted, &unfolded), (&unfolded, &interpreted)] {
            let mut pool = SessionStore::new(from.clone(), 4);
            pool.deliver(1, tick);
            pool.deliver_all(tick);
            pool.retire(3);
            let mut other = SessionStore::new(to.clone(), 0);
            let (states, registers) = image(&pool);
            assert_eq!(other.restore(&states, &registers, pool.steps()), Ok(()));
            assert_eq!(image(&other), image(&pool));
            assert_eq!(
                (other.live(), other.finished_count(), other.steps()),
                (pool.live(), pool.finished_count(), pool.steps())
            );
            assert_eq!(other.deliver_all(tick), pool.deliver_all(tick));
            assert_eq!(image(&other).0, image(&pool).0);
        }
        // `n = 7` under `limit = 3`; then a non-zero zero register.
        for registers in [[0, 0, 7, 0], [0, 0, 1, 1]] {
            let mut pool = SessionStore::new(unfolded.clone(), 1);
            pool.deliver(0, tick);
            let refused = StategenError::UnreachableConfiguration { slot: 1, state: 0 };
            assert_eq!(pool.restore(&[0, 0], &registers, 9), Err(refused));
            assert_eq!((pool.len(), pool.vars(0), pool.steps()), (1, &[1][..], 1));
            let mut lenient = SessionStore::new(interpreted.clone(), 0);
            assert_eq!(lenient.restore(&[0, 0], &registers, 9), Ok(()));
        }
    }

    #[test]
    fn sharded_pool_matches_single_pool() {
        let engine = dense();
        let (a, b) = (msg(&engine, "a"), msg(&engine, "b"));
        let mut single = SessionStore::new(engine.clone(), 103);
        let mut sharded = split(&engine, 103, 4);
        let total = |shards: &[SessionStore], of: fn(&SessionStore) -> u64| {
            shards.iter().map(of).sum::<u64>()
        };
        let finished = |store: &SessionStore| store.finished_count() as u64;
        for &mid in &[a, b, a, a, b] {
            assert_eq!(single.deliver_all(mid), deliver_all(&mut sharded, mid));
            assert_eq!(single.finished_count() as u64, total(&sharded, finished));
            assert_eq!(single.steps(), total(&sharded, SessionStore::steps));
            assert_eq!(sessions(&sharded), sessions_of(&single).collect::<Vec<_>>());
        }
        assert!(sharded.iter().all(all_finished));
        sharded.iter_mut().for_each(SessionStore::reset_all);
        assert_eq!(total(&sharded, finished), 0);
        assert_eq!(total(&sharded, SessionStore::steps), single.steps());
    }

    #[test]
    fn sharded_pool_over_efsm_shards() {
        for engine in counter(2).1 {
            let tick = msg(&engine, "tick");
            let mut sharded = split(&engine, 64, 2);
            assert_eq!(deliver_all(&mut sharded, tick), 64);
            assert!(sharded.iter().all(|store| store.finished_count() == 0));
            assert_eq!(deliver_all(&mut sharded, tick), 64);
            assert!(sharded.iter().all(all_finished));
            assert_eq!(sharded[0].vars(0), &[2]);
        }
    }

    #[test]
    fn single_shard_steps_in_place() {
        let engine = dense();
        let a = msg(&engine, "a");
        let mut sharded = split(&engine, 10, 1);
        assert_eq!(deliver_all(&mut sharded, a), 10);
        assert_eq!(sessions(&sharded), vec![(1, false); 10]);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn empty_shard_list_panics() {
        deliver_all(&mut [], msg(&dense(), "a"));
    }

    /// A shard that panics on its batch number `blows_up_at` (counting
    /// from 1) and on no other.
    struct FaultyShard {
        batches: u32,
        blows_up_at: u32,
    }

    impl FaultyShard {
        fn new(blows_up_at: u32) -> Self {
            FaultyShard {
                batches: 0,
                blows_up_at,
            }
        }

        fn batch(&mut self) -> u64 {
            self.batches += 1;
            assert!(self.batches != self.blows_up_at, "shard blew up");
            1
        }
    }

    #[test]
    #[should_panic(expected = "shard blew up")]
    fn deliver_all_fails_fast_when_a_shard_panics() {
        let mut sharded = [FaultyShard::new(2), FaultyShard::new(2)];
        fork_join(&mut sharded, FaultyShard::batch);
        fork_join(&mut sharded, FaultyShard::batch); // both panic; must not hang
    }

    /// Whichever shard panics — the caller's own or a forked one — the
    /// call re-raises that shard's payload after the others finished
    /// their batch, and the next call serves every shard again.
    #[test]
    fn a_shard_panic_leaves_the_pool_usable() {
        for faulty in 0..3 {
            let shards = (0..3).map(|i| FaultyShard::new(if i == faulty { 1 } else { 0 }));
            let mut sharded: Vec<_> = shards.collect();
            let batch =
                std::panic::AssertUnwindSafe(|| fork_join(&mut sharded, FaultyShard::batch));
            let payload = std::panic::catch_unwind(batch).expect_err("the faulty shard panics");
            assert_eq!(payload.downcast_ref::<&str>(), Some(&"shard blew up"));
            let batches: u32 = sharded.iter().map(|shard| shard.batches).sum();
            assert_eq!(batches, 3, "every shard ran its batch");
            assert_eq!(fork_join(&mut sharded, FaultyShard::batch), 3);
        }
    }
}
