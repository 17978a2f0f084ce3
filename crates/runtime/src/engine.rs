//! The owned, tier-agnostic execution artifact.

use std::sync::Arc;

use stategen_core::{fold_params, Artifact, FlatIr, MessageId, StategenError};

use crate::runtime::Runtime;
use crate::spec::Spec;
use crate::step::StepEngine;
pub use crate::step::Tier;

/// An owned, `Send + Sync + 'static` execution artifact: one [`Spec`]
/// resolved onto one tier.
///
/// Compile once (startup, generation time), clone freely — clones share
/// the underlying tables via `Arc` — and create any number of
/// [`Runtime`]s to serve sessions from it.
#[derive(Clone)]
pub struct Engine {
    /// The tier-resolved machine every session steps through.
    pub(crate) step: StepEngine,
    name: String,
    /// Behavioural identity: [`FlatIr::fingerprint`] of the ingested
    /// spec with the bound parameter values folded in. Equal
    /// fingerprints ⇒ behaviourally identical engines, whatever tier
    /// they resolved onto — the validity criterion for restoring a
    /// [`RuntimeSnapshot`](crate::RuntimeSnapshot).
    fingerprint: u64,
}

/// The engine in one line, not its tables: name, tier and the lowering
/// that put it there — `unfolded: 9 states × 2 vars → 91
/// configurations, …`, `interpreted: over budget at 4097
/// configurations` — then the fingerprint.
impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} #{:016x}", self.describe(), self.fingerprint)
    }
}

impl Engine {
    /// `engine <name> on <tier> — <the step engine's lowering line>`:
    /// shared by the `Debug` form and [`Runtime::dump_trace`]'s header.
    pub(crate) fn describe(&self) -> String {
        format!("engine `{}` on {} — {}", self.name, self.tier(), self.step)
    }

    /// An engine stepping `ir` through `step`, named from the IR, with
    /// behavioural fingerprint `fingerprint`.
    fn over(step: StepEngine, ir: &FlatIr, fingerprint: u64) -> Engine {
        Engine {
            step,
            name: ir.name().to_string(),
            fingerprint,
        }
    }

    /// Compiles a spec onto its deployment tier through the unified
    /// lowering IR: unguarded machines —
    /// flat machines, unguarded flattened statecharts — onto the
    /// dense-table tier; guarded ones — EFSMs, guarded statecharts —
    /// bound to their parameters and unfolded onto the dense table too
    /// when they reach at most 4 096 `(state, variables)`
    /// configurations, and walked by the interpreter otherwise (as
    /// [`Engine::interpret`] would, at the interpreter's dispatch cost).
    /// The `Debug` form of the result says which, and why.
    ///
    /// This is the serving configuration — pay one flattening pass at
    /// ingest, then dispatch in a few nanoseconds with zero allocation
    /// per delivered message.
    ///
    /// # Examples
    ///
    /// A counter bound to `limit = 3` unfolds onto the dense table at
    /// four configurations:
    ///
    /// ```
    /// use stategen_core::efsm::{CmpOp, EfsmBuilder, Guard, LinExpr, Update};
    /// use stategen_runtime::{Engine, Spec, Tier};
    ///
    /// let mut b = EfsmBuilder::new("counter", ["tick"]);
    /// let limit = b.add_param("limit");
    /// let n = b.add_var("n");
    /// let counting = b.add_state("counting");
    /// let done = b.add_state("done");
    /// let next = LinExpr::var(n).plus_const(1);
    /// for (op, to) in [(CmpOp::Lt, counting), (CmpOp::Ge, done)] {
    ///     let guard = Guard::when(next.clone(), op, LinExpr::param(limit));
    ///     b.add_transition(counting, "tick", guard, vec![Update::Inc(n)], vec![], to);
    /// }
    /// let engine = Engine::compile(Spec::efsm(b.build(counting, Some(done)), vec![3]))?;
    /// assert_eq!(engine.tier(), Tier::Compiled);
    /// let lowering = "unfolded: 2 states × 1 vars → 4 configurations, 65 table bytes";
    /// assert!(format!("{engine:?}").contains(lowering));
    /// assert_eq!(engine.state_count(), 2);
    /// # Ok::<(), stategen_runtime::StategenError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// [`StategenError::Compile`] if the machine cannot be lowered
    /// (e.g. duplicate `(state, message)` transitions with identical
    /// guards); [`StategenError::ParamCountMismatch`] if the binding
    /// has the wrong arity.
    pub fn compile(spec: Spec) -> Result<Engine, StategenError> {
        let (ir, params) = spec.lower();
        Ok(Engine::over(
            StepEngine::compile_ir(&ir, params)?,
            &ir,
            fold_params(ir.fingerprint(), params),
        ))
    }

    /// Compiles a deployable [`Artifact`] — typically just
    /// [`Artifact::load`]ed from bytes shipped to this host — onto its
    /// serving tier, exactly as [`Engine::compile`] lowers the spec the
    /// artifact was saved from (the artifact's parameter binding
    /// applied). This is the paper's deployment end game: the model
    /// is generated and verified once, and a peer boots from the
    /// artifact bytes alone — no model, no generator, no spec.
    ///
    /// The resulting engine's [`Engine::fingerprint`] equals
    /// [`Artifact::fingerprint`], and equals the fingerprint — and the
    /// [`Engine::tier`] — of an engine compiled in-process from the same
    /// spec, so snapshots, hot-swap compatibility checks and operator
    /// tooling treat artifact-loaded and spec-compiled engines
    /// interchangeably. The fingerprint is the one the artifact carries;
    /// nothing is hashed again.
    ///
    /// # Errors
    ///
    /// [`StategenError::Compile`] if the artifact's IR cannot be lowered
    /// (e.g. duplicate `(state, message)` transitions with identical
    /// guards — possible, since artifacts are authored externally);
    /// [`StategenError::ParamCountMismatch`] if the binding arity
    /// disagrees with the compiled machine.
    pub fn from_artifact(artifact: &Artifact) -> Result<Engine, StategenError> {
        let (ir, params) = (artifact.ir(), artifact.params());
        Ok(Engine::over(
            StepEngine::compile_ir(ir, params)?,
            ir,
            artifact.fingerprint(),
        ))
    }

    /// Resolves a spec onto the no-preparation tier: the same lowered
    /// IR [`Engine::compile`] would compile is walked as it stands
    /// ([`Tier::Interpreted`]), guards and updates evaluated from their
    /// expression trees — for flat machines, EFSMs and statecharts
    /// alike. Use while authoring or debugging a machine; switch the
    /// one call to [`Engine::compile`] to serve traffic.
    ///
    /// The two engines of one spec share [`Engine::fingerprint`],
    /// alphabet numbering, state ids and names and the per-session
    /// register layout, so a [`RuntimeSnapshot`](crate::RuntimeSnapshot)
    /// taken under either restores under the other, and
    /// [`Runtime::begin_swap`] between them migrates in place.
    ///
    /// # Examples
    ///
    /// ```
    /// use stategen_core::{Action, StateMachineBuilder, StateRole};
    /// use stategen_runtime::{Engine, Spec, Tier};
    ///
    /// let mut b = StateMachineBuilder::new("ping", ["ping"]);
    /// let idle = b.add_state("idle");
    /// let done = b.add_state_full("done", None, StateRole::Finish, vec![]);
    /// b.add_transition(idle, "ping", done, vec![Action::send("pong")]);
    /// let spec = Spec::machine(b.build(idle));
    ///
    /// let walked = Engine::interpret(spec.clone())?;
    /// let compiled = Engine::compile(spec)?;
    /// assert_eq!((walked.tier(), compiled.tier()), (Tier::Interpreted, Tier::Compiled));
    /// assert_eq!(walked.fingerprint(), compiled.fingerprint());
    /// // The same machine to every caller: the same answers on both tiers.
    /// for engine in [walked, compiled] {
    ///     let mut rt = engine.runtime();
    ///     let session = rt.spawn();
    ///     let ping = rt.message_id("ping").unwrap();
    ///     assert_eq!(rt.deliver(session, ping), [Action::send("pong")]);
    ///     assert!(rt.is_finished(session));
    /// }
    /// # Ok::<(), stategen_runtime::StategenError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// [`StategenError::ParamCountMismatch`] if the binding has the
    /// wrong arity. (Nothing is compiled, so nothing else can fail: of
    /// two transitions [`Engine::compile`] would reject as duplicates
    /// the interpreter simply never fires the second.)
    pub fn interpret(spec: Spec) -> Result<Engine, StategenError> {
        let (ir, params) = spec.lower();
        let ir = Arc::new(ir);
        let step = StepEngine::interpreted(Arc::clone(&ir), params)?;
        Ok(Engine::over(
            step,
            &ir,
            fold_params(ir.fingerprint(), params),
        ))
    }

    /// The tier this engine executes on.
    pub fn tier(&self) -> Tier {
        self.step.tier()
    }

    /// The machine's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The engine's behavioural fingerprint: a hash of the lowered IR
    /// with the bound parameter values folded in
    /// ([`FlatIr::fingerprint`] + [`fold_params`] — one definition in
    /// `stategen_core::fingerprint`, shared with the artifact format).
    /// Two engines with equal fingerprints are behaviourally identical
    /// regardless of tier or provenance, so a
    /// [`RuntimeSnapshot`](crate::RuntimeSnapshot) taken under one can
    /// be restored under the other.
    ///
    /// Operators use this to compare a *running* engine against an
    /// artifact *on disk* before attempting a rollout: an
    /// [`Artifact::fingerprint`] (also stored in the artifact's footer,
    /// so it can be read without compiling anything) equal to the
    /// serving engine's means [`Runtime::begin_swap`] will migrate every
    /// live session in place instead of draining — and a snapshot taken
    /// under this engine restores into an engine loaded from that
    /// artifact, and vice versa.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Number of (flat) states in the resolved machine.
    pub fn state_count(&self) -> usize {
        self.step.state_count()
    }

    /// The message alphabet, in declaration order.
    pub fn messages(&self) -> &[String] {
        self.step.messages()
    }

    /// Looks up a message id by name in O(1).
    pub fn message_id(&self, name: &str) -> Option<MessageId> {
        self.step.message_id(name)
    }

    /// The parameter values bound at ingest (empty for an unguarded
    /// machine).
    pub fn params(&self) -> &[i64] {
        self.step.params()
    }

    /// Creates a serving runtime over this engine: one shard, no
    /// sessions. Configure with [`Runtime::sharded`], then populate
    /// with [`Runtime::spawn`] / [`Runtime::spawn_many`].
    pub fn runtime(&self) -> Runtime {
        Runtime::new(self.clone())
    }

    /// Creates a single-shard runtime pre-populated with `sessions`
    /// sessions at the start state.
    ///
    /// # Examples
    ///
    /// The same runtime serves a guarded machine — here a counter bound
    /// to `limit = 3`, unfolded onto the dense table — and its sessions
    /// still answer in the source machine's variables:
    ///
    /// ```
    /// use stategen_core::efsm::{CmpOp, EfsmBuilder, Guard, LinExpr, Update};
    /// use stategen_runtime::{Engine, Spec};
    ///
    /// let mut b = EfsmBuilder::new("counter", ["tick"]);
    /// let limit = b.add_param("limit");
    /// let n = b.add_var("n");
    /// let counting = b.add_state("counting");
    /// let done = b.add_state("done");
    /// let next = LinExpr::var(n).plus_const(1);
    /// for (op, to) in [(CmpOp::Lt, counting), (CmpOp::Ge, done)] {
    ///     let guard = Guard::when(next.clone(), op, LinExpr::param(limit));
    ///     b.add_transition(counting, "tick", guard, vec![Update::Inc(n)], vec![], to);
    /// }
    /// let engine = Engine::compile(Spec::efsm(b.build(counting, Some(done)), vec![3]))?;
    ///
    /// let mut rt = engine.runtime_with(100);
    /// let tick = rt.message_id("tick").unwrap();
    /// let any = rt.spawn();
    /// rt.deliver_all(tick);
    /// rt.deliver_all(tick);
    /// assert_eq!((rt.finished_count(), rt.vars(any)), (0, &[2][..]));
    /// rt.deliver_all(tick);
    /// assert!(rt.all_finished());
    /// assert_eq!((rt.state_name(any), rt.vars(any)), ("done", &[3][..]));
    /// # Ok::<(), stategen_runtime::StategenError>(())
    /// ```
    pub fn runtime_with(&self, sessions: usize) -> Runtime {
        let mut rt = self.runtime();
        rt.spawn_many(sessions);
        rt
    }
}
