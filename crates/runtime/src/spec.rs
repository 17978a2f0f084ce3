//! Pipeline ingest: everything the toolkit can turn into a running
//! engine, under one roof.

use stategen_analysis::{analyze, analyze_bound, Analysis, AnalysisConfig};
use stategen_core::{
    generate, AbstractModel, Efsm, FlatIr, HierarchicalMachine, StateMachine, StategenError,
};

use crate::engine::Engine;

/// A machine specification entering the execution pipeline.
///
/// The paper's generation pipeline produces several artifact shapes —
/// flat FSM family members, parameter-generic EFSMs, hierarchical
/// statecharts. `Spec` is the single front door: every shape lowers
/// through one function onto the unified flat IR
/// ([`FlatIr`](stategen_core::FlatIr)) plus its parameter binding, and
/// that pair is all the analyzer, the fingerprint, [`Engine::compile`]
/// and [`Engine::interpret`] ever see — so deployment code never
/// branches on where a machine came from, and neither does this crate.
#[derive(Debug, Clone)]
pub enum Spec {
    /// A flat generated (or hand-built) state machine.
    Machine(StateMachine),
    /// An extended FSM plus the parameter values to bind — one EFSM
    /// serves the whole protocol family (e.g. every replication
    /// factor), specialised at ingest.
    Efsm {
        /// The parameter-generic machine.
        machine: Efsm,
        /// Concrete values for the EFSM's declared parameters, in
        /// declaration order.
        params: Vec<i64>,
    },
    /// A hierarchical statechart; flattened automatically on ingest
    /// (reachable configurations become flat states) through the
    /// unified lowering IR, so composite states, inherited transitions
    /// and shallow history run on the flat tiers unchanged. Unguarded
    /// statecharts land on the dense-table tier; statecharts with
    /// variables, guards or updates have `params` bound at ingest and
    /// lower as an EFSM does — unfolded onto the dense table when the
    /// bound configuration space fits the unfolding budget, onto the
    /// interpreter otherwise.
    Hierarchical {
        /// The statechart.
        machine: HierarchicalMachine,
        /// Concrete values for the statechart's declared parameters, in
        /// declaration order (empty for plain statecharts).
        params: Vec<i64>,
    },
}

impl Spec {
    /// Wraps a flat machine.
    pub fn machine(machine: StateMachine) -> Self {
        Spec::Machine(machine)
    }

    /// Wraps an EFSM with its parameter binding.
    pub fn efsm(machine: Efsm, params: Vec<i64>) -> Self {
        Spec::Efsm { machine, params }
    }

    /// Wraps a hierarchical statechart without parameters (for
    /// parameter-generic guarded statecharts, use
    /// [`Spec::hsm_with_params`]).
    pub fn hierarchical(machine: HierarchicalMachine) -> Self {
        Spec::Hierarchical {
            machine,
            params: Vec::new(),
        }
    }

    /// Wraps a guarded hierarchical statechart with its parameter
    /// binding — the statechart analogue of [`Spec::efsm`]: the machine
    /// is flattened to a guarded flat machine and the parameters are
    /// bound to it, so one statechart covers every member of the
    /// family.
    pub fn hsm_with_params(machine: HierarchicalMachine, params: Vec<i64>) -> Self {
        Spec::Hierarchical { machine, params }
    }

    /// Runs an abstract model through the generation pipeline
    /// (explore from the start state → merge) and wraps the generated
    /// family member — the paper's "generate on the fly" policy as one
    /// call.
    ///
    /// # Errors
    ///
    /// [`StategenError::Generate`] if the model is invalid.
    pub fn generated<M: AbstractModel>(model: &M) -> Result<Self, StategenError> {
        Ok(Spec::Machine(generate(model)?.machine))
    }

    /// The machine's display name.
    pub fn name(&self) -> &str {
        match self {
            Spec::Machine(m) => m.name(),
            Spec::Efsm { machine, .. } => machine.name(),
            Spec::Hierarchical { machine, .. } => machine.name(),
        }
    }

    /// The one lowering: the spec's machine on the unified flat IR
    /// (flat machines and EFSMs lift, statecharts flatten) and the
    /// parameter values to bind. Everything downstream — analysis,
    /// fingerprint, either [`Engine`] constructor — starts from this
    /// pair, so the shapes cannot drift apart.
    pub(crate) fn lower(&self) -> (FlatIr, &[i64]) {
        match self {
            Spec::Machine(m) => (FlatIr::from_machine(m), &[]),
            Spec::Efsm { machine, params } => (FlatIr::from_efsm(machine), params),
            Spec::Hierarchical { machine, params } => (machine.flatten_ir(), params),
        }
    }

    /// Runs the semantic analyzer (`stategen-analysis`) over the spec's
    /// lowered IR with the default configuration and returns the spec
    /// unchanged when it is clean — the opt-in ingest gate: put it
    /// between construction and [`Spec::compile`] and no machine with a
    /// deny-level finding ever becomes an engine.
    ///
    /// For EFSMs and parameterized statecharts the analysis runs under
    /// the spec's concrete binding (enabling the binding-dependent
    /// passes); when the binding does not match the machine's parameter
    /// count the analysis falls back to the binding-independent form
    /// and leaves reporting the mismatch to [`Spec::compile`].
    ///
    /// # Errors
    ///
    /// [`StategenError::Analysis`] carrying the deny-level findings.
    pub fn analyzed(self) -> Result<Self, StategenError> {
        self.analyzed_with(&AnalysisConfig::new())
    }

    /// [`Spec::analyzed`] with an explicit lint configuration (override
    /// levels per lint, tune the fixpoint and witness-search knobs).
    ///
    /// # Errors
    ///
    /// [`StategenError::Analysis`] carrying the deny-level findings.
    pub fn analyzed_with(self, config: &AnalysisConfig) -> Result<Self, StategenError> {
        self.analysis(config).check()?;
        Ok(self)
    }

    /// Runs the semantic analyzer and returns the full report (every
    /// finding, reachability, proved variable ranges) without gating —
    /// the inspection form of [`Spec::analyzed`].
    pub fn analysis(&self, config: &AnalysisConfig) -> Analysis {
        let (ir, params) = self.lower();
        if params.len() == ir.params().len() {
            analyze_bound(&ir, params, config)
        } else {
            analyze(&ir, config)
        }
    }

    /// Compiles into the deployment tier for this spec shape
    /// (shorthand for [`Engine::compile`]).
    ///
    /// # Errors
    ///
    /// As for [`Engine::compile`].
    pub fn compile(self) -> Result<Engine, StategenError> {
        Engine::compile(self)
    }

    /// Selects the no-preparation tier, whatever the spec's shape
    /// (shorthand for [`Engine::interpret`]).
    ///
    /// # Errors
    ///
    /// As for [`Engine::interpret`].
    pub fn interpret(self) -> Result<Engine, StategenError> {
        Engine::interpret(self)
    }
}

impl From<StateMachine> for Spec {
    fn from(machine: StateMachine) -> Self {
        Spec::Machine(machine)
    }
}

impl From<HierarchicalMachine> for Spec {
    fn from(machine: HierarchicalMachine) -> Self {
        Spec::hierarchical(machine)
    }
}
