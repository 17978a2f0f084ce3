//! # stategen-runtime
//!
//! The deployment half of the paper in one owned, tier-agnostic pipeline:
//!
//! ```text
//!     Spec  ──compile/interpret──▶  Engine  ──runtime()──▶  Runtime
//!   (ingest)                      (owned, Send)           (serving facade)
//! ```
//!
//! The paper's central claim (§3.5/§4.2) is that one generated artifact
//! should be deployable under many execution policies — interpreted on
//! the fly, compiled, generated source. `stategen-core` says what a
//! machine is: the lowering IR ([`FlatIr`](stategen_core::FlatIr)), the
//! dense table it compiles to and the unfolding lowering of a bound
//! guarded machine ([`unfold`](stategen_core::unfold)). This crate says
//! how it runs — one private step engine that is the only code to branch
//! on the tier, one struct-of-arrays session store with its batch
//! kernels, one fork-join over shards — and owns the wiring from a
//! machine *specification* to a serving pool:
//!
//! * [`Spec`] — the ingest enum: a flat
//!   [`StateMachine`](stategen_core::StateMachine), an
//!   [`Efsm`](stategen_core::Efsm) plus its parameter binding, or a
//!   [`HierarchicalMachine`](stategen_core::HierarchicalMachine)
//!   (auto-flattened on ingest, so statecharts run on the flat tiers
//!   unchanged — with [`Spec::hsm_with_params`] binding a *guarded*
//!   statechart's parameters, the statechart analogue of
//!   [`Spec::efsm`]).
//!
//! Every ingest shape lowers through **one function** onto the unified
//! flat IR ([`FlatIr`](stategen_core::FlatIr)), a flat machine whose
//! transitions carry optional guards and updates — a plain FSM is just
//! the degenerate EFSM — and that IR plus the spec's parameter values
//! is all that [`Engine::compile`], [`Engine::interpret`], the analyzer
//! and the fingerprint ever see. [`Engine::interpret`] walks the IR as
//! it stands, *whatever the shape* — interpreted means interpreted for
//! EFSMs and guarded statecharts too. [`Engine::compile`] lets the IR
//! pick the execution substrate: no guard anywhere → the dense
//! transition table; guards, updates or variables → the parameters are
//! bound and the machine's reachable `(state, variables)`
//! configurations enumerated (the paper's §4.2: bind the replication
//! factor, *then* generate the FSM), and when there are at most 4 096
//! of them they become the rows of a dense table too — the machine is
//! *unfolded*; only an unbounded or over-budget one is walked by the
//! interpreter instead, as [`Engine::interpret`] would. Which happened, and why, is
//! the engine's `Debug` form and the first line of
//! [`Runtime::dump_trace`]. The two engines of one spec are one machine
//! on two tiers: same fingerprint, same state and message numbering,
//! same per-session register layout — an unfolded engine answers
//! `state`, `vars`, snapshots and recorder events in the source
//! machine's terms.
//! * [`Engine`] — the compiled artifact, **owned** (`Send + Sync +
//!   'static`, cheap to clone): the tier-resolved machine behind
//!   `Arc`s plus its name and behavioural fingerprint, so engines move
//!   freely across threads, into servers, and outlive their
//!   construction scope without borrow lifetimes.
//! * [`Runtime`] — the serving facade: [`spawn`](Runtime::spawn) →
//!   [`SessionId`], [`deliver`](Runtime::deliver),
//!   [`deliver_all`](Runtime::deliver_all), [`reset`](Runtime::reset),
//!   [`release`](Runtime::release) and introspection, uniform across
//!   every tier, with opt-in sharding ([`sharded`](Runtime::sharded))
//!   as *configuration* rather than a distinct type.
//!
//! Everything fallible returns the unified
//! [`StategenError`], and sessions are addressed by the generational
//! [`SessionId`] handle — a recycled slot invalidates outstanding
//! handles loudly instead of silently serving a stranger's session
//! (or, for handles from untrusted sources, *fallibly*:
//! [`Runtime::try_deliver`] returns [`StategenError::StaleSession`]
//! instead of panicking).
//!
//! ## Tier selection guide
//!
//! | you have | call | tier | use when |
//! |---|---|---|---|
//! | any spec — `StateMachine`, `Efsm` + values, statechart | [`Engine::interpret`] | [`Tier::Interpreted`] | authoring, debugging, one-off runs; no preparation pass |
//! | a `StateMachine` to serve traffic | [`Engine::compile`] | [`Tier::Compiled`] | dense-table dispatch in ~1 ns, zero allocation per delivery |
//! | an `Efsm` + parameter values, finitely many reachable configurations (≤ 4 096) | [`Engine::compile`] | [`Tier::Compiled`] | one machine generic over the protocol parameter (e.g. replication factor), unfolded per binding onto the dense table |
//! | an `Efsm` + parameter values, unbounded or over budget | [`Engine::compile`] | [`Tier::Interpreted`] | counters the dense table cannot hold: the interpreter's walk over per-session registers, the fallback's reason in the `Debug` line |
//! | an unguarded `HierarchicalMachine` | [`Engine::compile`] | [`Tier::Compiled`] | statecharts flatten into the same dense tables; the front-end is not a tier |
//! | a *guarded* `HierarchicalMachine` + parameter values | [`Engine::compile`] with [`Spec::hsm_with_params`] | [`Tier::Compiled`] when the bound machine unfolds, else [`Tier::Interpreted`] | statecharts with variables/guards/updates flatten to a guarded flat machine, which then lowers exactly as an `Efsm` does |
//! | [`Artifact`] bytes | [`Engine::from_artifact`] | whichever of the two its machine compiles onto | booting a serving host from shipped bytes alone |
//! | a machine known at *build* time | `stategen-generated` | — | rendered source, no machine data at runtime |
//!
//! Two tiers — the paper's two deployment policies (§4.2): generate the
//! FSM for one binding, or interpret the model; the same machine reports the same tier
//! whether it arrived as a spec or as an artifact. All tiers are
//! behaviourally equivalent: this crate's operation oracle
//! (`tests/oracle`) runs one script of operations through both engines
//! of every spec shape, sharded, observed and artifact-booted, against
//! one `IrInstance` per session, and `stategen_core::equivalent`
//! decides that each dense table, unfolding, quotient and flattening is
//! the machine it was lowered from.
//!
//! ## Crash safety: snapshots, restore, and timeouts
//!
//! A deployed runtime must survive its host process. Two facilities
//! cover that:
//!
//! * **Snapshots.** [`Runtime::snapshot`] captures one session (state,
//!   full register file, handle generation);
//!   [`Runtime::snapshot_all`] captures the whole pool as a
//!   [`RuntimeSnapshot`], tagged with the engine's *behavioural
//!   fingerprint* ([`Engine::fingerprint`] — a hash of the lowered IR
//!   plus bound parameters, identical across tiers for identical
//!   behaviour); [`Runtime::snapshot_into`] writes the same capture
//!   over an earlier one, reusing its buffers, for a caller that
//!   checkpoints often. [`Runtime::restore`] rebuilds a runtime from a
//!   snapshot, refusing with [`StategenError::SnapshotMismatch`]
//!   unless the fingerprints agree: a snapshot restores only into a
//!   behaviourally identical machine. Restoration is *bit-identical* —
//!   states, registers, free lists, step counters and slot
//!   generations — so [`SessionId`]s minted before a crash keep
//!   addressing their sessions afterwards; recovered peers resume
//!   in-flight protocol executions instead of orphaning them.
//!
//!   **Not captured:** armed timeouts (the wheel is volatile
//!   coordination state — re-arm after restore from your own durable
//!   bookkeeping) and the engine itself (recompile from the spec or
//!   reload its artifact; the fingerprint check catches a divergent
//!   recompile).
//!
//! ## Deployment: artifacts and hot-swap
//!
//! The paper's end game is shipping the verified machine to a fleet.
//! [`Artifact`] is the deployable form — a
//! versioned, checksummed, canonical binary encoding of the lowered IR
//! plus its parameter binding (byte layout and trust model in
//! `docs/ARTIFACT_FORMAT.md`) — and [`Engine::from_artifact`] boots an
//! engine from loaded bytes alone: no model, no generator, no spec on
//! the serving host, zero allocations per delivered message once
//! loaded. [`Engine::fingerprint`] equals the artifact's stored
//! fingerprint, so operators compare a running engine against bytes on
//! disk before rolling anything out.
//!
//! Version rollout on a *live* runtime is
//! [`Runtime::begin_swap`]: behaviourally identical engines migrate
//! every session in place (handles stay valid); behaviourally different
//! ones drain-and-switch — new spawns land on the incoming engine,
//! in-flight sessions finish on the outgoing one, and
//! [`Runtime::finish_swap`] / [`Runtime::abort_swap`] complete or roll
//! back the switch. Incompatible engines (different message alphabets)
//! are rejected before any session moves.
//!
//! ## Observability: metrics, histograms, flight recorder
//!
//! Telemetry is woven in at three costs (see `docs/OBSERVABILITY.md`):
//!
//! * **Counters — always on.** [`Runtime::metrics`] merges per-shard
//!   and runtime-level relaxed atomic counters (deliveries,
//!   transitions, guard fall-throughs, spawns, finished/aborted
//!   releases, resets, timeouts, timer cascades, swaps, snapshots,
//!   restores) into a plain [`MetricsSnapshot`], exportable as JSON.
//!   One cache-local add per event; no configuration.
//! * **Histograms — armed with the recorder.** Log-bucketed fixed-size
//!   [`LogHistogram`]s (≤ 6.25 % relative error, no allocation after
//!   construction) record per-[`deliver_all`](Runtime::deliver_all)
//!   batch latency ([`Runtime::batch_latency`]) with
//!   p50/p99/p999 extraction.
//! * **Flight recorder — opt-in.** [`Runtime::attach_recorder`] gives
//!   every shard a fixed-capacity ring of [`TransitionEvent`]s, filled
//!   from a probe of each batch's tail — the batch loop itself records
//!   nothing, observed or not. [`Runtime::dump_trace`] renders the rings as
//!   a human-readable trace; [`Runtime::abort_swap`] captures one
//!   automatically ([`Runtime::abort_dump`]). Attaching a recorder
//!   never changes behaviour — delivered actions, states and
//!   snapshots are bit-identical to an unobserved run.
//!
//! * **Timeouts as transitions.** [`Runtime::arm_timeout`] /
//!   [`Runtime::cancel_timeout`] maintain one deadline per session in
//!   a hashed hierarchical [`TimerWheel`] (O(1) arm/cancel);
//!   [`Runtime::advance_time`] expires due deadlines *without any
//!   full-session scan* and feeds the caller's timeout message through
//!   the normal delivery path — a timeout is just another transition
//!   in the machine, so retry/give-up behaviour lives in the spec, not
//!   in runtime hooks.
//!
//! ## Example
//!
//! ```
//! use stategen_core::{Action, StateMachineBuilder, StateRole};
//! use stategen_runtime::{Engine, Spec};
//!
//! let mut b = StateMachineBuilder::new("ping", ["ping"]);
//! let idle = b.add_state("idle");
//! let done = b.add_state_full("done", None, StateRole::Finish, vec![]);
//! b.add_transition(idle, "ping", done, vec![Action::send("pong")]);
//! let machine = b.build(idle);
//!
//! // One code path, any tier.
//! let engine = Engine::compile(Spec::machine(machine))?;
//! let mut rt = engine.runtime();
//! let session = rt.spawn();
//! let ping = rt.message_id("ping").unwrap();
//! assert_eq!(rt.deliver(session, ping), [Action::send("pong")]);
//! assert!(rt.is_finished(session));
//! assert_eq!(rt.state_name(session), "done");
//! # Ok::<(), stategen_runtime::StategenError>(())
//! ```
//!
//! Partitioning the same runtime's 100k concurrent sessions into 4
//! shards is configuration, not a different API:
//!
//! ```no_run
//! # use stategen_core::{Action, StateMachineBuilder, StateRole};
//! # use stategen_runtime::{Engine, Spec};
//! # let mut b = StateMachineBuilder::new("ping", ["ping"]);
//! # let idle = b.add_state("idle");
//! # b.add_transition(idle, "ping", idle, vec![]);
//! # let engine = Engine::compile(Spec::machine(b.build(idle))).unwrap();
//! let mut rt = engine.runtime().sharded(4);
//! rt.spawn_many(100_000);
//! let ping = rt.message_id("ping").unwrap();
//! for _ in 0..64 {
//!     // one fork-join per batch: shard 0 on this thread, a scoped
//!     // thread for each of the other three, all joined on return
//!     rt.deliver_all(ping);
//! }
//! ```
//!
//! Sharding buys capacity and isolation rather than speed: on a
//! two-thread machine a batch forked over two shards costs 1.1× (a
//! divergent pool) to 3× (a lockstep one) the flat call, the thread
//! spawn dominating small batches (`docs/KERNELS.md`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

#[doc(hidden)]
pub mod bench;
mod engine;
mod interp;
mod kernel;
mod runtime;
mod session;
mod spec;
mod step;
mod timer;

pub use engine::{Engine, Tier};
pub use interp::Session;
pub use runtime::{Runtime, RuntimeSnapshot, SessionId, SessionSnapshot, SwapOutcome};
pub use spec::Spec;
pub use stategen_analysis::{Analysis, AnalysisConfig};
pub use timer::TimerWheel;

// The telemetry vocabulary, re-exported so deployment sites need only
// this crate to read metrics and traces.
pub use stategen_telemetry::{FlightRecorder, LogHistogram, MetricsSnapshot, TransitionEvent};

// The unified error and the trait vocabulary, re-exported so deployment
// sites need only this crate.
pub use stategen_core::{
    Action, Artifact, ArtifactError, MessageId, ProtocolEngine, StategenError, SwapError,
};
