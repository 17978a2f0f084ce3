#!/usr/bin/env bash
# Repo verification: tier-1 gate plus lint, doc and benchmark gates.
#
#   scripts/verify.sh
#
# 1. builds the whole workspace in release mode;
# 2. runs every test (default-members covers all crates) — this
#    includes the HSM property suite (crates/core/tests/hsm_props.rs),
#    the guarded-statechart property suite
#    (crates/runtime/tests/hsm_guarded_props.rs: HsmInstance ≡
#    interpreted IR ≡ Runtime, compiled and interpreted, on randomized
#    guarded statecharts), the flattening
#    compiler's trace-equivalence gate,
#    and the runtime facade's cross-tier conformance suite
#    (crates/runtime/tests/conformance.rs);
# 3. lints the whole workspace (clippy, warnings denied), checks
#    formatting (rustfmt) and builds the docs with rustdoc warnings
#    denied (broken intra-doc links fail the gate);
# 4. regenerates BENCH_engine_tiers.json via the engine_tiers binary,
#    which also asserts the zero-allocation claims (including the
#    hsm_guarded_flattened row: a guarded statechart bound and unfolded
#    onto the dense tier, 64k sessions, 0 allocs/delivery hard-asserted,
#    and the efsm_kernel_over_budget row: the r = 64 commit EFSM past the
#    unfolding budget, deliver_all on the interpreter), the batch
#    kernel gates — batched_kernel ≥ 1.25x the scalar pool walk, paired
#    passes at 4096 lockstep sessions, and batched_kernel_divergent ≥
#    1.5x the scalar walk on a pre-diverged 65 536-session pool, 0
#    allocs/delivery (docs/KERNELS.md) — and
#    the telemetry overhead bounds — runtime_facade ≤ 1.10x raw compiled
#    dispatch with telemetry compiled in but disabled, and
#    runtime_observed (flight recorder + metrics on) ≤ 1.25x the
#    facade, both at 64k sessions / 0 allocs per delivery, paired
#    measurement — keeping the perf trajectory tracked on every PR (the
#    storage stack's end-to-end numbers come from step 8's traced
#    benchmark/ runs);
# 5. replays the chaos campaign's pinned seeds (loss + duplication +
#    reordering + a peer crash/restart recovering from its checkpoint,
#    full agreement asserted), the artifact corruption campaign's
#    pinned seeds (truncation at every prefix, every single-bit flip,
#    seeded multi-bit flips and cross-artifact splices — the loader
#    must reject, never panic) with the rest of the artifact suite
#    (carried fingerprint, named section checksums, pinned images) and
#    the FNV word path's tests against the byte loop, all in release
#    mode, and the fleet-rollout campaign's pinned
#    seeds (drain-and-switch hot-swap with mid-swap crash recovery),
#    so the crash-safety and deployment guarantees are exercised on
#    every verification run, not just in CI roulette;
# 6. runs the static-analyzer corpus sweep at deny level: every model
#    machine in the workspace goes through `stategen-analysis` and none
#    may carry a deny-level finding, and minimization must stay
#    observation-equivalent and idempotent on the whole corpus (the
#    engine_tiers run additionally hard-gates the hsm_minimized row:
#    the ring quotient must be smaller, allocation-free, and no slower
#    than the unminimized original in paired passes);
# 7. fails if the benchmark artefacts are missing required rows
#    (including the runtime_facade, artifact_cold_load,
#    hsm_minimized and efsm_kernel_over_budget rows),
#    or if a deleted name reappears or a confined one spreads: one table
#    of grep rules (pattern, paths, allowed files, the reason and its
#    CHANGES.md entry) covers the deleted pools, drivers, instance
#    types, register tier and checkers, the sharded pool and its trait,
#    core paths to the serving layer that is now stategen-runtime's,
#    Condvar and the lazy finished bitset in the core or runtime
#    sources, the unfolded side table outside core::unfold and the
#    runtime's step engine, and the explorer's reached set outside
#    core::explore and its three searches, and the second and third
#    measuring systems (the criterion shim and its benches,
#    storage_throughput and BENCH_storage.json) and the generator
#    options only they set; and re-runs in
#    release mode the generation-exhaustion unit test (its arithmetic
#    wraps there instead of panicking), the foreign-message-id batch
#    test (a debug assertion used to be the register tier's only guard),
#    the lowering-decision unit test and the no-fallback test (every
#    deployed guarded machine unfolds; past the budget the interpreter
#    takes over, saying why) and the unreachable-configuration restore
#    test (an unfolded engine
#    refuses a snapshot its machine cannot have produced: typed error,
#    runtime untouched, in both profiles), the events-per-commit count
#    test and the crashed-client restart test of the storage stack, the
#    simulator's calendar-against-heap differential test and its
#    saturating-time test, the two tests that pin the storage
#    stack's message schedule and the peer's two-crash checkpoint test
#    (debug builds assert every checkpoint write against the live
#    bookkeeping; release builds do not, so the test is the check); and
#    fails if CommitPeer or PeerCheckpoint declare one of the
#    attempt-keyed fields the in-flight table replaced, if the
#    checkpoint holds a history or a finished set again (both are
#    written through by the commit's synchronous write —
#    docs/STORAGE.md, "Durability"), or if the ledger's in-flight table
#    or the peer's GC tags become a map again;
# 8. runs the benchmark/ package's own gate (benchmark/check.sh: it is
#    a workspace of its own, so steps 1-3 do not reach it) and one short
#    traced storage_commit run, which must pass its output checks,
#    keep a peer's on_message cost flat over a 2 000-commit history
#    (storage.history_growth_ratio <= 1.25: the last tenth of a run's
#    messages against the first, within one process, so machine speed
#    cancels; it read 10 while CommitPeer scanned its history, 1.5 on
#    five attempt-keyed trees, 1.03-1.15 on the in-flight table), end
#    with no more sessions in a peer's runtime than attempts can be in
#    flight (storage.peer_live_sessions_end <= 12; 2 000 while finished
#    attempts kept theirs) and wake its endpoints at most 8 times per
#    commit (client.on_timer calls per simulation span in the trace
#    file <= 16 000; about 9 300 with one live wake-up chain per
#    endpoint, 93 000-306 000 while every superseded wake-up bred a
#    chain of its own — docs/STORAGE.md), reproduce seed 1's exact
#    schedule (check.checksum_low32, storage.msgs_per_commit and
#    storage.virtual_end_ticks pinned) and allocate at most 2.5 times per
#    commit (alloc.allocs_per_kop <= 2 500; 4 638 while the endpoint
#    built a contact order and a reporter set per attempt, about 2 040
#    since), then one short traced storage_chaos run, which must pass
#    its output checks, reproduce seed 1's exact schedule under loss,
#    duplication, reordering and 16 peer restarts, and allocate at most
#    10 times per commit (alloc.allocs_per_kop <= 10 000; 36 737 while
#    every checkpoint write allocated a fresh runtime snapshot, about
#    5 460 since it writes into the last one's buffers), then one short
#    traced build_deploy run,
#    which must pass its output checks, reproduce seed 1's checksum
#    over every corpus fingerprint (check.checksum_low32 2257151477),
#    load an artifact in at most 1.25x the time saving it takes
#    (core.artifact.load_us / save_us: 1.65 while a load hashed each
#    byte four times and the IR three, about 1.0 since it carries the
#    verified fingerprint and copies the verified checksum words), and
#    spend no more of a corpus
#    pass in `analyze` or in `minimize` than 4x the engine compiler, a
#    linear stage beside them (a ratio inside one run; analyze reads
#    1.47-1.54x and minimize 1.15-1.21x, about 25x at commit r = 25
#    while a refinement round searched the classes seen so far —
#    docs/ANALYSIS.md; the generator, their old yardstick, got 5x
#    cheaper when it stopped elaborating unreached states), then one short traced
#    batch_divergent run, which must pass its output checks, allocate
#    nothing per delivery, and serve a divergent deliver_all on the
#    compiled dense tier in at most half the interpreted tier's time
#    per session (a ratio inside one run; it read 0.73 while the dense
#    kernel counting-sorted sessions by state, about 0.15 since the
#    one-pass column gather — docs/KERNELS.md), then one short traced
#    batch_guarded run with the same checks at a quarter of the
#    interpreted tier's time (the commit EFSM, bound, is served unfolded
#    from the dense table: about 0.07; a fallback to the interpreter
#    would read about 1).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo build --release =="
cargo build --release

echo "== cargo test -q (includes the HSM property + facade conformance suites) =="
cargo test -q

echo "== cargo clippy --workspace --all-targets -- -D warnings =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo doc --workspace --no-deps (rustdoc warnings denied) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "== engine_tiers (regenerates BENCH_engine_tiers.json) =="
cargo run --release -p repro-bench --bin engine_tiers

echo "== chaos campaign: pinned-seed replay (crash/restart + full agreement) =="
cargo test -q --release -p asa-storage --test chaos chaos_pinned_seed

echo "== artifact suite + FNV word path (release: corruption campaigns, carried fingerprint, pinned images) =="
cargo test -q --release -p stategen-core --test artifact_props
cargo test -q --release -p stategen-core --lib fingerprint

echo "== fleet-rollout campaign: pinned-seed replay (hot-swap + mid-swap crash recovery) =="
cargo test -q --release -p asa-storage --test rollout rollout_pinned_seed

echo "== analyzer corpus sweep: every model machine deny-clean, minimization equivalent =="
cargo test -q --release -p stategen-analysis --test corpus

echo "== generation exhaustion (release: overflow would wrap, not panic) =="
cargo test -q --release -p stategen-runtime --lib exhausted_generation

echo "== foreign message id in a batch (release: one panic message on every tier) =="
cargo test -q --release -p stategen-runtime --lib deliver_all_rejects_foreign_message_ids

echo "== lowering decision + no deployed machine falls back (release) =="
cargo test -q --release -p stategen-runtime --lib lowering_is_decided_by_the_bound_configuration_space
cargo test -q --release -p stategen-runtime --test conformance no_deployed_machine_falls_back

echo "== unreachable configuration in a snapshot (release: typed error, runtime untouched) =="
cargo test -q --release -p stategen-runtime --lib restore_refuses_unreachable_configurations

echo "== events per commit flat in the history (release) =="
cargo test -q --release -p asa-storage --lib events_per_commit_do_not_grow_with_the_history

echo "== a crashed client wakes up again (release) =="
cargo test -q --release -p asa-storage --test commit_simulation crashed_client_wakes_up

echo "== calendar queue = heap scheduler, event for event; time saturates (release) =="
cargo test -q --release -p asa-simnet --lib calendar_matches_the_heap_scheduler_on_random_scripts
cargo test -q --release -p asa-simnet --lib never_timers_saturate_instead_of_wrapping

echo "== the storage stack's message schedule is the pinned one (release) =="
cargo test -q --release -p asa-storage --lib message_schedule_is_the_pinned_one
cargo test -q --release -p asa-storage --lib table_peer_matches_the_reference_peer_on_random_chaos

echo "== the peer's checkpoint stays exact through two crashes (release) =="
cargo test -q --release -p asa-storage --lib journaled_checkpoint_and_indexes_stay_exact_through_two_crashes

echo "== deleted names stay deleted; confined names stay confined =="
# One row per rule: grep flags % pattern % paths % files that may name
# it (a regex over grep's `file:` prefix; empty: none) % why, with the
# CHANGES.md entry. A rule fails if a file outside its allow-list names
# the pattern.
set -f # the --include globs are grep's, not the shell's
while IFS='%' read -r flags pattern paths allowed why; do
    # shellcheck disable=SC2086 # flags and paths are word lists
    if grep -rn $flags -e "$pattern" $paths | grep -vE "${allowed:-^$}"; then
        echo "verify.sh: $why" >&2
        exit 1
    fi
done <<'ROWS'
-E%SessionPool|EfsmSessionPool|ParkedWorkers|StealingWorkers|with_stealing_workers|EngineKind|FlattenedHsm%crates/ src/ examples/ tests/ docs/%%the names above were deleted by the session-store collapse (CHANGES.md, PR 14)
-E%FsmInstance|EfsmInstance|CompiledInstance|KernelScratch|sweep_bucket%crates/ src/ examples/ tests/ docs/%%the names above were deleted by the one-step collapse (CHANGES.md, PR 16)
-E%with_workers|\bWorkers\b|WorkerMailbox|ShardDeque|worker_loop%crates/ src/ examples/ tests/ docs/%%the names above belong to the worker driver one fork-join per batch replaced (CHANGES.md, PR 25)
-E%efsm_lockstep|dispatch_shape%crates/ src/ examples/ tests/%%the register tier's lockstep sweep failed its 1.3x rule and was deleted (CHANGES.md, PR 25)
-E%CompiledEfsm|EfsmBinding|efsm_compiled::|Tier::CompiledEfsm|StepEngine::register|Repr::Register%crates/ src/ examples/ tests/%%the register tier was deleted; past the unfolding budget a guarded machine runs on the interpreter (CHANGES.md, PR 30; docs/KERNELS.md)
-iE%\b(validate_machine|ValidationReport|structural_diagnostics|missing_transitions|check_deterministic|check_guard_determinism)\b|compiled-efsm%crates/ src/ examples/ tests/ docs/%%stategen-analysis is the one well-formedness and guard-determinism checker, and no compiled-EFSM tier is left (CHANGES.md, PR 34; docs/ANALYSIS.md)
-E%Condvar%crates/core/src crates/runtime/src%%sharded batches are a scoped fork-join; nothing parks on a condvar (CHANGES.md, PR 25)
-E%FinishedBits|finished_slots|\.dirty%crates/core/src crates/runtime/src%%the finished count is eager; the lazy bitset above was deleted (CHANGES.md, PR 15)
-E --include=*.rs%\bUnfolded\b%crates/ src/ examples/ tests/%^crates/(core/src/(unfold|lib)|runtime/src/step)\.rs:%an unfolded table's side table is core::unfold's lowering output and the runtime step engine's alone; callers see source states and registers (CHANGES.md, PR 36)
-E --include=*.rs%\bReachedSet\b%crates/ src/ examples/ tests/%^crates/core/src/(explore|unfold|generator|hsm)\.rs:%the explorer's reached set belongs to core::explore and its three searches (unfold, generate_with, flatten_ir) (CHANGES.md, PR 35)
-E%\b(Worklist|add_config|Configs)\b%crates/ src/ examples/ tests/ docs/%%the generator's, the unfolder's and the flattener's own visited sets were folded into core::explore (CHANGES.md, PR 35; docs/KERNELS.md)
-E%\b(ShardedPool|BatchEngine)\b%crates/ src/ examples/ tests/ docs/%%a runtime's shards run through its private fork-join; the generic pool and its trait were deleted (CHANGES.md, PR 36)
-E%stategen_core::(SessionStore|StepEngine|Instance|Taken|BatchTally|Tier)\b%crates/ src/ examples/ tests/%%the serving layer is private to stategen-runtime; core says what a machine is (CHANGES.md, PR 36)
-E%\b(render_efsm_dot|render_efsm_text|DotOptions|TextRenderer|include_descriptions|render_markdown_report|render_machine_summary)\b%crates/ src/ examples/ tests/ docs/%%every renderer reads FlatIr and optional Notes; the EFSM renderers folded into the flat ones and the settable options and unused reports above were deleted (CHANGES.md: one machine for every back end)
-E%\bfn (to_machine|flatten)\b%crates/core/src%%StateMachine is an authoring type lowered once by FlatIr::from_machine; the FlatIr -> StateMachine projections were deleted (CHANGES.md: one machine for every back end)
-E --include=*.rs%CompiledMachine::compile\(|Artifact::from_machine%crates/ src/ examples/ tests/%%lower with FlatIr::from_machine, then CompiledMachine::compile_ir or Artifact::new (CHANGES.md: one machine for every back end)
-E --include=*.rs%\b(StateMachine|Efsm)\b%crates/render/src%%the renderers consume only the lowered machine (FlatIr) and its Notes (CHANGES.md: one machine for every back end)
-E%\b(criterion_group|criterion_main|storage_throughput|BENCH_storage|MergeStrategy|keep_self_loops|annotate_states|SinglePass)\b|vendor/criterion%crates/ src/ examples/ tests/ docs/ Cargo.toml%%benchmark/ is the one measuring instrument: the criterion shim, its benches and storage_throughput were deleted, and the generator options only they set became constants (CHANGES.md: one measuring instrument)
ROWS
set +f

# The peer keeps one in-flight table (version_service/ledger.rs); the
# five attempt-keyed collections live on in reference.rs, for tests.
if awk '/^pub struct CommitPeer|^struct PeerCheckpoint/,/^}/' crates/storage/src/version_service.rs \
        | grep -nE '^ +(slots|seen|clients|active): '; then
    echo "verify.sh: the fields above were collapsed into the peer's ledger (CHANGES.md, PR 23)" >&2
    exit 1
fi
# A checkpoint holds the runtime snapshot and the unfinished attempts; the
# history and the finished set are written through, never copied into it.
if awk '/^struct PeerCheckpoint/,/^}/' crates/storage/src/version_service.rs \
        | grep -nE '^ +(history|committed|finished|recorded|ledger): |BTreeSet|Vec<Pid>'; then
    echo "verify.sh: PeerCheckpoint holds no history or finished set: the commit write makes both durable (docs/STORAGE.md)" >&2
    exit 1
fi
# A message's lookups scan a sorted Vec of the attempts in flight, and a
# GC timer finds its attempt in a ring indexed by its tag: no tree search
# per message or per spawn.
if grep -nE '^ +table: *(BTreeMap|HashMap)' crates/storage/src/version_service/ledger.rs \
        || awk '/^pub struct CommitPeer|^struct GcTags/,/^}/' crates/storage/src/version_service.rs \
            | grep -nE 'BTreeMap|HashMap'; then
    echo "verify.sh: Ledger::table is a sorted Vec and gc_tags a ring indexed by tag (docs/STORAGE.md)" >&2
    exit 1
fi

echo "== benchmark artefact checks =="
for row in interpreted_name compiled hsm_flattened hsm_guarded_flattened \
           hsm_unminimized hsm_minimized \
           batched_pool batched_kernel efsm_kernel_over_budget \
           batched_kernel_divergent batched_pool_divergent \
           artifact_cold_load artifact_booted_pool generated \
           runtime_facade runtime_observed; do
    grep -q "\"name\": \"$row\"" BENCH_engine_tiers.json \
        || { echo "BENCH_engine_tiers.json is missing the $row row" >&2; exit 1; }
done

echo "== benchmark package gate (benchmark/check.sh) =="
bash benchmark/check.sh

echo "== storage_commit traced: output checks + pinned seed-1 schedule + history_growth_ratio <= 1.25 + live sessions <= 12 + client wake-ups <= 8 per commit + allocs_per_kop <= 2500 =="
bash benchmark/run.sh --workload storage_commit --seed 1 --seconds 3 --trace 1 | tail -n 1 | python3 -c '
import json, sys
metrics = json.load(sys.stdin)["metrics"]
growth = metrics["storage.history_growth_ratio"]["value"]
live = metrics["storage.peer_live_sessions_end"]["value"]
failed = metrics["check.failed_share"]["value"]
allocs = metrics["alloc.allocs_per_kop"]["value"]
schedule = tuple(metrics[k]["value"] for k in ("check.checksum_low32", "storage.msgs_per_commit", "storage.virtual_end_ticks"))
calls = json.load(open("benchmark/out/trace_storage_commit.json"))["by_name"]
wakes = calls["client.on_timer"]["count"] / calls["simulation"]["count"]
print(f"storage.history_growth_ratio {growth:.2f}, peer_live_sessions_end {live}, client.on_timer per 2000-commit run {wakes:.0f}, allocs_per_kop {allocs:.0f}, check.failed_share {failed}")
print(f"seed 1 schedule (checksum_low32, msgs_per_commit, virtual_end_ticks): {schedule}")
pinned = schedule == (2263794710, 32.6285625, 55690.25)
sys.exit(0 if pinned and growth <= 1.25 and live <= 12 and wakes <= 8 * 2000 and allocs <= 2500 and failed == 0 else 1)'

echo "== storage_chaos traced: output checks + pinned seed-1 schedule + 16 restarts + allocs_per_kop <= 10000 =="
bash benchmark/run.sh --workload storage_chaos --seed 1 --seconds 3 --trace 1 | tail -n 1 | python3 -c '
import json, sys
metrics = json.load(sys.stdin)["metrics"]
failed = metrics["check.failed_share"]["value"]
allocs = metrics["alloc.allocs_per_kop"]["value"]
restarts = metrics["storage.restarts"]["value"]
schedule = tuple(metrics[k]["value"] for k in ("check.checksum_low32", "storage.msgs_per_commit", "storage.virtual_end_ticks"))
print(f"restarts {restarts}, allocs_per_kop {allocs:.0f}, check.failed_share {failed}")
print(f"seed 1 schedule (checksum_low32, msgs_per_commit, virtual_end_ticks): {schedule}")
pinned = schedule == (3703339031, 36.9528125, 116428.5625)
sys.exit(0 if pinned and restarts == 16 and allocs <= 10000 and failed == 0 else 1)'

echo "== build_deploy traced: output checks + analyze_ms, minimize_ms <= 4x compile_ms + load_us <= 1.25x save_us + pinned seed-1 checksum =="
bash benchmark/run.sh --workload build_deploy --seed 1 --seconds 3 --trace 1 | tail -n 1 | python3 -c '
import json, sys
metrics = json.load(sys.stdin)["metrics"]
compile = metrics["runtime.engine.compile_ms"]["value"]
analyze = metrics["analysis.analyze_ms"]["value"]
minimize = metrics["analysis.minimize_ms"]["value"]
load = metrics["core.artifact.load_us"]["value"]
save = metrics["core.artifact.save_us"]["value"]
checksum = metrics["check.checksum_low32"]["value"]
failed = metrics["check.failed_share"]["value"]
print(f"compile_ms {compile:.2f}, analyze_ms {analyze:.2f}, minimize_ms {minimize:.2f}, check.failed_share {failed}")
print(f"artifact load_us {load:.1f} = {load / save:.2f}x save_us {save:.1f}; check.checksum_low32 {checksum}")
sys.exit(0 if failed == 0 and analyze <= 4 * compile and minimize <= 4 * compile
         and load <= 1.25 * save and checksum == 2257151477 else 1)'

echo "== batch_divergent traced: output checks + 0 allocs + compiled deliver_all <= 0.5x interpreted =="
bash benchmark/run.sh --workload batch_divergent --seed 1 --seconds 3 --trace 1 | tail -n 1 | python3 -c '
import json, sys
metrics = json.load(sys.stdin)["metrics"]
compiled = metrics["runtime.deliver_all_ns_per_session"]["value"]
interpreted = metrics["core.interp.deliver_all_ns_per_session"]["value"]
allocs = metrics["alloc.allocs_per_kop"]["value"]
failed = metrics["check.failed_share"]["value"]
print(f"deliver_all ns/session: compiled {compiled:.2f}, interpreted {interpreted:.2f}; allocs_per_kop {allocs}, check.failed_share {failed}")
sys.exit(0 if failed == 0 and allocs == 0 and compiled <= 0.5 * interpreted else 1)'

echo "== batch_guarded traced: output checks + 0 allocs + compiled deliver_all <= 0.25x interpreted =="
bash benchmark/run.sh --workload batch_guarded --seed 1 --seconds 3 --trace 1 | tail -n 1 | python3 -c '
import json, sys
metrics = json.load(sys.stdin)["metrics"]
compiled = metrics["runtime.deliver_all_ns_per_session"]["value"]
interpreted = metrics["core.interp.deliver_all_ns_per_session"]["value"]
allocs = metrics["alloc.allocs_per_kop"]["value"]
failed = metrics["check.failed_share"]["value"]
print(f"deliver_all ns/session: compiled {compiled:.2f}, interpreted {interpreted:.2f}; allocs_per_kop {allocs}, check.failed_share {failed}")
sys.exit(0 if failed == 0 and allocs == 0 and compiled <= 0.25 * interpreted else 1)'

echo "verify.sh: all green"
