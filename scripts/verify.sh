#!/usr/bin/env bash
# Repo verification: what "green" means here, said once.
#
#   scripts/verify.sh
#
# The release build, every test, clippy, rustfmt and rustdoc (warnings
# denied); then one table of release-mode gates (GATES: id % ROADMAP
# item % why its threshold % command), one table of names that deleted
# code must not bring back or confined code must not spread (ROWS), the
# storage peer's structural greps, the rows BENCH_engine_tiers.json must
# carry, and short traced benchmark/ runs whose bounds are on their echo
# lines. engine_tiers' own rows and gates are the two tables in
# crates/bench/src/bin/engine_tiers.rs. Why each threshold sits where it
# does, and what it read before, is in CHANGES.md.
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

# One row per gate: id % ROADMAP item % why % command. The command is a
# plain word list, run in release mode so profile-dependent checks (debug
# assertions, overflow panics) are not the only guard.
while IFS='%' read -r id item why command; do
    echo "== $id (ROADMAP item $item): $why =="
    # shellcheck disable=SC2086 # command is a word list
    $command </dev/null # the table is this loop's stdin
done <<'GATES'
engine_tiers%6%0 allocs/delivery on 21 rows and five ratio bounds, each a median of alternating pairs; writes BENCH_engine_tiers.json%cargo run --release -p repro-bench --bin engine_tiers
chaos%13%pinned seeds under loss, duplication, reordering and a peer crash/restart still reach full agreement%cargo test -q --release -p asa-storage --test chaos chaos_pinned_seed
artifact_suite%1%the loader rejects every truncation, bit flip and splice without panicking; pinned images and fingerprints hold%cargo test -q --release -p stategen-core --test artifact_props
fingerprint%17%the FNV word path hashes exactly as the byte loop%cargo test -q --release -p stategen-core --lib fingerprint
rollout%1%pinned drain-and-switch hot-swap seeds survive a mid-swap crash%cargo test -q --release -p asa-storage --test rollout rollout_pinned_seed
analyzer_corpus%16%every model machine is deny-clean, and minimization is observation-equivalent and idempotent on the corpus%cargo test -q --release -p stategen-analysis --test corpus
exhausted_generation%1%a slot's u32 generation retires it instead of wrapping (release arithmetic wraps, debug panics)%cargo test -q --release -p stategen-runtime --lib exhausted_generation
foreign_message_id%1%a foreign message id in a batch panics with one message on every tier, not only under debug assertions%cargo test -q --release -p stategen-runtime --lib deliver_all_rejects_foreign_message_ids
lowering_decision%18%a bound guarded machine unfolds iff its configuration space fits the budget%cargo test -q --release -p stategen-runtime --lib lowering_is_decided_by_the_bound_configuration_space
no_fallback%18%no deployed machine (corpus, storage peers, the seven workloads) falls back to the interpreter%cargo test -q --release -p stategen-runtime --test conformance no_deployed_machine_falls_back
unreachable_restore%1%an unfolded engine refuses a snapshot its machine cannot produce: typed error, runtime untouched%cargo test -q --release -p stategen-runtime --lib restore_refuses_unreachable_configurations
events_per_commit%13%simulator events per commit stay flat as the history grows%cargo test -q --release -p asa-storage --lib events_per_commit_do_not_grow_with_the_history
crashed_client%13%a crashed client wakes up again%cargo test -q --release -p asa-storage --test commit_simulation crashed_client_wakes_up
calendar_queue%8%the calendar queue pops event for event as the heap scheduler does%cargo test -q --release -p asa-simnet --lib calendar_matches_the_heap_scheduler_on_random_scripts
saturating_time%8%never-firing timers saturate at SimTime::MAX instead of wrapping%cargo test -q --release -p asa-simnet --lib never_timers_saturate_instead_of_wrapping
message_schedule%8%the storage stack's message schedule is the pinned one (six fingerprints)%cargo test -q --release -p asa-storage --lib message_schedule_is_the_pinned_one
reference_peer%13%the table peer matches the reference peer trace for trace under random chaos%cargo test -q --release -p asa-storage --lib table_peer_matches_the_reference_peer_on_random_chaos
two_crash_checkpoint%13%the peer's checkpoint stays exact through two crashes (release builds skip the debug write-time checks)%cargo test -q --release -p asa-storage --lib journaled_checkpoint_and_indexes_stay_exact_through_two_crashes
benchmark_package%6%benchmark/ is a workspace of its own: its fmt, clippy, tests and BENCHMARK.json manifest%bash benchmark/check.sh
GATES

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
-E%\bfn (to_machine|flatten)\b%crates/ src/ examples/ tests/%%StateMachine is an authoring type lowered once by FlatIr::from_machine; the projections back to it, the generated crate's to_machine() last, were deleted (CHANGES.md: one machine for every back end; what green means)
-E%\b(RuntimeObserver|NoopObserver)\b%crates/ src/ examples/ tests/ docs/%%the batch loop records nothing; a recorder is filled from a probe of the batch tail, so the observer trait and its no-op went (CHANGES.md: what green means)
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

# The rows verify.sh and docs name must stay in engine_tiers' row table.
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

# The commit path: seed 1's pinned schedule, a flat per-message cost over the history, few allocations.
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

# Recovery under loss, duplication, reordering and peer restarts, with a pinned schedule.
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

# The generative half: analysis and minimization stay linear-ish beside the compiler.
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

# The dense tier's one-pass column gather against the interpreter.
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

# The commit EFSM, bound and unfolded; a fallback to the interpreter reads about 1.
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
