//! The benchmark's registry — workloads, end-to-end metrics with their
//! bounds, per-layer metrics — and the two things printed from it:
//! `BENCHMARK.json` (`--manifest`) and the result line of a run.
//!
//! The registry is the single source of the names: `check.sh` fails when
//! the committed `BENCHMARK.json` differs from what `--manifest` prints.

use std::fmt::Write as _;

use crate::workloads::Outcome;

/// Seconds one run measures (`run_seconds` of `BENCHMARK.json`).
pub const RUN_SECONDS: u32 = 10;

/// A workload and the one-line reason it exists.
#[derive(Debug)]
pub struct WorkloadDef {
    /// Name, as passed to `--workload`.
    pub name: &'static str,
    /// Why it exists (at most 200 characters).
    pub why: &'static str,
}

/// The seven workloads, in reporting order.
pub const WORKLOADS: [WorkloadDef; 7] = [
    WorkloadDef {
        name: "batch_lockstep",
        why: "65536 never-diverged sessions: every deliver_all is the kernels' uniform-state fast path, bucketing and reap do nothing; bypass workload for any bucketing or sort optimisation",
    },
    WorkloadDef {
        name: "batch_divergent",
        why: "same machine and size with sessions spread over tens of states and a reap pass every 8 rounds: (state, message) bucketing plus the dense table do the work, beside single-session reset/deliver",
    },
    WorkloadDef {
        name: "batch_guarded",
        why: "the divergent script on the commit EFSM (register tier): masked-compare sweeps over divergent registers, the dense table does nothing; shows costs on the tier that is not the degenerate case",
    },
    WorkloadDef {
        name: "routed_churn",
        why: "synthetic stress of the handle and timer API, sent by no in-repo service: try_deliver by handle, release and respawn, timers, stale handles; kernels idle, handle checks and the timer wheel work",
    },
    WorkloadDef {
        name: "build_deploy",
        why: "the generative half (Table 1): 11 corpus models through generate, analyze, minimize, compile, artifact save/load and first delivery; generator and analysis dominate, the runtime does almost nothing",
    },
    WorkloadDef {
        name: "storage_commit",
        why: "fault-free commit path on generated machines with 2000-commit histories per run, so throughput is not a start-up artefact; isolates simnet, peer Runtime and version service",
    },
    WorkloadDef {
        name: "storage_chaos",
        why: "same stack under 5% loss, 5% duplication, 20% reordering and a peer crash/restart: retries, back-off timers and checkpoint recovery work, so a fast-path win that slows recovery shows",
    },
];

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

/// A metric of the registry.
#[derive(Debug)]
pub struct MetricDef {
    /// Name, as printed.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which it may worsen (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics: printed by every workload of an untraced run.
///
/// `ops_per_s` counts the workload's own operation — deliveries
/// (`batch_*`, reap included), routed operations, machines taken from
/// model to first delivery, confirmed commits. `call_us_p50` is the
/// median of the call a caller waits for — one `deliver_all` over 65 536
/// sessions, one routed operation (1 024-operation block means), one cold
/// load of the corpus (artifact bytes to first delivery, summed over its
/// machines), one peer `on_message` of a harness run.
///
/// A name has one bound, which must hold on its noisiest workload: at
/// least three times the widest quartile spread ten seeds showed on any
/// workload (README, "A/A results"), capped at the manifest's limit of a
/// quarter. The values that repeat exactly (virtual ticks, counts,
/// allocations) are per-layer metrics, which `aa.sh` holds to equality.
pub const END_TO_END: [MetricDef; 4] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("ops_per_s", "1/s", Higher, 0.25),
    e2e("call_us_p50", "us", Lower, 0.25),
    e2e("peak_rss_mb", "MiB", Lower, 0.10),
];

/// Per-layer metrics: printed by every workload of a traced run; a
/// metric whose layer a workload does not exercise reads 0 there.
pub const PER_LAYER: [MetricDef; 73] = [
    // build_deploy
    layer("core.generator.generate_ms", "ms", Lower),
    layer("core.generator.states_out", "count", Lower),
    layer("analysis.analyze_ms", "ms", Lower),
    layer("analysis.diagnostics", "count", Lower),
    layer("analysis.minimize_ms", "ms", Lower),
    layer("analysis.minimize_states_removed", "count", Higher),
    layer("runtime.engine.compile_ms", "ms", Lower),
    layer("core.artifact.save_us", "us", Lower),
    layer("core.artifact.load_us", "us", Lower),
    layer("core.artifact.bytes", "count", Lower),
    layer("core.artifact.load_allocs", "count", Lower),
    layer("runtime.engine.from_artifact_us", "us", Lower),
    layer("runtime.first_delivery_us", "us", Lower),
    // batch_*
    layer("runtime.deliver_all_ns_per_session", "ns", Lower),
    layer("runtime.batch_us_tail", "us", Lower),
    layer("runtime.finished_skip_ns_per_session", "ns", Lower),
    layer("runtime.all_finished_us", "us", Lower),
    layer("runtime.reset_all_us", "us", Lower),
    layer("runtime.reap_ns_per_session", "ns", Lower),
    layer("runtime.reset_ns", "ns", Lower),
    layer("runtime.rediverge_ns_per_op", "ns", Lower),
    layer("core.kernel.occupied_states_p50", "count", Higher),
    layer("core.kernel.largest_bucket_share_p50", "ratio", Lower),
    layer("core.kernel.transitions_per_delivery", "ratio", Higher),
    layer(
        "core.kernel.guard_fall_throughs_per_delivery",
        "ratio",
        Lower,
    ),
    layer("core.kernel.divergent_vs_lockstep", "ratio", Lower),
    layer("core.kernel.wide_r25_ns_per_session", "ns", Lower),
    layer("core.interp.deliver_all_ns_per_session", "ns", Lower),
    layer("telemetry.observed_ratio", "ratio", Lower),
    layer("telemetry.metrics_read_ns", "ns", Lower),
    layer("telemetry.dump_trace_us", "us", Lower),
    layer("runtime.sharded2_batch_us_p50", "us", Lower),
    layer("runtime.snapshot_all_ms", "ms", Lower),
    layer("runtime.restore_ms", "ms", Lower),
    layer("runtime.swap_migrate_ms", "ms", Lower),
    // routed_churn
    layer("runtime.try_deliver_ns", "ns", Lower),
    layer("runtime.is_finished_ns", "ns", Lower),
    layer("runtime.release_ns", "ns", Lower),
    layer("runtime.spawn_ns", "ns", Lower),
    layer("runtime.churn_share", "ratio", Lower),
    layer("runtime.stale_rejected", "count", Higher),
    layer("runtime.op_ns_tail", "ns", Lower),
    layer("runtime.timer.arm_ns", "ns", Lower),
    layer("runtime.timer.cancel_ns", "ns", Lower),
    layer("runtime.timer.advance_ns_per_fired", "ns", Lower),
    layer("runtime.timer.fired", "count", Higher),
    layer("runtime.timer.cascades", "count", Lower),
    // storage_*
    layer("storage.commit_ticks_p50", "ticks", Lower),
    layer("storage.commit_ticks_p99", "ticks", Lower),
    layer("storage.recovery_ticks_p99", "ticks", Lower),
    layer("storage.msgs_per_commit", "ratio", Lower),
    layer("storage.retries_per_commit", "ratio", Lower),
    layer("storage.peer_deliveries_per_commit", "ratio", Lower),
    layer("storage.peer_spawns_per_commit", "ratio", Lower),
    layer("storage.peer_releases_per_commit", "ratio", Lower),
    layer("storage.peer_live_sessions_end", "count", Lower),
    layer("storage.virtual_end_ticks", "ticks", Lower),
    layer("storage.crashes", "count", Lower),
    layer("storage.restarts", "count", Higher),
    layer("storage.peer_busy_share", "ratio", Lower),
    layer("storage.client_busy_share", "ratio", Lower),
    layer("simnet.self_share", "ratio", Lower),
    layer("simnet.events_per_s", "1/s", Higher),
    layer("storage.peer_ns_per_msg_first_decile", "ns", Lower),
    layer("storage.peer_ns_per_msg_last_decile", "ns", Lower),
    layer("storage.history_growth_ratio", "ratio", Lower),
    layer("storage.restart_ms", "ms", Lower),
    // every workload
    layer("alloc.allocs_per_kop", "count", Lower),
    layer("check.failed_share", "ratio", Lower),
    layer("check.checksum_low32", "count", Lower),
    layer("trace.timer_ns", "ns", Lower),
    layer("trace.overhead_ratio", "ratio", Lower),
    layer("trace.spans", "count", Lower),
];

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn better_str(b: Better) -> &'static str {
    match b {
        Lower => "lower",
        Higher => "higher",
    }
}

/// The contents of `BENCHMARK.json`.
pub fn manifest() -> String {
    let mut out = String::from(
        "{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n",
    );
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": {}, \"why\": {}}}{comma}",
            json_string(w.name),
            json_string(w.why)
        );
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": {}, \"unit\": {}, \"better\": \"{}\", \"bound\": {}}}{comma}",
            json_string(m.name),
            json_string(m.unit),
            better_str(m.better),
            m.bound.expect("end-to-end metrics carry a bound")
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": {}, \"unit\": {}, \"better\": \"{}\"}}{comma}",
            json_string(m.name),
            json_string(m.unit),
            better_str(m.better)
        );
    }
    out.push_str("  ]\n}\n");
    out
}

/// The metrics a run of this kind must print.
pub fn metrics_for(trace: bool) -> &'static [MetricDef] {
    if trace {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

/// The last line of a run's standard output: one JSON object with
/// exactly `correct`, `attempted`, `failed` and `metrics`.
///
/// # Panics
///
/// Panics if an untraced outcome lacks an end-to-end metric: every
/// workload must measure all of them.
pub fn result_line(outcome: &Outcome, trace: bool) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.failed == 0,
        outcome.attempted.max(1),
        outcome.failed
    );
    for (i, m) in metrics_for(trace).iter().enumerate() {
        let value = match outcome.metrics.get(m.name) {
            Some(v) if v.is_finite() => *v,
            Some(_) => 0.0,
            None if trace => 0.0,
            None => panic!("workload did not measure end-to-end metric {}", m.name),
        };
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "{}: {{\"value\": {value}, \"unit\": {}}}",
            json_string(m.name),
            json_string(m.unit)
        );
    }
    out.push_str("}}");
    out
}
