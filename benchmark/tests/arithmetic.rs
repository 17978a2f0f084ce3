//! The benchmark's own arithmetic: percentile selection, medians over
//! repetitions, span self time, seed determinism of the input generator,
//! the repetition loop, and the registry's limits.

use std::collections::BTreeSet;

use stategen_benchmark::gen::{batch_messages, prefix, script_hash, Rng, RoutedKind, RoutedOps};
use stategen_benchmark::report::{
    manifest, result_line, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS,
};
use stategen_benchmark::stats::{
    median, over_reps, quantile_sorted, samples_beyond, summarize, tail_name, tail_percentile,
};
use stategen_benchmark::trace::{self_times, Span, Tracer, NO_PARENT};
use stategen_benchmark::workloads::{
    measure, repeated_setup, run, Outcome, RunArgs, MAX_SETUPS, MIN_SETUPS, SETUP_BUDGET_S,
};

#[test]
fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
    assert_eq!(tail_percentile(0), None);
    assert_eq!(tail_percentile(99), None);
    assert_eq!(tail_percentile(100), Some(0.90));
    // 999 samples leave 9 beyond p99, 1 000 leave 10.
    assert_eq!(samples_beyond(999, 0.99), 9);
    assert_eq!(tail_percentile(999), Some(0.90));
    assert_eq!(samples_beyond(1_000, 0.99), 10);
    assert_eq!(tail_percentile(1_000), Some(0.99));
    assert_eq!(tail_percentile(1_200), Some(0.99));
    assert_eq!(tail_percentile(9_999), Some(0.99));
    assert_eq!(tail_percentile(10_000), Some(0.999));
    assert_eq!(tail_percentile(40_000), Some(0.999));
    assert_eq!(tail_percentile(100_000), Some(0.9999));
    assert_eq!(tail_percentile(10_000_000), Some(0.9999));
    assert_eq!(tail_name(50), "no tail");
    assert_eq!(tail_name(1_200), "p99");
    assert_eq!(tail_name(10_000), "p99.9");
}

#[test]
fn quantiles_use_the_nearest_rank() {
    let v: Vec<u64> = (1..=100).collect();
    assert_eq!(quantile_sorted(&v, 0.5), 50);
    assert_eq!(quantile_sorted(&v, 0.9), 90);
    assert_eq!(quantile_sorted(&v, 0.99), 99);
    assert_eq!(quantile_sorted(&v, 1.0), 100);
    assert_eq!(quantile_sorted(&v, 0.0), 1);
    assert_eq!(quantile_sorted(&[7], 0.99), 7);
    assert_eq!(quantile_sorted(&[], 0.5), 0);
}

#[test]
fn summary_sorts_and_reports_the_supported_tail() {
    // 1 000 samples in a scrambled order: 1..=1000 times 7 mod 1009 is a
    // permutation of distinct values.
    let mut v: Vec<u64> = (1..=1_000u64).map(|i| i * 7 % 1_009).collect();
    let mut sorted = v.clone();
    sorted.sort_unstable();
    let s = summarize(&mut v);
    assert_eq!(v, sorted);
    assert_eq!(s.n, 1_000);
    assert_eq!(s.p50, sorted[499]);
    assert_eq!(s.tail, Some((0.99, sorted[989])));
    assert_eq!(s.max, sorted[999]);
    assert_eq!(sorted.iter().filter(|x| **x > sorted[989]).count(), 10);

    let mut few: Vec<u64> = vec![5, 1, 3];
    let s = summarize(&mut few);
    assert_eq!((s.n, s.p50, s.tail, s.max), (3, 3, None, 5));
}

#[test]
fn median_of_repetitions_keeps_the_range() {
    assert_eq!(median(&[]), 0.0);
    assert_eq!(median(&[4.0]), 4.0);
    assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
    assert_eq!(median(&[9.0, 1.0, 5.0, 7.0]), 6.0);
    // One slow repetition moves the maximum, not the median.
    let r = over_reps(&[1.0, 1.1, 0.9, 1.05, 30.0, 0.95, 1.0]);
    assert_eq!((r.reps, r.median, r.min, r.max), (7, 1.0, 0.9, 30.0));
}

fn span(id: u32, parent: u32, start_ns: u64, end_ns: u64) -> Span {
    Span {
        id,
        parent,
        name: "s",
        layer: "l",
        start_ns,
        end_ns,
        op: 0,
    }
}

#[test]
fn self_time_subtracts_direct_children_only() {
    let spans = [
        span(0, NO_PARENT, 0, 100),
        // Two adjacent children …
        span(1, 0, 10, 30),
        span(2, 0, 30, 60),
        // … the second with a child of its own, which the root must not
        // be charged for twice.
        span(3, 2, 40, 50),
        // A second root with no children.
        span(4, NO_PARENT, 100, 130),
    ];
    assert_eq!(self_times(&spans), vec![50, 20, 20, 10, 30]);
}

#[test]
fn self_time_clips_a_child_to_its_parent() {
    // A leaf recorded from clock readings taken just outside the parent.
    let spans = [span(0, NO_PARENT, 10, 20), span(1, 0, 5, 15)];
    assert_eq!(self_times(&spans), vec![5, 10]);
}

#[test]
fn tracer_nests_by_its_stack() {
    let mut t = Tracer::new(true);
    t.open("round", "benchmark", 7);
    t.span("deliver_all", "runtime", 7, || ());
    t.open("reap", "runtime", 7);
    t.span("reset", "runtime", 7, || ());
    t.close();
    t.span("deliver_all", "runtime", 8, || ());
    t.close();
    t.span("alone", "runtime", 9, || ());
    let parents: Vec<u32> = t.spans().iter().map(|s| s.parent).collect();
    assert_eq!(parents, vec![NO_PARENT, 0, 0, 2, 0, NO_PARENT]);
    assert!(t.spans().iter().all(|s| s.start_ns <= s.end_ns));
    let agg = t.aggregate();
    assert_eq!(agg["deliver_all"].count, 2);
    let own = self_times(t.spans());
    let children: u64 = [1, 2, 4]
        .iter()
        .map(|&i| t.spans()[i].end_ns - t.spans()[i].start_ns)
        .sum();
    assert_eq!(
        own[0],
        t.spans()[0].end_ns - t.spans()[0].start_ns - children
    );
    // Layer totals are sums of self times, so they add up to the roots.
    let total: u64 = t.layer_self_ns().values().sum();
    let roots: u64 = t
        .spans()
        .iter()
        .filter(|s| s.parent == NO_PARENT)
        .map(|s| s.end_ns - s.start_ns)
        .sum();
    assert_eq!(total, roots);
}

#[test]
fn disabled_tracer_records_nothing() {
    let mut t = Tracer::new(false);
    t.open("round", "benchmark", 0);
    assert_eq!(t.span("deliver_all", "runtime", 0, || 5), 5);
    t.close();
    assert!(t.spans().is_empty());
}

#[test]
fn same_seed_same_inputs_other_seed_other_inputs() {
    assert_eq!(script_hash(1), script_hash(1));
    assert_ne!(script_hash(1), script_hash(2));
    let hashes: BTreeSet<u64> = (0..64).map(script_hash).collect();
    assert_eq!(hashes.len(), 64);
    assert_eq!(batch_messages(3, 1_000, 5), batch_messages(3, 1_000, 5));
    assert_ne!(batch_messages(3, 1_000, 5), batch_messages(4, 1_000, 5));
}

#[test]
fn a_sessions_prefix_does_not_depend_on_the_pool() {
    // Keyed by (seed, session, epoch): asking in another order, or for
    // other sessions in between, changes nothing. That is what lets a
    // 65 536-session run be checked against a 4 096-session replay.
    let forward: Vec<_> = (0..100).map(|s| prefix(9, s, 8, 5)).collect();
    let backward: Vec<_> = (0..100).rev().map(|s| prefix(9, s, 8, 5)).collect();
    assert!(forward.iter().eq(backward.iter().rev()));
    assert_ne!(prefix(9, 1, 8, 5), prefix(9, 1, 16, 5));
    let lengths: BTreeSet<usize> = (0..1_000).map(|s| prefix(9, s, 0, 5).1).collect();
    assert_eq!(lengths, (0..=7).collect());
    assert!((0..1_000).all(|s| {
        let (buf, len) = prefix(9, s, 0, 5);
        buf[..len].iter().all(|m| *m < 5)
    }));
}

#[test]
fn routed_script_has_the_stated_mix() {
    let n = 1_000_000;
    let mut ops = RoutedOps::new(1, 65_536, 5);
    let (mut stale, mut timers) = (0u32, 0u32);
    for _ in 0..n {
        let op = ops.next_op();
        assert!(op.index < 65_536 && op.message < 5);
        match op.kind {
            RoutedKind::Stale => stale += 1,
            RoutedKind::Arm(delay) => {
                assert!((1..=32).contains(&delay));
                timers += 1;
            }
            RoutedKind::Cancel => timers += 1,
            RoutedKind::Plain => {}
        }
    }
    // ≈ 1 % stale handles, ≈ 1 in 16 of the rest on the timer.
    assert!((8_000..12_000).contains(&stale), "{stale} stale of {n}");
    assert!(
        (58_000..66_000).contains(&timers),
        "{timers} timer ops of {n}"
    );
    let mut rng = Rng::new(5);
    assert!((0..10_000).all(|_| rng.below(7) < 7));
}

#[test]
fn measure_stops_at_the_repetition_nearest_the_time_asked() {
    // Repetitions report their own wall time, so no clock is involved.
    let mut seen = Vec::new();
    let reps = measure(10.0, 3, |k| {
        seen.push(k);
        1.2
    });
    // 8 × 1.2 = 9.6 is nearer to 10 than 9 × 1.2 = 10.8.
    assert_eq!(reps, 8);
    assert_eq!(seen, (0..8).collect::<Vec<_>>());
    // A repetition longer than the whole run still runs the minimum.
    assert_eq!(measure(1.0, 3, |_| 5.0), 3);
}

#[test]
fn setup_is_repeated_and_the_last_one_kept() {
    // A set-up of microseconds is repeated as often as allowed …
    let mut calls = 0;
    let (last, seconds) = repeated_setup(|| {
        calls += 1;
        calls
    });
    assert_eq!((calls, last), (MAX_SETUPS, MAX_SETUPS));
    assert!(seconds < 0.01, "{seconds}");
    // … and one that uses up the budget as seldom as allowed.
    let mut calls = 0;
    let (last, seconds) = repeated_setup(|| {
        calls += 1;
        std::thread::sleep(std::time::Duration::from_secs_f64(SETUP_BUDGET_S / 4.0));
        calls
    });
    assert_eq!((calls, last), (MIN_SETUPS, MIN_SETUPS));
    assert!(seconds >= SETUP_BUDGET_S / 4.0, "{seconds}");
}

fn is_name(s: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
    s.len() <= 64 && s.starts_with(|c: char| c.is_ascii_alphanumeric()) && s.chars().all(ok)
}

#[test]
fn registry_is_within_the_manifest_limits() {
    assert!((2..=8).contains(&WORKLOADS.len()));
    assert!((1..=16).contains(&END_TO_END.len()));
    assert!((1..=128).contains(&PER_LAYER.len()));
    assert!((1..=60).contains(&RUN_SECONDS));
    let names: Vec<&str> = WORKLOADS
        .iter()
        .map(|w| w.name)
        .chain(END_TO_END.iter().chain(&PER_LAYER).map(|m| m.name))
        .collect();
    assert!(names.iter().all(|n| is_name(n)), "{names:?}");
    assert_eq!(
        names.iter().collect::<BTreeSet<_>>().len(),
        names.len(),
        "a name is used twice"
    );
    let mut off = Tracer::new(false);
    let none = RunArgs {
        seed: 0,
        seconds: 0.0,
        trace: false,
    };
    assert!(run("no_such_workload", &none, &mut off).is_none());
    for w in &WORKLOADS {
        assert!(
            w.why.chars().count() <= 200 && !w.why.contains('\n'),
            "{}",
            w.name
        );
    }
    for m in END_TO_END.iter().chain(&PER_LAYER) {
        let unit_ok = |c: char| c.is_ascii_alphanumeric() || "_/%.-".contains(c);
        assert!(
            !m.unit.is_empty() && m.unit.len() <= 16 && m.unit.chars().all(unit_ok),
            "{}",
            m.name
        );
    }
    assert!(END_TO_END
        .iter()
        .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
    assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
    let setup = END_TO_END
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s is required");
    assert_eq!(setup.unit, "s");
    assert!(
        END_TO_END.iter().all(|m| m.bound <= setup.bound),
        "setup_s has the largest bound"
    );
    assert!(manifest().len() <= 64 * 1024);
}

#[test]
fn result_line_has_exactly_the_metrics_of_its_kind() {
    let mut out = Outcome::default();
    out.ops(1_000);
    for (i, m) in END_TO_END.iter().enumerate() {
        out.set(m.name, 1.5 + i as f64);
    }
    let line = result_line(&out, false);
    assert!(
        line.starts_with("{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": {")
    );
    assert!(!line.contains('\n'));
    for m in &END_TO_END {
        assert!(line.contains(&format!("\"{}\": {{\"value\": ", m.name)));
    }
    assert!(PER_LAYER
        .iter()
        .all(|m| !line.contains(&format!("\"{}\"", m.name))));

    // A traced line carries every per-layer metric, unmeasured ones as 0,
    // and a failed check turns `correct` off.
    out.check(false, || "expected by this test".into());
    let line = result_line(&out, true);
    assert!(line.starts_with("{\"correct\": false, \"attempted\": 1001, \"failed\": 1, "));
    for m in &PER_LAYER {
        assert!(line.contains(&format!(
            "\"{}\": {{\"value\": 0, \"unit\": \"{}\"}}",
            m.name, m.unit
        )));
    }
}
