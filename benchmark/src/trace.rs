//! In-memory spans around the calls the benchmark makes into each layer.
//!
//! A span records `{id, parent, name, layer, start_ns, end_ns, op}`; the
//! benchmark is single-threaded, so spans nest by a stack and a span's
//! children never overlap. Self time is duration minus the part of the
//! interval the direct children cover. Spans live in memory until the
//! workload ends; [`Tracer::write_json`] then writes the first
//! [`FILE_SPAN_CAP`] of them plus per-name aggregates over all of them.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// `parent` of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// Spans written to the trace file; aggregates always cover every span.
pub const FILE_SPAN_CAP: usize = 50_000;

/// One timed interval at a layer boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Index of the span in recording order.
    pub id: u32,
    /// The span that was open when this one started, or [`NO_PARENT`].
    pub parent: u32,
    /// The call timed (`deliver_all`, `generate`, …).
    pub name: &'static str,
    /// Crate/module that did the work (`runtime`, `core.kernel`, …).
    pub layer: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, same clock.
    pub end_ns: u64,
    /// What the span worked on: round, machine index, network seed, block.
    pub op: u64,
}

/// Count and busy time of one sub-microsecond function inside a block
/// span (timed per call, stored per block).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CallAgg {
    /// Calls made.
    pub count: u64,
    /// Summed duration of those calls.
    pub busy_ns: u64,
}

/// Per-name totals over every span of a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameAgg {
    /// Spans of this name.
    pub count: u64,
    /// Summed duration.
    pub total_ns: u64,
    /// Summed self time (duration minus direct children).
    pub self_ns: u64,
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (children are clipped to the parent
/// and assumed disjoint, which the recording stack guarantees).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if s.parent == NO_PARENT {
            continue;
        }
        let p = &spans[s.parent as usize];
        let start = s.start_ns.max(p.start_ns);
        let end = s.end_ns.min(p.end_ns);
        let covered = end.saturating_sub(start);
        let slot = &mut own[s.parent as usize];
        *slot = slot.saturating_sub(covered);
    }
    own
}

/// Span recorder. Disabled tracers record nothing and cost one branch.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    calls: Vec<(u32, &'static str, CallAgg)>,
}

impl Tracer {
    /// A tracer; `enabled = false` makes every method a no-op.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            calls: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    fn push(
        &mut self,
        name: &'static str,
        layer: &'static str,
        op: u64,
        start: u64,
        end: u64,
    ) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent: self.stack.last().copied().unwrap_or(NO_PARENT),
            name,
            layer,
            start_ns: start,
            end_ns: end,
            op,
        });
        id
    }

    /// Opens a span now; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, layer: &'static str, op: u64) {
        if !self.enabled {
            return;
        }
        let now = self.ns(Instant::now());
        let id = self.push(name, layer, op, now, now);
        self.stack.push(id);
    }

    /// Closes the innermost open span now.
    pub fn close(&mut self) {
        if !self.enabled {
            return;
        }
        let now = self.ns(Instant::now());
        let id = self.stack.pop().expect("close without open");
        self.spans[id as usize].end_ns = now;
    }

    /// Records a finished child of the innermost open span from clock
    /// readings the caller already took (so a call the workload times
    /// anyway is not timed twice).
    pub fn leaf(
        &mut self,
        name: &'static str,
        layer: &'static str,
        op: u64,
        start: Instant,
        end: Instant,
    ) {
        if !self.enabled {
            return;
        }
        let (s, e) = (self.ns(start), self.ns(end));
        self.push(name, layer, op, s, e);
    }

    /// Times `f` as a span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        layer: &'static str,
        op: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let start = Instant::now();
        let r = f();
        self.leaf(name, layer, op, start, Instant::now());
        r
    }

    /// Attaches per-function aggregates to the innermost open span.
    pub fn calls(&mut self, name: &'static str, agg: CallAgg) {
        if !self.enabled || agg.count == 0 {
            return;
        }
        let id = *self.stack.last().expect("calls outside a span");
        self.calls.push((id, name, agg));
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Totals per span name, plus the per-function aggregates summed
    /// under their function name (`self_ns` = `total_ns` for those).
    pub fn aggregate(&self) -> BTreeMap<&'static str, NameAgg> {
        let own = self_times(&self.spans);
        let mut out: BTreeMap<&'static str, NameAgg> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(own) {
            let a = out.entry(s.name).or_default();
            a.count += 1;
            a.total_ns += s.end_ns - s.start_ns;
            a.self_ns += own;
        }
        for (_, name, agg) in &self.calls {
            let a = out.entry(name).or_default();
            a.count += agg.count;
            a.total_ns += agg.busy_ns;
            a.self_ns += agg.busy_ns;
        }
        out
    }

    /// Self time summed per layer over every span.
    pub fn layer_self_ns(&self) -> BTreeMap<&'static str, u64> {
        let own = self_times(&self.spans);
        let mut out = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(own) {
            *out.entry(s.layer).or_insert(0) += own;
        }
        out
    }

    /// The trace file: the first [`FILE_SPAN_CAP`] spans (with self time
    /// and any per-function aggregates), how many were left out, and
    /// the aggregates over all of them.
    pub fn write_json(&self, workload: &str, seed: u64) -> String {
        let own = self_times(&self.spans);
        let mut calls: BTreeMap<u32, Vec<(&'static str, CallAgg)>> = BTreeMap::new();
        for (id, name, agg) in &self.calls {
            calls.entry(*id).or_default().push((name, *agg));
        }
        let mut out = String::new();
        let shown = self.spans.len().min(FILE_SPAN_CAP);
        let _ = write!(
            out,
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"spans_recorded\":{},\"spans_written\":{shown},\n\"spans\":[",
            self.spans.len()
        );
        for (i, s) in self.spans[..shown].iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            let _ = write!(
                out,
                "\n{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"layer\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{},\"op\":{}",
                s.id, s.name, s.layer, s.start_ns, s.end_ns, own[i], s.op
            );
            if let Some(list) = calls.get(&s.id) {
                out.push_str(",\"calls\":{");
                for (k, (name, agg)) in list.iter().enumerate() {
                    if k > 0 {
                        out.push(',');
                    }
                    let _ = write!(
                        out,
                        "\"{name}\":{{\"count\":{},\"busy_ns\":{}}}",
                        agg.count, agg.busy_ns
                    );
                }
                out.push('}');
            }
            out.push('}');
        }
        out.push_str("\n],\n\"by_name\":{");
        for (i, (name, a)) in self.aggregate().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n\"{name}\":{{\"count\":{},\"total_ns\":{},\"self_ns\":{}}}",
                a.count, a.total_ns, a.self_ns
            );
        }
        out.push_str("\n},\n\"self_ns_by_layer\":{");
        for (i, (layer, ns)) in self.layer_self_ns().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{layer}\":{ns}");
        }
        out.push_str("}}\n");
        out
    }
}

/// Mean cost of one empty [`Tracer::span`] in nanoseconds: what tracing
/// adds to each call it wraps.
pub fn calibrate_timer_ns() -> f64 {
    let mut t = Tracer::new(true);
    let n = 200_000u64;
    let start = Instant::now();
    for i in 0..n {
        t.span("empty", "trace", i, || std::hint::black_box(i));
    }
    start.elapsed().as_nanos() as f64 / n as f64
}
