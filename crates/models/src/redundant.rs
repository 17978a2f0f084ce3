//! A deliberately redundant statechart family — the worked input of the
//! `stategen-analysis` minimizer and its bench row.
//!
//! [`redundant_ring`]`(k)` is a statechart whose `Work` superstate
//! contains `k` leaf states cycling on `step`. Every leaf behaves
//! identically — same action on `step`, same inherited `stop` exit — so
//! the `k` flattened work states are behaviourally equivalent: the
//! machine is correct but `k − 1` states too large, exactly the shape a
//! mechanical front-end (or a statechart flattener) tends to produce.
//! `stategen_analysis::minimize` collapses the ring to a single state,
//! and the `hsm_minimized` bench row measures that the quotient serves
//! deliveries no slower than the redundant original.

use stategen_core::{Action, HierarchicalMachine, HsmBuilder};

/// Builds the redundant ring statechart: `Boot ──go──▶ Work{W0 … Wk−1}`
/// cycling on `step` (action `tock`), `stop` declared on `Work`
/// (inherited by every leaf) into the final `Done` state.
///
/// Flattened, the machine has `k + 2` states; all `k` work states are
/// behaviourally equivalent, so minimization reduces it to 3.
///
/// # Panics
///
/// Panics if `k == 0` (the ring needs at least one state).
///
/// # Examples
///
/// ```
/// use stategen_core::ProtocolEngine;
/// use stategen_models::redundant_ring;
///
/// let hsm = redundant_ring(4);
/// assert_eq!(hsm.flatten_ir().state_count(), 6); // Boot + 4 ring + Done
/// let mut s = hsm.instance();
/// s.deliver_ref("go").unwrap();
/// for _ in 0..5 {
///     assert_eq!(s.deliver_ref("step").unwrap().len(), 1); // tock
/// }
/// s.deliver_ref("stop").unwrap();
/// assert!(s.is_finished());
/// ```
pub fn redundant_ring(k: usize) -> HierarchicalMachine {
    assert!(k > 0, "the ring needs at least one work state");
    let mut b = HsmBuilder::new(format!("redundant-ring-{k}"), ["go", "step", "stop"]);
    let boot = b.add_state("Boot");
    let work = b.add_state("Work");
    let ring: Vec<_> = (0..k).map(|i| b.add_child(work, format!("W{i}"))).collect();
    let done = b.add_state("Done");
    b.mark_final(done);

    b.add_transition(boot, "go", work, vec![Action::send("ack")]);
    for i in 0..k {
        b.add_transition(
            ring[i],
            "step",
            ring[(i + 1) % k],
            vec![Action::send("tock")],
        );
    }
    b.add_transition(work, "stop", done, vec![Action::send("bye")]);
    b.build(boot)
}

#[cfg(test)]
mod tests {
    use super::*;
    use stategen_core::ProtocolEngine;

    #[test]
    fn ring_cycles_and_stops_from_any_leaf() {
        let hsm = redundant_ring(3);
        let flat = hsm.flatten_ir();
        assert_eq!(flat.state_count(), 5);
        assert!(!flat.is_guarded());
        let mut s = flat.instance(vec![]);
        s.deliver_ref("go").unwrap();
        for step in 0..4 {
            assert_eq!(
                s.deliver_ref("step").unwrap(),
                [Action::send("tock")],
                "at step {step}"
            );
        }
        assert_eq!(s.deliver_ref("stop").unwrap(), [Action::send("bye")]);
        assert!(s.is_finished());
    }

    #[test]
    #[should_panic(expected = "at least one work state")]
    fn empty_ring_panics() {
        let _ = redundant_ring(0);
    }
}
