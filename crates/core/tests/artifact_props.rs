//! Property and corruption-campaign suite for the deployable artifact
//! format (`stategen_core::artifact`).
//!
//! Three families of evidence back the loader's trust model:
//!
//! * **Round trips** — `load(save(a)) == a` (IR, binding and
//!   fingerprint) for machines off every front-end that lowers onto the
//!   unified flat IR: dense flat machines, guarded EFSMs with parameter
//!   bindings, and flattened statecharts (guarded and unguarded), plus
//!   randomly generated flat machines under proptest. Re-saving a
//!   loaded artifact is *byte-identical* — the encoding is canonical.
//!
//! * **Corruption campaigns** (`artifact_corruption_pinned_*`) —
//!   deterministic, seed-pinned sweeps replayed by `scripts/verify.sh`:
//!   truncation at every prefix length, every single-bit flip in every
//!   byte, seeded multi-bit flips, and cross-artifact byte splices. A
//!   corrupted image is rejected with an error, never a panic and never
//!   a silently wrong machine.
//!
//! * **Hostile-bytes fuzz** — `Artifact::load` over proptest-generated
//!   arbitrary byte strings (raw, magic-prefixed, and seeded overwrites
//!   of a valid image) never panics, and anything it *accepts* is
//!   canonical: re-saving reproduces the input bytes exactly.
//!
//! * **The carried fingerprint** — every constructor and `load` store
//!   `fold_params(ir.fingerprint(), params)`, an engine booted from a
//!   loaded artifact reports the spec-compiled engine's fingerprint, a
//!   corrupt section checksum word is named even though the loader's
//!   canonical re-encode copies the checksum words, and fingerprints
//!   and saved images of three machines are pinned.

use proptest::prelude::*;
use stategen_commit::{commit_efsm, commit_efsm_params, CommitConfig, CommitModel};
use stategen_core::efsm::{CmpOp, Guard, LinExpr, Update};
use stategen_core::{
    fnv1a, fold_params, generate, Action, Artifact, ArtifactError, Efsm, EfsmBuilder, FlatIr,
    HierarchicalMachine, HsmBuilder, StateMachine, StateMachineBuilder, StateRole,
};
use stategen_runtime::{Engine, Spec};

// ---------------------------------------------------------------------
// Fixture machines: one per front-end tier.
// ---------------------------------------------------------------------

fn dense_machine() -> StateMachine {
    let mut b = StateMachineBuilder::new("handshake", ["syn", "ack", "rst"]);
    let idle = b.add_state("idle");
    let half = b.add_state("half-open");
    let open = b.add_state("open");
    let closed = b.add_state_full("closed", None, StateRole::Finish, vec![]);
    b.add_transition(idle, "syn", half, vec![Action::send("syn-ack")]);
    b.add_transition(half, "ack", open, vec![Action::send("established")]);
    b.add_transition(half, "rst", closed, vec![Action::send("teardown")]);
    b.add_transition(open, "rst", closed, vec![]);
    b.build(idle)
}

fn counter_efsm() -> Efsm {
    let mut b = EfsmBuilder::new("counter", ["tick"]);
    let limit = b.add_param("limit");
    let n = b.add_var("n");
    let counting = b.add_state("counting");
    let done = b.add_state("done");
    b.add_transition(
        counting,
        "tick",
        Guard::when(
            LinExpr::var(n).plus_const(1),
            CmpOp::Lt,
            LinExpr::param(limit),
        ),
        vec![Update::Inc(n)],
        vec![],
        counting,
    );
    b.add_transition(
        counting,
        "tick",
        Guard::when(
            LinExpr::var(n).plus_const(1),
            CmpOp::Ge,
            LinExpr::param(limit),
        ),
        vec![Update::Inc(n)],
        vec![Action::send("done")],
        done,
    );
    b.build(counting, Some(done))
}

fn guarded_hsm() -> HierarchicalMachine {
    let mut b = HsmBuilder::new("retrying", ["go", "fail", "ok"]);
    let budget = b.add_param("budget");
    let tries = b.add_var("tries");
    let top = b.add_state("Top");
    let idle = b.add_child(top, "Idle");
    let work = b.add_child(top, "Working");
    let dead = b.add_child(top, "Dead");
    b.mark_final(dead);
    b.add_transition(idle, "go", work, vec![Action::send("started")]);
    b.add_guarded_transition(
        work,
        "fail",
        Guard::when(
            LinExpr::var(tries).plus_const(1),
            CmpOp::Lt,
            LinExpr::param(budget),
        ),
        vec![Update::Inc(tries)],
        work,
        vec![Action::send("retry")],
    );
    b.add_guarded_transition(
        work,
        "fail",
        Guard::when(
            LinExpr::var(tries).plus_const(1),
            CmpOp::Ge,
            LinExpr::param(budget),
        ),
        vec![Update::Inc(tries)],
        dead,
        vec![Action::send("give-up")],
    );
    b.add_transition(work, "ok", idle, vec![]);
    b.build(idle)
}

fn unguarded_hsm() -> HierarchicalMachine {
    let mut b = HsmBuilder::new("lifecycle", ["open", "close", "kill"]);
    let top = b.add_state("Top");
    let down = b.add_child(top, "Down");
    let up = b.add_child(top, "Up");
    let gone = b.add_child(top, "Gone");
    b.mark_final(gone);
    b.add_transition(down, "open", up, vec![Action::send("hello")]);
    b.add_transition(up, "close", down, vec![Action::send("bye")]);
    b.add_transition(top, "kill", gone, vec![]);
    b.build(down)
}

/// Every fixture as a finished artifact, covering all four front ends.
fn fixtures() -> Vec<Artifact> {
    vec![
        Artifact::new(FlatIr::from_machine(&dense_machine()), vec![]).expect("binding arity"),
        Artifact::from_efsm(&counter_efsm(), vec![4]).expect("binding arity"),
        Artifact::new(guarded_hsm().flatten_ir(), vec![3]).expect("binding arity"),
        Artifact::new(unguarded_hsm().flatten_ir(), vec![]).expect("binding arity"),
    ]
}

/// The specs the fixtures were built from, in the same order.
fn fixture_specs() -> Vec<Spec> {
    vec![
        Spec::machine(dense_machine()),
        Spec::efsm(counter_efsm(), vec![4]),
        Spec::hsm_with_params(guarded_hsm(), vec![3]),
        Spec::hierarchical(unguarded_hsm()),
    ]
}

fn assert_round_trip(artifact: &Artifact) {
    let bytes = artifact.save();
    let loaded = Artifact::load(&bytes).expect("valid image must load");
    assert_eq!(&loaded, artifact, "IR + binding survive the round trip");
    assert_eq!(loaded.fingerprint(), artifact.fingerprint());
    assert_eq!(loaded.save(), bytes, "re-save is byte-identical");
}

// ---------------------------------------------------------------------
// Round trips across every front end.
// ---------------------------------------------------------------------

#[test]
fn round_trip_every_front_end() {
    let fixtures = fixtures();
    assert!(!fixtures[0].ir().is_guarded());
    assert!(fixtures[1].is_guarded() && !fixtures[1].params().is_empty());
    assert!(fixtures[2].is_guarded(), "flattened guarded statechart");
    assert!(!fixtures[3].is_guarded(), "flattened unguarded statechart");
    for artifact in &fixtures {
        assert_round_trip(artifact);
    }
}

#[test]
fn fingerprints_are_distinct_across_fixtures_and_bindings() {
    let fps: Vec<u64> = fixtures().iter().map(Artifact::fingerprint).collect();
    for (i, a) in fps.iter().enumerate() {
        for b in &fps[i + 1..] {
            assert_ne!(a, b, "distinct machines must not collide");
        }
    }
    // Same family, different binding: behaviourally different deployment.
    let a3 = Artifact::from_efsm(&counter_efsm(), vec![3]).unwrap();
    let a4 = Artifact::from_efsm(&counter_efsm(), vec![4]).unwrap();
    assert_ne!(a3.fingerprint(), a4.fingerprint());
    assert_ne!(a3.save(), a4.save());
}

// ---------------------------------------------------------------------
// The carried fingerprint and the pinned values.
// ---------------------------------------------------------------------

#[test]
fn every_constructor_carries_the_ir_fingerprint() {
    let carried = |a: &Artifact| {
        assert_eq!(
            a.fingerprint(),
            fold_params(a.ir().fingerprint(), a.params()),
            "{}",
            a.name()
        );
    };
    // `fixtures` covers `from_machine`, `from_efsm` and `new`.
    for artifact in fixtures() {
        carried(&artifact);
        carried(&Artifact::load(&artifact.save()).expect("valid image loads"));
    }
}

#[test]
fn booted_engines_report_the_compiled_fingerprint() {
    for (artifact, spec) in fixtures().iter().zip(fixture_specs()) {
        let loaded = Artifact::load(&artifact.save()).expect("valid image loads");
        let booted = Engine::from_artifact(&loaded).expect("artifact boots");
        let compiled = Engine::compile(spec).expect("spec compiles");
        assert_eq!(
            booted.fingerprint(),
            compiled.fingerprint(),
            "{}",
            artifact.name()
        );
        assert_eq!(booted.fingerprint(), artifact.fingerprint());
    }
}

/// `(section name, offset of its checksum word)` for every section of
/// a valid image, walking the frames as `docs/ARTIFACT_FORMAT.md` lays
/// them out.
fn section_checksum_offsets(image: &[u8]) -> Vec<(&'static str, usize)> {
    let names = [
        "name",
        "messages",
        "params",
        "variables",
        "actions",
        "states",
        "binding",
    ];
    let mut pos = 16; // header
    names
        .iter()
        .map(|&name| {
            let len = u64::from_le_bytes(image[pos + 8..pos + 16].try_into().unwrap()) as usize;
            let at = pos + 16 + len.div_ceil(8) * 8;
            pos = at + 8;
            (name, at)
        })
        .collect()
}

#[test]
fn a_corrupt_section_checksum_is_named_despite_a_repaired_file_checksum() {
    // The loader's canonical re-encode copies each checksum word from
    // the input instead of hashing again; that is sound only because
    // `decode` has already checked every one. A flipped checksum word
    // over an intact payload, under a repaired file checksum, must
    // therefore be caught by `decode`, naming its section.
    for artifact in fixtures() {
        let image = artifact.save();
        let offsets = section_checksum_offsets(&image);
        assert_eq!(
            offsets.last().unwrap().1 + 8,
            image.len() - 16,
            "footer follows"
        );
        for (section, at) in offsets {
            for bit in [0, 31, 63] {
                let mut corrupt = image.clone();
                corrupt[at + bit / 8] ^= 1 << (bit % 8);
                repair_file_checksum(&mut corrupt);
                assert_eq!(
                    Artifact::load(&corrupt),
                    Err(ArtifactError::ChecksumMismatch { section }),
                    "{}: bit {bit} of the {section} checksum",
                    artifact.name()
                );
            }
        }
    }
}

#[test]
fn fingerprints_and_images_are_pinned() {
    // Values from before the FNV word path and the carried fingerprint:
    // neither may change a fingerprint or a byte of a saved image.
    let commit4 = generate(&CommitModel::new(CommitConfig::new(4).unwrap()))
        .expect("commit r = 4 generates")
        .machine;
    let bound = commit_efsm_params(&CommitConfig::new(7).unwrap());
    let pinned = [
        (
            Artifact::new(FlatIr::from_machine(&commit4), vec![]).unwrap(),
            0xee8c_0b50_1a93_1cd2,
            0x98e6_c15e_d7bb_ba7d,
            3256,
        ),
        (
            Artifact::from_efsm(&commit_efsm(), bound).unwrap(),
            0x28ed_f0fe_301e_6178,
            0x7278_d053_7167_f63a,
            3920,
        ),
        (
            Artifact::new(guarded_hsm().flatten_ir(), vec![3]).unwrap(),
            0x742b_759d_97cf_c0dc,
            0x425a_2ef0_e6be_2325,
            632,
        ),
    ];
    for (artifact, fingerprint, image_hash, len) in pinned {
        let image = artifact.save();
        assert_eq!(artifact.fingerprint(), fingerprint, "{}", artifact.name());
        assert_eq!(
            (fnv1a(&image), image.len()),
            (image_hash, len),
            "{}",
            artifact.name()
        );
        let loaded = Artifact::load(&image).expect("valid image loads");
        assert_eq!(loaded.fingerprint(), fingerprint);
    }
}

// ---------------------------------------------------------------------
// Pinned corruption campaigns (replayed by scripts/verify.sh).
// ---------------------------------------------------------------------

/// xorshift64* — tiny deterministic PRNG so campaign seeds pin exact
/// corruption patterns without pulling in a dependency.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

#[test]
fn artifact_corruption_pinned_truncations() {
    for artifact in fixtures() {
        let bytes = artifact.save();
        for len in 0..bytes.len() {
            assert!(
                Artifact::load(&bytes[..len]).is_err(),
                "truncation to {len}/{} bytes must be rejected",
                bytes.len(),
            );
        }
    }
}

#[test]
fn artifact_corruption_pinned_every_bit_flip() {
    // Exhaustive, not sampled: every bit of every byte of every
    // fixture image. The whole-file checksum covers everything before
    // it, and flipping the checksum itself breaks the match, so no
    // single-bit flip may survive.
    for artifact in fixtures() {
        let bytes = artifact.save();
        let mut mutated = bytes.clone();
        for i in 0..bytes.len() {
            for bit in 0..8 {
                mutated[i] ^= 1 << bit;
                assert!(
                    Artifact::load(&mutated).is_err(),
                    "bit {bit} of byte {i} flipped: must be rejected",
                );
                mutated[i] ^= 1 << bit;
            }
        }
        assert_eq!(mutated, bytes);
    }
}

#[test]
fn artifact_corruption_pinned_multibit_seed_0xc0ffee() {
    multibit_campaign(0xc0_ffee);
}

#[test]
fn artifact_corruption_pinned_multibit_seed_2007() {
    multibit_campaign(2007);
}

/// Seeded multi-bit corruption: 2..=8 simultaneous flips per round. A
/// 64-bit FNV checksum makes an accidental collision astronomically
/// unlikely, and the pinned seed makes the campaign reproducible —
/// if it passes once it passes forever.
fn multibit_campaign(seed: u64) {
    let mut rng = Rng(seed | 1);
    for artifact in fixtures() {
        let bytes = artifact.save();
        for _ in 0..512 {
            let mut mutated = bytes.clone();
            let flips = 2 + rng.below(7);
            for _ in 0..flips {
                let i = rng.below(mutated.len());
                mutated[i] ^= 1 << rng.below(8);
            }
            if mutated == bytes {
                continue; // flips cancelled out — not a corruption
            }
            assert!(
                Artifact::load(&mutated).is_err(),
                "{flips} seeded bit flips must be rejected (seed {seed:#x})",
            );
        }
    }
}

#[test]
fn artifact_corruption_pinned_splices_seed_0xdead() {
    // Cross-artifact splices: the head of one valid image glued to the
    // tail of another. Without a repaired footer the whole-file
    // checksum no longer matches the mixed body, so every splice that
    // differs from both originals must be rejected.
    let fixtures = fixtures();
    let images: Vec<Vec<u8>> = fixtures.iter().map(Artifact::save).collect();
    let mut rng = Rng(0xdead | 1);
    for a in 0..images.len() {
        for b in 0..images.len() {
            if a == b {
                continue;
            }
            let (head, tail) = (&images[a], &images[b]);
            for _ in 0..64 {
                let cut_head = rng.below(head.len() + 1);
                let cut_tail = rng.below(tail.len() + 1);
                let mut spliced = head[..cut_head].to_vec();
                spliced.extend_from_slice(&tail[cut_tail..]);
                if spliced == *head || spliced == *tail {
                    continue;
                }
                assert!(
                    Artifact::load(&spliced).is_err(),
                    "splice head[..{cut_head}] + tail[{cut_tail}..] must be rejected",
                );
            }
        }
    }
}

#[test]
fn artifact_corruption_pinned_spliced_sections_with_repaired_footer() {
    // The adversarial variant: splice, then *repair* the whole-file
    // checksum so the outer integrity gate passes and the deeper layers
    // (section checksums, structural validation, content fingerprint,
    // canonical re-encoding) must do the rejecting. The loader's
    // contract here is exactly: never panic, and never accept an image
    // that is not the canonical encoding of what it decoded.
    let fixtures = fixtures();
    let images: Vec<Vec<u8>> = fixtures.iter().map(Artifact::save).collect();
    let mut rng = Rng(0xbeef | 1);
    let mut accepted = 0usize;
    for a in 0..images.len() {
        for b in 0..images.len() {
            let (head, tail) = (&images[a], &images[b]);
            for _ in 0..64 {
                let cut_head = rng.below(head.len() + 1);
                let cut_tail = rng.below(tail.len() + 1);
                let mut spliced = head[..cut_head].to_vec();
                spliced.extend_from_slice(&tail[cut_tail..]);
                repair_file_checksum(&mut spliced);
                match Artifact::load(&spliced) {
                    Err(_) => {}
                    Ok(loaded) => {
                        // Acceptance is only legitimate when the splice
                        // reconstructed a genuine canonical image.
                        assert_eq!(loaded.save(), spliced, "accepted image must be canonical",);
                        accepted += 1;
                    }
                }
            }
        }
    }
    // Drive the accept path explicitly: an aligned self-splice
    // reconstructs the original image and must be accepted — proving
    // the campaign's canonical-accept assertion actually executes.
    for image in &images {
        let cut = image.len() / 2;
        let mut spliced = image[..cut].to_vec();
        spliced.extend_from_slice(&image[cut..]);
        repair_file_checksum(&mut spliced);
        let loaded = Artifact::load(&spliced).expect("identity splice reconstructs");
        assert_eq!(loaded.save(), spliced);
        accepted += 1;
    }
    assert!(accepted >= images.len());
}

/// Recomputes the trailing whole-file FNV-1a checksum in place (no-op
/// for images too short to carry one).
fn repair_file_checksum(bytes: &mut [u8]) {
    if bytes.len() < 8 {
        return;
    }
    let split = bytes.len() - 8;
    let sum = stategen_core::fnv1a(&bytes[..split]);
    bytes[split..].copy_from_slice(&sum.to_le_bytes());
}

#[test]
fn version_skew_is_rejected_with_the_supported_range() {
    let bytes = fixtures()[0].save();
    let mut skewed = bytes.clone();
    skewed[8..12].copy_from_slice(&2u32.to_le_bytes());
    repair_file_checksum(&mut skewed);
    match Artifact::load(&skewed) {
        Err(ArtifactError::UnsupportedVersion { found, supported }) => {
            assert_eq!(found, 2);
            assert_eq!(supported, stategen_core::artifact::FORMAT_VERSION);
        }
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }
    let mut not_artifact = bytes;
    not_artifact[..8].copy_from_slice(b"NOTMAGIC");
    repair_file_checksum(&mut not_artifact);
    assert_eq!(
        Artifact::load(&not_artifact),
        Err(ArtifactError::NotAnArtifact),
    );
}

// ---------------------------------------------------------------------
// Proptest: random machines round-trip; hostile bytes never panic.
// ---------------------------------------------------------------------

/// A compact random flat machine: up to 6 states, up to 3 messages,
/// arbitrary transition topology, optional send actions, one optional
/// finish state.
fn random_machine() -> impl Strategy<Value = StateMachine> {
    let edge = (
        any::<u16>(),
        any::<u16>(),
        prop::collection::vec(0u8..4, 0..3),
    );
    (
        2usize..=6,
        1usize..=3,
        prop::collection::vec(edge, 0..12),
        any::<bool>(),
    )
        .prop_map(|(n_states, n_messages, edges, with_finish)| {
            let messages: Vec<String> = (0..n_messages).map(|m| format!("m{m}")).collect();
            let mut b = StateMachineBuilder::new("random", messages.iter().map(String::as_str));
            let mut states = Vec::new();
            for s in 0..n_states {
                if with_finish && s == n_states - 1 {
                    states.push(b.add_state_full(format!("s{s}"), None, StateRole::Finish, vec![]));
                } else {
                    states.push(b.add_state(format!("s{s}")));
                }
            }
            let mut used = std::collections::HashSet::new();
            for (from, to, actions) in edges {
                let from_ix = from as usize % n_states;
                let to_ix = to as usize % n_states;
                let message = (from as usize + to as usize) % n_messages;
                if !used.insert((from_ix, message)) {
                    continue; // one transition per (state, message)
                }
                let actions = actions
                    .into_iter()
                    .map(|a| Action::send(format!("a{a}")))
                    .collect();
                b.add_transition(states[from_ix], &messages[message], states[to_ix], actions);
            }
            b.build(states[0])
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_machines_round_trip(machine in random_machine()) {
        assert_round_trip(&Artifact::new(FlatIr::from_machine(&machine), vec![]).unwrap());
    }

    #[test]
    fn random_bindings_round_trip(limit in any::<i64>()) {
        let artifact = Artifact::from_efsm(&counter_efsm(), vec![limit]).unwrap();
        assert_round_trip(&artifact);
    }

    #[test]
    fn load_never_panics_on_arbitrary_bytes(
        bytes in prop::collection::vec(any::<u8>(), 0..512)
    ) {
        // Contract: an error or a canonical accept — never a panic.
        if let Ok(loaded) = Artifact::load(&bytes) {
            prop_assert_eq!(loaded.save(), bytes);
        }
    }

    #[test]
    fn load_never_panics_on_magic_prefixed_bytes(
        tail in prop::collection::vec(any::<u8>(), 0..256)
    ) {
        // Steer the fuzzer past the magic/version gate so the section
        // readers see the hostile bytes.
        let mut bytes = stategen_core::artifact::MAGIC.to_vec();
        bytes.extend_from_slice(&stategen_core::artifact::FORMAT_VERSION.to_le_bytes());
        bytes.extend_from_slice(&tail);
        if let Ok(loaded) = Artifact::load(&bytes) {
            prop_assert_eq!(loaded.save(), bytes);
        }
    }

    #[test]
    fn load_never_panics_on_overwritten_valid_image(
        writes in prop::collection::vec((any::<u32>(), any::<u8>()), 1..24),
        repair in any::<bool>(),
    ) {
        // Overwrite bytes of a valid image (optionally repairing the
        // outer checksum so inner layers are exercised).
        let mut bytes = fixtures()[1].save();
        for (pos, value) in writes {
            let len = bytes.len();
            bytes[pos as usize % len] = value;
        }
        if repair {
            repair_file_checksum(&mut bytes);
        }
        if let Ok(loaded) = Artifact::load(&bytes) {
            prop_assert_eq!(loaded.save(), bytes);
        }
    }
}
