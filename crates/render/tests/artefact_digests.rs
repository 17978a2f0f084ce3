//! Byte pins: `(length, FNV-1a-64)` of every artefact the renderers emit
//! for the r = 4 commit machine (paper Figs 14–16). Any change to a
//! renderer's output, however small, fails here.

use stategen_commit::{CommitConfig, CommitModel};
use stategen_core::{generate, FlatIr, Notes};
use stategen_render::{
    java_src, render_dot, render_mermaid, render_rust_module, render_text, render_xml, JavaRenderer,
};

fn digest(s: &str) -> (usize, u64) {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in s.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (s.len(), h)
}

#[test]
fn commit_r4_artefacts_are_byte_pinned() {
    let g = generate(&CommitModel::new(CommitConfig::new(4).expect("valid")))
        .expect("generation succeeds");
    let ir = FlatIr::from_machine(&g.machine);
    let notes = Notes::from_machine(&g.machine);
    let (m, n) = (&ir, Some(&notes));
    let java = JavaRenderer::new("CommitFsm", "CommitActions");
    let outputs = [
        ("dot", render_dot(m)),
        ("xml", render_xml(m, n)),
        ("mermaid", render_mermaid(m)),
        ("text", render_text(m, n)),
        ("java", java.render(m).unwrap()),
        ("handlers", java_src::render_handlers(m).unwrap()),
        ("rust", render_rust_module(m, n).unwrap()),
    ];
    let got: Vec<(&str, (usize, u64))> = outputs.iter().map(|(k, s)| (*k, digest(s))).collect();
    let expected: [(&str, (usize, u64)); 7] = [
        ("dot", (5200, 0xc0a7da75d9381511)),
        ("xml", (52733, 0x6e7589eca5ae2e75)),
        ("mermaid", (3498, 0x248b2477ecfccf17)),
        ("text", (23248, 0x6f41938f78e98387)),
        ("java", (14583, 0x4c5f3509421eb703)),
        ("handlers", (10936, 0xa51bc6a849e0ece8)),
        ("rust", (29244, 0x629490398223cdfb)),
    ];
    assert_eq!(got, expected);
}
