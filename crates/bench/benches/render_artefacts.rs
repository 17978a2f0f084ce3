//! Artefact-rendering cost (paper §3.5/§4.1): producing the textual
//! description, diagrams and source code from the r = 4 commit machine.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use stategen_commit::{CommitConfig, CommitModel};
use stategen_core::{generate, FlatIr, Notes};
use stategen_render::{
    java_src, render_dot, render_mermaid, render_rust_module, render_text, render_xml,
};

fn bench_render(c: &mut Criterion) {
    let machine = generate(&CommitModel::new(CommitConfig::new(4).expect("valid")))
        .expect("generates")
        .machine;
    let ir = FlatIr::from_machine(&machine);
    let notes = Notes::from_machine(&machine);
    let mut group = c.benchmark_group("render_artefacts");
    group.bench_function("text", |b| {
        b.iter(|| black_box(render_text(&ir, Some(&notes)).len()));
    });
    group.bench_function("dot", |b| {
        b.iter(|| black_box(render_dot(&ir).len()));
    });
    group.bench_function("xml", |b| {
        b.iter(|| black_box(render_xml(&ir, Some(&notes)).len()));
    });
    group.bench_function("mermaid", |b| {
        b.iter(|| black_box(render_mermaid(&ir).len()));
    });
    group.bench_function("rust_module", |b| {
        b.iter(|| black_box(render_rust_module(&ir, Some(&notes)).map(|s| s.len())));
    });
    group.bench_function("java_handlers", |b| {
        b.iter(|| black_box(java_src::render_handlers(&ir).map(|s| s.len())));
    });
    group.finish();
}

criterion_group!(benches, bench_render);
criterion_main!(benches);
