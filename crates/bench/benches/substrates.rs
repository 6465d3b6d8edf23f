//! Substrate micro-benchmarks: the building blocks the engine's latency is
//! made of — the method index (Figure 8), type distance, abstract-type
//! inference (the paper notes it can take minutes on large codebases but is
//! incremental), and the mini-C# frontend.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use pex_abstract::{AbsTypes, ConstraintCache, MethodSweep};
use pex_bench::bench_project;
use pex_core::MethodIndex;
use pex_corpus::builtin;

fn index_build(c: &mut Criterion) {
    let db = bench_project();
    c.bench_function("substrates/method_index_build", |b| {
        b.iter(|| black_box(MethodIndex::build(black_box(&db))))
    });
}

fn type_distance(c: &mut Criterion) {
    let db = bench_project();
    let types: Vec<_> = db.types().iter().collect();
    c.bench_function("substrates/type_distance_all_pairs_sample", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for &from in types.iter().step_by(7) {
                for &to in types.iter().step_by(11) {
                    if let Some(d) = db.types().type_distance(from, to) {
                        acc += u64::from(d);
                    }
                }
            }
            black_box(acc)
        })
    });
}

fn abstract_inference(c: &mut Criterion) {
    let db = bench_project();
    c.bench_function("substrates/abs_types_whole_program", |b| {
        b.iter(|| {
            let mut abs = AbsTypes::new(black_box(&db));
            abs.add_all_bodies_except(&db, None);
            black_box(abs)
        })
    });
    let method = db
        .methods()
        .find(|m| db.method(*m).body().is_some_and(|b| b.stmts.len() >= 3))
        .expect("a client body exists");
    c.bench_function("substrates/abs_types_method_sweep", |b| {
        b.iter(|| {
            let mut sweep = MethodSweep::new(black_box(&db), method);
            sweep.advance_to(usize::MAX);
            black_box(sweep)
        })
    });
    // The cached replay path used by the evaluation harness.
    let cache = ConstraintCache::build(&db);
    c.bench_function("substrates/abs_types_method_sweep_cached", |b| {
        b.iter(|| {
            let mut sweep = MethodSweep::with_cache(black_box(&db), &cache, method);
            sweep.advance_to(usize::MAX);
            black_box(sweep)
        })
    });
    c.bench_function("substrates/abs_constraint_cache_build", |b| {
        b.iter(|| black_box(ConstraintCache::build(black_box(&db))))
    });
}

fn minics_frontend(c: &mut Criterion) {
    c.bench_function("substrates/minics_compile_paintdotnet", |b| {
        b.iter(|| {
            black_box(pex_model::minics::compile(black_box(
                builtin::PAINT_DOT_NET,
            )))
        })
    });
}

fn corpus_generation(c: &mut Criterion) {
    let profile = pex_bench::bench_profile();
    c.bench_function("substrates/corpus_generate_scale_0_01", |b| {
        b.iter(|| black_box(profile.generate(black_box(0.01))))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(15);
    targets = index_build, type_distance, abstract_inference, minics_frontend, corpus_generation
}
criterion_main!(benches);
