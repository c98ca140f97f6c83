//! Dispatch throughput of the execution backends: the decode-on-step
//! reference `RefCpu` against the predecoded micro-op `FastCpu`, on the same
//! compiled workload. The `dispatch` binary measures the same ratio and gates
//! on it; this bench exists for interactive before/after comparison.

use criterion::{criterion_group, criterion_main, Criterion};
use lisp::Options;
use mipsx::ALL_BACKENDS;

fn bench_dispatch(c: &mut Criterion) {
    let mut g = c.benchmark_group("dispatch");
    g.sample_size(10);
    for name in ["frl", "trav"] {
        let b = programs::by_name(name).unwrap();
        let compiled = b.compile(&Options::default()).unwrap();
        for backend in ALL_BACKENDS {
            g.bench_function(format!("{name}/{backend}"), |bch| {
                bch.iter(|| lisp::run_with(&compiled, backend, programs::FUEL).expect("runs"))
            });
        }
    }
    g.finish();
}

criterion_group!(benches, bench_dispatch);
criterion_main!(benches);
