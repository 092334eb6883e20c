//! Hot-path sweep benchmark: one full orthogonalization sweep of a
//! 128×128 functional workload per iteration on the serial rotation
//! path (the `repro -- hotpath` emitter measures the 256×256 acceptance
//! workload; this target keeps `cargo bench --bench hotpath` fast
//! enough for CI smoke runs).

use criterion::{criterion_group, criterion_main, Criterion};
use heterosvd_bench::experiments::hotpath;
use std::hint::black_box;

const N: usize = 128;
const P_ENG: usize = 4;

fn bench_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("hotpath_sweep_128");
    group.bench_function("optimized-serial", |b| {
        b.iter(|| black_box(hotpath::sweep_optimized(N, P_ENG, 1).expect("serial sweep")))
    });
    group.finish();
}

criterion_group!(benches, bench_sweep);
criterion_main!(benches);
