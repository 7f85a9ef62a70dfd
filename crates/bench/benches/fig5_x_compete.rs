//! E4 / Figure 5 — `x_compete`.
//!
//! Measures the test&set walk for a winner (first slot free: 1 step) and a
//! loser (walks all `x` slots). Expected shape: loser cost linear in `x`,
//! winner cost flat.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mpcn_agreement::xcompete::x_compete;
use mpcn_bench::free_envs;
use mpcn_runtime::block_on;
use std::hint::black_box;

const KIND: u32 = 550;

fn winner(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig5/x_compete_winner");
    for x in [1u32, 2, 4, 8, 16] {
        g.bench_with_input(BenchmarkId::from_parameter(x), &x, |b, &x| {
            let envs = free_envs(1);
            let mut inst = 0u64;
            b.iter(|| {
                inst += 1;
                black_box(block_on(x_compete(&envs[0], KIND, inst, x)))
            });
        });
    }
    g.finish();
}

fn loser(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig5/x_compete_loser");
    for x in [1u32, 2, 4, 8, 16] {
        g.bench_with_input(BenchmarkId::from_parameter(x), &x, |b, &x| {
            let envs = free_envs(x as usize + 1);
            let mut inst = 0u64;
            b.iter(|| {
                inst += 1;
                // Fill all x slots, then measure the full losing walk.
                for e in envs.iter().take(x as usize) {
                    block_on(x_compete(e, KIND, inst, x));
                }
                black_box(block_on(x_compete(&envs[x as usize], KIND, inst, x)))
            });
        });
    }
    g.finish();
}

criterion_group!(benches, winner, loser);
criterion_main!(benches);
