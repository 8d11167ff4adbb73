//! Schedule-construction cost: how long planning takes, separate from
//! execution (the ROADMAP's untracked-planning-cost item).
//!
//! `exchange_plan/transpose` builds the transpose-pair exchange schedule
//! (one block per off-diagonal node, all `n` dimensions highest first);
//! `router_plan/transpose` builds the e-cube flight plan for the
//! figures' node-permutation workload — the hop log that the
//! `router/flat/transpose` bench replays. Both at `n ∈ {10, 12, 14, 16}` (16
//! became feasible with factored construction). The `*/cached` rows
//! measure a warm [`PlanCache`] hit for the same inputs — the price a
//! figure sweep or CI lint pays after the first build.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion, Throughput};
use cubecheck::workloads::transpose_msgs;
use cubecomm::plan::{
    ecube_route_plan, ecube_route_plan_cached, exchange_plan, exchange_plan_cached, BlockMeta,
    PlanCache,
};
use cubecomm::BufferPolicy;
use cubesim::PortMode;

fn bench_construction(c: &mut Criterion) {
    let mut group = c.benchmark_group("schedule_construction");
    group.sample_size(10);

    for n in [10u32, 12, 14, 16] {
        let msgs = transpose_msgs(n, 4);
        group.throughput(Throughput::Elements(msgs.len() as u64));
        group.bench_with_input(BenchmarkId::new("router_plan/transpose", n), &n, |b, &n| {
            b.iter_batched(
                || msgs.clone(),
                |msgs| ecube_route_plan(n, &msgs),
                BatchSize::LargeInput,
            )
        });

        let cache = PlanCache::new(4);
        let _ = ecube_route_plan_cached(&cache, n, &msgs); // warm
        group.bench_with_input(BenchmarkId::new("router_plan/cached", n), &n, |b, &n| {
            b.iter(|| ecube_route_plan_cached(&cache, n, &msgs))
        });

        let blocks: Vec<BlockMeta> = transpose_msgs(n, 8)
            .into_iter()
            .map(|(src, dst, elems)| BlockMeta { src, dst, elems })
            .collect();
        let dims: Vec<u32> = (0..n).rev().collect();
        group.throughput(Throughput::Elements(blocks.len() as u64));
        group.bench_with_input(BenchmarkId::new("exchange_plan/transpose", n), &n, |b, &n| {
            b.iter_batched(
                || (blocks.clone(), dims.clone()),
                |(blocks, dims)| {
                    exchange_plan(
                        n,
                        blocks,
                        &dims,
                        BufferPolicy::Ideal,
                        PortMode::OnePort,
                        "bench/exchange",
                    )
                },
                BatchSize::LargeInput,
            )
        });

        let cache = PlanCache::new(4);
        let _ = exchange_plan_cached(
            &cache,
            n,
            &blocks,
            &dims,
            BufferPolicy::Ideal,
            PortMode::OnePort,
            "bench/exchange",
        );
        group.bench_with_input(BenchmarkId::new("exchange_plan/cached", n), &n, |b, &n| {
            b.iter(|| {
                exchange_plan_cached(
                    &cache,
                    n,
                    &blocks,
                    &dims,
                    BufferPolicy::Ideal,
                    PortMode::OnePort,
                    "bench/exchange",
                )
            })
        });
    }

    group.finish();
}

criterion_group!(benches, bench_construction);
criterion_main!(benches);
