//! Swapped Dragonfly planner family: Draper's swap-exchange all-to-all
//! versus direct minimal-path routing of the same traffic, plus the
//! planner-cache economics, on the CI smoke shape `D3(4,8)` (256 nodes,
//! 11 ports per router).
//!
//! `a2a/direct_route` pushes every ordered pair as an individual
//! message through the dynamic graph-generic router (minimal
//! local-global-local paths, heavy gateway contention);
//! `a2a/swap_exchange` replays the static swap-exchange schedule —
//! `2M-1` contention-free rounds — through the payload-free executor.
//! `swap_exchange/build` and `swap_exchange/cached` are one cold plan
//! construction versus a warm [`PlanCache`] fetch of the same plan;
//! `direct_plan/build` is the direct-routing flight plan of the same
//! all-to-all (the hop log `a2a/direct_route` replays).

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion, Throughput};
use cubeaddr::NodeId;
use cubecheck::run_schedule;
use cubecomm::ecube::RouteMsg;
use cubecomm::graph::graph_route;
use cubecomm::plan::{
    dragonfly_direct_plan, dragonfly_swap_exchange_plan, dragonfly_swap_exchange_plan_cached,
    PlanCache,
};
use cubecomm::Block;
use cubesim::{MachineParams, PortMode, SimNet};
use cubetopo::{SwappedDragonfly, TopoSpec, Topology};

const K: u32 = 4;
const M: u32 = 8;

fn params() -> MachineParams {
    MachineParams::intel_ipsc().with_ports(PortMode::AllPorts)
}

/// Every ordered pair once, one element, tagged payloads.
fn a2a_msgs(num: u64) -> Vec<RouteMsg<u64>> {
    (0..num)
        .flat_map(|s| {
            (0..num).filter(move |&t| t != s).map(move |t| RouteMsg {
                src: NodeId(s),
                dst: NodeId(t),
                data: vec![s * 1000 + t],
            })
        })
        .collect()
}

/// The matching size matrix for the swap-exchange planner.
fn a2a_sizes(num: u64) -> Vec<Vec<u64>> {
    (0..num).map(|s| (0..num).map(|t| u64::from(s != t)).collect()).collect()
}

fn bench_dragonfly(c: &mut Criterion) {
    let d = SwappedDragonfly::new(K, M);
    let num = d.num_nodes() as u64;
    let shape = format!("{K}x{M}");
    let mut group = c.benchmark_group("dragonfly");
    group.sample_size(10);

    let msgs = a2a_msgs(num);
    group.throughput(Throughput::Elements(msgs.len() as u64));
    group.bench_with_input(BenchmarkId::new("a2a/direct_route", &shape), &(), |b, ()| {
        b.iter_batched(
            || {
                let net: SimNet<Block<u64>, TopoSpec> =
                    SimNet::on_topology(TopoSpec::dragonfly(K, M), params());
                (net, msgs.clone())
            },
            |(mut net, msgs)| {
                let out = graph_route(&mut net, msgs);
                (net.finalize(), out.len())
            },
            BatchSize::LargeInput,
        )
    });

    let triples: Vec<(NodeId, NodeId, u64)> =
        msgs.iter().map(|m| (m.src, m.dst, m.data.len() as u64)).collect();
    group.bench_with_input(BenchmarkId::new("direct_plan/build", &shape), &(), |b, ()| {
        b.iter(|| dragonfly_direct_plan(K, M, &triples))
    });

    let sizes = a2a_sizes(num);
    let plan = dragonfly_swap_exchange_plan(K, M, &sizes);
    let machine = params();
    group.bench_with_input(BenchmarkId::new("a2a/swap_exchange", &shape), &(), |b, ()| {
        b.iter(|| run_schedule(&plan, &machine))
    });

    group.bench_with_input(BenchmarkId::new("swap_exchange/build", &shape), &(), |b, ()| {
        b.iter(|| dragonfly_swap_exchange_plan(K, M, &sizes))
    });
    let cache = PlanCache::new(8);
    let _ = dragonfly_swap_exchange_plan_cached(&cache, K, M, &sizes);
    group.bench_with_input(BenchmarkId::new("swap_exchange/cached", &shape), &(), |b, ()| {
        b.iter(|| dragonfly_swap_exchange_plan_cached(&cache, K, M, &sizes))
    });

    group.finish();
}

criterion_group!(benches, bench_dragonfly);
criterion_main!(benches);
