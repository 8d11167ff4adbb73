//! E-cube router throughput: `ecube_route` (the shared hop loop,
//! replayed through `SimNet`) versus the original full-lattice
//! `RefRouter`, on the workloads the figures run.
//!
//! `transpose/*` is the node-permutation transpose pattern behind
//! FIG14b/16–18 (Connection Machine constants, `2^n` messages, heavy
//! contention) at the two largest sweep sizes; `sparse_probe/*` is 16
//! messages on a 14-cube, where the reference router still pays for the
//! full `2^n × n` queue lattice (~230k queues) but the hop loop's dense
//! lanes start as zeroed pages and only the touched ones are written.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion, Throughput};
use cubeaddr::NodeId;
use cubebench::experiments::transpose_route_msgs;
use cubecomm::ecube::reference::RefRouter;
use cubecomm::ecube::{ecube_route, RouteMsg};
use cubecomm::{Block, BlockMsg};
use cubesim::{MachineParams, SimNet};

/// Net for `ecube_route`, which carries bare blocks on the wire.
fn cm_net(n: u32) -> SimNet<Block<u64>> {
    SimNet::new(n, MachineParams::connection_machine())
}

/// Net for the reference router, which batches blocks per link.
fn cm_net_ref(n: u32) -> SimNet<BlockMsg<u64>> {
    SimNet::new(n, MachineParams::connection_machine())
}

/// 16 far-apart messages on a big cube: src `i`, dst = bitwise
/// complement, 4 elements each.
fn sparse_msgs(n: u32) -> Vec<RouteMsg<u64>> {
    let mask = (1u64 << n) - 1;
    (0..16u64)
        .map(|i| RouteMsg { src: NodeId(i), dst: NodeId(i ^ mask), data: vec![i; 4] })
        .collect()
}

fn bench_router(c: &mut Criterion) {
    let mut group = c.benchmark_group("router");
    group.sample_size(10);

    for n in [12u32, 14] {
        let msgs = transpose_route_msgs(n, 4);
        group.throughput(Throughput::Elements(msgs.len() as u64));
        group.bench_with_input(BenchmarkId::new("flat/transpose", n), &n, |b, &n| {
            b.iter_batched(
                || (cm_net(n), msgs.clone()),
                |(mut net, msgs)| {
                    let out = ecube_route(&mut net, msgs);
                    (net.finalize(), out.len())
                },
                BatchSize::LargeInput,
            )
        });
        group.bench_with_input(BenchmarkId::new("ref/transpose", n), &n, |b, &n| {
            b.iter_batched(
                || (cm_net_ref(n), msgs.clone()),
                |(mut net, msgs)| {
                    let out = RefRouter::route(&mut net, msgs);
                    (net.finalize(), out.len())
                },
                BatchSize::LargeInput,
            )
        });
    }

    let n = 14u32;
    let msgs = sparse_msgs(n);
    group.throughput(Throughput::Elements(msgs.len() as u64));
    group.bench_with_input(BenchmarkId::new("flat/sparse_probe", n), &n, |b, &n| {
        b.iter_batched(
            || (cm_net(n), msgs.clone()),
            |(mut net, msgs)| {
                let out = ecube_route(&mut net, msgs);
                (net.finalize(), out.len())
            },
            BatchSize::LargeInput,
        )
    });
    group.bench_with_input(BenchmarkId::new("ref/sparse_probe", n), &n, |b, &n| {
        b.iter_batched(
            || (cm_net_ref(n), msgs.clone()),
            |(mut net, msgs)| {
                let out = RefRouter::route(&mut net, msgs);
                (net.finalize(), out.len())
            },
            BatchSize::LargeInput,
        )
    });

    group.finish();
}

criterion_group!(benches, bench_router);
criterion_main!(benches);
