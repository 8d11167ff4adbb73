//! Performance smoke tests for the schedule executor, the router and
//! the plan cache.
//!
//! The n = 10 all-to-all personalized exchange (1024 nodes, ~one
//! million blocks through the flat-indexed `SimNet`) and the n = 12
//! router transpose must finish within generous wall-clock bounds; the
//! router must not be slower at two worker threads than at one; a warm
//! plan-cache fetch must beat a cold build. Ignored by default so
//! ordinary debug test runs stay fast; `scripts/ci.sh` runs them in
//! release mode with `--ignored`.

use cubeaddr::NodeId;
use cubecomm::ecube::{ecube_route, RouteMsg};
use cubecomm::exchange::{all_to_all_exchange, BufferPolicy};
use cubecomm::{Block, BlockMsg};
use cubesim::{par, MachineParams, PortMode, SimNet};
use std::time::{Duration, Instant};

/// The figures' node-permutation transpose `x -> tr(x)` on an `n`-cube,
/// as router messages of 4 elements (fixed points dropped).
fn router_transpose_msgs(n: u32) -> Vec<RouteMsg<u64>> {
    let half = n / 2;
    (0..(1u64 << n))
        .filter_map(|x| {
            let (hi, lo) = cubeaddr::split(x, half);
            let t = cubeaddr::concat(lo, hi, half);
            (t != x).then(|| RouteMsg { src: NodeId(x), dst: NodeId(t), data: vec![x; 4] })
        })
        .collect()
}

fn median(mut v: Vec<Duration>) -> Duration {
    v.sort();
    v[v.len() / 2]
}

#[test]
#[ignore = "perf smoke; run in release via scripts/ci.sh"]
fn n10_all_to_all_completes_within_bound() {
    let n = 10u32;
    let num = 1usize << n;
    let blocks: Vec<Vec<Vec<u64>>> =
        (0..num as u64).map(|s| (0..num as u64).map(|d| vec![s * 1000 + d]).collect()).collect();

    let mut net: SimNet<BlockMsg<u64>> =
        SimNet::new(n, MachineParams::intel_ipsc().with_ports(PortMode::AllPorts));
    let start = Instant::now();
    let result = all_to_all_exchange(&mut net, blocks, BufferPolicy::Ideal);
    let report = net.finalize();
    let elapsed = start.elapsed();

    assert_eq!(report.rounds, n as usize);
    assert!(result.iter().all(|per_node| per_node.len() == num));
    // ~0.2 s on a modest core; the bound only catches order-of-magnitude
    // regressions (e.g. accidental per-round allocation or quadratic
    // bookkeeping), not scheduler jitter.
    assert!(elapsed < Duration::from_secs(30), "n=10 all-to-all took {elapsed:?}");
}

#[test]
#[ignore = "perf smoke; run in release via scripts/ci.sh"]
fn n12_router_transpose_completes_within_bound() {
    // The FIG16-18 workload one size below the headline: the
    // node-permutation transpose pattern on a 12-cube (4096 messages,
    // heavy link contention) through the e-cube router.
    let n = 12u32;
    let half = n / 2;
    let msgs = router_transpose_msgs(n);

    let mut net: SimNet<Block<u64>> = SimNet::new(n, MachineParams::connection_machine());
    let start = Instant::now();
    let arrivals = ecube_route(&mut net, msgs);
    let report = net.finalize();
    let elapsed = start.elapsed();

    let delivered: usize = arrivals.iter().map(Vec::len).sum();
    assert_eq!(delivered, (1usize << n) - (1usize << half));
    assert!(report.rounds > 0);
    // ~3 ms on a modest core; the bound only catches order-of-magnitude
    // regressions (e.g. a return to full-lattice scans), not jitter.
    assert!(elapsed < Duration::from_secs(10), "n=12 router transpose took {elapsed:?}");
}

#[test]
#[ignore = "perf smoke; run in release via scripts/ci.sh"]
fn n12_router_two_threads_not_slower_than_one() {
    // More worker threads must never make the router slower: the n=12
    // transpose at two threads stays within 1.25x of one thread.
    // Alternating trials share the host's drift; medians drop outliers.
    let n = 12u32;
    let msgs = router_transpose_msgs(n);
    let time_at = |threads: usize| {
        par::with_threads(threads, || {
            let mut net: SimNet<Block<u64>> = SimNet::new(n, MachineParams::connection_machine());
            let batch = msgs.clone();
            let start = Instant::now();
            let arrivals = ecube_route(&mut net, batch);
            net.finalize();
            let elapsed = start.elapsed();
            assert_eq!(arrivals.iter().map(Vec::len).sum::<usize>(), msgs.len());
            elapsed
        })
    };
    let trials = 9;
    let (mut one, mut two) = (Vec::new(), Vec::new());
    for _ in 0..trials {
        one.push(time_at(1));
        two.push(time_at(2));
    }
    let (one, two) = (median(one), median(two));
    assert!(
        two.as_secs_f64() <= 1.25 * one.as_secs_f64(),
        "n=12 router transpose: {two:?} at 2 threads vs {one:?} at 1 thread (bound 1.25x)"
    );
}

#[test]
#[ignore = "perf smoke; run in release via scripts/ci.sh"]
fn n12_warm_cache_fetch_beats_cold_build_10x() {
    use cubeaddr::NodeId;
    use cubecomm::plan::{ecube_route_plan, ecube_route_plan_cached, PlanCache};

    // The figure workload: node-permutation transpose flight plan on a
    // 12-cube. A warm cache hit must be at least 10x faster than the
    // cold construction it replaces — the wedge the ISSUE-6 cache exists
    // to provide. Medians over several trials keep scheduler jitter out.
    let n = 12u32;
    let half = n / 2;
    let msgs: Vec<(NodeId, NodeId, u64)> = (0..(1u64 << n))
        .filter_map(|x| {
            let (hi, lo) = cubeaddr::split(x, half);
            let t = cubeaddr::concat(lo, hi, half);
            (t != x).then_some((NodeId(x), NodeId(t), 4))
        })
        .collect();

    let trials = 5;

    let cold = median(
        (0..trials)
            .map(|_| {
                let start = Instant::now();
                let plan = ecube_route_plan(n, &msgs);
                assert!(!plan.rounds.is_empty());
                start.elapsed()
            })
            .collect(),
    );

    let cache = PlanCache::new(4);
    let first = ecube_route_plan_cached(&cache, n, &msgs);
    let warm = median(
        (0..trials)
            .map(|_| {
                let start = Instant::now();
                let plan = ecube_route_plan_cached(&cache, n, &msgs);
                let elapsed = start.elapsed();
                assert!(cubesync::sync::Arc::ptr_eq(&plan, &first), "fetch must hit the cache");
                elapsed
            })
            .collect(),
    );

    assert_eq!(cache.stats().misses, 1);
    // Measured ~2.3 ms cold vs ~65 µs warm (the hit is dominated by
    // fingerprinting the 4032-message input): ~35x. The 10x bound only
    // catches a broken cache (rebuilds on hit) or a construction-cost
    // regression, not jitter.
    assert!(
        warm * 10 <= cold,
        "warm cache fetch ({warm:?}) is not 10x faster than cold build ({cold:?})"
    );
}
