//! The one store-and-forward router of the crate, over any
//! [`MinimalRoute`] topology.
//!
//! The paper's "routing logic" baseline (Figures 14(b) and 16–18) is a
//! single discipline: every message follows the topology's canonical
//! minimal route, each directed link carries one message per round, and
//! contending messages wait in a FIFO per link. Draper's minimal
//! local–global–local routing on the Swapped Dragonfly is the same
//! discipline on another graph. This module simulates it exactly once:
//!
//! * `hop_rounds` is the contention simulation. It sees only message
//!   addresses and hands over each round's `(src, port, id)` hops in
//!   send order — the router's hop log, one round at a time.
//! * [`graph_route`] replays each round through a [`SimNet`] as it
//!   comes, carrying the real payloads;
//!   [`ecube_route`](crate::ecube::ecube_route) is `graph_route` on the
//!   cube.
//! * The flight planners ([`crate::plan::ecube_route_plan`],
//!   [`crate::plan::dragonfly_direct_plan`]) record the same rounds as a
//!   [`crate::plan::CommSchedule`].
//!
//! A plan therefore cannot drift from an execution: the router executes
//! the plan's hop sequence. On a [`Hypercube`] net the result is
//! byte-identical to the original full-lattice router
//! ([`crate::ecube::reference::RefRouter`]), property-tested in
//! `crates/cubecomm/tests/router_equivalence.rs`.
//!
//! # Ordering
//!
//! Each round stages one queue head per non-empty link, nodes ascending
//! and ports ascending per node, and commits the hops port-major (nodes
//! ascending within a port). Landings are processed in send order: a
//! block that reached its destination retires, the rest join the FIFO of
//! their next port. The replay relies on [`SimNet::drain_all_with`]
//! yielding deliveries in send order, so the `i`-th delivery of a round
//! is the round's `i`-th hop; every delivery asserts that its node is
//! the hop's far end, so the pairing is checked, not assumed.
//!
//! [`Hypercube`]: cubetopo::Hypercube

use crate::block::Block;
use crate::ecube::RouteMsg;
use cubeaddr::NodeId;
use cubesim::SimNet;
use cubetopo::MinimalRoute;

/// One link traversal: message `id` leaves node `src` on `port` and
/// lands on node `to`.
#[derive(Clone, Copy)]
pub(crate) struct Hop {
    pub(crate) src: u64,
    pub(crate) to: u64,
    pub(crate) port: u32,
    pub(crate) id: u32,
}

/// Per-link FIFOs of message ids, dense over the `nodes × ports` lanes
/// (lane `node * ports + port`). Each FIFO is a ring: `tail[lane]` is its
/// last message and `next` links every message to its successor, the
/// last one back to the head. A message waits in at most one FIFO, so
/// one `next` slot per id threads them all. Slots hold `id + 1` and 0
/// means empty: the arrays start as zeroed pages, so a sparse run on a
/// large machine touches only the pages of the lanes it uses.
struct Lanes {
    tail: Vec<u32>,
    next: Vec<u32>,
    /// Bit `lane` set ⇔ that lane's FIFO is non-empty.
    live: Vec<u64>,
    /// Bit `w` set ⇔ `live[w]` is non-zero, so a round skips idle
    /// stretches of the lattice 4096 lanes at a time.
    summary: Vec<u64>,
}

impl Lanes {
    fn new(lanes: usize, ids: usize) -> Self {
        let live = lanes.div_ceil(64);
        Lanes {
            tail: vec![0; lanes],
            next: vec![0; ids],
            live: vec![0; live],
            summary: vec![0; live.div_ceil(64)],
        }
    }

    /// Appends message `id` to the FIFO of `lane`.
    fn push(&mut self, lane: usize, id: u32) {
        let tag = id + 1;
        match self.tail[lane] {
            0 => {
                self.next[id as usize] = tag;
                let w = lane / 64;
                self.live[w] |= 1 << (lane % 64);
                self.summary[w / 64] |= 1 << (w % 64);
            }
            last => {
                self.next[id as usize] = self.next[last as usize - 1];
                self.next[last as usize - 1] = tag;
            }
        }
        self.tail[lane] = tag;
    }
}

/// Simulates store-and-forward routing of messages `ends[id] = (src,
/// dst)` over `topo`: minimal routes by [`MinimalRoute::next_port`], one
/// message per directed link per round, FIFO per link. Hands each round's
/// hops to `each_round`, in send order; a message with `src == dst`
/// makes no hops.
///
/// # Panics
/// If an endpoint is not a node of `topo`, or if there are `u32::MAX`
/// messages or more.
#[track_caller]
pub(crate) fn hop_rounds<G: MinimalRoute>(
    topo: &G,
    ends: &[(u64, u64)],
    mut each_round: impl FnMut(&[Hop]),
) {
    let num = topo.num_nodes() as u64;
    assert!(ends.len() < u32::MAX as usize, "message id space exhausted");
    for &(src, dst) in ends {
        assert!(src < num && dst < num, "block endpoints outside the {}", topo.label());
    }
    let ports = topo.ports() as usize;
    let mut q = Lanes::new(topo.num_nodes() * ports, ends.len());
    let mut in_flight = 0usize;
    for (id, &(src, dst)) in ends.iter().enumerate() {
        if let Some(p) = topo.next_port(src, dst) {
            q.push(src as usize * ports + p as usize, id as u32);
            in_flight += 1;
        }
    }
    let mut commit: Vec<Vec<(u64, u32)>> = vec![Vec::new(); ports];
    let mut hops: Vec<Hop> = Vec::new();
    while in_flight > 0 {
        // Stage: pop the head of every live lane, lanes ascending (nodes
        // ascending, ports ascending per node).
        let Lanes { tail, next, live, summary } = &mut q;
        for (v, sword) in summary.iter_mut().enumerate() {
            let mut ws = *sword;
            while ws != 0 {
                let w = v * 64 + ws.trailing_zeros() as usize;
                ws &= ws - 1;
                let mut bits = live[w];
                while bits != 0 {
                    let lane = w * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    let last = tail[lane];
                    let first = next[last as usize - 1];
                    if first == last {
                        tail[lane] = 0;
                        live[w] &= !(1 << (lane % 64));
                    } else {
                        next[last as usize - 1] = next[first as usize - 1];
                    }
                    commit[lane % ports].push(((lane / ports) as u64, first - 1));
                }
                if live[w] == 0 {
                    *sword &= !(1 << (w % 64));
                }
            }
        }
        // Commit port-major: the send order.
        hops.clear();
        for (p, staged) in commit.iter_mut().enumerate() {
            let port = p as u32;
            hops.extend(staged.drain(..).map(|(src, id)| Hop { src, to: 0, port, id }));
        }
        // Land in send order: retire arrivals, queue the rest on their
        // next port.
        for hop in &mut hops {
            let Hop { src, port, id, .. } = *hop;
            let dst = ends[id as usize].1;
            hop.to = topo.neighbor(src, port).unwrap_or_else(|| {
                panic!("{}: route toward {dst} leaves {src} on unwired port {port}", topo.label())
            });
            match topo.next_port(hop.to, dst) {
                None => in_flight -= 1,
                Some(p) => q.push(hop.to as usize * ports + p as usize, id),
            }
        }
        each_round(&hops);
    }
}

/// Routes all messages to their destinations over `net`'s topology with
/// minimal-path store-and-forward routing, one message per directed
/// link per round (FIFO per link). Returns the blocks received per
/// node, in arrival order; empty messages are dropped and local ones
/// arrive before any round.
///
/// The router replays the `hop_rounds` loop through `net`: each round
/// sends every hop's block, closes the round, and pairs each delivery
/// with its hop. It models independent per-link hardware — run it on a
/// net with [`cubesim::PortMode::AllPorts`]. It is serial, so results
/// and [`cubesim::CommReport`]s do not depend on the thread count.
///
/// # Panics
/// If a message endpoint is not a node of the net's topology.
#[track_caller]
pub fn graph_route<T: Send, G: MinimalRoute>(
    net: &mut SimNet<Block<T>, G>,
    msgs: Vec<RouteMsg<T>>,
) -> Vec<Vec<Block<T>>> {
    // Id-indexed arena (collected in place over `msgs`): a block waits
    // here between hops.
    let mut arena: Vec<Option<Block<T>>> = msgs
        .into_iter()
        .filter(|m| !m.data.is_empty())
        .map(|m| Some(Block::new(m.src, m.dst, m.data)))
        .collect();
    let ends: Vec<(u64, u64)> =
        arena.iter().flatten().map(|b| (b.src.bits(), b.dst.bits())).collect();
    let mut result: Vec<Vec<Block<T>>> = (0..net.num_nodes()).map(|_| Vec::new()).collect();
    // Local messages arrive first. One outside the topology is skipped
    // here and rejected by `hop_rounds` below.
    for (slot, &(src, dst)) in arena.iter_mut().zip(&ends) {
        match result.get_mut(dst as usize) {
            Some(arrived) if src == dst => arrived.extend(slot.take()),
            _ => {}
        }
    }
    let topo = net.topology().clone();
    hop_rounds(&topo, &ends, |round| {
        for hop in round {
            let block = arena[hop.id as usize].take().expect("a block is sent from where it waits");
            net.send(NodeId(hop.src), hop.port, block);
        }
        net.finish_round();
        let mut hops = round.iter();
        net.drain_all_with(|at, _, block| {
            let hop = hops.next().expect("one delivery per hop");
            assert_eq!(
                at.bits(),
                hop.to,
                "delivery does not pair with hop {} --port {}-->",
                hop.src,
                hop.port
            );
            if block.dst == at {
                result[at.index()].push(block);
            } else {
                arena[hop.id as usize] = Some(block);
            }
        });
    });
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use cubesim::{MachineParams, PortMode};
    use cubetopo::{SwappedDragonfly, Topology};

    fn dragonfly_net(k: u32, m: u32) -> SimNet<Block<u64>, SwappedDragonfly> {
        SimNet::on_topology(SwappedDragonfly::new(k, m), MachineParams::unit(PortMode::AllPorts))
    }

    #[test]
    fn dragonfly_single_message_takes_lgl_rounds() {
        let d = SwappedDragonfly::new(2, 4);
        let mut net = dragonfly_net(2, 4);
        // (g=5, r=3) -> (g=2, r=0): gateway of group 2 is router 1, so
        // local (3 -> 1), global (5 -> 2, arriving at router 2), local
        // (2 -> 0): three rounds.
        let src = NodeId(d.node_at(5, 3));
        let dst = NodeId(d.node_at(2, 0));
        let out = graph_route(&mut net, vec![RouteMsg { src, dst, data: vec![7u64, 8] }]);
        assert_eq!(out[dst.index()], vec![Block::new(src, dst, vec![7, 8])]);
        let r = net.finalize();
        assert_eq!(r.rounds, 3);
    }

    #[test]
    fn dragonfly_all_to_all_delivers() {
        let d = SwappedDragonfly::new(2, 3);
        let num = d.num_nodes();
        let msgs: Vec<RouteMsg<u64>> = (0..num as u64)
            .flat_map(|s| {
                (0..num as u64).filter(move |&t| t != s).map(move |t| RouteMsg {
                    src: NodeId(s),
                    dst: NodeId(t),
                    data: vec![s * 1000 + t],
                })
            })
            .collect();
        let mut net = dragonfly_net(2, 3);
        let out = graph_route(&mut net, msgs);
        for (t, blks) in out.iter().enumerate() {
            assert_eq!(blks.len(), num - 1, "node {t}");
            for b in blks {
                assert_eq!(b.data, vec![b.src.bits() * 1000 + t as u64]);
            }
        }
        net.finalize();
    }

    #[test]
    fn dragonfly_gateway_contention_serializes() {
        // Two messages injected at group 1's gateway (router 1 of group
        // 0 when K = 1) bound for different routers of group 1: both
        // queue on the single global link, so the second crosses a round
        // late and still needs its intra hop after arrival.
        let d = SwappedDragonfly::new(1, 3);
        let mut net = dragonfly_net(1, 3);
        let gw = NodeId(d.node_at(0, 1));
        let msgs = vec![
            RouteMsg { src: gw, dst: NodeId(d.node_at(1, 0)), data: vec![1u64] },
            RouteMsg { src: gw, dst: NodeId(d.node_at(1, 2)), data: vec![2] },
        ];
        let out = graph_route(&mut net, msgs);
        assert_eq!(out[d.node_at(1, 0) as usize].len(), 1);
        assert_eq!(out[d.node_at(1, 2) as usize].len(), 1);
        let r = net.finalize();
        // Round 1: first message crosses (arriving at router 0, its
        // destination). Round 2: second crosses. Round 3: its intra hop.
        assert_eq!(r.rounds, 3);
    }

    #[test]
    fn local_and_empty_messages_short_circuit() {
        let mut net = dragonfly_net(2, 2);
        let out = graph_route(
            &mut net,
            vec![
                RouteMsg { src: NodeId(3), dst: NodeId(3), data: vec![5u64] },
                RouteMsg { src: NodeId(0), dst: NodeId(7), data: Vec::new() },
            ],
        );
        assert_eq!(out[3].len(), 1);
        assert_eq!(out[7].len(), 0);
        assert_eq!(net.finalize().rounds, 0);
    }

    #[test]
    fn hypercube_net_runs_the_graph_router_too() {
        let mut net: SimNet<Block<u64>> = SimNet::new(3, MachineParams::unit(PortMode::AllPorts));
        let out = graph_route(
            &mut net,
            vec![RouteMsg { src: NodeId(0), dst: NodeId(0b101), data: vec![9u64] }],
        );
        assert_eq!(out[0b101].len(), 1);
        assert_eq!(net.finalize().rounds, 2);
    }

    #[test]
    #[should_panic(expected = "outside the")]
    fn out_of_range_endpoint_panics_on_dragonfly() {
        let mut net = dragonfly_net(2, 2);
        let _ = graph_route(
            &mut net,
            vec![RouteMsg { src: NodeId(0), dst: NodeId(8), data: vec![1u64] }],
        );
    }

    #[test]
    #[should_panic(expected = "outside the")]
    fn out_of_range_endpoint_panics_on_hypercube() {
        let mut net: SimNet<Block<u64>> = SimNet::new(3, MachineParams::unit(PortMode::AllPorts));
        let _ = graph_route(
            &mut net,
            vec![RouteMsg { src: NodeId(8), dst: NodeId(1), data: vec![1u64] }],
        );
    }
}
