//! The three workloads. Each op is one pass over a fixed case list;
//! inputs are generated from the seed at set-up, outputs are checked
//! after the op's clock has stopped.

use crate::trace::Tracer;
use cubeaddr::NodeId;
use cubecheck::{lower, rules::check_all};
use cubecomm::ecube::{ecube_route, RouteMsg};
use cubecomm::exchange::exchange_over_dims;
use cubecomm::graph::graph_route;
use cubecomm::plan::{ecube_route_plan, ecube_route_plan_cached, CommSchedule, PlanCache};
use cubecomm::sbnt::all_to_all_sbnt;
use cubecomm::{Block, BlockMsg, BufferPolicy};
use cubelayout::{Assignment, Direction, DistMatrix, Encoding, Layout, TransposeSpec};
use cuberun::RunStats;
use cubesim::{CommReport, MachineParams, PortMode, SimNet};
use cubetopo::{TopoSpec, Topology};
use cubetranspose::driver::{self, Choice};
use cubetranspose::one_dim::{assemble, spec_blocks, Routed};
use cubetranspose::spmd::{spmd_transpose_exchange, spmd_transpose_spt};
use cubetranspose::two_dim::{tr, transpose_mpt, transpose_spt_stepwise, Packet};
use std::sync::Arc;

/// Input scale: `Full` is the benchmark; `Tiny` keeps the same code
/// paths on toy shapes for the benchmark's own tests.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Size {
    Full,
    Tiny,
}

/// What an op returns: its data plus the simulator and runtime
/// reports that must repeat exactly across ops, thread counts and seeds
/// (`RunStats::messages` only — the scheduler counters depend on timing).
pub struct OpResult<D> {
    pub data: D,
    pub reports: Vec<CommReport>,
    pub stats: Vec<RunStats>,
}

impl<D> OpResult<D> {
    pub fn invariants(&self) -> (Vec<CommReport>, Vec<u64>) {
        (self.reports.clone(), self.stats.iter().map(|s| s.messages).collect())
    }
}

pub trait Workload: Sized {
    /// Per-op inputs the op consumes (cloned before the clock starts).
    type Input;
    type Data;
    fn setup(seed: u64, size: Size) -> Result<Self, String>;
    /// Matrix or payload elements one op moves.
    fn elems_per_op(&self) -> u64;
    /// Bytes of inputs, expected outputs and one op's outputs.
    fn working_set_bytes(&self) -> u64;
    /// Bytes of one element on the simulated wire.
    fn elem_bytes(&self) -> u64;
    fn prepare(&self) -> Self::Input;
    fn run(&self, input: Self::Input, tr: &mut Tracer) -> OpResult<Self::Data>;
    /// The per-op output check.
    fn check(&self, out: &OpResult<Self::Data>) -> Result<(), String>;
    /// Slower literal checks, run once per process on the second-seed op.
    fn check_once(&self, out: &OpResult<Self::Data>) -> Result<(), String>;
    /// Damages one output element (the benchmark's self-test).
    fn corrupt(out: &mut OpResult<Self::Data>);
    /// Traced-run extras recorded after a traced op, outside its span.
    fn after_traced_op(&self, _out: &OpResult<Self::Data>, _tr: &mut Tracer) -> Result<(), String> {
        Ok(())
    }
    /// Traced-run counters that only this workload has.
    fn extra_metrics(&self) -> Vec<(&'static str, f64)> {
        Vec::new()
    }
}

/// SplitMix64: the seeded source of every matrix and payload value.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// A seeded dense `2^p × 2^q` row-major matrix.
struct Dense<T> {
    p: u32,
    q: u32,
    a: Vec<T>,
}

impl<T: Copy + Default + PartialEq + std::fmt::Debug> Dense<T> {
    fn new(p: u32, q: u32, rng: &mut Rng, f: impl Fn(u64) -> T) -> Self {
        Dense { p, q, a: (0..1usize << (p + q)).map(|_| f(rng.next())).collect() }
    }
    fn cols(&self) -> usize {
        1 << self.q
    }
    fn distribute(&self, layout: Layout) -> DistMatrix<T> {
        DistMatrix::from_fn(layout, |u, v| self.a[u as usize * self.cols() + v as usize])
    }
    /// The transpose placed by `after` (a layout of `A^T`).
    fn expected(&self, after: Layout) -> DistMatrix<T> {
        DistMatrix::from_fn(after, |u, v| self.a[v as usize * self.cols() + u as usize])
    }
    /// Compares `out.gather()` with a naive dense transpose, element by
    /// element.
    fn check_gathered(&self, out: &DistMatrix<T>) -> Result<(), String> {
        let (rows, cols) = (1usize << self.p, 1usize << self.q);
        let got = out.gather();
        if got.len() != cols || got.iter().any(|r| r.len() != rows) {
            return Err(format!("gathered shape is not {cols} x {rows}"));
        }
        for (i, row) in got.iter().enumerate() {
            for (j, &g) in row.iter().enumerate() {
                let want = self.a[j * cols + i];
                if g != want {
                    return Err(format!("gathered ({i}, {j}) is {g:?}, expected {want:?}"));
                }
            }
        }
        Ok(())
    }
}

fn flip<T: Copy>(m: &mut DistMatrix<T>, f: impl Fn(T) -> T) {
    let cell = &mut m.node_mut(NodeId(0))[0];
    *cell = f(*cell);
}

// --- ipsc-driver ---------------------------------------------------------

struct Case {
    before: Layout,
    after: Layout,
    params: MachineParams,
    choice: Choice,
    m: DistMatrix<u64>,
    expected: DistMatrix<u64>,
}

/// `driver::execute` on the iPSC model over four §9 cases.
pub struct IpscDriver {
    dense: Dense<u64>,
    cases: Vec<Case>,
}

impl IpscDriver {
    /// The decomposition of `driver::execute` into its public pieces,
    /// each inside a span. Must match `execute` byte for byte.
    fn traced_case(c: &Case, tr: &mut Tracer) -> (DistMatrix<u64>, Choice, CommReport) {
        let (m, after, params) = (&c.m, &c.after, &c.params);
        let choice = tr.span("driver.plan", |_| driver::plan(m.layout(), after, params));
        let n = m.layout().n().max(after.n());
        match choice {
            Choice::SptStepwise => {
                let mut net: SimNet<Packet<u64>> =
                    SimNet::new(n, params.clone().with_ports(PortMode::AllPorts));
                let out =
                    tr.span("two_dim.spt_stepwise", |_| transpose_spt_stepwise(m, after, &mut net));
                (out, choice, net.finalize())
            }
            Choice::Mpt { k } => {
                let mut net: SimNet<Packet<u64>> = SimNet::new(n, params.clone());
                let out = tr.span("two_dim.mpt", |_| transpose_mpt(m, after, &mut net, k));
                (out, choice, net.finalize())
            }
            Choice::ExchangeBuffered { min_direct } => {
                let mut net: SimNet<BlockMsg<Routed<u64>>> = SimNet::new(n, params.clone());
                let spec = TransposeSpec::with_after(m.layout().clone(), after.clone());
                let blocks = tr.span("one_dim.spec_blocks", |_| spec_blocks(&spec, m));
                let held: Vec<Vec<Block<Routed<u64>>>> = blocks
                    .into_iter()
                    .enumerate()
                    .map(|(s, per_dst)| {
                        per_dst
                            .into_iter()
                            .enumerate()
                            .filter(|(_, data)| !data.is_empty())
                            .map(|(d, data)| Block::new(NodeId(s as u64), NodeId(d as u64), data))
                            .collect()
                    })
                    .collect();
                let diff =
                    held.iter().flatten().fold(0u64, |acc, b| acc | (b.src.bits() ^ b.dst.bits()));
                let dims: Vec<u32> = (0..n).rev().filter(|&d| (diff >> d) & 1 == 1).collect();
                let policy = BufferPolicy::Buffered { min_direct };
                let result = tr.span("exchange.over_dims", |_| {
                    exchange_over_dims(&mut net, held, &dims, policy)
                });
                let out = tr.span("one_dim.assemble", |_| assemble(after, result));
                (out, choice, net.finalize())
            }
            Choice::Sbnt => {
                let mut net: SimNet<BlockMsg<Routed<u64>>> = SimNet::new(n, params.clone());
                let spec = TransposeSpec::with_after(m.layout().clone(), after.clone());
                let blocks = tr.span("one_dim.spec_blocks", |_| spec_blocks(&spec, m));
                let result = tr.span("sbnt.all_to_all", |_| all_to_all_sbnt(&mut net, blocks));
                let out = tr.span("one_dim.assemble", |_| assemble(after, result));
                (out, choice, net.finalize())
            }
            Choice::Local => driver::execute(m, after, params),
        }
    }
}

impl Workload for IpscDriver {
    type Input = ();
    type Data = Vec<(DistMatrix<u64>, Choice)>;

    fn setup(seed: u64, size: Size) -> Result<Self, String> {
        // 2^8 x 2^8 over a 6-cube; the tiny shape is 2^4 x 2^4 over a 4-cube.
        let (p, half, n) = match size {
            Size::Full => (8, 3, 6),
            Size::Tiny => (4, 2, 4),
        };
        let dense = Dense::new(p, p, &mut Rng::new(seed), |x| x);
        let one = MachineParams::intel_ipsc();
        let all = one.clone().with_ports(PortMode::AllPorts);
        let two_dim = Layout::square(p, p, half, Assignment::Consecutive, Encoding::Binary);
        let rows =
            Layout::one_dim(p, p, Direction::Rows, n, Assignment::Consecutive, Encoding::Binary);
        let specs = [
            (two_dim.clone(), one.clone()),
            (two_dim, all.clone()),
            (rows.clone(), one),
            (rows, all),
        ];
        let mut cases = Vec::new();
        for (before, params) in specs {
            let after = before.swapped_shape();
            let choice = driver::plan(&before, &after, &params);
            cases.push(Case {
                m: dense.distribute(before.clone()),
                expected: dense.expected(after.clone()),
                before,
                after,
                params,
                choice,
            });
        }
        let picked: Vec<Choice> = cases.iter().map(|c| c.choice).collect();
        let want_shape = matches!(
            picked.as_slice(),
            [
                Choice::SptStepwise,
                Choice::Mpt { .. },
                Choice::ExchangeBuffered { .. },
                Choice::Sbnt
            ]
        );
        if !want_shape {
            return Err(format!("driver::plan picked {picked:?}, not SPT/MPT/exchange/SBnT"));
        }
        Ok(IpscDriver { dense, cases })
    }

    fn elems_per_op(&self) -> u64 {
        self.cases
            .iter()
            .map(|c| c.before.num_nodes() as u64 * c.before.elems_per_node() as u64)
            .sum()
    }

    fn working_set_bytes(&self) -> u64 {
        3 * self.elems_per_op() * 8
    }

    fn elem_bytes(&self) -> u64 {
        8
    }

    fn prepare(&self) {}

    fn run(&self, (): (), tr: &mut Tracer) -> OpResult<Self::Data> {
        let mut data = Vec::new();
        let mut reports = Vec::new();
        for c in &self.cases {
            let (out, choice, report) = if tr.is_on() {
                Self::traced_case(c, tr)
            } else {
                driver::execute(&c.m, &c.after, &c.params)
            };
            data.push((out, choice));
            reports.push(report);
        }
        OpResult { data, reports, stats: Vec::new() }
    }

    fn check(&self, out: &OpResult<Self::Data>) -> Result<(), String> {
        for (i, (c, (m, choice))) in self.cases.iter().zip(&out.data).enumerate() {
            if *choice != c.choice {
                return Err(format!("case {i}: chose {choice:?}, expected {:?}", c.choice));
            }
            if *m != c.expected {
                return Err(format!("case {i} ({choice:?}): output is not the transpose"));
            }
        }
        Ok(())
    }

    fn check_once(&self, out: &OpResult<Self::Data>) -> Result<(), String> {
        out.data.iter().try_for_each(|(m, _)| self.dense.check_gathered(m))
    }

    fn corrupt(out: &mut OpResult<Self::Data>) {
        flip(&mut out.data[0].0, |x| x ^ 1);
    }
}

// --- route-plan ----------------------------------------------------------

pub struct RoutePlanData {
    ecube: Vec<Vec<Block<u64>>>,
    graph: Vec<Vec<Block<u64>>>,
    plan: CommSchedule,
    cached: Arc<CommSchedule>,
}

/// The CM node-permutation transpose through the e-cube router, the
/// Dragonfly all-to-all through the graph router, and a cold and a warm
/// plan of the e-cube traffic.
pub struct RoutePlan {
    n: u32,
    cm: MachineParams,
    /// `ecube_payload[x]`: the elements node `x` sends to `tr(x)`.
    ecube_payload: Vec<Vec<u64>>,
    ecube_msgs: Vec<RouteMsg<u64>>,
    topo: TopoSpec,
    df_params: MachineParams,
    /// `df_payload[s * num + t]`: the element `s` sends to `t`.
    df_payload: Vec<u64>,
    df_msgs: Vec<RouteMsg<u64>>,
    plan_msgs: Vec<(NodeId, NodeId, u64)>,
    reference_plan: CommSchedule,
    cache: PlanCache,
}

impl Workload for RoutePlan {
    type Input = (Vec<RouteMsg<u64>>, Vec<RouteMsg<u64>>);
    type Data = RoutePlanData;

    fn setup(seed: u64, size: Size) -> Result<Self, String> {
        // FIG16-18 traffic at n=14 and Draper's D3(4,8) (256 nodes).
        let (n, k, m) = match size {
            Size::Full => (14u32, 4, 8),
            Size::Tiny => (6, 2, 3),
        };
        const ELEMS: usize = 4;
        let mut rng = Rng::new(seed);
        let half = n / 2;
        let ecube_payload: Vec<Vec<u64>> =
            (0..1u64 << n).map(|_| (0..ELEMS).map(|_| rng.next()).collect()).collect();
        let movers = (0..1u64 << n).filter(|&x| tr(x, half) != x);
        let ecube_msgs: Vec<RouteMsg<u64>> = movers
            .map(|x| RouteMsg {
                src: NodeId(x),
                dst: NodeId(tr(x, half)),
                data: ecube_payload[x as usize].clone(),
            })
            .collect();
        let plan_msgs: Vec<(NodeId, NodeId, u64)> =
            ecube_msgs.iter().map(|m| (m.src, m.dst, m.data.len() as u64)).collect();

        let topo = TopoSpec::dragonfly(k, m);
        let num = topo.num_nodes() as u64;
        let df_payload: Vec<u64> = (0..num * num).map(|_| rng.next()).collect();
        let df_msgs: Vec<RouteMsg<u64>> = (0..num)
            .flat_map(|s| (0..num).filter(move |&t| t != s).map(move |t| (s, t)))
            .map(|(s, t)| RouteMsg {
                src: NodeId(s),
                dst: NodeId(t),
                data: vec![df_payload[(s * num + t) as usize]],
            })
            .collect();

        // The plan cache is written once here; every op reads it.
        let reference_plan = ecube_route_plan(n, &plan_msgs);
        let cache = PlanCache::new(4);
        ecube_route_plan_cached(&cache, n, &plan_msgs);
        Ok(RoutePlan {
            n,
            cm: MachineParams::connection_machine(),
            ecube_payload,
            ecube_msgs,
            topo,
            df_params: MachineParams::intel_ipsc().with_ports(PortMode::AllPorts),
            df_payload,
            df_msgs,
            plan_msgs,
            reference_plan,
            cache,
        })
    }

    fn elems_per_op(&self) -> u64 {
        let payload =
            |msgs: &[RouteMsg<u64>]| msgs.iter().map(|m| m.data.len() as u64).sum::<u64>();
        payload(&self.ecube_msgs) + payload(&self.df_msgs)
    }

    fn working_set_bytes(&self) -> u64 {
        // Payloads live in input and output; block headers add 48 bytes
        // (src, dst, Vec) per message on each side.
        let msgs = (self.ecube_msgs.len() + self.df_msgs.len()) as u64;
        2 * (self.elems_per_op() * 8 + msgs * 48)
    }

    fn elem_bytes(&self) -> u64 {
        8
    }

    fn prepare(&self) -> Self::Input {
        (self.ecube_msgs.clone(), self.df_msgs.clone())
    }

    fn run(&self, (ecube_msgs, df_msgs): Self::Input, tr: &mut Tracer) -> OpResult<RoutePlanData> {
        let mut net: SimNet<Block<u64>> = SimNet::new(self.n, self.cm.clone());
        let ecube = tr.span("ecube.route", |_| ecube_route(&mut net, ecube_msgs));
        let ecube_report = net.finalize();
        let mut net: SimNet<Block<u64>, TopoSpec> =
            SimNet::on_topology(self.topo, self.df_params.clone());
        let graph = tr.span("graph.route", |_| graph_route(&mut net, df_msgs));
        let graph_report = net.finalize();
        let plan = tr.span("plan.ecube_route_plan", |_| ecube_route_plan(self.n, &self.plan_msgs));
        let cached = tr.span("plan.cache_get", |_| {
            ecube_route_plan_cached(&self.cache, self.n, &self.plan_msgs)
        });
        OpResult {
            data: RoutePlanData { ecube, graph, plan, cached },
            reports: vec![ecube_report, graph_report],
            stats: Vec::new(),
        }
    }

    fn check(&self, out: &OpResult<RoutePlanData>) -> Result<(), String> {
        let d = &out.data;
        let half = self.n / 2;
        for (x, arrived) in d.ecube.iter().enumerate() {
            let x = x as u64;
            let want = usize::from(tr(x, half) != x);
            if arrived.len() != want {
                return Err(format!(
                    "e-cube: node {x} received {} blocks, expected {want}",
                    arrived.len()
                ));
            }
            for b in arrived {
                let src = b.src.bits();
                if b.dst.bits() != x
                    || tr(src, half) != x
                    || b.data != self.ecube_payload[src as usize]
                {
                    return Err(format!(
                        "e-cube: block {src}->{} misrouted or damaged at {x}",
                        b.dst
                    ));
                }
            }
        }
        let num = self.topo.num_nodes();
        for (t, arrived) in d.graph.iter().enumerate() {
            let mut seen = vec![false; num];
            for b in arrived {
                let s = b.src.index();
                let want = self.df_payload[s * num + t];
                if b.dst.index() != t || s == t || seen[s] || b.data != [want] {
                    return Err(format!(
                        "dragonfly: block {s}->{} misrouted or damaged at {t}",
                        b.dst
                    ));
                }
                seen[s] = true;
            }
            if arrived.len() != num - 1 {
                return Err(format!(
                    "dragonfly: node {t} received {} of {} blocks",
                    arrived.len(),
                    num - 1
                ));
            }
        }
        if d.plan != self.reference_plan {
            return Err("cold e-cube plan differs from the set-up build".into());
        }
        if *d.cached != self.reference_plan {
            return Err("cached e-cube plan differs from the cold build".into());
        }
        Ok(())
    }

    fn check_once(&self, out: &OpResult<RoutePlanData>) -> Result<(), String> {
        let diags = check_all(&lower(&out.data.plan, &self.cm), &self.cm);
        match diags.first() {
            None => Ok(()),
            Some(d) => Err(format!("cubecheck: {} diagnostics, first: {d:?}", diags.len())),
        }
    }

    fn corrupt(out: &mut OpResult<RoutePlanData>) {
        let b = out.data.ecube.iter_mut().flatten().next().expect("e-cube delivered nothing");
        b.data[0] ^= 1;
    }

    fn extra_metrics(&self) -> Vec<(&'static str, f64)> {
        let s = self.cache.stats();
        vec![("plan.cache_hit_ratio", s.hits as f64 / (s.hits + s.misses).max(1) as f64)]
    }
}

// --- spmd-runtime --------------------------------------------------------

/// The exchange transpose on 4,096 virtual nodes (one element each)
/// and the SPT transpose of a 2^11 x 2^11 matrix on 64 nodes.
pub struct Spmd {
    ex_dense: Dense<u32>,
    ex_m: DistMatrix<u32>,
    ex_after: Layout,
    ex_expected: DistMatrix<u32>,
    spt_dense: Dense<u32>,
    spt_m: DistMatrix<u32>,
    spt_after: Layout,
    spt_expected: DistMatrix<u32>,
}

impl Workload for Spmd {
    type Input = ();
    type Data = (DistMatrix<u32>, DistMatrix<u32>);

    fn setup(seed: u64, size: Size) -> Result<Self, String> {
        let ((ex_p, ex_half), (spt_p, spt_half)) = match size {
            Size::Full => ((6, 6), (11, 3)),
            Size::Tiny => ((2, 2), (4, 1)),
        };
        let mut rng = Rng::new(seed);
        let low32 = |x: u64| x as u32;
        let ex_dense = Dense::new(ex_p, ex_p, &mut rng, low32);
        let ex_before =
            Layout::square(ex_p, ex_p, ex_half, Assignment::Consecutive, Encoding::Binary);
        let spt_dense = Dense::new(spt_p, spt_p, &mut rng, low32);
        let spt_before =
            Layout::square(spt_p, spt_p, spt_half, Assignment::Consecutive, Encoding::Binary);
        let (ex_after, spt_after) = (ex_before.swapped_shape(), spt_before.swapped_shape());
        Ok(Spmd {
            ex_m: ex_dense.distribute(ex_before),
            ex_expected: ex_dense.expected(ex_after.clone()),
            ex_after,
            ex_dense,
            spt_m: spt_dense.distribute(spt_before),
            spt_expected: spt_dense.expected(spt_after.clone()),
            spt_after,
            spt_dense,
        })
    }

    fn elems_per_op(&self) -> u64 {
        (self.ex_dense.a.len() + self.spt_dense.a.len()) as u64
    }

    fn working_set_bytes(&self) -> u64 {
        // Input, expected, the runtime's per-node copy, and the output.
        4 * self.elems_per_op() * 4
    }

    fn elem_bytes(&self) -> u64 {
        4
    }

    fn prepare(&self) {}

    fn run(&self, (): (), tr: &mut Tracer) -> OpResult<Self::Data> {
        let (ex, ex_stats) =
            tr.span("spmd.exchange", |_| spmd_transpose_exchange(&self.ex_m, &self.ex_after));
        let (spt, spt_stats) =
            tr.span("spmd.spt", |_| spmd_transpose_spt(&self.spt_m, &self.spt_after));
        OpResult { data: (ex, spt), reports: Vec::new(), stats: vec![ex_stats, spt_stats] }
    }

    fn check(&self, out: &OpResult<Self::Data>) -> Result<(), String> {
        if out.data.0 != self.ex_expected {
            return Err("SPMD exchange output is not the transpose".into());
        }
        if out.data.1 != self.spt_expected {
            return Err("SPMD SPT output is not the transpose".into());
        }
        Ok(())
    }

    fn check_once(&self, out: &OpResult<Self::Data>) -> Result<(), String> {
        self.ex_dense.check_gathered(&out.data.0)?;
        self.spt_dense.check_gathered(&out.data.1)
    }

    fn corrupt(out: &mut OpResult<Self::Data>) {
        flip(&mut out.data.1, |x| x ^ 1);
    }

    fn extra_metrics(&self) -> Vec<(&'static str, f64)> {
        // One read and one write of every element of the node arrays.
        vec![("inplace.bytes_computed", 2.0 * self.spt_dense.a.len() as f64 * 4.0)]
    }

    /// Replays the SPT's per-node `inplace::transpose_serial` calls on
    /// copies of the node arrays: node `tr(x)` transposes `x`'s array.
    fn after_traced_op(
        &self,
        _out: &OpResult<Self::Data>,
        tracer: &mut Tracer,
    ) -> Result<(), String> {
        let layout = self.spt_m.layout();
        let (lr, lc) = (layout.local_rows(), layout.local_cols());
        let half = layout.n() / 2;
        let mut arrays: Vec<Vec<u32>> =
            (0..layout.num_nodes() as u64).map(|x| self.spt_m.node(NodeId(x)).to_vec()).collect();
        tracer.span("inplace.transpose_serial", |_| {
            for a in &mut arrays {
                cubetranspose::inplace::transpose_serial(a, lr, lc);
            }
        });
        for (x, a) in arrays.iter().enumerate() {
            let dst = NodeId(tr(x as u64, half));
            if a.as_slice() != self.spt_expected.node(dst) {
                return Err(format!("in-place replay of node {x}'s array differs from node {dst}"));
            }
        }
        Ok(())
    }
}
