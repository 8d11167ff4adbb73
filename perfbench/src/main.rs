//! End-to-end and per-layer benchmark of the transpose stack.
//!
//! ```text
//! perfbench --workload <ipsc-driver|route-plan|spmd-runtime> --seed N --seconds S --trace 0|1
//!           [--size full|tiny] [--corrupt]
//! ```
//!
//! One op is one pass over the workload's case list, run in a closed
//! loop by this process. `--trace 0` alternates ops at the default
//! thread count (`nproc`) with ops pinned to one thread and prints the
//! end-to-end metrics; `--trace 1` alternates untraced ops with traced
//! ones and prints the per-layer metrics, writing the spans as Chrome
//! Trace Event JSON. Every op's output is checked after its clock
//! stops; the last stdout line is the result object.

mod host;
mod trace;
mod workloads;

use cubesim::CommReport;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::{Duration, Instant};
use trace::Tracer;
use workloads::{IpscDriver, OpResult, RoutePlan, Size, Spmd, Workload};

/// Timed ops per mode in a `--trace 0` run: the p90 needs ten samples
/// above it.
const MIN_TIMED_OPS: usize = 100;
/// Traced ops in a `--trace 1` run.
const MIN_TRACED_OPS: usize = 20;
/// Set-ups per run, spread evenly over the run's time; `setup_s` is
/// their median.
const SETUPS: usize = 30;
/// Hard stop for the timed loop, well inside the 180 s a run may take.
const MAX_LOOP: Duration = Duration::from_secs(120);
/// Variables that would silently re-pin the thread counts or the local
/// kernel choice under the benchmark.
const REFUSED_ENV: [&str; 3] = ["CUBEBENCH_THREADS", "CUBERUN_WORKERS", "CUBEBENCH_INPLACE_MIN"];

const IPSC: u8 = 1;
const ROUTE: u8 = 2;
const SPMD: u8 = 4;
const ALL: u8 = IPSC | ROUTE | SPMD;

/// The `--trace 0` metrics, in output order. Op times are p90s: on a
/// shared host, ops run in a fast mode broken by slow episodes at about
/// 1.3x, and whole runs can fall into the slow mode, so the median jumps
/// between the modes from run to run while the p90 sits in the slow mode
/// nearly every time. The medians and the one-thread figures, which
/// spread wider still, go to the metadata line.
const END_TO_END: [(&str, &str); 4] =
    [("op_ms.p90", "ms"), ("melems_per_s", "Melem/s"), ("setup_s", "s"), ("peak_rss_mib", "MiB")];

/// The `--trace 1` metrics: name, unit, and the workloads it applies
/// to. On the others it prints 0 and is listed as not applicable.
const PER_LAYER: [(&str, &str, u8); 37] = [
    ("driver.plan_us", "us", IPSC),
    ("one_dim.spec_blocks_ms", "ms", IPSC),
    ("exchange.over_dims_ms", "ms", IPSC),
    ("sbnt.all_to_all_ms", "ms", IPSC),
    ("one_dim.assemble_ms", "ms", IPSC),
    ("two_dim.spt_stepwise_ms", "ms", IPSC),
    ("two_dim.mpt_ms", "ms", IPSC),
    ("modeled_s", "model-s", IPSC | ROUTE),
    ("simnet.rounds", "count", IPSC | ROUTE),
    ("simnet.messages", "count", IPSC | ROUTE),
    ("simnet.elems", "count", IPSC | ROUTE),
    ("simnet.max_link_elems", "count", IPSC | ROUTE),
    ("simnet.critical_startups", "count", IPSC | ROUTE),
    ("simnet.bytes_computed", "B", IPSC | ROUTE),
    ("model.startup_s", "model-s", IPSC | ROUTE),
    ("model.transfer_s", "model-s", IPSC | ROUTE),
    ("model.copy_s", "model-s", IPSC | ROUTE),
    ("ecube.route_ms", "ms", ROUTE),
    ("graph.route_ms", "ms", ROUTE),
    ("plan.ecube_route_plan_ms", "ms", ROUTE),
    ("plan.cache_get_us", "us", ROUTE),
    ("plan.cache_hit_ratio", "ratio", ROUTE),
    ("par.call_overhead_us", "us", ALL),
    ("par.calls_computed", "count", ROUTE),
    ("spmd.exchange_ms", "ms", SPMD),
    ("spmd.spt_ms", "ms", SPMD),
    ("cuberun.messages", "count", SPMD),
    ("cuberun.parks", "count", SPMD),
    ("cuberun.wakes", "count", SPMD),
    ("cuberun.steals", "count", SPMD),
    ("cuberun.parks_per_msg", "ratio", SPMD),
    ("cuberun.peak_live", "count", SPMD),
    ("inplace.transpose_serial_ms", "ms", SPMD),
    ("inplace.bytes_computed", "B", SPMD),
    ("op_ms_traced.p90", "ms", ALL),
    ("trace.overhead_ms", "ms", ALL),
    ("fail_ratio", "ratio", ALL),
];

/// Span name → per-layer metric and its scale from nanoseconds.
const SPAN_METRICS: [(&str, &str, f64); 14] = [
    ("driver.plan", "driver.plan_us", 1e-3),
    ("one_dim.spec_blocks", "one_dim.spec_blocks_ms", 1e-6),
    ("exchange.over_dims", "exchange.over_dims_ms", 1e-6),
    ("sbnt.all_to_all", "sbnt.all_to_all_ms", 1e-6),
    ("one_dim.assemble", "one_dim.assemble_ms", 1e-6),
    ("two_dim.spt_stepwise", "two_dim.spt_stepwise_ms", 1e-6),
    ("two_dim.mpt", "two_dim.mpt_ms", 1e-6),
    ("ecube.route", "ecube.route_ms", 1e-6),
    ("graph.route", "graph.route_ms", 1e-6),
    ("plan.ecube_route_plan", "plan.ecube_route_plan_ms", 1e-6),
    ("plan.cache_get", "plan.cache_get_us", 1e-3),
    ("spmd.exchange", "spmd.exchange_ms", 1e-6),
    ("spmd.spt", "spmd.spt_ms", 1e-6),
    ("inplace.transpose_serial", "inplace.transpose_serial_ms", 1e-6),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
    corrupt: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        size: Size::Full,
        corrupt: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--corrupt" {
            args.corrupt = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => {
                args.seed = value.parse().map_err(|_| bad("expected an unsigned integer"))?
            }
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("expected a number"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err(bad("expected 0 < seconds <= 60"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            "--size" => {
                args.size = match value.as_str() {
                    "full" => Size::Full,
                    "tiny" => Size::Tiny,
                    _ => return Err(bad("expected full or tiny")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Untraced, at the default thread count.
    Default,
    /// Untraced, pinned to one thread and one worker.
    OneThread,
    /// Traced, at the default thread count.
    Traced,
}

/// Failure accounting and the exact-repeat reference shared by every
/// op of a run.
struct Ctx {
    nproc: usize,
    corrupt: bool,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    reference: Option<(Vec<CommReport>, Vec<u64>)>,
    tracer: Tracer,
    next_op: u64,
}

impl Ctx {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(what);
        }
    }

    /// Runs one op in `mode`; returns its host time in ms (timing only
    /// the op itself) and its output if every check passed.
    fn op<W: Workload>(&mut self, w: &W, mode: Mode) -> (f64, Option<OpResult<W::Data>>) {
        let input = w.prepare();
        let threads = if mode == Mode::OneThread { 1 } else { self.nproc };
        let mut off = Tracer::new(false);
        let tracer = if mode == Mode::Traced { &mut self.tracer } else { &mut off };
        tracer.set_op(self.next_op);
        self.next_op += 1;
        let start = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| {
            cubesim::par::with_threads(threads, || {
                cuberun::with_workers(threads, || tracer.span("op", |t| w.run(input, t)))
            })
        }));
        let ms = start.elapsed().as_secs_f64() * 1e3;
        tracer.close_open();
        self.attempted += 1;
        let mut out = match result {
            Ok(out) => out,
            Err(panic) => {
                let msg = panic
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_default();
                self.fail(format!("op panicked: {msg}"));
                return (ms, None);
            }
        };
        if self.corrupt {
            W::corrupt(&mut out);
        }
        if let Err(e) = w.check(&out) {
            self.fail(e);
            return (ms, None);
        }
        let inv = out.invariants();
        match &self.reference {
            None => self.reference = Some(inv),
            Some(r) if *r != inv => {
                self.fail("CommReports or message counts differ from the first op".into());
                return (ms, None);
            }
            Some(_) => {}
        }
        (ms, Some(out))
    }
}

/// Sorted-sample quantile with linear interpolation between ranks.
fn quantile(samples: &[f64], q: f64) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return f64::NAN;
    }
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

struct Outcome {
    metrics: Vec<(&'static str, f64, &'static str)>,
    meta: Vec<(&'static str, String)>,
    ctx: Ctx,
}

fn bench<W: Workload>(args: &Args, mask: u8) -> Result<Outcome, String> {
    let nproc = host::nproc();
    let mut ctx = Ctx {
        nproc,
        corrupt: args.corrupt,
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
        reference: None,
        tracer: Tracer::new(args.trace),
        next_op: 0,
    };

    // Set-up: generate the inputs from the seed and warm up once per
    // thread mode. The run sets up again at even steps of its time, so
    // that set-ups meet the host in the same states the ops do; each
    // new set-up replaces the old one.
    let mut setup_s = Vec::new();
    let mut set_up = |ctx: &mut Ctx| -> Result<W, String> {
        let start = Instant::now();
        let built = W::setup(args.seed, args.size)?;
        let generated = start.elapsed().as_secs_f64();
        let (warm_ms, _) = ctx.op(&built, Mode::Default);
        let (warm1_ms, _) = ctx.op(&built, Mode::OneThread);
        setup_s.push(generated + (warm_ms + warm1_ms) / 1e3);
        Ok(built)
    };
    let mut w = set_up(&mut ctx)?;

    let modes =
        if args.trace { [Mode::Default, Mode::Traced] } else { [Mode::Default, Mode::OneThread] };
    let min_ops = if args.trace { MIN_TRACED_OPS } else { MIN_TIMED_OPS };
    let mut samples: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let mut parks_wakes_steals: Vec<[f64; 4]> = Vec::new();
    let start = Instant::now();
    let budget = Duration::from_secs_f64(args.seconds);
    let mut round = 0usize;
    let mut setups_done = 1;
    while (start.elapsed() < budget || round < min_ops) && start.elapsed() < MAX_LOOP {
        let due = budget.mul_f64(setups_done as f64 / SETUPS as f64);
        if setups_done < SETUPS && start.elapsed() >= due {
            drop(w);
            w = set_up(&mut ctx)?;
            setups_done += 1;
        }
        // Alternate which mode goes first, so drift hits both alike.
        for k in [round % 2, 1 - round % 2] {
            let (ms, out) = ctx.op(&w, modes[k]);
            let Some(out) = out else { continue };
            samples[k].push(ms);
            if args.trace {
                let sum =
                    |f: fn(&cuberun::RunStats) -> u64| out.stats.iter().map(f).sum::<u64>() as f64;
                let peak = out.stats.iter().map(|s| s.peak_live).max().unwrap_or(0) as f64;
                parks_wakes_steals.push([
                    sum(|s| s.parks),
                    sum(|s| s.wakes),
                    sum(|s| s.steals.iter().sum()),
                    peak,
                ]);
                if modes[k] == Mode::Traced {
                    if let Err(e) = w.after_traced_op(&out, &mut ctx.tracer) {
                        ctx.fail(e);
                    }
                }
            }
        }
        round += 1;
    }
    let extra = w.extra_metrics();
    let (elems, elem_bytes, working_set) =
        (w.elems_per_op(), w.elem_bytes(), w.working_set_bytes());
    drop(w);

    // A second seed must give the same reports and message counts. Its
    // op also gets the slower literal checks, after the peak RSS is read
    // so that they do not count in it.
    let other = W::setup(args.seed.wrapping_add(1), args.size)?;
    let (_, out) = ctx.op(&other, Mode::Default);
    let peak_rss = host::peak_rss_mib().ok_or("cannot read peak RSS from /proc/self/status")?;
    match out.map(|out| other.check_once(&out)) {
        Some(Err(e)) => ctx.fail(e),
        Some(Ok(())) => {}
        None => ctx.errors.push("second-seed op failed; literal checks skipped".into()),
    }
    drop(other);

    let (reports, messages) = ctx.reference.clone().unwrap_or_default();
    let modeled: f64 = reports.iter().map(|r| r.time).sum();
    let fail_ratio = ctx.failed as f64 / ctx.attempted as f64;
    let mut meta = vec![
        ("ops", samples[0].len().to_string()),
        ("ops_second_mode", samples[1].len().to_string()),
        ("working_set_mib", format!("{:.3}", working_set as f64 / 1048576.0)),
        ("op_ms.p50", format!("{} ms", median(&samples[0]))),
        (
            if args.trace { "op_ms_traced.p50" } else { "op_ms_1t.p50" },
            format!("{} ms", median(&samples[1])),
        ),
        (
            if args.trace { "op_ms_traced.p90" } else { "op_ms_1t.p90" },
            format!("{} ms", quantile(&samples[1], 0.9)),
        ),
        ("modeled_s", if reports.is_empty() { "n/a".into() } else { format!("{modeled} model-s") }),
        ("fail_ratio", format!("{fail_ratio} ratio")),
    ];

    let mut metrics = Vec::new();
    if !args.trace {
        let p90 = quantile(&samples[0], 0.9);
        // Mean rate: every element the default-thread ops moved over
        // their total timed seconds.
        let timed_s = samples[0].iter().sum::<f64>() / 1e3;
        let melems = elems as f64 * samples[0].len() as f64 / timed_s / 1e6;
        let values = [p90, melems, median(&setup_s), peak_rss];
        for ((name, unit), value) in END_TO_END.iter().zip(values) {
            metrics.push((*name, value, *unit));
        }
        return Ok(Outcome { metrics, meta, ctx });
    }

    // Per-layer metrics from the traced run.
    let mut values: BTreeMap<&str, f64> = BTreeMap::new();
    if let Err(e) = ctx.tracer.check_nesting() {
        ctx.fail(e);
    }
    for (span, ns) in ctx.tracer.self_ns_per_op() {
        if let Some(&(_, metric, scale)) = SPAN_METRICS.iter().find(|(s, _, _)| *s == span) {
            let per_op: Vec<f64> = ns.iter().map(|&x| x as f64 * scale).collect();
            values.insert(metric, median(&per_op));
        }
    }
    if !reports.is_empty() {
        let sum = |f: fn(&CommReport) -> u64| reports.iter().map(f).sum::<u64>() as f64;
        let fsum = |f: fn(&CommReport) -> f64| reports.iter().map(f).sum::<f64>();
        values.insert("modeled_s", modeled);
        values.insert("simnet.rounds", sum(|r| r.rounds as u64));
        values.insert("simnet.messages", sum(|r| r.total_messages));
        values.insert("simnet.elems", sum(|r| r.total_elems));
        values.insert(
            "simnet.max_link_elems",
            reports.iter().map(|r| r.max_link_elems).max().unwrap_or(0) as f64,
        );
        values.insert("simnet.critical_startups", sum(|r| r.critical_startups));
        values.insert("simnet.bytes_computed", sum(|r| r.total_elems) * elem_bytes as f64);
        values.insert("model.startup_s", fsum(|r| r.startup_time));
        values.insert("model.transfer_s", fsum(|r| r.transfer_time));
        values.insert("model.copy_s", fsum(|r| r.copy_time));
    }
    if mask == ROUTE {
        // Both routers make two `cubesim::par` calls per round.
        values.insert(
            "par.calls_computed",
            2.0 * reports.iter().map(|r| r.rounds as f64).sum::<f64>(),
        );
    }
    if mask == SPMD {
        let col = |i: usize| median(&parks_wakes_steals.iter().map(|v| v[i]).collect::<Vec<_>>());
        let msgs = messages.iter().sum::<u64>() as f64;
        values.insert("cuberun.messages", msgs);
        values.insert("cuberun.parks", col(0));
        values.insert("cuberun.wakes", col(1));
        values.insert("cuberun.steals", col(2));
        values.insert("cuberun.parks_per_msg", col(0) / msgs);
        values.insert("cuberun.peak_live", col(3));
    }
    values.insert("par.call_overhead_us", par_call_overhead_us(nproc));
    let (untraced, traced) = (quantile(&samples[0], 0.9), quantile(&samples[1], 0.9));
    values.insert("op_ms_traced.p90", traced);
    values.insert("trace.overhead_ms", traced - untraced);
    values.insert("fail_ratio", fail_ratio);
    values.extend(extra);

    let mut not_applicable = Vec::new();
    for (name, unit, applies) in PER_LAYER {
        let value = match values.get(name) {
            Some(&v) => v,
            None if applies & mask == 0 => {
                not_applicable.push(name);
                0.0
            }
            None => {
                ctx.errors.push(format!("per-layer metric {name} was not measured"));
                0.0
            }
        };
        metrics.push((name, value, unit));
    }
    meta.push(("not_applicable", not_applicable.join(",")));

    let path = PathBuf::from(format!(".bench_out/trace-{}-seed{}.json", args.workload, args.seed));
    std::fs::create_dir_all(".bench_out").map_err(|e| format!(".bench_out: {e}"))?;
    std::fs::write(&path, ctx.tracer.chrome_json(&args.workload))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    meta.push(("trace_file", path.display().to_string()));
    Ok(Outcome { metrics, meta, ctx })
}

/// Median host cost of one trivial `par_map` over `nproc` items at the
/// default thread count: the worker pool's fixed price per call.
fn par_call_overhead_us(nproc: usize) -> f64 {
    let items: Vec<u64> = (0..nproc as u64).collect();
    let times: Vec<f64> = (0..200)
        .map(|_| {
            let start = Instant::now();
            let out =
                cubesim::par::with_threads(nproc, || cubesim::par::par_map(&items, |&x| x + 1));
            std::hint::black_box(out);
            start.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&times)
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Some(var) = REFUSED_ENV.iter().find(|v| std::env::var_os(v).is_some()) {
        eprintln!(
            "perfbench: refusing to run with {var} set; the benchmark pins thread counts itself"
        );
        std::process::exit(2);
    }
    let outcome = match args.workload.as_str() {
        "ipsc-driver" => bench::<IpscDriver>(&args, IPSC),
        "route-plan" => bench::<RoutePlan>(&args, ROUTE),
        "spmd-runtime" => bench::<Spmd>(&args, SPMD),
        other => Err(format!(
            "unknown workload {other:?}; expected ipsc-driver, route-plan or spmd-runtime"
        )),
    };
    let Outcome { metrics, meta, ctx } = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    for e in &ctx.errors {
        eprintln!("perfbench: {e}");
    }

    let nproc = host::nproc();
    let mut info = vec![
        ("workload", args.workload.clone()),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        ("threads", nproc.to_string()),
        ("threads_1t", "1".into()),
        ("nproc", nproc.to_string()),
        ("git_rev", host::git_rev()),
        ("rustc", env!("PERFBENCH_RUSTC").to_string()),
        ("llc", host::last_level_cache()),
    ];
    info.extend(meta);
    let info: Vec<String> =
        info.iter().map(|(k, v)| format!("{}:{}", json_str(k), json_str(v))).collect();
    println!("{{\"meta\":{{{}}}}}", info.join(","));

    // A run whose ops all failed has no timings; it prints zeros and
    // reports itself incorrect.
    let finite = metrics.iter().all(|(_, v, _)| v.is_finite());
    let correct = ctx.failed == 0 && ctx.errors.is_empty() && finite;
    let metrics: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("{}:{{\"value\":{value},\"unit\":{}}}", json_str(name), json_str(unit))
        })
        .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        ctx.attempted,
        ctx.failed,
        metrics.join(",")
    );
}
