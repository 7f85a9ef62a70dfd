//! The repository's benchmark: end-to-end verdict times of the explorer
//! workloads and of the linear simulation runs, and a traced run that
//! breaks them down by layer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. One thread runs the workload closed
//! loop, each pass after the previous one returns, for the given
//! number of seconds. Human-readable lines go to stderr; the last line
//! on stdout is one JSON object with the verdict of every check and the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). `perfbench/DESIGN.md` records why each workload and
//! metric exists and what each layer metric should move.

mod linear;
mod shadow;
mod stats;
mod sweeps;
mod trace;

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::OnceLock;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use shadow::mean;
use stats::{median, peak_rss_mib, quartile_spread, reset_peak_rss, steal_ticks, tail};
use sweeps::{ExploreWorkload, THREADS};
use trace::Tracer;

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 51;
/// Measured passes a run makes at least, so the tail has ten samples
/// beyond it.
const MIN_PASSES: usize = 11;
/// Measured passes of each kind a traced run makes at least.
const MIN_TRACED_PASSES: usize = 3;
/// A run starts no pass this long after it began, whatever the
/// minimums, so even a much slower program finishes a run in about two
/// minutes.
const MAX_RUN: Duration = Duration::from_secs(120);
/// Where runs keep their spill directories and write their traces.
const WORK_DIR: &str = ".perfbench";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    ExploreUnreduced,
    ExploreReduced,
    ExploreDurable,
    LinearRuns,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::ExploreUnreduced,
        Workload::ExploreReduced,
        Workload::ExploreDurable,
        Workload::LinearRuns,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::ExploreUnreduced => "explore-unreduced",
            Workload::ExploreReduced => "explore-reduced",
            Workload::ExploreDurable => "explore-durable",
            Workload::LinearRuns => "linear-runs",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?.max(1)),
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("--trace takes 0 or 1, not {value}")),
            },
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// Every correctness check of a run, counted.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 20 {
                eprintln!("perfbench: CHECK FAILED: {}", what());
            }
        }
    }
}

/// A run's private directory, removed when dropped, also when the run
/// fails or panics.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn create(workload: Workload) -> Result<ScratchDir, String> {
        let nanos = SystemTime::now().duration_since(UNIX_EPOCH).map_or(0, |d| d.as_nanos());
        let dir = Path::new(WORK_DIR).join(format!(
            "run-{}-{}-{nanos}",
            workload.name(),
            std::process::id()
        ));
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(ScratchDir(dir))
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

/// Collects metrics in output order and prints each as it is added.
#[derive(Default)]
struct Metrics(Vec<Metric>);

/// One human-readable metric line on stderr.
fn print_metric(name: &str, value: f64, unit: &str) {
    eprintln!("  {name:<40} {value:>16.6} {unit}");
}

impl Metrics {
    fn add(&mut self, name: &'static str, value: f64, unit: &'static str) {
        print_metric(name, value, unit);
        self.0.push(Metric { name, value, unit });
    }

    fn json(&self, checks: &Checks) -> String {
        let metrics: Vec<String> = self
            .0
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!("\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}", m.name, m.unit)
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            checks.failed == 0,
            checks.attempted,
            checks.failed,
            metrics.join(", ")
        )
    }
}

enum Prepared {
    Explore(ExploreWorkload),
    Linear(linear::LinearPlan),
}

/// The workload's set-up: read the reference verdicts, configure every
/// sweep and build its root state; or build the simulation specs and
/// draw the seeded plan.
fn prepare(workload: Workload, seed: u64) -> Result<Prepared, String> {
    let explore = |w: ExploreWorkload| {
        std::hint::black_box(sweeps::build_roots(&w));
        Prepared::Explore(w)
    };
    Ok(match workload {
        Workload::ExploreUnreduced => explore(sweeps::unreduced(Path::new("."))?),
        Workload::ExploreReduced => explore(sweeps::reduced(Path::new("."))?),
        Workload::ExploreDurable => explore(sweeps::durable(Path::new("."))?),
        Workload::LinearRuns => Prepared::Linear(linear::plan(seed)?),
    })
}

static STARTED: OnceLock<Instant> = OnceLock::new();

fn out_of_time() -> bool {
    STARTED.get_or_init(Instant::now).elapsed() >= MAX_RUN
}

/// Runs `pass` closed loop until `budget` has passed and at least
/// `min` passes are done.
fn closed_loop<P>(budget: Duration, min: usize, mut pass: impl FnMut() -> P) -> Vec<P> {
    let t0 = Instant::now();
    let mut out = Vec::new();
    while (out.len() < min || t0.elapsed() < budget) && !out_of_time() {
        out.push(pass());
    }
    out
}

/// Share of the machine's processor time the hypervisor may steal
/// during a pass before the pass is set aside as disturbed.
const STEAL_LIMIT: f64 = 0.05;
/// Clock ticks per second of `/proc/stat` (`USER_HZ`, 100 on Linux).
const TICKS_PER_S: f64 = 100.0;

/// [`closed_loop`] for the end-to-end figures, which should measure the
/// program rather than its host. A pass during which the hypervisor
/// stole more than [`STEAL_LIMIT`] of the machine's processor time is
/// set aside, and the loop runs until `budget` of undisturbed passes and
/// at least `min` of them are done, so a run has about as many samples
/// on a busy host as on an idle one. The loop gives up waiting for an
/// undisturbed host after half as long again, keeping the run's length
/// bounded. Returns the undisturbed passes, or every pass when the host
/// left fewer than `min`.
fn undisturbed_loop<P>(budget: Duration, min: usize, mut pass: impl FnMut() -> P) -> Vec<P> {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
    let t0 = Instant::now();
    let (mut clean, mut disturbed) = (Vec::new(), Vec::new());
    let mut clean_time = Duration::ZERO;
    while !out_of_time() {
        let done = clean.len() >= min && clean_time >= budget;
        let gave_up = clean.len() + disturbed.len() >= min && t0.elapsed() >= budget.mul_f64(1.5);
        if done || gave_up {
            break;
        }
        let (before, t) = (steal_ticks(), Instant::now());
        let p = pass();
        let took = t.elapsed();
        let capacity = took.as_secs_f64() * cpus * TICKS_PER_S;
        match (before, steal_ticks()) {
            // Two ticks of slack for the counters' granularity.
            (Some(a), Some(b)) if (b - a) as f64 > 2.0 + STEAL_LIMIT * capacity => {
                disturbed.push(p)
            }
            _ => {
                clean.push(p);
                clean_time += took;
            }
        }
    }
    eprintln!("  ({} passes set aside: the hypervisor stole processor time)", disturbed.len());
    if clean.len() < min {
        eprintln!("  (too few undisturbed passes: every pass counts)");
        clean.extend(disturbed);
    }
    clean
}

/// Closed loop alternating an untraced and a traced pass. Returns
/// (untraced, traced).
fn alternating<P>(
    budget: Duration,
    tracer: &mut Tracer,
    mut pass: impl FnMut(&mut Tracer) -> P,
) -> (Vec<P>, Vec<P>) {
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let t0 = Instant::now();
    while plain.len() < MIN_TRACED_PASSES || t0.elapsed() < budget {
        tracer.set_enabled(false);
        plain.push(pass(tracer));
        tracer.set_enabled(true);
        traced.push(pass(tracer));
        if out_of_time() {
            break;
        }
    }
    tracer.set_enabled(false);
    (plain, traced)
}

/// Pairs a finished pass with its peak resident size in MiB (0 if it
/// cannot be read) and resets the mark for the next pass.
fn with_peak<P>(pass: P) -> (P, f64) {
    let rss = peak_rss_mib().unwrap_or(0.0);
    reset_peak_rss();
    (pass, rss)
}

fn secs(v: &[f64]) -> f64 {
    median(v).unwrap_or(0.0)
}

/// The end-to-end metrics an untraced run reports, with their units.
const END_TO_END: [(&str, &str); 4] =
    [("setup_s", "s"), ("verdict_s_p50", "s"), ("verdict_s_tail", "s"), ("peak_rss_mib", "MiB")];

/// Every per-layer metric a traced run reports, in output order. A
/// layer the workload never calls reads zero.
const PER_LAYER: [(&str, &str); 44] = [
    ("explore.expansions", "count"),
    ("explore.ns_per_expansion", "ns"),
    ("explore.visited_ratio", "ratio"),
    ("explore.parallel_speedup", "ratio"),
    ("explore.frontier_self_ns_per_expansion", "ns"),
    ("explore.evicted", "count"),
    ("explore.max_rehydration_replay", "count"),
    ("store.spilled", "count"),
    ("store.spill_bytes", "B"),
    ("store.reads", "count"),
    ("store.halt_call_s", "s"),
    ("store.resume_call_s", "s"),
    ("store.dir_bytes", "B"),
    ("resume.root_ns", "ns"),
    ("resume.step_ns_p50", "ns"),
    ("resume.step_ns_tail", "ns"),
    ("resume.crash_ns", "ns"),
    ("resume.flush_ns", "ns"),
    ("resume.clone_ns", "ns"),
    ("fp.symmetric_ns", "ns"),
    ("fp.plain_ns", "ns"),
    ("fp.quotient_ns", "ns"),
    ("fp.symmetric_merge_ratio", "ratio"),
    ("codec.encode_ns", "ns"),
    ("codec.decode_ns", "ns"),
    ("codec.bytes_per_snapshot", "B"),
    ("fixtures.make_bodies_ns", "ns"),
    ("gated.run_us", "us"),
    ("gated.ns_per_step", "ns"),
    ("gated.steps_per_run", "count"),
    ("sim_steps_per_s", "1/s"),
    ("sim_run_ms_p50", "ms"),
    ("sim_run_ms_tail", "ms"),
    ("sim.steps_per_run", "count"),
    ("sim.timed_out", "count"),
    ("sim.ops_share.input_ag", "ratio"),
    ("sim.ops_share.snap_ag", "ratio"),
    ("sim.ops_share.xcons_ag", "ratio"),
    ("sim.ops_share.mem", "ratio"),
    ("thread_run_us_p50", "us"),
    ("thread_run_us_tail", "us"),
    ("threads.run_us", "us"),
    ("threads.sa_round_us", "us"),
    ("trace.overhead", "ratio"),
];

/// Per-layer values by metric name.
type Layers = BTreeMap<&'static str, f64>;

fn run(args: &Args, scratch: &Path, checks: &mut Checks) -> Result<Metrics, String> {
    let mut setup = Vec::with_capacity(SETUP_REPEATS);
    let mut prepared = Vec::with_capacity(SETUP_REPEATS);
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        prepared.push(prepare(args.workload, args.seed)?);
        setup.push(t.elapsed().as_secs_f64());
    }
    let prepared = prepared.pop().expect("SETUP_REPEATS > 0");
    let budget = Duration::from_secs(args.seconds);
    let mut tracer = Tracer::new(false);
    let mut m = Metrics::default();
    eprintln!(
        "perfbench: {} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    if !args.trace {
        // Each pass's own peak: VmHWM is reset before every pass.
        let peak_tracked = reset_peak_rss();
        let passes: Vec<(f64, f64)> = match &prepared {
            Prepared::Explore(w) => {
                let mut pass = || sweeps::run_pass(w, THREADS, scratch, checks, &mut tracer);
                pass();
                reset_peak_rss();
                undisturbed_loop(budget, MIN_PASSES, || with_peak(pass().wall_s))
            }
            Prepared::Linear(plan) => {
                let mut pass = || linear::run_pass(plan, checks, &mut tracer);
                pass();
                reset_peak_rss();
                let (passes, peaks): (Vec<_>, Vec<_>) =
                    undisturbed_loop(budget, MIN_PASSES, || with_peak(pass())).into_iter().unzip();
                // The simulation's own end-to-end figures; the traced run
                // reports them as per-layer metrics.
                let mut l = Layers::new();
                linear_layers(&passes, &mut l);
                for (name, unit) in PER_LAYER {
                    if let Some(&v) = l.get(name).filter(|_| !name.contains('.')) {
                        print_metric(name, v, unit);
                    }
                }
                passes.iter().map(|p| p.wall_s).zip(peaks).collect()
            }
        };
        let verdicts: Vec<f64> = passes.iter().map(|&(wall_s, _)| wall_s).collect();
        let peaks: Vec<f64> = passes.iter().map(|&(_, rss)| rss).collect();
        if !peak_tracked {
            eprintln!("  (VmHWM cannot be reset here: peak_rss_mib is the whole run's peak)");
        }
        let tail = tail_of("verdict_s_tail", &verdicts);
        if peaks.contains(&0.0) {
            return Err("cannot read VmHWM from /proc/self/status".into());
        }
        for ((name, unit), value) in
            END_TO_END.into_iter().zip([secs(&setup), secs(&verdicts), tail, secs(&peaks)])
        {
            m.add(name, value, unit);
        }
        let fail_share = checks.failed as f64 / checks.attempted.max(1) as f64;
        print_metric("fail_share", fail_share, "ratio");
        eprintln!(
            "  ({} of {} checks failed; pass-time spread within this run {:.4})",
            checks.failed,
            checks.attempted,
            quartile_spread(&verdicts).unwrap_or(0.0)
        );
        return Ok(m);
    }
    let mut l = Layers::new();
    match &prepared {
        Prepared::Explore(w) => traced_explore(w, budget, scratch, checks, &mut tracer, &mut l),
        Prepared::Linear(plan) => {
            traced_linear(plan, args.seed, budget, checks, &mut tracer, &mut l)
        }
    }
    for (name, unit) in PER_LAYER {
        m.add(name, l.remove(name).unwrap_or(0.0), unit);
    }
    assert!(l.is_empty(), "per-layer values without a PER_LAYER entry: {l:?}");
    let path =
        Path::new(WORK_DIR).join(format!("trace-{}-seed{}.jsonl", args.workload.name(), args.seed));
    tracer.write_jsonl(&path).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    for (name, t) in trace::self_times(tracer.spans()) {
        eprintln!(
            "  span {name:<28} calls {:>6}  total {:>10.3} ms  self {:>10.3} ms",
            t.calls,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        );
    }
    eprintln!("  spans written to {}", path.display());
    Ok(m)
}

/// The tail of `v`, or its maximum when fewer than eleven samples leave
/// no value with ten beyond it. Says which on stderr.
fn tail_of(name: &str, v: &[f64]) -> f64 {
    match tail(v) {
        Some(t) => {
            eprintln!("  ({name} is p{:.2} of {} samples)", t.percentile, t.samples);
            t.value
        }
        None => {
            eprintln!("  ({name} is the maximum of only {} samples)", v.len());
            v.iter().copied().fold(0.0, f64::max)
        }
    }
}

fn traced_explore(
    w: &ExploreWorkload,
    budget: Duration,
    scratch: &Path,
    checks: &mut Checks,
    tracer: &mut Tracer,
    l: &mut Layers,
) {
    sweeps::run_pass(w, THREADS, scratch, checks, tracer);
    let (plain, traced) = alternating(budget.mul_f64(0.5), tracer, |t| {
        sweeps::run_pass(w, THREADS, scratch, checks, t)
    });
    let single = closed_loop(budget.mul_f64(0.3), MIN_TRACED_PASSES, || {
        sweeps::run_pass(w, 1, scratch, checks, tracer)
    });
    let inputs: Vec<_> = w.sweeps.iter().map(|s| (s.fixture, s.mode)).collect();
    tracer.set_enabled(true);
    let (costs, per_expansion) = tracer.span("shadow_walk", |_| shadow::walk_all(&inputs, checks));
    tracer.set_enabled(false);

    let wall = |ps: &[sweeps::Pass]| secs(&ps.iter().map(|p| p.wall_s).collect::<Vec<_>>());
    let last = plain.last().expect("at least MIN_TRACED_PASSES passes");
    let expansions = last.expansions.iter().sum::<u64>() as f64;
    let ns_per_expansion = wall(&plain) * 1e9 / expansions;
    let shadow_per_expansion =
        last.expansions.iter().zip(&per_expansion).map(|(&e, &ns)| e as f64 * ns).sum::<f64>()
            / expansions;
    let store = |f: fn(&sweeps::Pass) -> f64| secs(&plain.iter().map(f).collect::<Vec<_>>());
    l.extend([
        ("explore.expansions", expansions),
        ("explore.ns_per_expansion", ns_per_expansion),
        ("explore.visited_ratio", last.visited as f64 / expansions),
        ("explore.parallel_speedup", wall(&single) / wall(&plain)),
        // Derived by subtraction: what is left of a one-worker expansion
        // once the shadow walk's (one-thread) resume, fingerprint, body
        // and clone costs are taken out.
        (
            "explore.frontier_self_ns_per_expansion",
            wall(&single) * 1e9 / expansions - shadow_per_expansion,
        ),
        ("explore.evicted", last.evicted as f64),
        ("explore.max_rehydration_replay", last.max_rehydration_replay as f64),
        ("store.spilled", last.store.spilled as f64),
        ("store.spill_bytes", last.store.spill_bytes as f64),
        ("store.reads", last.store.reads as f64),
        ("store.halt_call_s", store(|p| p.store.halt_call_s)),
        ("store.resume_call_s", store(|p| p.store.resume_call_s)),
        ("store.dir_bytes", last.store.dir_bytes as f64),
        ("resume.root_ns", mean(&costs.root_ns)),
        ("resume.step_ns_p50", secs(&costs.step_ns)),
        ("resume.step_ns_tail", tail_of("resume.step_ns_tail", &costs.step_ns)),
        ("resume.crash_ns", secs(&costs.crash_ns)),
        ("resume.flush_ns", secs(&costs.flush_ns)),
        ("resume.clone_ns", secs(&costs.clone_ns)),
        ("fp.symmetric_ns", secs(&costs.fp_symmetric_ns)),
        ("fp.plain_ns", secs(&costs.fp_plain_ns)),
        ("fp.quotient_ns", secs(&costs.fp_quotient_ns)),
        (
            "fp.symmetric_merge_ratio",
            costs.symmetric_distinct as f64 / costs.symmetric_calls.max(1) as f64,
        ),
        ("codec.encode_ns", secs(&costs.encode_ns)),
        ("codec.decode_ns", secs(&costs.decode_ns)),
        ("codec.bytes_per_snapshot", mean(&costs.encoded_bytes)),
        ("fixtures.make_bodies_ns", secs(&costs.make_bodies_ns)),
        ("trace.overhead", wall(&traced) / wall(&plain)),
    ]);
}

/// The simulation-level values of untraced linear passes.
fn linear_layers(passes: &[linear::LinearPass], l: &mut Layers) {
    let flat = |f: fn(&linear::LinearPass) -> &Vec<f64>| {
        passes.iter().flat_map(|p| f(p).iter().copied()).collect::<Vec<f64>>()
    };
    let run_ms = flat(|p| &p.run_ms);
    let thread_us = flat(|p| &p.thread_us);
    let steps: u64 = passes.iter().map(|p| p.steps).sum();
    let gated_s: f64 = passes.iter().map(|p| p.gated_s).sum();
    let mut ops = [0u64; 5];
    for p in passes {
        for (total, n) in ops.iter_mut().zip(p.ops) {
            *total += n;
        }
    }
    let all_ops = ops.iter().sum::<u64>().max(1) as f64;
    l.extend([
        ("sim_steps_per_s", steps as f64 / gated_s),
        ("sim_run_ms_p50", secs(&run_ms)),
        ("sim_run_ms_tail", tail_of("sim_run_ms_tail", &run_ms)),
        ("thread_run_us_p50", secs(&thread_us)),
        ("thread_run_us_tail", tail_of("thread_run_us_tail", &thread_us)),
        ("threads.run_us", mean(&thread_us)),
        ("sim.steps_per_run", steps as f64 / run_ms.len().max(1) as f64),
        ("sim.timed_out", passes.iter().map(|p| p.timed_out).sum::<u64>() as f64),
        ("sim.ops_share.input_ag", ops[0] as f64 / all_ops),
        ("sim.ops_share.snap_ag", ops[1] as f64 / all_ops),
        ("sim.ops_share.xcons_ag", ops[2] as f64 / all_ops),
        ("sim.ops_share.mem", ops[3] as f64 / all_ops),
    ]);
}

fn traced_linear(
    plan: &linear::LinearPlan,
    seed: u64,
    budget: Duration,
    checks: &mut Checks,
    tracer: &mut Tracer,
    l: &mut Layers,
) {
    linear::run_pass(plan, checks, tracer);
    let (plain, traced) =
        alternating(budget.mul_f64(0.8), tracer, |t| linear::run_pass(plan, checks, t));
    linear_layers(&plain, l);
    tracer.set_enabled(true);
    let (run_us, steps) = tracer.span("gated_probe", |_| linear::gated_probe(seed, checks));
    let rounds = tracer.span("sa_round_probe", |_| linear::sa_round_probe(checks));
    tracer.set_enabled(false);
    let wall = |ps: &[linear::LinearPass]| secs(&ps.iter().map(|p| p.wall_s).collect::<Vec<_>>());
    let total_steps = steps.iter().sum::<u64>() as f64;
    l.extend([
        ("gated.run_us", secs(&run_us)),
        ("gated.ns_per_step", run_us.iter().sum::<f64>() * 1e3 / total_steps),
        ("gated.steps_per_run", total_steps / steps.len() as f64),
        ("threads.sa_round_us", secs(&rounds)),
        ("trace.overhead", wall(&traced) / wall(&plain)),
    ]);
}

fn main() -> ExitCode {
    STARTED.get_or_init(Instant::now);
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                Workload::ALL.map(Workload::name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    let scratch = match ScratchDir::create(args.workload) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut checks = Checks::default();
    let outcome = catch_unwind(AssertUnwindSafe(|| run(&args, &scratch.0, &mut checks)));
    drop(scratch);
    match outcome {
        Ok(Ok(metrics)) => {
            println!("{}", metrics.json(&checks));
            ExitCode::SUCCESS
        }
        Ok(Err(e)) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
        Err(_) => {
            eprintln!("perfbench: the run panicked");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// BENCHMARK.json names exactly the workloads and metrics this
    /// program reports, with the same units.
    #[test]
    fn benchmark_json_matches_the_reported_metrics() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for w in Workload::ALL {
            assert!(json.contains(&format!("{{\"name\": \"{}\", \"why\": ", w.name())), "{w:?}");
        }
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", ");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let names = json.matches("\"name\": ").count();
        assert_eq!(names, Workload::ALL.len() + END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn arguments_are_checked() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let a = parse("--workload linear-runs --seed 7 --seconds 3 --trace 1").expect("valid");
        assert_eq!((a.workload, a.seed, a.seconds, a.trace), (Workload::LinearRuns, 7, 3, true));
        assert!(parse("--workload nope").is_err());
        assert!(parse("--workload linear-runs --trace 2").is_err());
        assert!(parse("--seed 1").is_err());
        assert!(parse("--workload linear-runs --seed").is_err());
    }
}
