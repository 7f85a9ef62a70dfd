//! The `linear-runs` workload: non-branching executions of the BG-style
//! simulation on the gated `ModelWorld` and on `ThreadWorld`, plus the
//! traced run's probes of the gated engine and of ThreadWorld alone.

use std::time::Instant;

use mpcn_agreement::fixtures::{check_agreement, fig1_bodies};
use mpcn_agreement::safe::SafeAgreement;
use mpcn_core::simulator::{kinds, run_colorless, SimRun, SimulationSpec};
use mpcn_core::threaded::run_colorless_threaded;
use mpcn_model::ModelParams;
use mpcn_runtime::model_world::{ModelWorld, Outcome, RunConfig, RunReport};
use mpcn_runtime::sched::{Crashes, Schedule};
use mpcn_runtime::thread_world::ThreadWorld;
use mpcn_runtime::world::Env;
use mpcn_tasks::algorithms;

use crate::trace::Tracer;
use crate::Checks;

/// Gated runs per (agreement family, with or without crashes) cell.
const RUNS_PER_CELL: usize = 24;
/// ThreadWorld simulations per pass.
const THREADED_RUNS: usize = 1_600;
/// Crash plans place each crash before one of a victim's first this
/// many own steps.
const CRASH_STEP_RANGE: u64 = 60;
/// Gated fig1 runs and ThreadWorld safe-agreement rounds per probe.
const PROBE_RUNS: usize = 200;

/// SplitMix64: a small deterministic generator for the workload's
/// schedule seeds, inputs and crash placements.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed)
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }
}

struct GatedRun {
    family: usize,
    inputs: Vec<u64>,
    run: SimRun,
}

/// The fixed set of runs one pass executes, drawn from the seed.
pub struct LinearPlan {
    /// Target n'=4: x'=1 (Figure 1 safe agreement) and x'=2 (Figure 6
    /// x-safe agreement).
    families: Vec<SimulationSpec>,
    gated: Vec<GatedRun>,
    threaded: SimulationSpec,
    threaded_inputs: Vec<Vec<u64>>,
}

fn spec(
    alg: Result<mpcn_tasks::SourceAlgorithm, mpcn_model::ParamError>,
    n: u32,
    t: u32,
    x: u32,
) -> Result<SimulationSpec, String> {
    let alg = alg.map_err(|e| format!("source algorithm: {e}"))?;
    let target = ModelParams::new(n, t, x).map_err(|e| format!("target model: {e}"))?;
    let spec = SimulationSpec::new(alg, target).map_err(|e| e.to_string())?;
    // Only sound simulations promise liveness under up to t' crashes.
    spec.is_sound().then_some(spec).ok_or_else(|| format!("unsound simulation ({n},{t},{x})"))
}

/// Distinct inputs, one per simulator.
fn inputs(rng: &mut Rng, n: usize) -> Vec<u64> {
    (0..n as u64).map(|i| 1_000 * (i + 1) + rng.below(1_000)).collect()
}

pub fn plan(seed: u64) -> Result<LinearPlan, String> {
    let families = vec![
        // 3-set agreement from read/write, simulated with safe agreement.
        spec(algorithms::kset_read_write(5, 2), 4, 2, 1)?,
        // Group x-consensus then min, simulated with x-safe agreement.
        spec(algorithms::group_xcons_then_min(6, 4, 2), 4, 3, 2)?,
    ];
    let mut rng = Rng::new(seed);
    let mut gated = Vec::new();
    for (family, spec) in families.iter().enumerate() {
        let n = spec.target().n() as usize;
        let t = spec.target().t() as usize;
        for crashing in [false, true] {
            for _ in 0..RUNS_PER_CELL {
                let mut run = SimRun::seeded(rng.next());
                if crashing {
                    let mut pids: Vec<usize> = (0..n).collect();
                    let victims = 1 + rng.below(t as u64) as usize;
                    let plan = (0..victims)
                        .map(|i| {
                            pids.swap(i, i + rng.below((n - i) as u64) as usize);
                            (pids[i], rng.below(CRASH_STEP_RANGE))
                        })
                        .collect();
                    run = run.crashes(Crashes::AtOwnStep(plan));
                }
                gated.push(GatedRun { family, inputs: inputs(&mut rng, n), run });
            }
        }
    }
    let threaded = spec(algorithms::kset_read_write(3, 1), 2, 1, 1)?;
    let threaded_inputs = (0..THREADED_RUNS).map(|_| inputs(&mut rng, 2)).collect();
    Ok(LinearPlan { families, gated, threaded, threaded_inputs })
}

/// One pass over the plan.
#[derive(Debug, Default)]
pub struct LinearPass {
    pub wall_s: f64,
    pub run_ms: Vec<f64>,
    pub gated_s: f64,
    pub steps: u64,
    pub timed_out: u64,
    /// Operations by object family: input agreement, snapshot
    /// agreement, consensus-object agreement, simulated memory, other.
    pub ops: [u64; 5],
    pub thread_us: Vec<f64>,
}

fn op_family(kind: u32) -> usize {
    match kind {
        k if (kinds::INPUT_AG_BASE..kinds::INPUT_AG_BASE + 10).contains(&k) => 0,
        k if (kinds::SNAP_AG_BASE..kinds::XCONS_AG_BASE).contains(&k) => 1,
        k if (kinds::XCONS_AG_BASE..kinds::MEM).contains(&k) => 2,
        kinds::MEM => 3,
        _ => 4,
    }
}

fn check_run(checks: &mut Checks, spec: &SimulationSpec, inputs: &[u64], r: &RunReport) {
    checks.check(r.all_correct_decided() && !r.timed_out, || {
        format!("gated {}: not live: {:?}", spec.algorithm().name(), r.outcomes)
    });
    let valid = spec.algorithm().task().validate(inputs, &r.outcomes);
    checks.check(valid.is_ok(), || format!("gated {}: {valid:?}", spec.algorithm().name()));
}

pub fn run_pass(plan: &LinearPlan, checks: &mut Checks, tracer: &mut Tracer) -> LinearPass {
    tracer.next_pass();
    let mut pass = LinearPass::default();
    let t0 = Instant::now();
    let mut reports = Vec::with_capacity(plan.gated.len());
    let mut decisions = Vec::with_capacity(plan.threaded_inputs.len());
    tracer.span("pass", |tracer| {
        for g in &plan.gated {
            let t = Instant::now();
            let r = tracer.span("run_colorless", |_| {
                run_colorless(&plan.families[g.family], &g.inputs, &g.run)
            });
            pass.run_ms.push(t.elapsed().as_secs_f64() * 1e3);
            reports.push(r);
        }
        for inputs in &plan.threaded_inputs {
            let t = Instant::now();
            let d = tracer
                .span("run_colorless_threaded", |_| run_colorless_threaded(&plan.threaded, inputs));
            pass.thread_us.push(t.elapsed().as_secs_f64() * 1e6);
            decisions.push(d);
        }
    });
    pass.wall_s = t0.elapsed().as_secs_f64();
    pass.gated_s = pass.run_ms.iter().sum::<f64>() / 1e3;
    for (g, r) in plan.gated.iter().zip(&reports) {
        check_run(checks, &plan.families[g.family], &g.inputs, r);
        pass.steps += r.steps;
        pass.timed_out += u64::from(r.timed_out);
        for &(kind, count) in &r.ops_by_kind {
            pass.ops[op_family(kind)] += count;
        }
    }
    let task = plan.threaded.algorithm().task();
    for (inputs, d) in plan.threaded_inputs.iter().zip(&decisions) {
        let outcomes: Vec<Outcome> = d.iter().map(|&v| Outcome::Decided(v)).collect();
        let valid = task.validate(inputs, &outcomes);
        checks.check(d.len() == inputs.len() && valid.is_ok(), || {
            format!("threaded decisions {d:?} for inputs {inputs:?}: {valid:?}")
        });
    }
    pass
}

/// The gated engine alone: `ModelWorld::run` on the Figure 1 bodies at
/// n=4 over seeded random schedules. Returns per-run microseconds and
/// steps.
pub fn gated_probe(seed: u64, checks: &mut Checks) -> (Vec<f64>, Vec<u64>) {
    let mut rng = Rng::new(seed ^ 0x6A7E_D000);
    let (mut us, mut steps) = (Vec::new(), Vec::new());
    for _ in 0..PROBE_RUNS {
        let cfg = RunConfig::new(4).schedule(Schedule::RandomSeed(rng.next()));
        let t = Instant::now();
        let r = ModelWorld::run(cfg, fig1_bodies(4, 1));
        us.push(t.elapsed().as_secs_f64() * 1e6);
        steps.push(r.steps);
        let ok = check_agreement(&r, 4, true);
        checks.check(ok.is_ok(), || format!("gated fig1 n=4: {ok:?}"));
    }
    (us, steps)
}

/// One Figure 1 round on ThreadWorld at n=2: both threads propose and
/// poll twice. Returns per-round microseconds.
pub fn sa_round_probe(checks: &mut Checks) -> Vec<f64> {
    const KIND: u32 = 860;
    (0..PROBE_RUNS)
        .map(|_| {
            let t = Instant::now();
            let world = ThreadWorld::new();
            let decided: Vec<Option<u64>> = std::thread::scope(|s| {
                let handles: Vec<_> = (0..2)
                    .map(|pid| {
                        let world = world.clone();
                        s.spawn(move || {
                            let env = Env::new(world, pid);
                            let sa = SafeAgreement::new(KIND, 0, 2);
                            sa.propose(&env, 100 + pid as u64);
                            sa.try_decide::<u64, _>(&env);
                            sa.try_decide::<u64, _>(&env)
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().expect("round thread panicked")).collect()
            });
            let us = t.elapsed().as_secs_f64() * 1e6;
            let values: Vec<u64> = decided.iter().flatten().copied().collect();
            checks.check(
                values.iter().all(|v| (100..102).contains(v))
                    && values.windows(2).all(|w| w[0] == w[1]),
                || format!("ThreadWorld fig1 round decided {decided:?}"),
            );
            us
        })
        .collect()
}
