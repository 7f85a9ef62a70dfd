//! The explorer workloads: which sweeps each one runs, how a pass runs
//! them, and the checks every sweep must pass.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::Instant;

use mpcn_agreement::fixtures::{check_agreement, fig1_bodies, fig6_bodies, FIG1_SYMMETRY};
use mpcn_runtime::explore::{ExploreLimits, ExploreReport, Explorer, Reduction};
use mpcn_runtime::model_world::{Body, ModelWorld, Symmetry};
use mpcn_runtime::sched::Crashes;

use crate::stats::{parse_golden, parse_pinned_summary};
use crate::trace::Tracer;
use crate::Checks;

/// Worker threads of every measured sweep: the catalogue's default.
pub const THREADS: usize = 2;

/// Layer after which the durable workload's second sweep is halted
/// before it is resumed.
const HALT_AFTER_LAYERS: u64 = 14;

const GOLDEN_PATH: &str = "tests/golden/explore_catalogue.txt";
const PINNED_PATH: &str = "crates/agreement/tests/explore_sweeps.rs";
const PINNED_TEST: &str = "fig1_n7_exhaustive_symm_spill_baseline";

/// The program a sweep explores.
#[derive(Debug, Clone, Copy)]
pub enum Fixture {
    /// Figure 1 safe agreement with `n` proposers.
    Fig1(usize),
    /// Figure 6 x-safe agreement with `n` proposers and consensus
    /// number `x`.
    Fig6(usize, u32),
}

impl Fixture {
    pub fn n(self) -> usize {
        match self {
            Fixture::Fig1(n) | Fixture::Fig6(n, _) => n,
        }
    }

    pub fn bodies(self) -> Vec<Body> {
        match self {
            Fixture::Fig1(n) => fig1_bodies(n, 1),
            Fixture::Fig6(n, x) => fig6_bodies(n, x, 1),
        }
    }

    /// The pid-symmetry spec the fixture declares, if any.
    pub fn symmetry(self) -> Option<Symmetry> {
        matches!(self, Fixture::Fig1(_)).then_some(FIG1_SYMMETRY)
    }
}

/// Which branches and fingerprints the explorer uses on a sweep, so the
/// shadow walk can mirror them.
#[derive(Debug, Clone, Copy)]
pub struct Mode {
    /// Full reduction set: view summaries and the observation quotient.
    pub reduced: bool,
    pub tso: bool,
    /// Crash branches allowed per path (`Crashes::UpTo`).
    pub crash_budget: usize,
    /// The pid-symmetry quotient is live.
    pub symmetric: bool,
}

pub struct Sweep {
    pub label: &'static str,
    pub fixture: Fixture,
    pub mode: Mode,
    explorer: Explorer,
    /// Complete crash-free runs must decide (the pinned n=7 checker).
    must_decide: bool,
    /// The exact `summary_line` the sweep must print; empty when the
    /// reference file has no line for it, which fails the check.
    pub expected: String,
    /// The expected verdict is a counterexample.
    pub expect_violation: bool,
}

/// The sweeps of one explorer workload.
pub struct ExploreWorkload {
    pub sweeps: Vec<Sweep>,
    /// Run each sweep through the spill store, uninterrupted and then
    /// halted and resumed.
    pub durable: bool,
}

fn limits(max_expansions: u64) -> ExploreLimits {
    ExploreLimits { max_expansions, max_steps: 2_000, max_depth: usize::MAX }
}

fn read(root: &Path, path: &str) -> Result<String, String> {
    std::fs::read_to_string(root.join(path)).map_err(|e| format!("cannot read {path}: {e}"))
}

impl Sweep {
    fn catalogue(
        golden: &std::collections::BTreeMap<String, String>,
        label: &'static str,
        fixture: Fixture,
        mode: Mode,
        explorer: Explorer,
    ) -> Sweep {
        Sweep {
            label,
            fixture,
            mode,
            explorer,
            must_decide: false,
            expected: golden.get(label).cloned().unwrap_or_default(),
            expect_violation: false,
        }
    }
}

/// `explore-unreduced`: Figure 1 at n=3 with every reduction off.
pub fn unreduced(root: &Path) -> Result<ExploreWorkload, String> {
    let golden = parse_golden(&read(root, GOLDEN_PATH)?);
    let mode = Mode { reduced: false, tso: false, crash_budget: 0, symmetric: false };
    let ex = Explorer::new(3).limits(limits(2_000_000)).reduction(Reduction::none());
    let sweeps = vec![Sweep::catalogue(&golden, "fig1 n=3 unpruned", Fixture::Fig1(3), mode, ex)];
    Ok(ExploreWorkload { sweeps, durable: false })
}

/// `explore-reduced`: the in-memory reduced catalogue sweeps, exactly
/// as the `explore_sweep` bench configures them.
pub fn reduced(root: &Path) -> Result<ExploreWorkload, String> {
    let golden = parse_golden(&read(root, GOLDEN_PATH)?);
    let symm = Mode { reduced: true, tso: false, crash_budget: 0, symmetric: true };
    let plain = Mode { symmetric: false, ..symm };
    let tso = Mode { tso: true, ..plain };
    let crash = |f| Mode { crash_budget: f, ..symm };
    let fig1 = |n| Explorer::new(n).symmetry(FIG1_SYMMETRY);
    let bounded =
        |ex: Explorer| ex.limits(limits(60_000_000)).resident_ceiling(2_048).checkpoint_every(8);
    let cat = |label, fixture, mode, ex| Sweep::catalogue(&golden, label, fixture, mode, ex);
    let sweeps = vec![
        cat("fig1 n=4 pruned", Fixture::Fig1(4), symm, fig1(4).limits(limits(2_000_000))),
        cat("fig1 n=5 pruned", Fixture::Fig1(5), symm, bounded(fig1(5))),
        cat(
            "fig1 n=5 f=1 pruned",
            Fixture::Fig1(5),
            crash(1),
            bounded(fig1(5).crashes(Crashes::UpTo(1))),
        ),
        cat(
            "fig1 n=4 f=2 pruned",
            Fixture::Fig1(4),
            crash(2),
            bounded(fig1(4).crashes(Crashes::UpTo(2))),
        ),
        cat(
            "fig6 n=4 x=2 pruned",
            Fixture::Fig6(4, 2),
            plain,
            Explorer::new(4).limits(limits(2_000_000)),
        ),
        Sweep {
            expect_violation: true,
            ..cat(
                "fig1 n=3 tso pruned",
                Fixture::Fig1(3),
                tso,
                fig1(3).tso(true).limits(limits(10_000_000)),
            )
        },
        cat(
            "fig6 n=3 x=2 tso pruned",
            Fixture::Fig6(3, 2),
            tso,
            Explorer::new(3).tso(true).limits(limits(10_000_000)),
        ),
    ];
    Ok(ExploreWorkload { sweeps, durable: false })
}

/// `explore-durable`: Figure 1 at n=7 under the symmetry quotient,
/// spilled under a 256-node resident ceiling, as pinned in
/// `explore_sweeps.rs`.
pub fn durable(root: &Path) -> Result<ExploreWorkload, String> {
    let pinned = parse_pinned_summary(&read(root, PINNED_PATH)?, PINNED_TEST);
    let label = "fig1 n=7 symm";
    let sweep = Sweep {
        label,
        fixture: Fixture::Fig1(7),
        mode: Mode { reduced: true, tso: false, crash_budget: 0, symmetric: true },
        explorer: Explorer::new(7)
            .symmetry(FIG1_SYMMETRY)
            .limits(ExploreLimits {
                max_expansions: 60_000_000,
                max_steps: 5_000,
                max_depth: usize::MAX,
            })
            .resident_ceiling(256)
            .checkpoint_every(8)
            .fixture_id(label),
        must_decide: true,
        expected: pinned
            .map(|s| format!("explore: {label} {s} complete=true violations=0"))
            .unwrap_or_default(),
        expect_violation: false,
    };
    Ok(ExploreWorkload { sweeps: vec![sweep], durable: true })
}

/// Builds every sweep's root state, the first thing the explorer does
/// with a sweep: each body runs to its first shared-memory gate.
/// Returns the number of processes settled.
pub fn build_roots(w: &ExploreWorkload) -> usize {
    w.sweeps
        .iter()
        .map(|s| {
            let (n, m) = (s.fixture.n(), s.mode);
            ModelWorld::snapshot_root_tso(n, true, m.reduced, m.tso, s.fixture.bodies()).n()
        })
        .sum()
}

/// Runs one sweep. The only call site of `Explorer::threads` in the
/// benchmark. A panic inside the explorer is returned, not propagated,
/// so it counts as a failed check.
fn explore(
    sweep: &Sweep,
    threads: usize,
    spill: Option<&Path>,
    halt: Option<u64>,
) -> Result<ExploreReport, String> {
    let mut ex = sweep.explorer.clone().threads(threads);
    if let Some(dir) = spill {
        ex = ex.spill_to(dir);
    }
    if let Some(layers) = halt {
        ex = ex.halt_after_layers(layers);
    }
    let (fixture, must_decide) = (sweep.fixture, sweep.must_decide);
    catch_unwind(AssertUnwindSafe(|| {
        ex.run(move || fixture.bodies(), move |r| check_agreement(r, fixture.n(), must_decide))
    }))
    .map_err(|_| format!("{}: the explorer panicked", sweep.label))
}

/// Continues a halted sweep. The only call site of the resume API in
/// the benchmark.
fn resume(sweep: &Sweep, dir: &Path) -> Result<ExploreReport, String> {
    let (fixture, must_decide) = (sweep.fixture, sweep.must_decide);
    catch_unwind(AssertUnwindSafe(|| {
        Explorer::resume_sweep_with_symmetry(
            dir,
            fixture.symmetry(),
            move || fixture.bodies(),
            move |r| check_agreement(r, fixture.n(), must_decide),
        )
    }))
    .map_err(|_| format!("{}: resuming the sweep panicked", sweep.label))
}

/// What the spill store did in one durable pass.
#[derive(Debug, Default)]
pub struct StoreWork {
    pub spilled: u64,
    pub spill_bytes: u64,
    pub reads: u64,
    pub halt_call_s: f64,
    pub resume_call_s: f64,
    /// Size of the uninterrupted sweep's directory at its verdict.
    pub dir_bytes: u64,
}

/// One pass over a workload's sweeps.
#[derive(Debug, Default)]
pub struct Pass {
    pub wall_s: f64,
    /// Expansions of each sweep, in workload order (a halted-and-resumed
    /// sweep counts once more, as one whole sweep).
    pub expansions: Vec<u64>,
    pub visited: u64,
    pub evicted: u64,
    pub max_rehydration_replay: u64,
    pub store: StoreWork,
}

fn check_report(
    checks: &mut Checks,
    sweep: &Sweep,
    what: &str,
    got: &Result<ExploreReport, String>,
) {
    match got {
        Ok(report) => {
            let line = report.summary_line(sweep.label);
            checks.check(!sweep.expected.is_empty() && line == sweep.expected, || {
                format!("{what}: got `{line}`, expected `{}`", sweep.expected)
            });
            checks.check(report.violations.is_empty() != sweep.expect_violation, || {
                format!("{what}: {} violations found", report.violations.len())
            });
        }
        Err(e) => checks.check(false, || format!("{what}: {e}")),
    }
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .map(|e| match e.metadata() {
                    Ok(m) if m.is_dir() => dir_bytes(&e.path()),
                    Ok(m) => m.len(),
                    Err(_) => 0,
                })
                .sum()
        })
        .unwrap_or(0)
}

/// Runs every sweep of `w` once at `threads` workers and checks each
/// verdict. Durable sweeps spill into fresh directories under `scratch`,
/// removed before returning.
pub fn run_pass(
    w: &ExploreWorkload,
    threads: usize,
    scratch: &Path,
    checks: &mut Checks,
    tracer: &mut Tracer,
) -> Pass {
    tracer.next_pass();
    let mut pass = Pass::default();
    let mut dirs: Vec<PathBuf> = Vec::new();
    let t0 = Instant::now();
    let mut reports = Vec::new();
    tracer.span("pass", |tracer| {
        for (i, sweep) in w.sweeps.iter().enumerate() {
            if !w.durable {
                let r = tracer.span("Explorer::run", |_| explore(sweep, threads, None, None));
                reports.push((sweep, r, None));
                continue;
            }
            let full = scratch.join(format!("sweep-{i}-full"));
            let halted = scratch.join(format!("sweep-{i}-halted"));
            let r = tracer.span("Explorer::run", |_| explore(sweep, threads, Some(&full), None));
            let t = Instant::now();
            let h = tracer.span("Explorer::run+halt", |_| {
                explore(sweep, threads, Some(&halted), Some(HALT_AFTER_LAYERS))
            });
            pass.store.halt_call_s += t.elapsed().as_secs_f64();
            let t = Instant::now();
            let resumed = tracer.span("resume_sweep_with_symmetry", |_| resume(sweep, &halted));
            pass.store.resume_call_s += t.elapsed().as_secs_f64();
            checks.check(h.as_ref().is_ok_and(|h| !h.complete), || {
                format!("{}: the halted sweep must stop incomplete", sweep.label)
            });
            reports.push((sweep, r, Some(resumed)));
            dirs.extend([full, halted]);
        }
    });
    pass.wall_s = t0.elapsed().as_secs_f64();
    for (sweep, r, resumed) in &reports {
        check_report(checks, sweep, sweep.label, r);
        let Ok(report) = r else { continue };
        let s = &report.stats;
        pass.expansions.push(s.expansions);
        pass.visited += s.states_visited;
        pass.evicted += s.evicted;
        pass.max_rehydration_replay = pass.max_rehydration_replay.max(s.max_rehydration_replay);
        if let Some(resumed) = resumed {
            check_report(checks, sweep, &format!("{} (halted, resumed)", sweep.label), resumed);
            checks.check(s.spilled > 0 && s.store_reads > 0, || {
                format!("{}: the ceiling must spill and read back", sweep.label)
            });
            pass.store.spilled += s.spilled;
            pass.store.spill_bytes += s.spill_bytes;
            pass.store.reads += s.store_reads;
            if let Some(last) = pass.expansions.last_mut() {
                *last *= 2;
            }
        }
    }
    if let Some(full) = dirs.first() {
        pass.store.dir_bytes = dir_bytes(full);
    }
    for dir in dirs {
        let _ = std::fs::remove_dir_all(dir);
    }
    pass
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_sweep_has_its_reference_line() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
        let workloads = [unreduced(&root), reduced(&root), durable(&root)];
        for w in workloads {
            for sweep in w.expect("reference files readable").sweeps {
                assert!(sweep.expected.starts_with(&format!("explore: {} runs=", sweep.label)));
                assert_eq!(sweep.expected.ends_with("violations=1"), sweep.expect_violation);
            }
        }
    }
}
