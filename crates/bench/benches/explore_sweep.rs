//! E10 — bounded model-checking sweeps (`runtime::explore`).
//!
//! Two kinds of output:
//!
//! * **Deterministic state-count lines on stderr** — one
//!   `explore: <label> runs=… expansions=… visited=…` line per
//!   catalogued sweep, identical across runs, machines, optimization
//!   levels, *and explorer thread counts*. The CI determinism gate runs
//!   the benches twice and diffs exactly these lines, and additionally
//!   diffs an `MPCN_EXPLORE_THREADS=1` run against an
//!   `MPCN_EXPLORE_THREADS=2` run; further gates re-run the catalogue
//!   with one reduction flag cleared per mode — `MPCN_EXPLORE_DPOR=0`,
//!   `MPCN_EXPLORE_VIEWSUM=0`, `MPCN_EXPLORE_SYMM=0` — and assert the
//!   *verdict* fields (`complete=…/violations=…`) of every sweep match
//!   the full-reduction run — state counts legitimately differ between
//!   reduction sets. The storage gate re-runs the catalogue under
//!   `MPCN_EXPLORE_SPILL=1` (every sweep through a disk-backed
//!   `SpillStore`) and diffs the *whole* lines against the in-memory
//!   run — storage is policy and must be invisible. The CI golden-baseline gate additionally diffs a
//!   `threads=1` run against the committed
//!   `tests/golden/explore_catalogue.txt`. Baselines are recorded in
//!   ROADMAP.md; `docs/EXPLORER.md` catalogues every environment knob
//!   and stderr counter.
//! * **Wall time** of pruned sweeps under `threads = 1` and
//!   `threads = k` — the parallel-speedup measure (the vendored
//!   criterion shim reports mean/min/p50/p99, so tail latency is
//!   visible). On a single-core runner the thread counts tie; the
//!   deterministic lines above are identical either way.
//!
//! With `MPCN_BENCH_JSON=<path>` set, the catalogue additionally
//! appends one JSON object per sweep to `<path>` — label, every
//! summary counter, verdict, and the sweep's wall-clock milliseconds
//! (the only non-deterministic field) — the machine-readable
//! trajectory CI uploads as the `BENCH_explore.json` artifact.
//!
//! Worker count for the catalogued sweeps: `MPCN_EXPLORE_THREADS`
//! (default 2); reduction set: `MPCN_EXPLORE_DPOR` /
//! `MPCN_EXPLORE_VIEWSUM` / `MPCN_EXPLORE_SYMM` (default full — DPOR
//! footprints, observation quotient, view summaries, pid-symmetry
//! quotient). Every mode runs all 14 sweeps. The fig1 sweeps declare
//! `FIG1_SYMMETRY`; fig5/fig6 declare no spec and print identical lines
//! in every symmetry mode. The flagship `fig1 n=5 pruned` sweep (the
//! ROADMAP "Figure 1 at n = 5" milestone) runs under a 2 048-node
//! resident ceiling with 8-layer checkpoints. The fault-tolerance sweeps
//! (`fig1 n=5 f=1` / `n=4 f=2`) run under `Crashes::UpTo(f)` and the
//! weak-memory sweeps under `Explorer::tso` (x86-TSO store buffers);
//! the `fig1 n=3 tso` sweep is an **expected counterexample** (unfenced
//! safe agreement is not safe under TSO — `explore_sweeps.rs` pins the
//! exact choice vector), so its line deterministically reports
//! `violations=1` and the bench asserts the violation *is* found rather
//! than absent.

use criterion::{criterion_group, criterion_main, Criterion};
use mpcn_agreement::fixtures::{
    check_agreement, check_winners, fig1_bodies, fig5_bodies, fig6_bodies, FIG1_SYMMETRY,
};
use mpcn_runtime::explore::{
    reduction_from_env, spill_from_env, threads_from_env, ExploreLimits, ExploreReport, Explorer,
    Reduction,
};
use mpcn_runtime::sched::Crashes;
use std::hint::black_box;
use std::io::Write;
use std::path::PathBuf;

fn limits(max_expansions: u64, max_depth: usize) -> ExploreLimits {
    ExploreLimits { max_expansions, max_steps: 2_000, max_depth }
}

/// Under `MPCN_EXPLORE_SPILL=1`, route the sweep through a `SpillStore`
/// in its own directory beneath `base`; otherwise leave it in memory.
/// The CI spill gate diffs the resulting lines against the in-memory
/// run — storage must be invisible in every printed field.
fn maybe_spill(ex: Explorer, base: &Option<PathBuf>, label: &str) -> Explorer {
    match base {
        Some(b) => {
            let slug: String =
                label.chars().map(|c| if c.is_ascii_alphanumeric() { c } else { '-' }).collect();
            ex.spill_to(b.join(slug)).fixture_id(label)
        }
        None => ex,
    }
}

/// One catalogued sweep: its deterministic report plus its wall-clock
/// milliseconds (reported only through the `MPCN_BENCH_JSON` trajectory
/// — never on the determinism-gated stderr lines).
struct Sweep {
    label: &'static str,
    report: ExploreReport,
    wall_ms: u128,
    /// `true` for sweeps whose catalogued point *is* a counterexample
    /// (the unfenced fig1 object under TSO): the bench asserts the
    /// violation is found, where every other sweep asserts its absence.
    expect_violation: bool,
}

fn run_timed(sweeps: &mut Vec<Sweep>, label: &'static str, f: impl FnOnce() -> ExploreReport) {
    let t0 = std::time::Instant::now();
    let report = f();
    sweeps.push(Sweep {
        label,
        report,
        wall_ms: t0.elapsed().as_millis(),
        expect_violation: false,
    });
}

fn run_timed_counterexample(
    sweeps: &mut Vec<Sweep>,
    label: &'static str,
    f: impl FnOnce() -> ExploreReport,
) {
    run_timed(sweeps, label, f);
    sweeps.last_mut().expect("just pushed").expect_violation = true;
}

/// The catalogued sweeps under `reduction`. Every report's summary line
/// must be identical on every invocation — no timing, no randomness, no
/// pointers, no thread-count dependence. (State counts *do* depend on
/// the reduction set; the DPOR/VIEWSUM/SYMM verdict gates compare only
/// the `complete=`/`violations=` fields across reduction modes.)
fn catalogue(threads: usize, reduction: Reduction) -> Vec<Sweep> {
    let spill = spill_from_env()
        .then(|| std::env::temp_dir().join(format!("mpcn-bench-spill-{}", std::process::id())));
    let mut sweeps = Vec::new();
    run_timed(&mut sweeps, "fig1 n=3 pruned", || {
        maybe_spill(
            Explorer::new(3)
                .threads(threads)
                .reduction(reduction)
                .symmetry(FIG1_SYMMETRY)
                .limits(limits(2_000_000, usize::MAX)),
            &spill,
            "fig1 n=3 pruned",
        )
        .run(|| fig1_bodies(3, 1), |r| check_agreement(r, 3, false))
    });
    run_timed(&mut sweeps, "fig1 n=3 unpruned", || {
        maybe_spill(
            Explorer::new(3)
                .threads(threads)
                .limits(limits(2_000_000, usize::MAX))
                .reduction(Reduction::none()),
            &spill,
            "fig1 n=3 unpruned",
        )
        .run(|| fig1_bodies(3, 1), |r| check_agreement(r, 3, false))
    });
    run_timed(&mut sweeps, "fig1 n=3 crash(0@1) pruned", || {
        // The crash plan names a pid, so the symmetry quotient gates
        // itself off even though the spec is supplied — and says so:
        // under the full reduction set this line carries the explicit
        // `symm=off` marker (requested but self-disabled), which drops
        // out under `MPCN_EXPLORE_SYMM=0` along with the request. The
        // verdict fields are identical in every symmetry mode.
        maybe_spill(
            Explorer::new(3)
                .threads(threads)
                .reduction(reduction)
                .symmetry(FIG1_SYMMETRY)
                .crashes(Crashes::AtOwnStep(vec![(0, 1)]))
                .limits(limits(2_000_000, usize::MAX)),
            &spill,
            "fig1 n=3 crash(0@1) pruned",
        )
        .run(|| fig1_bodies(3, 1), |r| check_agreement(r, 3, false))
    });
    run_timed(&mut sweeps, "fig1 n=4 depth<=9 pruned", || {
        maybe_spill(
            Explorer::new(4)
                .threads(threads)
                .reduction(reduction)
                .symmetry(FIG1_SYMMETRY)
                .limits(limits(2_000_000, 9)),
            &spill,
            "fig1 n=4 depth<=9 pruned",
        )
        .run(|| fig1_bodies(4, 1), |r| check_agreement(r, 4, false))
    });
    run_timed(&mut sweeps, "fig5 n=4 x=2 pruned", || {
        maybe_spill(
            Explorer::new(4)
                .threads(threads)
                .reduction(reduction)
                .limits(limits(500_000, usize::MAX)),
            &spill,
            "fig5 n=4 x=2 pruned",
        )
        .run(|| fig5_bodies(4, 2), |r| check_winners(r, 4, 2))
    });
    run_timed(&mut sweeps, "fig6 n=3 x=2 pruned", || {
        maybe_spill(
            Explorer::new(3)
                .threads(threads)
                .reduction(reduction)
                .limits(limits(1_000_000, usize::MAX)),
            &spill,
            "fig6 n=3 x=2 pruned",
        )
        .run(|| fig6_bodies(3, 2, 1), |r| check_agreement(r, 3, false))
    });
    run_timed(&mut sweeps, "fig6 n=4 x=2 pruned", || {
        maybe_spill(
            Explorer::new(4)
                .threads(threads)
                .reduction(reduction)
                .limits(limits(2_000_000, usize::MAX)),
            &spill,
            "fig6 n=4 x=2 pruned",
        )
        .run(|| fig6_bodies(4, 2, 1), |r| check_agreement(r, 4, false))
    });
    // The "Figure 1 at n = 4" milestone. `explore_sweeps.rs` pins this
    // exact line.
    run_timed(&mut sweeps, "fig1 n=4 pruned", || {
        maybe_spill(
            Explorer::new(4)
                .threads(threads)
                .reduction(reduction)
                .symmetry(FIG1_SYMMETRY)
                .limits(limits(2_000_000, usize::MAX)),
            &spill,
            "fig1 n=4 pruned",
        )
        .run(|| fig1_bodies(4, 1), |r| check_agreement(r, 4, false))
    });
    // The ROADMAP "Figure 1 at n = 5" milestone. Runs the bounded-memory
    // frontier with a 2 048-node ceiling + 8-layer checkpoints (binding
    // once symmetry is off), so eviction and anchored rehydration are
    // exercised by the CI gates; eviction is a memory policy, so the
    // printed line is identical to an unbounded sweep's.
    // `explore_sweeps.rs` pins this exact line.
    run_timed(&mut sweeps, "fig1 n=5 pruned", || {
        maybe_spill(
            Explorer::new(5)
                .threads(threads)
                .reduction(reduction)
                .symmetry(FIG1_SYMMETRY)
                .limits(limits(60_000_000, usize::MAX))
                .resident_ceiling(2_048)
                .checkpoint_every(8),
            &spill,
            "fig1 n=5 pruned",
        )
        .run(|| fig1_bodies(5, 1), |r| check_agreement(r, 5, false))
    });
    // The fault-tolerance sweeps: `Crashes::UpTo(f)` turns every crash
    // placement into an explicit frontier branch, so one sweep exhausts
    // the whole fault-tolerance envelope with every reduction live — the
    // pid-symmetry quotient included (`UpTo` names no process).
    // `explore_sweeps.rs` pins both exact lines.
    run_timed(&mut sweeps, "fig1 n=5 f=1 pruned", || {
        maybe_spill(
            Explorer::new(5)
                .threads(threads)
                .reduction(reduction)
                .symmetry(FIG1_SYMMETRY)
                .crashes(Crashes::UpTo(1))
                .limits(limits(60_000_000, usize::MAX))
                .resident_ceiling(2_048)
                .checkpoint_every(8),
            &spill,
            "fig1 n=5 f=1 pruned",
        )
        .run(|| fig1_bodies(5, 1), |r| check_agreement(r, 5, false))
    });
    run_timed(&mut sweeps, "fig1 n=4 f=2 pruned", || {
        maybe_spill(
            Explorer::new(4)
                .threads(threads)
                .reduction(reduction)
                .symmetry(FIG1_SYMMETRY)
                .crashes(Crashes::UpTo(2))
                .limits(limits(60_000_000, usize::MAX))
                .resident_ceiling(2_048)
                .checkpoint_every(8),
            &spill,
            "fig1 n=4 f=2 pruned",
        )
        .run(|| fig1_bodies(4, 1), |r| check_agreement(r, 4, false))
    });
    // The weak-memory sweeps: `Explorer::tso` adds per-process FIFO store
    // buffers, with every flush an explicit frontier branch.
    // `explore_sweeps.rs` pins the corresponding exact lines; the fig1
    // sweep is the pinned agreement *counterexample* (its line
    // deterministically ends `complete=false violations=1`).
    run_timed_counterexample(&mut sweeps, "fig1 n=3 tso pruned", || {
        maybe_spill(
            Explorer::new(3)
                .threads(threads)
                .reduction(reduction)
                .symmetry(FIG1_SYMMETRY)
                .tso(true)
                .limits(limits(10_000_000, usize::MAX)),
            &spill,
            "fig1 n=3 tso pruned",
        )
        .run(|| fig1_bodies(3, 1), |r| check_agreement(r, 3, false))
    });
    run_timed(&mut sweeps, "fig5 n=4 x=2 tso pruned", || {
        maybe_spill(
            Explorer::new(4)
                .threads(threads)
                .reduction(reduction)
                .tso(true)
                .limits(limits(500_000, usize::MAX)),
            &spill,
            "fig5 n=4 x=2 tso pruned",
        )
        .run(|| fig5_bodies(4, 2), |r| check_winners(r, 4, 2))
    });
    run_timed(&mut sweeps, "fig6 n=3 x=2 tso pruned", || {
        maybe_spill(
            Explorer::new(3)
                .threads(threads)
                .reduction(reduction)
                .tso(true)
                .limits(limits(10_000_000, usize::MAX)),
            &spill,
            "fig6 n=3 x=2 tso pruned",
        )
        .run(|| fig6_bodies(3, 2, 1), |r| check_agreement(r, 3, false))
    });
    if let Some(base) = &spill {
        let _ = std::fs::remove_dir_all(base);
    }
    sweeps
}

/// One machine-readable trajectory record: the sweep's label, every
/// summary counter, the verdict fields, and wall-clock milliseconds.
/// Labels contain no characters that need JSON escaping.
fn json_line(sweep: &Sweep) -> String {
    let s = &sweep.report.stats;
    format!(
        "{{\"label\":\"{}\",\"runs\":{},\"expansions\":{},\"visited\":{},\"pruned\":{},\
         \"sleep\":{},\"dpor\":{},\"qhits\":{},\"symm_enabled\":{},\"symm\":{},\
         \"crashcount_enabled\":{},\"crashes\":{},\"tso_enabled\":{},\"flushes\":{},\
         \"max_depth\":{},\"depth_limited\":{},\"complete\":{},\"violations\":{},\
         \"wall_ms\":{}}}",
        sweep.label,
        s.runs,
        s.expansions,
        s.states_visited,
        s.states_pruned,
        s.sleep_skips,
        s.dpor_skips,
        s.quotient_hits,
        s.symm_enabled,
        s.symm_hits,
        s.crashcount_enabled,
        s.crash_branches,
        s.tso_enabled,
        s.flush_branches,
        s.max_depth,
        s.depth_limited_runs,
        sweep.report.complete,
        sweep.report.violations.len(),
        sweep.wall_ms
    )
}

fn sweeps(c: &mut Criterion) {
    let threads = threads_from_env(2);
    let reduction = reduction_from_env();
    let mut json = std::env::var_os("MPCN_BENCH_JSON").map(|p| {
        std::fs::File::create(&p)
            .unwrap_or_else(|e| panic!("MPCN_BENCH_JSON: cannot create {p:?}: {e}"))
    });
    for sweep in catalogue(threads, reduction) {
        if sweep.expect_violation {
            assert!(
                !sweep.report.violations.is_empty(),
                "{}: the pinned weak-memory counterexample must be found",
                sweep.label
            );
        } else {
            sweep.report.assert_no_violation();
        }
        eprintln!("{}", sweep.report.summary_line(sweep.label));
        if let Some(f) = &mut json {
            writeln!(f, "{}", json_line(&sweep)).expect("MPCN_BENCH_JSON: write failed");
        }
    }

    let mut g = c.benchmark_group("explore");
    g.sample_size(10);
    g.bench_function("fig5_n3_x2_pruned_sweep", |b| {
        b.iter(|| {
            let out = Explorer::new(3)
                .limits(limits(500_000, usize::MAX))
                .run(|| fig5_bodies(3, 2), |r| check_winners(r, 3, 2));
            black_box(out.stats.states_visited)
        })
    });
    g.bench_function("fig1_n2_pruned_sweep", |b| {
        b.iter(|| {
            let out = Explorer::new(2)
                .limits(limits(500_000, usize::MAX))
                .run(|| fig1_bodies(2, 1), |r| check_agreement(r, 2, false));
            black_box(out.stats.states_visited)
        })
    });
    // Parallel speedup: the same exhaustive fig6 n=4 sweep under 1 worker
    // and under the env-selected worker count. The deterministic lines
    // above prove both produce identical reports; this pair measures what
    // the extra workers buy in wall time. At this group's sample_size of
    // 10 the printed p99 is just the maximum (nearest rank) — the real
    // tail comes from the 100-sample n=3 pair below.
    for (label, k) in [("fig6_n4_x2_sweep_t1", 1), ("fig6_n4_x2_sweep_tk", threads)] {
        g.bench_function(label, |b| {
            b.iter(|| {
                let out = Explorer::new(4)
                    .threads(k)
                    .limits(limits(2_000_000, usize::MAX))
                    .run(|| fig6_bodies(4, 2, 1), |r| check_agreement(r, 4, false));
                black_box(out.stats.states_visited)
            })
        });
    }
    g.finish();

    // Tail latency of the parallel frontier: the (fast) exhaustive fig6
    // n=3 sweep at 100 samples, where the shim's nearest-rank p99 is a
    // real 99th percentile — worker scheduling jitter shows up here
    // first (vendor/README.md documents the line format).
    let mut tail = c.benchmark_group("explore_tail");
    tail.sample_size(100);
    for (label, k) in [("fig6_n3_x2_sweep_t1", 1), ("fig6_n3_x2_sweep_tk", threads)] {
        tail.bench_function(label, |b| {
            b.iter(|| {
                let out = Explorer::new(3)
                    .threads(k)
                    .limits(limits(1_000_000, usize::MAX))
                    .run(|| fig6_bodies(3, 2, 1), |r| check_agreement(r, 3, false));
                black_box(out.stats.states_visited)
            })
        });
    }
    tail.finish();
}

criterion_group!(benches, sweeps);
criterion_main!(benches);
