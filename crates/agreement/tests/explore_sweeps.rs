//! Model-checking sweeps of the paper's object types (ROADMAP "Explorer
//! scale-up" / "Figure 1 at n = 5"; architecture guide in
//! `docs/EXPLORER.md`):
//!
//! * Figure 1 safe agreement, `n = 3..6` — **exhaustive through
//!   `n = 5`** (DPOR footprint commutation + the observation quotient +
//!   the declared view summaries of `SafeAgreement`; the `n = 4` and
//!   `n = 5` sweeps pin exact state-count baselines, and summary-off and
//!   symmetry-off sweeps pin that clearing one `Reduction` flag
//!   reproduces the earlier engines' lines byte for byte). `n = 6` is
//!   also exhaustible
//!   (~20 s release) — pinned by an `#[ignore]`d release-scale test
//!   that runs through a disk-backed `SpillStore` under a binding
//!   resident ceiling (the storage layer at its design scale);
//! * Figure 5 `x_compete`, `n = 3..5` — exhaustive at `n = 3, 4`,
//!   bounded-depth at `n = 5`;
//! * Figure 6 x-safe agreement, `n = 3..5` — exhaustive at `n = 3, 4`
//!   (the `n = 4` sweep additionally pins that `threads = 1` and
//!   `threads = 2` produce byte-identical reports, the bounded
//!   frontier that an artificially tiny snapshot ceiling is invisible,
//!   and the storage layer that a disk-spilled sweep reproduces the
//!   in-memory line byte for byte), bounded-depth at `n = 5`;
//! * a crash-schedule matrix: `fig1 n = 3` with a crash at every
//!   `(process, step)` pair, DPOR on vs off, verdicts cross-checked
//!   against the gated-replay oracle — plus a crash-count differential
//!   pinning that one `Crashes::UpTo(1)` sweep reproduces the exact
//!   outcome union of the whole matrix;
//! * fault-tolerance sweeps (ROADMAP "crash-count adversary"):
//!   `fig1 n = 5, f = 1` and `n = 4, f = 2` under `Crashes::UpTo(f)` —
//!   every crash placement explored as explicit frontier branches,
//!   exhausted with every reduction live, the pid-symmetry quotient
//!   included, exact state counts pinned;
//! * weak-memory sweeps (`Explorer::tso`, x86-TSO store buffers):
//!   Figure 1 at `n = 3, 4` — where unfenced safe agreement **breaks**
//!   (every process's propose parks in its own store buffer, its scan
//!   forwards only its own write, and all `n` decide their own
//!   proposals); the exact counterexample choice vectors and the
//!   sweep lines up to their discovery are pinned and replayed through
//!   the gated engine — plus Figure 5 at `n = 3, 4` and Figure 6 at
//!   `n = 3`, which stay correct under TSO (their test&set / x-consensus
//!   steps fence), exhausted and pinned.
//!
//! The deterministic state-count lines these sweeps produce are also
//! printed by `crates/bench/benches/explore_sweep.rs` and diffed by the
//! CI determinism gate (including across explorer thread counts, and
//! across the `MPCN_EXPLORE_DPOR` / `MPCN_EXPLORE_VIEWSUM` /
//! `MPCN_EXPLORE_SYMM` modes for the verdict fields —
//! `docs/EXPLORER.md` catalogues every knob); the baselines are
//! recorded in ROADMAP.md and EXPERIMENTS.md.

use mpcn_agreement::fixtures::{
    check_agreement, check_winners, fig1_bodies, fig5_bodies, fig6_bodies, FIG1_SYMMETRY,
};
use mpcn_runtime::explore::{
    explore, replay, threads_from_env, ExploreLimits, Explorer, Reduction,
};
use mpcn_runtime::model_world::RunReport;
use mpcn_runtime::sched::Crashes;

/// The acceptance sweep: the Figure 1 object at `n = 3`, exhaustively.
/// The pruned frontier search must complete, find nothing, and visit
/// strictly fewer states (and check strictly fewer runs) than the
/// unpruned reference over the same tree.
#[test]
fn fig1_n3_pruned_sweep_beats_unpruned_reference() {
    let limits =
        ExploreLimits { max_expansions: 2_000_000, max_steps: 1_000, ..Default::default() };
    let pruned =
        Explorer::new(3).limits(limits).run(|| fig1_bodies(3, 1), |r| check_agreement(r, 3, true));
    pruned.assert_no_violation();
    assert!(pruned.complete, "pruned sweep must exhaust the tree ({} runs)", pruned.runs());
    assert!(pruned.stats.states_pruned > 0, "prefix pruning must fire at n = 3");

    let unpruned =
        explore(3, Crashes::None, limits, || fig1_bodies(3, 1), |r| check_agreement(r, 3, true));
    unpruned.assert_no_violation();
    assert!(unpruned.complete);

    assert!(
        pruned.stats.states_visited < unpruned.stats.states_visited,
        "pruning must visit strictly fewer states ({} !< {})",
        pruned.stats.states_visited,
        unpruned.stats.states_visited
    );
    assert!(
        pruned.runs() < unpruned.runs(),
        "pruning must check strictly fewer runs ({} !< {})",
        pruned.runs(),
        unpruned.runs()
    );
}

/// The Figure 1 `n = 4` sweep under the full reduction set, now
/// including the pid-symmetry quotient declared by `FIG1_SYMMETRY`:
/// 906 expansions where the symmetry-free engine needed 10 212 — ~11×,
/// approaching the `4! = 24` orbit bound — with zero violations, the
/// exact state counts pinned as the recorded baseline (the
/// `explore_sweep` bench prints the same line; ROADMAP.md and
/// EXPERIMENTS.md record it).
#[test]
fn fig1_n4_exhaustive_baseline() {
    let out = Explorer::new(4)
        .threads(threads_from_env(2))
        .symmetry(FIG1_SYMMETRY)
        .limits(ExploreLimits { max_expansions: 2_000_000, max_steps: 2_000, ..Default::default() })
        .run(|| fig1_bodies(4, 1), |r| check_agreement(r, 4, true));
    out.assert_no_violation();
    assert!(out.complete, "fig1 n = 4 must exhaust ({} runs)", out.runs());
    assert_eq!(
        out.stats.summary(),
        "runs=29 expansions=906 visited=505 pruned=401 sleep=155 dpor=71 qhits=328 symm=327 \
         max_depth=16 depth_limited=0 branching=[0,104,162,140,71]",
        "fig1 n = 4 symmetry baseline drifted"
    );
}

/// The symmetry-off differential anchor: clearing
/// [`Reduction::symmetry`] must reproduce the symmetry-free `n = 4`
/// baseline **byte for byte** even with the spec supplied — the quotient
/// changes only state *identity*, so switching it off restores the
/// pre-symmetry engine's exact search shape, `symm=` field absent and
/// all (the mode `MPCN_EXPLORE_SYMM=0` selects for the whole bench
/// catalogue).
#[test]
fn fig1_n4_symm_off_reproduces_pr5_baseline() {
    let out = Explorer::new(4)
        .threads(threads_from_env(2))
        .reduction(Reduction { symmetry: false, ..Reduction::full() })
        .symmetry(FIG1_SYMMETRY)
        .limits(ExploreLimits { max_expansions: 2_000_000, max_steps: 2_000, ..Default::default() })
        .run(|| fig1_bodies(4, 1), |r| check_agreement(r, 4, true));
    out.assert_no_violation();
    assert!(out.complete, "fig1 n = 4 must exhaust without symmetry too");
    assert_eq!(
        out.stats.summary(),
        "runs=221 expansions=10212 visited=6248 pruned=3964 sleep=2807 dpor=1361 qhits=3549 \
         max_depth=16 depth_limited=0 branching=[0,1136,2184,1956,752]",
        "symmetry-off mode must reproduce the PR 5/6 fig1 n = 4 baseline"
    );
}

/// The summary-off differential anchor: clearing
/// [`Reduction::view_summaries`] must reproduce the summary-free `n = 4`
/// baseline **byte for byte** — the declared summaries change how
/// observations are *folded*, never what the program does, so switching
/// them off restores the summary-free engine's exact search shape. No
/// symmetry spec is supplied, so the symmetry flag has nothing to act
/// on (the bench catalogue's `MPCN_EXPLORE_VIEWSUM=0` mode keeps the
/// spec and hence prints a different, symmetry-reduced line).
#[test]
fn fig1_n4_viewsum_off_reproduces_pr4_baseline() {
    let out = Explorer::new(4)
        .threads(threads_from_env(2))
        .reduction(Reduction { view_summaries: false, ..Reduction::full() })
        .limits(ExploreLimits { max_expansions: 2_000_000, max_steps: 2_000, ..Default::default() })
        .run(|| fig1_bodies(4, 1), |r| check_agreement(r, 4, true));
    out.assert_no_violation();
    assert!(out.complete, "fig1 n = 4 must exhaust without summaries too");
    assert_eq!(
        out.stats.summary(),
        "runs=221 expansions=397070 visited=168174 pruned=228896 sleep=85521 dpor=38233 \
         qhits=228896 max_depth=16 depth_limited=0 branching=[0,5304,31614,71852,59184]",
        "summary-off mode must reproduce the PR 4 fig1 n = 4 baseline"
    );
}

/// The Figure 1 scale-up milestone (ROADMAP "Figure 1 at `n = 5`"):
/// safe agreement at `n = 5` — 5 proposers, schedule depth 20 — is
/// **exhausted** in 3 345 expansions under the full reduction set with
/// the pid-symmetry quotient (~37× below the 122 727 of the symmetry-
/// free engine, approaching the `5! = 120` orbit bound). Runs under the
/// same 2 048-node resident ceiling and 8-layer checkpoint stride as
/// the bench catalogue — no longer binding at this size (the symmetry-
/// off anchor below keeps the mass-eviction pin) — and the exact state
/// counts are pinned (the `explore_sweep` bench prints the same line).
#[test]
fn fig1_n5_exhaustive_symm_baseline() {
    let out = Explorer::new(5)
        .threads(threads_from_env(2))
        .symmetry(FIG1_SYMMETRY)
        .limits(ExploreLimits {
            max_expansions: 60_000_000,
            max_steps: 2_000,
            ..Default::default()
        })
        .resident_ceiling(2_048)
        .checkpoint_every(8)
        .run(|| fig1_bodies(5, 1), |r| check_agreement(r, 5, true));
    out.assert_no_violation();
    assert!(out.complete, "fig1 n = 5 must exhaust ({} runs)", out.runs());
    assert_eq!(
        out.stats.summary(),
        "runs=54 expansions=3345 visited=1542 pruned=1803 sleep=616 dpor=324 qhits=1599 \
         symm=1601 max_depth=20 depth_limited=0 branching=[0,208,380,434,320,147]",
        "fig1 n = 5 symmetry baseline drifted"
    );
    assert!(
        out.stats.max_rehydration_replay <= 8,
        "anchored rehydration must replay at most checkpoint_every decisions ({})",
        out.stats.max_rehydration_replay
    );
}

/// The symmetry-off `n = 5` anchor: clearing [`Reduction::symmetry`]
/// reproduces the symmetry-free view-summary milestone line byte for
/// byte, under the same deliberately binding 2 048-node resident ceiling
/// and 8-layer checkpoint stride — so mass eviction and anchored
/// rehydration stay pinned at a width where the ceiling actually binds.
#[test]
fn fig1_n5_symm_off_reproduces_pr5_baseline() {
    let out = Explorer::new(5)
        .threads(threads_from_env(2))
        .reduction(Reduction { symmetry: false, ..Reduction::full() })
        .symmetry(FIG1_SYMMETRY)
        .limits(ExploreLimits {
            max_expansions: 60_000_000,
            max_steps: 2_000,
            ..Default::default()
        })
        .resident_ceiling(2_048)
        .checkpoint_every(8)
        .run(|| fig1_bodies(5, 1), |r| check_agreement(r, 5, true));
    out.assert_no_violation();
    assert!(out.complete, "fig1 n = 5 must exhaust without symmetry too");
    assert_eq!(
        out.stats.summary(),
        "runs=956 expansions=122727 visited=62464 pruned=60263 sleep=38869 dpor=19999 \
         qhits=56216 max_depth=20 depth_limited=0 branching=[0,6055,15390,20390,14780,4894]",
        "symmetry-off mode must reproduce the PR 5 fig1 n = 5 baseline"
    );
    assert!(out.stats.evicted > 10_000, "the 2 048-node ceiling must evict en masse");
    assert!(
        out.stats.max_rehydration_replay <= 8,
        "anchored rehydration must replay at most checkpoint_every decisions ({})",
        out.stats.max_rehydration_replay
    );
}

/// One scale step past the milestone under the symmetry quotient:
/// `n = 6` (depth 24) exhausts in seconds even in debug — where the
/// symmetry-free engine needs ~1.37M expansions and `#[ignore]`d
/// release scale (the test below) — so the exact line is pinned in the
/// tier-1 suite.
#[test]
fn fig1_n6_exhaustive_symm_baseline() {
    let out = Explorer::new(6)
        .threads(threads_from_env(2))
        .symmetry(FIG1_SYMMETRY)
        .limits(ExploreLimits {
            max_expansions: 60_000_000,
            max_steps: 5_000,
            ..Default::default()
        })
        .run(|| fig1_bodies(6, 1), |r| check_agreement(r, 6, true));
    out.assert_no_violation();
    assert!(out.complete, "fig1 n = 6 must exhaust ({} runs)", out.runs());
    assert_eq!(
        out.stats.summary(),
        "runs=90 expansions=10399 visited=4062 pruned=6337 sleep=1967 dpor=1165 qhits=5846 \
         symm=5890 max_depth=24 depth_limited=0 branching=[0,365,738,992,956,642,280]",
        "fig1 n = 6 symmetry baseline drifted"
    );
}

/// One scale step beyond the milestone: `n = 6` (depth 24) is also
/// exhaustible under the view summaries — ~1.37M expansions, ~20 s
/// release — but too heavy for the debug-mode tier-1 suite, so the
/// exact baseline is pinned behind `#[ignore]`. The sweep runs through
/// a disk-backed `SpillStore` with a resident ceiling far below the
/// widest layer: checkpoint snapshots live in the segment file (a
/// spilling store drops the in-memory engine's checkpoint eviction
/// exemption), so this is the storage layer at its design scale — and
/// the pinned line proves the disk is invisible in the report.
/// Reproduce with
/// `cargo test --release -p mpcn-agreement --test explore_sweeps -- \
/// --ignored fig1_n6`.
#[test]
#[ignore = "release-scale sweep (~20 s release, minutes debug); run explicitly with --ignored"]
fn fig1_n6_exhaustive_viewsum_spill_baseline() {
    let dir = std::env::temp_dir().join(format!("mpcn-fig1-n6-spill-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let out = Explorer::new(6)
        .threads(threads_from_env(2))
        .limits(ExploreLimits {
            max_expansions: 60_000_000,
            max_steps: 5_000,
            ..Default::default()
        })
        .resident_ceiling(50_000)
        .checkpoint_every(8)
        .spill_to(&dir)
        .fixture_id("fig1 n=6 viewsum")
        .run(|| fig1_bodies(6, 1), |r| check_agreement(r, 6, true));
    out.assert_no_violation();
    assert!(out.complete, "fig1 n = 6 must exhaust ({} runs)", out.runs());
    assert_eq!(
        out.stats.summary(),
        "runs=3963 expansions=1370196 visited=597940 pruned=772256 sleep=476312 dpor=257518 \
         qhits=737210 max_depth=24 depth_limited=0 \
         branching=[0,29916,94350,162840,169230,105882,31760]",
        "fig1 n = 6 view-summary baseline drifted"
    );
    assert!(out.stats.spilled > 0, "checkpoint layers must spill to the segment file");
    assert!(out.stats.store_reads > 0, "the binding ceiling must rehydrate from disk");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Two scale steps past the milestone: `n = 7` — 7 proposers, schedule
/// depth 28, a tree the symmetry-free engine cannot touch (the `n = 6`
/// sweep already needed 1.37M expansions; `n = 7` would be well beyond
/// 10M) — is **exhausted** under the pid-symmetry quotient, through a
/// disk-backed `SpillStore` with a deliberately binding 256-node
/// resident ceiling: the storage layer and the symmetry quotient at
/// their combined design scale, canonical fingerprints surviving
/// spill-encode/decode byte-stably. Reproduce with
/// `cargo test --release -p mpcn-agreement --test explore_sweeps -- \
/// --ignored fig1_n7`.
#[test]
#[ignore = "release-scale sweep (seconds release, minutes debug); run explicitly with --ignored"]
fn fig1_n7_exhaustive_symm_spill_baseline() {
    let dir = std::env::temp_dir().join(format!("mpcn-fig1-n7-spill-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let out = Explorer::new(7)
        .threads(threads_from_env(2))
        .symmetry(FIG1_SYMMETRY)
        .limits(ExploreLimits {
            max_expansions: 60_000_000,
            max_steps: 5_000,
            ..Default::default()
        })
        .resident_ceiling(256)
        .checkpoint_every(8)
        .spill_to(&dir)
        .fixture_id("fig1 n=7 symm")
        .run(|| fig1_bodies(7, 1), |r| check_agreement(r, 7, true));
    out.assert_no_violation();
    assert!(out.complete, "fig1 n = 7 must exhaust ({} runs)", out.runs());
    assert_eq!(
        out.stats.summary(),
        "runs=139 expansions=28312 visited=9565 pruned=18747 sleep=5369 dpor=3527 qhits=17690 \
         symm=17880 max_depth=28 depth_limited=0 \
         branching=[0,586,1271,1898,2144,1856,1174,498]",
        "fig1 n = 7 symmetry baseline drifted"
    );
    assert!(out.stats.spilled > 0, "checkpoint layers must spill to the segment file");
    assert!(out.stats.store_reads > 0, "the binding ceiling must rehydrate from disk");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Figure 5 sweeps: exhaustive at `n = 3, 4`; depth bounded at `n = 5`.
#[test]
fn fig5_x_compete_sweeps_n3_to_n5() {
    for (n, x) in [(3usize, 2u32), (4, 2)] {
        let out = Explorer::new(n)
            .limits(ExploreLimits {
                max_expansions: 500_000,
                max_steps: 1_000,
                ..Default::default()
            })
            .run(|| fig5_bodies(n, x), move |r| check_winners(r, n, x));
        out.assert_no_violation();
        assert!(out.complete, "n = {n} x = {x} must exhaust ({} runs)", out.runs());
    }
    let out = Explorer::new(5)
        .limits(ExploreLimits { max_expansions: 400_000, max_steps: 1_000, max_depth: 7 })
        .run(|| fig5_bodies(5, 2), |r| check_winners(r, 5, 2));
    out.assert_no_violation();
    assert!(out.stats.depth_limited_runs > 0);
}

/// Figure 6 sweeps: exhaustive at `n = 3`; depth bounded at `n = 5`
/// (`n = 4` is exhausted by the parallel sweep below).
#[test]
fn fig6_x_safe_agreement_sweeps_n3_and_n5() {
    let out = Explorer::new(3)
        .limits(ExploreLimits { max_expansions: 1_000_000, max_steps: 2_000, ..Default::default() })
        .run(|| fig6_bodies(3, 2, 1), |r| check_agreement(r, 3, true));
    out.assert_no_violation();
    assert!(out.complete, "n = 3 x = 2 must exhaust ({} runs)", out.runs());

    let out = Explorer::new(5)
        .limits(ExploreLimits { max_expansions: 400_000, max_steps: 2_000, max_depth: 5 })
        .run(|| fig6_bodies(5, 2, 1), |r| check_agreement(r, 5, true));
    out.assert_no_violation();
    assert!(out.stats.depth_limited_runs > 0, "the bound must bind (n = 5)");
}

/// The Figure 6 scale-up milestone: `n = 4, x = 2` exhausted — and the
/// parallel frontier is invisible: `threads = 1` and `threads = 2`
/// produce byte-identical statistics (visited/pruned counts included)
/// and the same verdict.
#[test]
fn fig6_n4_exhaustive_is_thread_count_invariant() {
    let sweep = |threads: usize| {
        Explorer::new(4)
            .threads(threads)
            .limits(ExploreLimits {
                max_expansions: 2_000_000,
                max_steps: 2_000,
                ..Default::default()
            })
            .run(|| fig6_bodies(4, 2, 1), |r| check_agreement(r, 4, true))
    };
    let sequential = sweep(1);
    sequential.assert_no_violation();
    assert!(sequential.complete, "n = 4 x = 2 must exhaust ({} runs)", sequential.runs());
    let parallel = sweep(2);
    assert_eq!(sequential.stats, parallel.stats, "thread count must be invisible");
    assert_eq!(sequential.complete, parallel.complete);
    assert_eq!(sequential.violations.len(), parallel.violations.len());
}

/// The crash-schedule matrix: `fig1 n = 3` with a crash injected at
/// every `(process, step)` pair — every victim, every own-step position
/// in its 4-operation body — swept exhaustively with DPOR **on and off**
/// (every other reduction on). Verdicts must match pair for pair, and
/// both agree with the gated-replay oracle: any violation either sweep
/// found would be re-executed through the gated reference engine (the
/// explorer's built-in confirmation) before being reported, and the
/// canonical choice-0 schedule is additionally replayed gated here and
/// checked directly.
#[test]
fn fig1_n3_crash_matrix_dpor_matches_gated_oracle() {
    let limits =
        ExploreLimits { max_expansions: 2_000_000, max_steps: 1_000, ..Default::default() };
    for victim in 0..3usize {
        for crash_step in 0..4u64 {
            let crashes = Crashes::AtOwnStep(vec![(victim, crash_step)]);
            let sweep = |reduction: Reduction| {
                let c = crashes.clone();
                Explorer::new(3)
                    .crashes(c)
                    .reduction(reduction)
                    .limits(limits)
                    .run(|| fig1_bodies(3, 1), |r| check_agreement(r, 3, false))
            };
            let dpor = sweep(Reduction::full());
            let baseline = sweep(Reduction { dpor: false, ..Reduction::full() });
            dpor.assert_no_violation();
            baseline.assert_no_violation();
            assert_eq!(
                (dpor.complete, dpor.violations.len()),
                (baseline.complete, baseline.violations.len()),
                "verdicts must match for victim {victim} at step {crash_step}"
            );
            assert!(dpor.complete, "victim {victim} at step {crash_step} must exhaust");
            assert!(
                dpor.stats.expansions <= baseline.stats.expansions,
                "DPOR never adds work (victim {victim}, step {crash_step})"
            );
            // Gated-replay oracle, driven explicitly on the canonical
            // schedule: the reference engine agrees nothing is violated.
            let gated = replay(3, crashes, false, 1_000, || fig1_bodies(3, 1), &[]);
            assert!(
                check_agreement(&gated, 3, false).is_ok(),
                "gated oracle disagrees (victim {victim}, step {crash_step})"
            );
        }
    }
}

/// The crash-count differential on the real Figure 1 object: one
/// `Crashes::UpTo(1)` sweep must reproduce the **exact union** of
/// outcomes reachable by the 12-cell single-victim matrix above (every
/// victim, every own-step position) plus the crash-free sweep. The
/// outcome-signature checker deliberately errs on *every* run, so the
/// collected message set is the full reachable-outcome set — equality
/// is a semantic exhaustiveness proof over crash placements, not a
/// verdict coincidence (the matrix test above already pins the
/// verdict-level union: complete, zero `check_agreement` violations,
/// which the crash-count sweep reproduces since its outcome set is
/// exactly the matrix's).
#[test]
fn fig1_n3_crash_count_matches_single_victim_union() {
    let limits =
        ExploreLimits { max_expansions: 2_000_000, max_steps: 1_000, ..Default::default() };
    let signature = |r: &RunReport| {
        let mut decided = r.decided_values();
        decided.sort_unstable();
        Err(format!(
            "decided={decided:?} crashed={:?} undecided={:?}",
            r.crashed_pids(),
            r.undecided_pids()
        ))
    };
    let collect = |crashes: Crashes| {
        let out = Explorer::new(3)
            .crashes(crashes)
            .collect_all(true)
            .limits(limits)
            .run(|| fig1_bodies(3, 1), signature);
        assert!(out.complete || !out.violations.is_empty(), "the n = 3 tree must be exhausted");
        let mut msgs: Vec<String> = out.violations.iter().map(|v| v.message.clone()).collect();
        msgs.sort();
        msgs.dedup();
        (msgs, out)
    };

    // The oracle: the crash-free sweep plus every single-victim
    // `AtOwnStep` placement, own steps 0..=4 — one past the
    // 4-operation body, so a placement that can never fire degenerates
    // to the crash-free outcome set instead of being silently missed.
    let mut union: Vec<String> = collect(Crashes::None).0;
    for victim in 0..3usize {
        for crash_step in 0..=4u64 {
            union.extend(collect(Crashes::AtOwnStep(vec![(victim, crash_step)])).0);
        }
    }
    union.sort();
    union.dedup();

    let (counted, out) = collect(Crashes::UpTo(1));
    assert_eq!(counted, union, "UpTo(1) must reproduce the single-victim union exactly");
    assert!(out.stats.crash_branches > 0, "the crash band must actually branch");
    assert!(
        out.stats.summary().contains(" crashes="),
        "the summary must surface the crash-branch counter"
    );
}

/// The fault-tolerance milestone sweep: Figure 1 at `n = 5` under the
/// symmetric crash-count adversary with budget `f = 1` — every
/// placement of one crash at every park point, explored as explicit
/// crash branches in the same frontier — **exhausted with every
/// reduction live**, the pid-symmetry quotient included (`UpTo` names
/// no process, so the quotient stays sound; `docs/EXPLORER.md` §3.7
/// has the argument). Runs under the same 2 048-node resident ceiling
/// and 8-layer checkpoint stride as the bench catalogue, which prints
/// the same line.
#[test]
fn fig1_n5_f1_fault_tolerance_exhaustive_baseline() {
    let out = Explorer::new(5)
        .threads(threads_from_env(2))
        .symmetry(FIG1_SYMMETRY)
        .crashes(Crashes::UpTo(1))
        .limits(ExploreLimits {
            max_expansions: 60_000_000,
            max_steps: 2_000,
            ..Default::default()
        })
        .resident_ceiling(2_048)
        .checkpoint_every(8)
        .run(|| fig1_bodies(5, 1), |r| check_agreement(r, 5, false));
    out.assert_no_violation();
    assert!(out.complete, "fig1 n = 5 f = 1 must exhaust ({} runs)", out.runs());
    let summary = out.stats.summary();
    assert!(out.stats.symm_hits > 0, "the symmetry quotient must fire under UpTo: {summary}");
    assert!(out.stats.crash_branches > 0, "the crash band must branch: {summary}");
    assert_eq!(
        summary,
        "runs=241 expansions=8135 visited=4356 pruned=3779 sleep=878 dpor=5774 qhits=3479 \
         symm=3536 crashes=2072 max_depth=20 depth_limited=0 \
         branching=[0,797,1261,1196,715,147]",
        "fig1 n = 5 f = 1 fault-tolerance baseline drifted"
    );
}

/// The second fault-tolerance axis: Figure 1 at `n = 4` with crash
/// budget `f = 2` — every placement of up to two crashes, including
/// both orders of every crash pair, so the DPOR crash/crash and
/// op/crash commutation rules are exercised at a budget boundary —
/// exhausted under the full reduction set with the symmetry quotient
/// live. The bench catalogue prints the same line.
#[test]
fn fig1_n4_f2_fault_tolerance_exhaustive_baseline() {
    let out = Explorer::new(4)
        .threads(threads_from_env(2))
        .symmetry(FIG1_SYMMETRY)
        .crashes(Crashes::UpTo(2))
        .limits(ExploreLimits {
            max_expansions: 60_000_000,
            max_steps: 2_000,
            ..Default::default()
        })
        .resident_ceiling(2_048)
        .checkpoint_every(8)
        .run(|| fig1_bodies(4, 1), |r| check_agreement(r, 4, false));
    out.assert_no_violation();
    assert!(out.complete, "fig1 n = 4 f = 2 must exhaust ({} runs)", out.runs());
    let summary = out.stats.summary();
    assert!(out.stats.symm_hits > 0, "the symmetry quotient must fire under UpTo: {summary}");
    assert!(out.stats.crash_branches > 0, "the crash band must branch: {summary}");
    assert_eq!(
        summary,
        "runs=220 expansions=2671 visited=1741 pruned=930 sleep=202 dpor=2532 qhits=813 \
         symm=835 crashes=1065 max_depth=16 depth_limited=0 branching=[0,547,594,310,71]",
        "fig1 n = 4 f = 2 fault-tolerance baseline drifted"
    );
}

/// The weak-memory counterexample: under x86-TSO store buffers
/// ([`Explorer::tso`]) the **unfenced** Figure 1 safe agreement is no
/// longer safe. Every propose write parks in its issuer's store buffer;
/// the propose scan forwards the issuer's own buffered write but sees
/// nobody else's, so along the schedule that defers every flush each
/// process observes itself as the only stable proposal and decides its
/// own value — all three decide differently. The sweep line up to the
/// discovery, the exact counterexample choice vector (pure op-band:
/// every store still parked when the deciding scans run), and its
/// gated-engine replay are all pinned. The summary carries no `symm=`
/// field even though a spec is supplied: the quotient is gated off
/// under TSO (buffered keys are not relabeled — `docs/EXPLORER.md`
/// §3.8).
#[test]
fn fig1_n3_tso_agreement_counterexample_pinned_and_replayed() {
    let out = Explorer::new(3)
        .threads(threads_from_env(2))
        .symmetry(FIG1_SYMMETRY)
        .tso(true)
        .limits(ExploreLimits {
            max_expansions: 10_000_000,
            max_steps: 2_000,
            ..Default::default()
        })
        .run(|| fig1_bodies(3, 1), |r| check_agreement(r, 3, true));
    assert!(!out.complete, "a found counterexample ends the sweep early");
    let v = out.violation().expect("TSO must break unfenced safe agreement at n = 3");
    assert_eq!(v.message, "agreement violated: [100, 101, 102]");
    assert_eq!(v.choices, [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 2, 2]);
    assert_eq!(
        out.stats.summary(),
        "runs=1 expansions=12637 visited=5997 pruned=6393 sleep=473 dpor=4237 qhits=5799 \
         symm=off flushes=5149 max_depth=18 depth_limited=0 \
         branching=[0,659,1633,1955,1257,429,64]",
        "fig1 n = 3 TSO counterexample baseline drifted"
    );
    // Gated replay: the relaxed outcome reproduces — every process
    // decides its own proposal (encoded `v + 1`).
    let replayed = replay(3, Crashes::None, true, 2_000, || fig1_bodies(3, 1), &v.choices);
    assert_eq!(replayed.decided_values(), vec![101, 102, 103]);
    assert!(check_agreement(&replayed, 3, true).is_err(), "replay must reproduce the violation");
}

/// The `n = 4` weak-memory counterexample: same failure mode, one
/// scale step up — the relaxed outcome survives half a million
/// expansions of reduced search before being reached, which pins the
/// SC-vs-TSO blowup (906 expansions exhaust the SC tree with symmetry;
/// 10 212 without) recorded in EXPERIMENTS.md.
#[test]
fn fig1_n4_tso_agreement_counterexample_pinned_and_replayed() {
    let out = Explorer::new(4)
        .threads(threads_from_env(2))
        .symmetry(FIG1_SYMMETRY)
        .tso(true)
        .limits(ExploreLimits {
            max_expansions: 60_000_000,
            max_steps: 2_000,
            ..Default::default()
        })
        .run(|| fig1_bodies(4, 1), |r| check_agreement(r, 4, true));
    let v = out.violation().expect("TSO must break unfenced safe agreement at n = 4");
    assert_eq!(v.message, "agreement violated: [100, 101, 102, 103]");
    assert_eq!(v.choices, [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 2, 2, 3, 3]);
    assert_eq!(
        out.stats.summary(),
        "runs=1 expansions=515323 visited=203841 pruned=308832 sleep=17383 dpor=225681 \
         qhits=299475 symm=off flushes=214196 max_depth=24 depth_limited=0 \
         branching=[0,7808,28061,53743,58861,37884,14280,2948,256]",
        "fig1 n = 4 TSO counterexample baseline drifted"
    );
    let replayed = replay(4, Crashes::None, true, 2_000, || fig1_bodies(4, 1), &v.choices);
    assert_eq!(replayed.decided_values(), vec![101, 102, 103, 104]);
    assert!(check_agreement(&replayed, 4, true).is_err(), "replay must reproduce the violation");
}

/// Figure 5 under TSO: `x_compete` performs only fencing operations
/// (test&set and x-consensus — each drains its issuer's buffer), so
/// store buffers never hold a write, the flush band never opens
/// (`flushes=0`), and the object stays correct — exhausted at
/// `n = 3, 4` with the exact lines pinned.
#[test]
fn fig5_tso_sweeps_stay_correct_n3_and_n4() {
    let expected = [
        (
            3usize,
            "runs=3 expansions=33 visited=21 pruned=12 sleep=0 dpor=0 qhits=12 flushes=0 \
             max_depth=5 depth_limited=0 branching=[0,6,12,1]",
        ),
        (
            4,
            "runs=6 expansions=172 visited=86 pruned=86 sleep=0 dpor=0 qhits=86 flushes=0 \
             max_depth=7 depth_limited=0 branching=[0,24,24,32,1]",
        ),
    ];
    for (n, line) in expected {
        let out = Explorer::new(n)
            .threads(threads_from_env(2))
            .tso(true)
            .limits(ExploreLimits {
                max_expansions: 10_000_000,
                max_steps: 1_000,
                ..Default::default()
            })
            .run(move || fig5_bodies(n, 2), move |r| check_winners(r, n, 2));
        out.assert_no_violation();
        assert!(out.complete, "fig5 n = {n} must exhaust under TSO ({} runs)", out.runs());
        assert_eq!(out.stats.flush_branches, 0, "x_compete must never buffer a store");
        assert_eq!(out.stats.summary(), line, "fig5 n = {n} TSO baseline drifted");
    }
}

/// Figure 6 under TSO: x-safe agreement *does* buffer plain register
/// writes (the flush band branches 1 209 times), yet stays correct —
/// its decisions flow through x-consensus objects, whose fencing steps
/// order the buffered state before any decision is read. Exhausted at
/// `n = 3` with the exact line pinned.
#[test]
fn fig6_n3_tso_sweep_stays_correct() {
    let out = Explorer::new(3)
        .threads(threads_from_env(2))
        .tso(true)
        .limits(ExploreLimits {
            max_expansions: 10_000_000,
            max_steps: 2_000,
            ..Default::default()
        })
        .run(|| fig6_bodies(3, 2, 1), |r| check_agreement(r, 3, false));
    out.assert_no_violation();
    assert!(out.complete, "fig6 n = 3 must exhaust under TSO ({} runs)", out.runs());
    assert!(out.stats.flush_branches > 0, "fig6 bodies must exercise the flush band");
    assert_eq!(
        out.stats.summary(),
        "runs=11 expansions=5523 visited=2118 pruned=3405 sleep=181 dpor=0 qhits=2480 \
         flushes=1209 max_depth=16 depth_limited=0 branching=[0,193,636,913,330,36]",
        "fig6 n = 3 TSO baseline drifted"
    );
}

/// The bounded-memory frontier on the Figure 6 scale-up sweep: an
/// artificially tiny snapshot ceiling (64 resident nodes per layer where
/// the widest layer holds thousands) forces mass eviction and
/// rehydration-from-log-cursors, and the report — every statistic of the
/// summary line, completeness, violations — is byte-identical to the
/// unbounded run's. Worker count comes from `MPCN_EXPLORE_THREADS`, so
/// the CI env sweep also crosses thread counts here.
#[test]
fn fig6_n4_bounded_frontier_report_is_byte_identical() {
    let sweep = |ceiling: usize, threads: usize| {
        Explorer::new(4)
            .threads(threads)
            .resident_ceiling(ceiling)
            .limits(ExploreLimits {
                max_expansions: 2_000_000,
                max_steps: 2_000,
                ..Default::default()
            })
            .run(|| fig6_bodies(4, 2, 1), |r| check_agreement(r, 4, true))
    };
    let unbounded = sweep(usize::MAX, 1);
    let bounded = sweep(64, threads_from_env(2));
    assert_eq!(unbounded.stats.evicted, 0, "the unbounded run must not evict");
    assert!(bounded.stats.evicted > 1_000, "a 64-node ceiling must evict en masse");
    assert_eq!(
        unbounded.stats.summary(),
        bounded.stats.summary(),
        "eviction must be invisible in the report"
    );
    assert_eq!(unbounded.complete, bounded.complete);
    assert_eq!(unbounded.violations, bounded.violations);
    unbounded.assert_no_violation();
}

/// The storage layer on the Figure 6 scale-up sweep: the same 64-node
/// ceiling, but with checkpoints spilled to a disk-backed `SpillStore`
/// (which also drops the checkpoint eviction exemption, so rehydration
/// is served from the segment file). The report — every statistic of
/// the summary line, completeness, violations — must be byte-identical
/// to the in-memory run's; only the off-summary storage counters see
/// the disk.
#[test]
fn fig6_n4_spilled_sweep_report_is_byte_identical() {
    let dir = std::env::temp_dir().join(format!("mpcn-fig6-n4-spill-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let sweep = |spill: bool| {
        let ex = Explorer::new(4)
            .threads(threads_from_env(2))
            .resident_ceiling(64)
            .checkpoint_every(8)
            .limits(ExploreLimits {
                max_expansions: 2_000_000,
                max_steps: 2_000,
                ..Default::default()
            });
        let ex = if spill { ex.spill_to(&dir).fixture_id("fig6 n=4 x=2") } else { ex };
        ex.run(|| fig6_bodies(4, 2, 1), |r| check_agreement(r, 4, true))
    };
    let in_memory = sweep(false);
    let spilled = sweep(true);
    assert_eq!(
        in_memory.stats.summary(),
        spilled.stats.summary(),
        "the storage layer must be invisible in the report"
    );
    assert_eq!(in_memory.complete, spilled.complete);
    assert_eq!(in_memory.violations, spilled.violations);
    assert!(spilled.stats.spilled > 0, "checkpoint layers must spill to the segment file");
    assert!(spilled.stats.store_reads > 0, "the 64-node ceiling must rehydrate from disk");
    assert_eq!(in_memory.stats.spilled, 0, "the in-memory run must not touch a disk");
    in_memory.assert_no_violation();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A broken invariant on the real Figure 1 object produces a violation
/// whose emitted schedule replays deterministically as a unit test
/// would: the counterexample loop promised by the explorer.
#[test]
fn fig1_violation_schedule_replays_deterministically() {
    // Deliberately false: "process 2's proposal never stabilizes first".
    let broken =
        |r: &RunReport| match r.outcomes.iter().filter_map(|o| o.decided()).find(|&v| v > 0) {
            Some(v) if v - 1 == 102 => Err("p2 stabilized first".to_string()),
            _ => Ok(()),
        };
    let out = Explorer::new(3)
        .limits(ExploreLimits { max_expansions: 2_000_000, max_steps: 1_000, ..Default::default() })
        .run(|| fig1_bodies(3, 1), broken);
    let v = out.violation().expect("the explorer must find a p2-first schedule");
    // Replay: the violating interleaving re-runs deterministically.
    let replayed = replay(3, Crashes::None, false, 1_000, || fig1_bodies(3, 1), &v.choices);
    assert!(broken(&replayed).is_err(), "replay must reproduce: {}", v.repro_snippet());
    // And twice more, to pin determinism of the replay itself.
    let again = replay(3, Crashes::None, false, 1_000, || fig1_bodies(3, 1), &v.choices);
    assert_eq!(replayed.outcomes, again.outcomes);
}

/// The reduced and reference explorations agree on the full violation
/// *set* (message multiset collapsed to a set) for an outcome-only
/// checker, not just on existence — checked on the smallest tree where
/// both reductions fire.
#[test]
fn fig1_n2_violation_sets_match_between_reduced_and_reference() {
    let broken = |r: &RunReport| {
        let decided: Vec<u64> =
            r.decided_values().into_iter().filter(|&v| v > 0).map(|v| v - 1).collect();
        match decided.first() {
            Some(&v) => Err(format!("decided {v}")),
            None => Ok(()),
        }
    };
    let collect = |reduction: Reduction| {
        let out = Explorer::new(2)
            .reduction(reduction)
            .collect_all(true)
            .limits(ExploreLimits {
                max_expansions: 200_000,
                max_steps: 1_000,
                ..Default::default()
            })
            .run(|| fig1_bodies(2, 1), broken);
        let mut msgs: Vec<String> = out.violations.iter().map(|v| v.message.clone()).collect();
        msgs.sort();
        msgs.dedup();
        msgs
    };
    let reduced = collect(Reduction::full());
    let reference = collect(Reduction::none());
    assert_eq!(reduced, reference, "reductions must preserve the violation set");
    assert!(!reference.is_empty(), "the broken checker must actually fire");
}
