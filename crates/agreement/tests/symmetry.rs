//! Direct coverage of the process-identity symmetry quotient
//! (`Snapshot::fingerprint_symmetric`, `Reduction::symmetry`,
//! `Explorer::symmetry`; soundness argument in `docs/EXPLORER.md` §3.6):
//!
//! * pid-permuted executions of the Figure 1 program — run schedule `s`
//!   vs run `π(s)` for every permutation `π` — must produce identical
//!   canonical fingerprints at **every** prefix, in both observation
//!   modes, through adversary crashes, and across a codec
//!   encode/decode round trip (the byte-stability a spilled sweep
//!   relies on);
//! * programs that declare no spec (fig6) print byte-identical summary
//!   lines with the symmetry reduction on and off — the "asymmetric
//!   programs are unaffected" half of the contract;
//! * a symmetry-quotiented sweep interrupted at a barrier resumes to
//!   the byte-identical final report via
//!   `Explorer::resume_sweep_with_symmetry`, and resuming it with no
//!   spec (`None`) is refused instead of silently resuming in the wrong
//!   state space.

use mpcn_agreement::fixtures::{
    check_agreement, fig1_bodies, fig6_bodies, FIG1_SYMMETRY, KIND_BASE,
};
use mpcn_runtime::explore::{ExploreLimits, Explorer, Reduction};
use mpcn_runtime::fingerprint::fp_of;
use mpcn_runtime::model_world::{body, Body, ModelWorld, Snapshot, Symmetry};
use mpcn_runtime::world::ObjKey;

/// Drive the fig1 `n`-process snapshot engine along a deterministic
/// pid sequence derived from `pick_seed`, mapping every chosen pid
/// through `perm`, and return the snapshot after every step (the root
/// included). The fig1 bodies are pid-indexed (body `p` proposes
/// `100 + p`), so stepping `perm[p]` wherever the base run steps `p`
/// reaches exactly the `perm`-relabeled state.
fn permuted_run(n: usize, viewsum: bool, pick_seed: u64, perm: &[usize]) -> Vec<Snapshot> {
    let mut snap = ModelWorld::snapshot_root(n, true, viewsum, fig1_bodies(n, 1));
    let mut out = vec![snap.clone()];
    let mut step = 0u64;
    while !snap.is_terminal() {
        let alive = snap.alive();
        // Choose among alive pids of the *base* run: the permuted run's
        // alive set is the image of the base run's, so selecting the
        // base pid and mapping it lands on an alive pid there too.
        let mut base: Vec<usize> =
            alive.iter().map(|&p| perm.iter().position(|&q| q == p).unwrap()).collect();
        base.sort_unstable();
        let chosen = base[(fp_of(&(pick_seed, step)) as usize) % base.len()];
        let pid = perm[chosen];
        let body = fig1_bodies(n, 1).into_iter().nth(pid).unwrap();
        snap = ModelWorld::resume_from(&snap, pid, body);
        out.push(snap.clone());
        step += 1;
    }
    out
}

fn permutations(n: usize) -> Vec<Vec<usize>> {
    if n == 1 {
        return vec![vec![0]];
    }
    let mut out = Vec::new();
    for rest in permutations(n - 1) {
        for slot in 0..n {
            let mut p = rest.clone();
            p.insert(slot, n - 1);
            out.push(p);
        }
    }
    out
}

/// The core canonicalization property on fig1, over its **equivariant
/// fragment**: for every permutation `π` and every prefix where no
/// process has decided yet, the `π`-relabeled execution reaches a state
/// with the same canonical fingerprint — in both observation modes —
/// while the plain fingerprint distinguishes the relabelings (so the
/// equality is the quotient's doing, not a collision of the base
/// hash).
///
/// The decided-prefix restriction is the min-index caveat of
/// `docs/EXPLORER.md` §3.6 made concrete: `SafeAgreement::try_decide`
/// returns the proposal of the *smallest-index* stable process, and
/// `min π(K) ≠ π(min K)`, so once a successful poll has executed, the
/// pid-permuted *execution* is no longer a pid-relabeling of the base
/// one (the two runs may decide different proposals) and their
/// fingerprints rightly differ. The quotient stays sound there because
/// the poll result is control-inert and `check_agreement` is closed
/// under pid permutation of outcomes; the
/// `equivariant_program_is_invariant_at_every_prefix` test below pins
/// full-run invariance on a program without the caveat.
#[test]
fn pid_permuted_fig1_runs_fingerprint_identically_until_a_decision() {
    let n = 3;
    for viewsum in [false, true] {
        for pick_seed in 0..4u64 {
            let identity: Vec<usize> = (0..n).collect();
            let base = permuted_run(n, viewsum, pick_seed, &identity);
            for perm in permutations(n) {
                let relabeled = permuted_run(n, viewsum, pick_seed, &perm);
                assert_eq!(base.len(), relabeled.len(), "π-related runs have equal length");
                let mut raw_diverged = false;
                let mut compared = 0;
                for (i, (a, b)) in base.iter().zip(&relabeled).enumerate() {
                    if a.report(false).decided_values().iter().any(|&v| v > 0) {
                        break;
                    }
                    compared += 1;
                    for quotient in [false, true] {
                        let (fa, _) = a.fingerprint_symmetric(quotient, &FIG1_SYMMETRY);
                        let (fb, _) = b.fingerprint_symmetric(quotient, &FIG1_SYMMETRY);
                        assert_eq!(
                            fa, fb,
                            "canonical fingerprints diverge at prefix {i} \
                             (perm {perm:?}, viewsum {viewsum}, quotient {quotient})"
                        );
                    }
                    raw_diverged |= a.fingerprint() != b.fingerprint();
                }
                assert!(compared > 6, "the equivariant fragment must be nontrivial");
                if perm != identity {
                    assert!(
                        raw_diverged,
                        "plain fingerprints must distinguish the relabelings somewhere \
                         (perm {perm:?}) — otherwise this test proves nothing"
                    );
                }
            }
        }
    }
}

/// A fig1-shaped program with **no** min-index caveat: every operation
/// result is either pid-covariant (the process's own `100 + p` cell
/// write) or index-free (written-cell counts and their sums), so
/// pid-permuted executions are genuine state relabelings all the way to
/// termination — and canonical fingerprints must agree at **every**
/// prefix, terminal states included, in both observation modes.
fn equivariant_bodies(n: usize) -> Vec<Body> {
    (0..n)
        .map(|i| {
            body(move |env| async move {
                let marks = ObjKey::new(KIND_BASE + 90, 0, 0);
                let counts = ObjKey::new(KIND_BASE + 90, 0, 1);
                env.snap_write(marks, n, i, 100 + i as u64).await;
                let written = env
                    .snap_scan_via::<u64, u64>(marks, n, |v| v.iter().flatten().count() as u64)
                    .await;
                env.snap_write(counts, n, i, written).await;
                env.snap_scan_via::<u64, u64>(counts, n, |v| v.iter().flatten().sum()).await
            })
        })
        .collect()
}

const EQUIVARIANT_SYMMETRY: Symmetry = Symmetry {
    relabel_value: |v, perm| {
        if (100..100 + perm.len() as u64).contains(&v) {
            100 + perm[(v - 100) as usize] as u64
        } else {
            v
        }
    },
    // Results are sums of index-free counts: pid-free already.
    relabel_result: |r, _| r,
};

#[test]
fn equivariant_program_is_invariant_at_every_prefix() {
    let n = 3;
    let run = |viewsum: bool, pick_seed: u64, perm: &[usize]| {
        let mut snap = ModelWorld::snapshot_root(n, true, viewsum, equivariant_bodies(n));
        let mut out = vec![snap.clone()];
        let mut step = 0u64;
        while !snap.is_terminal() {
            let alive = snap.alive();
            let mut base: Vec<usize> =
                alive.iter().map(|&p| perm.iter().position(|&q| q == p).unwrap()).collect();
            base.sort_unstable();
            let chosen = base[(fp_of(&(pick_seed, step)) as usize) % base.len()];
            let pid = perm[chosen];
            let body = equivariant_bodies(n).into_iter().nth(pid).unwrap();
            snap = ModelWorld::resume_from(&snap, pid, body);
            out.push(snap.clone());
            step += 1;
        }
        out
    };
    for viewsum in [false, true] {
        for pick_seed in 0..4u64 {
            let identity: Vec<usize> = (0..n).collect();
            let base = run(viewsum, pick_seed, &identity);
            for perm in permutations(n) {
                let relabeled = run(viewsum, pick_seed, &perm);
                assert_eq!(base.len(), relabeled.len());
                for (i, (a, b)) in base.iter().zip(&relabeled).enumerate() {
                    for quotient in [false, true] {
                        let (fa, _) = a.fingerprint_symmetric(quotient, &EQUIVARIANT_SYMMETRY);
                        let (fb, _) = b.fingerprint_symmetric(quotient, &EQUIVARIANT_SYMMETRY);
                        assert_eq!(
                            fa,
                            fb,
                            "canonical fingerprints diverge at prefix {i} of {} \
                             (perm {perm:?}, viewsum {viewsum}, quotient {quotient})",
                            base.len() - 1
                        );
                    }
                }
            }
        }
    }
}

/// Canonicalization through adversary crashes: crash victim `p` in the
/// base run and victim `π(p)` in the relabeled run, keep stepping, and
/// the canonical fingerprints still agree at every prefix. (The
/// *explorer* gates the quotient off under crash plans — a plan names
/// pids — but the fingerprint itself must handle crashed flags
/// correctly, e.g. for post-crash states reached before the gate.)
#[test]
fn pid_permuted_post_crash_states_fingerprint_identically() {
    let n = 3;
    let identity: Vec<usize> = (0..n).collect();
    for victim in 0..n {
        for perm in permutations(n) {
            let run = |perm: &[usize]| {
                let mut snap = ModelWorld::snapshot_root(n, true, true, fig1_bodies(n, 1));
                let mut out = Vec::new();
                // One step each from the two non-victims, then the crash,
                // then run the survivors to completion.
                for p in (0..n).filter(|&p| p != victim) {
                    let body = fig1_bodies(n, 1).into_iter().nth(perm[p]).unwrap();
                    snap = ModelWorld::resume_from(&snap, perm[p], body);
                    out.push(snap.clone());
                }
                snap = ModelWorld::resume_crash(&snap, perm[victim]);
                out.push(snap.clone());
                while !snap.is_terminal() {
                    let pid = snap.alive()[0];
                    let body = fig1_bodies(n, 1).into_iter().nth(pid).unwrap();
                    snap = ModelWorld::resume_from(&snap, pid, body);
                    out.push(snap.clone());
                }
                out
            };
            let base = run(&identity);
            let relabeled = run(&perm);
            // The survivors-to-completion suffix schedules by raw pid
            // order, which is not permutation-covariant — compare only
            // the prefix that is (two steps + the crash delivery).
            for (i, (a, b)) in base.iter().zip(&relabeled).enumerate().take(n) {
                for quotient in [false, true] {
                    let (fa, _) = a.fingerprint_symmetric(quotient, &FIG1_SYMMETRY);
                    let (fb, _) = b.fingerprint_symmetric(quotient, &FIG1_SYMMETRY);
                    assert_eq!(
                        fa, fb,
                        "post-crash canonical fingerprints diverge at prefix {i} \
                         (victim {victim}, perm {perm:?})"
                    );
                }
            }
        }
    }
}

/// The canonical fingerprint survives a codec round trip byte-stably:
/// a spilled-and-rehydrated snapshot must land in the same visited-set
/// slot as its in-memory original, or resumed sweeps would re-explore
/// (or worse, skip) subtrees.
#[test]
fn canonical_fingerprint_survives_codec_roundtrip() {
    let n = 3;
    for viewsum in [false, true] {
        for pick_seed in 0..4u64 {
            let identity: Vec<usize> = (0..n).collect();
            for snap in permuted_run(n, viewsum, pick_seed, &identity) {
                let decoded = Snapshot::decode(&snap.encode().expect("encode")).expect("decode");
                for quotient in [false, true] {
                    assert_eq!(
                        snap.fingerprint_symmetric(quotient, &FIG1_SYMMETRY),
                        decoded.fingerprint_symmetric(quotient, &FIG1_SYMMETRY),
                        "canonical fingerprint changed across encode/decode \
                         (viewsum {viewsum}, quotient {quotient})"
                    );
                }
            }
        }
    }
}

/// Programs that declare no spec are untouched by the reduction flag:
/// the fig6 sweep prints byte-identical summary lines under
/// `Reduction::full()` (symmetry on, no spec to act on) and with
/// `Reduction::symmetry` cleared.
#[test]
fn programs_without_a_spec_are_untouched() {
    let sweep = |reduction: Reduction| {
        Explorer::new(3)
            .reduction(reduction)
            .limits(ExploreLimits {
                max_expansions: 1_000_000,
                max_steps: 2_000,
                ..Default::default()
            })
            .run(|| fig6_bodies(3, 2, 1), |r| check_agreement(r, 3, true))
    };
    let on = sweep(Reduction::full());
    let off = sweep(Reduction { symmetry: false, ..Reduction::full() });
    assert_eq!(
        on.stats.summary(),
        off.stats.summary(),
        "a spec-free program must not see the symmetry flag"
    );
    assert_eq!(on.complete, off.complete);
    assert_eq!(on.violations, off.violations);
}

/// A symmetry-quotiented sweep halted at a mid-sweep barrier resumes —
/// with the spec re-supplied — to the byte-identical final report of
/// the uninterrupted sweep.
#[test]
fn symm_sweep_resumes_to_identical_report() {
    let dir = std::env::temp_dir().join(format!("mpcn-symm-resume-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let sweep = |halt: Option<u64>| {
        let ex = Explorer::new(3)
            .symmetry(FIG1_SYMMETRY)
            .limits(ExploreLimits {
                max_expansions: 2_000_000,
                max_steps: 2_000,
                ..Default::default()
            })
            .spill_to(&dir)
            .fixture_id("fig1 n=3 symm resume");
        let ex = match halt {
            Some(k) => ex.halt_after_layers(k),
            None => ex,
        };
        ex.run(|| fig1_bodies(3, 1), |r| check_agreement(r, 3, true))
    };
    let halted = sweep(Some(3));
    assert!(!halted.complete, "the halt must actually interrupt the sweep");
    let resumed = Explorer::resume_sweep_with_symmetry(
        &dir,
        Some(FIG1_SYMMETRY),
        || fig1_bodies(3, 1),
        |r| check_agreement(r, 3, true),
    );
    let _ = std::fs::remove_dir_all(&dir);
    let uninterrupted = Explorer::new(3)
        .symmetry(FIG1_SYMMETRY)
        .limits(ExploreLimits { max_expansions: 2_000_000, max_steps: 2_000, ..Default::default() })
        .run(|| fig1_bodies(3, 1), |r| check_agreement(r, 3, true));
    assert_eq!(
        resumed.stats.summary(),
        uninterrupted.stats.summary(),
        "resume must reach the uninterrupted sweep's exact summary"
    );
    assert_eq!(resumed.complete, uninterrupted.complete);
    assert_eq!(resumed.violations, uninterrupted.violations);
    assert!(resumed.stats.symm_enabled, "the resumed sweep must keep the quotient active");
}

/// Resuming without a spec (`None`) must refuse a manifest whose sweep
/// was started with a symmetry spec: resuming without it would fingerprint
/// future layers in a different state space than the persisted visited
/// set.
#[test]
#[should_panic(expected = "symmetry")]
fn resume_without_spec_refuses_symm_manifest() {
    let dir = std::env::temp_dir().join(format!("mpcn-symm-refuse-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let _ = Explorer::new(3)
        .symmetry(FIG1_SYMMETRY)
        .limits(ExploreLimits { max_expansions: 2_000_000, max_steps: 2_000, ..Default::default() })
        .spill_to(&dir)
        .fixture_id("fig1 n=3 symm refuse")
        .halt_after_layers(3)
        .run(|| fig1_bodies(3, 1), |r| check_agreement(r, 3, true));
    let result = std::panic::catch_unwind(|| {
        Explorer::resume_sweep_with_symmetry(
            &dir,
            None,
            || fig1_bodies(3, 1),
            |r| check_agreement(r, 3, true),
        )
    });
    let _ = std::fs::remove_dir_all(&dir);
    match result {
        Ok(_) => panic!("a spec-less resume accepted a spec-bearing manifest"),
        Err(e) => std::panic::resume_unwind(e),
    }
}
