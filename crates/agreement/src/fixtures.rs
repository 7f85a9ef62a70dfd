//! Shared model-checking fixtures: bounded process bodies and
//! outcome-only checkers for the Figure 1/5/6 objects.
//!
//! Both the exploration sweeps (`tests/explore_sweeps.rs`,
//! `tests/exhaustive.rs`) and the `explore_sweep` bench drive exactly
//! these programs; the bench's deterministic state-count lines are what
//! the CI determinism gate diffs and what ROADMAP.md records as
//! baselines. Keeping one definition guarantees the test-side sweeps and
//! the bench can never drift apart.
//!
//! Bodies are **bounded** (propose plus a fixed number of polls — no
//! busy-wait), as the exhaustive explorer requires, and encode their last
//! poll as `0` = `None`, `v + 1` = `Some(v)`. Checkers read only run
//! *outcomes*, the contract under which the explorer's reductions
//! preserve violation sets (see [`mpcn_runtime::explore`]).
//!
//! **View summaries:** the Figure 1 bodies inherit their declared view
//! summaries from [`SafeAgreement`] itself (the propose scan returns
//! only `saw_stable`, the poll only its `Option` result) — that is what
//! makes the `n = 5` sweep exhaustible. The Figure 5/6 bodies have
//! nothing to declare: every operation they perform (`tas`,
//! `xcons_propose`, `reg_read`/`reg_write`) already returns a
//! minimal-width result the body consumes whole, so the summary
//! reduction is, correctly, a no-op on them: clearing
//! `Reduction::view_summaries` (the bench catalogue's
//! `MPCN_EXPLORE_VIEWSUM=0` mode) leaves every other flag on and prints
//! byte-identical fig5/fig6 lines, while the fig1 lines change (the CI
//! verdict gate compares only the `complete=`/`violations=` fields).

use mpcn_runtime::model_world::{body, Body, RunReport, Symmetry};

use crate::safe::SafeAgreement;
use crate::xcompete::x_compete;
use crate::xsafe::XSafeAgreement;

/// Object-kind namespace of every fixture instance.
pub const KIND_BASE: u32 = 700;

/// Figure 1 bodies: propose `100 + pid`, poll `polls` times, return the
/// last poll encoded.
pub fn fig1_bodies(n: usize, polls: usize) -> Vec<Body> {
    (0..n)
        .map(|i| {
            body(move |env| async move {
                let sa = SafeAgreement::new(KIND_BASE, 0, n);
                sa.sa_propose(&env, 100 + i as u64).await;
                let mut last = None;
                for _ in 0..polls {
                    last = sa.sa_try_decide::<u64, _>(&env).await;
                }
                last.map_or(0, |v| v + 1)
            })
        })
        .collect()
}

/// The Figure 1 bodies' pid-symmetry declaration: process `p` is
/// distinguishable only through its proposal `100 + p` (stored in
/// safe-agreement cells and surfaced in poll summaries) and its encoded
/// decision `101 + k` (the decided proposal plus one), so renaming `p`
/// to `perm[p]` relabels exactly those ranges. `check_agreement` is
/// closed under both maps (it compares decided values for equality and
/// range membership only), and every fig1 operation result — `()`
/// writes, `bool` propose summaries, `Option<u64>` poll summaries — is
/// in the codec value universe, as `Snapshot::fingerprint_symmetric`
/// requires. The fig5/fig6 fixtures deliberately declare **no** spec:
/// they are the "asymmetric programs are unaffected" half of the
/// symmetry tests.
pub const FIG1_SYMMETRY: Symmetry = Symmetry {
    relabel_value: |v, perm| {
        if (100..100 + perm.len() as u64).contains(&v) {
            100 + perm[(v - 100) as usize] as u64
        } else {
            v
        }
    },
    relabel_result: |r, perm| {
        if (101..101 + perm.len() as u64).contains(&r) {
            101 + perm[(r - 101) as usize] as u64
        } else {
            r
        }
    },
};

/// Figure 5 bodies: `x_compete`, return 1 on winning.
pub fn fig5_bodies(n: usize, x: u32) -> Vec<Body> {
    (0..n)
        .map(|_| {
            body(move |env| async move { u64::from(x_compete(&env, KIND_BASE + 10, 0, x).await) })
        })
        .collect()
}

/// Figure 6 bodies: x-safe-agreement propose `100 + pid`, poll `polls`
/// times, return the last poll encoded.
pub fn fig6_bodies(n: usize, x: u32, polls: usize) -> Vec<Body> {
    (0..n)
        .map(|i| {
            body(move |env| async move {
                let ag = XSafeAgreement::new(KIND_BASE + 20, 0, n, x);
                ag.propose(&env, 100 + i as u64).await;
                let mut last = None;
                for _ in 0..polls {
                    last = ag.try_decide::<u64, _>(&env).await;
                }
                last.map_or(0, |v| v + 1)
            })
        })
        .collect()
}

/// Agreement + validity over encoded poll results; with `must_decide`,
/// additionally requires that a complete crash-free run decided.
pub fn check_agreement(report: &RunReport, n: usize, must_decide: bool) -> Result<(), String> {
    let decided: Vec<u64> =
        report.decided_values().into_iter().filter(|&v| v > 0).map(|v| v - 1).collect();
    for &v in &decided {
        if !(100..100 + n as u64).contains(&v) {
            return Err(format!("validity violated: decided {v}"));
        }
    }
    if decided.windows(2).any(|w| w[0] != w[1]) {
        return Err(format!("agreement violated: {decided:?}"));
    }
    if must_decide && decided.is_empty() && !report.timed_out && report.crashed_pids().is_empty() {
        // The chronologically last poll of a complete crash-free run
        // happens after every propose completed: someone must decide.
        return Err("termination violated: nobody decided".to_string());
    }
    Ok(())
}

/// At most `x` winners of `x_compete`, and — crash-free, run complete —
/// exactly `min(n, x)`.
pub fn check_winners(report: &RunReport, n: usize, x: u32) -> Result<(), String> {
    let winners: u64 = report.decided_values().iter().sum();
    if winners > u64::from(x) {
        return Err(format!("{winners} winners for x = {x}"));
    }
    if !report.timed_out && report.crashed_pids().is_empty() && winners < u64::from(x.min(n as u32))
    {
        return Err(format!("only {winners} winners though {n} invoked"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpcn_runtime::model_world::{ModelWorld, RunConfig};
    use mpcn_runtime::sched::Schedule;

    #[test]
    fn fixtures_satisfy_their_own_checkers() {
        for seed in 0..10 {
            let r = ModelWorld::run(
                RunConfig::new(3).schedule(Schedule::RandomSeed(seed)),
                fig1_bodies(3, 1),
            );
            check_agreement(&r, 3, true).unwrap();
            let r = ModelWorld::run(
                RunConfig::new(4).schedule(Schedule::RandomSeed(seed)),
                fig5_bodies(4, 2),
            );
            check_winners(&r, 4, 2).unwrap();
            let r = ModelWorld::run(
                RunConfig::new(3).schedule(Schedule::RandomSeed(seed)),
                fig6_bodies(3, 2, 1),
            );
            check_agreement(&r, 3, false).unwrap();
        }
    }

    #[test]
    fn checkers_reject_bad_outcomes() {
        use mpcn_runtime::model_world::Outcome;
        let report = |outcomes: Vec<Outcome>| RunReport {
            outcomes,
            steps: 0,
            timed_out: false,
            trace: None,
            state_hashes: None,
            ops_by_kind: vec![],
        };
        // Disagreement (decoded 100 vs 101).
        let r = report(vec![Outcome::Decided(101), Outcome::Decided(102)]);
        assert!(check_agreement(&r, 2, false).is_err());
        // Validity breach (decoded 999).
        let r = report(vec![Outcome::Decided(1000)]);
        assert!(check_agreement(&r, 2, false).is_err());
        // Three winners for x = 2.
        let r = report(vec![Outcome::Decided(1); 3]);
        assert!(check_winners(&r, 3, 2).is_err());
    }
}
