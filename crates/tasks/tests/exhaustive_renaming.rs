//! Exhaustive verification of the renaming program: every schedule of two
//! processes (the algorithm is wait-free, so the schedule tree is finite),
//! and every placement of one crash. Complements the randomized runs in
//! `programs.rs` with full coverage at small scale.

use mpcn_runtime::explore::{explore, ExploreLimits};
use mpcn_runtime::model_world::{body, Body, RunReport};
use mpcn_runtime::program::{SimOp, SimProcess, SimResponse, SimStep};
use mpcn_runtime::runner::mem_key;
use mpcn_runtime::sched::Crashes;
use mpcn_tasks::programs::Renaming;
use mpcn_tasks::TaskKind;

/// Drives one renaming program directly against the world (the same
/// translation as `runner::run_direct`, restated here because exploration
/// needs raw bodies).
fn renaming_body(pid: usize, n: usize) -> Body {
    body(move |env| async move {
        let mut prog = Renaming::new(pid);
        let mut step = prog.begin();
        loop {
            match step {
                SimStep::Decide(v) => return v,
                SimStep::Invoke(SimOp::Write(v)) => {
                    env.snap_write(mem_key(), n, pid, v).await;
                    step = prog.on_response(SimResponse::WriteAck);
                }
                SimStep::Invoke(SimOp::Snapshot) => {
                    let view = env.snap_scan::<u64>(mem_key(), n).await;
                    step = prog.on_response(SimResponse::Snapshot(view));
                }
                SimStep::Invoke(SimOp::XConsPropose { .. }) => {
                    unreachable!("renaming uses no consensus objects")
                }
            }
        }
    })
}

fn check(report: &RunReport, n: usize) -> Result<(), String> {
    TaskKind::Renaming { names: 2 * n as u64 - 1 }
        .validate(&[], &report.outcomes)
        .map_err(|v| v.to_string())?;
    if report.timed_out {
        return Err("renaming must be wait-free (run timed out)".into());
    }
    Ok(())
}

#[test]
fn renaming_two_processes_every_schedule() {
    let n = 2;
    let out = explore(
        n,
        Crashes::None,
        ExploreLimits { max_expansions: 500_000, max_steps: 2_000, ..Default::default() },
        || (0..n).map(|p| renaming_body(p, n)).collect(),
        |r| {
            check(r, n)?;
            if r.decided_values().len() != n {
                return Err("both processes must decide".into());
            }
            Ok(())
        },
    );
    out.assert_no_violation();
    assert!(out.complete, "tree exhausted in {} runs", out.runs());
    assert!(out.runs() >= 10, "non-trivial exploration ({} runs)", out.runs());
}

#[test]
fn renaming_survives_every_single_crash_placement() {
    let n = 2;
    for victim in 0..n {
        for crash_step in 0..6u64 {
            let out = explore(
                n,
                Crashes::AtOwnStep(vec![(victim, crash_step)]),
                ExploreLimits { max_expansions: 500_000, max_steps: 2_000, ..Default::default() },
                || (0..n).map(|p| renaming_body(p, n)).collect(),
                |r| {
                    check(r, n)?;
                    let survivor = 1 - victim;
                    if r.outcomes[survivor].decided().is_none() {
                        return Err(format!(
                            "survivor {survivor} must decide (victim {victim} at {crash_step})"
                        ));
                    }
                    Ok(())
                },
            );
            out.assert_no_violation();
            assert!(out.complete);
        }
    }
}

#[test]
fn renaming_three_processes_sampled_schedules_exhaustively_bounded() {
    // n = 3 tree is large; bound the exploration and require zero
    // violations within the budget (safety-only at this size).
    let n = 3;
    let out = explore(
        n,
        Crashes::None,
        ExploreLimits { max_expansions: 8_000, max_steps: 3_000, ..Default::default() },
        || (0..n).map(|p| renaming_body(p, n)).collect(),
        |r| check(r, n),
    );
    out.assert_no_violation();
    // Either the tree fit in the budget, or the budget stopped it — in
    // which case only executed work is reported, never more than queued.
    assert!(out.stats.expansions <= 8_000);
    assert!(
        out.complete || out.stats.expansions > 1_000,
        "the budget must have bought substantial coverage ({} expansions)",
        out.stats.expansions
    );
}
