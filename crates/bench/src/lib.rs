//! Shared helpers for the benchmark harness.
//!
//! The benches (one per paper figure/table, see `benches/` and
//! EXPERIMENTS.md) measure two kinds of quantities:
//!
//! * **wall time** of whole simulation runs under the deterministic model
//!   world (dominated by the scheduler's per-step work — meaningful for *relative*
//!   comparisons: who is cheaper, how cost scales with `n`, `x`, crash
//!   count);
//! * **shared-memory step counts** (exact, deterministic) — the
//!   model-level cost measure the paper's algorithms are judged by.

use mpcn_core::simulator::{run_colorless, SimRun, SimulationSpec};
use mpcn_model::ModelParams;
use mpcn_runtime::sched::Schedule;
use mpcn_runtime::{Env, ModelWorld};
use mpcn_tasks::SourceAlgorithm;
use std::io::Write;

/// Opens the `MPCN_BENCH_JSON` trajectory file in **append** mode (created
/// if absent), or `None` when the variable is unset.
///
/// Append (rather than truncate, as `explore_sweep` does for its dedicated
/// `BENCH_explore.json`) lets several bench targets write records into one
/// shared file — CI points `thread_world_sweep` and `atomics_primitives` at
/// the same `BENCH_atomics.json` and uploads the union.
pub fn bench_json_appender() -> Option<std::fs::File> {
    std::env::var_os("MPCN_BENCH_JSON").map(|p| {
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&p)
            .unwrap_or_else(|e| panic!("MPCN_BENCH_JSON: cannot open {p:?} for append: {e}"))
    })
}

/// Appends one JSON record line to an open trajectory file.
pub fn bench_json_record(file: &mut Option<std::fs::File>, record: &str) {
    if let Some(f) = file {
        writeln!(f, "{record}").expect("MPCN_BENCH_JSON: write failed");
    }
}

/// Teardown leak gate for benches built on the epoch-reclaiming substrate:
/// asserts that every allocation retired through `crossbeam::epoch` during
/// the run has been reclaimed. Called from the custom `main` of
/// `atomics_primitives` and `thread_world_sweep` after all benchmark bodies
/// (and their worker threads) have finished, when the process is quiescent
/// — any remaining deferred garbage would be a reclamation leak.
pub fn assert_epoch_drained() {
    assert!(
        crossbeam::epoch::drain_pending(10_000),
        "epoch leak gate: {} deferred allocations survived a quiescent drain",
        crossbeam::epoch::pending_reclaims()
    );
}

/// Builds per-process `Env` handles over a fresh free-mode world (no
/// scheduler: every op executes immediately) — the cheap way to measure
/// pure operation counts of agreement protocols.
pub fn free_envs(n: usize) -> Vec<Env<ModelWorld>> {
    let w = ModelWorld::new_free(n);
    (0..n).map(|p| Env::new(w.clone(), p)).collect()
}

/// Distinct inputs `100, 101, …` for `n` processes.
pub fn inputs(n: usize) -> Vec<u64> {
    (0..n as u64).map(|i| 100 + i).collect()
}

/// Runs one colorless simulation and returns `(steps, decided)` — the
/// deterministic cost/outcome pair used by the step-count benches.
///
/// # Panics
///
/// Panics if the simulation violates liveness (these benches only run
/// sound parameter choices).
pub fn run_and_count(alg: &SourceAlgorithm, target: ModelParams, seed: u64) -> (u64, usize) {
    let spec = SimulationSpec::new(alg.clone(), target).expect("valid spec");
    let run = SimRun { schedule: Schedule::RandomSeed(seed), ..SimRun::default() };
    let report = run_colorless(&spec, &inputs(target.n() as usize), &run);
    assert!(report.all_correct_decided(), "benchmarked runs must be live");
    (report.steps, report.decided_values().len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpcn_tasks::algorithms;

    #[test]
    fn run_and_count_is_deterministic() {
        let alg = algorithms::kset_read_write(4, 1).unwrap();
        let target = ModelParams::new(4, 1, 1).unwrap();
        assert_eq!(run_and_count(&alg, target, 3), run_and_count(&alg, target, 3));
    }

    #[test]
    fn helpers_shapes() {
        assert_eq!(inputs(3), vec![100, 101, 102]);
        assert_eq!(free_envs(2).len(), 2);
    }
}
