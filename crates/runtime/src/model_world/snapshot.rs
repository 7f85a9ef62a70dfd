//! Snapshot-resume execution of model-world programs.
//!
//! A [`Snapshot`] is a cheap checkpoint of one reachable global state:
//! the model world's one world-state record (shared memory — a plain
//! clone of the object map, whose objects share their `Arc`ed cells —
//! the memory and observation fingerprints, liveness flags, results,
//! counters and store buffers; the same record a linear run drives)
//! plus what only resumption needs: each
//! process's **operation log** — the ordered `(op, key, result)` records
//! of every shared-memory operation it has completed — and the footprint
//! of the operation it is parked before. Because process bodies are
//! deterministic closures whose control state is exactly a function of
//! the values their operations returned, a log *is* a continuation
//! cursor: rebuilding the body's future and answering its first
//! `log.len()` operations from the log reconstructs the process's local
//! state without executing anything against shared memory.
//!
//! [`ModelWorld::resume_from`] uses that to execute **one** scheduling
//! decision from a snapshot on the caller thread: move a copy of the
//! record into a polled world, build the picked process's body future and
//! poll it once — its logged operations return their logged values, its
//! next operation executes against the record (appending the new log
//! record), and the operation after that records its footprint and
//! returns `Pending`, parking the body at its gate — or the body runs to
//! completion. The future is then dropped and the record moved back out.
//! The exhaustive explorer ([`crate::explore`]) expands
//! its frontier this way instead of re-executing every schedule from the
//! root.
//!
//! The cost of resuming process `p` is `O(|log(p)|)` pure re-execution of
//! its body (no syscalls, no locks beyond uncontended per-op
//! acquisitions). Logs are shared (`Arc`) between a snapshot and its
//! children; only the stepped process's log is rebuilt.
//!
//! **Caveat:** resume polls bodies on the caller thread, so a body that
//! spins forever in local code without reaching another shared operation
//! hangs the caller — as it does in a linear [`ModelWorld::run`]. The
//! explorer's contract (bounded bodies) already excludes those.

use std::sync::Arc;
use std::task::Poll;

use super::{
    codec, poll_body, Admission, Body, BufferedWrite, Footprint, Mode, ModelWorld, RunReport,
    WorldState,
};
use crate::fingerprint::{canonical_order, fold_state_fp, mix, Fnv1a};
use crate::world::{Env, ObjKey, Pid, Stored};
use std::hash::Hasher;

/// One completed shared-memory operation of a process: operation tag
/// (`OP_*`), key, and the (type-erased) value the operation returned.
#[derive(Clone)]
pub(super) struct LogEntry {
    pub(super) op: u64,
    pub(super) key: ObjKey,
    pub(super) result: Stored,
}

impl LogEntry {
    pub(super) fn new(op: u64, key: ObjKey, result: Stored) -> Self {
        LogEntry { op, key, result }
    }
}

/// A checkpoint of one reachable model-world state, from which execution
/// can be resumed one scheduling decision at a time (see the
/// [`crate::model_world`] module docs, "snapshot resumption").
#[derive(Clone)]
pub struct Snapshot {
    // Fields are `pub(super)` (not private) for exactly one reader/writer
    // besides this module: the byte codec in [`super::codec`], which must
    // see every field to guarantee exact roundtrips.
    /// The world state at this point of the path.
    pub(super) world: WorldState,
    pub(super) logs: Vec<Arc<Vec<LogEntry>>>,
    /// The footprint of the operation each alive process is parked
    /// before (`None` once it finished or crashed).
    pub(super) pending_op: Vec<Option<Footprint>>,
}

impl std::fmt::Debug for Snapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Snapshot")
            .field("n", &self.n())
            .field("steps", &self.steps())
            .field("objects", &self.world.objects.len())
            .field("alive", &self.alive())
            .finish()
    }
}

impl Snapshot {
    /// Number of processes.
    pub fn n(&self) -> usize {
        self.world.n()
    }

    /// Completed shared-memory steps along the path to this state.
    pub fn steps(&self) -> u64 {
        self.world.steps
    }

    /// Completed shared-memory steps of `pid` (the crash adversary's
    /// own-step clock).
    pub fn own_steps(&self, pid: Pid) -> u64 {
        self.world.own_steps[pid]
    }

    /// Schedulable processes, in increasing pid order — the order
    /// [`crate::sched::Schedule::Indexed`] indexes into.
    pub fn alive(&self) -> Vec<Pid> {
        self.world.alive()
    }

    /// `true` once every process has decided or crashed — and, under TSO,
    /// every store buffer has drained: undelivered writes still change
    /// shared memory, so a state with a non-empty buffer has futures.
    pub fn is_terminal(&self) -> bool {
        let w = &self.world;
        (0..self.n()).all(|p| w.finished[p] || w.crashed[p]) && w.buffers.iter().all(Vec::is_empty)
    }

    /// Whether this path explores TSO store-buffer semantics.
    pub fn is_tso(&self) -> bool {
        self.world.tso
    }

    /// Processes with a non-empty store buffer, in increasing pid order —
    /// the order of [`crate::sched::Schedule::Indexed`]'s flush band.
    /// Indexed by raw pid (not alive rank): buffers keep draining after
    /// their owner finishes or crashes.
    pub fn flushable(&self) -> Vec<Pid> {
        self.world.flushable()
    }

    /// Number of writes parked in `pid`'s store buffer.
    pub fn buffered(&self, pid: Pid) -> usize {
        self.world.buffers[pid].len()
    }

    /// The dependency footprint of flushing the *oldest* entry of `pid`'s
    /// store buffer (`None` if the buffer is empty) — the flush-band
    /// analogue of [`Snapshot::pending_footprint`]. Only the head is a
    /// schedulable action: flushes of one buffer are FIFO-ordered.
    pub fn flush_footprint(&self, pid: Pid) -> Option<Footprint> {
        self.world.buffers[pid].first().map(BufferedWrite::flush_footprint)
    }

    /// The dependency footprint of the operation alive `pid` is parked
    /// before (`None` once `pid` finished or crashed) — a function of its
    /// own operation log only. The explorer's
    /// DPOR-style reduction reads every enabled step's footprint from
    /// here.
    pub fn pending_footprint(&self, pid: Pid) -> Option<Footprint> {
        self.pending_op[pid]
    }

    /// The global-state fingerprint of this snapshot — word-for-word the
    /// value a linear run records per pick under
    /// [`super::RunConfig::record_state_hashes`] after the same schedule
    /// prefix (property-tested in `tests/proptests.rs`).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the snapshot was built without tracking.
    pub fn fingerprint(&self) -> u64 {
        self.world.fingerprint(false)
    }

    /// The **observation-quotiented** state fingerprint: identical to
    /// [`Snapshot::fingerprint`] except that terminated (finished or
    /// crashed) processes contribute `0` in place of their observation
    /// histories, and the path's **total step count** is folded in their
    /// stead.
    ///
    /// Sound for visited-state pruning because a terminated process has
    /// no futures: only its result and liveness flags (both still
    /// folded) plus the run's total step count — which the explorer's
    /// `max_steps` timeout reads, and which the dropped histories
    /// contributed to — can influence any reachable outcome report.
    /// Folding the total keeps the budget's remaining headroom part of
    /// the state identity without distinguishing *how* the terminated
    /// processes split it. States that differ only in how a terminated
    /// process reached its outcome — e.g. order-equivalent poll
    /// histories that decided the same value — collapse into one
    /// equivalence-class representative. See
    /// [`crate::fingerprint::fold_state_fp`] and the pruning argument in
    /// [`crate::explore`].
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the snapshot was built without tracking.
    pub fn fingerprint_quotient(&self) -> u64 {
        self.world.fingerprint(true)
    }

    /// `true` when [`Snapshot::fingerprint_quotient`] coarsens this
    /// state's identity relative to [`Snapshot::fingerprint`]: some
    /// terminated process has a nonempty observation history the
    /// quotient drops. Cheap `O(n)` flag check — no fingerprint fold.
    pub fn quotient_coarsens(&self) -> bool {
        let w = &self.world;
        (0..self.n()).any(|p| (w.finished[p] || w.crashed[p]) && w.obs_fp[p] != 0)
    }

    /// The **pid-symmetry-canonical** state fingerprint: the identity of
    /// this state's equivalence class under process-identity permutation,
    /// for programs that declared themselves pid-symmetric via a
    /// [`super::Symmetry`] spec ([`crate::explore::Reduction::symmetry`]).
    /// Returns `(fp, nontrivial)`: the canonical fingerprint, and whether
    /// the canonical permutation actually moved a process (the explorer's
    /// `symm=` coarsening flag).
    ///
    /// Canonicalization happens in two passes:
    ///
    /// 1. **Order.** Each process gets a **pid-erased** sort key — its
    ///    operation-log fold, liveness flags, result, and the erased
    ///    contents of its own pid-indexed snapshot cells (the memory
    ///    refinement that keeps all-terminated states sortable under
    ///    `quotient_obs`, where the log word is zeroed) — with every
    ///    embedded pid relabeled to `0` — and
    ///    [`crate::fingerprint::canonical_order`] sorts processes by that
    ///    key (pid tie-break, the same canonical-pid seed as DPOR's
    ///    tie-break). Erasure is pid-blind by the spec's group-action
    ///    contract, so two π-related states sort their corresponding
    ///    processes into the same ranks (ties can diverge — a reduction
    ///    loss, never an unsoundness).
    /// 2. **Fold.** The state description is refolded under the induced
    ///    permutation `perm[pid] = rank`: memory objects with every value
    ///    leaf relabeled through [`super::Symmetry::relabel_value`] and
    ///    per-process snapshot cells moved to their canonical index, then
    ///    each process's (relabeled log fold, flags, relabeled result)
    ///    triple in canonical order — the same
    ///    [`crate::fingerprint::fold_state_fp`] shape as
    ///    [`Snapshot::fingerprint`].
    ///
    /// The description folds the **operation log itself** (op tag, key,
    /// relabeled result fingerprint per entry — the exact words
    /// `WorldState::observe` folds) rather than the precomputed `obs_fp`,
    /// which already hashed the unrelabeled results. Pending footprints
    /// and per-process step counts are deliberately **not** folded:
    /// bodies are deterministic, so both are functions of the log. Under
    /// `quotient_obs` the observation quotient composes: terminated
    /// processes contribute `0` in place of their log fold and the
    /// path's total step count is mixed into the memory word, exactly as
    /// in [`Snapshot::fingerprint_quotient`].
    ///
    /// Equal canonical fingerprints imply the two states are images of
    /// one another under a pid permutation (the relabel maps are
    /// bijective per permutation and the folded description is
    /// complete); the soundness argument for pruning on that identity —
    /// when bodies are identical up to value and checkers are
    /// permutation/value-closed — is in `docs/EXPLORER.md` §3.
    ///
    /// # Panics
    ///
    /// Panics if a logged operation result lies outside the codec's
    /// closed value universe: there is no sound fallback for an
    /// observation that cannot be relabeled (a constant would merge
    /// distinct observations). Pid-symmetric programs must keep their
    /// operation results in the universe — the same requirement
    /// spilling already imposes (`docs/EXPLORER.md` §8). Memory cells
    /// outside the universe merely fall back to their unrelabeled
    /// fingerprint (sound: π-related states then simply stop merging).
    /// Panics in debug builds if the snapshot was built without
    /// tracking.
    pub fn fingerprint_symmetric(&self, quotient_obs: bool, spec: &super::Symmetry) -> (u64, bool) {
        let w = &self.world;
        debug_assert!(w.track, "fingerprints require tracking (snapshot_root track=true)");
        debug_assert!(
            !w.tso,
            "the symmetry quotient is gated off under TSO (store-buffer contents are \
             per-process state the erasure does not canonicalize) — the explorer must not \
             request canonical fingerprints on a TSO path"
        );
        let n = self.n();
        let zeros = vec![0; n];
        // Erased view of each process's own pid-indexed snapshot cells,
        // folded in deterministic key order. Without it, states whose
        // processes differ only through memory — e.g. all-terminated
        // states under `quotient_obs`, whose log words are zeroed —
        // would sort entirely by the pid tie-break, and π-related
        // states could canonicalize inconsistently.
        let mut own_cells = vec![0u64; n];
        let mut keys: Vec<&crate::world::ObjKey> = w.objects.keys().collect();
        keys.sort_unstable();
        for key in keys {
            if let super::Object::Snapshot(cells) = &w.objects[key] {
                if cells.len() == n {
                    let mut kh = Fnv1a::default();
                    kh.write_u64(u64::from(key.kind));
                    kh.write_u64(key.a);
                    kh.write_u64(key.b);
                    let kfp = kh.finish();
                    for (p, c) in cells.iter().enumerate() {
                        let cfp = c.as_ref().map_or(u64::MAX, |c| {
                            codec::stored_symm_fp(&c.val, &zeros, spec.relabel_value)
                                .unwrap_or(c.fp)
                        });
                        own_cells[p] = mix(own_cells[p], mix(kfp, cfp));
                    }
                }
            }
        }
        let erased: Vec<[u64; 4]> = (0..n)
            .map(|p| {
                let [obs, flags, result] = self.symm_proc_word(p, quotient_obs, &zeros, spec);
                [obs, flags, result, own_cells[p]]
            })
            .collect();
        let order = canonical_order(&erased);
        let mut perm = vec![0; n];
        let mut nontrivial = false;
        for (rank, &p) in order.iter().enumerate() {
            perm[p] = rank;
            nontrivial |= rank != p;
        }
        let mut mem = 0u64;
        for (key, obj) in &w.objects {
            let mut h = Fnv1a::default();
            h.write_u64(u64::from(key.kind));
            h.write_u64(key.a);
            h.write_u64(key.b);
            h.write_u64(self.obj_symm_fp(obj, &perm, &order, spec));
            mem ^= h.finish();
        }
        if quotient_obs {
            mem = mix(mem, w.steps);
        }
        let fp = fold_state_fp(
            mem,
            order.iter().map(|&p| {
                let [obs, flags, result] = self.symm_proc_word(p, quotient_obs, &perm, spec);
                (obs, flags, result)
            }),
        );
        (fp, nontrivial)
    }

    /// One process's `(log fold, flags, result)` description word under
    /// the pid map `perm` — the erased sort key when `perm` is all
    /// zeros, a canonical-description entry when it is the induced
    /// permutation.
    fn symm_proc_word(
        &self,
        p: Pid,
        quotient_obs: bool,
        perm: &[Pid],
        spec: &super::Symmetry,
    ) -> [u64; 3] {
        let w = &self.world;
        let terminated = w.finished[p] || w.crashed[p];
        let obs = if quotient_obs && terminated {
            0
        } else {
            let mut acc = 0u64;
            for e in self.logs[p].iter() {
                let rfp = codec::stored_symm_fp(&e.result, perm, spec.relabel_value)
                    .unwrap_or_else(|| {
                        panic!(
                            "symmetry quotient: process {p} logged an operation result outside \
                             the codec value universe — pid-symmetric programs must keep results \
                             in the closed universe (docs/EXPLORER.md §8)"
                        )
                    });
                let mut h = Fnv1a::default();
                h.write_u64(e.op);
                h.write_u64(u64::from(e.key.kind));
                h.write_u64(e.key.a);
                h.write_u64(e.key.b);
                h.write_u64(rfp);
                acc = mix(acc, h.finish());
            }
            acc
        };
        let result = (spec.relabel_result)(w.results[p].unwrap_or(0), perm);
        [obs, w.flags(p), result]
    }

    /// [`super::Object`] content fingerprint under the pid map: the same
    /// tagged shape as the baseline object fingerprint, with every value
    /// leaf relabeled (falling back to the cell's unrelabeled
    /// fingerprint outside the codec universe — sound, merely less
    /// merging) and, for per-process snapshot objects (`cells.len() ==
    /// n`), cells moved to their canonical index: canonical position
    /// `rank` holds the relabeled cell of process `order[rank]`.
    fn obj_symm_fp(
        &self,
        obj: &super::Object,
        perm: &[Pid],
        order: &[Pid],
        spec: &super::Symmetry,
    ) -> u64 {
        let cell_fp = |c: &Option<super::Cell>| {
            c.as_ref().map_or(u64::MAX, |c| {
                codec::stored_symm_fp(&c.val, perm, spec.relabel_value).unwrap_or(c.fp)
            })
        };
        let mut h = Fnv1a::default();
        match obj {
            super::Object::Register(slot) => {
                h.write_u64(1);
                h.write_u64(cell_fp(slot));
            }
            super::Object::Snapshot(cells) => {
                h.write_u64(2);
                if cells.len() == self.n() {
                    for &p in order {
                        h.write_u64(cell_fp(&cells[p]));
                    }
                } else {
                    for c in cells {
                        h.write_u64(cell_fp(c));
                    }
                }
            }
            super::Object::Tas(taken) => {
                h.write_u64(3);
                h.write_u64(u64::from(*taken));
            }
            // `ports` is static per key, exactly as in the baseline
            // object fingerprint.
            super::Object::XCons { decided, .. } => {
                h.write_u64(4);
                h.write_u64(cell_fp(decided));
            }
        }
        h.finish()
    }

    /// The [`RunReport`] of the path that reached this state — built from
    /// the same record, by the same function, as a linear
    /// [`ModelWorld::run`] over the same schedule prefix (without its
    /// opt-in trace and state-hash recordings, which are path records,
    /// not state).
    ///
    /// `timed_out` marks a run cut by the step budget (alive processes
    /// report [`super::Outcome::Undecided`], as in a timed-out linear
    /// run).
    pub fn report(&self, timed_out: bool) -> RunReport {
        self.world.report(timed_out)
    }
}

impl ModelWorld {
    /// Moves `world` into a polled world, builds `pid`'s body future and
    /// polls it once under `admission`, then moves the record back out.
    /// The future is dropped after the poll: the snapshot keeps the log,
    /// which rebuilds it.
    fn poll_once(
        world: WorldState,
        admission: Admission,
        body: Body,
    ) -> (WorldState, Admission, Poll<u64>) {
        let pid = admission.pid;
        let polled_world = ModelWorld::with_state(world, Mode::Polled(admission));
        let mut fut = body(Env::new(polled_world.clone(), pid));
        let polled = poll_body(pid, &mut fut);
        drop(fut);
        let mut st = polled_world.st.lock();
        let Mode::Polled(admission) = std::mem::replace(&mut st.mode, Mode::Free) else {
            unreachable!("a polled world stays polled")
        };
        (std::mem::take(&mut st.world), admission, polled)
    }

    /// The initial [`Snapshot`] of a run of `bodies`: every process is
    /// settled at its first shared-memory gate (or has already decided,
    /// for bodies that return without touching shared memory). With
    /// `track`, fingerprint bookkeeping is enabled for the whole path —
    /// required for [`Snapshot::fingerprint`]. With `viewsum`, the
    /// observation histories fold declared view summaries instead of raw
    /// views ([`super::RunConfig::view_summaries`]) — a property of the
    /// whole path, inherited by every resumed successor.
    ///
    /// # Panics
    ///
    /// Panics if `bodies.len() != n` or if a body fails with a real panic.
    pub fn snapshot_root(n: usize, track: bool, viewsum: bool, bodies: Vec<Body>) -> Snapshot {
        ModelWorld::snapshot_root_tso(n, track, viewsum, false, bodies)
    }

    /// [`ModelWorld::snapshot_root`] with the memory model chosen
    /// explicitly: with `tso`, the whole path explores TSO store-buffer
    /// semantics ([`super::RunConfig::tso`]) — a root property inherited
    /// by every successor, like `viewsum`.
    pub fn snapshot_root_tso(
        n: usize,
        track: bool,
        viewsum: bool,
        tso: bool,
        bodies: Vec<Body>,
    ) -> Snapshot {
        assert_eq!(bodies.len(), n, "one body per process required");
        let mut world = WorldState::new(n, track, viewsum, tso);
        let mut pending_op = vec![None; n];
        let logs: Vec<Arc<Vec<LogEntry>>> = (0..n).map(|_| Arc::new(Vec::new())).collect();
        for (pid, body) in bodies.into_iter().enumerate() {
            // Probe (budget 0): the body parks at its first operation
            // without touching shared state, recording the op's footprint.
            let probe = Admission::new(pid, Vec::new(), 0, false);
            let (probed, probe, polled) = ModelWorld::poll_once(world, probe, body);
            world = probed;
            match polled {
                Poll::Ready(v) => world.finish(pid, v),
                Poll::Pending => pending_op[pid] = Some(probe.parked.expect("parked at a gate")),
            }
        }
        Snapshot { world, logs, pending_op }
    }

    /// Executes one scheduling decision from `snap`: grants alive process
    /// `pid` one shared-memory step of `body` (which must be the same
    /// deterministic closure the snapshot's path was built from) and
    /// returns the successor snapshot.
    ///
    /// # Panics
    ///
    /// Panics if `pid` is not alive in `snap`, or if `body` diverges from
    /// the recorded operation log (nondeterministic bodies are disallowed
    /// by the model).
    pub fn resume_from(snap: &Snapshot, pid: Pid, body: Body) -> Snapshot {
        assert!(
            pid < snap.n() && !snap.world.finished[pid] && !snap.world.crashed[pid],
            "resume_from requires an alive process (pid {pid})"
        );
        let mut log = Vec::with_capacity(snap.logs[pid].len() + 1);
        log.extend_from_slice(&snap.logs[pid]);
        let grant = Admission::new(pid, log, 1, true);
        let (mut world, grant, polled) = ModelWorld::poll_once(snap.world.clone(), grant, body);
        if let Poll::Ready(v) = polled {
            world.finish(pid, v);
        }
        assert_eq!(
            grant.cursor, grant.replay,
            "nondeterministic process body: replay consumed {} of {} logged operations",
            grant.cursor, grant.replay
        );
        assert_eq!(
            grant.executed, 1,
            "an alive process must complete exactly one granted step (completed {})",
            grant.executed
        );
        let mut logs = snap.logs.clone();
        logs[pid] = Arc::new(grant.log);
        let mut pending_op = snap.pending_op.clone();
        pending_op[pid] = if world.finished[pid] {
            None
        } else {
            Some(grant.parked.expect("a live body parks at its next gate"))
        };
        Snapshot { world, logs, pending_op }
    }

    /// Delivers an adversary crash to alive `pid` *instead of* its next
    /// step (a linear run's crash granularity) and returns the
    /// successor snapshot. Memory, logs, and step counters are untouched;
    /// only the liveness flags — and hence the fingerprint — change.
    ///
    /// # Panics
    ///
    /// Panics if `pid` is not alive in `snap`.
    pub fn resume_crash(snap: &Snapshot, pid: Pid) -> Snapshot {
        assert!(
            pid < snap.n() && !snap.world.finished[pid] && !snap.world.crashed[pid],
            "resume_crash requires an alive process (pid {pid})"
        );
        let mut out = snap.clone();
        out.world.crashed[pid] = true;
        out.pending_op[pid] = None;
        out
    }

    /// Flushes the oldest entry of `pid`'s store buffer to shared memory
    /// — one scheduling decision of the TSO flush band — and returns the
    /// successor snapshot. A flush is a hardware step, not a process
    /// step: memory, the buffer, and the global step counter change;
    /// logs, observation histories, and own-step clocks do not. Legal for
    /// finished and crashed owners (the hardware owns the buffer).
    ///
    /// # Panics
    ///
    /// Panics if the snapshot is not a TSO path or `pid`'s buffer is
    /// empty.
    pub fn resume_flush(snap: &Snapshot, pid: Pid) -> Snapshot {
        assert!(snap.is_tso(), "resume_flush requires a TSO path");
        assert!(
            pid < snap.n() && snap.buffered(pid) > 0,
            "resume_flush requires a non-empty store buffer (pid {pid})"
        );
        let mut out = snap.clone();
        out.world.flush_step(pid);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::super::{body, Body, ModelWorld, Outcome, RunConfig};
    use crate::sched::Schedule;
    use crate::world::ObjKey;

    const REG: ObjKey = ObjKey::new(30, 0, 0);
    const SNAP: ObjKey = ObjKey::new(31, 0, 0);

    fn writer_bodies(n: usize, rounds: u64) -> Vec<Body> {
        (0..n)
            .map(|i| {
                body(move |env| async move {
                    for r in 1..=rounds {
                        env.snap_write(SNAP, n, i, r).await;
                    }
                    let view = env.snap_scan::<u64>(SNAP, n).await;
                    view.into_iter().flatten().sum()
                })
            })
            .collect()
    }

    #[test]
    fn root_settles_every_process_at_its_first_gate() {
        let snap = ModelWorld::snapshot_root(3, true, false, writer_bodies(3, 2));
        assert_eq!(snap.alive(), vec![0, 1, 2]);
        assert_eq!(snap.steps(), 0);
        assert!(
            !snap.pending_footprint(0).is_some_and(|f| f.pure_read),
            "first op is a snap_write"
        );
        assert!(!snap.is_terminal());
    }

    #[test]
    fn root_records_immediately_deciding_bodies() {
        let bodies: Vec<Body> = vec![
            body(|_env| async { 41 }),
            body(|env| async move { u64::from(env.tas(REG).await) }),
        ];
        let snap = ModelWorld::snapshot_root(2, false, false, bodies);
        assert_eq!(snap.alive(), vec![1]);
        assert_eq!(snap.report(false).outcomes[0], Outcome::Decided(41));
    }

    #[test]
    fn resume_steps_match_a_gated_indexed_run() {
        // Drive snapshot resume and a linear run down the same
        // indexed schedule; outcomes, steps, and every per-pick
        // fingerprint must agree.
        let n = 2;
        let mut snap = ModelWorld::snapshot_root(n, true, false, writer_bodies(n, 2));
        let mut choices = Vec::new();
        let mut resumed_hashes = Vec::new();
        while !snap.is_terminal() {
            let alive = snap.alive();
            // A fixed but non-trivial zig-zag through the alive sets.
            let c = choices.len() % alive.len();
            let pid = alive[c];
            choices.push(c);
            let body = writer_bodies(n, 2).into_iter().nth(pid).unwrap();
            snap = ModelWorld::resume_from(&snap, pid, body);
            resumed_hashes.push(snap.fingerprint());
        }
        let gated = ModelWorld::run(
            RunConfig::new(n).schedule(Schedule::Indexed { choices }).record_state_hashes(true),
            writer_bodies(n, 2),
        );
        let report = snap.report(false);
        assert_eq!(report.outcomes, gated.outcomes);
        assert_eq!(report.steps, gated.steps);
        assert_eq!(report.ops_by_kind, gated.ops_by_kind);
        assert_eq!(resumed_hashes, gated.state_hashes.unwrap());
    }

    #[test]
    fn resume_crash_kills_without_consuming_steps() {
        let n = 2;
        let snap = ModelWorld::snapshot_root(n, false, false, writer_bodies(n, 1));
        let crashed = ModelWorld::resume_crash(&snap, 0);
        assert_eq!(crashed.alive(), vec![1]);
        assert_eq!(crashed.steps(), 0);
        assert_eq!(crashed.own_steps(0), 0);
        let report = crashed.report(false);
        assert_eq!(report.outcomes[0], Outcome::Crashed);
    }

    #[test]
    fn pending_read_tracks_the_next_operation() {
        // Body: one write, then a scan — after the write step the process
        // must be parked before a pure read.
        let n = 1;
        let bodies = || {
            vec![body(move |env| async move {
                env.snap_write(SNAP, 1, 0, 7u64).await;
                env.snap_scan::<u64>(SNAP, 1).await;
                0
            })]
        };
        let snap = ModelWorld::snapshot_root(n, false, false, bodies());
        assert!(!snap.pending_footprint(0).is_some_and(|f| f.pure_read));
        let snap = ModelWorld::resume_from(&snap, 0, bodies().remove(0));
        assert!(snap.pending_footprint(0).is_some_and(|f| f.pure_read), "parked before the scan");
        let snap = ModelWorld::resume_from(&snap, 0, bodies().remove(0));
        assert!(snap.is_terminal());
        assert_eq!(snap.steps(), 2);
    }

    #[test]
    #[should_panic(expected = "nondeterministic process body")]
    fn diverging_replay_is_detected() {
        let make = |tag: u64| {
            vec![body(move |env| async move {
                if tag == 0 {
                    env.reg_write(REG, 1u64).await;
                } else {
                    env.tas(REG.with_b(9)).await;
                }
                env.reg_write(REG.with_b(1), 2u64).await;
                0
            })]
        };
        let snap = ModelWorld::snapshot_root(1, false, false, make(0));
        let snap = ModelWorld::resume_from(&snap, 0, make(0).remove(0));
        // Resuming with a *different* body: the log replay must detect it.
        ModelWorld::resume_from(&snap, 0, make(1).remove(0));
    }

    #[test]
    #[should_panic(expected = "virtual process 0 failed")]
    fn real_panics_surface_through_resume() {
        let bodies: Vec<Body> = vec![body(|_env| async { panic!("algorithm bug") })];
        ModelWorld::snapshot_root(1, false, false, bodies);
    }
}
