//! The deterministic, crash-injecting model world.
//!
//! [`ModelWorld`] executes a set of virtual processes — `async` bodies
//! over [`Env`], built with [`body`] — as futures polled on the caller
//! thread. Every shared-memory operation a body awaits asks the world
//! whether it may run; the engine lets one operation run at a time, and
//! an operation that may not run returns `Poll::Pending`, which parks
//! the whole body at that **gate**.
//! Consequences:
//!
//! * every operation is an atomic step (linearizability by construction),
//!   matching the paper's model where processes "execute a sequence of
//!   atomic steps";
//! * runs are **deterministic**: given the same [`RunConfig`] (schedule
//!   seed, crash policy) and the same process bodies, the step trace and
//!   all outcomes are identical;
//! * crashes are delivered *instead of* a process's next step, i.e. between
//!   two shared accesses — so a crash can land in the middle of a
//!   multi-step protocol (e.g. inside `sa_propose`), which is precisely the
//!   failure mode the BG-style simulations must tolerate. A crash drops
//!   the process's future at its gate.
//!
//! Processes signal decision by returning a `u64` from their body. A run
//! ends when every process has returned or crashed, or when the step budget
//! is exhausted (remaining processes are reported [`Outcome::Undecided`] —
//! used by the boundary experiments to detect forever-blocked simulations).
//!
//! **One polled engine, two uses.** [`ModelWorld::run`] keeps one live
//! future per process and polls the scheduled one with a budget of one
//! fresh operation, and keeps no log. **Snapshot
//! resumption** ([`Snapshot`], [`ModelWorld::resume_from`]) checkpoints
//! shared memory, per-process operation logs (the continuation cursors)
//! and observation histories, and executes one further step by building
//! a fresh future and polling it once against the log. The exhaustive
//! explorer ([`crate::explore`]) is built on it. Both uses admit an
//! operation through the same poll (`Admission`), and a real panic in a
//! body surfaces from that poll as `virtual process {pid} failed: {msg}`.
//!
//! **One state record.** The world state — memory, the memory and
//! observation fingerprints, liveness, results, counters and store
//! buffers — is declared once, as `WorldState`, together with every
//! operation, flush, fingerprint and outcome over it. A linear run owns
//! one; a snapshot embeds one, and resumption moves a copy into a polled
//! world and back out. Both decode a choice vector through the one
//! decoder of [`Schedule::Indexed`]. The cross-check
//! (`tests/proptests.rs`) therefore compares a live future against log
//! replay over one record, not two copies of the state.

pub(crate) mod codec;
mod snapshot;

pub use codec::{CodecError, CODEC_VERSION};
pub use snapshot::Snapshot;

use snapshot::LogEntry;

use std::any::Any;
use std::collections::HashMap;
use std::future::Future;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::pin::Pin;
use std::sync::Arc;
use std::task::{Context, Poll};

use parking_lot::Mutex;

use crate::fingerprint::{fold_state_fp, fp_of, mix, Fnv1a};
use crate::sched::{CrashState, Crashes, Pick, Schedule, ScheduleState};
use crate::world::{noop_waker, Env, MemVal, ObjKey, Pid, Stored, World};
use std::hash::Hasher;

/// Final status of one virtual process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// The process returned (decided) this value.
    Decided(u64),
    /// The process was crashed by the adversary.
    Crashed,
    /// The process was still running when the step budget ran out
    /// (blocked forever, or simply starved).
    Undecided,
}

impl Outcome {
    /// The decided value, if any.
    pub fn decided(&self) -> Option<u64> {
        match self {
            Outcome::Decided(v) => Some(*v),
            _ => None,
        }
    }
}

/// Result of a run: a linear [`ModelWorld::run`], or the path to a
/// [`Snapshot`] ([`Snapshot::report`]). Both build the outcomes, step
/// count and op accounting from the same world-state record, so the two
/// report a schedule identically; only the linear run can add the
/// opt-in path recordings (`trace`, `state_hashes`).
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Per-process outcome, indexed by [`Pid`].
    pub outcomes: Vec<Outcome>,
    /// Total completed shared-memory steps (store-buffer flushes
    /// included under TSO).
    pub steps: u64,
    /// `true` if the step budget was exhausted before every process
    /// finished or crashed.
    pub timed_out: bool,
    /// The schedule of completed steps, if requested via
    /// [`RunConfig::record_trace`].
    pub trace: Option<Vec<Pid>>,
    /// The global-state fingerprint after each pick, if requested via
    /// [`RunConfig::record_state_hashes`]; entry `i` identifies the state
    /// reached by the schedule prefix of `i + 1` picks (shared memory +
    /// per-process observation history + liveness flags + results; a
    /// pick is a step grant, a crash delivery or a flush). Equal
    /// fingerprints mean equal futures under equal schedule suffixes —
    /// the prefix-pruning invariant of [`crate::explore`] — and entry `i`
    /// equals [`Snapshot::fingerprint`] after the same `i + 1` picks.
    pub state_hashes: Option<Vec<u64>>,
    /// Completed shared-memory operations per object-kind namespace —
    /// the cost breakdown of a run (e.g. how many steps went to the BG
    /// simulation's input agreements vs. snapshot agreements vs. `MEM`).
    /// Sorted by kind for stable output.
    pub ops_by_kind: Vec<(u32, u64)>,
}

impl RunReport {
    /// Values decided by processes that finished.
    pub fn decided_values(&self) -> Vec<u64> {
        self.outcomes.iter().filter_map(Outcome::decided).collect()
    }

    /// Pids crashed by the adversary.
    pub fn crashed_pids(&self) -> Vec<Pid> {
        self.pids_with(|o| matches!(o, Outcome::Crashed))
    }

    /// Pids that neither decided nor crashed (blocked/starved at timeout).
    pub fn undecided_pids(&self) -> Vec<Pid> {
        self.pids_with(|o| matches!(o, Outcome::Undecided))
    }

    /// Completed operations on object kind `kind` (0 if none).
    pub fn ops_on_kind(&self, kind: u32) -> u64 {
        self.ops_by_kind.iter().find(|(k, _)| *k == kind).map_or(0, |(_, c)| *c)
    }

    /// `true` iff every non-crashed process decided.
    pub fn all_correct_decided(&self) -> bool {
        self.outcomes.iter().all(|o| !matches!(o, Outcome::Undecided))
    }

    /// Number of distinct decided values.
    pub fn distinct_decisions(&self) -> usize {
        let mut v = self.decided_values();
        v.sort_unstable();
        v.dedup();
        v.len()
    }

    fn pids_with(&self, f: impl Fn(&Outcome) -> bool) -> Vec<Pid> {
        self.outcomes.iter().enumerate().filter(|(_, o)| f(o)).map(|(p, _)| p).collect()
    }
}

/// Configuration of one model-world run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    n: usize,
    schedule: Schedule,
    crashes: Crashes,
    max_steps: u64,
    record_trace: bool,
    record_state_hashes: bool,
    view_summaries: bool,
    tso: bool,
}

impl RunConfig {
    /// A run of `n` processes with the default schedule (seeded random),
    /// no crashes, and a 2-million-step budget.
    pub fn new(n: usize) -> Self {
        RunConfig {
            n,
            schedule: Schedule::default(),
            crashes: Crashes::None,
            max_steps: 2_000_000,
            record_trace: false,
            record_state_hashes: false,
            view_summaries: false,
            tso: false,
        }
    }

    /// The exact configuration a recorded choice vector must be re-run
    /// under: `n` processes, the original crash plan and step budget, and
    /// the [`Schedule::Indexed`] policy over `choices`.
    ///
    /// Shared by [`crate::explore::replay`] and the explorer's internal
    /// counterexample confirmation re-run, so reproduction configs cannot
    /// drift from sweep configs.
    pub fn replay(n: usize, crashes: Crashes, max_steps: u64, choices: &[usize]) -> Self {
        RunConfig::new(n)
            .schedule(Schedule::Indexed { choices: choices.to_vec() })
            .crashes(crashes)
            .max_steps(max_steps)
    }

    /// Sets the scheduling policy.
    pub fn schedule(mut self, s: Schedule) -> Self {
        self.schedule = s;
        self
    }

    /// Sets the crash adversary.
    pub fn crashes(mut self, c: Crashes) -> Self {
        self.crashes = c;
        self
    }

    /// Sets the step budget.
    pub fn max_steps(mut self, m: u64) -> Self {
        self.max_steps = m;
        self
    }

    /// Records the step trace into the report (for determinism tests).
    pub fn record_trace(mut self, yes: bool) -> Self {
        self.record_trace = yes;
        self
    }

    /// Records a global-state fingerprint after every pick (for the
    /// explorer's visited-state pruning). Enables the per-operation
    /// fingerprint bookkeeping, so leave it off for plain runs.
    pub fn record_state_hashes(mut self, yes: bool) -> Self {
        self.record_state_hashes = yes;
        self
    }

    /// Folds **declared view summaries** ([`World::snap_scan_via`])
    /// instead of raw views into the per-process observation histories
    /// the state fingerprints hash. Only meaningful together with
    /// [`RunConfig::record_state_hashes`]; run *behavior* is identical
    /// either way (the calling process only ever receives the summary).
    /// Off by default so recorded state hashes stay comparable with the
    /// summary-free engine; the explorer switches it on under
    /// [`crate::explore::Reduction::view_summaries`].
    pub fn view_summaries(mut self, yes: bool) -> Self {
        self.view_summaries = yes;
        self
    }

    /// Explores **TSO (total store order)** semantics instead of
    /// sequential consistency: every `reg_write` / `snap_write` *enqueues*
    /// into the calling process's FIFO store buffer (one atomic step, but
    /// no memory change), and the buffered write reaches shared memory
    /// only when a distinct **flush** action is scheduled —
    /// [`crate::sched::Schedule::Indexed`]'s third index band,
    /// `2 * alive.len() .. 2 * alive.len() + n`, addressing buffers by
    /// raw pid (buffers keep draining after their owner finishes or
    /// crashes: the hardware owns them, not the process). Reads forward
    /// from the issuing process's own buffer (newest entry per
    /// object/cell); `tas` / `xcons_propose` / [`World::fence`] drain the
    /// caller's buffer before (or as) their step, the x86-TSO fence
    /// discipline. Off by default — SC runs are byte-identical to the
    /// pre-TSO engine.
    ///
    /// Linear TSO runs require an [`crate::sched::Schedule::Indexed`]
    /// policy (no other policy can schedule flushes); the exhaustive
    /// explorer enumerates flush branches natively
    /// (`crate::explore::Explorer::tso`).
    pub fn tso(mut self, yes: bool) -> Self {
        self.tso = yes;
        self
    }

    /// Whether the run explores TSO store-buffer semantics.
    pub fn is_tso(&self) -> bool {
        self.tso
    }

    /// Number of processes.
    pub fn n(&self) -> usize {
        self.n
    }
}

/// A process body: given its [`Env`] handle, builds the future an engine
/// polls; the future's output is the process's decision. Build one with
/// [`body`].
pub type Body = Box<dyn FnOnce(Env<ModelWorld>) -> BodyFuture + Send>;

/// The future of one running process body. It is polled only on the
/// thread that built it, so it need not be `Send`.
pub type BodyFuture = Pin<Box<dyn Future<Output = u64>>>;

/// Boxes an async process body:
/// `body(move |env| async move { env.tas(key).await.into() })`.
pub fn body<F, Fut>(f: F) -> Body
where
    F: FnOnce(Env<ModelWorld>) -> Fut + Send + 'static,
    Fut: Future<Output = u64> + 'static,
{
    Box::new(move |env| Box::pin(f(env)))
}

/// A program's declaration that it is **pid-symmetric**: permuting the
/// process identities yields an automorphism of its transition system, so
/// the explorer may canonicalize visited-state identity under pid
/// permutation ([`Snapshot::fingerprint_symmetric`],
/// [`crate::explore::Reduction::symmetry`]).
///
/// The declaration consists of two pid-relabel maps over the `u64` leaves
/// the program stores and returns (both are plain `fn` pointers so the
/// spec stays `Copy` and needs no serialization — a resumed sweep
/// re-supplies it alongside the bodies, see
/// [`crate::explore::Explorer::resume_sweep_with_symmetry`]):
///
/// * `relabel_value(v, perm)` — how a value **written to shared memory or
///   returned by an operation** transforms when process `p` is renamed to
///   `perm[p]`. Values that carry no pid must map to themselves;
///   pid-carrying values (e.g. fig1's proposal `100 + p`) map through
///   `perm`. Applied structurally to every `u64` leaf of the codec's
///   closed value universe.
/// * `relabel_result(r, perm)` — the same map for the `u64` a process
///   body **returns** (its decision), which may use a different encoding
///   than stored values (fig1 returns `v + 1`).
///
/// Both maps must satisfy, for every value `v` in the program's reachable
/// universe and all permutations `π`, `σ`: `relabel(v, id) = v` and
/// `relabel(relabel(v, π), σ) = relabel(v, σ∘π)` — i.e. they are a group
/// action of the symmetric group on the value universe. The program's
/// bodies must be identical up to `relabel_value` of the pid-dependent
/// constants, and its checker must be permutation-closed (accept a run
/// iff it accepts every pid-permuted run). `docs/EXPLORER.md` §3 carries
/// the full soundness argument and §8 the program-side contract.
#[derive(Clone, Copy)]
pub struct Symmetry {
    /// Relabels a stored/observed `u64` leaf under a pid permutation.
    pub relabel_value: fn(u64, &[Pid]) -> u64,
    /// Relabels a decided (body-returned) `u64` under a pid permutation.
    pub relabel_result: fn(u64, &[Pid]) -> u64,
}

impl std::fmt::Debug for Symmetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Symmetry").finish_non_exhaustive()
    }
}

/// A stored value together with its fingerprint (0 when fingerprint
/// tracking is off — see [`WorldState::track`]).
#[derive(Debug, Clone)]
struct Cell {
    val: Stored,
    fp: u64,
}

impl Cell {
    fn new<T: MemVal>(val: T, track: bool) -> Self {
        let fp = if track { fp_of(&val) } else { 0 };
        Cell { val: Arc::new(val), fp }
    }
}

#[derive(Debug, Clone)]
enum Object {
    Register(Option<Cell>),
    Snapshot(Vec<Option<Cell>>),
    Tas(bool),
    XCons { ports: Vec<Pid>, decided: Option<Cell> },
}

impl Object {
    /// Content fingerprint (independent of `HashMap` iteration order when
    /// XOR-combined per key into [`WorldState::mem_fp`]).
    fn fp(&self) -> u64 {
        let mut h = Fnv1a::default();
        match self {
            Object::Register(slot) => {
                h.write_u64(1);
                h.write_u64(slot.as_ref().map_or(u64::MAX, |c| c.fp));
            }
            Object::Snapshot(cells) => {
                h.write_u64(2);
                for c in cells {
                    h.write_u64(c.as_ref().map_or(u64::MAX, |c| c.fp));
                }
            }
            Object::Tas(taken) => {
                h.write_u64(3);
                h.write_u64(u64::from(*taken));
            }
            // `ports` is static per key (checked on every access) and so
            // carries no state.
            Object::XCons { decided, .. } => {
                h.write_u64(4);
                h.write_u64(decided.as_ref().map_or(u64::MAX, |c| c.fp));
            }
        }
        h.finish()
    }
}

/// The world state both engines move, and the only place it is declared:
/// a [`Snapshot`] embeds one, and a linear [`ModelWorld::run`] owns one.
/// Every operation, flush, crash and outcome is defined once, here, over
/// this record; the two uses of the polled engine differ only in where a
/// body's future comes from (a live future vs. one rebuilt and replayed
/// from its log).
#[derive(Debug, Clone, Default)]
struct WorldState {
    /// Shared memory.
    objects: HashMap<ObjKey, Object>,
    /// Incrementally maintained XOR accumulator over
    /// `hash(key, object-content)` of every object in `objects` —
    /// maintained as a delta on each write instead of rehashing the full
    /// map (XOR, not [`mix`], so the fold is independent of `HashMap`
    /// iteration order). Only maintained under [`WorldState::track`].
    mem_fp: u64,
    /// Per-process rolling fingerprint of the operation/observation
    /// history: every shared-memory operation folds (op tag, key, result
    /// fingerprint) into its caller's entry. Because process bodies are
    /// deterministic closures whose control state is exactly a function of
    /// the values their operations returned, two runs in which every
    /// process has the same observation fingerprint (and memory agrees)
    /// are in behaviorally identical global states.
    obs_fp: Vec<u64>,
    /// The process returned (its value is in `results`).
    finished: Vec<bool>,
    /// The process was crashed by the adversary. (A timed-out linear run
    /// drops blocked processes' futures without setting this: they
    /// report [`Outcome::Undecided`].)
    crashed: Vec<bool>,
    results: Vec<Option<u64>>,
    /// Completed operations per process (the crash adversary's own-step
    /// clock).
    own_steps: Vec<u64>,
    /// Completed operations per object-kind namespace.
    op_counts: HashMap<u32, u64>,
    /// Completed steps: operations plus store-buffer flushes.
    steps: u64,
    /// Per-process FIFO store buffers (always empty when
    /// [`WorldState::tso`] is off). `buffers[p]` holds `p`'s
    /// issued-but-unflushed writes, oldest first.
    buffers: Vec<Vec<BufferedWrite>>,
    /// Fingerprint bookkeeping enabled (set by
    /// [`RunConfig::record_state_hashes`] or a tracked
    /// [`ModelWorld::snapshot_root`]); off for plain runs so the
    /// per-operation hashing costs nothing.
    track: bool,
    /// Fold declared view summaries instead of raw views into
    /// [`WorldState::obs_fp`] ([`RunConfig::view_summaries`]). Only read
    /// where [`WorldState::track`] is on; never changes behavior. Fixed
    /// for the whole path, so a path never mixes the two identities.
    viewsum: bool,
    /// TSO mode ([`RunConfig::tso`]): writes enqueue into
    /// [`WorldState::buffers`] instead of touching memory. Fixed for the
    /// whole path, like [`WorldState::viewsum`].
    tso: bool,
}

/// Operation tags folded into [`WorldState::obs_fp`].
const OP_REG_WRITE: u64 = 1;
const OP_REG_READ: u64 = 2;
const OP_SNAP_WRITE: u64 = 3;
const OP_SNAP_SCAN: u64 = 4;
const OP_TAS: u64 = 5;
const OP_XCONS: u64 = 6;
/// A [`World::fence`] step (TSO mode only: under SC a fence never gates).
const OP_FENCE: u64 = 7;
/// The footprint tag of a store-buffer **flush** action (TSO mode). Never
/// appears in operation logs — a flush is a hardware action, not a process
/// step — only in [`Footprint`]s and the explorer's action encoding.
pub(crate) const OP_FLUSH: u64 = 8;

/// Object-kind namespace of the per-process pseudo-key a fence step is
/// accounted and logged under (`ObjKey::new(FENCE_KIND, pid, 0)`): fences
/// touch no single object, so they get a key outside every program
/// family.
const FENCE_KIND: u32 = u32::MAX;

/// One write on its way to shared memory: the target object, the
/// snapshot cell for `snap_write` (`None` for a register write), the
/// snapshot length (to default-create the object on first access), and
/// the value with its fingerprint. Under TSO it parks in the issuing
/// process's FIFO store buffer until flushed; under SC it is stored at
/// once.
#[derive(Debug, Clone)]
pub(crate) struct BufferedWrite {
    key: ObjKey,
    cell_idx: Option<usize>,
    len: usize,
    cell: Cell,
}

impl BufferedWrite {
    /// The dependency footprint of flushing this entry: a write to the
    /// target object (cell-granular for snapshot cells), so
    /// [`Footprint::commutes`] gives flush/flush independence on distinct
    /// objects and flush/read conflicts on the flushed object for free.
    pub(crate) fn flush_footprint(&self) -> Footprint {
        Footprint::new(OP_FLUSH, self.key, self.cell_idx.map(|i| i as u64), false)
    }
}

/// Per-process store-buffer fingerprint: an order-sensitive fold of
/// `(key, cell, value fp)` per entry.
fn buffer_fp(buf: &[BufferedWrite]) -> u64 {
    let mut acc = 0u64;
    for w in buf {
        let mut h = Fnv1a::default();
        h.write_u64(u64::from(w.key.kind));
        h.write_u64(w.key.a);
        h.write_u64(w.key.b);
        h.write_u64(w.cell_idx.map_or(u64::MAX, |i| i as u64));
        h.write_u64(w.cell.fp);
        acc = mix(acc, h.finish());
    }
    acc
}

/// The dependency footprint of one shared-memory operation: which object
/// it touches, at what granularity, and whether it can change memory.
///
/// A [`Snapshot`] records the footprint of the operation each parked
/// process is about to execute ([`Snapshot::pending_footprint`]); the
/// exhaustive explorer's DPOR-style reduction ([`crate::explore`]) uses
/// [`Footprint::commutes`] to recognize adjacent independent actions and
/// explore them in canonical order only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Footprint {
    /// Operation tag (the `OP_*` log-entry tag).
    op: u64,
    /// The object accessed.
    pub key: ObjKey,
    /// For `snap_write`: the cell written. Writes to distinct cells of
    /// the same snapshot object commute.
    pub cell: Option<u64>,
    /// Pure read (`reg_read` / `snap_scan`): cannot change shared memory.
    pub pure_read: bool,
}

impl Footprint {
    const fn new(op: u64, key: ObjKey, cell: Option<u64>, pure_read: bool) -> Self {
        Footprint { op, key, cell, pure_read }
    }

    /// `true` when the two operations, executed adjacently by two
    /// *different* processes, commute as actions: either order yields the
    /// same shared memory, and each operation returns the same value
    /// either way (so both processes' observation histories — and hence
    /// their control states — also agree across the two orders).
    ///
    /// Conservative by construction: `false` never loses soundness, it
    /// only costs reduction. The recognized independent pairs are
    ///
    /// * two pure reads (any objects),
    /// * operations on different objects,
    /// * `snap_write`s to *distinct cells* of the same snapshot object
    ///   (each writer observes only its own completion).
    pub fn commutes(&self, other: &Footprint) -> bool {
        if self.pure_read && other.pure_read {
            return true;
        }
        if self.key != other.key {
            return true;
        }
        match (self.cell, other.cell) {
            (Some(a), Some(b)) => a != b,
            _ => false,
        }
    }

    /// `true` for operations that drain the caller's store buffer under
    /// TSO (`tas`, `xcons_propose`, [`World::fence`]): their step may
    /// write *several* objects beyond [`Footprint::key`], so the TSO
    /// explorer treats them as conflicting with every adjacent action
    /// instead of trusting the single-key footprint. SC commutation is
    /// untouched — buffers are empty there, and the SC reduction never
    /// consults this.
    pub(crate) fn fences(&self) -> bool {
        matches!(self.op, OP_TAS | OP_XCONS | OP_FENCE)
    }
}

/// `hash(key, object-content)` — the per-key word XOR-folded into
/// [`WorldState::mem_fp`].
fn key_obj_fp(key: ObjKey, obj: &Object) -> u64 {
    let mut h = Fnv1a::default();
    h.write_u64(u64::from(key.kind));
    h.write_u64(key.a);
    h.write_u64(key.b);
    h.write_u64(obj.fp());
    h.finish()
}

impl WorldState {
    /// The initial state of an `n`-process world.
    fn new(n: usize, track: bool, viewsum: bool, tso: bool) -> Self {
        WorldState {
            obs_fp: vec![0; n],
            finished: vec![false; n],
            crashed: vec![false; n],
            results: vec![None; n],
            own_steps: vec![0; n],
            buffers: vec![Vec::new(); n],
            track,
            viewsum,
            tso,
            ..WorldState::default()
        }
    }

    /// Number of processes.
    fn n(&self) -> usize {
        self.finished.len()
    }

    /// Schedulable processes (neither finished nor crashed), in
    /// increasing pid order — the order [`Schedule::Indexed`] indexes
    /// into.
    fn alive(&self) -> Vec<Pid> {
        (0..self.n()).filter(|&p| !self.finished[p] && !self.crashed[p]).collect()
    }

    /// Processes with a non-empty store buffer, in increasing pid order
    /// (always empty under SC).
    fn flushable(&self) -> Vec<Pid> {
        (0..self.n()).filter(|&p| !self.buffers[p].is_empty()).collect()
    }

    /// Records that `pid`'s body returned `v`.
    fn finish(&mut self, pid: Pid, v: u64) {
        self.finished[pid] = true;
        self.results[pid] = Some(v);
    }

    /// Folds one completed operation of `pid` into its observation
    /// fingerprint (only called when [`WorldState::track`] is set).
    fn observe(&mut self, pid: Pid, op: u64, key: ObjKey, result_fp: u64) {
        let mut h = Fnv1a::default();
        h.write_u64(op);
        h.write_u64(u64::from(key.kind));
        h.write_u64(key.a);
        h.write_u64(key.b);
        h.write_u64(result_fp);
        self.obs_fp[pid] = mix(self.obs_fp[pid], h.finish());
    }

    /// Accounts one completed operation of `pid` on object kind `kind`.
    fn count_op(&mut self, pid: Pid, kind: u32) {
        self.own_steps[pid] += 1;
        self.steps += 1;
        *self.op_counts.entry(kind).or_insert(0) += 1;
    }

    /// Runs `f` on the object at `key` (created via `default` on first
    /// access), maintaining the incremental memory fingerprint
    /// [`WorldState::mem_fp`]: the key's contribution is XORed out before
    /// and back in after the access, and a freshly defaulted object is
    /// XORed in — so `mem_fp` always equals the full-map walk without
    /// ever recomputing it (asserted per pick in debug builds by the
    /// linear run's state hashes).
    fn with_obj<R>(
        &mut self,
        key: ObjKey,
        default: impl FnOnce() -> Object,
        f: impl FnOnce(&mut Object) -> R,
    ) -> R {
        let track = self.track;
        let existed = !track || self.objects.contains_key(&key);
        let obj = self.objects.entry(key).or_insert_with(default);
        let before = if track && existed { key_obj_fp(key, obj) } else { 0 };
        let out = f(obj);
        if track {
            let after = key_obj_fp(key, obj);
            self.mem_fp ^= before ^ after;
        }
        out
    }

    /// Performs `pid`'s write: under TSO it parks in `pid`'s store buffer
    /// (shared memory changes only at the flush step), under SC it is
    /// stored at once.
    fn write(&mut self, pid: Pid, w: BufferedWrite) {
        if self.tso {
            self.buffers[pid].push(w);
        } else {
            self.store(w);
        }
    }

    /// Stores one write in shared memory.
    fn store(&mut self, w: BufferedWrite) {
        let BufferedWrite { key, cell_idx, len, cell } = w;
        let default = || match cell_idx {
            None => Object::Register(None),
            Some(_) => Object::Snapshot(vec![None; len]),
        };
        self.with_obj(key, default, |obj| match (cell_idx, obj) {
            (None, Object::Register(slot)) => *slot = Some(cell),
            (Some(i), Object::Snapshot(cells)) => {
                assert_eq!(cells.len(), len, "snapshot {key} length mismatch");
                cells[i] = Some(cell);
            }
            (None, other) => panic!("object {key} is not a register: {other:?}"),
            (Some(_), other) => panic!("object {key} is not a snapshot object: {other:?}"),
        });
    }

    /// Stores the oldest entry of `pid`'s store buffer in shared memory.
    fn flush_head(&mut self, pid: Pid) {
        assert!(!self.buffers[pid].is_empty(), "flush of an empty store buffer (pid {pid})");
        let w = self.buffers[pid].remove(0);
        self.store(w);
    }

    /// One action of the TSO flush band: flushes `pid`'s buffer head as
    /// one global step of the hardware, not of any process — memory, the
    /// buffer and the step count change; logs, observation histories and
    /// own-step clocks do not.
    fn flush_step(&mut self, pid: Pid) {
        self.flush_head(pid);
        self.steps += 1;
    }

    /// Drains `pid`'s store buffer to shared memory in FIFO order — the
    /// x86-TSO semantics of atomic read-modify-write operations and
    /// fences, executed as part of the draining step.
    fn drain_buffer(&mut self, pid: Pid) {
        while !self.buffers[pid].is_empty() {
            self.flush_head(pid);
        }
    }

    /// The full-map recomputation of [`WorldState::mem_fp`] — only used
    /// to cross-check the incremental accumulator in debug builds.
    fn recompute_mem_fp(&self) -> u64 {
        self.objects.iter().fold(0u64, |acc, (key, obj)| acc ^ key_obj_fp(*key, obj))
    }

    /// The flags word of process `p`: finished, adversary-crashed (in
    /// bits 1 and 2 both, the layout every pinned fingerprint — golden
    /// catalogue, spilled sweeps — was computed with) and has-result,
    /// extended with the store-buffer contents when (and only when) the
    /// buffer is non-empty, so an SC state and a TSO state with drained
    /// buffers have the same identity. The one definition behind every
    /// state fingerprint: plain, quotient and symmetric.
    fn flags(&self, p: Pid) -> u64 {
        let flags = u64::from(self.finished[p])
            | u64::from(self.crashed[p]) << 1
            | u64::from(self.crashed[p]) << 2
            | u64::from(self.results[p].is_some()) << 3;
        let buf = &self.buffers[p];
        if buf.is_empty() {
            flags
        } else {
            mix(flags, buffer_fp(buf))
        }
    }

    /// Fingerprint of the current global state: shared memory (the
    /// incrementally maintained, iteration-order-independent
    /// [`WorldState::mem_fp`]), plus every process's observation history,
    /// flags word and result. Deliberately excluded: step counters and
    /// `op_counts` (path statistics, not state).
    ///
    /// With `quotient_obs`, terminated (finished or crashed) processes
    /// contribute `0` in place of their observation histories, and the
    /// path's total step count — which the explorer's `max_steps`
    /// timeout reads, never a terminated process's share of it — is
    /// folded into the memory word in their stead
    /// ([`Snapshot::fingerprint_quotient`]).
    fn fingerprint(&self, quotient_obs: bool) -> u64 {
        debug_assert!(self.track, "fingerprints require tracking");
        let mem = if quotient_obs { mix(self.mem_fp, self.steps) } else { self.mem_fp };
        fold_state_fp(
            mem,
            (0..self.n()).map(|p| {
                let terminated = self.finished[p] || self.crashed[p];
                let obs = if quotient_obs && terminated { 0 } else { self.obs_fp[p] };
                (obs, self.flags(p), self.results[p].unwrap_or(0))
            }),
        )
    }

    /// The [`RunReport`] of the path that reached this state: the
    /// decided processes, the adversary's crashes, and everyone else
    /// [`Outcome::Undecided`]; no path recordings.
    fn report(&self, timed_out: bool) -> RunReport {
        let outcomes = (0..self.n())
            .map(|p| match self.results[p] {
                Some(v) => Outcome::Decided(v),
                None if self.crashed[p] => Outcome::Crashed,
                None => Outcome::Undecided,
            })
            .collect();
        let mut ops_by_kind: Vec<(u32, u64)> =
            self.op_counts.iter().map(|(&k, &c)| (k, c)).collect();
        ops_by_kind.sort_unstable();
        RunReport {
            outcomes,
            steps: self.steps,
            timed_out,
            trace: None,
            state_hashes: None,
            ops_by_kind,
        }
    }
}

/// How the polled engines admit the operations of the one process they
/// are polling: replay its log, run its granted fresh operations, and
/// park it at the next one.
struct Admission {
    /// The process being polled; no other body runs during its poll.
    pid: Pid,
    /// Its operation log: the first `replay` entries come from a
    /// snapshot (none for a live future, which has already run past
    /// every operation it completed), and executed operations are
    /// appended when `extend_log` is set.
    log: Vec<LogEntry>,
    /// Logged entries to replay before any operation runs.
    replay: usize,
    /// Log entries replayed so far (the continuation cursor).
    cursor: usize,
    /// Fresh operations this poll may execute before parking (0 = probe
    /// to the first gate).
    budget: usize,
    /// Fresh operations executed this poll.
    executed: usize,
    /// Append executed operations to `log` (snapshot resume; a linear
    /// run keeps no log).
    extend_log: bool,
    /// Footprint of the operation the body parked at, once it did.
    parked: Option<Footprint>,
}

/// What [`ModelWorld::poll_op`] does with an operation of the polled
/// process.
enum Admit<R> {
    /// Answered from the log: return this value, execute nothing.
    Replayed(R),
    /// A granted fresh operation: execute it.
    Fresh,
    /// The budget is spent: the process parks here.
    Park,
}

impl Admission {
    /// Polls `pid` along `log` with `budget` fresh operations, appending
    /// them to the log (`extend_log`) or not.
    fn new(pid: Pid, log: Vec<LogEntry>, budget: usize, extend_log: bool) -> Self {
        let replay = log.len();
        Admission { pid, log, replay, cursor: 0, budget, executed: 0, extend_log, parked: None }
    }

    /// Classifies `pid`'s operation `footprint` against the log and the
    /// budget, recording the footprint when the process parks.
    ///
    /// # Panics
    ///
    /// Panics if the body diverges from its recorded log (a
    /// nondeterministic process body, disallowed by the model) or if a
    /// process other than the polled one issues the operation.
    fn admit<R: Clone + 'static>(&mut self, pid: Pid, footprint: Footprint) -> Admit<R> {
        assert_eq!(pid, self.pid, "a poll executes only the polled process");
        if self.cursor < self.replay {
            let entry = &self.log[self.cursor];
            assert!(
                entry.op == footprint.op && entry.key == footprint.key,
                "nondeterministic process body: replay step {} issued op {} on {}, \
                 log records op {} on {}",
                self.cursor,
                footprint.op,
                footprint.key,
                entry.op,
                entry.key
            );
            self.cursor += 1;
            let out = entry
                .result
                .downcast_ref::<R>()
                .expect("nondeterministic process body: replayed result type changed")
                .clone();
            return Admit::Replayed(out);
        }
        if self.executed < self.budget {
            Admit::Fresh
        } else {
            self.parked = Some(footprint);
            Admit::Park
        }
    }

    /// Accounts one executed fresh operation that returned `out`.
    fn record<R: MemVal>(&mut self, footprint: Footprint, out: &R) {
        self.executed += 1;
        if self.extend_log {
            self.log.push(LogEntry::new(footprint.op, footprint.key, Arc::new(out.clone())));
        }
    }
}

/// How [`ModelWorld::poll_op`] treats an operation.
enum Mode {
    /// No engine: every op proceeds immediately (direct unit tests of
    /// object semantics, through [`crate::world::block_on`]).
    Free,
    /// A polled engine — [`ModelWorld::run`] or snapshot resume — admits
    /// the polled process's operations (see [`Admission`]).
    Polled(Admission),
}

/// Everything behind a [`ModelWorld`]'s lock: the world state and how
/// its operations are admitted.
struct State {
    world: WorldState,
    mode: Mode,
}

/// The deterministic model world. Cheap to clone (shared handle).
///
/// See the [module docs](self) for the execution model, and
/// [`ModelWorld::run`] for the entry point.
#[derive(Clone)]
pub struct ModelWorld {
    st: Arc<Mutex<State>>,
}

impl std::fmt::Debug for ModelWorld {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.st.lock();
        f.debug_struct("ModelWorld")
            .field("n", &st.world.n())
            .field("objects", &st.world.objects.len())
            .field("free", &matches!(st.mode, Mode::Free))
            .finish()
    }
}

/// The future of one shared-memory operation ([`ModelWorld::step`]).
struct Step<'w, F> {
    world: &'w ModelWorld,
    pid: Pid,
    footprint: Footprint,
    /// The operation, taken when it executes.
    op: Option<F>,
}

// `op` is never pinned: a poll moves it out to run it.
impl<F> Unpin for Step<'_, F> {}

impl<R: MemVal, F: FnOnce(&mut WorldState) -> R> Future for Step<'_, F> {
    type Output = R;

    fn poll(self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<R> {
        let step = self.get_mut();
        step.world.poll_op(step.pid, step.footprint, &mut step.op)
    }
}

/// Polls process `pid`'s body future once on the caller thread. A real
/// panic in the body — an algorithm bug — is caught here, the one place
/// either engine polls, and surfaces as `virtual process {pid} failed`.
fn poll_body(pid: Pid, fut: &mut BodyFuture) -> Poll<u64> {
    let waker = noop_waker();
    let mut cx = Context::from_waker(&waker);
    match catch_unwind(AssertUnwindSafe(|| fut.as_mut().poll(&mut cx))) {
        Ok(polled) => polled,
        Err(payload) => panic!("virtual process {pid} failed: {}", panic_message(payload.as_ref())),
    }
}

impl ModelWorld {
    fn with_state(world: WorldState, mode: Mode) -> Self {
        ModelWorld { st: Arc::new(Mutex::new(State { world, mode })) }
    }

    /// A world with no scheduler: every operation proceeds immediately.
    ///
    /// Only for single-threaded unit tests of object semantics, driven
    /// by [`crate::world::block_on`]; concurrent use would be
    /// linearizable (each op still runs under the world lock) but not
    /// deterministic.
    pub fn new_free(n: usize) -> Self {
        ModelWorld::with_state(WorldState::new(n, false, false, false), Mode::Free)
    }

    /// Polls `pid`'s body `fut` once under `admission`: it replays the
    /// admission's log, executes up to its budget of fresh operations,
    /// and parks at the next one (`Pending`) — or returns its decision.
    /// Returns the poll and the admission, which says what happened.
    fn poll_process(&self, admission: Admission, fut: &mut BodyFuture) -> (Poll<u64>, Admission) {
        let pid = admission.pid;
        self.st.lock().mode = Mode::Polled(admission);
        let polled = poll_body(pid, fut);
        let Mode::Polled(admission) = std::mem::replace(&mut self.st.lock().mode, Mode::Free)
        else {
            unreachable!("a polled world stays polled")
        };
        (polled, admission)
    }

    /// Runs `bodies` (one per process) to completion under `cfg`: the
    /// **linear engine**.
    ///
    /// Every process is one live body future on the caller thread. Each
    /// is first polled to its first gate (its first shared operation,
    /// where it returns `Pending`); then the scheduler repeatedly picks
    /// a process and polls it with a budget of one fresh operation — the
    /// operation it is parked at runs, and the body runs on to its next
    /// gate or returns. A crash drops the process's future at its gate.
    ///
    /// Returns when every process has decided or crashed, or when the step
    /// budget is exhausted (then the remaining futures are dropped, those
    /// processes are reported [`Outcome::Undecided`] and
    /// [`RunReport::timed_out`] is set).
    ///
    /// # Panics
    ///
    /// Panics if `bodies.len() != cfg.n()`, or if any process body panics
    /// (a real bug in an algorithm under test), as `virtual process {pid}
    /// failed: {msg}`.
    pub fn run(cfg: RunConfig, bodies: Vec<Body>) -> RunReport {
        assert_eq!(bodies.len(), cfg.n(), "one body per process required");
        assert!(
            !cfg.tso || matches!(cfg.schedule, Schedule::Indexed { .. }),
            "TSO runs require Schedule::Indexed (no other policy schedules flushes)"
        );
        let n = cfg.n();
        let state = WorldState::new(n, cfg.record_state_hashes, cfg.view_summaries, cfg.tso);
        let world = ModelWorld::with_state(state, Mode::Free);
        // Each process's live future, `None` once it returned or crashed.
        let mut procs: Vec<Option<BodyFuture>> = Vec::with_capacity(n);
        for (pid, body) in bodies.into_iter().enumerate() {
            let mut fut = body(Env::new(world.clone(), pid));
            let probe = Admission::new(pid, Vec::new(), 0, false);
            match world.poll_process(probe, &mut fut).0 {
                Poll::Ready(v) => {
                    world.st.lock().world.finish(pid, v);
                    procs.push(None);
                }
                Poll::Pending => procs.push(Some(fut)),
            }
        }
        let mut sched = ScheduleState::new(cfg.schedule.clone());
        let mut crash = CrashState::new(cfg.crashes.clone());
        let mut picks: usize = 0;
        let mut timed_out = false;
        let mut trace: Vec<Pid> = Vec::new();
        let mut state_hashes: Vec<u64> = Vec::new();
        loop {
            let (alive, flushable, steps) = {
                let st = world.st.lock();
                // The state reached by the previous pick.
                if cfg.record_state_hashes && picks > state_hashes.len() {
                    debug_assert_eq!(
                        st.world.mem_fp,
                        st.world.recompute_mem_fp(),
                        "incremental memory fingerprint drifted from the full-map walk"
                    );
                    state_hashes.push(st.world.fingerprint(false));
                }
                (st.world.alive(), st.world.flushable(), st.world.steps)
            };
            // A TSO run is terminal only once every buffer has drained:
            // undelivered writes still change shared memory.
            if alive.is_empty() && flushable.is_empty() {
                break;
            }
            if steps >= cfg.max_steps {
                timed_out = true;
                break;
            }
            picks += 1;
            // A crash pick delivers one of the crash-count adversary's
            // budgeted crashes (inert under other policies); on an op pick
            // the crash policy decides, as always.
            let (pid, crashes_now) = match sched.pick(&alive, n, &flushable) {
                Pick::Flush(p) => {
                    world.st.lock().world.flush_step(p);
                    continue;
                }
                Pick::Crash(p) => (p, crash.force_crash()),
                Pick::Op(p) => {
                    let own = world.st.lock().world.own_steps[p];
                    (p, crash.should_crash(p, own))
                }
            };
            if crashes_now {
                world.st.lock().world.crashed[pid] = true;
                procs[pid] = None;
                continue;
            }
            let fut = procs[pid].as_mut().expect("an alive process has a live future");
            let grant = Admission::new(pid, Vec::new(), 1, false);
            let (polled, grant) = world.poll_process(grant, fut);
            debug_assert_eq!(grant.executed, 1, "a granted poll executes exactly one operation");
            if cfg.record_trace {
                trace.push(pid);
            }
            if let Poll::Ready(v) = polled {
                world.st.lock().world.finish(pid, v);
                procs[pid] = None;
            }
        }
        // A timed-out run drops every alive process's future at its gate.
        drop(procs);
        debug_assert!(
            !cfg.record_state_hashes || timed_out || state_hashes.len() == picks,
            "one state fingerprint per pick ({} hashes, {picks} picks)",
            state_hashes.len()
        );
        let st = world.st.lock();
        RunReport {
            trace: cfg.record_trace.then_some(trace),
            state_hashes: cfg.record_state_hashes.then_some(state_hashes),
            ..st.world.report(timed_out)
        }
    }

    /// One shared-memory operation of `pid`: a future whose every poll
    /// asks the world whether the operation may run.
    ///
    /// `footprint` describes the operation's dependency surface (object,
    /// cell granularity, purity). In the free mode `op` runs at once. In
    /// the polled mode the [`Admission`] decides: a logged operation
    /// returns its logged value without executing `op`; a granted fresh
    /// operation runs `op` on the world state (and is logged when the
    /// poll extends a snapshot's log); past the budget the operation
    /// records its footprint and returns `Pending` — the process is
    /// parked at this gate until the engine polls it again or drops it.
    ///
    /// Every executed operation is accounted to its process and its
    /// object-kind namespace, in every mode.
    fn step<R, F>(&self, pid: Pid, footprint: Footprint, op: F) -> Step<'_, F>
    where
        R: MemVal,
        F: FnOnce(&mut WorldState) -> R,
    {
        Step { world: self, pid, footprint, op: Some(op) }
    }

    /// One poll of a [`ModelWorld::step`] future.
    fn poll_op<R: MemVal>(
        &self,
        pid: Pid,
        footprint: Footprint,
        op: &mut Option<impl FnOnce(&mut WorldState) -> R>,
    ) -> Poll<R> {
        let mut guard = self.st.lock();
        let State { world, mode } = &mut *guard;
        if let Mode::Polled(admission) = mode {
            match admission.admit::<R>(pid, footprint) {
                Admit::Replayed(out) => return Poll::Ready(out),
                Admit::Park => return Poll::Pending,
                Admit::Fresh => {}
            }
        }
        let op = op.take().expect("an operation runs once");
        let out = op(world);
        world.count_op(pid, footprint.key.kind);
        if let Mode::Polled(admission) = mode {
            admission.record(footprint, &out);
        }
        Poll::Ready(out)
    }
}

fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

fn downcast<T: MemVal>(stored: &Stored, key: ObjKey, what: &str) -> T {
    stored
        .downcast_ref::<T>()
        .unwrap_or_else(|| panic!("type mismatch reading {what} {key}"))
        .clone()
}

/// The locked scan body shared by [`World::snap_scan`] and
/// [`World::snap_scan_via`]: reads every cell of the `len`-cell snapshot
/// object `key` (created on first access), with the usual
/// algorithm-bug panics (kind mismatch, length mismatch, cell type
/// mismatch), then — under TSO store-to-load forwarding — overlays
/// `pid`'s own buffered cells of `key` in FIFO order (newest entry per
/// cell wins). The overlay is a no-op under SC (buffers are empty).
fn scan_cells<T: MemVal>(w: &mut WorldState, pid: Pid, key: ObjKey, len: usize) -> Vec<Option<T>> {
    let mut view: Vec<Option<T>> = w.with_obj(
        key,
        || Object::Snapshot(vec![None; len]),
        |obj| match obj {
            Object::Snapshot(cells) => {
                assert_eq!(cells.len(), len, "snapshot {key} length mismatch");
                cells
                    .iter()
                    .map(|c| c.as_ref().map(|c| downcast(&c.val, key, "snapshot cell")))
                    .collect()
            }
            other => panic!("object {key} is not a snapshot object: {other:?}"),
        },
    );
    for b in w.buffers[pid].iter().filter(|b| b.key == key) {
        let i = b
            .cell_idx
            .unwrap_or_else(|| panic!("object {key} is not a register: buffered kind mismatch"));
        view[i] = Some(downcast(&b.cell.val, key, "buffered snapshot cell"));
    }
    view
}

impl World for ModelWorld {
    fn reg_write<T: MemVal>(&self, pid: Pid, key: ObjKey, val: T) -> impl Future<Output = ()> {
        self.step(pid, Footprint::new(OP_REG_WRITE, key, None, false), move |w| {
            let cell = Cell::new(val, w.track);
            let fp = cell.fp;
            w.write(pid, BufferedWrite { key, cell_idx: None, len: 0, cell });
            if w.track {
                w.observe(pid, OP_REG_WRITE, key, fp);
            }
        })
    }

    fn reg_read<T: MemVal>(&self, pid: Pid, key: ObjKey) -> impl Future<Output = Option<T>> {
        self.step(pid, Footprint::new(OP_REG_READ, key, None, true), move |w| {
            let mut out = w.with_obj(
                key,
                || Object::Register(None),
                |obj| match obj {
                    Object::Register(slot) => {
                        slot.as_ref().map(|c| downcast(&c.val, key, "register"))
                    }
                    other => panic!("object {key} is not a register: {other:?}"),
                },
            );
            // TSO store-to-load forwarding: a read sees the newest entry
            // for its object in the *issuing process's own* buffer, ahead
            // of shared memory. Other processes' buffers are invisible —
            // that is exactly the SB reordering. (Empty under SC.)
            if let Some(b) =
                w.buffers[pid].iter().rev().find(|b| b.key == key && b.cell_idx.is_none())
            {
                out = Some(downcast(&b.cell.val, key, "buffered register write"));
            }
            if w.track {
                w.observe(pid, OP_REG_READ, key, fp_of::<Option<T>>(&out));
            }
            out
        })
    }

    fn snap_write<T: MemVal>(
        &self,
        pid: Pid,
        key: ObjKey,
        len: usize,
        idx: usize,
        val: T,
    ) -> impl Future<Output = ()> {
        assert!(idx < len, "snapshot cell index {idx} out of range (len {len})");
        self.step(pid, Footprint::new(OP_SNAP_WRITE, key, Some(idx as u64), false), move |w| {
            let cell = Cell::new(val, w.track);
            let fp = cell.fp;
            w.write(pid, BufferedWrite { key, cell_idx: Some(idx), len, cell });
            if w.track {
                w.observe(pid, OP_SNAP_WRITE, key, mix(idx as u64, fp));
            }
        })
    }

    fn snap_scan<T: MemVal>(
        &self,
        pid: Pid,
        key: ObjKey,
        len: usize,
    ) -> impl Future<Output = Vec<Option<T>>> {
        self.step(pid, Footprint::new(OP_SNAP_SCAN, key, None, true), move |w| {
            let out: Vec<Option<T>> = scan_cells(w, pid, key, len);
            if w.track {
                w.observe(pid, OP_SNAP_SCAN, key, fp_of(&out));
            }
            out
        })
    }

    /// The summarized scan. One atomic step with the *same* dependency
    /// footprint as [`World::snap_scan`] (same key, pure read), so every
    /// commutation argument carries over unchanged. What differs is the
    /// observation fold: with [`RunConfig::view_summaries`] off, the **raw view** is
    /// folded exactly as a plain scan folds it (byte-identical state
    /// identity — recorded baselines cannot move); with it on, only the
    /// **declared summary** is folded, so live processes whose raw views
    /// differed but whose summaries agree become indistinguishable — which
    /// is sound precisely because the summary is all the process ever saw.
    /// The resume log records the summary either way (it is the value the
    /// operation returned).
    fn snap_scan_via<T: MemVal, S: MemVal>(
        &self,
        pid: Pid,
        key: ObjKey,
        len: usize,
        summarize: fn(&[Option<T>]) -> S,
    ) -> impl Future<Output = S> {
        self.step(pid, Footprint::new(OP_SNAP_SCAN, key, None, true), move |w| {
            let raw: Vec<Option<T>> = scan_cells(w, pid, key, len);
            let out = summarize(&raw);
            if w.track {
                let result_fp = if w.viewsum { fp_of(&out) } else { fp_of(&raw) };
                w.observe(pid, OP_SNAP_SCAN, key, result_fp);
            }
            out
        })
    }

    fn fence(&self, pid: Pid) -> impl Future<Output = ()> {
        // Under SC a fence is free: no gate, no step, no trace or log
        // effect — the default-noop contract of [`World::fence`]. The
        // check reads the fixed `tso` mode flag only (never buffer
        // contents), so whether a fence gates is a pure function of the
        // run mode and log replay stays deterministic.
        let tso = self.st.lock().world.tso;
        let key = ObjKey::new(FENCE_KIND, pid as u64, 0);
        let mut drain = tso.then_some(move |w: &mut WorldState| {
            w.drain_buffer(pid);
            if w.track {
                w.observe(pid, OP_FENCE, key, 0);
            }
        });
        std::future::poll_fn(move |_| match drain {
            None => Poll::Ready(()),
            Some(_) => self.poll_op(pid, Footprint::new(OP_FENCE, key, None, false), &mut drain),
        })
    }

    fn tas(&self, pid: Pid, key: ObjKey) -> impl Future<Output = bool> {
        self.step(pid, Footprint::new(OP_TAS, key, None, false), move |w| {
            // x86-TSO: a LOCK'd RMW drains the issuing process's buffer
            // as part of its atomic step (a no-op under SC).
            w.drain_buffer(pid);
            let won = w.with_obj(
                key,
                || Object::Tas(false),
                |obj| match obj {
                    Object::Tas(taken) => {
                        let won = !*taken;
                        *taken = true;
                        won
                    }
                    other => panic!("object {key} is not a test&set object: {other:?}"),
                },
            );
            if w.track {
                w.observe(pid, OP_TAS, key, u64::from(won));
            }
            won
        })
    }

    fn xcons_propose<T: MemVal>(
        &self,
        pid: Pid,
        key: ObjKey,
        ports: &[Pid],
        val: T,
    ) -> impl Future<Output = T> {
        assert!(
            ports.contains(&pid),
            "process {pid} is not a port of consensus object {key} (ports {ports:?})"
        );
        self.step(pid, Footprint::new(OP_XCONS, key, None, false), move |w| {
            // LOCK'd RMW under x86-TSO — see `tas`.
            w.drain_buffer(pid);
            let track = w.track;
            let out = w.with_obj(
                key,
                || Object::XCons { ports: ports.to_vec(), decided: None },
                |obj| match obj {
                    Object::XCons { ports: stored_ports, decided } => {
                        assert_eq!(
                            stored_ports, ports,
                            "consensus object {key} accessed with inconsistent port sets"
                        );
                        let d = decided.get_or_insert_with(|| Cell::new(val, track));
                        downcast::<T>(&d.val, key, "consensus object")
                    }
                    other => panic!("object {key} is not a consensus object: {other:?}"),
                },
            );
            if w.track {
                w.observe(pid, OP_XCONS, key, fp_of(&out));
            }
            out
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::{Crashes, Schedule};
    use crate::world::block_on;
    use std::sync::atomic::{AtomicUsize, Ordering};

    const REG: ObjKey = ObjKey::new(1, 0, 0);
    const SNAP: ObjKey = ObjKey::new(2, 0, 0);
    const TAS: ObjKey = ObjKey::new(3, 0, 0);
    const CONS: ObjKey = ObjKey::new(4, 0, 0);

    #[test]
    fn free_world_register_semantics() {
        let w = ModelWorld::new_free(1);
        assert_eq!(block_on(w.reg_read::<u64>(0, REG)), None);
        block_on(w.reg_write(0, REG, 17u64));
        assert_eq!(block_on(w.reg_read::<u64>(0, REG)), Some(17));
        block_on(w.reg_write(0, REG, 18u64));
        assert_eq!(block_on(w.reg_read::<u64>(0, REG)), Some(18));
    }

    #[test]
    fn free_world_snapshot_semantics() {
        let w = ModelWorld::new_free(2);
        assert_eq!(block_on(w.snap_scan::<u64>(0, SNAP, 3)), vec![None, None, None]);
        block_on(w.snap_write(0, SNAP, 3, 0, 5u64));
        block_on(w.snap_write(1, SNAP, 3, 2, 7u64));
        assert_eq!(block_on(w.snap_scan::<u64>(1, SNAP, 3)), vec![Some(5), None, Some(7)]);
    }

    #[test]
    fn free_world_tas_once() {
        let w = ModelWorld::new_free(2);
        assert!(block_on(w.tas(0, TAS)));
        assert!(!block_on(w.tas(1, TAS)));
        assert!(!block_on(w.tas(0, TAS)));
    }

    #[test]
    fn free_world_xcons_agreement_and_ports() {
        let w = ModelWorld::new_free(3);
        let ports = vec![0usize, 2];
        assert_eq!(block_on(w.xcons_propose(0, CONS, &ports, 40u64)), 40);
        assert_eq!(block_on(w.xcons_propose(2, CONS, &ports, 41u64)), 40);
    }

    #[test]
    #[should_panic(expected = "not a port")]
    fn xcons_rejects_non_port() {
        let w = ModelWorld::new_free(3);
        block_on(w.xcons_propose(1, CONS, &[0, 2], 1u64));
    }

    #[test]
    #[should_panic(expected = "inconsistent port sets")]
    fn xcons_rejects_port_mutation() {
        let w = ModelWorld::new_free(3);
        block_on(w.xcons_propose(0, CONS, &[0, 2], 1u64));
        block_on(w.xcons_propose(1, CONS, &[0, 1], 2u64));
    }

    #[test]
    #[should_panic(expected = "type mismatch")]
    fn register_type_mismatch_panics() {
        let w = ModelWorld::new_free(1);
        block_on(w.reg_write(0, REG, 1u64));
        let _: Option<String> = block_on(w.reg_read(0, REG));
    }

    #[test]
    #[should_panic(expected = "is not a register")]
    fn object_kind_mismatch_panics() {
        let w = ModelWorld::new_free(1);
        block_on(w.tas(0, REG));
        block_on(w.reg_write(0, REG, 1u64));
    }

    #[test]
    fn worlds_larger_than_64_processes_run_without_decision_recording() {
        // Linear runs have no process-count bound (regression: a 64-bit
        // per-decision reads mask used to shift by pid unconditionally).
        let n = 65;
        let cfg = RunConfig::new(n).schedule(Schedule::RoundRobin);
        let bodies = (0..n)
            .map(|i| {
                body(move |env| async move {
                    env.reg_write(ObjKey::new(11, i as u64, 0), 1u64).await;
                    env.reg_read::<u64>(ObjKey::new(11, i as u64, 0)).await.unwrap()
                })
            })
            .collect();
        let report = ModelWorld::run(cfg, bodies);
        assert_eq!(report.decided_values().len(), n);
    }

    #[test]
    fn scheduled_run_all_decide() {
        let cfg = RunConfig::new(3).schedule(Schedule::RandomSeed(1));
        let bodies = (0..3)
            .map(|i| {
                body(move |env| async move {
                    env.reg_write(ObjKey::new(10, i, 0), i).await;
                    env.reg_read::<u64>(ObjKey::new(10, i, 0)).await.unwrap()
                })
            })
            .collect();
        let report = ModelWorld::run(cfg, bodies);
        assert_eq!(report.decided_values().len(), 3);
        assert!(report.all_correct_decided());
        assert!(!report.timed_out);
        assert_eq!(report.steps, 6);
    }

    #[test]
    fn scheduled_tas_exactly_one_winner() {
        for seed in 0..20 {
            let cfg = RunConfig::new(4).schedule(Schedule::RandomSeed(seed));
            let bodies = (0..4)
                .map(|_| body(move |env| async move { u64::from(env.tas(TAS).await) }))
                .collect();
            let report = ModelWorld::run(cfg, bodies);
            assert_eq!(report.decided_values().iter().sum::<u64>(), 1, "seed {seed}");
        }
    }

    #[test]
    fn deterministic_traces() {
        let run = |seed| {
            let cfg = RunConfig::new(3).schedule(Schedule::RandomSeed(seed)).record_trace(true);
            let bodies = (0..3)
                .map(|i| {
                    body(move |env| async move {
                        for r in 0..5u64 {
                            env.snap_write(SNAP, 3, i as usize, r).await;
                            env.snap_scan::<u64>(SNAP, 3).await;
                        }
                        i
                    })
                })
                .collect();
            ModelWorld::run(cfg, bodies).trace.unwrap()
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }

    #[test]
    fn crash_at_own_step_is_honored() {
        // Process 0 is crashed before its second op; it never decides.
        let cfg = RunConfig::new(2)
            .schedule(Schedule::RoundRobin)
            .crashes(Crashes::AtOwnStep(vec![(0, 1)]));
        let bodies = (0..2)
            .map(|i| {
                body(move |env| async move {
                    env.reg_write(REG, i).await;
                    env.reg_write(REG, i + 10).await;
                    i
                })
            })
            .collect();
        let report = ModelWorld::run(cfg, bodies);
        assert_eq!(report.outcomes[0], Outcome::Crashed);
        assert_eq!(report.outcomes[1], Outcome::Decided(1));
    }

    #[test]
    fn blocked_process_reports_undecided_on_timeout() {
        // Process 1 spins until REG is written, but process 0 crashes before
        // writing: the run times out and 1 is Undecided.
        let cfg = RunConfig::new(2)
            .schedule(Schedule::RandomSeed(2))
            .crashes(Crashes::AtOwnStep(vec![(0, 0)]))
            .max_steps(5_000);
        let bodies: Vec<Body> = vec![
            body(|env| async move {
                env.reg_write(REG, 1u64).await;
                0
            }),
            body(|env| async move {
                loop {
                    if let Some(v) = env.reg_read::<u64>(REG).await {
                        return v;
                    }
                }
            }),
        ];
        let report = ModelWorld::run(cfg, bodies);
        assert!(report.timed_out);
        assert_eq!(report.outcomes[0], Outcome::Crashed);
        assert_eq!(report.outcomes[1], Outcome::Undecided);
        assert!(!report.all_correct_decided());
    }

    #[test]
    fn spin_wait_completes_without_crash() {
        // Same as above but no crash: the spinner is eventually satisfied.
        let cfg = RunConfig::new(2).schedule(Schedule::RandomSeed(3));
        let bodies: Vec<Body> = vec![
            body(|env| async move {
                env.reg_write(REG, 42u64).await;
                0
            }),
            body(|env| async move {
                loop {
                    if let Some(v) = env.reg_read::<u64>(REG).await {
                        return v;
                    }
                }
            }),
        ];
        let report = ModelWorld::run(cfg, bodies);
        assert_eq!(report.outcomes[1], Outcome::Decided(42));
    }

    /// Counts its drops: a process body holding one shows when the
    /// engine drops the body's future.
    struct DropGuard(Arc<AtomicUsize>);

    impl Drop for DropGuard {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn crash_drops_the_body_future_at_its_gate() {
        // Round robin: p0 writes, p1 writes, p0 is crashed before its
        // second write, p1 writes again. p1 then sees p0's future already
        // dropped: the crash dropped it at its gate, not the end of the run.
        let dropped = Arc::new(AtomicUsize::new(0));
        let ran_past = Arc::new(AtomicUsize::new(0));
        let cfg = RunConfig::new(2)
            .schedule(Schedule::RoundRobin)
            .crashes(Crashes::AtOwnStep(vec![(0, 1)]));
        let bodies = (0..2u64)
            .map(|i| {
                let (dropped, ran_past) = (Arc::clone(&dropped), Arc::clone(&ran_past));
                body(move |env| async move {
                    let _guard = DropGuard(Arc::clone(&dropped));
                    env.reg_write(REG, i).await;
                    env.reg_write(REG, i + 10).await;
                    ran_past.fetch_add(1, Ordering::SeqCst);
                    dropped.load(Ordering::SeqCst) as u64
                })
            })
            .collect();
        let report = ModelWorld::run(cfg, bodies);
        assert_eq!(report.outcomes, vec![Outcome::Crashed, Outcome::Decided(1)]);
        assert_eq!(ran_past.load(Ordering::SeqCst), 1, "the crashed body never ran past its gate");
        assert_eq!(dropped.load(Ordering::SeqCst), 2, "every body future is dropped exactly once");
    }

    #[test]
    fn timeout_drops_every_alive_future_undecided() {
        // Both processes spin on a register nobody writes: the budget
        // runs out with both alive, and both futures are dropped.
        let dropped = Arc::new(AtomicUsize::new(0));
        let cfg = RunConfig::new(2).schedule(Schedule::RandomSeed(4)).max_steps(100);
        let bodies = (0..2)
            .map(|_| {
                let dropped = Arc::clone(&dropped);
                body(move |env| async move {
                    let _guard = DropGuard(dropped);
                    loop {
                        if let Some(v) = env.reg_read::<u64>(REG).await {
                            return v;
                        }
                    }
                })
            })
            .collect();
        let report = ModelWorld::run(cfg, bodies);
        assert!(report.timed_out);
        assert_eq!(report.steps, 100);
        assert_eq!(report.outcomes, vec![Outcome::Undecided; 2]);
        assert_eq!(dropped.load(Ordering::SeqCst), 2);
    }

    #[test]
    #[should_panic(expected = "virtual process 0 failed")]
    fn algorithm_bug_panics_surface() {
        let cfg = RunConfig::new(1);
        let bodies: Vec<Body> = vec![body(|_env| async { panic!("algorithm bug") })];
        ModelWorld::run(cfg, bodies);
    }

    #[test]
    fn report_helpers() {
        let report = RunReport {
            outcomes: vec![
                Outcome::Decided(3),
                Outcome::Crashed,
                Outcome::Undecided,
                Outcome::Decided(3),
            ],
            steps: 10,
            timed_out: true,
            trace: None,
            state_hashes: None,
            ops_by_kind: vec![],
        };
        assert_eq!(report.decided_values(), vec![3, 3]);
        assert_eq!(report.crashed_pids(), vec![1]);
        assert_eq!(report.undecided_pids(), vec![2]);
        assert_eq!(report.distinct_decisions(), 1);
        assert!(!report.all_correct_decided());
    }

    #[test]
    fn snapshot_scan_is_one_atomic_step() {
        // A scan never observes a torn pair of writes: writer alternates
        // writing (k, k) into two cells via two ops — scans may see cells
        // differing by at most one step. With gating, each scan sees some
        // prefix of the writer's history.
        let cfg = RunConfig::new(2).schedule(Schedule::RandomSeed(11));
        let bodies: Vec<Body> = vec![
            body(|env| async move {
                for k in 0..50u64 {
                    env.snap_write(SNAP, 2, 0, k).await;
                    env.snap_write(SNAP, 2, 1, k).await;
                }
                0
            }),
            body(|env| async move {
                for _ in 0..30 {
                    let v = env.snap_scan::<u64>(SNAP, 2).await;
                    let a = v[0].unwrap_or(0);
                    let b = v[1].unwrap_or(0);
                    assert!(a == b || a == b + 1, "torn snapshot: {a} vs {b}");
                }
                1
            }),
        ];
        let report = ModelWorld::run(cfg, bodies);
        assert!(report.all_correct_decided());
    }
}
