//! The frontier engine: layered, snapshot-resuming, optionally parallel
//! expansion of the schedule tree.
//!
//! # Shape
//!
//! The engine maintains a **frontier** of tree nodes — each a
//! [`Snapshot`] plus its choice path, alive set, and per-path adversary
//! state — and processes the tree in layers (all nodes at one depth):
//!
//! 1. **Expand (parallel, owner-computes):** every `(node, choice)` job
//!    of the layer resumes one scheduling decision from the node's
//!    snapshot ([`ModelWorld::resume_from`] / [`ModelWorld::resume_crash`])
//!    and fingerprints the child. One worker pool serves the whole sweep:
//!    [`Engine::drive`] spawns [`super::Explorer::threads`]` - 1` helper
//!    threads once, and the calling thread is worker 0 (so `threads = 1`
//!    runs the same loop, with no helper). Each layer's job list is cut
//!    into contiguous blocks of [`BLOCK`] jobs; worker `w` claims blocks
//!    forward from block `w · blocks / workers`, then steals whatever the
//!    others have not reached. Jobs are node-major, so siblings share a
//!    block and a block's children land contiguously in the next layer:
//!    mostly, the worker that built a node is the one that expands it.
//!    The worker pre-checks each child's fingerprint against the
//!    **committed** visited set (one hash set, read-only for the whole
//!    phase — so the check's outcome is independent of worker
//!    interleaving) and classifies every child it keeps
//!    ([`Shared::classify`]): a terminal or timed-out child becomes its
//!    [`RunReport`], an interior one carries its ordered candidate
//!    choices, each with the DPOR rule's verdict. The worker then drops
//!    the job, so a parent's snapshot is freed where it was last used,
//!    while it is still in that worker's cache.
//! 2. **Merge (canonical):** results come back one vector per block and
//!    are folded **in job order** — visited-set insertion, within-layer
//!    duplicate resolution, violation checks (with linear-replay
//!    confirmation), the expansion budget, resident-ceiling eviction,
//!    checkpoint storage, statistics, and the next layer's job list,
//!    replayed from each child's precomputed choice list. Every
//!    nondeterministic effect of phase 1 is invisible to phase 2, so the
//!    whole exploration — counts, violations, report — is byte-identical
//!    for `threads = 1` and `threads = k` (property-tested in
//!    `tests/proptests.rs` and diffed by the CI determinism gate).
//!
//! Terminal nodes (everyone decided/crashed, or the per-path step budget
//! exhausted) synthesize their [`RunReport`] from the snapshot in the
//! worker and are checked at merge time. Nodes at the
//! sibling-enumeration depth bound run a **tail**: resumed to completion
//! along the canonical choice-0 suffix as one job. A violation's confirmation
//! re-runs its choice vector through the **linear** engine
//! ([`RunConfig::replay`]) and asserts both engines agree on the
//! outcomes — a permanent cross-check of the resume engine against the
//! reference implementation.
//!
//! # Crash-count branching ([`Crashes::UpTo`])
//!
//! Under the symmetric crash-count adversary, crash delivery is not a
//! policy decision but a **schedule branch**: at every interior node
//! whose crash budget is not exhausted, [`Shared::classify`] lists — next
//! to each alive process's op expansion — a crash sibling encoded as
//! choice `alive.len() + i` (the same crash index band
//! `Schedule::Indexed` decodes, so counterexample vectors replay their
//! crash placements through the linear engine verbatim). One sweep thus
//! exhausts *all* crash placements against *all* alive processes for
//! every budget `≤ f`. Because the policy names no pid, the schedule
//! space stays permutation-closed and the symmetry quotient remains
//! live — the one crash adversary it accepts. Depth-bounded tails
//! still complete along the canonical choice-0 (op) suffix: a
//! `max_depth` cut under `UpTo` is incomplete anyway, and tails never
//! deliver further crashes.
//!
//! # Reductions (see [`super::Reduction`])
//!
//! The partial-order skip rule lives in [`Shared::skip_kind`]: with DPOR
//! on, a child pick is skipped when its pending *action* (operation
//! footprint, crash delivery, or TSO flush) commutes with the action that
//! created the node and the pids are inverted — only the pid-canonical
//! order of each adjacent independent pair is explored. The observation
//! quotient swaps [`Snapshot::fingerprint`] for
//! [`Snapshot::fingerprint_quotient`] as the visited-set identity.
//!
//! # Bounded-memory frontier ([`super::Explorer::resident_ceiling`])
//!
//! Each retained frontier node normally holds its [`Snapshot`] (object
//! map + operation logs — the heavy part). Under a resident ceiling, only
//! the first `ceiling` nodes admitted per layer stay resident; colder
//! nodes are **evicted** down to what rehydration and the DPOR rule
//! need (choice path, alive set, incoming action, crash count and
//! anchor), and a worker that expands one first **rehydrates** it by
//! replaying its choice path through the snapshot engine — the
//! operation-log cursors make every replayed decision a deterministic
//! `O(own log)` resume, so the rebuilt snapshot (and hence the whole
//! report) is byte-identical to the never-evicted run.
//!
//! Rehydration does not start at the root: every node carries an
//! [`Anchor`] — a reference to its nearest checkpoint-depth ancestor's
//! **stored** snapshot (depth a multiple of
//! [`super::Explorer::checkpoint_every`]`= k`) plus that ancestor's
//! adversary state. An evicted expansion therefore replays at most `k`
//! decisions (`anchor.depth ..` of the node's path), turning the old
//! `O(depth)` root replay into `O(k)`; the longest suffix one job
//! actually replayed is reported as
//! [`super::ExploreStats::max_rehydration_replay`].
//!
//! Nor does each job start from the anchor: the worker keeps a
//! [`Trail`] per claimed block — the snapshots the last rehydration
//! passed through, from its anchor down to the node. The next evicted
//! job under the same anchor keeps the trail's longest common path
//! prefix and replays only the rest, so a node's other choices replay
//! nothing, a sibling one decision and a cousin two, and the anchor is
//! loaded once per run of jobs under it. The trail starts empty in every
//! block, so the work it saves depends only on the job list, never on
//! which worker ran the block. The resident ceiling bounds the frontier;
//! the trails add at most `(k + 1) × threads` working snapshots.
//!
//! # Storage seam (see [`super::store`])
//!
//! *Where* a checkpoint snapshot lives is the [`SnapshotStore`]'s
//! business, not the engine's: when a node is admitted on a
//! checkpoint-depth layer (and eviction is possible at all), the engine
//! hands its snapshot to [`SnapshotStore::put`] and anchors the node to
//! the returned [`SnapRef`]; children inherit the parent's anchor. The
//! in-memory store returns a shared `Arc` (and exempts checkpoint
//! layers from eviction, since those `Arc`s *are* the anchors) —
//! byte-for-byte the classic engine. The disk-spilling store appends
//! the encoded snapshot to a segment file and returns a record locator,
//! so checkpoint layers need no exemption: the resident ceiling really
//! bounds RAM, and a trail reads its anchor back from disk
//! ([`super::ExploreStats::store_reads`]). The store also persists
//! every layer boundary ([`SnapshotStore::barrier`], called by
//! [`Engine::drive`] right after each merge — the point where the
//! engine's state is exactly {committed stats, visited set, next job
//! list}), which is what makes a killed sweep resumable
//! ([`Engine::resume`]).

use std::collections::HashSet;
use std::hash::{BuildHasherDefault, Hasher};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc};
use std::thread::{self, Scope};

use parking_lot::Mutex;

use crate::model_world::{Body, Footprint, ModelWorld, RunConfig, RunReport, Snapshot, Symmetry};
use crate::sched::{CrashState, Crashes, Pick};
use crate::world::Pid;

use super::report::{ExploreReport, ExploreStats, Violation};
use super::store::{MemStore, PendingSweep, SnapRef, SnapshotStore, SpillStore, SweepCheckpoint};
use super::Explorer;

/// Jobs per block, the unit a worker claims. Jobs are queued node-major,
/// so a block holds runs of siblings and its children come back as one
/// contiguous stretch of the next layer. 64 resumes (several hundred
/// microseconds) amortize a claim, while a layer of a few thousand jobs
/// still leaves dozens of blocks to balance between workers.
const BLOCK: usize = 64;

/// The committed visited-fingerprint set. Workers probe it read-only
/// during the expansion phase; only the merge inserts.
type Visited = HashSet<u64, BuildHasherDefault<FpHasher>>;

/// The visited set's hasher: one folded multiply (the 128-bit product
/// with an odd constant, its high half xored into its low half). The
/// keys are FNV-1a fingerprints, whose low bits — the ones that pick a
/// hash-table bucket — are weakly mixed, so the identity would cluster
/// them; SipHash would mix them at several times the cost.
#[derive(Default)]
struct FpHasher(u64);

impl Hasher for FpHasher {
    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("the visited set hashes only u64 fingerprints");
    }

    fn write_u64(&mut self, fp: u64) {
        let product = u128::from(fp) * 0x9E37_79B9_7F4A_7C15;
        self.0 = (product as u64) ^ ((product >> 64) as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// The scheduling decision that created a node, as an *action*: the
/// dependency footprint of the completed operation, a crash delivery, or
/// — under TSO — a store-buffer flush (the footprint is the flushed
/// head entry's memory write).
#[derive(Clone, Copy)]
pub(super) enum Action {
    Op(Footprint),
    Crash,
    Flush(Footprint),
}

impl Action {
    /// Whether two actions, performed adjacently by two different
    /// processes, commute (either order reaches the same global state).
    /// Crash deliveries commute with everything: they only flip the
    /// victim's liveness flags, which no operation reads, no flush
    /// consults, and they leave every other process's enabledness,
    /// own-step clock, and store buffer untouched. A flush is a memory
    /// write by the buffer's owner, so flush/flush and flush/op
    /// commutation is exactly footprint independence — sound under TSO
    /// because a *different* process's op never reads or appends to the
    /// flushing buffer (ops enqueue to and forward from their own
    /// buffer only), and the drain-everything ops (`tas`,
    /// `xcons_propose`, `fence`) are excluded upstream by
    /// [`Footprint::fences`] before this is consulted.
    fn commutes(&self, other: &Action) -> bool {
        match (self, other) {
            (Action::Crash, _) | (_, Action::Crash) => true,
            (Action::Op(f) | Action::Flush(f), Action::Op(g) | Action::Flush(g)) => f.commutes(g),
        }
    }

    fn is_pure_read(&self) -> bool {
        matches!(self, Action::Op(f) if f.pure_read)
    }

    /// The action's memory footprint, for the TSO fence rule: `None`
    /// for crashes (which touch no memory).
    fn footprint(&self) -> Option<&Footprint> {
        match self {
            Action::Op(f) | Action::Flush(f) => Some(f),
            Action::Crash => None,
        }
    }

    /// Whether the action consumes one global step (ops and flushes do;
    /// crash deliveries do not) — what the mixed-transposition timeout
    /// guard in [`Shared::skip_kind`] needs to know.
    fn consumes_step(&self) -> bool {
        !matches!(self, Action::Crash)
    }
}

/// Which case of the DPOR rule skipped a sibling (for the statistics
/// split).
enum SkipKind {
    /// Two adjacent pure reads (counted as `sleep`).
    Sleep,
    /// Every other commuting pair (counted as `dpor`).
    Dpor,
}

/// A node's state payload: resident nodes carry their snapshot (shared —
/// descendants anchor to checkpoint-layer snapshots); evicted nodes keep
/// only the [`Node`] fields around it and are rehydrated by the worker
/// that expands them. Every reduction decision about a node is made from
/// its snapshot before it can be evicted ([`Shared::classify`]).
pub(super) enum Store {
    Resident(Arc<Snapshot>),
    Evicted,
}

/// A node's rehydration base: the nearest ancestor at a
/// checkpoint-stride depth ([`super::Explorer::checkpoint_every`]),
/// held as wherever the [`SnapshotStore`] put it — a shared in-memory
/// `Arc`, kept alive exactly as long as some frontier descendant still
/// rehydrates through it, or a disk record locator.
#[derive(Clone)]
pub(super) struct Anchor {
    /// The ancestor's depth — rehydration replays `path[depth..]`.
    pub(super) depth: usize,
    /// The ancestor's stored snapshot.
    pub(super) snap: SnapRef,
    /// The ancestor's post-path adversary state (so the replayed picks
    /// make exactly the `should_crash` calls the original expansion
    /// made).
    pub(super) crash: CrashState,
}

/// One frontier node: a reachable state plus everything path-dependent
/// the engine needs to continue from it.
pub(super) struct Node {
    pub(super) store: Store,
    /// Choice vector from the root (the replayable schedule prefix).
    pub(super) path: Vec<usize>,
    /// Cached alive set of the node's state.
    pub(super) alive: Vec<Pid>,
    /// The decision that created this node. `None` at the root.
    pub(super) incoming: Option<(Pid, Action)>,
    /// Adversary state after this node's path (one `should_crash` call
    /// per pick, as in a linear run).
    pub(super) crash: CrashState,
    /// Nearest checkpointed ancestor, installed by [`Engine::admit`]
    /// when the node itself sits on a checkpoint-depth layer and
    /// inherited from the parent otherwise. `None` throughout any
    /// exploration where nothing can be evicted ([`Engine::evictable`])
    /// — anchors exist only to serve rehydration, so keeping them alive
    /// then would pin a whole checkpoint layer's snapshots past their
    /// layer's lifetime for no benefit.
    pub(super) anchor: Option<Anchor>,
}

pub(super) enum Job {
    /// Execute one scheduling decision at `node`: the op grant, crash
    /// delivery ([`Crashes::UpTo`]) or TSO store-buffer flush that
    /// [`Pick::decode`] reads from `choice`.
    Expand { node: Arc<Node>, choice: usize },
    /// Resume `node` to completion along the canonical choice-0 suffix
    /// (sibling enumeration was cut by the depth bound).
    Tail { node: Arc<Node> },
}

enum JobResult {
    Expanded(Expanded),
    Tail(TailRun),
}

struct Expanded {
    /// The child, classified for admission; `None` when the committed
    /// visited set already contained `fp` (the snapshot is dropped in the
    /// worker, saving merge-phase memory).
    child: Option<Child>,
    fp: u64,
    /// The observation quotient coarsened this child's identity (its raw
    /// fingerprint differs from `fp`) — feeds the `qhits` counter when
    /// the child is pruned.
    coarsened: bool,
    /// The symmetry quotient's canonical permutation moved a process
    /// (the child's identity was folded under a nontrivial pid
    /// relabeling) — feeds the `symm=` counter when the child is
    /// pruned.
    symm_coarsened: bool,
    /// The executed decision delivered a crash (a crash-band branch
    /// under [`Crashes::UpTo`], or a firing [`Crashes::AtOwnStep`]
    /// plan) — feeds the `crashes=` counter.
    crashed: bool,
    /// The executed decision flushed a store-buffer head (a TSO
    /// flush-band branch) — feeds the `flushes=` counter.
    flushed: bool,
    /// What rehydrating the parent cost this job.
    rehydration: Rehydration,
}

struct TailRun {
    report: RunReport,
    /// Full choice vector from the root, including the `0` tail.
    choices: Vec<usize>,
    /// Total picks from the root (the run's schedule depth).
    depth: usize,
    /// What rehydrating the node cost this job.
    rehydration: Rehydration,
}

/// One job's rehydration work, both zero when its node was resident.
#[derive(Clone, Copy, Default)]
struct Rehydration {
    /// Decisions replayed along the [`Trail`] — feeds
    /// `max_rehydration_replay`.
    replayed: u64,
    /// Anchors read back from disk storage (at most one; always 0 under
    /// the in-memory store) — feeds `store_reads`.
    reads: u64,
}

/// A kept node, classified for [`Engine::admit`] by the worker that
/// built it ([`Shared::classify`]) — everything admission reads from the
/// snapshot, so the merge touches no snapshot but to store or evict it.
enum Child {
    /// Everyone finished or crashed with every store buffer drained, or
    /// the per-path step budget ran out: the run's report and choice
    /// vector (the snapshot was dropped in the worker).
    Run { report: RunReport, path: Vec<usize> },
    /// The sibling-enumeration depth bound binds: the node runs a tail.
    Tail(Arc<Node>),
    /// An interior node: its branch degree and every candidate choice in
    /// queue order, each with the partial-order rule's verdict.
    Branch { node: Arc<Node>, degree: usize, choices: Vec<(usize, Option<SkipKind>)> },
}

/// One layer's work as the pool sees it: the job list cut into
/// [`BLOCK`]-job blocks — each taken whole by the first worker to claim
/// it, which leaves an empty vector behind as the claimed flag — and the
/// committed visited set, read-only until every worker has let the layer
/// go.
struct Layer {
    blocks: Vec<Mutex<Vec<Job>>>,
    visited: Visited,
}

/// The blocks one worker ran: `(block index, one result per job)`.
type Ran = Vec<(usize, Vec<JobResult>)>;

/// The sweep's helper threads, `threads - 1` of them (the calling thread
/// is worker 0): each waits on its own channel for a layer and the
/// number of workers sharing it, and reports the blocks it ran on the
/// shared channel.
struct Pool {
    wake: Vec<mpsc::Sender<(Arc<Layer>, usize)>>,
    done: mpsc::Receiver<thread::Result<Ran>>,
}

impl Pool {
    /// Spawns the helpers into `scope`, which joins them when the sweep
    /// ends: dropping the pool closes their channels, and each returns.
    fn spawn<'scope, F>(
        scope: &'scope Scope<'scope, '_>,
        shared: &'scope Shared<'_, F>,
        threads: usize,
    ) -> Pool
    where
        F: Fn() -> Vec<Body> + Sync,
    {
        let (ran_tx, done) = mpsc::channel();
        let wake = (1..threads)
            .map(|worker| {
                let (wake, layers) = mpsc::channel::<(Arc<Layer>, usize)>();
                let ran_tx = ran_tx.clone();
                scope.spawn(move || {
                    for (layer, workers) in layers {
                        // A panicking job is handed to the calling
                        // thread, which resumes it: the sweep fails with
                        // the job's own message instead of waiting for a
                        // helper that died. Nothing the panic interrupted
                        // is read afterwards.
                        let ran = catch_unwind(AssertUnwindSafe(|| {
                            work(shared, &layer, worker, workers)
                        }));
                        // Let go of the layer before reporting, so the
                        // merge can take the visited set back.
                        drop(layer);
                        if ran_tx.send(ran).is_err() {
                            return;
                        }
                    }
                });
                wake
            })
            .collect();
        Pool { wake, done }
    }
}

/// The read-only context expansion workers share.
struct Shared<'a, F> {
    n: usize,
    crashes: &'a Crashes,
    make_bodies: &'a F,
    /// Visited-state pruning enabled — also the only reason to
    /// fingerprint child snapshots, so it doubles as the tracking flag.
    prune: bool,
    /// Apply the partial-order skip rule ([`Shared::skip_kind`]).
    dpor: bool,
    /// Fingerprint children by the observation quotient.
    quotient: bool,
    /// Fingerprint children by the pid-symmetry canonical form (`Some`
    /// only when the reduction is on, the program declared a spec, and
    /// the adversary is pid-blind — [`Crashes::None`] or
    /// [`Crashes::UpTo`]; see [`Engine::with_store`]).
    symmetry: Option<Symmetry>,
    /// Explore under the TSO memory model (fixed at the root snapshot;
    /// kept here for the partial-order rule's fence check).
    tso: bool,
    max_steps: u64,
    max_depth: usize,
}

// Manual impls: a derive would demand `F: Copy`, but only `&F` is held.
impl<F> Clone for Shared<'_, F> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<F> Copy for Shared<'_, F> {}

/// One exploration in progress. Construction wires the configuration;
/// [`Engine::run`] consumes it.
pub(super) struct Engine<'a, F, C> {
    ex: &'a Explorer,
    check: &'a C,
    /// The configuration workers read (also consulted by the merge).
    shared: Shared<'a, F>,
    threads: usize,
    visited: Visited,
    stats: ExploreStats,
    violations: Vec<Violation>,
    complete: bool,
    stopped: bool,
    /// Jobs queued so far — the meter [`super::ExploreLimits::max_expansions`]
    /// is charged against. `stats.expansions` counts *executed* jobs, so
    /// on an early stop the final layer's still-queued jobs are charged
    /// here but never reported as performed.
    queued: u64,
    /// Snapshots kept resident in the layer currently being admitted
    /// (reset per merge pass; compared against
    /// [`super::Explorer::resident_ceiling`]).
    resident: usize,
    /// Where checkpoint snapshots live ([`super::store`]).
    store: Box<dyn SnapshotStore>,
    /// The store is the disk-spilling one — gates barrier bookkeeping
    /// (visited-delta collection) that would be waste under [`MemStore`].
    spilling: bool,
    /// Completed layer barriers (the root admission is layer 0's).
    layer: u64,
    /// Fingerprints committed to the visited set since the last barrier,
    /// in canonical merge order (collected only when spilling).
    visited_delta: Vec<u64>,
}

impl<'a, F, C> Engine<'a, F, C>
where
    F: Fn() -> Vec<Body> + Sync,
    C: Fn(&RunReport) -> Result<(), String>,
{
    pub(super) fn new(ex: &'a Explorer, make_bodies: &'a F, check: &'a C) -> Self {
        let (store, spilling): (Box<dyn SnapshotStore>, bool) = match &ex.spill_dir {
            Some(dir) => {
                let store = SpillStore::create(dir).unwrap_or_else(|e| {
                    panic!(
                        "explore spill: cannot initialize sweep directory {}: {e}",
                        dir.display()
                    )
                });
                (Box::new(store), true)
            }
            None => (Box::new(MemStore), false),
        };
        Engine::with_store(ex, make_bodies, check, store, spilling)
    }

    fn with_store(
        ex: &'a Explorer,
        make_bodies: &'a F,
        check: &'a C,
        store: Box<dyn SnapshotStore>,
        spilling: bool,
    ) -> Self {
        // The symmetry quotient requires a pid-blind adversary: an
        // [`Crashes::AtOwnStep`] plan names concrete pids, so
        // delivering it breaks the permutation-closure the canonical
        // fingerprint's soundness rests on. [`Crashes::None`] and the
        // crash-count adversary [`Crashes::UpTo`] qualify — the budget
        // is a pure count (the number of crashed flags in the state,
        // which the erasure sort key already carries), so relabeling
        // pids maps every explored schedule to an explored schedule
        // with the same budget consumption (docs/EXPLORER.md §3.7).
        // And, of course, a declared spec. TSO gates the quotient off
        // wholesale: the symmetric fingerprint canonicalizes per-process
        // words by erasure sort, and a store buffer's *contents* (keys
        // whose `ObjKey::a` may encode concrete pids) are folded into
        // those words — a permutation of pids does not permute the
        // buffered keys, so the canonical form is not an automorphism
        // witness under TSO. The summary line says `symm=off` (via
        // `symm_requested` below) instead of silently dropping the
        // field.
        let symmetry = if ex.reduction.prune_visited
            && ex.reduction.symmetry
            && !ex.tso
            && matches!(ex.crashes, Crashes::None | Crashes::UpTo(_))
        {
            ex.symmetry
        } else {
            None
        };
        let mut stats = ExploreStats::new(ex.n);
        stats.symm_enabled = symmetry.is_some();
        // `symm=off` marker: the quotient was asked for (knob on, spec
        // supplied) but gated itself off — make that visible in the
        // summary line instead of silently dropping the `symm=` field.
        stats.symm_requested =
            ex.reduction.prune_visited && ex.reduction.symmetry && ex.symmetry.is_some();
        stats.crashcount_enabled = matches!(ex.crashes, Crashes::UpTo(_));
        stats.tso_enabled = ex.tso;
        let shared = Shared {
            n: ex.n,
            crashes: &ex.crashes,
            make_bodies,
            prune: ex.reduction.prune_visited,
            dpor: ex.reduction.dpor,
            quotient: ex.reduction.prune_visited && ex.reduction.quotient_obs,
            symmetry,
            tso: ex.tso,
            max_steps: ex.limits.max_steps,
            max_depth: ex.limits.max_depth,
        };
        Engine {
            ex,
            check,
            shared,
            threads: ex.threads.max(1),
            visited: Visited::default(),
            stats,
            violations: Vec::new(),
            complete: true,
            stopped: false,
            queued: 0,
            resident: 0,
            store,
            spilling,
            layer: 0,
            visited_delta: Vec::new(),
        }
    }

    pub(super) fn run(mut self) -> ExploreReport {
        let shared = self.shared;
        let snap = ModelWorld::snapshot_root_tso(
            shared.n,
            shared.prune,
            shared.prune && self.ex.reduction.view_summaries,
            shared.tso,
            (shared.make_bodies)(),
        );
        let root = Node {
            alive: snap.alive(),
            store: Store::Resident(Arc::new(snap)),
            path: Vec::new(),
            incoming: None,
            crash: CrashState::new(self.ex.crashes.clone()),
            anchor: None,
        };
        let mut jobs = Vec::new();
        self.admit(shared.classify(root), &mut jobs);
        self.drive(jobs)
    }

    /// Continues an interrupted spilled sweep from its persisted state:
    /// the pending layer's jobs re-execute from the last barrier, which
    /// is sound because the barrier committed *all* merge effects of
    /// prior layers and *none* of the pending one.
    pub(super) fn resume(
        ex: &'a Explorer,
        make_bodies: &'a F,
        check: &'a C,
        pending: PendingSweep,
    ) -> ExploreReport {
        let mut engine = Engine::with_store(ex, make_bodies, check, Box::new(pending.store), true);
        let symmetry = engine.shared.symmetry.is_some();
        assert_eq!(
            symmetry,
            pending.stats.symm_enabled,
            "explore spill: the resumed configuration {} the symmetry quotient but the \
             manifest says the original sweep {} it — the visited set would be in the wrong \
             state space",
            if symmetry { "enables" } else { "disables" },
            if pending.stats.symm_enabled { "enabled" } else { "disabled" },
        );
        engine.visited.extend(pending.visited);
        engine.stats = pending.stats;
        engine.violations = pending.violations;
        engine.queued = pending.queued;
        engine.complete = pending.complete;
        engine.layer = pending.layer;
        engine.drive(pending.jobs)
    }

    /// The layer loop, entered with layer `self.layer`'s job list (from
    /// the root admission or a resumed manifest). Persists a barrier
    /// after every merge; a configured [`super::Explorer::halt_after_layers`]
    /// exits *between* barriers — leaving the sweep directory exactly as
    /// a kill at that instant would — and reports incomplete.
    ///
    /// The worker pool lives exactly as long as this loop: its helper
    /// threads are spawned once, in a scope that joins them when the
    /// sweep ends (also when it unwinds).
    fn drive(mut self, mut jobs: Vec<Job>) -> ExploreReport {
        let shared = self.shared;
        thread::scope(|scope| {
            let pool = Pool::spawn(scope, &shared, self.threads);
            self.barrier(&jobs, false);
            let mut halted = false;
            while !jobs.is_empty() && !self.stopped {
                if self.ex.halt_after_layers.is_some_and(|h| self.layer >= h) {
                    halted = true;
                    break;
                }
                let results = self.execute(&pool, jobs);
                jobs = self.merge(results);
                self.layer += 1;
                self.barrier(&jobs, false);
            }
            if !halted {
                self.barrier(&[], true);
            }
            ExploreReport {
                complete: self.complete && self.violations.is_empty() && !halted,
                stats: self.stats,
                violations: self.violations,
            }
        })
    }

    /// Persists one layer boundary through the store (a no-op in
    /// memory). The engine's own state never depends on it — only a
    /// future [`Engine::resume`] does.
    fn barrier(&mut self, jobs: &[Job], done: bool) {
        let ck = SweepCheckpoint {
            ex: self.ex,
            layer: self.layer,
            jobs,
            stats: &self.stats,
            violations: &self.violations,
            visited_delta: &self.visited_delta,
            queued: self.queued,
            complete: self.complete,
            done,
        };
        if let Err(e) = self.store.barrier(&ck) {
            panic!("explore spill: cannot persist the layer-{} barrier: {e}", self.layer);
        }
        self.visited_delta.clear();
    }

    /// Whether eviction (and hence rehydration) can happen at all — the
    /// only situation node anchors are worth installing.
    fn evictable(&self) -> bool {
        self.ex.resident_ceiling != usize::MAX || self.spilling
    }

    /// Admits a kept, classified node: a finished run is checked now; a
    /// depth-bounded node queues a tail job; an interior node queues one
    /// expansion job per choice its classification did not skip. A
    /// non-terminal node beyond the layer's resident ceiling is evicted
    /// to scheduling metadata before queueing.
    fn admit(&mut self, child: Child, jobs: &mut Vec<Job>) {
        let (mut node, branch) = match child {
            Child::Run { report, path } => {
                let depth = path.len();
                self.finish_run(report, path, depth);
                return;
            }
            Child::Tail(node) => (node, None),
            Child::Branch { node, degree, choices } => (node, Some((degree, choices))),
        };
        let fresh = Arc::get_mut(&mut node).expect("a kept child is not shared yet");
        let depth = fresh.path.len();
        // Checkpoint-depth nodes anchor to themselves: their snapshot
        // goes to the store, and every descendant down to the next
        // checkpoint layer inherits the returned reference.
        if self.evictable() && depth % self.ex.checkpoint_every == 0 {
            let Store::Resident(snap) = &fresh.store else {
                unreachable!("children are admitted resident");
            };
            let snap_ref = match self.store.put(snap, &mut self.stats) {
                Ok(snap_ref) => snap_ref,
                Err(e) => panic!("explore spill: cannot store a checkpoint snapshot: {e}"),
            };
            fresh.anchor = Some(Anchor { depth, snap: snap_ref, crash: fresh.crash.clone() });
        }
        self.maybe_evict(fresh);
        let Some((degree, choices)) = branch else {
            // The bound binds: this is no longer a full proof.
            self.complete = false;
            if self.take_work() {
                jobs.push(Job::Tail { node });
            }
            return;
        };
        // Flushes can push the degree past `n` (up to `2n`), so the
        // histogram grows on demand; SC sweeps never index past the
        // preallocated `n + 1` slots and their summary lines are
        // untouched.
        if degree >= self.stats.branching_histogram.len() {
            self.stats.branching_histogram.resize(degree + 1, 0);
        }
        self.stats.branching_histogram[degree] += 1;
        for (choice, skip) in choices {
            match skip {
                Some(SkipKind::Sleep) => {
                    self.stats.sleep_skips += 1;
                    continue;
                }
                Some(SkipKind::Dpor) => {
                    self.stats.dpor_skips += 1;
                    continue;
                }
                None => {}
            }
            if !self.take_work() {
                return;
            }
            jobs.push(Job::Expand { node: Arc::clone(&node), choice });
        }
    }

    /// Applies the resident ceiling: the first
    /// [`super::Explorer::resident_ceiling`] nodes admitted per layer
    /// keep their snapshot; colder ones drop it and are rehydrated on
    /// demand by the expanding worker.
    /// Under the in-memory store, checkpoint layers (depth a multiple
    /// of [`super::Explorer::checkpoint_every`]) are exempt: their
    /// resident snapshots *are* the anchors every descendant rehydrates
    /// from, so evicting one would silently reintroduce the `O(depth)`
    /// root replay this policy exists to avoid. The disk store keeps
    /// its anchors in the segment file and waives the exemption —
    /// checkpoint nodes count against the ceiling like any other.
    fn maybe_evict(&mut self, node: &mut Node) {
        if self.store.exempts_checkpoints() && node.path.len() % self.ex.checkpoint_every == 0 {
            return;
        }
        if self.resident < self.ex.resident_ceiling {
            self.resident += 1;
            return;
        }
        if let Store::Evicted = node.store {
            return;
        }
        debug_assert!(node.anchor.is_some(), "an evicted node must carry its rehydration anchor");
        self.stats.evicted += 1;
        node.store = Store::Evicted;
    }

    /// Accounts one unit of expansion work against the budget; on
    /// exhaustion the exploration stops incomplete.
    fn take_work(&mut self) -> bool {
        if self.queued >= self.ex.limits.max_expansions {
            self.complete = false;
            self.stopped = true;
            return false;
        }
        self.queued += 1;
        true
    }

    /// Phase 1: runs the layer's jobs on the pool — this thread plus up
    /// to `threads - 1` helpers, one per block at most — and returns one
    /// result vector per block, in block order. Consumes the jobs: each
    /// is dropped by the worker that ran it. Only reads engine state; the
    /// visited set goes to the workers read-only and comes back before
    /// [`Engine::merge`] folds the results.
    fn execute(&mut self, pool: &Pool, jobs: Vec<Job>) -> Vec<Vec<JobResult>> {
        let count = jobs.len().div_ceil(BLOCK);
        let mut rest = jobs.into_iter();
        let blocks = (0..count).map(|_| Mutex::new(rest.by_ref().take(BLOCK).collect())).collect();
        let layer = Arc::new(Layer { blocks, visited: std::mem::take(&mut self.visited) });
        let workers = self.threads.min(count).max(1);
        for wake in &pool.wake[..workers - 1] {
            wake.send((Arc::clone(&layer), workers)).expect("pool helpers outlive the sweep");
        }
        let mut results: Vec<Vec<JobResult>> = (0..count).map(|_| Vec::new()).collect();
        let mut place = |ran: Ran| {
            for (block, out) in ran {
                results[block] = out;
            }
        };
        place(work(&self.shared, &layer, 0, workers));
        for _ in 1..workers {
            match pool.done.recv().expect("pool helpers outlive the sweep") {
                Ok(ran) => place(ran),
                Err(panic) => resume_unwind(panic),
            }
        }
        let Ok(layer) = Arc::try_unwrap(layer) else {
            unreachable!("every worker let go of the layer before reporting");
        };
        self.visited = layer.visited;
        results
    }

    /// Phase 2: folds the layer's results in job order — deterministic
    /// regardless of which worker produced what when.
    fn merge(&mut self, blocks: Vec<Vec<JobResult>>) -> Vec<Job> {
        // Every result in hand was executed, even those a mid-merge stop
        // discards below — `expansions` reports performed work.
        self.stats.expansions += blocks.iter().map(Vec::len).sum::<usize>() as u64;
        self.resident = 0;
        let mut jobs = Vec::new();
        for result in blocks.into_iter().flatten() {
            if self.stopped {
                break;
            }
            match result {
                JobResult::Tail(tail) => {
                    self.stats.depth_limited_runs += 1;
                    self.account(tail.rehydration);
                    self.finish_run(tail.report, tail.choices, tail.depth);
                }
                JobResult::Expanded(child) => {
                    self.account(child.rehydration);
                    if child.crashed {
                        self.stats.crash_branches += 1;
                    }
                    if child.flushed {
                        self.stats.flush_branches += 1;
                    }
                    let prune = self.shared.prune;
                    if prune && (child.child.is_none() || !self.visited.insert(child.fp)) {
                        self.stats.states_pruned += 1;
                        if child.coarsened {
                            self.stats.quotient_hits += 1;
                        }
                        if child.symm_coarsened {
                            self.stats.symm_hits += 1;
                        }
                        continue;
                    }
                    if prune && self.spilling {
                        self.visited_delta.push(child.fp);
                    }
                    self.stats.states_visited += 1;
                    let kept = child.child.expect("retained children carry their node");
                    self.admit(kept, &mut jobs);
                }
            }
        }
        jobs
    }

    /// Folds one job's rehydration work into the off-summary counters.
    fn account(&mut self, rehydration: Rehydration) {
        self.stats.max_rehydration_replay =
            self.stats.max_rehydration_replay.max(rehydration.replayed);
        self.stats.store_reads += rehydration.reads;
    }

    /// Accounts one completed run and checks it; a violation is confirmed
    /// against the linear engine before being recorded.
    fn finish_run(&mut self, report: RunReport, choices: Vec<usize>, depth: usize) {
        self.stats.runs += 1;
        self.stats.max_depth = self.stats.max_depth.max(depth);
        if let Err(message) = (self.check)(&report) {
            self.confirm_against_linear_replay(&choices, &report);
            self.violations.push(Violation { choices, message });
            if !self.ex.collect_all {
                self.complete = false;
                self.stopped = true;
            }
        }
    }

    /// Re-runs a violating choice vector through the linear engine (the
    /// same [`RunConfig::replay`] the public [`super::replay`] builds)
    /// and asserts both engines reach the same outcomes.
    fn confirm_against_linear_replay(&self, choices: &[usize], report: &RunReport) {
        let cfg = RunConfig::replay(
            self.ex.n,
            self.ex.crashes.clone(),
            self.ex.limits.max_steps,
            choices,
        )
        .tso(self.ex.tso);
        let replayed = ModelWorld::run(cfg, (self.shared.make_bodies)());
        assert_eq!(
            replayed.outcomes, report.outcomes,
            "snapshot-resume exploration and linear replay disagree on a counterexample \
             (choices {choices:?}) — model-world engine bug"
        );
    }
}

impl<F> Shared<'_, F> {
    /// Classifies a kept node for [`Engine::admit`], reading everything
    /// admission needs from its snapshot: a terminal or timed-out node
    /// becomes its run report (and its snapshot is dropped here), a node
    /// at the depth bound a tail, and anything else a branch with its
    /// candidate choices and their skip verdicts. Runs in the worker that
    /// built the node (and once on the calling thread, for the root).
    fn classify(&self, node: Node) -> Child {
        let Store::Resident(snap) = &node.store else {
            unreachable!("children are classified resident");
        };
        // Under TSO a state with everyone finished/crashed but writes
        // still parked in store buffers is *not* terminal: the pending
        // flushes are hardware actions that still mutate shared memory
        // (and future readers), so such nodes branch on flushes below.
        // Under SC every buffer is empty and this is the classic check.
        let flushable = snap.flushable();
        if node.alive.is_empty() && flushable.is_empty() {
            let report = snap.report(false);
            return Child::Run { report, path: node.path };
        }
        if snap.steps() >= self.max_steps {
            let report = snap.report(true);
            return Child::Run { report, path: node.path };
        }
        if node.path.len() >= self.max_depth {
            return Child::Tail(Arc::new(node));
        }
        // One op expansion per alive process, then — while the
        // crash-count adversary's budget lasts — one crash sibling per
        // alive process (other adversaries never have budget), then one
        // flush sibling per non-empty store buffer (by raw pid, because
        // buffers outlive their owner's finish or crash). Each is queued
        // as the choice `Pick::decode` maps back to it, so
        // counterexample vectors replay through the linear engine
        // verbatim.
        let ops = node.alive.iter().map(|&p| Pick::Op(p));
        let budget = node.crash.budget_left();
        let crashes = node.alive.iter().filter(|_| budget).map(|&p| Pick::Crash(p));
        let flushes = flushable.iter().map(|&p| Pick::Flush(p));
        let choices = ops
            .chain(crashes)
            .chain(flushes)
            .map(|pick| (pick.encode(&node.alive), self.skip_kind(&node, snap, pick)))
            .collect();
        // The branch degree counts every schedulable action: alive
        // processes plus — under TSO — pending flushes.
        Child::Branch { degree: node.alive.len() + flushable.len(), node: Arc::new(node), choices }
    }

    /// The partial-order skip rule. Taking `pick` (by process `p`) right
    /// after the action that created `node` (performed by `q`) is
    /// redundant when `p < q` and the two actions *commute*: the
    /// transposed pair reaches the canonical (pid-ascending) pair's
    /// state, whose subtree is covered from its canonical representative.
    ///
    /// Active only under [`super::Reduction::dpor`]; the commuting test
    /// is the action-level one ([`Action::commutes`]: footprint
    /// independence, crash commutation). `p`'s action is a crash
    /// delivery when the (stateless) crash plan fires at its current
    /// own-step clock, and the completed operation's footprint
    /// otherwise.
    fn skip_kind(&self, node: &Node, snap: &Snapshot, pick: Pick) -> Option<SkipKind> {
        if !self.dpor {
            return None;
        }
        let (q, act_q) = node.incoming.as_ref()?;
        let (p, act_p) = match pick {
            // A TSO flush sibling: the action is the buffered head's
            // memory write, attributed to the buffer's owner (raw pid).
            // Always available at the parent too: no other process's
            // action touches `pid`'s buffer (only `pid`'s own ops
            // enqueue to it, and same-pid pairs never skip), so the
            // covering transposed path flushes the identical entry.
            Pick::Flush(pid) => (pid, Action::Flush(snap.flush_footprint(pid)?)),
            // A crash sibling ([`Crashes::UpTo`] budget branch): the
            // action is the crash delivery itself. Transposing it before
            // `q`'s incoming action is always budget-sound: ops consume
            // no crash budget, so the budget available at the parent is
            // (crash incoming) one more than, or (op incoming) equal to,
            // the budget here — either way enough for the covering path
            // to deliver this crash first.
            Pick::Crash(pid) => (pid, Action::Crash),
            Pick::Op(p) => {
                let act = if self.crash_fires(p, snap.own_steps(p)) {
                    Action::Crash
                } else {
                    Action::Op(snap.pending_footprint(p)?)
                };
                (p, act)
            }
        };
        if p >= *q {
            return None;
        }
        // The TSO fence rule: an operation that drains the caller's
        // store buffer (`tas`, `xcons_propose`, `fence`) may write
        // several objects beyond its single-key footprint, so under TSO
        // it conflicts with every adjacent action — never skip around
        // it. SC is untouched (buffers are empty, the drain is a
        // no-op, and the single-key footprint is exact).
        if self.tso
            && [&act_p, act_q].iter().any(|act| act.footprint().is_some_and(Footprint::fences))
        {
            return None;
        }
        // A crash delivery consumes no step but an operation (or a
        // flush) does, so transposing a step-consuming action past an
        // incoming crash is only valid when the covering path — the
        // step *first*, then the crash — is not cut by the step budget
        // in between: if the step lands exactly on `max_steps`, the
        // covering run times out before the crash is delivered and
        // reports the victim undecided instead of crashed. (Op-op,
        // op-flush, and flush-flush transpositions are symmetric in
        // steps, and crash-crash consumes none, so only this mixed
        // case needs the guard.)
        if matches!(act_q, Action::Crash)
            && act_p.consumes_step()
            && snap.steps() + 1 >= self.max_steps
        {
            return None;
        }
        if !act_p.commutes(act_q) {
            return None;
        }
        let read_read = act_p.is_pure_read() && act_q.is_pure_read();
        Some(if read_read { SkipKind::Sleep } else { SkipKind::Dpor })
    }

    /// Whether the (stateless) crash plan crashes `pid` at its `own`-th
    /// step. [`Crashes::Random`] never reaches here — `Explorer::run`
    /// rejects it.
    fn crash_fires(&self, pid: Pid, own: u64) -> bool {
        match self.crashes {
            Crashes::None => false,
            Crashes::AtOwnStep(plan) => plan.iter().any(|&(p, s)| p == pid && s == own),
            // Crash-count crashes are explicit crash-band branches, never
            // a side effect of an op pick.
            Crashes::UpTo(_) => false,
            Crashes::Random { .. } => unreachable!("Explorer::run rejects random crashes"),
        }
    }
}

/// One worker's share of a layer: claims blocks forward from its home
/// block `worker · blocks / workers`, wrapping around to steal the blocks
/// the others have not reached, and runs each claimed block's jobs in
/// order along a fresh [`Trail`].
fn work<F: Fn() -> Vec<Body>>(
    shared: &Shared<'_, F>,
    layer: &Layer,
    worker: usize,
    workers: usize,
) -> Ran {
    let count = layer.blocks.len();
    let home = worker * count / workers;
    let mut ran = Vec::new();
    for block in (home..count).chain(0..home) {
        let jobs = std::mem::take(&mut *layer.blocks[block].lock());
        if !jobs.is_empty() {
            let mut trail = Trail::default();
            let out = jobs
                .into_iter()
                .map(|job| run_job(shared, &layer.visited, &mut trail, job))
                .collect();
            ran.push((block, out));
        }
    }
    ran
}

/// Runs one job and drops it: the node's last reference (and with it the
/// parent snapshot) is usually released here, in the worker.
fn run_job<F: Fn() -> Vec<Body>>(
    shared: &Shared<'_, F>,
    visited: &Visited,
    trail: &mut Trail,
    job: Job,
) -> JobResult {
    match job {
        Job::Expand { node, choice } => {
            JobResult::Expanded(expand(shared, visited, trail, &node, choice))
        }
        Job::Tail { node } => JobResult::Tail(run_tail(shared, trail, &node)),
    }
}

/// A block's replay trail: the snapshots the last evicted node's
/// rehydration passed through, from its [`Anchor`] down to the node.
/// Evicted jobs under the same anchor reuse its longest common prefix.
#[derive(Default)]
struct Trail {
    /// Depth of the anchor the trail starts from.
    depth: usize,
    /// Choice path of the last node rehydrated; its first `depth`
    /// entries name the anchor.
    path: Vec<usize>,
    /// `states[i]` is the snapshot and adversary state after
    /// `path[..depth + i]`: the anchor's at the bottom, the last
    /// rehydrated node's on top — at most
    /// [`super::Explorer::checkpoint_every`]` + 1` entries.
    states: Vec<(Arc<Snapshot>, CrashState)>,
}

impl Trail {
    /// The node's snapshot: borrowed if resident; if evicted, rebuilt by
    /// replaying the part of its choice path the trail does not already
    /// hold — every replayed decision a deterministic resume, so the
    /// result is identical to the snapshot that was evicted. The anchor
    /// is loaded (an `Arc` clone, or read back and decoded from the
    /// segment file) only when it differs from the trail's. Anchors are
    /// named by depth and path prefix, never by `Arc` or record
    /// identity, so a freed and reused allocation cannot alias one.
    fn snapshot_of<'s, F: Fn() -> Vec<Body>>(
        &'s mut self,
        shared: &Shared<'_, F>,
        node: &'s Node,
    ) -> (&'s Snapshot, Rehydration) {
        if let Store::Resident(snap) = &node.store {
            return (snap, Rehydration::default());
        }
        let anchor = node.anchor.as_ref().expect(
            "an evicted node carries an anchor: depth 0 is a checkpoint layer, so every node \
             admitted while eviction is possible installs or inherits one",
        );
        let depth = anchor.depth;
        let mut cost = Rehydration::default();
        let same_anchor = !self.states.is_empty()
            && self.depth == depth
            && self.path[..depth] == node.path[..depth];
        if same_anchor {
            let suffixes = self.path[depth..].iter().zip(&node.path[depth..]);
            let common = suffixes.take_while(|(a, b)| a == b).count();
            self.states.truncate(common + 1);
        } else {
            let base = match &anchor.snap {
                SnapRef::Mem(snap) => Arc::clone(snap),
                SnapRef::Disk(disk) => {
                    cost.reads = 1;
                    Arc::new(disk.read().unwrap_or_else(|e| {
                        panic!("explore spill: cannot rehydrate a checkpoint snapshot: {e}")
                    }))
                }
            };
            self.depth = depth;
            self.states.clear();
            self.states.push((base, anchor.crash.clone()));
        }
        let from = depth + self.states.len() - 1;
        for &choice in &node.path[from..] {
            let (snap, crash) = self.states.last().expect("the trail holds its anchor");
            let mut crash = crash.clone();
            let (next, _, _) = apply_choice(shared, snap, &snap.alive(), &mut crash, choice);
            self.states.push((Arc::new(next), crash));
        }
        cost.replayed = (node.path.len() - from) as u64;
        self.path.clone_from(&node.path);
        (&self.states.last().expect("the trail holds its anchor").0, cost)
    }
}

/// One scheduling decision from `snap`, advancing `crash` by its
/// `should_crash` call: a firing crash replaces the step, exactly as in
/// the linear scheduler loop. Returns the successor and whether the pick
/// delivered a crash.
///
/// Under the `Fn() -> Vec<Body>` contract a non-crash step must
/// materialize all `n` bodies to use the picked one — `O(n)` small boxed
/// allocations per step. Negligible for the catalogued sweeps; a
/// per-pid body constructor in the public API would remove it if a
/// multi-million-expansion sweep ever makes it measurable.
fn step_snapshot<F: Fn() -> Vec<Body>>(
    shared: &Shared<'_, F>,
    snap: &Snapshot,
    crash: &mut CrashState,
    pid: Pid,
) -> (Snapshot, bool) {
    if crash.should_crash(pid, snap.own_steps(pid)) {
        (ModelWorld::resume_crash(snap, pid), true)
    } else {
        let body = (shared.make_bodies)().into_iter().nth(pid).expect("one body per process");
        (ModelWorld::resume_from(snap, pid, body), false)
    }
}

/// Executes one choice-vector entry from `snap` (alive set `alive`),
/// decoded exactly as the linear engine decodes it ([`Pick::decode`]): an
/// op pick is a [`step_snapshot`] scheduling decision, a crash pick
/// delivers one of the crash-count adversary's budgeted crashes —
/// consuming no step — and a flush pick flushes the head of a store
/// buffer, consuming one step but no adversary decision. Returns the
/// successor, the decoded pick, and whether the pick delivered a crash.
fn apply_choice<F: Fn() -> Vec<Body>>(
    shared: &Shared<'_, F>,
    snap: &Snapshot,
    alive: &[Pid],
    crash: &mut CrashState,
    choice: usize,
) -> (Snapshot, Pick, bool) {
    let pick = Pick::decode(choice, alive, snap.n(), &snap.flushable());
    let (next, crashed) = match pick {
        Pick::Flush(pid) => (ModelWorld::resume_flush(snap, pid), false),
        Pick::Crash(pid) => {
            let fired = crash.force_crash();
            debug_assert!(fired, "crash-band choices are queued only while budget remains");
            (ModelWorld::resume_crash(snap, pid), true)
        }
        Pick::Op(pid) => step_snapshot(shared, snap, crash, pid),
    };
    (next, pick, crashed)
}

/// Executes one scheduling decision from `node`, probes the child
/// against the committed visited set, and classifies it if kept.
fn expand<F: Fn() -> Vec<Body>>(
    shared: &Shared<'_, F>,
    visited: &Visited,
    trail: &mut Trail,
    node: &Node,
    choice: usize,
) -> Expanded {
    let mut crash = node.crash.clone();
    let (parent, rehydration) = trail.snapshot_of(shared, node);
    let (snap, pick, crashed_now) = apply_choice(shared, parent, &node.alive, &mut crash, choice);
    let flushed_now = matches!(pick, Pick::Flush(_));
    let (fp, coarsened, symm_coarsened) = if shared.prune {
        let coarsened = shared.quotient && snap.quotient_coarsens();
        match &shared.symmetry {
            Some(spec) => {
                let (fp, nontrivial) = snap.fingerprint_symmetric(shared.quotient, spec);
                (fp, coarsened, nontrivial)
            }
            None if shared.quotient => (snap.fingerprint_quotient(), coarsened, false),
            None => (snap.fingerprint(), false, false),
        }
    } else {
        (0, false, false)
    };
    if shared.prune && visited.contains(&fp) {
        return Expanded {
            child: None,
            fp,
            coarsened,
            symm_coarsened,
            crashed: crashed_now,
            flushed: flushed_now,
            rehydration,
        };
    }
    // The executed action's footprint is read from the *parent* (the
    // child's buffer no longer holds a flushed head).
    let incoming = match pick {
        Pick::Flush(pid) => {
            let head = parent.flush_footprint(pid).expect("flush picks target non-empty buffers");
            (pid, Action::Flush(head))
        }
        Pick::Crash(pid) => (pid, Action::Crash),
        Pick::Op(pid) if crashed_now => (pid, Action::Crash),
        Pick::Op(pid) => {
            let executed = parent.pending_footprint(pid).expect("an alive process parks at a gate");
            (pid, Action::Op(executed))
        }
    };
    let mut path = node.path.clone();
    path.push(choice);
    let alive = snap.alive();
    let child = Node {
        store: Store::Resident(Arc::new(snap)),
        path,
        alive,
        incoming: Some(incoming),
        crash,
        // The admit pass overwrites this with a self-anchor on
        // checkpoint-depth layers.
        anchor: node.anchor.clone(),
    };
    Expanded {
        child: Some(shared.classify(child)),
        fp,
        coarsened,
        symm_coarsened,
        crashed: crashed_now,
        flushed: flushed_now,
        rehydration,
    }
}

/// Resumes `node` to completion along the canonical choice-0 suffix —
/// the depth-bounded sweep's "runs still execute to completion" path.
fn run_tail<F: Fn() -> Vec<Body>>(
    shared: &Shared<'_, F>,
    trail: &mut Trail,
    node: &Node,
) -> TailRun {
    let (snap, rehydration) = trail.snapshot_of(shared, node);
    let mut snap = snap.clone();
    let mut crash = node.crash.clone();
    let mut choices = node.path.clone();
    let report = loop {
        let alive = snap.alive();
        if alive.is_empty() && snap.is_terminal() {
            break snap.report(false);
        }
        if snap.steps() >= shared.max_steps {
            break snap.report(true);
        }
        if let Some(&pid) = alive.first() {
            choices.push(Pick::Op(pid).encode(&alive));
            let (next, _) = step_snapshot(shared, &snap, &mut crash, pid);
            snap = next;
        } else {
            // Everyone finished or crashed but store buffers still hold
            // writes (TSO only): drain them in raw-pid order, recording
            // each flush as its encoded choice so the vector replays
            // through the linear engine.
            let pid = *snap.flushable().first().expect("non-terminal with no alive process");
            choices.push(Pick::Flush(pid).encode(&alive));
            snap = ModelWorld::resume_flush(&snap, pid);
        }
    };
    TailRun { report, depth: choices.len(), choices, rehydration }
}
