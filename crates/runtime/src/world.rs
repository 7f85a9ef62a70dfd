//! The shared-memory world interface.
//!
//! A *world* holds the objects shared by the processes of one system model
//! instance: multi-writer registers, snapshot objects, one-shot test&set
//! objects, and port-limited x-consensus objects. Objects are addressed by
//! structured [`ObjKey`]s and created lazily on first access, so unbounded
//! families like the BG simulation's `SAFE_AG[1..n, 0..+∞)` need no
//! up-front allocation.
//!
//! Two implementations exist: the deterministic, crash-injecting
//! [`crate::model_world::ModelWorld`] (every awaited operation is one
//! scheduler step, so every operation is trivially linearizable and
//! crashes land between operations), and the lock-based
//! [`crate::thread_world::ThreadWorld`] for full-speed benchmarking on real
//! threads, driven by [`block_on`].

use std::any::Any;
use std::future::Future;
use std::sync::Arc;
use std::task::{Context, Poll, RawWaker, RawWakerVTable, Waker};

/// Identifier of a virtual process within a world (0-based).
pub type Pid = usize;

/// Values stored in shared objects.
///
/// Objects are dynamically typed (the world stores `Arc<dyn Any>`); each
/// call site fixes a concrete `T: MemVal` and a mismatch is a bug in the
/// calling algorithm, reported by panic.
///
/// The [`std::hash::Hash`] bound lets the model world fingerprint memory
/// contents and operation results for the exhaustive explorer's
/// visited-state pruning ([`crate::explore`]); every value the paper's
/// algorithms store (integers, tuples, vectors of them) hashes naturally.
pub trait MemVal: Clone + std::hash::Hash + Send + Sync + 'static {}
impl<T: Clone + std::hash::Hash + Send + Sync + 'static> MemVal for T {}

/// Structured key addressing one shared object.
///
/// `kind` namespaces object families (each module defines its own kinds);
/// `a` and `b` index within a family — e.g. the BG simulation addresses the
/// safe-agreement object for the `sn`-th snapshot of simulated process `j`
/// as `ObjKey::new(KIND_SAFE_AG, j, sn)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjKey {
    /// Object-family namespace.
    pub kind: u32,
    /// First index within the family.
    pub a: u64,
    /// Second index within the family.
    pub b: u64,
}

impl ObjKey {
    /// Creates a key.
    pub const fn new(kind: u32, a: u64, b: u64) -> Self {
        ObjKey { kind, a, b }
    }

    /// Derives a key in the same family with a different second index.
    pub const fn with_b(self, b: u64) -> Self {
        ObjKey { b, ..self }
    }
}

impl std::fmt::Display for ObjKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "obj({}, {}, {})", self.kind, self.a, self.b)
    }
}

/// Type-erased stored value.
pub type Stored = Arc<dyn Any + Send + Sync>;

/// The shared-memory operations available to a virtual process.
///
/// All operations take the calling process's [`Pid`]; implementations may
/// use it for scheduling, failure injection, and port checks. Each
/// operation returns a future, and **one awaited operation is one atomic
/// step** of the calling process: nothing happens until the future is
/// polled, so an operation that is never awaited takes no step.
///
/// The model world's polled engines suspend a process at an operation by
/// returning [`Poll::Pending`] from it, and crash it by dropping its body
/// future there ([`crate::model_world`]). Worlds on real threads
/// ([`crate::thread_world::ThreadWorld`], and
/// [`crate::model_world::ModelWorld::new_free`]) never suspend: their
/// operations are `Ready` at their first poll, and [`block_on`] drives
/// them from synchronous code.
///
/// # Panics
///
/// All methods panic on *algorithm bugs*: type mismatches between uses of
/// the same key, snapshot length mismatches, out-of-range cell indices, and
/// x-consensus port violations. These indicate an incorrectly constructed
/// simulation, never a legal run-time condition.
pub trait World: Clone + Send + Sync + 'static {
    /// Writes a multi-writer multi-reader atomic register.
    fn reg_write<T: MemVal>(&self, pid: Pid, key: ObjKey, val: T) -> impl Future<Output = ()>;

    /// Reads a multi-writer multi-reader atomic register. `None` if never
    /// written (the paper's `⊥`).
    fn reg_read<T: MemVal>(&self, pid: Pid, key: ObjKey) -> impl Future<Output = Option<T>>;

    /// Writes cell `idx` of the `len`-cell snapshot object `key`.
    fn snap_write<T: MemVal>(
        &self,
        pid: Pid,
        key: ObjKey,
        len: usize,
        idx: usize,
        val: T,
    ) -> impl Future<Output = ()>;

    /// Atomically reads all cells of the `len`-cell snapshot object `key`.
    /// Unwritten cells read as `None` (the paper's `⊥`).
    fn snap_scan<T: MemVal>(
        &self,
        pid: Pid,
        key: ObjKey,
        len: usize,
    ) -> impl Future<Output = Vec<Option<T>>>;

    /// Atomically scans the `len`-cell snapshot object `key` and returns
    /// `summarize(view)` — a **program-declared view summary**: the caller
    /// receives *only* the summary, never the raw view.
    ///
    /// Semantically identical to `summarize(&snap_scan(..))` (the default
    /// implementation is exactly that), and still one atomic step. The
    /// point of declaring the summary at the operation is what it licenses
    /// the exhaustive explorer to do: because the calling process's
    /// continuation is a deterministic function of the values its
    /// operations *returned*, a scan that returns only `saw_stable` makes
    /// the process's control state a function of that one bit — so the
    /// model world may fold the summary, instead of the full `O(len)`
    /// view, into the process's observation identity
    /// ([`crate::explore::Reduction::view_summaries`]). Sound by
    /// construction: nothing the abstraction drops was ever visible to
    /// the program.
    ///
    /// `summarize` is a plain `fn` pointer on purpose: it cannot capture
    /// mutable state, so it is structurally a pure function of the view
    /// (plus the caller's type parameters) — the determinism the model
    /// world's log-replay resumption requires.
    ///
    /// ```
    /// use mpcn_runtime::model_world::ModelWorld;
    /// use mpcn_runtime::world::{block_on, Env, ObjKey};
    ///
    /// let env = Env::new(ModelWorld::new_free(2), 0);
    /// let key = ObjKey::new(901, 0, 0);
    /// block_on(env.snap_write(key, 2, 0, 7u64));
    /// // The caller receives only the declared summary — here, how many
    /// // cells have been written — never the raw view.
    /// let written = block_on(
    ///     env.snap_scan_via::<u64, u64>(key, 2, |view| view.iter().flatten().count() as u64),
    /// );
    /// assert_eq!(written, 1);
    /// ```
    fn snap_scan_via<T: MemVal, S: MemVal>(
        &self,
        pid: Pid,
        key: ObjKey,
        len: usize,
        summarize: fn(&[Option<T>]) -> S,
    ) -> impl Future<Output = S> {
        async move { summarize(&self.snap_scan::<T>(pid, key, len).await) }
    }

    /// Store-buffer drain point (a full memory fence). Under a
    /// sequentially consistent world every write is globally visible the
    /// moment it completes, so the default is a free no-op — it takes no
    /// scheduling step and leaves run traces untouched. The model world's
    /// TSO exploration mode overrides it: there a fence is one atomic
    /// step that drains the calling process's FIFO store buffer to shared
    /// memory ([`crate::model_world::RunConfig::tso`]).
    fn fence(&self, _pid: Pid) -> impl Future<Output = ()> {
        std::future::ready(())
    }

    /// One-shot test&set: `true` to the first invocation ever, `false` to
    /// all later ones.
    fn tas(&self, pid: Pid, key: ObjKey) -> impl Future<Output = bool>;

    /// Proposes `val` to the port-limited consensus object `key` and
    /// returns its decided value.
    ///
    /// `ports` is the static set of processes allowed to access the object;
    /// it must be identical across all accesses, contain `pid`, and its
    /// length is the object's consensus number `x`.
    fn xcons_propose<T: MemVal>(
        &self,
        pid: Pid,
        key: ObjKey,
        ports: &[Pid],
        val: T,
    ) -> impl Future<Output = T>;
}

/// A process-scoped handle: a world plus the calling process identity.
///
/// Process bodies receive an `Env` so algorithm code reads like the paper's
/// pseudo-code (no explicit `pid` threading).
#[derive(Debug, Clone)]
pub struct Env<W> {
    world: W,
    pid: Pid,
}

impl<W: World> Env<W> {
    /// Creates a handle binding `world` to process `pid`.
    pub fn new(world: W, pid: Pid) -> Self {
        Env { world, pid }
    }

    /// The identity of the calling process.
    pub fn pid(&self) -> Pid {
        self.pid
    }

    /// The underlying world.
    pub fn world(&self) -> &W {
        &self.world
    }

    /// See [`World::reg_write`].
    pub fn reg_write<T: MemVal>(&self, key: ObjKey, val: T) -> impl Future<Output = ()> + '_ {
        self.world.reg_write(self.pid, key, val)
    }

    /// See [`World::reg_read`].
    pub fn reg_read<T: MemVal>(&self, key: ObjKey) -> impl Future<Output = Option<T>> + '_ {
        self.world.reg_read(self.pid, key)
    }

    /// See [`World::snap_write`].
    pub fn snap_write<T: MemVal>(
        &self,
        key: ObjKey,
        len: usize,
        idx: usize,
        val: T,
    ) -> impl Future<Output = ()> + '_ {
        self.world.snap_write(self.pid, key, len, idx, val)
    }

    /// See [`World::snap_scan`].
    pub fn snap_scan<T: MemVal>(
        &self,
        key: ObjKey,
        len: usize,
    ) -> impl Future<Output = Vec<Option<T>>> + '_ {
        self.world.snap_scan(self.pid, key, len)
    }

    /// See [`World::snap_scan_via`].
    pub fn snap_scan_via<T: MemVal, S: MemVal>(
        &self,
        key: ObjKey,
        len: usize,
        summarize: fn(&[Option<T>]) -> S,
    ) -> impl Future<Output = S> + '_ {
        self.world.snap_scan_via(self.pid, key, len, summarize)
    }

    /// See [`World::fence`].
    pub fn fence(&self) -> impl Future<Output = ()> + '_ {
        self.world.fence(self.pid)
    }

    /// See [`World::tas`].
    pub fn tas(&self, key: ObjKey) -> impl Future<Output = bool> + '_ {
        self.world.tas(self.pid, key)
    }

    /// See [`World::xcons_propose`].
    pub fn xcons_propose<'a, T: MemVal>(
        &'a self,
        key: ObjKey,
        ports: &'a [Pid],
        val: T,
    ) -> impl Future<Output = T> + 'a {
        self.world.xcons_propose(self.pid, key, ports, val)
    }
}

/// A waker that does nothing. The polled engines never wait for a wake-up:
/// a parked operation is resumed by the scheduler picking its process, not
/// by an event, so nothing ever needs waking.
pub(crate) fn noop_waker() -> Waker {
    const VTABLE: RawWakerVTable = RawWakerVTable::new(|_| RAW, |_| {}, |_| {}, |_| {});
    const RAW: RawWaker = RawWaker::new(std::ptr::null(), &VTABLE);
    // SAFETY: every vtable function ignores the data pointer, so a null
    // pointer and no-op functions uphold the `RawWaker` contract.
    unsafe { Waker::from_raw(RAW) }
}

/// Drives `fut` to completion on the calling thread, for code that calls
/// [`World`] operations outside a model-world engine: bodies on
/// [`crate::thread_world::ThreadWorld`] threads and direct tests on
/// [`crate::model_world::ModelWorld::new_free`], whose operations never
/// park.
///
/// # Panics
///
/// Panics if `fut` returns [`Poll::Pending`]: only a model-world engine
/// can resume a parked operation.
pub fn block_on<F: Future>(fut: F) -> F::Output {
    let mut fut = std::pin::pin!(fut);
    match fut.as_mut().poll(&mut Context::from_waker(&noop_waker())) {
        Poll::Ready(out) => out,
        Poll::Pending => panic!(
            "block_on: the future returned Pending — it awaited a model-world operation that \
             parked, which only ModelWorld's polled engines (run, snapshot resume) can resume"
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_on_returns_a_ready_output() {
        assert_eq!(block_on(async { 7u64 }), 7);
    }

    #[test]
    #[should_panic(expected = "block_on: the future returned Pending")]
    fn block_on_rejects_a_pending_future() {
        block_on(std::future::pending::<()>());
    }

    #[test]
    fn obj_key_derivation() {
        let k = ObjKey::new(3, 7, 0);
        assert_eq!(k.with_b(9), ObjKey::new(3, 7, 9));
        assert_eq!(k.to_string(), "obj(3, 7, 0)");
    }

    #[test]
    fn obj_key_ordering_and_hash() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(ObjKey::new(1, 2, 3));
        assert!(set.contains(&ObjKey::new(1, 2, 3)));
        assert!(!set.contains(&ObjKey::new(1, 2, 4)));
        assert!(ObjKey::new(1, 0, 0) < ObjKey::new(2, 0, 0));
    }
}
