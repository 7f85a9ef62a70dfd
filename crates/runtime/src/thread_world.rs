//! A full-speed, lock-based world for real-thread benchmarking.
//!
//! [`ThreadWorld`] implements the same [`World`] interface as the model
//! world but with no scheduler: every operation acquires a short critical
//! section on the object map and is `Ready` at its first poll, so bodies
//! on real threads drive it with [`crate::world::block_on`]. Operations are
//! linearizable (they execute atomically under the lock) but interleavings
//! are whatever the OS scheduler produces — suitable for measuring protocol
//! costs (benches E1–E6) and for stress tests, not for deterministic
//! replay or crash injection (use [`crate::model_world::ModelWorld`] for
//! those).

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::world::{MemVal, ObjKey, Pid, Stored, World};

#[derive(Debug)]
enum Object {
    Register(Option<Stored>),
    Snapshot(Vec<Option<Stored>>),
    Tas(bool),
    XCons { ports: Vec<Pid>, decided: Option<Stored> },
}

/// Lock-based shared-object heap for real threads. Cheap to clone.
#[derive(Clone, Default)]
pub struct ThreadWorld {
    objects: Arc<Mutex<HashMap<ObjKey, Object>>>,
}

impl std::fmt::Debug for ThreadWorld {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadWorld").field("objects", &self.objects.lock().len()).finish()
    }
}

impl ThreadWorld {
    /// Creates an empty world.
    pub fn new() -> Self {
        ThreadWorld::default()
    }
}

fn downcast<T: MemVal>(stored: &Stored, key: ObjKey, what: &str) -> T {
    stored
        .downcast_ref::<T>()
        .unwrap_or_else(|| panic!("type mismatch reading {what} {key}"))
        .clone()
}

impl World for ThreadWorld {
    async fn reg_write<T: MemVal>(&self, _pid: Pid, key: ObjKey, val: T) {
        let mut objs = self.objects.lock();
        match objs.entry(key).or_insert(Object::Register(None)) {
            Object::Register(slot) => *slot = Some(Arc::new(val)),
            other => panic!("object {key} is not a register: {other:?}"),
        }
    }

    async fn reg_read<T: MemVal>(&self, _pid: Pid, key: ObjKey) -> Option<T> {
        let mut objs = self.objects.lock();
        match objs.entry(key).or_insert(Object::Register(None)) {
            Object::Register(slot) => slot.as_ref().map(|s| downcast(s, key, "register")),
            other => panic!("object {key} is not a register: {other:?}"),
        }
    }

    async fn snap_write<T: MemVal>(&self, _pid: Pid, key: ObjKey, len: usize, idx: usize, val: T) {
        assert!(idx < len, "snapshot cell index {idx} out of range (len {len})");
        let mut objs = self.objects.lock();
        match objs.entry(key).or_insert_with(|| Object::Snapshot(vec![None; len])) {
            Object::Snapshot(cells) => {
                assert_eq!(cells.len(), len, "snapshot {key} length mismatch");
                cells[idx] = Some(Arc::new(val));
            }
            other => panic!("object {key} is not a snapshot object: {other:?}"),
        }
    }

    async fn snap_scan<T: MemVal>(&self, _pid: Pid, key: ObjKey, len: usize) -> Vec<Option<T>> {
        let mut objs = self.objects.lock();
        match objs.entry(key).or_insert_with(|| Object::Snapshot(vec![None; len])) {
            Object::Snapshot(cells) => {
                assert_eq!(cells.len(), len, "snapshot {key} length mismatch");
                cells
                    .iter()
                    .map(|c| c.as_ref().map(|s| downcast(s, key, "snapshot cell")))
                    .collect()
            }
            other => panic!("object {key} is not a snapshot object: {other:?}"),
        }
    }

    async fn tas(&self, _pid: Pid, key: ObjKey) -> bool {
        let mut objs = self.objects.lock();
        match objs.entry(key).or_insert(Object::Tas(false)) {
            Object::Tas(taken) => {
                let won = !*taken;
                *taken = true;
                won
            }
            other => panic!("object {key} is not a test&set object: {other:?}"),
        }
    }

    async fn xcons_propose<T: MemVal>(&self, pid: Pid, key: ObjKey, ports: &[Pid], val: T) -> T {
        assert!(
            ports.contains(&pid),
            "process {pid} is not a port of consensus object {key} (ports {ports:?})"
        );
        let mut objs = self.objects.lock();
        match objs
            .entry(key)
            .or_insert_with(|| Object::XCons { ports: ports.to_vec(), decided: None })
        {
            Object::XCons { ports: stored_ports, decided } => {
                assert_eq!(
                    stored_ports, ports,
                    "consensus object {key} accessed with inconsistent port sets"
                );
                let d = decided.get_or_insert_with(|| Arc::new(val));
                downcast(d, key, "consensus object")
            }
            other => panic!("object {key} is not a consensus object: {other:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::block_on;
    use std::thread;

    const K: ObjKey = ObjKey::new(7, 0, 0);

    #[test]
    fn basic_semantics_match_model_world() {
        let w = ThreadWorld::new();
        assert_eq!(block_on(w.reg_read::<u64>(0, K)), None);
        block_on(w.reg_write(0, K, 9u64));
        assert_eq!(block_on(w.reg_read::<u64>(0, K)), Some(9));

        let s = ObjKey::new(8, 0, 0);
        block_on(w.snap_write(0, s, 2, 1, 4u64));
        assert_eq!(block_on(w.snap_scan::<u64>(0, s, 2)), vec![None, Some(4)]);

        let t = ObjKey::new(9, 0, 0);
        assert!(block_on(w.tas(0, t)));
        assert!(!block_on(w.tas(1, t)));
    }

    #[test]
    fn concurrent_tas_single_winner() {
        let w = ThreadWorld::new();
        let key = ObjKey::new(11, 0, 0);
        let wins: usize = thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|pid| {
                    let w = w.clone();
                    s.spawn(move || usize::from(block_on(w.tas(pid, key))))
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        });
        assert_eq!(wins, 1);
    }

    #[test]
    fn concurrent_xcons_agreement() {
        let w = ThreadWorld::new();
        let key = ObjKey::new(12, 0, 0);
        let ports: Vec<Pid> = (0..6).collect();
        let decisions: Vec<u64> = thread::scope(|s| {
            let handles: Vec<_> = (0..6)
                .map(|pid| {
                    let w = w.clone();
                    let ports = ports.clone();
                    s.spawn(move || block_on(w.xcons_propose(pid, key, &ports, pid as u64 + 1)))
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(decisions.windows(2).all(|w| w[0] == w[1]), "agreement");
        assert!((1..=6).contains(&decisions[0]), "validity");
    }

    #[test]
    fn concurrent_snapshot_scans_are_consistent() {
        // Writer fills cells 0 and 1 with equal counters in separate ops;
        // scans under the lock must never observe cell1 > cell0.
        let w = ThreadWorld::new();
        let key = ObjKey::new(13, 0, 0);
        thread::scope(|s| {
            let ww = w.clone();
            s.spawn(move || {
                for k in 0..2000u64 {
                    block_on(ww.snap_write(0, key, 2, 0, k + 1));
                    block_on(ww.snap_write(0, key, 2, 1, k + 1));
                }
            });
            let wr = w.clone();
            s.spawn(move || {
                for _ in 0..2000 {
                    let v = block_on(wr.snap_scan::<u64>(1, key, 2));
                    let a = v[0].unwrap_or(0);
                    let b = v[1].unwrap_or(0);
                    assert!(a >= b, "scan saw cell1 ahead of cell0: {a} < {b}");
                }
            });
        });
    }
}
