//! The shadow walk: a bounded walk from a sweep's root state that calls
//! the same snapshot, fingerprint, codec and fixture functions the
//! explorer calls on every expansion, one at a time, and times each call
//! on states the sweep itself visits.
//!
//! The walk goes layer by layer, like the explorer's frontier, and keeps
//! an evenly spaced sample of each layer, so every depth is measured. A
//! depth-first walk would spend its budget near the leaves, where most
//! steps finish a body instead of parking it, and understate the cost of
//! a resume several times over.

use std::collections::HashSet;
use std::hint::black_box;
use std::time::Instant;

use mpcn_runtime::model_world::{ModelWorld, Snapshot};

use crate::sweeps::{Fixture, Mode};
use crate::Checks;

/// States expanded per layer of a fixture's walk.
const STATES_PER_LAYER: usize = 32;

/// Per-call costs in nanoseconds, one sample per call.
#[derive(Debug, Default)]
pub struct Costs {
    pub root_ns: Vec<f64>,
    pub make_bodies_ns: Vec<f64>,
    pub step_ns: Vec<f64>,
    pub crash_ns: Vec<f64>,
    pub flush_ns: Vec<f64>,
    pub clone_ns: Vec<f64>,
    pub fp_plain_ns: Vec<f64>,
    pub fp_quotient_ns: Vec<f64>,
    pub fp_symmetric_ns: Vec<f64>,
    pub encode_ns: Vec<f64>,
    pub decode_ns: Vec<f64>,
    pub encoded_bytes: Vec<f64>,
    /// Canonical fingerprints seen, and how many calls produced them.
    pub symmetric_distinct: usize,
    pub symmetric_calls: usize,
}

pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

impl Costs {
    fn absorb(&mut self, other: Costs) {
        let pairs = [
            (&mut self.root_ns, other.root_ns),
            (&mut self.make_bodies_ns, other.make_bodies_ns),
            (&mut self.step_ns, other.step_ns),
            (&mut self.crash_ns, other.crash_ns),
            (&mut self.flush_ns, other.flush_ns),
            (&mut self.clone_ns, other.clone_ns),
            (&mut self.fp_plain_ns, other.fp_plain_ns),
            (&mut self.fp_quotient_ns, other.fp_quotient_ns),
            (&mut self.fp_symmetric_ns, other.fp_symmetric_ns),
            (&mut self.encode_ns, other.encode_ns),
            (&mut self.decode_ns, other.decode_ns),
            (&mut self.encoded_bytes, other.encoded_bytes),
        ];
        for (mine, theirs) in pairs {
            mine.extend(theirs);
        }
        self.symmetric_distinct += other.symmetric_distinct;
        self.symmetric_calls += other.symmetric_calls;
    }

    /// Mean cost the explorer pays per expansion outside its own
    /// frontier code: building the bodies, one resume, the fingerprint
    /// the sweep prunes on, and one snapshot clone.
    fn per_expansion_ns(&self, mode: Mode) -> f64 {
        let fp = if mode.symmetric {
            &self.fp_symmetric_ns
        } else if mode.reduced {
            &self.fp_quotient_ns
        } else {
            &self.fp_plain_ns
        };
        mean(&self.make_bodies_ns) + mean(&self.step_ns) + mean(fp) + mean(&self.clone_ns)
    }
}

fn timed<R>(samples: &mut Vec<f64>, f: impl FnOnce() -> R) -> R {
    let t = Instant::now();
    let out = black_box(f());
    samples.push(t.elapsed().as_nanos() as f64);
    out
}

/// Times the per-state calls on `s` and checks that it survives a codec
/// round trip. Returns its plain fingerprint.
fn measure(
    s: &Snapshot,
    fixture: Fixture,
    mode: Mode,
    c: &mut Costs,
    canonical: &mut HashSet<u64>,
    checks: &mut Checks,
) -> u64 {
    let fp = timed(&mut c.fp_plain_ns, || s.fingerprint());
    timed(&mut c.fp_quotient_ns, || s.fingerprint_quotient());
    if let (Some(spec), false) = (fixture.symmetry(), s.is_tso()) {
        let (canon, _) =
            timed(&mut c.fp_symmetric_ns, || s.fingerprint_symmetric(mode.reduced, &spec));
        canonical.insert(canon);
        c.symmetric_calls += 1;
    }
    drop(timed(&mut c.clone_ns, || s.clone()));
    match timed(&mut c.encode_ns, || s.encode()) {
        Ok(bytes) => {
            c.encoded_bytes.push(bytes.len() as f64);
            let back = timed(&mut c.decode_ns, || Snapshot::decode(&bytes));
            let same = back.as_ref().map(Snapshot::fingerprint);
            checks.check(matches!(same, Ok(f) if f == fp), || {
                format!("{fixture:?}: codec round trip gave {same:?}, not {fp}")
            });
        }
        Err(e) => checks.check(false, || format!("{fixture:?}: encode failed: {e:?}")),
    }
    fp
}

/// Walks `fixture` under `mode` from its root, expanding up to
/// [`STATES_PER_LAYER`] distinct states of every layer along the
/// explorer's branch kinds: one step of each live process, a crash of
/// each live process while the crash budget lasts, and one flush of each
/// non-empty store buffer under TSO. Returns the fixture's costs and its
/// per-expansion estimate.
fn walk(fixture: Fixture, mode: Mode, checks: &mut Checks) -> (Costs, f64) {
    let mut c = Costs::default();
    let mut canonical = HashSet::new();
    let n = fixture.n();
    let root = timed(&mut c.root_ns, || {
        ModelWorld::snapshot_root_tso(n, true, mode.reduced, mode.tso, fixture.bodies())
    });
    measure(&root, fixture, mode, &mut c, &mut canonical, checks);
    let mut layer = vec![(root, 0usize)];
    while !layer.is_empty() {
        let mut seen = HashSet::new();
        let mut next = Vec::new();
        for (snap, crashed) in &layer {
            let crashed = *crashed;
            let mut children = Vec::new();
            for pid in snap.alive() {
                let mut bodies = timed(&mut c.make_bodies_ns, || fixture.bodies());
                let body = bodies.swap_remove(pid);
                let child = timed(&mut c.step_ns, || ModelWorld::resume_from(snap, pid, body));
                children.push((child, crashed));
                if crashed < mode.crash_budget {
                    let child = timed(&mut c.crash_ns, || ModelWorld::resume_crash(snap, pid));
                    children.push((child, crashed + 1));
                }
            }
            if mode.tso {
                for pid in snap.flushable() {
                    let child = timed(&mut c.flush_ns, || ModelWorld::resume_flush(snap, pid));
                    children.push((child, crashed));
                }
            }
            for (child, crashed) in children {
                let fp = measure(&child, fixture, mode, &mut c, &mut canonical, checks);
                if !child.is_terminal() && seen.insert(fp) {
                    next.push((child, crashed));
                }
            }
        }
        let stride = next.len().div_ceil(STATES_PER_LAYER).max(1);
        layer = next.into_iter().step_by(stride).collect();
    }
    c.symmetric_distinct = canonical.len();
    let per_expansion = c.per_expansion_ns(mode);
    (c, per_expansion)
}

/// Walks each `(fixture, mode)` in turn. Returns the pooled costs and each
/// input's per-expansion estimate, in input order.
pub fn walk_all(inputs: &[(Fixture, Mode)], checks: &mut Checks) -> (Costs, Vec<f64>) {
    let mut all = Costs::default();
    let mut estimates = Vec::new();
    for &(fixture, mode) in inputs {
        let (c, est) = walk(fixture, mode, checks);
        all.absorb(c);
        estimates.push(est);
    }
    (all, estimates)
}
