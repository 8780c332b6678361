//! Edge plumbing for a threaded service-graph driver.
//!
//! A threaded router runs each middleware stage on its own worker(s)
//! and moves events between them over bounded FIFO channels. What makes
//! that deterministic is *sequencing*: every event entering the graph
//! at the facade boundary is stamped with a **root sequence number**,
//! and every stage's outputs are merged back in submission order before
//! the driver routes them onward. This module provides the reusable
//! half of that machinery:
//!
//! * [`StageEdge`] — a [`ShardPool`] wrapped with root attribution: the
//!   driver submits `(root, job)` pairs and drains `(root, output)`
//!   pairs in exact submission order, with worker failures attributed
//!   back to the root that lost work.
//!
//! The domain-specific half (which events go to which stage, and what
//! "to quiescence" means for one root) lives in `garnet-core`'s
//! `ThreadedRouter`, which composes three of these edges.

use std::collections::BTreeMap;

use crate::bus::{EdgeClass, ShardFailure, ShardPool, Stage, SupervisionConfig};

/// A worker failure attributed to the boundary event (root) whose work
/// was lost.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RootFailure {
    /// The root sequence number whose job was lost.
    pub root: u64,
    /// The underlying shard failure.
    pub failure: ShardFailure,
}

/// A sharded stage of a threaded service graph, with its outputs and
/// failures keyed by root sequence number.
///
/// Wraps a [`ShardPool`]: jobs are tagged with the root they belong to
/// at submission, and [`StageEdge::drain`] hands back `(root, output)`
/// pairs in exact submission order — the pool's gap-free prefix merge,
/// re-labelled. A job lost to a worker panic surfaces as a
/// [`RootFailure`] so the driver can close out the root's accounting
/// instead of waiting forever.
///
/// Backpressure is the pool's: `submit` blocks while the target shard's
/// bounded queue is full.
pub struct StageEdge<I: Send + 'static, O: Send + 'static> {
    pool: ShardPool<I, O>,
    /// Root owning each in-flight pool sequence number.
    roots: BTreeMap<u64, u64>,
    /// Pool seqs known lost (their failures already reported); the
    /// output-assignment walk skips them.
    failed: std::collections::BTreeSet<u64>,
    /// Next pool seq to assign a drained output to.
    next_assign: u64,
    pending_failures: Vec<RootFailure>,
}

impl<I: Send + 'static, O: Send + 'static> StageEdge<I, O> {
    /// Spawns the stage's workers; see [`ShardPool::with_supervision`]
    /// for the `shards` / `capacity` / `supervision` semantics.
    pub fn new<F>(
        shards: usize,
        capacity: usize,
        supervision: Option<SupervisionConfig>,
        factory: F,
    ) -> Self
    where
        F: FnMut(usize) -> Stage<I, O> + 'static,
    {
        StageEdge {
            pool: ShardPool::with_supervision(shards, capacity, supervision, factory),
            roots: BTreeMap::new(),
            failed: std::collections::BTreeSet::new(),
            next_assign: 0,
            pending_failures: Vec::new(),
        }
    }

    /// Number of worker shards.
    pub fn shard_count(&self) -> usize {
        self.pool.shard_count()
    }

    /// Submits `job` for `root` on `shard`, blocking while the shard's
    /// queue is full (backpressure propagates to the driver).
    pub fn submit(&mut self, shard: usize, root: u64, job: I) {
        self.submit_classed(shard, root, job, EdgeClass::Data);
    }

    /// [`StageEdge::submit`] carrying an explicit [`EdgeClass`] tag —
    /// the QoS layer's per-class flow accounting at this stage's
    /// channel boundary.
    pub fn submit_classed(&mut self, shard: usize, root: u64, job: I, class: EdgeClass) {
        let seq = self.pool.submit_tagged(shard, job, class);
        self.roots.insert(seq, root);
    }

    /// Submits a burst of `(root, job)` pairs to `shard` as one channel
    /// hand-off (see [`ShardPool::submit_batch`]): the jobs take
    /// consecutive pool sequence numbers in order, so drain order and
    /// root attribution are exactly as if each pair had been
    /// [`StageEdge::submit`]ted individually.
    pub fn submit_batch(&mut self, shard: usize, jobs: Vec<(u64, I)>) {
        self.submit_batch_classed(shard, jobs, EdgeClass::Data);
    }

    /// [`StageEdge::submit_batch`] carrying an explicit [`EdgeClass`]
    /// tag for the whole burst.
    pub fn submit_batch_classed(&mut self, shard: usize, jobs: Vec<(u64, I)>, class: EdgeClass) {
        let mut roots = Vec::with_capacity(jobs.len());
        let mut batch = Vec::with_capacity(jobs.len());
        for (root, job) in jobs {
            roots.push(root);
            batch.push(job);
        }
        let seqs = self.pool.submit_batch_tagged(shard, batch, class);
        for (seq, root) in seqs.zip(roots) {
            self.roots.insert(seq, root);
        }
    }

    /// Jobs accepted per [`EdgeClass`] at this edge, indexed by
    /// [`EdgeClass::index`].
    pub fn class_submits(&self) -> [u64; 3] {
        self.pool.class_submits()
    }

    /// Collects newly surfaced worker failures, attributing each to its
    /// root, and marks their pool seqs as gaps for the output walk.
    fn absorb_failures(&mut self) {
        for failure in self.pool.take_failures() {
            let root = self.roots.remove(&failure.seq).unwrap_or(u64::MAX);
            self.failed.insert(failure.seq);
            self.pending_failures.push(RootFailure { root, failure });
        }
    }

    /// Returns the stage outputs that are ready and form a gap-free
    /// prefix of the submission order, each labelled with its root.
    pub fn drain(&mut self) -> Vec<(u64, O)> {
        self.absorb_failures();
        let outs = self.pool.drain();
        // absorb_failures ran inside drain too: pick up anything that
        // surfaced between the two calls before assigning seqs.
        self.absorb_failures();
        let watermark = self.pool.merged_watermark();
        let mut out = Vec::with_capacity(outs.len());
        let mut it = outs.into_iter();
        for seq in self.next_assign..watermark {
            if self.failed.remove(&seq) {
                continue; // a lost job's slot: already reported
            }
            let o = it.next().expect("pool releases one output per non-failed seq");
            let root = self.roots.remove(&seq).expect("every submitted seq has a root");
            out.push((root, o));
        }
        debug_assert!(it.next().is_none(), "outputs beyond the merge watermark");
        self.next_assign = watermark;
        out
    }

    /// Takes the failures recorded so far, oldest first, each attributed
    /// to its root.
    pub fn take_failures(&mut self) -> Vec<RootFailure> {
        self.absorb_failures();
        std::mem::take(&mut self.pending_failures)
    }

    /// Shard restarts performed by the supervision policy.
    pub fn restart_count(&self) -> u64 {
        self.pool.restart_count()
    }

    /// Takes the supervision restarts performed since the last call,
    /// each with its backoff delay (see [`crate::bus::RestartEvent`]).
    pub fn take_restart_events(&mut self) -> Vec<crate::bus::RestartEvent> {
        self.pool.take_restart_events()
    }

    /// Drains remaining work, joins the workers, and returns every
    /// outstanding `(root, output)` in submission order plus every
    /// remaining failure.
    pub fn finish(mut self) -> (Vec<(u64, O)>, Vec<RootFailure>) {
        self.absorb_failures();
        let (outs, late) = self.pool.finish();
        let mut failures = std::mem::take(&mut self.pending_failures);
        for failure in late {
            let root = self.roots.remove(&failure.seq).unwrap_or(u64::MAX);
            self.failed.insert(failure.seq);
            failures.push(RootFailure { root, failure });
        }
        // finish() released everything that wasn't a failure: walk the
        // remaining seqs in order and label them.
        let mut labelled = Vec::with_capacity(outs.len());
        let mut it = outs.into_iter();
        let seqs: Vec<u64> = self.roots.keys().copied().collect();
        for seq in seqs {
            if self.failed.contains(&seq) {
                continue;
            }
            if let Some(o) = it.next() {
                let root = self.roots[&seq];
                labelled.push((root, o));
            }
        }
        (labelled, failures)
    }
}

impl<I: Send + 'static, O: Send + 'static> core::fmt::Debug for StageEdge<I, O> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("StageEdge")
            .field("shards", &self.pool.shard_count())
            .field("in_flight", &self.roots.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drain_labels_outputs_with_their_roots_in_order() {
        let mut edge: StageEdge<u32, u32> = StageEdge::new(2, 8, None, |_| Box::new(|x| x * 10));
        for (root, x) in [(7u64, 1u32), (7, 2), (9, 3), (11, 4)] {
            edge.submit(x as usize % 2, root, x);
        }
        let mut got = Vec::new();
        while got.len() < 4 {
            got.extend(edge.drain());
        }
        assert_eq!(got, vec![(7, 10), (7, 20), (9, 30), (11, 40)]);
        let (rest, failures) = edge.finish();
        assert!(rest.is_empty() && failures.is_empty());
    }

    #[test]
    fn batch_submission_preserves_root_labels_and_order() {
        let mut edge: StageEdge<u32, u32> = StageEdge::new(2, 8, None, |_| Box::new(|x| x * 10));
        edge.submit(0, 7, 1);
        edge.submit_batch(1, vec![(7, 2), (9, 3)]);
        edge.submit_batch(0, vec![(11, 4)]);
        let mut got = Vec::new();
        while got.len() < 4 {
            got.extend(edge.drain());
        }
        assert_eq!(got, vec![(7, 10), (7, 20), (9, 30), (11, 40)]);
        let (rest, failures) = edge.finish();
        assert!(rest.is_empty() && failures.is_empty());
    }

    #[test]
    fn failures_are_attributed_to_roots_and_skipped_in_the_walk() {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let mut edge: StageEdge<u32, u32> = StageEdge::new(2, 8, None, |_| {
            Box::new(|x| {
                if x == 13 {
                    panic!("bad job");
                }
                x
            })
        });
        edge.submit(0, 100, 1);
        edge.submit(1, 200, 13);
        edge.submit(0, 300, 2);
        let mut got = Vec::new();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while got.len() < 2 {
            got.extend(edge.drain());
            assert!(std::time::Instant::now() < deadline, "drain hung on the lost seq");
        }
        assert_eq!(got, vec![(100, 1), (300, 2)]);
        let failures = edge.take_failures();
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].root, 200);
        assert_eq!(failures[0].failure.reason, "bad job");
        std::panic::set_hook(prev);
    }
}
