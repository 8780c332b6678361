//! A shard pool: shard 0 on the thread that collects the results, one
//! worker thread per further shard fed over bounded `std::sync::mpsc`
//! channels, and a submission-order merge so the output never depends on
//! thread scheduling. Nothing in the middleware runs on it: it stays for
//! the benchmark's hand-off probe, which may only change with a
//! `benchmark` change, and goes with that change. Experiments run on the
//! deterministic `garnet-simkit` event queue instead.

use std::sync::mpsc::{self, Receiver, Sender, SyncSender};

use core::fmt;

/// A shard worker died or refused a job: the loss is recorded here
/// instead of silently vanishing (or hanging the submission-order
/// merge on a sequence number that will never arrive).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardFailure {
    /// The shard that lost the job.
    pub shard: usize,
    /// The submission sequence number of the lost job.
    pub seq: u64,
    /// The panic payload, or a synthetic reason for jobs dropped on a
    /// shard that was already poisoned.
    pub reason: String,
}

impl fmt::Display for ShardFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "shard {} lost job #{}: {}", self.shard, self.seq, self.reason)
    }
}

fn panic_reason(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with a non-string payload".to_owned()
    }
}

/// One shard's stage function: owns the shard's state. Shard 0's runs on
/// the thread that collects the pool's results, every other shard's on
/// that shard's worker thread.
pub(crate) type Stage<I, O> = Box<dyn FnMut(I) -> O + Send>;
/// One shard's finished jobs of one [`JobBatch`], in batch order. A
/// worker sends one per batch, mirroring the job channel's batching so
/// the result channel's send/recv cost is per *batch*, not per job.
type ShardResult<O> = (usize, Vec<(u64, Result<O, String>)>);
/// One channel hand-off to a shard worker: a burst of sequenced jobs.
/// Single submissions ride as one-element batches, so the bounded job
/// queue counts hand-offs, and batch submission amortises the channel
/// rendezvous over the burst.
type JobBatch<I> = Vec<(u64, I)>;

/// Runs sequenced jobs through `stage` in order. A panic is caught: the
/// panicked job's entry carries the payload and ends the results, since
/// the stage's state may be half-mutated — the shard is poisoned rather
/// than corrupt, and the jobs behind it strand.
fn run_jobs<I, O>(
    stage: &mut Stage<I, O>,
    jobs: impl IntoIterator<Item = (u64, I)>,
) -> Vec<(u64, Result<O, String>)> {
    let jobs = jobs.into_iter();
    let mut results = Vec::with_capacity(jobs.size_hint().0);
    for (seq, job) in jobs {
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| stage(job))) {
            Ok(o) => results.push((seq, Ok(o))),
            Err(payload) => {
                results.push((seq, Err(panic_reason(payload.as_ref()))));
                break;
            }
        }
    }
    results
}

/// A fixed pool of shards with a deterministic output merge.
///
/// Each shard runs one stateful stage function; jobs are tagged with a
/// global submission sequence number and the pool reassembles outputs
/// in exactly that order, so the result stream is **bit-identical
/// regardless of thread scheduling**.
///
/// The join is caller-runs: shards `1..N` each run on a worker thread,
/// while shard 0's jobs queue in the pool and run on the thread that
/// next calls [`ShardPool::drain`] or [`ShardPool::finish`] — after the
/// round's worker jobs have been sent, so the caller works beside the
/// N−1 workers instead of waiting on them. N shards start N−1 threads,
/// and a one-shard pool crosses no thread and no channel.
///
/// A panicking stage does not wedge the pool: the panic is caught and
/// the shard is marked **poisoned** (its state may be corrupt). The
/// panicked job, every job stranded behind it on that shard and every
/// job submitted to the shard afterwards become typed [`ShardFailure`]s,
/// which [`ShardPool::finish`] returns, while the merge skips the lost
/// sequence numbers instead of waiting forever. Other shards keep
/// delivering. A shard-0 panic unwinds on the caller's thread, so that
/// is the thread a panic hook names.
///
/// Result channels are unbounded so a worker can never block on a slow
/// collector while the submitter blocks on a full job queue (the classic
/// fan-out/fan-in deadlock); memory is bounded by the caller keeping
/// submissions and [`ShardPool::drain`] calls interleaved.
///
/// # Example
///
/// ```
/// use garnet_net::ShardPool;
///
/// let mut pool: ShardPool<u64, u64> = ShardPool::new(4, 16, |_shard| {
///     let mut seen = 0u64; // per-shard state
///     Box::new(move |x| {
///         seen += 1;
///         x * 10 + seen
///     })
/// });
/// for i in 0..8u64 {
///     pool.submit((i % 4) as usize, i);
/// }
/// let (out, failures) = pool.finish();
/// assert!(failures.is_empty(), "no worker died");
/// assert_eq!(out.len(), 8, "submission-order merge, nothing lost");
/// assert_eq!(out[0], 1, "job 0 was shard 0's first job");
/// assert_eq!(out[4], 42, "job 4 was shard 0's second job");
/// ```
pub struct ShardPool<I: Send + 'static, O: Send + 'static> {
    /// Shard 0's stage, run by the caller.
    local: Stage<I, O>,
    /// Shard 0's jobs, in submission order, until the caller runs them.
    local_queue: std::collections::VecDeque<(u64, I)>,
    /// Job queues of shards `1..`, indexed by shard − 1.
    jobs: Vec<SyncSender<JobBatch<I>>>,
    results: Receiver<ShardResult<O>>,
    /// Worker threads of shards `1..`, indexed by shard − 1.
    workers: Vec<std::thread::JoinHandle<()>>,
    next_seq: u64,
    collected: std::collections::BTreeMap<u64, O>,
    next_out: u64,
    /// Seqs submitted per shard and not yet returned (FIFO per shard):
    /// the set a panic takes down with it.
    in_flight: Vec<Vec<u64>>,
    /// Seqs that will never produce an output; the merge skips them.
    failed_seqs: std::collections::BTreeSet<u64>,
    poisoned: Vec<bool>,
    failures: Vec<ShardFailure>,
}

impl<I: Send + 'static, O: Send + 'static> ShardPool<I, O> {
    /// Builds `shards` shards (at least one) and spawns a worker for
    /// each but shard 0, which runs on the caller. `factory` is called
    /// once per shard, in shard order, to build that shard's stage
    /// function, which owns any per-shard state. `capacity` bounds each
    /// worker's job queue; [`ShardPool::submit`] blocks when the target
    /// worker is that far behind. Shard 0's queue holds what was
    /// submitted since the caller last collected.
    pub fn new<F>(shards: usize, capacity: usize, mut factory: F) -> Self
    where
        F: FnMut(usize) -> Stage<I, O>,
    {
        let shards = shards.max(1);
        let capacity = capacity.max(1);
        let (result_tx, results) = mpsc::channel::<ShardResult<O>>();
        let local = factory(0);
        let mut jobs = Vec::with_capacity(shards - 1);
        let mut workers = Vec::with_capacity(shards - 1);
        for shard in 1..shards {
            let (tx, rx) = mpsc::sync_channel::<JobBatch<I>>(capacity);
            jobs.push(tx);
            workers.push(Self::spawn_worker(shard, rx, result_tx.clone(), factory(shard)));
        }
        ShardPool {
            local,
            local_queue: std::collections::VecDeque::new(),
            jobs,
            results,
            workers,
            next_seq: 0,
            collected: std::collections::BTreeMap::new(),
            next_out: 0,
            in_flight: (0..shards).map(|_| Vec::new()).collect(),
            failed_seqs: std::collections::BTreeSet::new(),
            poisoned: vec![false; shards],
            failures: Vec::new(),
        }
    }

    fn spawn_worker(
        shard: usize,
        rx: Receiver<JobBatch<I>>,
        out: Sender<ShardResult<O>>,
        mut stage: Stage<I, O>,
    ) -> std::thread::JoinHandle<()> {
        std::thread::Builder::new()
            .name(format!("garnet-shard-{shard}"))
            .spawn(move || {
                while let Ok(batch) = rx.recv() {
                    let results = run_jobs(&mut stage, batch);
                    let poisoned = matches!(results.last(), Some((_, Err(_))));
                    if out.send((shard, results)).is_err() || poisoned {
                        return; // collector gone, or this shard just died
                    }
                }
            })
            .expect("spawn shard worker")
    }

    fn shard_count(&self) -> usize {
        self.poisoned.len()
    }

    /// Submits a job to `shard` (modulo the shard count), blocking while
    /// that worker's queue is full. Jobs submitted to the same shard are
    /// processed in submission order. A job submitted to a dead shard is
    /// not silently lost: it is recorded as a [`ShardFailure`] and the
    /// merge skips its slot. Returns the job's sequence number.
    pub fn submit(&mut self, shard: usize, job: I) -> u64 {
        self.submit_batch(shard, vec![job]).start
    }

    /// Submits a burst of jobs to `shard` as **one** hand-off, blocking
    /// while the worker's queue is full. The jobs take consecutive
    /// sequence numbers in order (the returned range), so the
    /// submission-order merge treats them exactly as if each had been
    /// [`ShardPool::submit`]ted individually — the batch only amortises
    /// the per-job rendezvous with the worker.
    pub fn submit_batch(&mut self, shard: usize, jobs: Vec<I>) -> std::ops::Range<u64> {
        self.absorb_ready();
        let idx = shard % self.shard_count();
        let first = self.next_seq;
        if jobs.is_empty() {
            return first..first;
        }
        self.next_seq += jobs.len() as u64;
        let seqs = first..self.next_seq;
        let sent = if self.poisoned[idx] {
            false // refused, as an exited worker's closed channel refuses
        } else if idx > 0 {
            self.jobs[idx - 1].send(seqs.clone().zip(jobs).collect()).is_ok()
        } else {
            self.local_queue.extend(seqs.clone().zip(jobs));
            true
        };
        if sent {
            self.in_flight[idx].extend(seqs.clone());
        } else {
            for seq in seqs.clone() {
                self.note_lost(idx, seq, "submitted to a poisoned shard".to_owned());
            }
        }
        seqs
    }

    fn note_lost(&mut self, shard: usize, seq: u64, reason: String) {
        self.poisoned[shard] = true;
        self.failed_seqs.insert(seq);
        self.failures.push(ShardFailure { shard, seq, reason });
    }

    /// Books one shard's finished jobs: outputs go to the merge; a
    /// panic's payload, and every job still in flight behind it on that
    /// shard, become [`ShardFailure`]s.
    fn absorb(&mut self, shard: usize, results: Vec<(u64, Result<O, String>)>) {
        for (seq, res) in results {
            if let Some(pos) = self.in_flight[shard].iter().position(|&s| s == seq) {
                self.in_flight[shard].remove(pos);
            }
            match res {
                Ok(o) => {
                    self.collected.insert(seq, o);
                }
                Err(reason) => {
                    // The stage stopped after this panic, taking every
                    // job still queued behind it on this shard.
                    let stranded = std::mem::take(&mut self.in_flight[shard]);
                    self.note_lost(shard, seq, reason);
                    for s in stranded {
                        self.note_lost(shard, s, "stranded behind a shard panic".to_owned());
                    }
                }
            }
        }
    }

    fn absorb_ready(&mut self) {
        while let Ok((shard, results)) = self.results.try_recv() {
            self.absorb(shard, results);
        }
    }

    /// Runs shard 0's queued jobs on the calling thread. A panic drops
    /// the rest of the queue, which [`ShardPool::absorb`] strands.
    fn run_local(&mut self) {
        if !self.local_queue.is_empty() {
            let results = run_jobs(&mut self.local, self.local_queue.drain(..));
            self.absorb(0, results);
        }
    }

    /// Returns the outputs that are ready *and* form a gap-free prefix of
    /// the submission order (sequence numbers lost to a shard failure
    /// are skipped, not waited on). Runs shard 0's queued jobs first.
    /// Outputs held back here are released by a later `drain` or by
    /// [`ShardPool::finish`].
    pub fn drain(&mut self) -> Vec<O> {
        self.run_local();
        self.absorb_ready();
        let mut out = Vec::new();
        loop {
            if let Some(o) = self.collected.remove(&self.next_out) {
                out.push(o);
            } else if !self.failed_seqs.remove(&self.next_out) {
                break;
            }
            self.next_out += 1;
        }
        out
    }

    /// Closes the job queues, runs shard 0's queued jobs, waits for
    /// every worker to finish, and returns all remaining outputs in
    /// submission order together with every recorded [`ShardFailure`],
    /// oldest first — a panicked shard neither hangs the join nor goes
    /// unaccounted.
    pub fn finish(mut self) -> (Vec<O>, Vec<ShardFailure>) {
        self.jobs.clear(); // drop senders: workers drain and exit
        self.run_local();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        self.absorb_ready();
        // Anything still in flight at this point can only be a job a
        // worker dropped on its way out; account for it.
        for shard in 0..self.in_flight.len() {
            for seq in std::mem::take(&mut self.in_flight[shard]) {
                self.failures.push(ShardFailure {
                    shard,
                    seq,
                    reason: "dropped at pool shutdown".to_owned(),
                });
            }
        }
        let collected = std::mem::take(&mut self.collected);
        (collected.into_values().collect(), std::mem::take(&mut self.failures))
    }
}

impl<I: Send + 'static, O: Send + 'static> fmt::Debug for ShardPool<I, O> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardPool")
            .field("shards", &self.shard_count())
            .field("submitted", &self.next_seq)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn shard_pool_merges_in_submission_order() {
        // Workers that sleep *inversely* to their shard index, so later
        // submissions finish first — the merge must still be in
        // submission order.
        let mut pool: ShardPool<u32, u32> = ShardPool::new(3, 8, |shard| {
            Box::new(move |x| {
                thread::sleep(std::time::Duration::from_micros((3 - shard as u64) * 200));
                x
            })
        });
        for i in 0..30u32 {
            pool.submit((i % 3) as usize, i);
        }
        let (out, failures) = pool.finish();
        assert_eq!(out, (0..30).collect::<Vec<u32>>());
        assert!(failures.is_empty());
    }

    #[test]
    fn shard_pool_batch_submission_matches_individual_submission() {
        // The same jobs through submit_batch must merge in the same
        // order and with the same per-shard state evolution as
        // one-at-a-time submission.
        let factory = |_shard: usize| -> Stage<u32, u64> {
            let mut n = 0u64;
            Box::new(move |x| {
                n += 1;
                u64::from(x) * 100 + n
            })
        };
        let mut single: ShardPool<u32, u64> = ShardPool::new(2, 8, factory);
        let mut batched: ShardPool<u32, u64> = ShardPool::new(2, 8, factory);
        for chunk in (0..24u32).collect::<Vec<_>>().chunks(6) {
            for &x in chunk {
                single.submit((x % 2) as usize, x);
            }
            // Mirror the interleaving per shard: evens to 0, odds to 1.
            for shard in 0..2u32 {
                let jobs: Vec<u32> = chunk.iter().copied().filter(|x| x % 2 == shard).collect();
                let seqs = batched.submit_batch(shard as usize, jobs);
                assert_eq!(seqs.end - seqs.start, 3);
            }
        }
        let (a, fa) = single.finish();
        let (b, fb) = batched.finish();
        assert!(fa.is_empty() && fb.is_empty());
        // Per-shard sequences are identical; the global interleave
        // differs only by the within-chunk submission order we chose.
        let per_shard = |v: &[u64], shard: u64| -> Vec<u64> {
            v.iter().copied().filter(|o| (o / 100) % 2 == shard).collect()
        };
        for shard in 0..2u64 {
            assert_eq!(per_shard(&a, shard), per_shard(&b, shard), "shard {shard}");
        }
    }

    #[test]
    fn shard_pool_empty_batch_is_a_no_op() {
        let mut pool: ShardPool<u32, u32> = ShardPool::new(1, 4, |_| Box::new(|x| x));
        let seqs = pool.submit_batch(0, Vec::new());
        assert!(seqs.is_empty());
        pool.submit(0, 7);
        let (out, failures) = pool.finish();
        assert_eq!(out, vec![7], "empty batch consumed no sequence number");
        assert!(failures.is_empty());
    }

    #[test]
    fn shard_pool_state_is_per_shard() {
        let mut pool: ShardPool<(), u64> = ShardPool::new(2, 4, |_| {
            let mut n = 0u64;
            Box::new(move |()| {
                n += 1;
                n
            })
        });
        for i in 0..6 {
            pool.submit(i % 2, ());
        }
        // Each shard saw 3 jobs: counters run 1..=3 independently.
        assert_eq!(pool.finish().0, vec![1, 1, 2, 2, 3, 3]);
    }

    #[test]
    fn shard_pool_drain_releases_gap_free_prefix() {
        let mut pool: ShardPool<u32, u32> = ShardPool::new(2, 4, |_| Box::new(|x| x));
        for i in 0..4u32 {
            pool.submit(i as usize % 2, i);
        }
        let mut got = Vec::new();
        while got.len() < 4 {
            got.extend(pool.drain());
        }
        assert_eq!(got, vec![0, 1, 2, 3]);
        assert!(pool.finish().0.is_empty());
    }

    /// Runs `f` with the default panic hook silenced, so tests that
    /// deliberately panic a shard worker don't spray backtraces.
    fn quiet_panics<R>(f: impl FnOnce() -> R) -> R {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let r = f();
        std::panic::set_hook(prev);
        r
    }

    #[test]
    fn shard_pool_survives_worker_panic() {
        quiet_panics(|| {
            let mut pool: ShardPool<u32, u32> = ShardPool::new(2, 8, |_| {
                Box::new(|x| {
                    if x == 13 {
                        panic!("unlucky job");
                    }
                    x
                })
            });
            // Shard 1 gets the poison pill between two good jobs.
            pool.submit(0, 1);
            pool.submit(1, 13);
            pool.submit(0, 2);
            let mut got = Vec::new();
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
            while got.len() < 2 {
                got.extend(pool.drain());
                assert!(std::time::Instant::now() < deadline, "merge hung on the lost seq");
            }
            assert_eq!(got, vec![1, 2], "healthy shard kept delivering across the gap");
            let (rest, failures) = pool.finish();
            assert!(rest.is_empty());
            assert_eq!(
                failures,
                vec![ShardFailure { shard: 1, seq: 1, reason: "unlucky job".into() }]
            );
        });
    }

    #[test]
    fn shard_zero_runs_on_the_draining_thread_and_the_rest_on_workers() {
        // Each stage reports the thread it ran on: shard 0 the caller,
        // shards 1 and 2 their own named workers — three shards, two
        // threads started.
        let mut pool: ShardPool<(), (Option<String>, thread::ThreadId)> =
            ShardPool::new(3, 4, |_| {
                Box::new(|()| (thread::current().name().map(str::to_owned), thread::current().id()))
            });
        for _ in 0..4 {
            for shard in [2, 1, 0] {
                pool.submit(shard, ());
            }
            let mut got = Vec::new();
            while got.len() < 3 {
                got.extend(pool.drain());
            }
            let caller = thread::current().id();
            assert_eq!(got[2].1, caller, "shard 0 ran on the thread that drained");
            assert_eq!(got[0].0.as_deref(), Some("garnet-shard-2"));
            assert_eq!(got[1].0.as_deref(), Some("garnet-shard-1"));
            assert!(got[0].1 != caller && got[1].1 != caller && got[0].1 != got[1].1);
        }
        assert!(pool.finish().1.is_empty());
    }

    #[test]
    fn shard_zero_panic_is_caught_on_the_caller_and_its_losses_reported() {
        let panicked_on = std::sync::Arc::new(std::sync::Mutex::new(None));
        quiet_panics(|| {
            let seen = std::sync::Arc::clone(&panicked_on);
            let mut pool: ShardPool<u32, u32> = ShardPool::new(2, 8, move |_| {
                let seen = std::sync::Arc::clone(&seen);
                let mut count = 0u32;
                Box::new(move |x| {
                    if x == 99 {
                        *seen.lock().unwrap() = Some(thread::current().id());
                        panic!("boom");
                    }
                    count += 1;
                    count * 100 + x
                })
            });
            pool.submit(0, 1);
            pool.submit(1, 5);
            pool.submit(0, 99);
            pool.submit(0, 2); // stranded behind the panic
            let mut got = Vec::new();
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
            while got.len() < 2 {
                got.extend(pool.drain()); // the panic unwinds in here
                assert!(std::time::Instant::now() < deadline, "merge hung on the lost seqs");
            }
            assert_eq!(*panicked_on.lock().unwrap(), Some(thread::current().id()));
            assert_eq!(got, vec![101, 105], "the worker shard kept delivering");
            // The poisoned shard refuses work, loudly; the worker shard
            // carries on with its own state.
            assert_eq!(pool.submit(0, 3), 4);
            pool.submit(1, 6);
            let (rest, failures) = pool.finish();
            assert_eq!(rest, vec![206]);
            let reasons: Vec<(usize, u64, String)> =
                failures.into_iter().map(|f| (f.shard, f.seq, f.reason)).collect();
            assert_eq!(
                reasons,
                vec![
                    (0, 2, "boom".to_owned()),
                    (0, 3, "stranded behind a shard panic".to_owned()),
                    (0, 4, "submitted to a poisoned shard".to_owned()),
                ]
            );
        });
    }

    #[test]
    fn caller_run_shard_merges_in_submission_order_beside_sleepy_workers() {
        // Workers sleep in proportion to their index and shard 0 not at
        // all, so the caller's outputs are ready first and must wait in
        // the merge behind earlier worker jobs.
        let mut pool: ShardPool<u32, u32> = ShardPool::new(3, 8, |shard| {
            Box::new(move |x| {
                thread::sleep(std::time::Duration::from_micros(shard as u64 * 300));
                x
            })
        });
        let mut got = Vec::new();
        let mut next = 0u32;
        for round in 0..6 {
            for shard in [2usize, 0, 1, 0] {
                let burst: Vec<u32> = (next..next + 1 + round % 3).collect();
                next += burst.len() as u32;
                pool.submit_batch(shard, burst);
            }
            got.extend(pool.drain());
        }
        let (rest, failures) = pool.finish();
        got.extend(rest);
        assert_eq!(got, (0..next).collect::<Vec<u32>>());
        assert!(failures.is_empty());
    }
}
