//! The supervised shard pool the middleware's filtering shards run on
//! under `DriverKind::Threaded`: one worker thread per shard, fed over
//! bounded `std::sync::mpsc` channels, with a submission-order merge so
//! the output never depends on thread scheduling. Experiments run on the
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

/// Automatic shard-restart policy: a poisoned shard is rebuilt from the
/// retained factory as long as the shard has been restarted fewer than
/// `max_restarts` times inside the sliding `window`. Beyond that budget
/// the shard stays poisoned (a crash-looping stage should surface, not
/// flap), and restart returns to the caller via
/// [`ShardPool::restart_shard`].
///
/// Restarts are separated by **exponential backoff**: the n-th restart
/// inside the window waits `base_backoff * 2^n` (capped at
/// `backoff_cap`) after the worker died before rebuilding it. Without
/// backoff a deterministic poison pill burns the whole `max_restarts`
/// budget in microseconds; with it, the budget spans real time and a
/// transient fault gets room to clear.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SupervisionConfig {
    /// Restarts allowed per shard inside the window (0 disables
    /// automatic restart).
    pub max_restarts: u32,
    /// Sliding wall-clock window the budget applies to.
    pub window: std::time::Duration,
    /// Delay before the first restart in a window; doubles per restart.
    /// `Duration::ZERO` restarts as soon as the poisoning is observed.
    pub base_backoff: std::time::Duration,
    /// Upper bound on the doubled backoff delay.
    pub backoff_cap: std::time::Duration,
}

impl Default for SupervisionConfig {
    /// Three restarts per shard per minute, 10 ms first backoff capped
    /// at 5 s — generous enough for a transient poison pill, tight
    /// enough that a deterministic crash loop parks the shard within
    /// seconds instead of exhausting its budget in microseconds.
    fn default() -> Self {
        SupervisionConfig {
            max_restarts: 3,
            window: std::time::Duration::from_secs(60),
            base_backoff: std::time::Duration::from_millis(10),
            backoff_cap: std::time::Duration::from_secs(5),
        }
    }
}

impl SupervisionConfig {
    /// A policy that restarts immediately (no backoff) — the pre-backoff
    /// behaviour, useful in tests that crash shards deterministically.
    pub fn immediate(max_restarts: u32, window: std::time::Duration) -> Self {
        SupervisionConfig {
            max_restarts,
            window,
            base_backoff: std::time::Duration::ZERO,
            backoff_cap: std::time::Duration::ZERO,
        }
    }

    /// The backoff delay applied before the restart that follows
    /// `prior_restarts` earlier restarts inside the current window.
    pub fn restart_delay(&self, prior_restarts: u32) -> std::time::Duration {
        let factor = 1u32 << prior_restarts.min(20);
        self.base_backoff.saturating_mul(factor).min(self.backoff_cap)
    }
}

/// The scheduling class a submission carries through a pool or edge —
/// the QoS layer's **Control > Actuation > Data** tiers, tagged at the
/// channel boundary so per-class flow through every stage is
/// observable. The tag is accounting, not routing: submission order
/// and the deterministic merge are class-blind (priority is enforced
/// upstream, at the facade scheduler).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EdgeClass {
    /// Graph-keeping jobs (reorder flushes, bookkeeping events).
    Control,
    /// Actuation-chain jobs.
    Actuation,
    /// Data-plane jobs (frames, filtered deliveries) — the default for
    /// untagged submissions.
    Data,
}

impl EdgeClass {
    /// Dense index for per-class arrays (Control, Actuation, Data).
    pub fn index(self) -> usize {
        match self {
            EdgeClass::Control => 0,
            EdgeClass::Actuation => 1,
            EdgeClass::Data => 2,
        }
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

/// One shard's stage function: owns the shard's state, runs on the
/// shard's worker thread.
pub type Stage<I, O> = Box<dyn FnMut(I) -> O + Send>;
type StageFactory<I, O> = Box<dyn FnMut(usize) -> Stage<I, O>>;
/// One result hand-off from a shard worker: every job of one
/// [`JobBatch`] the worker finished, in batch order. Mirroring the job
/// channel's batching on the way back keeps the result channel's
/// send/recv cost per *batch*, not per job.
type ShardResult<O> = (usize, Vec<(u64, Result<O, String>)>);
/// One channel hand-off to a shard worker: a burst of sequenced jobs.
/// Single submissions ride as one-element batches, so the bounded job
/// queue counts hand-offs, and batch submission amortises the channel
/// rendezvous over the burst.
type JobBatch<I> = Vec<(u64, I)>;

/// A fixed pool of shard workers with a deterministic output merge and
/// worker-failure supervision.
///
/// Each shard runs one stateful stage function on its own thread; jobs
/// are tagged with a global submission sequence number and the pool
/// reassembles outputs in exactly that order, so the result stream is
/// **bit-identical regardless of thread scheduling**. This is the
/// threaded driver of the middleware's sharded ingest stage: the caller
/// partitions work (e.g. by sensor id) and the pool guarantees that
/// whatever interleaving the OS produces, downstream observers see the
/// submission order.
///
/// A panicking stage does not wedge the pool: the panic is caught, the
/// shard is marked **poisoned** (its state may be corrupt), and the
/// panicked job — plus anything queued behind it on that shard — is
/// surfaced as a typed [`ShardFailure`] via [`ShardPool::take_failures`]
/// while the merge skips the lost sequence numbers instead of waiting
/// forever. Other shards keep delivering; a poisoned shard can be
/// rebuilt with fresh state via [`ShardPool::restart_shard`].
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
    jobs: Vec<SyncSender<JobBatch<I>>>,
    results: Receiver<ShardResult<O>>,
    result_tx: Sender<ShardResult<O>>,
    workers: Vec<Option<std::thread::JoinHandle<()>>>,
    factory: StageFactory<I, O>,
    capacity: usize,
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
    supervision: Option<SupervisionConfig>,
    /// Recent restart instants per shard, pruned to the sliding window.
    restart_times: Vec<std::collections::VecDeque<std::time::Instant>>,
    /// When each shard's poisoning was first observed (backoff clock).
    poisoned_at: Vec<Option<std::time::Instant>>,
    restarts: u64,
    /// Jobs accepted per [`EdgeClass`].
    class_submits: [u64; 3],
}

impl<I: Send + 'static, O: Send + 'static> ShardPool<I, O> {
    /// Spawns `shards` workers (at least one). `factory` is called once
    /// per shard to build that shard's stage function, which owns any
    /// per-shard state; the factory is retained so
    /// [`ShardPool::restart_shard`] can rebuild a poisoned shard with
    /// fresh state. `capacity` bounds each shard's job queue;
    /// [`ShardPool::submit`] blocks when the target shard is that far
    /// behind.
    pub fn new<F>(shards: usize, capacity: usize, factory: F) -> Self
    where
        F: FnMut(usize) -> Stage<I, O> + 'static,
    {
        Self::with_supervision(shards, capacity, None, factory)
    }

    /// [`ShardPool::new`] with an automatic restart policy: with a
    /// [`SupervisionConfig`], a poisoned shard is rebuilt from the
    /// factory on the next pool interaction instead of waiting for the
    /// caller to notice and call [`ShardPool::restart_shard`]. Jobs
    /// in flight on the dying shard are still surfaced as
    /// [`ShardFailure`]s — supervision bounds the blast radius, it does
    /// not hide the blast.
    pub fn with_supervision<F>(
        shards: usize,
        capacity: usize,
        supervision: Option<SupervisionConfig>,
        mut factory: F,
    ) -> Self
    where
        F: FnMut(usize) -> Stage<I, O> + 'static,
    {
        let shards = shards.max(1);
        let capacity = capacity.max(1);
        let (result_tx, results) = mpsc::channel::<ShardResult<O>>();
        let mut jobs = Vec::with_capacity(shards);
        let mut workers = Vec::with_capacity(shards);
        for shard in 0..shards {
            let (tx, rx) = mpsc::sync_channel::<JobBatch<I>>(capacity);
            jobs.push(tx);
            workers.push(Some(Self::spawn_worker(shard, rx, result_tx.clone(), factory(shard))));
        }
        ShardPool {
            jobs,
            results,
            result_tx,
            workers,
            factory: Box::new(factory),
            capacity,
            next_seq: 0,
            collected: std::collections::BTreeMap::new(),
            next_out: 0,
            in_flight: (0..shards).map(|_| Vec::new()).collect(),
            failed_seqs: std::collections::BTreeSet::new(),
            poisoned: vec![false; shards],
            failures: Vec::new(),
            supervision,
            restart_times: (0..shards).map(|_| std::collections::VecDeque::new()).collect(),
            poisoned_at: vec![None; shards],
            restarts: 0,
            class_submits: [0; 3],
        }
    }

    /// Applies the automatic restart policy to every poisoned shard.
    /// Called from the public entry points (never from inside
    /// `absorb_ready`, which [`ShardPool::restart_shard`] itself calls).
    fn supervise(&mut self) {
        let Some(cfg) = self.supervision else { return };
        if cfg.max_restarts == 0 {
            return;
        }
        for shard in 0..self.poisoned.len() {
            if !self.poisoned[shard] {
                continue;
            }
            let now = std::time::Instant::now();
            while self.restart_times[shard]
                .front()
                .is_some_and(|&t| now.duration_since(t) > cfg.window)
            {
                self.restart_times[shard].pop_front();
            }
            if self.restart_times[shard].len() >= cfg.max_restarts as usize {
                continue; // budget exhausted: stay poisoned, stay loud
            }
            // Exponential backoff from the moment the poisoning was
            // observed: the shard stays down until the delay elapses.
            let since_death = *self.poisoned_at[shard].get_or_insert(now);
            let delay = cfg.restart_delay(self.restart_times[shard].len() as u32);
            if now.duration_since(since_death) < delay {
                continue; // too soon: let the backoff clock run
            }
            self.restart_times[shard].push_back(now);
            self.restarts += 1;
            self.restart_shard(shard);
        }
    }

    /// Shard restarts performed by the automatic supervision policy
    /// (manual [`ShardPool::restart_shard`] calls are not counted).
    pub fn restart_count(&self) -> u64 {
        self.restarts
    }

    /// Jobs accepted per [`EdgeClass`], indexed by [`EdgeClass::index`]
    /// (untagged submissions count as [`EdgeClass::Data`]).
    pub fn class_submits(&self) -> [u64; 3] {
        self.class_submits
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
                    let mut results: Vec<(u64, Result<O, String>)> =
                        Vec::with_capacity(batch.len());
                    let mut poisoned = false;
                    for (seq, job) in batch {
                        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| stage(job)))
                        {
                            Ok(o) => results.push((seq, Ok(o))),
                            Err(payload) => {
                                // The stage's state may be half-mutated:
                                // report the loss and exit so the shard
                                // is poisoned rather than corrupt (jobs
                                // later in this batch strand with the
                                // queued ones).
                                results.push((seq, Err(panic_reason(payload.as_ref()))));
                                poisoned = true;
                                break;
                            }
                        }
                    }
                    if out.send((shard, results)).is_err() || poisoned {
                        return; // collector gone, or this shard just died
                    }
                }
            })
            .expect("spawn shard worker")
    }

    /// Number of shard workers.
    pub fn shard_count(&self) -> usize {
        self.jobs.len()
    }

    /// Submits a job to `shard` (modulo the shard count), blocking while
    /// that shard's queue is full. Jobs submitted to the same shard are
    /// processed in submission order. A job submitted to a dead shard is
    /// not silently lost: it is recorded as a [`ShardFailure`] and the
    /// merge skips its slot. Returns the job's sequence number.
    pub fn submit(&mut self, shard: usize, job: I) -> u64 {
        self.submit_tagged(shard, job, EdgeClass::Data)
    }

    /// [`ShardPool::submit`] carrying an explicit [`EdgeClass`] tag,
    /// counted in [`ShardPool::class_submits`].
    pub fn submit_tagged(&mut self, shard: usize, job: I, class: EdgeClass) -> u64 {
        self.class_submits[class.index()] += 1;
        self.absorb_ready();
        self.supervise();
        let idx = shard % self.jobs.len();
        let seq = self.next_seq;
        self.next_seq += 1;
        if self.jobs[idx].send(vec![(seq, job)]).is_ok() {
            self.in_flight[idx].push(seq);
        } else {
            self.note_lost(idx, seq, "submitted to a poisoned shard".to_owned());
        }
        seq
    }

    /// Submits a burst of jobs to `shard` as **one** channel hand-off,
    /// blocking while the shard's queue is full. The jobs take
    /// consecutive sequence numbers in order (the returned range), so
    /// the submission-order merge treats them exactly as if each had
    /// been [`ShardPool::submit`]ted individually — the batch only
    /// amortises the per-job rendezvous with the worker.
    pub fn submit_batch(&mut self, shard: usize, jobs: Vec<I>) -> std::ops::Range<u64> {
        self.submit_batch_tagged(shard, jobs, EdgeClass::Data)
    }

    /// [`ShardPool::submit_batch`] carrying an explicit [`EdgeClass`]
    /// tag for the whole burst.
    pub fn submit_batch_tagged(
        &mut self,
        shard: usize,
        jobs: Vec<I>,
        class: EdgeClass,
    ) -> std::ops::Range<u64> {
        self.class_submits[class.index()] += jobs.len() as u64;
        self.absorb_ready();
        self.supervise();
        let idx = shard % self.jobs.len();
        let first = self.next_seq;
        if jobs.is_empty() {
            return first..first;
        }
        self.next_seq += jobs.len() as u64;
        let batch: JobBatch<I> = (first..self.next_seq).zip(jobs).collect();
        if self.jobs[idx].send(batch).is_ok() {
            self.in_flight[idx].extend(first..self.next_seq);
        } else {
            for seq in first..self.next_seq {
                self.note_lost(idx, seq, "submitted to a poisoned shard".to_owned());
            }
        }
        first..self.next_seq
    }

    fn note_lost(&mut self, shard: usize, seq: u64, reason: String) {
        if !self.poisoned[shard] {
            self.poisoned_at[shard] = Some(std::time::Instant::now());
        }
        self.poisoned[shard] = true;
        self.failed_seqs.insert(seq);
        self.failures.push(ShardFailure { shard, seq, reason });
    }

    fn absorb_ready(&mut self) {
        while let Ok((shard, results)) = self.results.try_recv() {
            for (seq, res) in results {
                if let Some(pos) = self.in_flight[shard].iter().position(|&s| s == seq) {
                    self.in_flight[shard].remove(pos);
                }
                match res {
                    Ok(o) => {
                        self.collected.insert(seq, o);
                    }
                    Err(reason) => {
                        // The worker exited after this panic, taking
                        // every job still queued behind it on this
                        // shard.
                        let stranded = std::mem::take(&mut self.in_flight[shard]);
                        self.note_lost(shard, seq, reason);
                        for s in stranded {
                            self.note_lost(shard, s, "stranded behind a shard panic".to_owned());
                        }
                    }
                }
            }
        }
    }

    /// Returns the outputs that are ready *and* form a gap-free prefix of
    /// the submission order (sequence numbers lost to a shard failure
    /// are skipped, not waited on). Outputs held back here are released
    /// by a later `drain` or by [`ShardPool::finish`].
    pub fn drain(&mut self) -> Vec<O> {
        self.absorb_ready();
        self.supervise();
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

    /// The submission sequence number up to which outputs have been
    /// merged and released (exclusive): everything below it is fully
    /// accounted for — delivered, or recorded as a [`ShardFailure`].
    /// Callers keeping per-job side tables can prune below this mark.
    pub fn merged_watermark(&self) -> u64 {
        self.next_out
    }

    /// Takes the failures recorded so far (panicked jobs, jobs stranded
    /// behind a panic, jobs submitted to a dead shard), oldest first.
    pub fn take_failures(&mut self) -> Vec<ShardFailure> {
        self.absorb_ready();
        std::mem::take(&mut self.failures)
    }

    /// Shards whose worker has died and not been restarted.
    pub fn poisoned_shards(&mut self) -> Vec<usize> {
        self.absorb_ready();
        (0..self.poisoned.len()).filter(|&s| self.poisoned[s]).collect()
    }

    /// Tears down `shard`'s worker (dead or alive) and rebuilds it with
    /// fresh state from the retained factory. Jobs still unaccounted
    /// for on that shard are recorded as [`ShardFailure`]s — a restart
    /// never silently loses work it can't finish.
    pub fn restart_shard(&mut self, shard: usize) {
        let idx = shard % self.jobs.len();
        let (tx, rx) = mpsc::sync_channel::<JobBatch<I>>(self.capacity);
        // Dropping the old sender makes a live worker drain its queue
        // and exit; a panicked worker is already gone.
        drop(std::mem::replace(&mut self.jobs[idx], tx));
        if let Some(w) = self.workers[idx].take() {
            let _ = w.join();
        }
        self.absorb_ready();
        for seq in std::mem::take(&mut self.in_flight[idx]) {
            self.failed_seqs.insert(seq);
            self.failures.push(ShardFailure {
                shard: idx,
                seq,
                reason: "dropped during shard restart".to_owned(),
            });
        }
        self.workers[idx] =
            Some(Self::spawn_worker(idx, rx, self.result_tx.clone(), (self.factory)(idx)));
        self.poisoned[idx] = false;
        self.poisoned_at[idx] = None;
    }

    /// Closes the job queues, waits for every worker to finish, and
    /// returns all remaining outputs in submission order together with
    /// every recorded [`ShardFailure`] — a panicked shard neither hangs
    /// the join nor goes unaccounted.
    pub fn finish(mut self) -> (Vec<O>, Vec<ShardFailure>) {
        self.jobs.clear(); // drop senders: workers drain and exit
        for w in self.workers.drain(..).flatten() {
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
            .field("shards", &self.jobs.len())
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
            let failures = pool.take_failures();
            assert_eq!(failures.len(), 1);
            assert_eq!(failures[0].shard, 1);
            assert_eq!(failures[0].seq, 1);
            assert_eq!(failures[0].reason, "unlucky job");
            assert_eq!(pool.poisoned_shards(), vec![1]);
            let (rest, more) = pool.finish();
            assert!(rest.is_empty() && more.is_empty());
        });
    }

    #[test]
    fn restart_revives_a_poisoned_shard_with_fresh_state() {
        quiet_panics(|| {
            let mut pool: ShardPool<u32, u32> = ShardPool::new(1, 8, |_| {
                let mut count = 0u32;
                Box::new(move |x| {
                    if x == 99 {
                        panic!("boom");
                    }
                    count += 1;
                    count * 100 + x
                })
            });
            pool.submit(0, 1);
            pool.submit(0, 99);
            while pool.poisoned_shards().is_empty() {
                std::thread::yield_now();
            }
            pool.restart_shard(0);
            assert!(pool.poisoned_shards().is_empty());
            pool.submit(0, 2);
            let (out, failures) = pool.finish();
            // The restarted stage counts from zero again.
            assert_eq!(out, vec![101, 102]);
            assert_eq!(failures.len(), 1);
            assert_eq!(failures[0].reason, "boom");
        });
    }

    #[test]
    fn supervision_restarts_a_poisoned_shard_automatically() {
        quiet_panics(|| {
            let mut pool: ShardPool<u32, u32> =
                ShardPool::with_supervision(1, 8, Some(SupervisionConfig::default()), |_| {
                    Box::new(|x| {
                        if x == 99 {
                            panic!("boom");
                        }
                        x + 1
                    })
                });
            pool.submit(0, 1);
            pool.submit(0, 99);
            // Wait for the panic to land, then keep interacting until
            // the supervised restart fires (the default policy backs
            // off 10 ms after the worker's death before rebuilding).
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
            while pool.take_failures().is_empty() {
                std::thread::yield_now();
                assert!(std::time::Instant::now() < deadline, "panic never surfaced");
            }
            let mut got = Vec::new();
            while !pool.poisoned_shards().is_empty() {
                got.extend(pool.drain()); // supervise() runs here
                std::thread::yield_now();
                assert!(std::time::Instant::now() < deadline, "shard never restarted");
            }
            assert_eq!(pool.restart_count(), 1);
            pool.submit(0, 2);
            let (rest, failures) = pool.finish();
            got.extend(rest);
            assert_eq!(got, vec![2, 3]);
            assert!(failures.is_empty(), "failure was already taken");
        });
    }

    #[test]
    fn supervision_budget_exhausts_and_shard_stays_poisoned() {
        quiet_panics(|| {
            let cfg = SupervisionConfig::immediate(1, std::time::Duration::from_secs(3600));
            let mut pool: ShardPool<u32, u32> =
                ShardPool::with_supervision(1, 8, Some(cfg), |_| {
                    Box::new(|x| {
                        if x == 99 {
                            panic!("boom");
                        }
                        x
                    })
                });
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
            let crash = |pool: &mut ShardPool<u32, u32>| {
                pool.submit(0, 99);
                while pool.poisoned_shards().is_empty() {
                    std::thread::yield_now();
                    assert!(std::time::Instant::now() < deadline, "panic never surfaced");
                }
            };
            crash(&mut pool);
            pool.submit(0, 1); // first crash: restarted under budget
            assert_eq!(pool.restart_count(), 1);
            crash(&mut pool);
            pool.drain(); // second crash: budget spent, stays poisoned
            assert_eq!(pool.restart_count(), 1);
            assert_eq!(pool.poisoned_shards(), vec![0]);
        });
    }

    #[test]
    fn supervision_backoff_delays_restarts_and_doubles() {
        quiet_panics(|| {
            let cfg = SupervisionConfig {
                max_restarts: 3,
                window: std::time::Duration::from_secs(3600),
                base_backoff: std::time::Duration::from_millis(100),
                backoff_cap: std::time::Duration::from_secs(5),
            };
            let mut pool: ShardPool<u32, u32> =
                ShardPool::with_supervision(1, 8, Some(cfg), |_| {
                    Box::new(|x| {
                        if x == 99 {
                            panic!("boom");
                        }
                        x
                    })
                });
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
            let crash = |pool: &mut ShardPool<u32, u32>| {
                pool.submit(0, 99);
                while pool.poisoned_shards().is_empty() {
                    std::thread::yield_now();
                    assert!(std::time::Instant::now() < deadline, "panic never surfaced");
                }
            };

            // The backoff clock starts when the death is observed, so
            // each restart lands no sooner than its delay after the
            // crash began — and the delay doubles per restart in the
            // window.
            let first_crash = std::time::Instant::now();
            crash(&mut pool);
            // Interacting right after the death must NOT restart: the
            // pre-backoff behaviour burned the whole budget here.
            pool.drain();
            assert_eq!(pool.restart_count(), 0, "restart fired before the backoff elapsed");
            while pool.restart_count() == 0 {
                pool.drain();
                std::thread::yield_now();
                assert!(std::time::Instant::now() < deadline, "first restart never fired");
            }
            assert!(first_crash.elapsed() >= cfg.restart_delay(0), "first restart beat 100 ms");

            let second_crash = std::time::Instant::now();
            crash(&mut pool);
            pool.drain();
            assert_eq!(pool.restart_count(), 1, "second restart skipped its longer backoff");
            while pool.restart_count() == 1 {
                pool.drain();
                std::thread::yield_now();
                assert!(std::time::Instant::now() < deadline, "second restart never fired");
            }
            assert!(second_crash.elapsed() >= cfg.restart_delay(1), "second restart beat 200 ms");
            let _ = pool.take_failures();
            drop(pool.finish());
        });
    }

    #[test]
    fn restart_delay_doubles_and_caps() {
        let cfg = SupervisionConfig {
            max_restarts: 10,
            window: std::time::Duration::from_secs(3600),
            base_backoff: std::time::Duration::from_millis(10),
            backoff_cap: std::time::Duration::from_millis(45),
        };
        let ms = |n: u64| std::time::Duration::from_millis(n);
        assert_eq!(cfg.restart_delay(0), ms(10));
        assert_eq!(cfg.restart_delay(1), ms(20));
        assert_eq!(cfg.restart_delay(2), ms(40));
        assert_eq!(cfg.restart_delay(3), ms(45), "capped");
        assert_eq!(cfg.restart_delay(63), ms(45), "huge exponents stay capped");
        assert_eq!(SupervisionConfig::immediate(3, ms(1000)).restart_delay(5), ms(0));
    }
}
