//! The untraced run: set-up (several times), warm-up, the timed
//! slices, shutdown, and the correctness check against the
//! generator's bookkeeping.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use garnet_core::PriorityClass;
use garnet_simkit::SimTime;
use garnet_store::{FileStore, FrameArchive};

use crate::gen::Generator;
use crate::rig::Rig;
use crate::stats::{self, Summary};
use crate::workload::Spec;

/// How a run is sized.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Plan {
    /// Generator seed.
    pub seed: u64,
    /// Wall-clock budget of the timed slices (ignored by `quick`).
    pub seconds: f64,
    /// 1/50 of the frames, one slice on each of two set-ups: a
    /// correctness pass, not a measurement.
    pub quick: bool,
}

impl Plan {
    /// Timed slices each stretch measures at least, however slow the
    /// host.
    pub const MIN_SLICES: usize = 4;

    /// Offered frames per timed slice.
    pub fn slice_frames(&self, spec: &Spec) -> u64 {
        self.scaled(spec, spec.slice_frames)
    }

    /// Offered frames of warm-up.
    pub fn warmup_frames(&self, spec: &Spec) -> u64 {
        self.scaled(spec, spec.warmup_frames)
    }

    /// Offered frames of a fixed-length facade replay in the traced
    /// run: whole slices, about 400 000 frames — or, open loop, a second
    /// of schedule.
    pub fn replay_frames(&self, spec: &Spec) -> u64 {
        let aim = spec.period_us.map_or(400_000, |p| 1_000_000 / p * spec.burst as u64);
        let slice = self.slice_frames(spec);
        self.scaled(spec, aim).div_ceil(slice) * slice
    }

    fn scaled(&self, spec: &Spec, frames: u64) -> u64 {
        if self.quick {
            (frames / 50).div_ceil(spec.burst as u64) * spec.burst as u64
        } else {
            frames
        }
    }

    /// Set-ups — and measured stretches — per run; medians are reported.
    pub fn setups(&self) -> usize {
        if self.quick {
            2
        } else {
            5
        }
    }
}

/// A scratch directory beside the executable, removed on drop — on
/// success and on failure alike.
#[derive(Debug)]
pub struct Scratch(PathBuf);

impl Scratch {
    /// Creates `<exe dir>/perf-scratch/<pid>-<label>`.
    pub fn create(label: &str) -> std::io::Result<Scratch> {
        let exe = std::env::current_exe()?;
        let dir = exe
            .parent()
            .unwrap_or(Path::new("."))
            .join("perf-scratch")
            .join(format!("{}-{label}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch(dir))
    }

    /// A fresh, empty subdirectory.
    pub fn sub(&self, name: &str) -> std::io::Result<PathBuf> {
        let dir = self.0.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // The shared parent goes too once the last run has left it.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Latency percentiles from the probe consumer's samples.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Latency {
    /// Samples.
    pub n: usize,
    /// Median (µs).
    pub p50_us: f64,
    /// 90th percentile (µs).
    pub p90_us: f64,
    /// The tail percentile reported: p99 when at least ten samples lie
    /// beyond it, else the highest percentile that qualifies (the
    /// maximum when none does).
    pub tail_percentile: f64,
    /// Its value (µs).
    pub tail_us: f64,
}

impl Latency {
    /// Summarises nanosecond samples.
    pub fn of(samples_ns: &[u64]) -> Latency {
        if samples_ns.is_empty() {
            return Latency { n: 0, p50_us: 0.0, p90_us: 0.0, tail_percentile: 0.0, tail_us: 0.0 };
        }
        let sorted = stats::sorted(samples_ns.iter().map(|&ns| ns as f64 / 1e3).collect());
        let (tail_percentile, tail_us) = stats::highest_supported_percentile(&sorted, 99.0)
            .unwrap_or((100.0, sorted[sorted.len() - 1]));
        Latency {
            n: sorted.len(),
            p50_us: stats::quantile_sorted(&sorted, 0.5),
            p90_us: stats::quantile_sorted(&sorted, 0.9),
            tail_percentile,
            tail_us,
        }
    }
}

/// What went wrong, in operations, with one line per kind.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Verdict {
    /// Operations whose outcome differs from the generator's books.
    pub failed: u64,
    /// One line per discrepancy kind.
    pub notes: Vec<String>,
}

impl Verdict {
    /// Adds another check's findings.
    pub fn absorb(&mut self, other: Verdict) {
        self.failed += other.failed;
        self.notes.extend(other.notes);
    }

    fn charge(&mut self, units: u64, note: String) {
        if units > 0 {
            self.failed += units;
            self.notes.push(note);
        }
    }
}

/// The measured run's results. Every per-slice figure is summarised
/// over all slices of all stretches; the metric is the median.
#[derive(Clone, Debug)]
pub struct EndToEnd {
    /// Frames per wall-clock second inside program calls, per slice.
    pub frames_per_s: Summary,
    /// Each stretch's median slice (frames per second): how far fresh
    /// facades differ, printed beside the run's figure.
    pub stretch_frames_per_s: Vec<f64>,
    /// Delivery latency at the probe consumer: each slice's median (µs).
    pub latency_p50_us: Summary,
    /// Each slice's 90th percentile (µs) — like the tail below,
    /// printed, not gated: on this host the tails measure the host.
    pub latency_p90_us: Summary,
    /// Each slice's tail percentile (µs).
    pub latency_tail_us: Summary,
    /// Which percentile the tail is: 99 unless a slice had too few
    /// samples to leave ten beyond it (then the highest that does).
    pub tail_percentile: f64,
    /// Latency samples over all slices.
    pub latency_samples: usize,
    /// `VmHWM` when the first stretch's slices ended (MB).
    pub peak_rss_mb: f64,
    /// Set-up time (s), per repetition.
    pub setup_s: Summary,
    /// Frames offered in the timed slices.
    pub attempted: u64,
    /// The correctness verdict.
    pub verdict: Verdict,
    /// Generator cost (ns per offered frame), outside the timed region.
    pub generator_ns_per_frame: f64,
    /// Open loop: how late the generator submitted, p99 (µs).
    pub late_p99_us: f64,
    /// Wall-clock of the slowest `Garnet::shutdown` (ms).
    pub shutdown_ms: f64,
}

/// `VmHWM` of this process in MB (0 where `/proc` has no such line).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Assembles a rig and runs the warm-up. Returns the rig, its
/// generator (positioned after the warm-up) and the set-up time in
/// seconds: `Garnet::new` through subscriptions, archive open and
/// warm-up, input generation excluded.
pub fn set_up(spec: &'static Spec, plan: &Plan, dir: &Path) -> (Rig, Generator, f64) {
    let mut gen = Generator::new(spec, plan.seed);
    let (mut rig, mut spent) = Rig::assemble(spec, &gen, dir);
    let mut warmed = 0;
    while warmed < plan.warmup_frames(spec) {
        let burst = gen.next_burst();
        warmed += burst.frames.len() as u64;
        spent += rig.apply(burst, None);
    }
    (rig, gen, spent as f64 / 1e9)
}

/// Open-loop pacing: burst `k` is due `k` periods after the pacer was
/// made, whatever the program is doing.
#[derive(Debug)]
pub struct Pacer {
    origin_ns: u64,
    period_ns: u64,
    /// How late each burst went in (ns).
    pub late_ns: Vec<u64>,
}

impl Pacer {
    /// A pacer for `spec` starting now, or `None` for a closed loop.
    pub fn for_spec(spec: &Spec, rig: &Rig) -> Option<Pacer> {
        spec.period_us.map(|period_us| Pacer {
            origin_ns: rig.clock.now_ns(),
            period_ns: period_us * 1_000,
            late_ns: Vec::new(),
        })
    }

    /// Waits (spinning) until the next burst is due and returns the
    /// instant its deliveries' latency counts from.
    ///
    /// If the program was still busy when the burst fell due, that
    /// instant is the due time: the wait a stall imposes on later
    /// bursts is the program's to answer for. If the generator was
    /// already idle and spinning, the burst goes in the moment the spin
    /// sees the due time pass, and latency counts from there: when the
    /// host takes the core away mid-spin, the burst is late through no
    /// doing of the program, and that lateness is reported on its own
    /// (`late_ns`) instead of being charged to it.
    pub fn next_origin(&mut self, rig: &Rig) -> u64 {
        let due = self.origin_ns + self.late_ns.len() as u64 * self.period_ns;
        let arrived = rig.clock.now_ns();
        if arrived >= due {
            self.late_ns.push(arrived - due);
            return due;
        }
        loop {
            let now = rig.clock.now_ns();
            if now >= due {
                self.late_ns.push(now - due);
                return now;
            }
            std::hint::spin_loop();
        }
    }
}

/// The untraced run of one workload: `Plan::setups` stretches, each a
/// fresh facade — set-up, warm-up, timed slices for its share of the
/// budget, shutdown, check. The run reports the median slice over all
/// stretches, so the figure covers several facade instances — their
/// hash seeds and heap layouts — and, a slice being a whole number of
/// the workload's periodic events, every cost the program pays.
pub fn measure(spec: &'static Spec, plan: &Plan, scratch: &Scratch) -> std::io::Result<EndToEnd> {
    let stretches = plan.setups();
    let slice_frames = plan.slice_frames(spec);
    let budget = Duration::from_secs_f64(plan.seconds / stretches as f64);
    let min_slices = if plan.quick { 1 } else { Plan::MIN_SLICES };
    let mut setups = Vec::with_capacity(stretches);
    // Per slice: throughput, median, p90 and tail latency.
    let (mut fps, mut p50s, mut p90s, mut tails) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut stretch_fps = Vec::with_capacity(stretches);
    let mut tail_percentile = 99.0f64;
    let mut latency_samples = 0;
    let mut late_ns = Vec::new();
    let mut verdict = Verdict::default();
    let (mut generating, mut attempted, mut shutdown_ns, mut peak) = (0u64, 0u64, 0u64, 0f64);
    for i in 0..stretches {
        let dir = scratch.sub(&format!("stretch-{i}"))?;
        let (mut rig, mut gen, secs) = set_up(spec, plan, &dir);
        setups.push(secs);
        // Warm-up deliveries are checked with the rest, but not timed.
        rig.stats[0].take_latencies_ns();
        let first_slice = fps.len();
        let mut last = SimTime::ZERO;
        let started = Instant::now();
        let mut pacer = Pacer::for_spec(spec, &rig);
        loop {
            let (mut frames, mut busy) = (0u64, 0u64);
            while frames < slice_frames {
                let t = Instant::now();
                let burst = gen.next_burst();
                generating += t.elapsed().as_nanos() as u64;
                frames += burst.frames.len() as u64;
                last = burst.now;
                let origin = pacer.as_mut().map(|p| p.next_origin(&rig));
                busy += rig.apply(burst, origin);
            }
            attempted += frames;
            fps.push(frames as f64 / (busy as f64 / 1e9));
            let latency = Latency::of(&rig.stats[0].take_latencies_ns());
            p50s.push(latency.p50_us);
            p90s.push(latency.p90_us);
            tails.push(latency.tail_us);
            tail_percentile = tail_percentile.min(latency.tail_percentile);
            latency_samples += latency.n;
            if fps.len() - first_slice >= min_slices && (plan.quick || started.elapsed() >= budget)
            {
                break;
            }
        }
        // Read before this stretch is checked: reopening an archive log
        // is the benchmark's memory, not the program's.
        if i == 0 {
            peak = peak_rss_mb();
        }
        if let Some(burst) = gen.closing_burst() {
            last = burst.now;
            rig.apply(burst, None);
        }
        let (ns, shutdown_ok) = rig.finish(last);
        shutdown_ns = shutdown_ns.max(ns);
        verdict.absorb(verify(&rig, &gen, &dir));
        verdict.charge(u64::from(!shutdown_ok), "shutdown failed to flush the archive".into());
        late_ns.extend(pacer.map_or_else(Vec::new, |p| p.late_ns));
        stretch_fps.push(Summary::of(&fps[first_slice..]).median);
    }
    Ok(EndToEnd {
        frames_per_s: Summary::of(&fps),
        stretch_frames_per_s: stretch_fps,
        latency_p50_us: Summary::of(&p50s),
        latency_p90_us: Summary::of(&p90s),
        latency_tail_us: Summary::of(&tails),
        tail_percentile,
        latency_samples,
        peak_rss_mb: peak,
        setup_s: Summary::of(&setups),
        attempted,
        verdict,
        generator_ns_per_frame: generating as f64 / attempted as f64,
        late_p99_us: Latency::of(&late_ns).tail_us,
        shutdown_ms: shutdown_ns as f64 / 1e6,
    })
}

/// Compares what the program did — after the final flush and shutdown —
/// with what the generator's books say it had to do.
pub fn verify(rig: &Rig, gen: &Generator, dir: &Path) -> Verdict {
    let spec = rig.spec();
    let mut v = Verdict::default();
    let g = &rig.garnet;

    // Deliveries: exact multiset per consumer with an unbounded queue.
    let mut limited_received = 0;
    for c in 0..spec.consumers {
        let got = rig.stats[c].tally();
        if spec.drain_limited(c) {
            limited_received += got.count;
            continue;
        }
        let want = gen.expected(c);
        let off = got.count.abs_diff(want.count);
        v.charge(off, format!("consumer {c}: {} deliveries, expected {}", got.count, want.count));
        if off == 0 && got.sum != want.sum {
            v.charge(1, format!("consumer {c}: right count, wrong deliveries"));
        }
    }
    let (got, want) = (rig.monitor_stats.tally(), gen.expected_monitor());
    let off = got.count.abs_diff(want.count) + u64::from(got.sum != want.sum);
    v.charge(off, format!("monitors: {} deliveries, expected {}", got.count, want.count));

    // Drain-limited consumers: the delivery plane's own ledger must
    // balance and account for exactly what they received.
    let dl = g.delivery_ledger();
    v.charge(
        dl.offered.abs_diff(dl.shed + dl.delivered) + g.delivery_backlog(),
        format!("delivery ledger does not balance: {dl:?}"),
    );
    v.charge(
        dl.delivered.abs_diff(limited_received),
        format!("limited consumers got {limited_received}, ledger says {}", dl.delivered),
    );

    // QoS: the data tier must match the reference model frame for
    // frame; no class may be out of balance; nothing above Data sheds.
    match (g.qos_ledgers(), spec.overload) {
        (Some(ledgers), Some(_)) => {
            let want = gen.expected_qos();
            let data = ledgers.class(PriorityClass::Data);
            let off = data.offered.abs_diff(want.offered)
                + data.shed.abs_diff(want.shed)
                + data.coalesced.abs_diff(want.coalesced);
            v.charge(off, format!("data tier {data:?}, expected {want:?}"));
            for class in PriorityClass::ALL {
                let l = ledgers.class(class);
                v.charge(
                    l.offered.abs_diff(l.shed + l.delivered),
                    format!("{} ledger does not balance: {l:?}", class.name()),
                );
                if class != PriorityClass::Data {
                    v.charge(l.shed, format!("{} items were shed: {l:?}", class.name()));
                }
            }
        }
        (None, None) => {}
        _ => v.charge(1, "QoS scheduler presence does not match the workload".into()),
    }

    // Archive: nothing dropped, and the reopened log recovers every
    // frame offered since this facade was built.
    if spec.archive_file {
        let offered = gen.counts().offered;
        match g.archive_ledger() {
            Some(l) => {
                v.charge(l.dropped + l.pending, format!("archive ledger {l:?}"));
                v.charge(l.flush_failures, format!("archive flushes failed: {l:?}"));
            }
            None => v.charge(1, "archive tap missing".into()),
        }
        let reopened = FileStore::open(dir.join("archive"))
            .map(|s| Box::new(s) as Box<dyn garnet_store::SegmentStore>)
            .and_then(|s| FrameArchive::open(s, u64::MAX));
        match reopened {
            Ok((_, report)) => {
                v.charge(
                    report.frames.abs_diff(offered),
                    format!("archive recovered {} frames of {offered}", report.frames),
                );
                v.charge(
                    u64::from(report.truncation.is_some()),
                    format!("archive log was truncated: {:?}", report.truncation),
                );
            }
            Err(e) => v.charge(offered, format!("archive did not reopen: {e:?}")),
        }
    }

    let f = rig.failures;
    v.charge(f.actuations, format!("{} actuations refused", f.actuations));
    v.charge(f.shard_faults, format!("{} shard restarts or stranded jobs", f.shard_faults));
    v.charge(f.control_errors, format!("{} control calls failed", f.control_errors));
    if let Some(e) = g.telemetry_sink_error() {
        v.charge(1, format!("telemetry sink: {e}"));
    }
    v
}
