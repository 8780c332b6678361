//! The seven named workloads. Every count here is a constant of the
//! workload: nothing is derived from how fast the program runs, and
//! the seed changes ids, payload bytes and which frames are displaced,
//! lost, corrupted or churned — never how many.

use garnet_core::DriverKind;

/// Frames per burst on the canonical closed-loop workloads.
pub const BURST: usize = 64;
/// Sim time advanced per offered frame (µs).
pub const SIM_US_PER_FRAME: u64 = 10;
/// `TelemetryConfig::interval`, as deployed (µs of sim time).
pub const TELEMETRY_INTERVAL_US: u64 = 1_000_000;

/// What a base consumer subscribes to. All three kinds cover every
/// active stream, so fan-out equals the consumer count while the
/// dispatch table exercises each index (`all`, per-sensor, per-stream).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FilterKind {
    /// One `TopicFilter::All`.
    All,
    /// One `TopicFilter::Sensor` per active sensor.
    PerSensor,
    /// One `TopicFilter::Stream` per active stream.
    PerStream,
}

/// Overlapping receivers and a bad channel.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Lossy {
    /// Receivers hearing each transmission; a copy lands in this burst
    /// or the next.
    pub copies: u32,
    /// Share of uniques displaced within their stream.
    pub displaced: f64,
    /// A displaced unique arrives 1 to this many positions late.
    pub max_displacement: u64,
    /// Share of uniques that never arrive.
    pub lost: f64,
    /// Share of copies with one flipped bit.
    pub corrupt: f64,
}

/// The shape of the radio input.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Input {
    /// Every stream in turn, in sequence order, one copy per frame.
    InOrder,
    /// See [`Lossy`].
    Lossy(Lossy),
}

/// Subscription churn inside the timed region.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Churn {
    /// Dormant `Stream` filters each consumer also holds (streams the
    /// input never carries: table size without fan-out).
    pub dormant_per_consumer: u32,
    /// A monitor consumer joins (register + subscribe `All`) before
    /// every this-many-th burst and leaves after it.
    pub monitor_every: u32,
}

/// Facade-boundary overload handling.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Overload {
    /// `OverloadConfig::capacity` under `CoalesceFrames`.
    pub capacity: usize,
    /// Every fourth consumer drains at most this many deliveries per
    /// facade call.
    pub drain_limit: usize,
}

/// One workload.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Spec {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why the workload exists (mirrors `BENCHMARK.json`).
    pub why: &'static str,
    /// Execution engine, set explicitly (never from the environment).
    pub driver: DriverKind,
    /// Active sensors.
    pub sensors: u32,
    /// Internal streams per sensor.
    pub streams_per_sensor: u8,
    /// Frames per `on_frames` call.
    pub burst: usize,
    /// Offered frames per timed slice: a whole number of bursts and of
    /// the workload's periodic events (telemetry snapshots, monitor
    /// joins), so every slice carries the same share of them.
    pub slice_frames: u64,
    /// Offered frames of warm-up inside every set-up (a multiple of
    /// `burst`).
    pub warmup_frames: u64,
    /// Input shape.
    pub input: Input,
    /// Payload sizes the generator draws from.
    pub payload_sizes: &'static [usize],
    /// Base consumers (fan-out).
    pub consumers: usize,
    /// Subscription churn, if any.
    pub churn: Option<Churn>,
    /// QoS overload handling, if any.
    pub overload: Option<Overload>,
    /// Whether the file archive taps the input.
    pub archive_file: bool,
    /// Open loop: a burst is due every this many wall-clock µs.
    pub period_us: Option<u64>,
    /// `FilterConfig::reorder_timeout` (ms of sim time), sized to the
    /// input's own time scale.
    pub reorder_timeout_ms: u64,
    /// The probe consumer latency-stamps one delivery in this many. A
    /// prime, so the stamped delivery's position within its burst
    /// rotates instead of always being the burst's last.
    pub latency_every: u64,
}

impl Spec {
    /// Active streams.
    pub fn streams(&self) -> u32 {
        self.sensors * u32::from(self.streams_per_sensor)
    }

    /// What base consumer `c` subscribes to.
    pub fn filter_kind(&self, c: usize) -> FilterKind {
        if self.churn.is_some() {
            FilterKind::PerSensor
        } else {
            [FilterKind::All, FilterKind::PerSensor, FilterKind::PerStream, FilterKind::All][c % 4]
        }
    }

    /// Whether base consumer `c` is drain-limited (every fourth, under
    /// overload handling).
    pub fn drain_limited(&self, c: usize) -> bool {
        self.overload.is_some() && c % 4 == 3
    }
}

const STEADY: Spec = Spec {
    name: "steady-fifo",
    why: "canonical single-threaded baseline: in-order input, fan-out 4 through all three filter kinds, archive off; every layer carries a comparable share, so a one-layer change should move little",
    driver: DriverKind::Fifo,
    sensors: 1_000,
    streams_per_sensor: 4,
    burst: BURST,
    // One telemetry period.
    slice_frames: 1_563 * BURST as u64,
    warmup_frames: 128_000,
    input: Input::InOrder,
    payload_sizes: &[16],
    consumers: 4,
    churn: None,
    overload: None,
    archive_file: false,
    period_us: None,
    reorder_timeout_ms: 50,
    latency_every: 13,
};

/// Every workload, in reporting order.
pub const ALL: [Spec; 7] = [
    STEADY,
    Spec {
        name: "steady-threaded",
        why: "the steady-fifo input on the threaded engine 1x1: queue hand-offs and the sequence merge do most of the work here and none on FIFO, so threaded >= FIFO must show here",
        driver: DriverKind::Threaded,
        warmup_frames: 64_000,
        ..STEADY
    },
    Spec {
        name: "lossy-radio",
        why: "3 receivers per frame, 30% displaced 1-2 places, 0.5% lost, 1% of copies bit-flipped, payloads 4-256 B: wire CRC/decode and filtering dedup/reorder/timeout do most of the work, dispatch sees a third",
        sensors: 250,
        warmup_frames: 96_000,
        // Displaced by two, a unique holds its successor back one stream
        // period (≈ 2.5 ms): 86 % of deliveries are immediate, the next
        // 10 % wait one period, and p90 sits inside that mass, not on
        // an edge of it.
        input: Input::Lossy(Lossy {
            copies: 3,
            displaced: 0.30,
            max_displacement: 2,
            lost: 0.005,
            corrupt: 0.01,
        }),
        payload_sizes: &[4, 16, 64, 256],
        // Two stream periods of 30 ms and a burst of slack, four times over.
        reorder_timeout_ms: 250,
        ..STEADY
    },
    Spec {
        name: "archive-file",
        why: "steady-fifo input with the file archive tapping every frame: garnet-store does most of the work, the gap to steady-fifo is the archive's price, and the reopened log must recover every record",
        warmup_frames: 32_000,
        archive_file: true,
        ..STEADY
    },
    Spec {
        name: "churn-fanout",
        why: "16 consumers x 4000 filters, fan-out 16, two subscription writes per burst and a monitor joining every 256th: dispatch matching, match-cache rebuilds and fan-out dominate, with writes beside reads",
        // Two monitor periods: every slice holds exactly two joins. (No
        // small multiple of 256 bursts is also one of the 1 563-burst
        // telemetry period; a snapshot lands in one slice in three.)
        slice_frames: 2 * 256 * BURST as u64,
        warmup_frames: 48_000,
        consumers: 16,
        churn: Some(Churn { dormant_per_consumer: 3_000, monitor_every: 256 }),
        ..STEADY
    },
    Spec {
        name: "overload-qos",
        why: "64 hot streams in 1024-frame bursts against CoalesceFrames capacity 256, a drain-limited consumer, one actuation per burst: QoS admission, coalescing and staging do the work; ledgers must balance",
        sensors: 16,
        burst: 1_024,
        // Two telemetry periods of 98 bursts.
        slice_frames: 2 * 98 * 1_024,
        warmup_frames: 64 + 256 * 1_024,
        overload: Some(Overload { capacity: 256, drain_limit: 16 }),
        ..STEADY
    },
    Spec {
        name: "paced-bursts",
        why: "open loop, threaded engine: 8-frame bursts due every 200 us, latency from due time; per-call and hand-off cost set latency, so throughput bought with bigger batches or sleepier workers shows here",
        driver: DriverKind::Threaded,
        burst: 8,
        // 50 ms of schedule. A telemetry period is 2.5 s of it: periodic
        // work that rare is the steady workloads' to show.
        slice_frames: 2_000,
        warmup_frames: 8_000,
        period_us: Some(200),
        // Every delivery: a 50 ms slice still holds 2 000 samples.
        latency_every: 1,
        ..STEADY
    },
];

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<&'static Spec> {
    ALL.iter().find(|s| s.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Offered frames from one telemetry snapshot to the next. The
    /// facade emits on the first call whose sim time has reached the
    /// deadline and re-arms from there, so the period is the interval
    /// rounded up to whole bursts.
    fn telemetry_period(spec: &Spec) -> u64 {
        let burst_us = spec.burst as u64 * SIM_US_PER_FRAME;
        TELEMETRY_INTERVAL_US.div_ceil(burst_us) * spec.burst as u64
    }

    #[test]
    fn names_are_unique_and_counts_are_whole_bursts() {
        for (i, a) in ALL.iter().enumerate() {
            assert!(ALL[i + 1..].iter().all(|b| b.name != a.name), "{} repeats", a.name);
            assert!(a.why.len() <= 200 && !a.why.contains('\n'), "{}: why too long", a.name);
            // overload-qos opens with a one-frame-per-stream prelude burst.
            let prelude = if a.overload.is_some() { u64::from(a.streams()) } else { 0 };
            assert_eq!(a.slice_frames % a.burst as u64, 0, "{}: slice", a.name);
            assert_eq!((a.warmup_frames - prelude) % a.burst as u64, 0, "{}: warm-up", a.name);
            // Every slice holds the same number of telemetry snapshots,
            // bar the two workloads whose definitions say why not.
            if a.churn.is_none() && a.period_us.is_none() {
                assert_eq!(a.slice_frames % telemetry_period(a), 0, "{}: telemetry", a.name);
            }
        }
        assert_eq!(telemetry_period(&ALL[0]), 1_563 * 64);
        assert_eq!(telemetry_period(by_name("overload-qos").unwrap()), 98 * 1_024);
        assert!(by_name("steady-fifo").is_some() && by_name("nope").is_none());
    }
}
