//! The facade under test, assembled the way a deployment would: an
//! explicit [`GarnetConfig`], the workload's consumers and
//! subscriptions, telemetry as deployed. [`Rig::apply`] is the driver
//! loop's body — every call into the program for one burst — and
//! returns the wall-clock spent inside those calls.

use std::cell::{Cell, RefCell};
use std::path::Path;
use std::rc::Rc;
use std::time::Instant;

use garnet_core::consumer::{Consumer, ConsumerCtx};
use garnet_core::filtering::{Delivery, FilterConfig};
use garnet_core::middleware::{ActuationOutcome, Garnet, GarnetConfig, StepOutput};
use garnet_core::router::{OverloadConfig, OverloadPolicy};
use garnet_core::telemetry::TelemetryConfig;
use garnet_core::{ArchiveBackend, ArchiveConfig, QosConfig, QosMode};
use garnet_net::{DispatchCacheConfig, SubscriberId, Token, TopicFilter};
use garnet_simkit::{SimDuration, SimTime};
use garnet_wire::{AckStatus, ActuationTarget, SensorCommand};

use crate::gen::{Burst, Generator, Op, Tally};
use crate::workload::{FilterKind, Spec, TELEMETRY_INTERVAL_US};

/// Submission instants by burst ordinal, shared between the driver
/// loop (writer) and the probe consumer (reader). A ring: a delivery
/// is never held longer than the reorder timeout, far fewer bursts
/// than the ring remembers.
#[derive(Debug)]
pub struct SubmitClock {
    epoch: Instant,
    ring: Vec<Cell<u64>>,
}

impl SubmitClock {
    const SLOTS: usize = 1 << 16;

    /// A clock whose zero is now.
    pub fn new() -> SubmitClock {
        SubmitClock { epoch: Instant::now(), ring: vec![Cell::new(0); Self::SLOTS] }
    }

    /// Nanoseconds since the clock's zero.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records when burst `ordinal` was submitted (closed loop) or due
    /// (open loop).
    pub fn stamp(&self, ordinal: u32, at_ns: u64) {
        self.ring[ordinal as usize % Self::SLOTS].set(at_ns);
    }

    fn stamped(&self, ordinal: u32) -> u64 {
        self.ring[ordinal as usize % Self::SLOTS].get()
    }
}

impl Default for SubmitClock {
    fn default() -> Self {
        SubmitClock::new()
    }
}

/// What one consumer has received.
#[derive(Debug, Default)]
pub struct Stats {
    count: Cell<u64>,
    sum: Cell<u64>,
    latencies_ns: RefCell<Vec<u64>>,
}

impl Stats {
    /// Deliveries so far, as a [`Tally`].
    pub fn tally(&self) -> Tally {
        Tally { count: self.count.get(), sum: self.sum.get() }
    }

    /// Takes the latency samples collected so far.
    pub fn take_latencies_ns(&self) -> Vec<u64> {
        std::mem::take(&mut self.latencies_ns.borrow_mut())
    }
}

/// The benchmark's consumer: folds every delivery into its tally and,
/// when it holds the clock, stamps one delivery in `every` with the
/// time since its burst went in.
struct Probe {
    name: String,
    stats: Rc<Stats>,
    clock: Option<Rc<SubmitClock>>,
    every: u64,
}

impl Consumer for Probe {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_data(&mut self, delivery: &Delivery, _ctx: &mut ConsumerCtx) {
        let msg = &delivery.msg;
        let tag = match msg.payload().get(..4) {
            Some(b) => u32::from_le_bytes([b[0], b[1], b[2], b[3]]),
            None => 0,
        };
        let s = &self.stats;
        let seen = s.count.get() + 1;
        s.count.set(seen);
        s.sum.set(s.sum.get().wrapping_add(crate::gen::fingerprint(
            msg.stream().to_raw(),
            msg.seq().as_u16(),
            tag,
        )));
        if let Some(clock) = &self.clock {
            if seen.is_multiple_of(self.every) {
                let waited = clock.now_ns().saturating_sub(clock.stamped(tag));
                s.latencies_ns.borrow_mut().push(waited);
            }
        }
    }
}

/// Things that went wrong inside facade calls, each counted as a
/// failed operation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CallFailures {
    /// Actuations refused or unresolved.
    pub actuations: u64,
    /// Shard restarts and stranded jobs the engine reported.
    pub shard_faults: u64,
    /// Subscribe/register calls that returned an error.
    pub control_errors: u64,
}

/// The explicit configuration for `spec`: every field an environment
/// toggle could change is pinned here.
pub fn config(spec: &Spec, scratch: &Path) -> GarnetConfig {
    GarnetConfig {
        driver: spec.driver,
        filter: FilterConfig {
            reorder_timeout: SimDuration::from_millis(spec.reorder_timeout_ms),
            ..FilterConfig::default()
        },
        ingest_shards: 1,
        dispatch_shards: 1,
        batch_ingest: true,
        dispatch_cache: DispatchCacheConfig {
            enabled: true,
            capacity: DispatchCacheConfig::DEFAULT_CAPACITY,
        },
        qos: QosConfig {
            mode: QosMode::Scheduled,
            data_floor: None,
            data_ceiling: None,
            consumer_queue_capacity: 64,
        },
        overload: spec.overload.map(|o| OverloadConfig {
            capacity: o.capacity,
            policy: OverloadPolicy::CoalesceFrames,
        }),
        archive: spec.archive_file.then(|| ArchiveConfig {
            backend: ArchiveBackend::Directory(scratch.join("archive")),
            ..ArchiveConfig::default()
        }),
        telemetry: TelemetryConfig {
            spans: true,
            interval: Some(SimDuration::from_micros(TELEMETRY_INTERVAL_US)),
            sink_dir: Some(scratch.join("telemetry")),
            ..TelemetryConfig::default()
        },
        ..GarnetConfig::default()
    }
}

/// The filters base consumer `c` holds at the start of the run.
pub fn filters_for(spec: &Spec, gen: &Generator, c: usize) -> Vec<TopicFilter> {
    let mut filters = match spec.filter_kind(c) {
        FilterKind::All => vec![TopicFilter::All],
        FilterKind::PerSensor => {
            (0..spec.sensors).map(|k| TopicFilter::Sensor(gen.sensor(k))).collect()
        }
        FilterKind::PerStream => (0..spec.sensors)
            .flat_map(|k| (0..spec.streams_per_sensor).map(move |i| (k, i)))
            .map(|(k, i)| TopicFilter::Stream(gen.stream(k, i)))
            .collect(),
    };
    if let Some(churn) = spec.churn {
        let base = c as u32 * churn.dormant_per_consumer;
        filters.extend(
            (0..churn.dormant_per_consumer)
                .map(|j| TopicFilter::Stream(gen.dormant_stream(base + j))),
        );
    }
    filters
}

/// One assembled facade plus the benchmark's view of its consumers.
pub struct Rig {
    spec: &'static Spec,
    /// The facade under test.
    pub garnet: Garnet,
    token: Token,
    ids: Vec<SubscriberId>,
    /// Per base consumer, what it received.
    pub stats: Vec<Rc<Stats>>,
    /// What every monitor consumer, together, received.
    pub monitor_stats: Rc<Stats>,
    monitor_id: Option<SubscriberId>,
    /// Submission instants for the latency probe.
    pub clock: Rc<SubmitClock>,
    /// Failures seen inside calls so far.
    pub failures: CallFailures,
}

impl Rig {
    /// `Garnet::new` through consumer registration and subscriptions.
    /// Returns the rig and the wall-clock spent inside the program.
    pub fn assemble(spec: &'static Spec, gen: &Generator, scratch: &Path) -> (Rig, u64) {
        let cfg = config(spec, scratch);
        let plans: Vec<Vec<TopicFilter>> =
            (0..spec.consumers).map(|c| filters_for(spec, gen, c)).collect();
        let clock = Rc::new(SubmitClock::new());
        let stats: Vec<Rc<Stats>> = (0..spec.consumers).map(|_| Rc::default()).collect();
        let probes: Vec<Box<dyn Consumer>> = stats
            .iter()
            .enumerate()
            .map(|(c, s)| {
                Box::new(Probe {
                    name: format!("bench-{c}"),
                    stats: Rc::clone(s),
                    // Consumer 0 carries the latency probe.
                    clock: (c == 0).then(|| Rc::clone(&clock)),
                    every: spec.latency_every,
                }) as Box<dyn Consumer>
            })
            .collect();

        let started = Instant::now();
        let mut garnet = Garnet::new(cfg);
        let token = garnet.issue_default_token("bench");
        let mut failures = CallFailures::default();
        let mut ids = Vec::with_capacity(spec.consumers);
        for (c, (probe, filters)) in probes.into_iter().zip(plans).enumerate() {
            let id = garnet
                .register_consumer(probe, &token, 0)
                .expect("an all-capability token registers");
            for filter in filters {
                if garnet.subscribe(id, filter, &token).is_err() {
                    failures.control_errors += 1;
                }
            }
            if spec.drain_limited(c) {
                let limit = spec.overload.expect("drain limits imply overload").drain_limit;
                garnet.set_consumer_drain_limit(id, Some(limit));
            }
            ids.push(id);
        }
        let spent = started.elapsed().as_nanos() as u64;
        let rig = Rig {
            spec,
            garnet,
            token,
            ids,
            stats,
            monitor_stats: Rc::default(),
            monitor_id: None,
            clock,
            failures,
        };
        (rig, spent)
    }

    fn note(&mut self, out: &StepOutput) {
        self.failures.shard_faults += out.overload.shard_restarts + out.shard_failures.len() as u64;
    }

    fn control(&mut self, op: Op, now: SimTime) {
        match op {
            Op::Subscribe { consumer, filter } => {
                match self.garnet.subscribe_at(self.ids[consumer], filter, &self.token, now) {
                    Ok((_, out)) => self.note(&out),
                    Err(_) => self.failures.control_errors += 1,
                }
            }
            Op::Unsubscribe { consumer, filter } => {
                self.garnet.unsubscribe(self.ids[consumer], filter);
            }
            Op::MonitorJoin => {
                let probe = Probe {
                    name: "monitor".to_owned(),
                    stats: Rc::clone(&self.monitor_stats),
                    clock: None,
                    every: self.spec.latency_every,
                };
                match self.garnet.register_consumer(Box::new(probe), &self.token, 0) {
                    Ok(id) => {
                        if self.garnet.subscribe_at(id, TopicFilter::All, &self.token, now).is_err()
                        {
                            self.failures.control_errors += 1;
                        }
                        self.monitor_id = Some(id);
                    }
                    Err(_) => self.failures.control_errors += 1,
                }
            }
            Op::MonitorLeave => {
                if let Some(id) = self.monitor_id.take() {
                    if self.garnet.deregister_consumer(id).is_err() {
                        self.failures.control_errors += 1;
                    }
                }
            }
            Op::Actuate { sensor } => {
                let outcome = self.garnet.request_actuation(
                    self.ids[0],
                    &self.token,
                    ActuationTarget::Sensor(sensor),
                    SensorCommand::Ping,
                    now,
                );
                match outcome {
                    // The sensor answers at once, so at most one request
                    // is ever in flight and none reaches its retry timer.
                    Ok(ActuationOutcome::Granted { request_id, .. }) => {
                        self.garnet.on_standalone_ack(request_id, AckStatus::Applied, now);
                    }
                    _ => self.failures.actuations += 1,
                }
            }
        }
    }

    /// Every call into the program for one burst: its control calls,
    /// `on_frames`, then `next_deadline` and — when a deadline has
    /// passed — `on_tick`. Deliveries' latency counts from `origin_ns`
    /// (open loop: see [`crate::run::Pacer`]) or, without one, from the
    /// instant just before `on_frames`. Returns the wall-clock spent,
    /// in ns.
    pub fn apply(&mut self, burst: Burst, origin_ns: Option<u64>) -> u64 {
        let Burst { ordinal, now, ops, frames } = burst;
        let mut spent = 0;
        if !ops.is_empty() {
            let t = Instant::now();
            for op in ops {
                self.control(op, now);
            }
            spent += t.elapsed().as_nanos() as u64;
        }
        let submitted = self.clock.now_ns();
        self.clock.stamp(ordinal, origin_ns.unwrap_or(submitted));
        let out = self.garnet.on_frames(frames, now);
        self.note(&out);
        if self.garnet.next_deadline().is_some_and(|d| d <= now) {
            let out = self.garnet.on_tick(now);
            self.note(&out);
        }
        spent + (self.clock.now_ns() - submitted)
    }

    /// Flushes every reorder buffer (a tick far in the future), then
    /// shuts the facade down. Returns the wall-clock of the shutdown
    /// call in ns and whether it succeeded.
    pub fn finish(&mut self, last: SimTime) -> (u64, bool) {
        let end = last.saturating_add(SimDuration::from_secs(3_600));
        let out = self.garnet.on_tick(end);
        self.note(&out);
        let t = Instant::now();
        let ok = match self.garnet.shutdown(end) {
            Ok(out) => {
                self.note(&out);
                true
            }
            Err(_) => false,
        };
        (t.elapsed().as_nanos() as u64, ok)
    }

    /// The workload this rig was assembled for.
    pub fn spec(&self) -> &'static Spec {
        self.spec
    }
}
