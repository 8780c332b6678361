//! The one bare-`Router` harness: a boundary schedule, the subscriptions
//! it is routed against, and the loop that drives a router through it.
//! `tracing.rs` reads the flight recorder it fills.

use garnet::core::router::{ControlGraph, Router, Services, ShardedDispatch, ShardedIngest};
use garnet::core::service::{BatchedFrame, ServiceEvent, ServiceOutput};
use garnet::core::{DispatchCacheConfig, SubscriberId, TopicFilter};
use garnet::radio::ReceiverId;
use garnet::simkit::trace::TraceConfig;
use garnet::simkit::SimTime;
use garnet::wire::{DataMessage, FrameBytes, SensorId, SequenceNumber, StreamId, StreamIndex};

pub fn frame(sensor: u32, index: u8, seq: u16) -> FrameBytes {
    let stream = StreamId::new(SensorId::new(sensor).unwrap(), StreamIndex::new(index));
    DataMessage::builder(stream)
        .seq(SequenceNumber::new(seq))
        .payload(vec![seq as u8, sensor as u8])
        .build()
        .unwrap()
        .encode_to_vec()
        .into()
}

/// One facade-boundary input, with its arrival time.
pub enum Boundary {
    Frame(FrameBytes, SimTime),
    Flush(SimTime),
    Tick(SimTime),
}

/// A messy six-sensor schedule of `seqs` sequence numbers each: drops
/// (→ reorder gaps), duplicates, periodic flushes, and a terminal flush
/// + actuation tick.
pub fn schedule(seqs: u16) -> Vec<Boundary> {
    let mut sched = Vec::new();
    let mut t = 0u64;
    for seq in 0..seqs {
        for sensor in 1..=6u32 {
            if (u32::from(seq) + sensor) % 7 == 0 {
                continue; // dropped in flight
            }
            sched.push(Boundary::Frame(frame(sensor, 0, seq), SimTime::from_millis(t)));
            t += 3;
            if (u32::from(seq) + sensor) % 5 == 0 {
                sched.push(Boundary::Frame(frame(sensor, 0, seq), SimTime::from_millis(t)));
                t += 1;
            }
        }
        if seq % 10 == 9 {
            t += 700;
            sched.push(Boundary::Flush(SimTime::from_millis(t)));
        }
    }
    t += 60_000;
    sched.push(Boundary::Flush(SimTime::from_millis(t)));
    sched.push(Boundary::Tick(SimTime::from_millis(t)));
    sched
}

/// Even sensors are claimed (sensor 6 by stream filter), odd orphan. The
/// first element is the consumer: subscriber 0 or 1.
pub fn filters() -> Vec<(u32, TopicFilter)> {
    vec![
        (0, TopicFilter::Sensor(SensorId::new(2).unwrap())),
        (1, TopicFilter::Sensor(SensorId::new(4).unwrap())),
        (1, TopicFilter::Stream(StreamId::new(SensorId::new(6).unwrap(), StreamIndex::new(0)))),
    ]
}

/// A router over `ingest`, two subscribers holding [`filters`], default
/// control services, and a flight recorder of `trace_capacity` records.
pub fn router(ingest: ShardedIngest, cache: DispatchCacheConfig, trace_capacity: usize) -> Router {
    let mut dispatch = ShardedDispatch::with_cache(1, cache);
    // Allocate ids 0 and 1 — the raw ids `filters()` subscribes.
    dispatch.register_subscriber();
    dispatch.register_subscriber();
    for (id, filter) in filters() {
        dispatch.subscribe(SubscriberId::new(id), filter);
    }
    let mut router = Router::new(Services { ingest, dispatch, control: ControlGraph::default() });
    router.configure_trace(TraceConfig { capacity: trace_capacity });
    router
}

/// Drives `router` through the schedule one boundary input to
/// quiescence at a time, the way `Garnet::on_frames` / `on_tick` and
/// `pump_engine` do — a frame is handed to `Router::ingest`, anything
/// else is enqueued, then `step` until the queue is empty — and returns
/// every escaped output in order. (Nothing here acts on an output, so
/// stepping straight through is the facade's apply-between-rounds loop.)
pub fn drive(router: &mut Router, sched: &[Boundary]) -> Vec<ServiceOutput> {
    let mut escaped = Vec::new();
    for b in sched {
        let now = match b {
            Boundary::Frame(bytes, at) => {
                let frame = BatchedFrame {
                    receiver: ReceiverId::new(0),
                    rssi_dbm: -40.0,
                    frame: bytes.clone(),
                };
                router.ingest(vec![frame], *at);
                *at
            }
            Boundary::Flush(at) => {
                router.enqueue(ServiceEvent::FlushReorder);
                *at
            }
            Boundary::Tick(at) => {
                router.enqueue(ServiceEvent::ActuationTick);
                *at
            }
        };
        while router.step(now, &mut escaped) {}
    }
    escaped
}
