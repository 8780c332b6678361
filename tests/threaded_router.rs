//! Pooled ingest ≡ inline ingest: the FIFO router over filtering shards
//! on worker threads must produce exactly the output stream of the same
//! router over inline shards, at every shard count, on every run. This
//! is the router-level analogue of `determinism.rs`.

use garnet::core::actuation::{ActuationConfig, ActuationService};
use garnet::core::coordinator::{CoordinationMode, SuperCoordinator};
use garnet::core::filtering::FilterConfig;
use garnet::core::location::{LocationConfig, LocationService};
use garnet::core::orphanage::{Orphanage, OrphanageConfig};
use garnet::core::replicator::MessageReplicator;
use garnet::core::resource::{MediationPolicy, ResourceManager};
use garnet::core::router::{ControlGraph, Router, Services, ShardedDispatch, ShardedIngest};
use garnet::core::service::{ServiceEvent, ServiceOutput};
use garnet::net::{SubscriberId, TopicFilter};
use garnet::radio::ReceiverId;
use garnet::simkit::SimTime;
use garnet::wire::{DataMessage, SensorId, SequenceNumber, StreamId, StreamIndex};

fn frame(sensor: u32, index: u8, seq: u16) -> garnet::wire::FrameBytes {
    let stream = StreamId::new(SensorId::new(sensor).unwrap(), StreamIndex::new(index));
    DataMessage::builder(stream)
        .seq(SequenceNumber::new(seq))
        .payload(vec![seq as u8, sensor as u8])
        .build()
        .unwrap()
        .encode_to_vec()
        .into()
}

/// One facade-boundary event, with its arrival time.
enum Boundary {
    Frame(garnet::wire::FrameBytes, SimTime),
    Flush(SimTime),
    Tick(SimTime),
}

/// A messy multi-sensor schedule: drops (→ reorder gaps), duplicates,
/// periodic flushes, and a terminal flush + actuation tick.
fn schedule() -> Vec<Boundary> {
    let mut sched = Vec::new();
    let mut t = 0u64;
    for seq in 0..40u16 {
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

fn control_graph() -> ControlGraph {
    ControlGraph {
        orphanage: Orphanage::new(OrphanageConfig::default()),
        location: LocationService::new(LocationConfig::default(), &[]),
        resource: ResourceManager::new(MediationPolicy::MergeMax),
        actuation: ActuationService::new(ActuationConfig::default()),
        replicator: MessageReplicator::new(Vec::new()),
        coordinator: SuperCoordinator::new(CoordinationMode::Predictive { min_confidence: 0.6 }),
    }
}

/// Even sensors are claimed (sensor 6 by stream filter), odd orphan.
fn filters() -> Vec<(u32, TopicFilter)> {
    vec![
        (0, TopicFilter::Sensor(SensorId::new(2).unwrap())),
        (1, TopicFilter::Sensor(SensorId::new(4).unwrap())),
        (1, TopicFilter::Stream(StreamId::new(SensorId::new(6).unwrap(), StreamIndex::new(0)))),
    ]
}

/// Pumps the schedule through a FIFO router over `ingest`, one boundary
/// event to quiescence at a time (exactly the facade's drive loop), and
/// fingerprints every escaped output in order.
fn outputs(sched: &[Boundary], ingest: ShardedIngest) -> Vec<String> {
    let mut dispatch = ShardedDispatch::default();
    // Allocate ids 0 and 1 — the raw ids `filters()` subscribes.
    dispatch.register_subscriber();
    dispatch.register_subscriber();
    for (id, filter) in filters() {
        dispatch.subscribe(SubscriberId::new(id), filter);
    }
    let mut router = Router::new(Services { ingest, dispatch, control: control_graph() });
    let mut escaped = Vec::new();
    for b in sched {
        let (ev, now) = match b {
            Boundary::Frame(bytes, at) => (
                ServiceEvent::Frame {
                    receiver: ReceiverId::new(0),
                    rssi_dbm: -40.0,
                    frame: bytes.clone(),
                },
                *at,
            ),
            Boundary::Flush(at) => (ServiceEvent::FlushReorder, *at),
            Boundary::Tick(at) => (ServiceEvent::ActuationTick, *at),
        };
        router.enqueue(ev);
        let mut outs = Vec::new();
        while router.step(now, &mut outs) {
            for o in outs.drain(..) {
                match o {
                    ServiceOutput::Emit(ev) => router.enqueue(ev),
                    other => escaped.push(format!("{other:?}")),
                }
            }
        }
    }
    let ingest = &mut router.services_mut().ingest;
    let failures = ingest.take_failures();
    assert!(failures.is_empty(), "no worker should fail: {failures:?}");
    assert_eq!(ingest.shard_restarts(), 0);
    escaped
}

/// The reference: filtering inline, on the router's thread.
fn reference_outputs(sched: &[Boundary]) -> Vec<String> {
    outputs(sched, ShardedIngest::new(FilterConfig::default(), 1))
}

/// The same schedule with the filtering shards on worker threads.
fn threaded_outputs(sched: &[Boundary], ingest: usize) -> Vec<String> {
    outputs(sched, ShardedIngest::pooled(FilterConfig::default(), ingest))
}

#[test]
fn threaded_router_matches_single_threaded_router() {
    let sched = schedule();
    let want = reference_outputs(&sched);
    assert!(
        want.iter().any(|o| o.starts_with("Deliver")),
        "schedule must exercise deliveries, got {want:?}"
    );
    let got = threaded_outputs(&sched, 1);
    assert_eq!(got, want, "one pooled shard diverged from the inline router");
}

#[test]
fn threaded_router_output_is_shard_count_invariant() {
    let sched = schedule();
    let base = threaded_outputs(&sched, 1);
    assert_eq!(threaded_outputs(&sched, 4), base, "4 pooled shards diverged from 1");
}

#[test]
fn threaded_router_is_deterministic_across_runs() {
    let sched = schedule();
    let a = threaded_outputs(&sched, 4);
    let b = threaded_outputs(&sched, 4);
    assert_eq!(a, b);
}
