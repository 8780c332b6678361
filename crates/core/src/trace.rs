//! Glue between the service graph and the `garnet-simkit` flight
//! recorder: the event→record mapping.
//!
//! The recorder is in every build and off at `trace_capacity: 0`; the
//! router builds a record only behind `Tracer::is_enabled` (or inside
//! the closure `Tracer::record` never calls while off), so nothing here
//! runs until a capacity is set.
//!
//! The record order for one boundary input pumped to quiescence is the
//! `Router`'s FIFO order:
//!
//! 1. the boundary hop itself: one `Frame` record per frame of the
//!    burst, written by `Router::ingest` before the burst is filtered
//!    and so before any of its descendants — or `FlushReorder` / a
//!    tick's first control event, written when `Router::step` pops it,
//! 2. ingest-origin control hops (`Observed`, `AckReceived`) in
//!    emission order,
//! 3. `Filtered` dispatch hops in delivery order,
//! 4. dispatch-origin control hops (`Orphaned`) and the rest of the
//!    control cascade in FIFO order.

use garnet_simkit::trace::{TraceEventKind, TraceOutcome, TraceRecord, TraceStage};
use garnet_simkit::SimTime;
use garnet_wire::{peek_stream, ActuationTarget};

use crate::filtering::Delivery;
use crate::service::ServiceEvent;

/// The root-sequence tag carried by every queued event in the `Router`,
/// so trace records can attribute hops to the boundary event they
/// descend from.
pub(crate) type RootTag = u64;

fn target_ids(target: &ActuationTarget) -> (Option<u32>, Option<u32>) {
    match target {
        ActuationTarget::Sensor(s) => (None, Some(s.as_u32())),
        ActuationTarget::Stream(st) => (Some(st.to_raw()), Some(st.sensor().as_u32())),
        ActuationTarget::Area(_) => (None, None),
    }
}

fn delivery_record(
    stage: TraceStage,
    kind: TraceEventKind,
    delivery: &Delivery,
    now: SimTime,
) -> TraceRecord {
    TraceRecord {
        stream: Some(delivery.msg.stream().to_raw()),
        sensor: Some(delivery.msg.stream().sensor().as_u32()),
        age_us: now.saturating_since(delivery.first_received_at).as_micros(),
        ..TraceRecord::new(now.as_micros(), stage, kind, TraceOutcome::Delivered)
    }
}

/// The record for one raw frame at the filtering stage — the root of
/// everything it causes — attributed to the stream its header claims.
/// `outcome` is `Delivered` for a frame handed to filtering, or how the
/// admission scheduler dropped it.
pub(crate) fn frame_record(
    frame: &[u8],
    now: SimTime,
    root: RootTag,
    outcome: TraceOutcome,
) -> TraceRecord {
    let stream = peek_stream(frame);
    TraceRecord {
        stream: stream.map(|s| s.to_raw()),
        sensor: stream.map(|s| s.sensor().as_u32()),
        root: Some(root),
        ..TraceRecord::new(now.as_micros(), TraceStage::Filtering, TraceEventKind::Frame, outcome)
    }
}

/// The record for one queued event's hop under its root tag. Pure on
/// the event and the simulated time.
pub(crate) fn event_record(ev: &ServiceEvent, now: SimTime, root: RootTag) -> TraceRecord {
    use ServiceEvent::*;
    let at = now.as_micros();
    let base = |stage, kind| TraceRecord::new(at, stage, kind, TraceOutcome::Delivered);
    let mut rec = match ev {
        FlushReorder => base(TraceStage::Filtering, TraceEventKind::FlushReorder),
        Filtered { delivery, .. } => {
            delivery_record(TraceStage::Dispatch, TraceEventKind::Filtered, delivery, now)
        }
        Orphaned(delivery) => {
            delivery_record(TraceStage::Orphanage, TraceEventKind::Orphaned, delivery, now)
        }
        Observed(obs) => TraceRecord {
            sensor: Some(obs.sensor.as_u32()),
            ..base(TraceStage::Control, TraceEventKind::Observed)
        },
        Hint { sensor, .. } => TraceRecord {
            sensor: Some(sensor.as_u32()),
            ..base(TraceStage::Control, TraceEventKind::Hint)
        },
        AckReceived { .. } => base(TraceStage::Actuation, TraceEventKind::AckReceived),
        ActuationRequested { target, .. } => {
            let (stream, sensor) = target_ids(target);
            TraceRecord {
                stream,
                sensor,
                ..base(TraceStage::Control, TraceEventKind::ActuationRequested)
            }
        }
        Submit { target, .. } => {
            let (stream, sensor) = target_ids(target);
            TraceRecord { stream, sensor, ..base(TraceStage::Actuation, TraceEventKind::Submit) }
        }
        Replicate { request, .. } => {
            let (stream, sensor) = target_ids(&request.target);
            TraceRecord { stream, sensor, ..base(TraceStage::Control, TraceEventKind::Replicate) }
        }
        ActuationTick => base(TraceStage::Actuation, TraceEventKind::ActuationTick),
        StateReported { .. } => base(TraceStage::Control, TraceEventKind::StateReported),
    };
    rec.root = Some(root);
    rec
}
