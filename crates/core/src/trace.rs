//! Glue between the service graph and the `garnet-simkit` flight
//! recorder: the event→record mapping.
//!
//! Everything here is feature-gated: with `trace` off the module
//! exports only the zero-sized [`RootTag`] alias, and every call site
//! in the router is behind `#[cfg(feature = "trace")]` (or goes
//! through the no-op `Tracer`), so the hot path pays nothing.
//!
//! The record order for one boundary event pumped to quiescence is the
//! `Router`'s FIFO order:
//!
//! 1. the boundary hop itself (`Frame` / `FlushReorder` / a tick's
//!    first control event),
//! 2. ingest-origin control hops (`Observed`, `AckReceived`) in
//!    emission order,
//! 3. `Filtered` dispatch hops in delivery order,
//! 4. dispatch-origin control hops (`Orphaned`) and the rest of the
//!    control cascade in FIFO order.

/// The root-sequence tag carried by every queued event in the
/// `Router` so trace records can attribute hops to the
/// boundary event they descend from. A real sequence number only when
/// tracing is compiled in; a zero-sized unit otherwise, so the queue
/// layout (and the hot path) is unchanged.
#[cfg(feature = "trace")]
pub(crate) type RootTag = u64;

/// Zero-sized twin of the root tag (the `trace` feature is off).
#[cfg(not(feature = "trace"))]
pub(crate) type RootTag = ();

#[cfg(feature = "trace")]
pub(crate) use imp::{event_record, frame_record};

#[cfg(feature = "trace")]
mod imp {
    use garnet_simkit::trace::{TraceEventKind, TraceOutcome, TraceRecord, TraceStage};
    use garnet_simkit::SimTime;
    use garnet_wire::{peek_stream, ActuationTarget};

    use crate::filtering::Delivery;
    use crate::service::ServiceEvent;

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

    /// The record for one raw frame at the filtering stage, attributed
    /// to the stream its header claims.
    pub(crate) fn frame_record(frame: &[u8], now: SimTime) -> TraceRecord {
        let stream = peek_stream(frame);
        TraceRecord {
            stream: stream.map(|s| s.to_raw()),
            sensor: stream.map(|s| s.sensor().as_u32()),
            ..TraceRecord::new(
                now.as_micros(),
                TraceStage::Filtering,
                TraceEventKind::Frame,
                TraceOutcome::Delivered,
            )
        }
    }

    /// The record for one event hop. Pure on the event and the
    /// simulated time.
    pub(crate) fn event_record(ev: &ServiceEvent, now: SimTime, root: Option<u64>) -> TraceRecord {
        use ServiceEvent::*;
        let at = now.as_micros();
        let base = |stage, kind| TraceRecord::new(at, stage, kind, TraceOutcome::Delivered);
        let mut rec = match ev {
            Frame { frame, .. } => frame_record(frame, now),
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
                TraceRecord {
                    stream,
                    sensor,
                    ..base(TraceStage::Actuation, TraceEventKind::Submit)
                }
            }
            Replicate { request, .. } => {
                let (stream, sensor) = target_ids(&request.target);
                TraceRecord {
                    stream,
                    sensor,
                    ..base(TraceStage::Control, TraceEventKind::Replicate)
                }
            }
            ActuationTick => base(TraceStage::Actuation, TraceEventKind::ActuationTick),
            StateReported { .. } => base(TraceStage::Control, TraceEventKind::StateReported),
        };
        rec.root = root;
        rec
    }
}
