//! Glue between the service graph and the `garnet-simkit` flight
//! recorder: event→record mapping and the per-root trace buffers the
//! threaded driver merges back into canonical order.
//!
//! Everything here is feature-gated: with `trace` off the module
//! exports only the zero-sized [`RootTag`] alias, and every call site
//! in the routers is behind `#[cfg(feature = "trace")]` (or goes
//! through the no-op `Tracer`), so the hot path pays nothing.
//!
//! The canonical record order for one boundary event (the order the
//! single-threaded FIFO `Router` produces when that event is pumped to
//! quiescence, and the order [`RootTrace::emit`] reconstructs for the
//! threaded driver) is:
//!
//! 1. the boundary hop itself (`Frame` / `FlushReorder` / a tick's
//!    first control event),
//! 2. ingest-origin control hops (`Observed`, `AckReceived`) in
//!    emission order,
//! 3. `Filtered` dispatch hops in delivery order,
//! 4. dispatch-origin control hops (`Orphaned`) and the rest of the
//!    control cascade in FIFO order.
//!
//! This holds because no pre-dispatch control event ever cascades
//! (location, orphanage and ack handlers emit nothing), which is the
//! same property that makes the threaded `ControlGraph` worker
//! bit-identical to the single-threaded router.

/// The root-sequence tag carried by every queued event in the
/// single-threaded `Router` so trace records can attribute hops to the
/// boundary event they descend from. A real sequence number only when
/// tracing is compiled in; a zero-sized unit otherwise, so the queue
/// layout (and the hot path) is unchanged.
#[cfg(feature = "trace")]
pub(crate) type RootTag = u64;

/// Zero-sized twin of the root tag (the `trace` feature is off).
#[cfg(not(feature = "trace"))]
pub(crate) type RootTag = ();

#[cfg(feature = "trace")]
pub(crate) use imp::{event_record, frame_record, RootTrace};

#[cfg(feature = "trace")]
mod imp {
    use std::collections::VecDeque;

    use garnet_simkit::trace::{TraceEventKind, TraceOutcome, TraceRecord, TraceStage, Tracer};
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

    /// The canonical record for one event hop. Pure on the event, so a
    /// single-threaded pop and a threaded worker produce the same bytes
    /// for the same event at the same simulated time.
    pub(crate) fn event_record(ev: &ServiceEvent, now: SimTime, root: Option<u64>) -> TraceRecord {
        use ServiceEvent::*;
        let at = now.as_micros();
        let base = |stage, kind| TraceRecord::new(at, stage, kind, TraceOutcome::Delivered);
        let mut rec = match ev {
            Frame { frame, .. } => frame_record(frame, now),
            // Batches never reach the queue on the hot path (admission
            // splits them into per-frame entries so each hop gets its
            // own record); an externally enqueued batch is attributed
            // to its first frame's stream.
            FrameBatch(frames) => {
                frame_record(frames.first().map_or(&[][..], |f| &f.frame[..]), now)
            }
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

    /// One root's trace, buffered while its work is spread across the
    /// threaded driver's edges and emitted in canonical order when the
    /// root is released (so a threaded trace is comparable to the
    /// single-threaded one, modulo shard ids).
    #[derive(Debug, Default)]
    pub(crate) struct RootTrace {
        /// The boundary hop (frame or flush), recorded at entry.
        pre: Vec<TraceRecord>,
        /// Dispatch hops submitted but not yet completed by the B edge.
        dispatch_pending: VecDeque<TraceRecord>,
        /// Dispatch hops in completion order (== submission order per
        /// root).
        dispatch: Vec<TraceRecord>,
        /// The control worker's records, in its FIFO order.
        control: Vec<TraceRecord>,
        /// How many control events were queued before dispatch ran
        /// (the split point for canonical-order reconstruction).
        pre_c: usize,
    }

    impl RootTrace {
        /// Records the boundary hop itself.
        pub(crate) fn push_pre(&mut self, rec: TraceRecord) {
            self.pre.push(rec);
        }

        /// Marks the boundary hop lost to a worker failure.
        pub(crate) fn fail_pre(&mut self) {
            if let Some(rec) = self.pre.last_mut() {
                rec.outcome = TraceOutcome::Failed;
            }
        }

        /// Fixes the pre-dispatch control-event count once the root's
        /// filtering work has fully landed.
        pub(crate) fn set_pre_c(&mut self, n: usize) {
            self.pre_c = n;
        }

        /// Records a dispatch hop at B-submission time; completion (or
        /// failure) stamps its outcome in arrival order.
        pub(crate) fn push_dispatch(&mut self, rec: TraceRecord) {
            self.dispatch_pending.push_back(rec);
        }

        /// One dispatch job landed (`ok`) or was lost to a worker
        /// failure. `rebuilt` marks that the dispatch shard's match
        /// cache (re)built the hop's match set, which appends a
        /// `CacheRebuild` record right after the `Filtered` one — the
        /// same adjacency the single-threaded router produces.
        pub(crate) fn complete_dispatch(&mut self, ok: bool, rebuilt: bool) {
            if let Some(mut rec) = self.dispatch_pending.pop_front() {
                if !ok {
                    rec.outcome = TraceOutcome::Failed;
                }
                self.dispatch.push(rec);
                if ok && rebuilt {
                    self.dispatch.push(TraceRecord { kind: TraceEventKind::CacheRebuild, ..rec });
                }
            }
        }

        /// Adopts the control worker's records for this root.
        pub(crate) fn set_control(&mut self, recs: Vec<TraceRecord>) {
            self.control = recs;
        }

        /// Emits the root's records in canonical order (module docs),
        /// stamping every record with the root sequence number and
        /// feeding per-stage occupancy with the driver's in-flight root
        /// count (timing-dependent; excluded from determinism claims).
        pub(crate) fn emit(mut self, root: u64, in_flight: u64, tracer: &mut Tracer) {
            // Jobs that never completed (shouldn't happen: failures
            // complete them) still surface rather than vanish.
            while let Some(mut rec) = self.dispatch_pending.pop_front() {
                rec.outcome = TraceOutcome::Failed;
                self.dispatch.push(rec);
            }
            let split = self.pre_c.min(self.control.len());
            let post = self.control.split_off(split);
            for mut rec in self.pre.into_iter().chain(self.control).chain(self.dispatch).chain(post)
            {
                rec.root = Some(root);
                tracer.note_occupancy(rec.stage, in_flight);
                tracer.record(|| rec);
            }
        }
    }
}
