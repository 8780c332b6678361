//! The Actuation Service: stamps, tracks and retries stream update
//! requests.
//!
//! "The Actuation Service next processes the request with timestamps, and
//! checksums, before forwarding to the message replicator" (§4.2). The
//! wireless downlink is as lossy as the uplink, so the service also owns
//! reliability: it allocates the [`RequestId`] used in sensor
//! acknowledgements (§4.3's piggy-backed ack field), watches for those
//! acks, and retransmits unacknowledged requests a bounded number of
//! times.

use std::collections::HashMap;

use garnet_simkit::{Histogram, SimDuration, SimTime};
use garnet_wire::{AckStatus, ActuationTarget, RequestId, SensorCommand, StreamUpdateRequest};

/// How long to wait for the first acknowledgement. Each retransmission
/// doubles the wait (`ACK_TIMEOUT * 2^attempt`), up to [`BACKOFF_CAP`],
/// so a congested downlink is not hammered at a fixed cadence.
const ACK_TIMEOUT: SimDuration = SimDuration::from_secs(5);
/// Retransmissions before a request is given up.
const MAX_RETRIES: u32 = 2;
/// Upper bound on the per-attempt wait under exponential backoff: an
/// overflow guard, not a tuning knob. With [`MAX_RETRIES`] at 2 the
/// waits are 5, 10 and 20 s, so the cap never binds in the product;
/// `backoff_saturates_at_the_cap` and
/// `huge_attempt_counts_do_not_overflow_the_backoff` raise a request's
/// retries by hand to pin it.
const BACKOFF_CAP: SimDuration = SimDuration::from_secs(60);

/// Terminal outcome of a tracked request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RequestOutcome {
    /// A sensor acknowledged with the given status.
    Acknowledged(AckStatus),
    /// All retries elapsed without an acknowledgement.
    TimedOut,
}

/// The wait before attempt `attempt`'s acknowledgement deadline:
/// `ACK_TIMEOUT * 2^attempt`, saturating at [`BACKOFF_CAP`].
fn backoff_delay(attempt: u32) -> SimDuration {
    let scaled = 1u64
        .checked_shl(attempt)
        .and_then(|factor| ACK_TIMEOUT.checked_mul(factor))
        .unwrap_or(BACKOFF_CAP);
    scaled.min(BACKOFF_CAP)
}

#[derive(Debug)]
struct Pending {
    request: StreamUpdateRequest,
    submitted_at: SimTime,
    deadline: SimTime,
    retries_left: u32,
    /// Transmissions already made minus one: 0 after the initial send,
    /// bumped on every retransmission to widen the next wait.
    attempt: u32,
}

/// The Actuation Service.
///
/// # Example
///
/// ```
/// use garnet_core::actuation::ActuationService;
/// use garnet_simkit::SimTime;
/// use garnet_wire::{AckStatus, ActuationTarget, SensorCommand, SensorId};
///
/// // 5 s to the first retransmission, 10 s more to the second, then
/// // 20 s more until the request is given up (exponential backoff).
/// let mut act = ActuationService::new();
/// let req = act.submit(
///     ActuationTarget::Sensor(SensorId::new(1)?),
///     SensorCommand::Ping,
///     0,
///     SimTime::ZERO,
/// );
/// assert_eq!(act.in_flight(), 1);
/// let outcome = act.on_ack(req.request_id, AckStatus::Applied, SimTime::from_millis(40));
/// assert!(outcome.is_some());
/// assert_eq!(act.in_flight(), 0);
/// # Ok::<(), garnet_wire::WireError>(())
/// ```
#[derive(Debug)]
pub struct ActuationService {
    next_id: RequestId,
    pending: HashMap<u32, Pending>,
    ack_latency_us: Histogram,
    submitted: u64,
    acknowledged: u64,
    timed_out: u64,
    retransmissions: u64,
}

impl Default for ActuationService {
    fn default() -> Self {
        Self::new()
    }
}

impl ActuationService {
    /// Creates the service.
    pub fn new() -> Self {
        ActuationService {
            next_id: RequestId::new(1),
            pending: HashMap::new(),
            ack_latency_us: Histogram::new(),
            submitted: 0,
            acknowledged: 0,
            timed_out: 0,
            retransmissions: 0,
        }
    }

    /// Accepts an approved request: allocates its id, stamps the issue
    /// time, and returns the wire-ready request for the Message
    /// Replicator. The request is tracked until acknowledged or timed
    /// out.
    ///
    /// Ids count up and wrap at 2^32; an id still pending is skipped,
    /// so a new request never replaces a tracked one.
    pub fn submit(
        &mut self,
        target: ActuationTarget,
        command: SensorCommand,
        priority: u8,
        now: SimTime,
    ) -> StreamUpdateRequest {
        let mut request_id = self.next_id;
        while self.pending.contains_key(&request_id.as_u32()) {
            request_id = request_id.next();
        }
        self.next_id = request_id.next();
        let request = StreamUpdateRequest {
            request_id,
            target,
            command,
            issued_at_us: now.as_micros(),
            priority,
        };
        self.pending.insert(
            request_id.as_u32(),
            Pending {
                request,
                submitted_at: now,
                deadline: now.saturating_add(backoff_delay(0)),
                retries_left: MAX_RETRIES,
                attempt: 0,
            },
        );
        self.submitted += 1;
        request
    }

    /// Records an acknowledgement (from a piggy-backed data-message field
    /// or a standalone ack). Returns the outcome if the id was in
    /// flight; duplicate and unknown acks return `None`.
    pub fn on_ack(
        &mut self,
        request_id: RequestId,
        status: AckStatus,
        now: SimTime,
    ) -> Option<RequestOutcome> {
        let pending = self.pending.remove(&request_id.as_u32())?;
        self.acknowledged += 1;
        self.ack_latency_us.record(now.saturating_since(pending.submitted_at).as_micros());
        Some(RequestOutcome::Acknowledged(status))
    }

    /// Harvests due retransmissions and expirations at `now`. Returns
    /// requests to retransmit plus requests that finally timed out.
    pub(crate) fn on_tick(
        &mut self,
        now: SimTime,
    ) -> (Vec<StreamUpdateRequest>, Vec<StreamUpdateRequest>) {
        let mut retransmit = Vec::new();
        let mut expired = Vec::new();
        self.pending.retain(|_, p| {
            if p.deadline > now {
                return true;
            }
            if p.retries_left > 0 {
                p.retries_left -= 1;
                p.attempt += 1;
                p.deadline = now.saturating_add(backoff_delay(p.attempt));
                self.retransmissions += 1;
                retransmit.push(p.request);
                true
            } else {
                self.timed_out += 1;
                expired.push(p.request);
                false
            }
        });
        // Deterministic order for downstream processing.
        retransmit.sort_by_key(|r| r.request_id.as_u32());
        expired.sort_by_key(|r| r.request_id.as_u32());
        (retransmit, expired)
    }

    /// The earliest pending deadline, for scheduling the next tick.
    pub(crate) fn next_deadline(&self) -> Option<SimTime> {
        self.pending.values().map(|p| p.deadline).min()
    }

    /// Requests currently awaiting acknowledgement.
    pub fn in_flight(&self) -> usize {
        self.pending.len()
    }

    /// Requests submitted so far.
    pub fn submitted_count(&self) -> u64 {
        self.submitted
    }

    /// Requests acknowledged.
    pub fn acknowledged_count(&self) -> u64 {
        self.acknowledged
    }

    /// Requests abandoned after retries.
    pub fn timeout_count(&self) -> u64 {
        self.timed_out
    }

    /// Retransmissions sent.
    pub fn retransmission_count(&self) -> u64 {
        self.retransmissions
    }

    /// Ack latency distribution (µs).
    pub(crate) fn ack_latency(&self) -> &Histogram {
        &self.ack_latency_us
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use garnet_wire::SensorId;

    fn svc() -> ActuationService {
        ActuationService::new()
    }

    /// Gives every pending request `retries` retransmissions left, for
    /// the tests that need more (or fewer) than [`MAX_RETRIES`].
    fn set_retries(a: &mut ActuationService, retries: u32) {
        a.pending.values_mut().for_each(|p| p.retries_left = retries);
    }

    fn target() -> ActuationTarget {
        ActuationTarget::Sensor(SensorId::new(1).unwrap())
    }

    #[test]
    fn submit_stamps_and_allocates_unique_ids() {
        let mut a = svc();
        let r1 = a.submit(target(), SensorCommand::Ping, 0, SimTime::from_millis(5));
        let r2 = a.submit(target(), SensorCommand::Ping, 0, SimTime::from_millis(6));
        assert_ne!(r1.request_id, r2.request_id);
        assert_eq!(r1.issued_at_us, 5_000);
        assert_eq!(a.in_flight(), 2);
        assert_eq!(a.submitted_count(), 2);
    }

    #[test]
    fn wrapped_ids_skip_pending_requests_and_the_ledger_holds() {
        let mut a = svc();
        let first = a.submit(target(), SensorCommand::Ping, 0, SimTime::ZERO);
        assert_eq!(first.request_id, RequestId::new(1));
        a.next_id = RequestId::new(u32::MAX);
        let ids: Vec<u32> = (0..3)
            .map(|_| a.submit(target(), SensorCommand::Ping, 0, SimTime::ZERO).request_id.as_u32())
            .collect();
        assert_eq!(ids, [u32::MAX, 0, 2]);
        assert_eq!(a.in_flight(), 4);
        let (submitted, settled) =
            (a.submitted_count(), a.acknowledged_count() + a.timeout_count());
        assert_eq!(submitted, settled + a.in_flight() as u64);
    }

    #[test]
    fn ack_completes_and_records_latency() {
        let mut a = svc();
        let r = a.submit(target(), SensorCommand::Ping, 0, SimTime::ZERO);
        let out = a.on_ack(r.request_id, AckStatus::Applied, SimTime::from_millis(30));
        assert_eq!(out, Some(RequestOutcome::Acknowledged(AckStatus::Applied)));
        assert_eq!(a.in_flight(), 0);
        assert_eq!(a.acknowledged_count(), 1);
        assert_eq!(a.ack_latency().count(), 1);
        assert_eq!(a.ack_latency().max(), 30_000);
    }

    #[test]
    fn duplicate_ack_ignored() {
        let mut a = svc();
        let r = a.submit(target(), SensorCommand::Ping, 0, SimTime::ZERO);
        assert!(a.on_ack(r.request_id, AckStatus::Applied, SimTime::from_millis(1)).is_some());
        assert!(a.on_ack(r.request_id, AckStatus::Applied, SimTime::from_millis(2)).is_none());
        assert_eq!(a.acknowledged_count(), 1);
    }

    #[test]
    fn unknown_ack_ignored() {
        let mut a = svc();
        assert!(a.on_ack(RequestId::new(999), AckStatus::Applied, SimTime::ZERO).is_none());
    }

    #[test]
    fn retransmit_then_expire_with_exponential_backoff() {
        let mut a = svc();
        let r = a.submit(target(), SensorCommand::Ping, 0, SimTime::ZERO);
        // First deadline at 5 s (timeout * 2^0): retry 1, next wait 10 s.
        let (retry, dead) = a.on_tick(SimTime::from_secs(5));
        assert_eq!(retry.len(), 1);
        assert_eq!(retry[0].request_id, r.request_id);
        assert!(dead.is_empty());
        assert_eq!(a.next_deadline(), Some(SimTime::from_secs(15)));
        // Not due before the widened deadline.
        let (retry, dead) = a.on_tick(SimTime::from_secs(10));
        assert!(retry.is_empty() && dead.is_empty());
        // Second deadline at 15 s: retry 2, next wait 20 s.
        let (retry, dead) = a.on_tick(SimTime::from_secs(15));
        assert_eq!(retry.len(), 1);
        assert!(dead.is_empty());
        assert_eq!(a.next_deadline(), Some(SimTime::from_secs(35)));
        // Third deadline at 35 s: out of retries.
        let (retry, dead) = a.on_tick(SimTime::from_secs(35));
        assert!(retry.is_empty());
        assert_eq!(dead.len(), 1);
        assert_eq!(a.timeout_count(), 1);
        assert_eq!(a.retransmission_count(), 2);
        assert_eq!(a.in_flight(), 0);
    }

    #[test]
    fn backoff_saturates_at_the_cap() {
        let mut a = svc();
        a.submit(target(), SensorCommand::Ping, 0, SimTime::ZERO);
        set_retries(&mut a, 5);
        // Waits: 5 s, 10 s, 20 s, 40 s, then pinned at the 60 s cap.
        for (tick, next) in [(5, 15), (15, 35), (35, 75), (75, 135), (135, 195)] {
            let (retry, dead) = a.on_tick(SimTime::from_secs(tick));
            assert_eq!(retry.len(), 1, "tick at {tick} s should retransmit");
            assert!(dead.is_empty());
            assert_eq!(a.next_deadline(), Some(SimTime::from_secs(next)));
        }
        let (retry, dead) = a.on_tick(SimTime::from_secs(195));
        assert!(retry.is_empty());
        assert_eq!(dead.len(), 1);
    }

    #[test]
    fn huge_attempt_counts_do_not_overflow_the_backoff() {
        let mut a = svc();
        a.submit(target(), SensorCommand::Ping, 0, SimTime::ZERO);
        set_retries(&mut a, 200);
        let mut now = SimTime::ZERO;
        for _ in 0..150 {
            now = a.next_deadline().expect("still pending");
            let (retry, dead) = a.on_tick(now);
            assert_eq!(retry.len(), 1);
            assert!(dead.is_empty());
        }
        // Attempt 150 would shift 1 << 150 without the checked math;
        // the wait just sits at the cap instead.
        assert_eq!(a.next_deadline(), Some(now.saturating_add(BACKOFF_CAP)));
    }

    #[test]
    fn ack_after_retransmission_still_counts() {
        let mut a = svc();
        let r = a.submit(target(), SensorCommand::Ping, 0, SimTime::ZERO);
        let _ = a.on_tick(SimTime::from_secs(5)); // one retry goes out
        let out = a.on_ack(r.request_id, AckStatus::Deferred, SimTime::from_millis(7500));
        assert_eq!(out, Some(RequestOutcome::Acknowledged(AckStatus::Deferred)));
        let (retry, dead) = a.on_tick(SimTime::from_secs(50));
        assert!(retry.is_empty() && dead.is_empty());
    }

    #[test]
    fn next_deadline_tracks_earliest() {
        let mut a = svc();
        assert_eq!(a.next_deadline(), None);
        a.submit(target(), SensorCommand::Ping, 0, SimTime::ZERO);
        a.submit(target(), SensorCommand::Ping, 0, SimTime::from_millis(500));
        assert_eq!(a.next_deadline(), Some(SimTime::from_secs(5)));
    }

    #[test]
    fn fire_and_forget_mode() {
        let mut a = svc();
        a.submit(target(), SensorCommand::Ping, 0, SimTime::ZERO);
        set_retries(&mut a, 0);
        let (retry, dead) = a.on_tick(SimTime::from_secs(5));
        assert!(retry.is_empty());
        assert_eq!(dead.len(), 1);
    }

    #[test]
    fn tick_output_is_sorted_by_request_id() {
        let mut a = svc();
        for _ in 0..10 {
            a.submit(target(), SensorCommand::Ping, 0, SimTime::ZERO);
        }
        let (retry, _) = a.on_tick(SimTime::from_secs(5));
        let ids: Vec<u32> = retry.iter().map(|r| r.request_id.as_u32()).collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        assert_eq!(ids, sorted);
    }
}
