//! The allocation budget of the frame path (ROADMAP item 3's "zero
//! allocator calls per frame in steady state").
//!
//! Between `Garnet::on_frames` and `Consumer::on_data` nothing is
//! allocated per frame: the filter result holds its one delivery
//! inline and is turned into queued events before the next frame is
//! filtered, a routed message is one `Deliver` output whatever its
//! fan-out, and every buffer on the way (the router queue, the
//! router→facade output buffer) is reused. Nothing is allocated per
//! burst either, under unbounded admission or an armed admission
//! scheduler. A subscription costs no allocation of its own either: a
//! key with one subscriber is held inline, so only map growth allocates,
//! and a churned key reuses its set. Measured with a counting global
//! allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::rc::Rc;

use garnet::core::consumer::{Consumer, ConsumerCtx};
use garnet::core::dispatching::DispatchingService;
use garnet::core::filtering::Delivery;
use garnet::core::middleware::{Garnet, GarnetConfig};
use garnet::core::resource::{MediationPolicy, ResourceManager};
use garnet::core::router::{OverloadConfig, OverloadPolicy};
use garnet::core::{AuthService, Capability, CapabilitySet, Principal, SubscriberId, TopicFilter};
use garnet::radio::ReceiverId;
use garnet::simkit::{SimTime, TraceConfig, Tracer};
use garnet::wire::{
    ActuationTarget, DataMessage, FrameBytes, SensorCommand, SensorId, SequenceNumber, StreamId,
    StreamIndex,
};

thread_local! {
    /// Allocator calls made by this thread. Per thread, so tests running
    /// beside this one are not counted; the facade does all its work on
    /// the calling thread.
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn note() {
    // `try_with`: the allocator is still called while a thread's locals
    // are being torn down.
    let _ = CALLS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter touches no
// allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: the caller's `layout` obligations pass straight through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: `ptr` and `layout` come from this allocator, which is
        // `System` underneath.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const STREAMS: u32 = 64;
const FAN_OUT: usize = 4;
const WARM_UP: u16 = 20;
const COUNTED: u16 = 100;

/// Counts its deliveries where the test can read them.
struct Tally(Rc<Cell<u64>>);

impl Consumer for Tally {
    fn name(&self) -> &str {
        "tally"
    }
    fn on_data(&mut self, _d: &Delivery, _ctx: &mut ConsumerCtx) {
        self.0.set(self.0.get() + 1);
    }
}

/// Burst `seq`: one in-order frame on each of [`STREAMS`] streams.
fn burst(seq: u16) -> Vec<(ReceiverId, f64, FrameBytes)> {
    (1..=STREAMS)
        .map(|sensor| {
            let stream = StreamId::new(SensorId::new(sensor).unwrap(), StreamIndex::new(0));
            let frame = DataMessage::builder(stream)
                .seq(SequenceNumber::new(seq))
                .payload(vec![sensor as u8, seq as u8])
                .build()
                .unwrap()
                .encode_to_vec();
            (ReceiverId::new(0), -50.0, FrameBytes::from(frame))
        })
        .collect()
}

/// Allocator calls made over [`COUNTED`] bursts through
/// `Garnet::on_frames`, after [`WARM_UP`] bursts have grown every
/// reusable buffer and made every stream resident.
fn allocator_calls(config: GarnetConfig) -> u64 {
    let mut g = Garnet::new(config);
    let token = g.issue_default_token("budget");
    let tallies: Vec<Rc<Cell<u64>>> = (0..FAN_OUT)
        .map(|_| {
            let tally = Rc::new(Cell::new(0));
            let id = g
                .register_consumer(Box::new(Tally(Rc::clone(&tally))), &token, 0)
                .expect("fresh facade accepts a consumer");
            g.subscribe(id, TopicFilter::All, &token).expect("subscribe with a fresh token");
            tally
        })
        .collect();
    // The input is the caller's: build it before the count starts.
    let bursts: Vec<_> = (0..WARM_UP + COUNTED).map(burst).collect();
    let mut before = 0;
    for (i, frames) in bursts.into_iter().enumerate() {
        if i == usize::from(WARM_UP) {
            before = CALLS.with(Cell::get);
        }
        g.on_frames(frames, SimTime::from_millis(i as u64));
    }
    let calls = CALLS.with(Cell::get) - before;
    // The path under the budget is the whole path: every frame reached
    // every consumer.
    let per_consumer = u64::from(WARM_UP + COUNTED) * u64::from(STREAMS);
    for tally in tallies {
        assert_eq!(tally.get(), per_consumer);
    }
    calls
}

#[test]
fn steady_state_frame_path_allocates_less_than_a_quarter_call_per_frame() {
    // Unbounded admission: the burst's `Vec` is the caller's, filtering
    // queues each frame's events as it goes, and every other buffer is
    // reused, so a warm burst makes no allocator call at all.
    let calls = allocator_calls(GarnetConfig::default());
    assert_eq!(calls, 0, "unbounded admission: {calls} allocator calls in {COUNTED} bursts");
    // A bound the bursts fit under (the scheduler governs admission
    // without shedding): the scheduler hands its survivors to the
    // router straight out of its queue, so that allocates nothing
    // either.
    let overload =
        Some(OverloadConfig { capacity: 2 * STREAMS as usize, policy: OverloadPolicy::Block });
    let calls = allocator_calls(GarnetConfig { overload, ..GarnetConfig::default() });
    assert_eq!(calls, 0, "overload {overload:?}: {calls} allocator calls in {COUNTED} bursts");
    // Those runs carried the flight recorder, off (`trace_capacity: 0`,
    // the default): off means it builds no record and owns no storage.
    let mut tracer = Tracer::new(TraceConfig { capacity: 0 });
    let before = CALLS.with(Cell::get);
    for _ in 0..10_000 {
        tracer.record(|| unreachable!("the recorder is off: no record is built"));
    }
    assert_eq!(CALLS.with(Cell::get) - before, 0, "a recorder that is off must not allocate");
}

#[test]
fn warm_match_cache_hit_allocates_nothing() {
    // The dispatch hot path under the budget above: once a stream's
    // match set is cached in its row, routing it finds the row, checks
    // its slot and bumps a refcount — no allocator call at all, whatever
    // the fan-out or the population of other subscriptions.
    let hot = stream(42);
    let mut dispatch = DispatchingService::new();
    for _ in 0..16 {
        let id = dispatch.register_subscriber();
        dispatch.subscribe(id, TopicFilter::Stream(hot));
    }
    for i in 0..1_000u32 {
        let id = dispatch.register_subscriber();
        dispatch.subscribe(id, TopicFilter::Stream(stream(1_000 + i)));
    }
    // The cold route makes the stream's row and allocates the shared
    // slice.
    let cold = dispatch.route(hot);
    assert!(cold.rebuilt);
    assert_eq!(cold.recipients.len(), 16);
    drop(cold);
    let before = CALLS.with(Cell::get);
    for _ in 0..10_000 {
        let out = dispatch.route(hot);
        assert!(!out.rebuilt, "a warm route is a cache hit");
        std::hint::black_box(out.recipients.len());
    }
    assert_eq!(CALLS.with(Cell::get) - before, 0, "a warm route must be allocation-free");
}

/// Allocator calls made by `f` on this thread.
fn calls_in(f: impl FnOnce()) -> u64 {
    let before = CALLS.with(Cell::get);
    f();
    CALLS.with(Cell::get) - before
}

fn stream(sensor: u32) -> StreamId {
    StreamId::new(SensorId::new(sensor).unwrap(), StreamIndex::new(0))
}

#[test]
fn a_one_subscriber_key_costs_no_allocation() {
    // 64 000 keys of one subscriber each: the two maps' growth (a
    // doubling each, ≈ 16 apiece) is all that allocates.
    let mut dispatch = DispatchingService::new();
    let ids: Vec<_> = (0..64_000).map(|_| dispatch.register_subscriber()).collect();
    let calls = calls_in(|| {
        for (sensor, &id) in (1..).zip(&ids) {
            assert!(dispatch.subscribe(id, TopicFilter::Stream(stream(sensor))));
        }
    });
    assert!(calls <= 64, "64 000 one-subscriber Stream subscriptions: {calls} allocator calls");
    assert_eq!(dispatch.subscriber_count(), 64_000);
}

#[test]
fn churning_a_shared_key_allocates_nothing() {
    // churn-fanout's per-burst write: one of a Sensor key's 16
    // subscribers leaves it and comes back.
    let mut dispatch = DispatchingService::new();
    let sensor = TopicFilter::Sensor(SensorId::new(7).unwrap());
    let ids: Vec<_> = (0..16).map(|_| dispatch.register_subscriber()).collect();
    for &id in &ids {
        dispatch.subscribe(id, sensor);
    }
    let calls = calls_in(|| {
        for i in 0..1_000 {
            let id = ids[i % ids.len()];
            assert!(dispatch.unsubscribe(id, sensor));
            assert!(dispatch.subscribe(id, sensor));
        }
    });
    assert_eq!(calls, 0, "1 000 unsubscribe + resubscribe pairs: {calls} allocator calls");
}

#[test]
fn facade_stream_subscriptions_allocate_only_map_growth() {
    // The consumer's own token costs no MAC, a Stream filter claims its
    // one stream in place, and the table holds each key inline.
    let mut g = Garnet::new(GarnetConfig::default());
    let token = g.issue_default_token("budget");
    let tally = Rc::new(Cell::new(0));
    let id = g.register_consumer(Box::new(Tally(Rc::clone(&tally))), &token, 0).unwrap();
    let calls = calls_in(|| {
        for sensor in 1..=10_000 {
            let (replayed, _) =
                g.subscribe(id, TopicFilter::Stream(stream(sensor)), &token).unwrap();
            assert_eq!(replayed, 0);
        }
    });
    assert!(calls <= 64, "10 000 facade Stream subscriptions: {calls} allocator calls");
}

#[test]
fn verifying_a_token_allocates_nothing() {
    let auth = AuthService::new(*b"budget-auth-key!");
    let name = "a-principal-whose-name-runs-past-sixty-four-bytes-of-canonical-encoding";
    let token = auth.issue(Principal::new(name), CapabilitySet::all(), 1_000);
    let calls = calls_in(|| {
        for now in 0..1_000 {
            assert!(auth.verify(&token, now, Capability::Subscribe));
        }
    });
    assert_eq!(calls, 0, "1 000 full verifications: {calls} allocator calls");
}

#[test]
fn a_command_with_no_mediated_value_is_granted_without_an_allocation() {
    // overload-qos's one actuation per burst: a Ping carries nothing to
    // mediate, so the manager grants it as it is and builds nothing.
    let mut rm = ResourceManager::new(MediationPolicy::MergeMax);
    let target = ActuationTarget::Sensor(SensorId::new(5).unwrap());
    let calls = calls_in(|| {
        for n in 0..1_000 {
            let decision = rm.request(SubscriberId::new(n), 0, &target, &SensorCommand::Ping);
            assert!(decision.is_granted());
        }
    });
    assert_eq!(calls, 0, "1 000 Ping requests: {calls} allocator calls");
}

#[test]
fn a_consumer_joining_and_leaving_costs_its_token_and_nothing_else() {
    // churn-fanout's monitor joins and leaves every 256th burst holding
    // no filter: registering keeps a copy of its token (the principal's
    // name is one allocation) and departing frees it.
    let mut g = Garnet::new(GarnetConfig::default());
    let token = g.issue_default_token("a-monitor");
    let mut consumers: Vec<Box<dyn Consumer>> =
        (0..101).map(|_| Box::new(Tally(Rc::new(Cell::new(0)))) as Box<dyn Consumer>).collect();
    // One pair first, so the consumer list has its buffer.
    let id = g.register_consumer(consumers.pop().unwrap(), &token, 0).unwrap();
    g.deregister_consumer(id).unwrap();
    let calls = calls_in(|| {
        for consumer in consumers {
            let id = g.register_consumer(consumer, &token, 0).unwrap();
            g.deregister_consumer(id).unwrap();
        }
    });
    assert_eq!(calls, 100, "100 register + deregister pairs: {calls} allocator calls");
}
