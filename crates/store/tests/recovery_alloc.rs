//! Recovery counts a log without materialising it: the scan validates
//! each segment's records in place, so opening an archive allocates per
//! *segment* (the bytes read back, the report's lists), never per
//! record. Measured with a counting global allocator, the
//! `tests/alloc_budget.rs` pattern.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use garnet_simkit::SimTime;
use garnet_store::{ArchiveRecord, FrameArchive, MemStore, SegmentStore};
use garnet_wire::{
    AckStatus, DataMessage, FrameBytes, RequestId, SensorId, SequenceNumber, StreamId, StreamIndex,
};

thread_local! {
    /// Allocator calls made by this thread (tests running beside this
    /// one are not counted).
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

const SEGMENTS: u64 = 4;
const STREAMS: u32 = 4;

/// A store of `SEGMENTS` segments holding `per_segment` records each:
/// frames round-robin over `STREAMS` streams, every eighth record a tick
/// or an ack.
fn store_with(per_segment: u32) -> MemStore {
    let mut store = MemStore::new();
    let mut n = 0u32;
    for segment in 0..SEGMENTS {
        let mut bytes = Vec::new();
        for _ in 0..per_segment {
            let now = SimTime::from_micros(u64::from(n));
            let rec = match n % 8 {
                6 => ArchiveRecord::tick(now),
                7 => ArchiveRecord::ack(RequestId::new(n), AckStatus::Applied, now),
                _ => {
                    let stream =
                        StreamId::new(SensorId::new(1 + n % STREAMS).unwrap(), StreamIndex::new(0));
                    let wire = DataMessage::builder(stream)
                        .seq(SequenceNumber::new(n as u16))
                        .payload(vec![n as u8; 12])
                        .build()
                        .unwrap()
                        .encode_to_vec();
                    ArchiveRecord::frame(0, -50.0, FrameBytes::from(wire), now)
                }
            };
            rec.encode_into(&mut bytes);
            n += 1;
        }
        store.append(segment, &bytes).unwrap();
    }
    store
}

/// Allocator calls one recovery scan of `store` makes.
fn recover_calls(store: &mut MemStore, records: u64) -> u64 {
    let before = CALLS.with(Cell::get);
    let report = FrameArchive::recover(store).unwrap();
    let calls = CALLS.with(Cell::get) - before;
    assert_eq!(report.records, records);
    assert_eq!(report.frames + report.ticks + report.acks, records);
    assert_eq!(report.high_water.len(), STREAMS as usize);
    assert_eq!(report.truncation, None);
    calls
}

#[test]
fn recovery_allocates_per_segment_not_per_record() {
    let mut small = store_with(100);
    let mut large = store_with(5_000);
    let small_calls = recover_calls(&mut small, SEGMENTS * 100);
    let large_calls = recover_calls(&mut large, SEGMENTS * 5_000);
    // Fifty times the records, not one allocator call more …
    assert_eq!(large_calls, small_calls, "allocator calls grew with the record count");
    // … and what there is comes to a few calls per segment: the bytes
    // read back, the id list, the report's segment list and map.
    assert!(small_calls <= 4 * SEGMENTS, "{small_calls} calls for {SEGMENTS} segments");
}
