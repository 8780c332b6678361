//! Sharded ingest ≡ unsharded ingest: partitioning the filtering hot
//! path by sensor id must never change what is delivered, in what
//! per-stream order, or what the counters say. The simulation driver
//! relies on this equivalence to keep every experiment bit-reproducible
//! regardless of `ingest_shards`.

use garnet::core::filtering::{FilterConfig, FrameArrival};
use garnet::core::router::ShardedIngest;
use garnet::radio::ReceiverId;
use garnet::simkit::SimTime;
use garnet::wire::{DataMessage, SensorId, SequenceNumber, StreamId, StreamIndex};

use proptest::prelude::*;

fn frame(sensor: u32, index: u8, seq: u16) -> Vec<u8> {
    let stream = StreamId::new(SensorId::new(sensor).unwrap(), StreamIndex::new(index));
    DataMessage::builder(stream)
        .seq(SequenceNumber::new(seq))
        .payload(vec![seq as u8, index])
        .build()
        .unwrap()
        .encode_to_vec()
}

fn arrival(frame: garnet::wire::FrameBytes, at: SimTime) -> FrameArrival {
    FrameArrival { receiver: ReceiverId::new(0), rssi_dbm: -40.0, frame, at }
}

/// A delivery log: (raw stream id, sequence number) in delivery order.
type DeliveryLog = Vec<(u32, u16)>;
/// The aggregate counter tuple: (delivered, duplicates, reordered,
/// gaps, restarts, streams).
type Counters = (u64, u64, u64, u64, u64, usize);

/// Replays `schedule` (frame bytes + arrival time) through an ingest
/// stage with `shards` partitions, flushing reorder buffers at the end,
/// and returns the (stream, seq) delivery log plus the counter tuple.
fn replay(schedule: &[(Vec<u8>, SimTime)], shards: usize) -> (DeliveryLog, Counters) {
    let mut ingest = ShardedIngest::new(FilterConfig::default(), shards);
    let mut log: Vec<(u32, u16)> = Vec::new();
    let mut last = SimTime::ZERO;
    for (bytes, at) in schedule {
        let result = ingest.on_batch(&[arrival(bytes.clone().into(), *at)]).pop().unwrap();
        log.extend(
            result.deliveries.iter().map(|d| (d.msg.stream().to_raw(), d.msg.seq().as_u16())),
        );
        last = *at;
    }
    let flushed = ingest.on_tick(last.saturating_add(garnet::simkit::SimDuration::from_secs(60)));
    log.extend(flushed.iter().map(|d| (d.msg.stream().to_raw(), d.msg.seq().as_u16())));
    let stats = ingest.stats();
    let counters = (
        stats.delivered_count(),
        stats.duplicate_count(),
        stats.reordered_count(),
        stats.gap_count(),
        stats.restart_count(),
        stats.stream_count(),
    );
    (log, counters)
}

/// Projects a delivery log onto one stream's sequence-number order.
fn per_stream(log: &[(u32, u16)], raw: u32) -> Vec<u16> {
    log.iter().filter(|(r, _)| *r == raw).map(|(_, s)| *s).collect()
}

proptest! {
    // A messy multi-sensor arrival schedule — duplicates, adjacent
    // swaps, drops — delivers the same per-stream sequences and the
    // same aggregate counters at every shard count.
    #[test]
    fn shard_count_invariant_under_noise(
        sensors in 2u32..7,
        n in 1u16..60,
        dup_mask in proptest::collection::vec(0u8..4, 60),
        swap_mask in proptest::collection::vec(proptest::bool::ANY, 60),
        drop_mask in proptest::collection::vec(0u8..8, 60),
    ) {
        // Build one interleaved schedule over all sensors.
        let mut schedule: Vec<(Vec<u8>, SimTime)> = Vec::new();
        let mut t = 0u64;
        for seq in 0..n {
            for sensor in 1..=sensors {
                let i = (seq as usize + sensor as usize) % dup_mask.len();
                if drop_mask[i] == 0 {
                    continue; // dropped in flight
                }
                let copies = 1 + usize::from(dup_mask[i] % 2);
                for _ in 0..copies {
                    schedule.push((frame(sensor, 0, seq), SimTime::from_millis(t)));
                    t += 1;
                }
            }
        }
        // Adjacent swaps to simulate receiver-path reordering.
        let mut k = 0;
        while k + 1 < schedule.len() {
            if swap_mask[k % swap_mask.len()] {
                schedule.swap(k, k + 1);
            }
            k += 2;
        }

        let (base_log, base_counters) = replay(&schedule, 1);
        for shards in [2usize, 4, 8] {
            let (log, counters) = replay(&schedule, shards);
            prop_assert_eq!(counters, base_counters, "counters diverged at {} shards", shards);
            for sensor in 1..=sensors {
                let raw = StreamId::new(
                    SensorId::new(sensor).unwrap(),
                    StreamIndex::new(0),
                ).to_raw();
                prop_assert_eq!(
                    per_stream(&log, raw),
                    per_stream(&base_log, raw),
                    "sensor {} diverged at {} shards", sensor, shards
                );
            }
        }
    }
}

#[test]
fn corrupt_frames_shard_deterministically() {
    // A frame with a valid header prefix but corrupt body must charge
    // its CRC failure to the same shard every time, so aggregate
    // counters stay shard-invariant.
    let mut good = frame(3, 0, 0);
    let idx = good.len() - 3;
    good[idx] ^= 0xFF; // corrupt payload, leave stream id intact
    let good: garnet::wire::FrameBytes = good.into();
    let mut base = None;
    for shards in [1usize, 2, 4, 8] {
        let mut ingest = ShardedIngest::new(FilterConfig::default(), shards);
        ingest.on_batch(&[arrival(good.clone(), SimTime::ZERO)]);
        let stats = ingest.stats();
        let counters = (stats.crc_failure_count(), stats.delivered_count());
        match &base {
            None => base = Some(counters),
            Some(b) => assert_eq!(&counters, b, "shards={shards}"),
        }
    }
    assert_eq!(base, Some((1, 0)));
}
