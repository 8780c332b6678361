//! The on-disk segment format did not move: a three-record segment
//! (Frame, Tick, Ack) written by the commit *before* the slice-by-8 CRC
//! kernels must decode, re-encode to the identical bytes, recover in
//! full, and reject every one-bit flip.

use garnet_simkit::SimTime;
use garnet_store::{ArchiveRecord, FrameArchive, MemStore, SegmentStore};
use garnet_wire::crc::crc32;
use garnet_wire::{AckStatus, FrameBytes, RequestId};

const ARCHIVE_SEGMENT: [u8; 105] = [
    0xA7, 0x01, 0x36, 0x00, 0x00, 0x00, 0x41, 0x42, 0x0F, 0x00, 0x00, 0x00, 0x00, 0x00, 0x05, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xA0, 0x49, 0xC0, 0x44, 0xAB, 0xCD, 0xEF, 0x03, 0xFF,
    0xFE, 0x00, 0x13, 0xDE, 0xAD, 0x00, 0x01, 0x67, 0x61, 0x72, 0x6E, 0x65, 0x74, 0x20, 0x67, 0x6F,
    0x6C, 0x64, 0x65, 0x6E, 0x20, 0x66, 0x72, 0x61, 0x6D, 0x65, 0xA9, 0xAE, 0xFA, 0xCE, 0x3E, 0x82,
    0xA7, 0x02, 0x08, 0x00, 0x00, 0x00, 0x34, 0x44, 0x0F, 0x00, 0x00, 0x00, 0x00, 0x00, 0xB0, 0x39,
    0xA4, 0xDC, 0xA7, 0x03, 0x0D, 0x00, 0x00, 0x00, 0xC4, 0x45, 0x0F, 0x00, 0x00, 0x00, 0x00, 0x00,
    0x01, 0x00, 0xAD, 0xDE, 0x02, 0x22, 0x16, 0x88, 0x2F,
];

/// `crc32` over `record ‖ crc32(record)` with the trailer little-endian.
const CRC32_RESIDUE: u32 = 0x2144_DF1C;

fn expected_records() -> [ArchiveRecord; 3] {
    // The archived frame is `crates/wire/tests/golden_bytes.rs`'s
    // DATA_FRAME_ACKED, i.e. bytes 26..60 of the first record.
    let frame = FrameBytes::copy_from_slice(&ARCHIVE_SEGMENT[26..60]);
    [
        ArchiveRecord::frame(5, -51.25, frame, SimTime::from_micros(1_000_001)),
        ArchiveRecord::tick(SimTime::from_micros(1_000_500)),
        ArchiveRecord::ack(
            RequestId::new(0xDEAD_0001),
            AckStatus::ConstraintViolation,
            SimTime::from_micros(1_000_900),
        ),
    ]
}

#[test]
fn segment_decodes_and_re_encodes_to_the_parents_bytes() {
    let mut offset = 0;
    let mut rebuilt = Vec::new();
    for expected in expected_records() {
        let (rec, used) = ArchiveRecord::decode(&ARCHIVE_SEGMENT[offset..]).unwrap();
        assert_eq!(rec, expected);
        // Little-endian trailer: the record, trailer included, leaves
        // the reflected polynomial's residue.
        assert_eq!(crc32(&ARCHIVE_SEGMENT[offset..offset + used]), CRC32_RESIDUE);
        rec.encode_into(&mut rebuilt);
        offset += used;
    }
    assert_eq!(offset, ARCHIVE_SEGMENT.len());
    assert_eq!(rebuilt, ARCHIVE_SEGMENT);
}

#[test]
fn segment_recovers_in_full_and_any_bit_flip_cuts_it_at_the_damaged_record() {
    let mut store = MemStore::new();
    store.append(0, &ARCHIVE_SEGMENT).unwrap();
    let (mut archive, report) = FrameArchive::open(Box::new(store), 1 << 20).unwrap();
    assert_eq!((report.records, report.frames, report.ticks, report.acks), (3, 1, 1, 1));
    assert_eq!(report.truncation, None);
    assert_eq!(report.high_water.get(&0xABCD_EF03), Some(&0xFFFE));
    assert_eq!(archive.read_all().unwrap(), expected_records());

    let starts = [0usize, 64, 82];
    for byte in 0..ARCHIVE_SEGMENT.len() {
        for bit in 0..8 {
            let mut corrupt = ARCHIVE_SEGMENT;
            corrupt[byte] ^= 1 << bit;
            let mut store = MemStore::new();
            store.append(0, &corrupt).unwrap();
            let report = FrameArchive::recover(&mut store).unwrap();
            let damaged = starts.iter().rposition(|&s| s <= byte).unwrap();
            let cut = report.truncation.unwrap_or_else(|| panic!("flip at {byte}:{bit} recovered"));
            assert_eq!(cut.valid_len, starts[damaged] as u64, "flip at {byte}:{bit}");
            assert_eq!(report.records, damaged as u64, "flip at {byte}:{bit}");
        }
    }
}
