//! The wire format did not move: byte literals produced by the commit
//! *before* the slice-by-8 CRC kernels must still decode, re-encode to
//! the identical bytes, reject every one-bit flip, and carry their
//! trailer in the byte order the codec has always used.

use garnet_wire::crc::{crc16, crc32};
use garnet_wire::{
    AckStatus, ActuationTarget, DataMessage, FrameBytes, RequestId, SensorCommand, SensorId,
    SequenceNumber, StreamId, StreamIndex, StreamUpdateAck, StreamUpdateRequest, TargetArea,
};

/// Ack field + 19-byte payload: 32 checked bytes, four whole blocks.
const DATA_FRAME_ACKED: [u8; 34] = [
    0x44, 0xAB, 0xCD, 0xEF, 0x03, 0xFF, 0xFE, 0x00, 0x13, 0xDE, 0xAD, 0x00, 0x01, 0x67, 0x61, 0x72,
    0x6E, 0x65, 0x74, 0x20, 0x67, 0x6F, 0x6C, 0x64, 0x65, 0x6E, 0x20, 0x66, 0x72, 0x61, 0x6D, 0x65,
    0xA9, 0xAE,
];
/// The same payload without the ack field: three blocks and a 4-byte tail.
const DATA_FRAME_PLAIN: [u8; 30] = [
    0x40, 0xAB, 0xCD, 0xEF, 0x03, 0x00, 0x07, 0x00, 0x13, 0x67, 0x61, 0x72, 0x6E, 0x65, 0x74, 0x20,
    0x67, 0x6F, 0x6C, 0x64, 0x65, 0x6E, 0x20, 0x66, 0x72, 0x61, 0x6D, 0x65, 0x73, 0xD3,
];
const REQUEST_SENSOR: [u8; 29] = [
    0x01, 0xDE, 0xAD, 0x00, 0x01, 0x00, 0x00, 0x01, 0x1F, 0x71, 0xFB, 0x04, 0xCB, 0x03, 0x00, 0x00,
    0xAB, 0xCD, 0xEF, 0x00, 0x03, 0x00, 0x00, 0x01, 0xF4, 0xEC, 0x2A, 0x34, 0xEB,
];
const REQUEST_STREAM: [u8; 26] = [
    0x01, 0xDE, 0xAD, 0x00, 0x01, 0x00, 0x00, 0x01, 0x1F, 0x71, 0xFB, 0x04, 0xCB, 0x03, 0x01, 0xAB,
    0xCD, 0xEF, 0x03, 0x03, 0x00, 0xFA, 0xD8, 0xB2, 0x6D, 0xE6,
];
const REQUEST_AREA: [u8; 36] = [
    0x01, 0xDE, 0xAD, 0x00, 0x01, 0x00, 0x00, 0x01, 0x1F, 0x71, 0xFB, 0x04, 0xCB, 0x03, 0x02, 0x41,
    0x48, 0x00, 0x00, 0xC2, 0x21, 0x00, 0x00, 0x42, 0xC8, 0x00, 0x00, 0x04, 0x00, 0x00, 0xEA, 0x60,
    0x06, 0x9F, 0x7C, 0xD1,
];
const UPDATE_ACK: [u8; 14] =
    [0x02, 0xDE, 0xAD, 0x00, 0x01, 0x00, 0xAB, 0xCD, 0xEF, 0x03, 0x82, 0x5C, 0x26, 0x96];

/// `crc32` over `message ‖ crc32(message)` with the trailer
/// little-endian: the polynomial's residue after the final xor.
const CRC32_RESIDUE: u32 = 0x2144_DF1C;

fn stream() -> StreamId {
    StreamId::new(SensorId::new(0x00AB_CDEF).unwrap(), StreamIndex::new(3))
}

fn for_every_bit_flip(golden: &[u8], mut check: impl FnMut(&[u8], usize, u8)) {
    for byte in 0..golden.len() {
        for bit in 0..8 {
            let mut corrupt = golden.to_vec();
            corrupt[byte] ^= 1 << bit;
            check(&corrupt, byte, bit);
        }
    }
}

#[test]
fn data_frames_decode_and_re_encode_to_the_parents_bytes() {
    let acked = DataMessage::builder(stream())
        .seq(SequenceNumber::new(0xFFFE))
        .ack(RequestId::new(0xDEAD_0001))
        .payload(b"garnet golden frame".to_vec())
        .build()
        .unwrap();
    let plain = DataMessage::builder(stream())
        .seq(SequenceNumber::new(7))
        .payload(b"garnet golden frame".to_vec())
        .build()
        .unwrap();
    for (golden, expected) in [(&DATA_FRAME_ACKED[..], acked), (&DATA_FRAME_PLAIN[..], plain)] {
        let (msg, used) = DataMessage::decode(golden).unwrap();
        assert_eq!((&msg, used), (&expected, golden.len()));
        assert_eq!(msg.encode_to_vec(), golden);
        // The zero-copy decode the middleware uses agrees.
        let (shared, _) = DataMessage::decode_frame(&FrameBytes::copy_from_slice(golden)).unwrap();
        assert_eq!(shared, expected);
        // Big-endian trailer: the MSB-first CRC of the whole frame is 0.
        assert_eq!(crc16(golden), 0);
        for_every_bit_flip(golden, |corrupt, byte, bit| {
            assert!(DataMessage::decode(corrupt).is_err(), "flip at {byte}:{bit} decoded");
        });
    }
}

#[test]
fn control_messages_decode_and_re_encode_to_the_parents_bytes() {
    let request = |target, command| StreamUpdateRequest {
        request_id: RequestId::new(0xDEAD_0001),
        target,
        command,
        issued_at_us: 1_234_567_890_123,
        priority: 3,
    };
    let requests = [
        (
            &REQUEST_SENSOR[..],
            request(
                ActuationTarget::Sensor(SensorId::new(0x00AB_CDEF).unwrap()),
                SensorCommand::SetReportInterval { stream: StreamIndex::new(3), interval_ms: 500 },
            ),
        ),
        (
            &REQUEST_STREAM[..],
            request(
                ActuationTarget::Stream(stream()),
                SensorCommand::SetDutyCycle { permille: 250 },
            ),
        ),
        (
            &REQUEST_AREA[..],
            request(
                ActuationTarget::Area(TargetArea::new(12.5, -40.25, 100.0)),
                SensorCommand::Sleep { duration_ms: 60_000 },
            ),
        ),
    ];
    for (golden, expected) in requests {
        let (req, used) = StreamUpdateRequest::decode(golden).unwrap();
        assert_eq!((req, used), (expected, golden.len()));
        assert_eq!(req.encode_to_vec(), golden);
        assert_big_endian_crc32_trailer(golden);
        for_every_bit_flip(golden, |corrupt, byte, bit| {
            assert!(StreamUpdateRequest::decode(corrupt).is_err(), "flip at {byte}:{bit} decoded");
        });
    }

    let expected = StreamUpdateAck {
        request_id: RequestId::new(0xDEAD_0001),
        sensor: SensorId::new(0x00AB_CDEF).unwrap(),
        status: AckStatus::Deferred,
    };
    let (ack, used) = StreamUpdateAck::decode(&UPDATE_ACK).unwrap();
    assert_eq!((ack, used), (expected, UPDATE_ACK.len()));
    assert_eq!(ack.encode_to_vec(), UPDATE_ACK);
    assert_big_endian_crc32_trailer(&UPDATE_ACK);
    for_every_bit_flip(&UPDATE_ACK, |corrupt, byte, bit| {
        assert!(StreamUpdateAck::decode(corrupt).is_err(), "flip at {byte}:{bit} decoded");
    });
}

/// Control messages carry the reflected CRC-32 big-endian — against the
/// polynomial's own order — so the residue appears once the four
/// trailer bytes are reversed, and only then.
fn assert_big_endian_crc32_trailer(message: &[u8]) {
    let (body, trailer) = message.split_at(message.len() - 4);
    let mut swapped = body.to_vec();
    swapped.extend(trailer.iter().rev());
    assert_eq!(crc32(&swapped), CRC32_RESIDUE);
    assert_ne!(crc32(message), CRC32_RESIDUE);
}
