//! Cyclic redundancy checks used by the wire format.
//!
//! The paper omits checksums from Figure 2 "for simplicity" while noting
//! they are "the usual checksums associated with the data messages". We
//! use two standard polynomials, implemented from scratch (no external
//! crypto/CRC crates are in the sanctioned dependency set):
//!
//! * **CRC-16/CCITT-FALSE** (poly `0x1021`, init `0xFFFF`) on data
//!   messages — 2 bytes of trailer on a hot path handling every sensor
//!   reading.
//! * **CRC-32/ISO-HDLC** (reflected poly `0xEDB88320`) on control
//!   messages — actuation requests are rare but change sensor behaviour,
//!   justifying the stronger check (§4.2: the Actuation Service "processes
//!   the request with timestamps, and checksums") — and on every
//!   `garnet-store` archive record.
//!
//! Every copy a receiver hears is checked before it can be called a
//! duplicate, so the check is the largest per-byte cost in the tree. Both
//! functions are **slice-by-8**: eight 256-entry tables per polynomial
//! (table `k` holds the CRC of a byte followed by `k` zero bytes; 4 KiB
//! for CRC-16, 8 KiB for CRC-32), eight input bytes folded per iteration
//! with eight independent loads, and table 0 alone — the classic
//! byte-at-a-time step — for the ≤ 7-byte tail. The tables are built in
//! `const` context, so there is no runtime initialisation. Width 8 was
//! picked by measurement against 4 and 16 on the frame sizes the
//! middleware sees (25–265 B) and is the only one shipped.
//!
//! Plain safe Rust, one code path on every target: no CPU intrinsics and
//! no run-time feature detection. SSE4.2's `crc32` instruction computes
//! CRC-32C, which is neither polynomial, and carry-less-multiply folding
//! cannot be written without unchecked code. The bit-at-a-time definition
//! of each polynomial lives in this module's tests, as the reference the
//! kernels are checked against.

/// Slice-by-8 tables for CRC-16/CCITT-FALSE (polynomial 0x1021,
/// MSB-first): `[k][b]` is the CRC of byte `b` followed by `k` zero bytes.
static CRC16_TABLES: [[u16; 256]; 8] = {
    let mut tables = [[0u16; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = (i as u16) << 8;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 0x8000 != 0 { (crc << 1) ^ 0x1021 } else { crc << 1 };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev << 8) ^ tables[0][(prev >> 8) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// Slice-by-8 tables for CRC-32/ISO-HDLC (reflected polynomial
/// 0xEDB88320): `[k][b]` is the CRC of byte `b` followed by `k` zero bytes.
static CRC32_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// Computes CRC-16/CCITT-FALSE over `data`.
///
/// # Example
///
/// ```
/// // The standard check value for "123456789".
/// assert_eq!(garnet_wire::crc::crc16(b"123456789"), 0x29B1);
/// ```
#[expect(clippy::expect_used, reason = "`chunks_exact(8)` yields only 8-byte blocks")]
pub fn crc16(data: &[u8]) -> u16 {
    let t = &CRC16_TABLES;
    let mut crc: u16 = 0xFFFF;
    let mut blocks = data.chunks_exact(8);
    for block in &mut blocks {
        let b: &[u8; 8] = block.try_into().expect("chunks_exact(8) yields 8-byte blocks");
        // The running CRC only reaches the first two bytes; the other six
        // lookups do not depend on the previous iteration.
        crc = t[7][usize::from(b[0] ^ (crc >> 8) as u8)]
            ^ t[6][usize::from(b[1] ^ crc as u8)]
            ^ t[5][usize::from(b[2])]
            ^ t[4][usize::from(b[3])]
            ^ t[3][usize::from(b[4])]
            ^ t[2][usize::from(b[5])]
            ^ t[1][usize::from(b[6])]
            ^ t[0][usize::from(b[7])];
    }
    for &byte in blocks.remainder() {
        crc = (crc << 8) ^ t[0][usize::from((crc >> 8) as u8 ^ byte)];
    }
    crc
}

/// Computes CRC-32/ISO-HDLC (the ubiquitous "crc32") over `data`.
///
/// # Example
///
/// ```
/// // The standard check value for "123456789".
/// assert_eq!(garnet_wire::crc::crc32(b"123456789"), 0xCBF4_3926);
/// ```
#[expect(clippy::expect_used, reason = "`chunks_exact(8)` yields only 8-byte blocks")]
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut crc: u32 = 0xFFFF_FFFF;
    let mut blocks = data.chunks_exact(8);
    for block in &mut blocks {
        let b: &[u8; 8] = block.try_into().expect("chunks_exact(8) yields 8-byte blocks");
        // Reflected: the running CRC's low byte meets the first input byte.
        let c = crc.to_le_bytes();
        crc = t[7][usize::from(b[0] ^ c[0])]
            ^ t[6][usize::from(b[1] ^ c[1])]
            ^ t[5][usize::from(b[2] ^ c[2])]
            ^ t[4][usize::from(b[3] ^ c[3])]
            ^ t[3][usize::from(b[4])]
            ^ t[2][usize::from(b[5])]
            ^ t[1][usize::from(b[6])]
            ^ t[0][usize::from(b[7])];
    }
    for &byte in blocks.remainder() {
        crc = (crc >> 8) ^ t[0][usize::from(crc as u8 ^ byte)];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    /// CRC-16/CCITT-FALSE by its definition: one bit per step, no table.
    pub(super) fn crc16_bitwise(data: &[u8]) -> u16 {
        let mut crc: u16 = 0xFFFF;
        for &byte in data {
            crc ^= u16::from(byte) << 8;
            for _ in 0..8 {
                crc = if crc & 0x8000 != 0 { (crc << 1) ^ 0x1021 } else { crc << 1 };
            }
        }
        crc
    }

    /// CRC-32/ISO-HDLC by its definition: one bit per step, no table.
    pub(super) fn crc32_bitwise(data: &[u8]) -> u32 {
        let mut crc: u32 = 0xFFFF_FFFF;
        for &byte in data {
            crc ^= u32::from(byte);
            for _ in 0..8 {
                crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            }
        }
        !crc
    }

    /// What `crc16` returns over `message ‖ crc16(message)` with the
    /// trailer big-endian (MSB-first polynomial, no final xor).
    const CRC16_RESIDUE: u16 = 0x0000;
    /// What `crc32` returns over `message ‖ crc32(message)` with the
    /// trailer little-endian (reflected polynomial; the catalogue's
    /// residue `0xDEBB20E3` after the final xor).
    const CRC32_RESIDUE: u32 = 0x2144_DF1C;

    fn random_bytes(len: usize) -> Vec<u8> {
        let mut rng = proptest::TestRng::new(22);
        (0..len).map(|_| rng.next_u64() as u8).collect()
    }

    #[test]
    fn crc16_known_vectors() {
        // CRC-16/CCITT-FALSE reference values.
        assert_eq!(crc16(b""), 0xFFFF);
        assert_eq!(crc16(b"123456789"), 0x29B1);
        assert_eq!(crc16(b"A"), 0xB915);
    }

    #[test]
    fn crc32_known_vectors() {
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn kernels_match_the_bitwise_definition_at_every_length_and_offset() {
        // Lengths 0..=600 put 0..=75 whole blocks before every tail of
        // 0..=7 bytes, and the eight start offsets move the blocks across
        // every alignment. Each length reads its own window of the buffer
        // (13 is odd, so windows do not share block boundaries): ~8 000
        // distinct blocks, enough to reach every entry of all 16 tables.
        let buf = random_bytes(13 * 600 + 8 + 600);
        for offset in 0..8 {
            for len in 0..=600 {
                let start = 13 * len + offset;
                let data = &buf[start..start + len];
                assert_eq!(crc16(data), crc16_bitwise(data), "crc16 offset {offset} len {len}");
                assert_eq!(crc32(data), crc32_bitwise(data), "crc32 offset {offset} len {len}");
            }
        }
    }

    #[test]
    fn trailer_in_the_polynomials_own_byte_order_leaves_the_residue() {
        let buf = random_bytes(300);
        for len in 0..=buf.len() {
            let message = &buf[..len];
            let mut with16 = message.to_vec();
            with16.extend_from_slice(&crc16(message).to_be_bytes());
            assert_eq!(crc16(&with16), CRC16_RESIDUE, "crc16 len {len}");
            let mut with32 = message.to_vec();
            with32.extend_from_slice(&crc32(message).to_le_bytes());
            assert_eq!(crc32(&with32), CRC32_RESIDUE, "crc32 len {len}");
        }
    }

    #[test]
    fn crc16_detects_single_bit_flips() {
        let data = b"garnet sensor payload".to_vec();
        let base = crc16(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut corrupted = data.clone();
                corrupted[byte] ^= 1 << bit;
                assert_ne!(crc16(&corrupted), base, "undetected flip at {byte}:{bit}");
            }
        }
    }

    #[test]
    fn crc32_detects_single_bit_flips() {
        let data = b"stream update request body".to_vec();
        let base = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut corrupted = data.clone();
                corrupted[byte] ^= 1 << bit;
                assert_ne!(crc32(&corrupted), base, "undetected flip at {byte}:{bit}");
            }
        }
    }

    #[test]
    fn crc16_is_order_sensitive() {
        assert_ne!(crc16(b"ab"), crc16(b"ba"));
    }
}

#[cfg(test)]
mod proptests {
    use super::tests::{crc16_bitwise, crc32_bitwise};
    use super::*;
    use proptest::prelude::*;

    /// Xors a burst into `bytes`: bit `start` and, for every set bit `j`
    /// of `pattern`, bit `start + 1 + j` (bits past the end are dropped).
    /// `msb_first` numbers bits within a byte in CRC-16's transmission
    /// order, otherwise in the reflected CRC-32's.
    fn flip_burst(bytes: &mut [u8], start: usize, pattern: u32, msb_first: bool) {
        let bits = std::iter::once(start)
            .chain((0..32).filter(|j| pattern >> j & 1 == 1).map(|j| start + 1 + j));
        for bit in bits {
            if let Some(byte) = bytes.get_mut(bit / 8) {
                *byte ^= if msb_first { 0x80 >> (bit % 8) } else { 1 << (bit % 8) };
            }
        }
    }

    proptest! {
        // Up to Fig. 2's largest frame: 9 header + 65 535 payload + 2
        // trailer bytes (and a start offset, so alignment varies too).
        #[test]
        fn kernels_match_the_bitwise_definition(data in proptest::collection::vec(any::<u8>(), 0..=65_536 + 11), skip in 0usize..8) {
            let data = &data[skip.min(data.len())..];
            prop_assert_eq!(crc16(data), crc16_bitwise(data));
            prop_assert_eq!(crc32(data), crc32_bitwise(data));
        }

        #[test]
        fn single_bit_flip_always_detected_crc16(data in proptest::collection::vec(any::<u8>(), 1..256), byte in any::<prop::sample::Index>(), bit in 0u8..8) {
            let mut corrupted = data.clone();
            let i = byte.index(data.len());
            corrupted[i] ^= 1 << bit;
            prop_assert_ne!(crc16(&corrupted), crc16(&data));
        }

        // The guarantee DESIGN.md §6 cites: a degree-n CRC misses no
        // burst of n bits or fewer anywhere in message ‖ trailer. Frames
        // up to 267 B (256 B payload); one random burst shape per case,
        // tried at every bit position.
        #[test]
        fn crc16_catches_every_burst_up_to_16_bits(message in proptest::collection::vec(any::<u8>(), 0..=265), pattern in 0u32..=0x7FFF) {
            let mut frame = message.clone();
            frame.extend_from_slice(&crc16(&message).to_be_bytes());
            for start in 0..frame.len() * 8 {
                let mut hit = frame.clone();
                flip_burst(&mut hit, start, pattern, true);
                let (body, trailer) = hit.split_at(hit.len() - 2);
                prop_assert_ne!(crc16(body), u16::from_be_bytes([trailer[0], trailer[1]]), "burst at bit {}", start);
            }
        }

        #[test]
        fn crc32_catches_every_burst_up_to_32_bits(message in proptest::collection::vec(any::<u8>(), 0..=263), pattern in 0u32..=0x7FFF_FFFF) {
            let mut record = message.clone();
            record.extend_from_slice(&crc32(&message).to_le_bytes());
            for start in 0..record.len() * 8 {
                let mut hit = record.clone();
                flip_burst(&mut hit, start, pattern, false);
                let (body, trailer) = hit.split_at(hit.len() - 4);
                prop_assert_ne!(crc32(body), u32::from_le_bytes([trailer[0], trailer[1], trailer[2], trailer[3]]), "burst at bit {}", start);
            }
        }
    }
}
