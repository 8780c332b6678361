//! End-to-end payload encryption.
//!
//! "The payload field is not interpreted and is opaque to the Garnet
//! infrastructure. This provides a basic level of security and
//! contributes to our security model" (§4.3); the conclusion lists "a
//! high-level abstraction of data streams supporting end-to-end
//! encryption" among Garnet's novel features.
//!
//! Because the sanctioned dependency set contains no cryptography crates,
//! this module implements XTEA (Needham & Wheeler's 64-bit block cipher,
//! 128-bit key, 64 Feistel rounds) from the published reference code, in
//! CTR mode with a per-message nonce derived from `(StreamId, SequenceNumber)`,
//! plus a CBC-MAC truncated to 8 bytes for integrity. XTEA is a
//! deliberate fit for the paper's setting — it was designed for exactly
//! the memory-starved embedded devices WSN nodes are — though a modern
//! deployment would swap in an AEAD; the sealed interface
//! ([`PayloadKey::seal`]/[`PayloadKey::open`]) makes that a local change.
//!
//! The CTR keystream and the MAC use independent subkeys derived from the
//! master key so the encrypt-then-MAC composition is sound.

use core::fmt;

use crate::error::WireError;
use crate::ids::{SequenceNumber, StreamId};

const ROUNDS: u32 = 64;
const DELTA: u32 = 0x9E37_79B9;

/// Length of the appended authentication tag.
pub const TAG_LEN: usize = 8;

/// Encrypts one 64-bit block with XTEA.
fn xtea_encrypt_block(key: &[u32; 4], block: u64) -> u64 {
    let mut v0 = (block >> 32) as u32;
    let mut v1 = block as u32;
    let mut sum: u32 = 0;
    for _ in 0..ROUNDS / 2 {
        v0 = v0.wrapping_add(
            (((v1 << 4) ^ (v1 >> 5)).wrapping_add(v1))
                ^ (sum.wrapping_add(key[(sum & 3) as usize])),
        );
        sum = sum.wrapping_add(DELTA);
        v1 = v1.wrapping_add(
            (((v0 << 4) ^ (v0 >> 5)).wrapping_add(v0))
                ^ (sum.wrapping_add(key[((sum >> 11) & 3) as usize])),
        );
    }
    (u64::from(v0) << 32) | u64::from(v1)
}

/// Decrypts one 64-bit block with XTEA. CTR mode never decrypts blocks,
/// so this is exercised only by the cipher's own round-trip tests.
#[cfg(test)]
fn xtea_decrypt_block(key: &[u32; 4], block: u64) -> u64 {
    let mut v0 = (block >> 32) as u32;
    let mut v1 = block as u32;
    let mut sum: u32 = DELTA.wrapping_mul(ROUNDS / 2);
    for _ in 0..ROUNDS / 2 {
        v1 = v1.wrapping_sub(
            (((v0 << 4) ^ (v0 >> 5)).wrapping_add(v0))
                ^ (sum.wrapping_add(key[((sum >> 11) & 3) as usize])),
        );
        sum = sum.wrapping_sub(DELTA);
        v0 = v0.wrapping_sub(
            (((v1 << 4) ^ (v1 >> 5)).wrapping_add(v1))
                ^ (sum.wrapping_add(key[(sum & 3) as usize])),
        );
    }
    (u64::from(v0) << 32) | u64::from(v1)
}

/// A 128-bit symmetric key shared between a sensor (or its provisioner)
/// and the consumers entitled to read a stream.
///
/// # Example
///
/// ```
/// use garnet_wire::crypto::PayloadKey;
/// use garnet_wire::{SequenceNumber, StreamId};
///
/// let key = PayloadKey::from_bytes([7u8; 16]);
/// let stream = StreamId::from_raw(0x0000_0501);
/// let seq = SequenceNumber::new(9);
/// let sealed = key.seal(stream, seq, b"secret reading");
/// assert_ne!(&sealed[..14], b"secret reading"); // ciphertext differs
/// let opened = key.open(stream, seq, &sealed)?;
/// assert_eq!(opened, b"secret reading");
/// # Ok::<(), garnet_wire::WireError>(())
/// ```
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct PayloadKey {
    enc: [u32; 4],
    mac: [u32; 4],
}

impl PayloadKey {
    /// Derives the working key pair from 16 key bytes.
    pub fn from_bytes(bytes: [u8; 16]) -> Self {
        let w = |i: usize| u32::from_be_bytes([bytes[i], bytes[i + 1], bytes[i + 2], bytes[i + 3]]);
        let master = [w(0), w(4), w(8), w(12)];
        // Derive independent subkeys by encrypting distinct constants.
        let derive = |label: u64| {
            let a = xtea_encrypt_block(&master, label);
            let b = xtea_encrypt_block(&master, label ^ 0xA5A5_A5A5_A5A5_A5A5);
            [(a >> 32) as u32, a as u32, (b >> 32) as u32, b as u32]
        };
        PayloadKey { enc: derive(1), mac: derive(2) }
    }

    /// The CTR nonce for a message: the stream id in the upper half and
    /// the sequence number below. Within one 64K sequence window a
    /// `(stream, seq)` pair is unique, matching the filtering service's
    /// duplicate-elimination window.
    fn nonce(stream: StreamId, seq: SequenceNumber) -> u64 {
        (u64::from(stream.to_raw()) << 32) | u64::from(seq.as_u16())
    }

    /// XORs the CTR keystream for `nonce` into `data` (encrypts or
    /// decrypts — CTR is an involution).
    fn ctr_xor(&self, nonce: u64, data: &mut [u8]) {
        for (i, chunk) in data.chunks_mut(8).enumerate() {
            let ks = xtea_encrypt_block(&self.enc, nonce ^ ((i as u64) << 48)).to_be_bytes();
            for (b, k) in chunk.iter_mut().zip(ks.iter()) {
                *b ^= k;
            }
        }
    }

    /// CBC-MAC over `nonce || data`, zero-padded to a block boundary,
    /// with the length mixed into the final block (fixes CBC-MAC's
    /// variable-length weakness for our framing).
    fn tag(&self, nonce: u64, data: &[u8]) -> [u8; TAG_LEN] {
        let mut state = xtea_encrypt_block(&self.mac, nonce);
        for chunk in data.chunks(8) {
            let mut block = [0u8; 8];
            block[..chunk.len()].copy_from_slice(chunk);
            state = xtea_encrypt_block(&self.mac, state ^ u64::from_be_bytes(block));
        }
        state = xtea_encrypt_block(&self.mac, state ^ (data.len() as u64));
        state.to_be_bytes()
    }

    /// The tag [`PayloadKey::seal`] would append for `(stream, seq)` to
    /// the concatenation of `parts`, computed block by block without
    /// building the plaintext or the ciphertext: each 8-byte block is
    /// CTR-encrypted and folded into the CBC-MAC as it fills.
    pub fn seal_tag(
        &self,
        stream: StreamId,
        seq: SequenceNumber,
        parts: &[&[u8]],
    ) -> [u8; TAG_LEN] {
        let nonce = Self::nonce(stream, seq);
        let mut state = xtea_encrypt_block(&self.mac, nonce);
        let mut absorb = |i: u64, block: &[u8]| {
            let ks = xtea_encrypt_block(&self.enc, nonce ^ (i << 48)).to_be_bytes();
            let mut cipher = [0u8; 8];
            for ((c, b), k) in cipher.iter_mut().zip(block).zip(ks) {
                *c = b ^ k;
            }
            state = xtea_encrypt_block(&self.mac, state ^ u64::from_be_bytes(cipher));
        };
        let (mut block, mut fill, mut blocks, mut len) = ([0u8; 8], 0usize, 0u64, 0usize);
        for &b in parts.iter().flat_map(|p| p.iter()) {
            block[fill] = b;
            fill += 1;
            len += 1;
            if fill == 8 {
                absorb(blocks, &block);
                blocks += 1;
                fill = 0;
            }
        }
        if fill > 0 {
            absorb(blocks, &block[..fill]);
        }
        xtea_encrypt_block(&self.mac, state ^ (len as u64)).to_be_bytes()
    }

    /// Encrypts and authenticates `plaintext` for `(stream, seq)`,
    /// returning `ciphertext || tag` (`plaintext.len() + 8` bytes).
    pub fn seal(&self, stream: StreamId, seq: SequenceNumber, plaintext: &[u8]) -> Vec<u8> {
        let nonce = Self::nonce(stream, seq);
        let mut out = Vec::with_capacity(plaintext.len() + TAG_LEN);
        out.extend_from_slice(plaintext);
        self.ctr_xor(nonce, &mut out);
        let tag = self.tag(nonce, &out);
        out.extend_from_slice(&tag);
        out
    }

    /// Verifies and decrypts a sealed payload.
    ///
    /// # Errors
    ///
    /// [`WireError::AuthFailure`] if the payload is shorter than a tag or
    /// the tag does not verify (any tampering, or wrong key/stream/seq).
    pub fn open(
        &self,
        stream: StreamId,
        seq: SequenceNumber,
        sealed: &[u8],
    ) -> Result<Vec<u8>, WireError> {
        if sealed.len() < TAG_LEN {
            return Err(WireError::AuthFailure);
        }
        let nonce = Self::nonce(stream, seq);
        let (body, tag) = sealed.split_at(sealed.len() - TAG_LEN);
        let expected = self.tag(nonce, body);
        // Constant-time-ish comparison (not strictly needed in simulation).
        let mut diff = 0u8;
        for (a, b) in expected.iter().zip(tag.iter()) {
            diff |= a ^ b;
        }
        if diff != 0 {
            return Err(WireError::AuthFailure);
        }
        let mut out = body.to_vec();
        self.ctr_xor(nonce, &mut out);
        Ok(out)
    }
}

impl fmt::Debug for PayloadKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Never print key material.
        write!(f, "PayloadKey(…)")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key() -> PayloadKey {
        PayloadKey::from_bytes(*b"0123456789abcdef")
    }

    fn stream() -> StreamId {
        StreamId::from_raw(0x00AA_BB01)
    }

    #[test]
    fn xtea_block_round_trips() {
        let k = [0x0123_4567, 0x89AB_CDEF, 0xFEDC_BA98, 0x7654_3210];
        for block in [0u64, 1, u64::MAX, 0xDEAD_BEEF_CAFE_F00D] {
            let c = xtea_encrypt_block(&k, block);
            assert_ne!(c, block);
            assert_eq!(xtea_decrypt_block(&k, c), block);
        }
    }

    #[test]
    fn xtea_is_key_dependent() {
        let k1 = [1, 2, 3, 4];
        let k2 = [1, 2, 3, 5];
        assert_ne!(xtea_encrypt_block(&k1, 42), xtea_encrypt_block(&k2, 42));
    }

    #[test]
    fn seal_open_round_trip_various_lengths() {
        let key = key();
        for len in [0usize, 1, 7, 8, 9, 16, 63, 64, 65, 1000] {
            let plaintext: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
            let sealed = key.seal(stream(), SequenceNumber::new(5), &plaintext);
            assert_eq!(sealed.len(), len + TAG_LEN);
            let opened = key.open(stream(), SequenceNumber::new(5), &sealed).unwrap();
            assert_eq!(opened, plaintext, "len={len}");
        }
    }

    #[test]
    fn tampering_is_rejected() {
        let key = key();
        let sealed = key.seal(stream(), SequenceNumber::new(1), b"water level 3.2m");
        for i in 0..sealed.len() {
            let mut bad = sealed.clone();
            bad[i] ^= 0x01;
            assert_eq!(
                key.open(stream(), SequenceNumber::new(1), &bad),
                Err(WireError::AuthFailure),
                "tamper at byte {i} accepted"
            );
        }
    }

    #[test]
    fn wrong_context_is_rejected() {
        let key = key();
        let sealed = key.seal(stream(), SequenceNumber::new(1), b"data");
        // Wrong sequence number (replay into a different slot).
        assert!(key.open(stream(), SequenceNumber::new(2), &sealed).is_err());
        // Wrong stream (cross-stream replay).
        assert!(key
            .open(StreamId::from_raw(0x00AA_BB02), SequenceNumber::new(1), &sealed)
            .is_err());
        // Wrong key.
        let other = PayloadKey::from_bytes(*b"fedcba9876543210");
        assert!(other.open(stream(), SequenceNumber::new(1), &sealed).is_err());
    }

    #[test]
    fn truncated_payload_rejected() {
        let key = key();
        assert_eq!(key.open(stream(), SequenceNumber::ZERO, b"short"), Err(WireError::AuthFailure));
        assert_eq!(key.open(stream(), SequenceNumber::ZERO, b""), Err(WireError::AuthFailure));
    }

    #[test]
    fn ciphertexts_differ_across_messages() {
        let key = key();
        let a = key.seal(stream(), SequenceNumber::new(1), b"same plaintext");
        let b = key.seal(stream(), SequenceNumber::new(2), b"same plaintext");
        assert_ne!(a, b, "CTR nonce must vary with sequence number");
    }

    #[test]
    fn length_extension_of_zero_padding_rejected() {
        // Appending zero bytes to the plaintext must change the tag
        // (the length is mixed into the MAC).
        let key = key();
        let a = key.seal(stream(), SequenceNumber::new(3), b"abc");
        let b = key.seal(stream(), SequenceNumber::new(3), b"abc\0");
        assert_ne!(a[a.len() - TAG_LEN..], b[b.len() - TAG_LEN..]);
    }

    #[test]
    fn debug_does_not_leak_key() {
        let s = format!("{:?}", key());
        assert!(!s.contains("0123"));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn round_trip(
            keyb in any::<[u8; 16]>(),
            raw in any::<u32>(),
            seq in any::<u16>(),
            data in proptest::collection::vec(any::<u8>(), 0..256),
        ) {
            let key = PayloadKey::from_bytes(keyb);
            let stream = StreamId::from_raw(raw);
            let sealed = key.seal(stream, SequenceNumber::new(seq), &data);
            prop_assert_eq!(key.open(stream, SequenceNumber::new(seq), &sealed).unwrap(), data);
        }

        /// The tag-only entry point equals the last 8 bytes of `seal`
        /// however the input is cut into parts, for lengths on and off
        /// a block boundary.
        #[test]
        fn seal_tag_is_the_tag_seal_appends(
            keyb in any::<[u8; 16]>(),
            raw in any::<u32>(),
            seq in any::<u16>(),
            data in proptest::collection::vec(any::<u8>(), 0..200),
            cuts in proptest::collection::vec(any::<prop::sample::Index>(), 0..5),
        ) {
            let key = PayloadKey::from_bytes(keyb);
            let (stream, seq) = (StreamId::from_raw(raw), SequenceNumber::new(seq));
            let mut at: Vec<usize> = cuts.iter().map(|c| c.index(data.len() + 1)).collect();
            at.sort_unstable();
            let mut parts = Vec::new();
            let mut from = 0;
            for to in at.into_iter().chain([data.len()]) {
                parts.push(&data[from..to]);
                from = to;
            }
            let sealed = key.seal(stream, seq, &data);
            prop_assert_eq!(&key.seal_tag(stream, seq, &parts)[..], &sealed[data.len()..]);
        }

        #[test]
        fn single_bit_tamper_rejected(
            keyb in any::<[u8; 16]>(),
            data in proptest::collection::vec(any::<u8>(), 0..128),
            byte in any::<prop::sample::Index>(),
            bit in 0u8..8,
        ) {
            let key = PayloadKey::from_bytes(keyb);
            let stream = StreamId::from_raw(1);
            let mut sealed = key.seal(stream, SequenceNumber::ZERO, &data);
            let i = byte.index(sealed.len());
            sealed[i] ^= 1 << bit;
            prop_assert!(key.open(stream, SequenceNumber::ZERO, &sealed).is_err());
        }
    }
}
