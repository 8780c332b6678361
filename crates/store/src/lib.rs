//! # garnet-store
//!
//! The durable boundary behind the middleware: an append-only,
//! segmented, CRC-checked log of every frame and control event the
//! facade accepted, so a process crash no longer erases history and a
//! late joiner can be rebuilt from disk instead of the orphanage.
//!
//! The layering, bottom-up:
//!
//! * `record` — the record codec: one [`record::ArchiveRecord`] per
//!   boundary input (frame burst member, maintenance tick, standalone
//!   acknowledgement), length-prefixed and sealed with CRC-32.
//! * `segment` — the [`segment::SegmentStore`] trait (append / read /
//!   truncate / remove over numbered segments) with two backends: the
//!   in-memory [`segment::MemStore`] and the directory-backed
//!   [`segment::FileStore`].
//! * `faulty` — [`faulty::FaultyStore`], a deterministic
//!   fault-injection wrapper (torn writes, bit flips, short reads,
//!   write stalls) for crash-recovery and corruption-detection tests.
//! * `archive` — [`archive::FrameArchive`], the writer/reader that
//!   rolls segments, runs the recovery scan on open (truncating at the
//!   first corrupt record) and replays a segment range.
//!
//! The crate is deliberately runtime-free: no threads, no channels, no
//! clocks. `garnet-core` owns the facade tap, which appends on the
//! caller's thread; everything here is a pure state machine over bytes,
//! which is what makes recovery and replay deterministic enough to
//! assert bit-identity on.

// Segment recovery reads bytes off disk, so this crate is a trust
// boundary: outside its tests, nothing here may panic by unwrap,
// expect or panic!.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

pub(crate) mod archive;
pub(crate) mod faulty;
pub(crate) mod record;
pub(crate) mod segment;

pub use archive::{FrameArchive, RecoveryReport};
pub use faulty::{FaultPlan, FaultyStore};
pub use record::ArchiveRecord;
pub use segment::{FileStore, MemStore, SegmentId, SegmentStore, StoreError};
