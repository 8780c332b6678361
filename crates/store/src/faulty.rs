//! Deterministic storage fault injection.
//!
//! [`FaultyStore`] wraps any [`SegmentStore`] and corrupts its traffic
//! according to a seeded [`FaultPlan`]: torn writes (only a prefix of
//! an append persists — the crash-mid-append case), bit flips (media
//! corruption), short reads (a reader racing a crash) and write stalls
//! (a wedged device). The fault stream is drawn from the simulation
//! kernel's [`SimRng`], so a given `(plan, operation sequence)` pair
//! injects exactly the same faults on every run — which is what lets
//! crash-recovery tests assert byte-exact truncation points.
//!
//! Faults are drawn per store operation. The archive writes a whole
//! burst of records with one [`SegmentStore::append`] per segment
//! touched, so an append-side rate is a rate per burst, not per record:
//! a torn write cuts anywhere in the burst, and `stall_after_appends`
//! counts bursts.

use garnet_simkit::SimRng;

use crate::segment::{SegmentId, SegmentStore, StoreError};

/// What to inject, and how often. Rates are per-mille (0 = never,
/// 1000 = every operation).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed for the deterministic fault stream.
    pub seed: u64,
    /// Per-mille chance an append persists only a strict prefix.
    pub torn_write_per_mille: u16,
    /// Per-mille chance an append lands with one bit flipped.
    pub bit_flip_per_mille: u16,
    /// Per-mille chance a read returns a strict prefix of the segment.
    pub short_read_per_mille: u16,
    /// After this many successful appends (store writes, each carrying
    /// one or more records), every further append fails with
    /// [`StoreError::Stalled`] (`None` = never stalls).
    pub stall_after_appends: Option<u64>,
}

/// Running totals of the faults actually injected.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultLedger {
    /// Appends persisted as a strict prefix.
    pub torn_writes: u64,
    /// Appends (or reads) corrupted by one flipped bit.
    pub bit_flips: u64,
    /// Reads returned as a strict prefix.
    pub short_reads: u64,
    /// Appends refused with [`StoreError::Stalled`].
    pub stalls: u64,
}

impl FaultLedger {
    /// Total injected faults of every kind.
    pub fn total(&self) -> u64 {
        self.torn_writes + self.bit_flips + self.short_reads + self.stalls
    }
}

/// A [`SegmentStore`] that injects storage faults deterministically.
#[derive(Debug)]
pub struct FaultyStore<S> {
    inner: S,
    plan: FaultPlan,
    rng: SimRng,
    appends: u64,
    ledger: FaultLedger,
}

impl<S: SegmentStore> FaultyStore<S> {
    /// Wraps `inner` under `plan`.
    pub fn new(inner: S, plan: FaultPlan) -> FaultyStore<S> {
        FaultyStore {
            inner,
            plan,
            rng: SimRng::seed(plan.seed),
            appends: 0,
            ledger: FaultLedger::default(),
        }
    }

    /// The faults injected so far.
    pub fn ledger(&self) -> FaultLedger {
        self.ledger
    }

    /// The wrapped store (to inspect or recover after a simulated
    /// crash).
    pub fn into_inner(self) -> S {
        self.inner
    }

    fn roll(&mut self, per_mille: u16) -> bool {
        // Draw unconditionally so the fault stream advances one step per
        // decision regardless of the rates — changing one rate does not
        // shift every later fault.
        let draw = self.rng.next_u64() % 1000;
        per_mille > 0 && draw < u64::from(per_mille)
    }

    /// Picks a cut in `0..len`: the surviving prefix is strictly
    /// shorter than the original (at least one byte is lost).
    fn cut_point(&mut self, len: usize) -> usize {
        (self.rng.next_u64() as usize) % len
    }

    fn flip_one_bit(&mut self, bytes: &mut [u8]) {
        if bytes.is_empty() {
            return;
        }
        let byte = (self.rng.next_u64() as usize) % bytes.len();
        let bit = (self.rng.next_u64() % 8) as u8;
        bytes[byte] ^= 1 << bit;
    }
}

impl<S: SegmentStore> SegmentStore for FaultyStore<S> {
    fn append(&mut self, segment: SegmentId, bytes: &[u8]) -> Result<(), StoreError> {
        if self.plan.stall_after_appends.is_some_and(|n| self.appends >= n) {
            self.ledger.stalls += 1;
            return Err(StoreError::Stalled);
        }
        self.appends += 1;
        let torn = self.roll(self.plan.torn_write_per_mille);
        let flip = self.roll(self.plan.bit_flip_per_mille);
        if !torn && !flip {
            return self.inner.append(segment, bytes);
        }
        let mut mutated = bytes.to_vec();
        if torn && !mutated.is_empty() {
            let cut = self.cut_point(mutated.len());
            mutated.truncate(cut);
            self.ledger.torn_writes += 1;
        }
        if flip {
            self.flip_one_bit(&mut mutated);
            if !mutated.is_empty() {
                self.ledger.bit_flips += 1;
            }
        }
        self.inner.append(segment, &mutated)
    }

    fn read(&mut self, segment: SegmentId) -> Result<Vec<u8>, StoreError> {
        let mut bytes = self.inner.read(segment)?;
        if self.roll(self.plan.short_read_per_mille) && !bytes.is_empty() {
            let cut = self.cut_point(bytes.len());
            bytes.truncate(cut);
            self.ledger.short_reads += 1;
        }
        Ok(bytes)
    }

    fn len(&mut self, segment: SegmentId) -> Result<u64, StoreError> {
        self.inner.len(segment)
    }

    fn truncate(&mut self, segment: SegmentId, len: u64) -> Result<(), StoreError> {
        self.inner.truncate(segment, len)
    }

    fn remove(&mut self, segment: SegmentId) -> Result<(), StoreError> {
        self.inner.remove(segment)
    }

    fn segments(&mut self) -> Result<Vec<SegmentId>, StoreError> {
        self.inner.segments()
    }

    fn sync(&mut self) -> Result<(), StoreError> {
        if self.plan.stall_after_appends.is_some_and(|n| self.appends >= n) {
            return Err(StoreError::Stalled);
        }
        self.inner.sync()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::MemStore;

    #[test]
    fn no_faults_is_a_transparent_wrapper() {
        let mut s = FaultyStore::new(MemStore::new(), FaultPlan::default());
        s.append(0, b"abc").unwrap();
        assert_eq!(s.read(0).unwrap(), b"abc");
        assert_eq!(s.ledger().total(), 0);
    }

    #[test]
    fn fault_stream_is_deterministic() {
        let plan = FaultPlan {
            seed: 7,
            torn_write_per_mille: 400,
            bit_flip_per_mille: 300,
            ..FaultPlan::default()
        };
        let run = |plan| {
            let mut s = FaultyStore::new(MemStore::new(), plan);
            for i in 0..50u8 {
                s.append(0, &[i; 16]).unwrap();
            }
            (s.ledger(), s.into_inner().read(0).unwrap())
        };
        let (l1, bytes1) = run(plan);
        let (l2, bytes2) = run(plan);
        assert_eq!(l1, l2);
        assert_eq!(bytes1, bytes2);
        assert!(l1.torn_writes > 0, "seed 7 at 40% must tear at least once");
        assert!(l1.bit_flips > 0);
    }

    #[test]
    fn stall_cuts_appends_and_sync_but_not_reads() {
        let plan = FaultPlan { stall_after_appends: Some(2), ..FaultPlan::default() };
        let mut s = FaultyStore::new(MemStore::new(), plan);
        s.append(0, b"a").unwrap();
        s.append(0, b"b").unwrap();
        assert_eq!(s.append(0, b"c"), Err(StoreError::Stalled));
        assert_eq!(s.sync(), Err(StoreError::Stalled));
        assert_eq!(s.read(0).unwrap(), b"ab", "pre-stall appends survive");
        assert_eq!(s.ledger().stalls, 1);
    }

    #[test]
    fn torn_write_loses_at_least_one_byte() {
        let plan = FaultPlan { seed: 3, torn_write_per_mille: 1000, ..FaultPlan::default() };
        let mut s = FaultyStore::new(MemStore::new(), plan);
        s.append(0, &[0xFF; 32]).unwrap();
        assert!(s.into_inner().read(0).unwrap().len() < 32);
    }
}
