//! Sensor energy accounting.
//!
//! The RETRI comparison (Elson & Estrin, cited in §7) is fundamentally an
//! *energy* argument: fewer identifier bits per message means fewer
//! nanojoules per reading. This module prices transmissions and
//! receptions so experiment E6 can reproduce that trade-off against
//! Garnet's stable 32-bit StreamIDs.
//!
//! The cost model is the standard first-order radio model
//! (e.g. Heinzelman et al., reference 9 in the paper): a fixed
//! per-frame startup cost plus a per-bit cost.

/// Energy prices for one radio.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EnergyModel {
    /// Fixed cost to power up the transmitter for one frame (nJ).
    pub tx_startup_nj: u64,
    /// Cost per transmitted bit (nJ).
    pub tx_per_bit_nj: u64,
    /// Fixed cost to receive one frame (nJ).
    pub rx_startup_nj: u64,
    /// Cost per received bit (nJ).
    pub rx_per_bit_nj: u64,
}

impl EnergyModel {
    /// First-order defaults in the range used by the microsensor
    /// literature: 50 nJ/bit radio electronics + startup overheads.
    pub const fn microsensor() -> EnergyModel {
        EnergyModel {
            tx_startup_nj: 2_000,
            tx_per_bit_nj: 50,
            rx_startup_nj: 1_000,
            rx_per_bit_nj: 50,
        }
    }

    /// Energy to transmit a frame of `bytes` (nJ).
    pub fn tx_cost_nj(&self, bytes: usize) -> u64 {
        self.tx_startup_nj + self.tx_per_bit_nj * (bytes as u64) * 8
    }

    /// Energy to receive a frame of `bytes` (nJ).
    pub(crate) fn rx_cost_nj(&self, bytes: usize) -> u64 {
        self.rx_startup_nj + self.rx_per_bit_nj * (bytes as u64) * 8
    }
}

impl Default for EnergyModel {
    fn default() -> Self {
        Self::microsensor()
    }
}

/// A battery/energy ledger for one node.
///
/// # Example
///
/// ```
/// use garnet_radio::{EnergyMeter, EnergyModel};
///
/// let mut meter = EnergyMeter::with_budget_nj(1_000_000);
/// meter.debit_tx(&EnergyModel::microsensor(), 16);
/// assert!(meter.consumed_nj() > 0);
/// assert!(!meter.is_exhausted());
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EnergyMeter {
    consumed_nj: u64,
    budget_nj: Option<u64>,
    tx_frames: u64,
    rx_frames: u64,
}

impl EnergyMeter {
    /// A meter with unlimited budget (mains-powered or not modelled).
    pub(crate) const fn unlimited() -> EnergyMeter {
        EnergyMeter { consumed_nj: 0, budget_nj: None, tx_frames: 0, rx_frames: 0 }
    }

    /// A meter that is exhausted once `budget_nj` nanojoules are spent.
    pub const fn with_budget_nj(budget_nj: u64) -> EnergyMeter {
        EnergyMeter { consumed_nj: 0, budget_nj: Some(budget_nj), tx_frames: 0, rx_frames: 0 }
    }

    /// Records a transmission of `bytes`, returning its cost (nJ).
    pub fn debit_tx(&mut self, model: &EnergyModel, bytes: usize) -> u64 {
        let cost = model.tx_cost_nj(bytes);
        self.consumed_nj = self.consumed_nj.saturating_add(cost);
        self.tx_frames += 1;
        cost
    }

    /// Records a reception of `bytes`, returning its cost (nJ).
    pub(crate) fn debit_rx(&mut self, model: &EnergyModel, bytes: usize) -> u64 {
        let cost = model.rx_cost_nj(bytes);
        self.consumed_nj = self.consumed_nj.saturating_add(cost);
        self.rx_frames += 1;
        cost
    }

    /// Total energy spent so far (nJ).
    pub fn consumed_nj(&self) -> u64 {
        self.consumed_nj
    }

    /// True once the budget (if any) is spent; an exhausted node falls
    /// silent, which upstream services observe as a dead stream.
    pub fn is_exhausted(&self) -> bool {
        matches!(self.budget_nj, Some(b) if self.consumed_nj >= b)
    }
}

impl Default for EnergyMeter {
    fn default() -> Self {
        Self::unlimited()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tx_cost_is_affine_in_bytes() {
        let m = EnergyModel::microsensor();
        let c0 = m.tx_cost_nj(0);
        let c10 = m.tx_cost_nj(10);
        let c20 = m.tx_cost_nj(20);
        assert_eq!(c0, m.tx_startup_nj);
        assert_eq!(c20 - c10, c10 - c0);
        assert_eq!(c10 - c0, 10 * 8 * m.tx_per_bit_nj);
    }

    #[test]
    fn meter_accumulates_and_counts() {
        let mut meter = EnergyMeter::unlimited();
        let m = EnergyModel::microsensor();
        let a = meter.debit_tx(&m, 16);
        let b = meter.debit_rx(&m, 8);
        assert_eq!(meter.consumed_nj(), a + b);
        assert!(!meter.is_exhausted());
    }

    #[test]
    fn budget_exhaustion() {
        let m = EnergyModel::microsensor();
        let one_frame = m.tx_cost_nj(10);
        let mut meter = EnergyMeter::with_budget_nj(one_frame * 3);
        for _ in 0..2 {
            meter.debit_tx(&m, 10);
            assert!(!meter.is_exhausted());
        }
        meter.debit_tx(&m, 10);
        assert!(meter.is_exhausted());
    }

    #[test]
    fn smaller_headers_cost_less_energy() {
        // The core of the RETRI argument: identifier bits are energy.
        let m = EnergyModel::microsensor();
        let garnet_header = 11; // 9 fixed + 2 CRC
        let retri_header = 4; // ~2-byte ephemeral id + 2 CRC
        assert!(m.tx_cost_nj(garnet_header) > m.tx_cost_nj(retri_header));
        assert_eq!(
            m.tx_cost_nj(garnet_header) - m.tx_cost_nj(retri_header),
            (garnet_header - retri_header) as u64 * 8 * m.tx_per_bit_nj
        );
    }
}
