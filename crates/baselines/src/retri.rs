//! Random Ephemeral TRansaction Identifiers (Elson & Estrin, ICDCS-21),
//! reimplemented as a baseline identifier scheme.
//!
//! RETRI replaces pre-assigned node/stream identifiers with a random
//! `k`-bit identifier drawn per *transaction* (a short burst of related
//! packets). The win: `k` can be much smaller than a global id space
//! because it only needs to be unique among *concurrently active*
//! transactions in one collision domain; identifier bits are energy, so
//! small `k` means cheaper packets. The loss: with probability growing
//! in the number of concurrent transactions (the birthday bound), two
//! transactions collide and their packets are mixed or discarded.
//!
//! The paper (§7): "their approach scales with the increasing transaction
//! density and not the sheer size of the network … because Garnet
//! depends on unique consistent stream IDs, the ephemeral nature of the
//! RETRI identifier renders their technique inappropriate." Experiment
//! E6 reproduces both curves: bits saved vs collision cost.

use garnet_radio::EnergyModel;
use garnet_simkit::SimRng;

/// Garnet's identifier overhead per data message: 32-bit StreamID +
/// 16-bit sequence (Fig. 2).
pub(crate) const GARNET_ID_BITS: u32 = 48;

/// An identifier scheme under comparison.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RetriScheme {
    /// Random ephemeral ids of `id_bits` bits (plus a small sequence
    /// within the transaction, charged at 8 bits as in the original
    /// paper's framing).
    Ephemeral {
        /// Identifier width in bits (4–32 sensible).
        id_bits: u32,
    },
    /// Garnet's stable 24+8-bit StreamID + 16-bit sequence.
    GarnetStable,
}

impl RetriScheme {
    /// Identifier bits carried by every packet under this scheme.
    pub(crate) fn id_bits_per_packet(self) -> u32 {
        match self {
            RetriScheme::Ephemeral { id_bits } => id_bits + 8,
            RetriScheme::GarnetStable => GARNET_ID_BITS,
        }
    }
}

/// Analytic probability that at least one collision occurs among
/// `concurrent` transactions drawing uniform `id_bits`-bit identifiers
/// (the birthday bound, computed exactly in log space).
pub fn analytic_collision_probability(id_bits: u32, concurrent: u64) -> f64 {
    let space = 2f64.powi(id_bits.min(63) as i32);
    if concurrent as f64 >= space {
        return 1.0;
    }
    let mut log_no_collision = 0f64;
    for i in 0..concurrent {
        log_no_collision += (1.0 - i as f64 / space).ln();
    }
    1.0 - log_no_collision.exp()
}

/// Monte-Carlo fraction of *transactions* that land on a colliding
/// identifier (packets of such transactions are ambiguous and must be
/// discarded).
pub(crate) fn simulate_collision_rate(
    id_bits: u32,
    concurrent: usize,
    trials: u32,
    rng: &mut SimRng,
) -> f64 {
    assert!((1..=32).contains(&id_bits), "id_bits must be 1..=32");
    let mask = if id_bits == 32 { u32::MAX } else { (1u32 << id_bits) - 1 };
    let mut collided_total = 0u64;
    let mut ids: Vec<u32> = Vec::with_capacity(concurrent);
    for _ in 0..trials {
        ids.clear();
        for _ in 0..concurrent {
            ids.push((rng.next_u64() as u32) & mask);
        }
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        // Count members of any identifier that appears more than once.
        let mut i = 0;
        while i < sorted.len() {
            let mut j = i + 1;
            while j < sorted.len() && sorted[j] == sorted[i] {
                j += 1;
            }
            if j - i > 1 {
                collided_total += (j - i) as u64;
            }
            i = j;
        }
    }
    collided_total as f64 / (concurrent as u64 * u64::from(trials)) as f64
}

/// Cost report for one scheme at one operating point.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SchemeCost {
    /// Identifier bits per packet.
    pub id_bits_per_packet: u32,
    /// Fraction of transactions lost to identifier collisions.
    pub collision_rate: f64,
    /// Mean radio energy per *successfully delivered* reading (nJ):
    /// collided transactions spend their energy and deliver nothing.
    pub energy_per_delivered_nj: f64,
}

/// Computes the energy-per-delivered-reading trade-off for a scheme.
///
/// Model: each transaction is one packet of `payload_bits` payload plus
/// identifier bits plus `framing_bits` of PHY/CRC framing; a collided
/// transaction's energy is wasted.
pub fn scheme_cost(
    scheme: RetriScheme,
    concurrent: usize,
    payload_bits: u32,
    energy: &EnergyModel,
    rng: &mut SimRng,
) -> SchemeCost {
    let id_bits = scheme.id_bits_per_packet();
    let framing_bits = 10 * 8; // preamble + CRC + header byte
    let packet_bits = u64::from(id_bits + payload_bits + framing_bits);
    let packet_bytes = packet_bits.div_ceil(8) as usize;
    let collision_rate = match scheme {
        RetriScheme::Ephemeral { id_bits } => {
            simulate_collision_rate(id_bits, concurrent, 400, rng)
        }
        RetriScheme::GarnetStable => 0.0,
    };
    let tx_nj = energy.tx_cost_nj(packet_bytes) as f64;
    let delivered_fraction = (1.0 - collision_rate).max(1e-9);
    SchemeCost {
        id_bits_per_packet: id_bits,
        collision_rate,
        energy_per_delivered_nj: tx_nj / delivered_fraction,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_bits_per_packet() {
        assert_eq!(RetriScheme::GarnetStable.id_bits_per_packet(), 48);
        assert_eq!(RetriScheme::Ephemeral { id_bits: 8 }.id_bits_per_packet(), 16);
        assert!(
            RetriScheme::Ephemeral { id_bits: 8 }.id_bits_per_packet()
                < RetriScheme::GarnetStable.id_bits_per_packet(),
            "RETRI's whole point: fewer identifier bits"
        );
    }

    #[test]
    fn analytic_collision_edge_cases() {
        assert_eq!(analytic_collision_probability(16, 0), 0.0);
        assert_eq!(analytic_collision_probability(16, 1), 0.0);
        // With as many transactions as identifiers, collision is certain.
        assert_eq!(analytic_collision_probability(4, 16), 1.0);
        // Birthday: 23 people, 365 days ≈ 50.7%. Use 2^9=512 ids, 27 txs
        // ≈ 50% ballpark.
        let p = analytic_collision_probability(9, 27);
        assert!((0.4..0.6).contains(&p), "p={p}");
    }

    #[test]
    fn analytic_probability_is_monotone_in_density() {
        let mut prev = 0.0;
        for n in [1u64, 4, 16, 64, 256] {
            let p = analytic_collision_probability(12, n);
            assert!(p >= prev, "p({n})={p} < {prev}");
            prev = p;
        }
    }

    #[test]
    fn simulated_rate_matches_analytic_direction() {
        let mut rng = SimRng::seed(1);
        // 8-bit ids: with 4 concurrent transactions the per-transaction
        // collision rate is ~1.2%; with 100 it is ~32%.
        let sparse = simulate_collision_rate(8, 4, 300, &mut rng);
        let dense = simulate_collision_rate(8, 100, 300, &mut rng);
        assert!(sparse < dense, "sparse={sparse} dense={dense}");
        assert!(sparse < 0.05, "sparse={sparse}");
        assert!(dense > 0.2, "dense={dense}");
    }

    #[test]
    fn simulated_single_transaction_never_collides() {
        let mut rng = SimRng::seed(2);
        assert_eq!(simulate_collision_rate(8, 1, 100, &mut rng), 0.0);
    }

    #[test]
    fn garnet_scheme_never_collides() {
        let mut rng = SimRng::seed(3);
        let cost = scheme_cost(
            RetriScheme::GarnetStable,
            10_000,
            16 * 8,
            &EnergyModel::microsensor(),
            &mut rng,
        );
        assert_eq!(cost.collision_rate, 0.0);
    }

    #[test]
    fn retri_wins_at_low_density_loses_at_high() {
        // The E6 crossover in miniature.
        let energy = EnergyModel::microsensor();
        let mut rng = SimRng::seed(4);
        let retri = RetriScheme::Ephemeral { id_bits: 8 };

        let sparse_retri = scheme_cost(retri, 2, 16 * 8, &energy, &mut rng);
        let sparse_garnet = scheme_cost(RetriScheme::GarnetStable, 2, 16 * 8, &energy, &mut rng);
        assert!(
            sparse_retri.energy_per_delivered_nj < sparse_garnet.energy_per_delivered_nj,
            "at low density RETRI's smaller header wins: {} vs {}",
            sparse_retri.energy_per_delivered_nj,
            sparse_garnet.energy_per_delivered_nj
        );

        let dense_retri = scheme_cost(retri, 300, 16 * 8, &energy, &mut rng);
        let dense_garnet = scheme_cost(RetriScheme::GarnetStable, 300, 16 * 8, &energy, &mut rng);
        assert!(
            dense_retri.energy_per_delivered_nj > dense_garnet.energy_per_delivered_nj,
            "at high density collisions eat RETRI's saving: {} vs {}",
            dense_retri.energy_per_delivered_nj,
            dense_garnet.energy_per_delivered_nj
        );
    }

    #[test]
    fn simulation_is_deterministic_per_seed() {
        let a = simulate_collision_rate(10, 50, 100, &mut SimRng::seed(9));
        let b = simulate_collision_rate(10, 50, 100, &mut SimRng::seed(9));
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic]
    fn zero_bit_ids_rejected() {
        simulate_collision_rate(0, 10, 10, &mut SimRng::seed(1));
    }
}
