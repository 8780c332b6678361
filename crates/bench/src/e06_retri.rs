//! E6 — the RETRI comparison (§7, Elson & Estrin).
//!
//! Two series against transaction density: (a) identifier bits per
//! packet — RETRI's constant small header vs Garnet's constant 48-bit
//! stable identifiers; (b) energy per successfully delivered reading —
//! where RETRI's collisions erode its header saving as density grows.
//! The expected shape: RETRI wins at low density, Garnet wins past the
//! crossover; and RETRI's curve depends on *density*, not network size,
//! exactly as the paper says.

use garnet_baselines::retri::{
    analytic_collision_probability, scheme_cost, RetriScheme, SchemeCost,
};
use garnet_radio::EnergyModel;
use garnet_simkit::SimRng;

use crate::table::{f2, f3, n, Table};

/// One density point comparing both schemes.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RetriPoint {
    /// Concurrent transactions in the collision domain.
    pub concurrent: usize,
    /// RETRI outcome.
    pub retri: SchemeCost,
    /// Garnet outcome.
    pub garnet: SchemeCost,
    /// Analytic collision probability (any collision among concurrent).
    pub analytic_any_collision: f64,
}

/// The densities the experiment sweeps.
pub(crate) const DENSITIES: [usize; 6] = [2, 8, 32, 64, 128, 512];

/// RETRI identifier width used throughout (the original paper's small-id
/// regime).
pub(crate) const RETRI_ID_BITS: u32 = 8;

/// Runs the density sweep.
pub fn run() -> (Vec<RetriPoint>, Table) {
    let energy = EnergyModel::microsensor();
    let mut rng = SimRng::seed(0xE6);
    let payload_bits = 16 * 8;
    let mut points = Vec::new();
    let mut table = Table::new(
        "E6 — RETRI vs Garnet stable StreamIDs (id bits & energy/delivered reading)",
        &[
            "concurrent",
            "RETRI id bits",
            "Garnet id bits",
            "RETRI collision rate",
            "RETRI nJ/reading",
            "Garnet nJ/reading",
            "winner",
        ],
    );
    for &concurrent in &DENSITIES {
        let retri = scheme_cost(
            RetriScheme::Ephemeral { id_bits: RETRI_ID_BITS },
            concurrent,
            payload_bits,
            &energy,
            &mut rng,
        );
        let garnet =
            scheme_cost(RetriScheme::GarnetStable, concurrent, payload_bits, &energy, &mut rng);
        let winner = if retri.energy_per_delivered_nj < garnet.energy_per_delivered_nj {
            "RETRI"
        } else {
            "Garnet"
        };
        table.row(&[
            n(concurrent as u64),
            n(u64::from(retri.id_bits_per_packet)),
            n(u64::from(garnet.id_bits_per_packet)),
            f3(retri.collision_rate),
            f2(retri.energy_per_delivered_nj),
            f2(garnet.energy_per_delivered_nj),
            winner.into(),
        ]);
        points.push(RetriPoint {
            concurrent,
            retri,
            garnet,
            analytic_any_collision: analytic_collision_probability(
                RETRI_ID_BITS,
                concurrent as u64,
            ),
        });
    }
    (points, table)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crossover_exists_and_is_ordered() {
        let (points, _) = run();
        // RETRI wins at the sparse end, Garnet at the dense end, and the
        // winner flips exactly once: between 8 concurrent transactions
        // (RETRI's last win) and 32 (Garnet's first), as EXPERIMENTS.md
        // quotes ("RETRI wins below ~16 … loses above ~32").
        let retri_wins: Vec<bool> = points
            .iter()
            .map(|p| p.retri.energy_per_delivered_nj < p.garnet.energy_per_delivered_nj)
            .collect();
        let flip = retri_wins.iter().position(|&w| !w).expect("Garnet wins somewhere");
        assert!(flip > 0, "RETRI wins the sparsest point: {retri_wins:?}");
        assert!(retri_wins[flip..].iter().all(|&w| !w), "one flip only: {retri_wins:?}");
        assert_eq!((points[flip - 1].concurrent, points[flip].concurrent), (8, 32));
        // Garnet's cost is density-independent.
        let garnet_costs: Vec<f64> =
            points.iter().map(|p| p.garnet.energy_per_delivered_nj).collect();
        assert!(garnet_costs.windows(2).all(|w| (w[0] - w[1]).abs() < 1e-9));
        // RETRI's collision rate is monotone in density.
        for w in points.windows(2) {
            assert!(w[1].retri.collision_rate >= w[0].retri.collision_rate - 0.02);
        }
    }

    #[test]
    fn simulated_rate_tracks_analytic() {
        let (points, _) = run();
        for p in &points {
            // Per-transaction rate is below the any-collision probability
            // but grows with it.
            if p.analytic_any_collision > 0.5 {
                assert!(p.retri.collision_rate > 0.05, "density {}", p.concurrent);
            }
        }
    }
}
