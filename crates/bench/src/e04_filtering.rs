//! E4 — duplicate elimination under overlapping receivers and loss.
//!
//! "Receivers … are arranged such that their effective receiving areas
//! may overlap. Such coverage improves data reception but causes
//! potential duplication of data messages" (§4.2). The sweep covers the
//! trade-off directly: overlap factor k ∈ {1..8} against frame loss
//! probability — more overlap means more duplicates to filter but fewer
//! messages lost outright.

use garnet_core::filtering::{FilterConfig, FilteringService};
use garnet_radio::ReceiverId;
use garnet_simkit::{SimDuration, SimRng, SimTime};
use garnet_workloads::TrafficGen;

use crate::table::{f3, n, Table};

/// One sweep point.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FilteringPoint {
    /// Receivers hearing each transmission.
    pub overlap: u32,
    /// Per-copy loss probability.
    pub loss: f64,
    /// Unique messages transmitted.
    pub transmitted: u64,
    /// Frame copies that reached the filter.
    pub copies_arrived: u64,
    /// Unique messages delivered downstream.
    pub delivered: u64,
    /// Duplicates eliminated.
    pub duplicates: u64,
    /// Delivery completeness (delivered / transmitted).
    pub completeness: f64,
}

/// Runs one `(overlap, loss)` point over `n` messages.
pub(crate) fn run_point(overlap: u32, loss: f64, n_msgs: u16, seed: u64) -> FilteringPoint {
    let mut gen = TrafficGen::new(seed);
    let frames = gen.burst(1, n_msgs, 16, SimDuration::from_millis(5), overlap, 0.05);
    let mut rng = SimRng::seed(seed ^ 0x10C0);
    let mut filter = FilteringService::new(FilterConfig::default());
    let mut copies_arrived = 0u64;
    let mut delivered = 0u64;
    let mut last_t = SimTime::ZERO;
    for f in frames {
        if rng.chance(loss) {
            continue; // this copy faded out
        }
        copies_arrived += 1;
        last_t = last_t.max(f.at);
        delivered +=
            filter.on_frame(ReceiverId::new(f.receiver), -50.0, &f.frame, f.at).deliveries.len()
                as u64;
    }
    // Flush reorder buffers.
    delivered += filter.on_tick(last_t.saturating_add(SimDuration::from_secs(10))).len() as u64;
    FilteringPoint {
        overlap,
        loss,
        transmitted: u64::from(n_msgs),
        copies_arrived,
        delivered,
        duplicates: filter.duplicate_count(),
        completeness: delivered as f64 / f64::from(n_msgs),
    }
}

/// One ablation point for the reorder-timeout sweep.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TimeoutAblationPoint {
    /// Reorder timeout (ms).
    pub timeout_ms: u64,
    /// Unique messages delivered.
    pub delivered: u64,
    /// Gaps accepted (messages declared lost and skipped past).
    pub gaps: u64,
    /// Messages that waited in the reorder buffer.
    pub reordered: u64,
}

/// Ablation: reorder-timeout under heavy local reordering and loss.
/// Short timeouts give up on out-of-order messages quickly (more
/// spurious gaps, lower latency); long ones wait for stragglers.
pub(crate) fn run_timeout_ablation(timeout_ms: u64, seed: u64) -> TimeoutAblationPoint {
    let mut gen = TrafficGen::new(seed);
    let mut frames = gen.burst(1, 2_000, 16, SimDuration::from_millis(5), 2, 0.4);
    let _ = gen.corrupt(&mut frames, 0.0);
    let mut rng = SimRng::seed(seed ^ 0xAB1A);
    let mut filter = FilteringService::new(FilterConfig {
        reorder_timeout: SimDuration::from_millis(timeout_ms),
        ..FilterConfig::default()
    });
    let mut delivered = 0u64;
    let mut clock = SimTime::ZERO;
    for f in frames {
        if rng.chance(0.1) {
            continue;
        }
        clock = clock.max(f.at);
        delivered +=
            filter.on_frame(ReceiverId::new(f.receiver), -50.0, &f.frame, f.at).deliveries.len()
                as u64;
        // Run the maintenance tick as the middleware would.
        while filter.next_deadline().is_some_and(|d| d <= clock) {
            delivered += filter.on_tick(clock).len() as u64;
        }
    }
    delivered += filter.on_tick(clock.saturating_add(SimDuration::from_secs(60))).len() as u64;
    TimeoutAblationPoint {
        timeout_ms,
        delivered,
        gaps: filter.gap_count(),
        reordered: filter.reordered_count(),
    }
}

/// Runs the reorder-timeout ablation sweep.
pub fn run_ablation() -> (Vec<TimeoutAblationPoint>, Table) {
    let mut points = Vec::new();
    let mut table = Table::new(
        "E4a — ablation: reorder timeout under 40% local reordering, 10% loss",
        &["timeout ms", "delivered", "gaps accepted", "buffered"],
    );
    for &ms in &[1u64, 10, 50, 200, 1000] {
        let p = run_timeout_ablation(ms, 21);
        table.row(&[n(p.timeout_ms), n(p.delivered), n(p.gaps), n(p.reordered)]);
        points.push(p);
    }
    (points, table)
}

/// Runs the overlap × loss sweep.
pub fn run() -> (Vec<FilteringPoint>, Table) {
    let mut points = Vec::new();
    let mut table = Table::new(
        "E4 — duplicate filtering: receiver overlap k × loss",
        &["k", "loss", "copies in", "delivered", "dups removed", "completeness"],
    );
    for &overlap in &[1u32, 2, 4, 8] {
        for &loss in &[0.0, 0.1, 0.3] {
            let p = run_point(overlap, loss, 2_000, 42);
            table.row(&[
                n(u64::from(p.overlap)),
                f3(p.loss),
                n(p.copies_arrived),
                n(p.delivered),
                n(p.duplicates),
                f3(p.completeness),
            ]);
            points.push(p);
        }
    }
    (points, table)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_loss_single_receiver_is_lossless_dupless() {
        let p = run_point(1, 0.0, 500, 1);
        assert_eq!(p.delivered, 500);
        assert_eq!(p.duplicates, 0);
        assert_eq!(p.completeness, 1.0);
    }

    #[test]
    fn overlap_creates_duplicates_filter_removes_them() {
        let p = run_point(4, 0.0, 500, 2);
        assert_eq!(p.copies_arrived, 2_000);
        assert_eq!(p.delivered, 500, "unique messages exactly once");
        assert_eq!(p.duplicates, 1_500);
    }

    #[test]
    fn overlap_restores_completeness_under_loss() {
        // The paper's point: overlap "improves data reception".
        let lone = run_point(1, 0.3, 2_000, 3);
        let redundant = run_point(4, 0.3, 2_000, 3);
        assert!(lone.completeness < 0.8, "lone={}", lone.completeness);
        assert!(redundant.completeness > 0.95, "redundant={}", redundant.completeness);
        assert!(redundant.duplicates > 0);
    }

    #[test]
    fn timeout_ablation_trades_gaps_for_patience() {
        let (points, _) = run_ablation();
        // Delivery is exactly-once regardless of timeout.
        for p in &points {
            assert!(p.delivered <= 2_000, "over-delivery at {}ms", p.timeout_ms);
        }
        // Messages were genuinely buffered in every configuration.
        assert!(points.iter().all(|p| p.reordered > 0));
        // A longer timeout never accepts more gaps than a shorter one
        // (monotone patience).
        for w in points.windows(2) {
            assert!(
                w[1].gaps <= w[0].gaps,
                "{}ms gaps {} > {}ms gaps {}",
                w[1].timeout_ms,
                w[1].gaps,
                w[0].timeout_ms,
                w[0].gaps
            );
        }
    }

    #[test]
    fn completeness_never_exceeds_one() {
        for seed in 0..5 {
            let p = run_point(8, 0.1, 300, seed);
            assert!(p.completeness <= 1.0 + 1e-9, "over-delivery at seed {seed}");
        }
    }
}
