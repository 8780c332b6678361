//! E11 — conflict mediation policies under contending consumers.
//!
//! n mutually-unaware consumers demand different reporting rates from
//! the same sensor. The three Resource Manager policies
//! (§4.2/§6) trade satisfaction against sensor energy:
//!
//! * `DenyConflicts` — only the first demand is served;
//! * `PriorityWins` — the important consumer is served, others refused;
//! * `MergeMax` — everyone is served at the fastest requested rate, at
//!   the price of sensor transmissions.

use garnet_core::resource::{Decision, MediationPolicy, ResourceManager};
use garnet_core::SubscriberId;
use garnet_wire::{ActuationTarget, SensorCommand, SensorId, StreamIndex};

use crate::table::{f2, n, Table};

/// Results of one policy under one contention level.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MediationPoint {
    /// The policy.
    pub policy: MediationPolicy,
    /// Contending consumers.
    pub consumers: usize,
    /// Requests granted.
    pub granted: u64,
    /// Requests denied.
    pub denied: u64,
    /// Fraction of consumers whose data need is met by the effective
    /// configuration (their requested rate or faster).
    pub satisfaction: f64,
    /// Effective sensor reporting rate (Hz) — the energy proxy.
    pub effective_rate_hz: f64,
}

/// Each consumer `i` demands a *faster* rate than its predecessor
/// (interval `1600 − 100·i` ms, floor 100 ms) with priority `i % 4` —
/// so a first-wins policy strands every later, hungrier consumer.
fn demand(i: usize) -> (u32, u8) {
    let interval = 1600u32.saturating_sub(100 * i as u32).max(100);
    (interval, (i % 4) as u8)
}

/// Runs one policy at one contention level against one sensor.
pub(crate) fn run_point(policy: MediationPolicy, consumers: usize) -> MediationPoint {
    let sensor = SensorId::new(1).unwrap();
    let mut rm = ResourceManager::new(policy);
    let mut granted = 0u64;
    for i in 0..consumers {
        let (interval_ms, priority) = demand(i);
        let d = rm.request(
            SubscriberId::new(i as u32),
            priority,
            &ActuationTarget::Sensor(sensor),
            &SensorCommand::SetReportInterval { stream: StreamIndex::new(0), interval_ms },
        );
        if matches!(d, Decision::Granted { .. }) {
            granted += 1;
        }
    }
    let effective_ms = rm.effective_interval_ms(sensor, StreamIndex::new(0));
    let effective_rate = effective_ms.map_or(0.0, |ms| 1000.0 / f64::from(ms));
    // A consumer is satisfied iff the effective rate covers its demand.
    let satisfied = (0..consumers)
        .filter(|&i| {
            let (interval_ms, _) = demand(i);
            effective_ms.is_some_and(|e| e <= interval_ms)
        })
        .count();
    MediationPoint {
        policy,
        consumers,
        granted,
        denied: rm.denied_count(),
        satisfaction: satisfied as f64 / consumers.max(1) as f64,
        effective_rate_hz: effective_rate,
    }
}

/// Runs the policy × contention sweep.
pub fn run() -> (Vec<MediationPoint>, Table) {
    let mut points = Vec::new();
    let mut table = Table::new(
        "E11 — conflict mediation: policy vs contention, one sensor",
        &["policy", "consumers", "granted", "denied", "satisfaction", "effective Hz"],
    );
    for &policy in
        &[MediationPolicy::DenyConflicts, MediationPolicy::PriorityWins, MediationPolicy::MergeMax]
    {
        for &consumers in &[2usize, 8, 16] {
            let p = run_point(policy, consumers);
            table.row(&[
                format!("{policy:?}"),
                n(p.consumers as u64),
                n(p.granted),
                n(p.denied),
                f2(p.satisfaction),
                f2(p.effective_rate_hz),
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
    fn merge_max_satisfies_everyone() {
        let p = run_point(MediationPolicy::MergeMax, 16);
        assert_eq!(p.granted, 16);
        assert_eq!(p.satisfaction, 1.0);
        // Effective rate = fastest demand (100ms → 10 Hz).
        assert!((p.effective_rate_hz - 10.0).abs() < 1e-9);
    }

    #[test]
    fn deny_conflicts_serves_first_only() {
        let p = run_point(MediationPolicy::DenyConflicts, 8);
        assert_eq!(p.granted, 1);
        assert_eq!(p.denied, 7);
        // Only the 100ms demand holder is satisfied.
        assert!((p.satisfaction - 1.0 / 8.0).abs() < 1e-9);
    }

    #[test]
    fn priority_wins_partial_satisfaction() {
        let p = run_point(MediationPolicy::PriorityWins, 8);
        assert!(p.granted >= 1);
        assert!(p.satisfaction > 0.0);
        assert!(p.satisfaction < 1.0, "some lower-priority demand is refused");
    }

    /// The table's verdict: at every contention level it prints,
    /// satisfaction orders the policies DenyConflicts ≤ PriorityWins ≤
    /// MergeMax, strictly at 16 consumers (0.06 / 0.25 / 1.00).
    #[test]
    fn satisfaction_orders_the_policies_at_every_printed_level() {
        let (points, _) = run();
        let satisfaction = |policy, consumers| {
            points
                .iter()
                .find(|p| p.policy == policy && p.consumers == consumers)
                .expect("run() prints every policy at every level")
                .satisfaction
        };
        let mut levels: Vec<usize> = points.iter().map(|p| p.consumers).collect();
        levels.sort_unstable();
        levels.dedup();
        assert_eq!(levels, [2, 8, 16]);
        for n in levels {
            let deny = satisfaction(MediationPolicy::DenyConflicts, n);
            let priority = satisfaction(MediationPolicy::PriorityWins, n);
            let merge = satisfaction(MediationPolicy::MergeMax, n);
            assert!(
                deny <= priority && priority <= merge,
                "n = {n}: {deny} / {priority} / {merge}"
            );
            if n == 16 {
                assert!(deny < priority && priority < merge, "n = 16 is not strict");
                assert_eq!((deny, priority, merge), (1.0 / 16.0, 0.25, 1.0));
            }
        }
    }

    #[test]
    fn merge_max_spends_most_sensor_energy() {
        let merge = run_point(MediationPolicy::MergeMax, 8);
        let deny = run_point(MediationPolicy::DenyConflicts, 8);
        assert!(merge.effective_rate_hz >= deny.effective_rate_hz);
    }
}
