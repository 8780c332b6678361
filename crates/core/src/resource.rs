//! The Resource Manager: admission control for actuation requests.
//!
//! "First, approval is sought from the Resource Manager which exercises
//! control over the permissible actions which a set of consumers may
//! request" (§4.2). Because consumers are *mutually unaware* (§2, §6),
//! their requests can conflict — one wants a sensor at 10 Hz, another
//! just put it to sleep — and "the potential for conflicting consumer
//! requests" is exactly why the manager keeps an "approximate overview of
//! the sensors' configuration" (§6).
//!
//! Three mediation policies are provided (experiment E11 compares them):
//!
//! * [`MediationPolicy::DenyConflicts`] — first demand wins; any
//!   different demand from another consumer is refused. Predictable,
//!   frustrating.
//! * [`MediationPolicy::PriorityWins`] — the highest-priority consumer's
//!   demand stands; lower priorities are refused on conflict.
//! * [`MediationPolicy::MergeMax`] — demands are merged so every consumer
//!   is satisfied: reporting intervals take the fastest requested rate,
//!   duty cycles the most-awake setting. Each consumer receives the data
//!   it asked for (a superset), at the price of sensor energy.
//!
//! Commands that carry no mediated value (sleep, stream toggles,
//! encryption, ping) are granted unchanged.

use std::collections::{BTreeMap, HashMap};

use core::fmt;
use garnet_wire::{ActuationTarget, SensorCommand, SensorId, StreamIndex};

use crate::dispatching::pubsub::SubscriberId;

/// How conflicting demands are reconciled.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MediationPolicy {
    /// Refuse any demand that differs from an existing one.
    DenyConflicts,
    /// Highest priority wins; ties go to the incumbent.
    PriorityWins,
    /// Merge demands so all consumers are satisfied (max rate / max
    /// wakefulness).
    MergeMax,
}

/// Why a request was refused.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum DenyReason {
    /// Another consumer holds a conflicting demand and policy sides with
    /// it.
    Conflict {
        /// The consumer whose demand prevailed.
        holder: SubscriberId,
    },
}

impl fmt::Display for DenyReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DenyReason::Conflict { holder } => {
                write!(f, "conflicts with demand held by {holder}")
            }
        }
    }
}

/// The manager's verdict on a request.
#[derive(Clone, Debug, PartialEq)]
pub enum Decision {
    /// Approved. Under [`MediationPolicy::MergeMax`] the effective
    /// command may be *stronger* than requested (faster rate) so that
    /// every consumer's demand is covered; the actuation service sends
    /// the effective command.
    Granted {
        /// What will actually be sent to the sensor.
        effective: SensorCommand,
    },
    /// Refused.
    Denied {
        /// Why.
        reason: DenyReason,
    },
}

impl Decision {
    /// True if granted.
    pub fn is_granted(&self) -> bool {
        matches!(self, Decision::Granted { .. })
    }
}

#[derive(Clone, Copy, Debug)]
struct Demand {
    value: u32, // interval_ms or duty permille
    priority: u8,
}

/// The Resource Manager.
///
/// # Example
///
/// ```
/// use garnet_core::resource::{MediationPolicy, ResourceManager};
/// use garnet_core::SubscriberId;
/// use garnet_wire::{ActuationTarget, SensorCommand, SensorId, StreamIndex};
///
/// let mut rm = ResourceManager::new(MediationPolicy::MergeMax);
/// let sensor = SensorId::new(3)?;
/// let decision = rm.request(
///     SubscriberId::new(1),
///     0,
///     &ActuationTarget::Sensor(sensor),
///     &SensorCommand::SetReportInterval { stream: StreamIndex::new(0), interval_ms: 500 },
/// );
/// assert!(decision.is_granted());
/// # Ok::<(), garnet_wire::WireError>(())
/// ```
#[derive(Debug)]
pub struct ResourceManager {
    policy: MediationPolicy,
    /// (sensor, stream) → per-consumer interval demands (ms).
    interval_demands: HashMap<(u32, u8), BTreeMap<SubscriberId, Demand>>,
    /// sensor → per-consumer duty-cycle demands (permille).
    duty_demands: HashMap<u32, BTreeMap<SubscriberId, Demand>>,
    approved: u64,
    denied: u64,
}

impl ResourceManager {
    /// Creates a manager with the given mediation policy and no
    /// demands.
    pub fn new(policy: MediationPolicy) -> Self {
        ResourceManager {
            policy,
            interval_demands: HashMap::new(),
            duty_demands: HashMap::new(),
            approved: 0,
            denied: 0,
        }
    }

    fn sensor_of(target: &ActuationTarget) -> Option<SensorId> {
        match target {
            ActuationTarget::Sensor(id) => Some(*id),
            ActuationTarget::Stream(s) => Some(s.sensor()),
            ActuationTarget::Area(_) => None,
        }
    }

    /// Adjudicates one actuation request. A command that carries no
    /// mediated value is granted unchanged, and so is an area-targeted
    /// request: its recipient set is unknown until transmission, so
    /// there is no per-sensor demand to mediate it with.
    ///
    /// Out of line, as tests/golden/frame_path.txt records: inlined, it
    /// joins the frame-carrying arms of `Router::step`'s one `match`.
    #[inline(never)]
    pub fn request(
        &mut self,
        consumer: SubscriberId,
        priority: u8,
        target: &ActuationTarget,
        command: &SensorCommand,
    ) -> Decision {
        let sensor = Self::sensor_of(target);

        let decision = match *command {
            SensorCommand::SetReportInterval { stream, interval_ms } => self.mediate_value(
                consumer,
                priority,
                sensor,
                command,
                MediatedKind::Interval { stream },
                interval_ms,
            ),
            SensorCommand::SetDutyCycle { permille } => self.mediate_value(
                consumer,
                priority,
                sensor,
                command,
                MediatedKind::Duty,
                u32::from(permille),
            ),
            _ => Decision::Granted { effective: *command },
        };

        match &decision {
            Decision::Granted { .. } => self.approved += 1,
            Decision::Denied { .. } => self.denied += 1,
        }
        decision
    }

    fn mediate_value(
        &mut self,
        consumer: SubscriberId,
        priority: u8,
        sensor: Option<SensorId>,
        command: &SensorCommand,
        kind: MediatedKind,
        requested: u32,
    ) -> Decision {
        let Some(sensor) = sensor else {
            // Area targets cannot be mediated per-sensor: pass through.
            return Decision::Granted { effective: *command };
        };

        let demands = match kind {
            MediatedKind::Interval { stream } => {
                self.interval_demands.entry((sensor.as_u32(), stream.as_u8())).or_default()
            }
            MediatedKind::Duty => self.duty_demands.entry(sensor.as_u32()).or_default(),
        };

        // Conflict resolution decides the candidate effective value.
        let others: Vec<(SubscriberId, Demand)> =
            demands.iter().filter(|(id, _)| **id != consumer).map(|(id, d)| (*id, *d)).collect();
        let effective_value = match self.policy {
            MediationPolicy::DenyConflicts => {
                if let Some((holder, d)) = others.iter().find(|(_, d)| d.value != requested) {
                    let _ = d;
                    return Decision::Denied { reason: DenyReason::Conflict { holder: *holder } };
                }
                requested
            }
            MediationPolicy::PriorityWins => {
                if let Some((holder, _)) =
                    others.iter().find(|(_, d)| d.value != requested && d.priority >= priority)
                {
                    return Decision::Denied { reason: DenyReason::Conflict { holder: *holder } };
                }
                requested
            }
            MediationPolicy::MergeMax => match kind {
                // Fastest rate = smallest interval covers every demand.
                MediatedKind::Interval { .. } => {
                    others.iter().map(|(_, d)| d.value).fold(requested, Ord::min)
                }
                // Most awake = largest duty cycle.
                MediatedKind::Duty => others.iter().map(|(_, d)| d.value).fold(requested, Ord::max),
            },
        };

        let effective = kind.rebuild(command, effective_value);

        // Record this consumer's demand (the *requested* value — releases
        // recompute merges from raw demands).
        let demands = match kind {
            MediatedKind::Interval { stream } => {
                self.interval_demands.entry((sensor.as_u32(), stream.as_u8())).or_default()
            }
            MediatedKind::Duty => self.duty_demands.entry(sensor.as_u32()).or_default(),
        };
        demands.insert(consumer, Demand { value: requested, priority });

        // Under PriorityWins the winning demand displaces losers' records.
        if self.policy == MediationPolicy::PriorityWins {
            demands.retain(|_, d| d.value == requested || d.priority > priority);
        }

        Decision::Granted { effective }
    }

    /// Withdraws every demand held by a departing consumer. Returns the
    /// number of demands released.
    pub(crate) fn release_consumer(&mut self, consumer: SubscriberId) -> usize {
        let mut released = 0;
        self.interval_demands.retain(|_, demands| {
            if demands.remove(&consumer).is_some() {
                released += 1;
            }
            !demands.is_empty()
        });
        self.duty_demands.retain(|_, demands| {
            if demands.remove(&consumer).is_some() {
                released += 1;
            }
            !demands.is_empty()
        });
        released
    }

    /// The merged effective interval (ms) currently demanded for a
    /// stream, if any consumer holds a demand — the "approximate
    /// overview of the sensors' configuration" (§6).
    pub fn effective_interval_ms(&self, sensor: SensorId, stream: StreamIndex) -> Option<u32> {
        self.interval_demands
            .get(&(sensor.as_u32(), stream.as_u8()))
            .and_then(|d| d.values().map(|d| d.value).min())
    }

    /// Requests approved so far.
    pub(crate) fn approved_count(&self) -> u64 {
        self.approved
    }

    /// Requests denied so far.
    pub fn denied_count(&self) -> u64 {
        self.denied
    }
}

#[derive(Clone, Copy, Debug)]
enum MediatedKind {
    Interval { stream: StreamIndex },
    Duty,
}

impl MediatedKind {
    fn rebuild(self, original: &SensorCommand, value: u32) -> SensorCommand {
        match (self, original) {
            (MediatedKind::Interval { stream }, _) => {
                SensorCommand::SetReportInterval { stream, interval_ms: value }
            }
            (MediatedKind::Duty, _) => {
                SensorCommand::SetDutyCycle { permille: value.min(u32::from(u16::MAX)) as u16 }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sensor() -> SensorId {
        SensorId::new(5).unwrap()
    }

    fn target() -> ActuationTarget {
        ActuationTarget::Sensor(sensor())
    }

    fn interval(ms: u32) -> SensorCommand {
        SensorCommand::SetReportInterval { stream: StreamIndex::new(0), interval_ms: ms }
    }

    fn sub(n: u32) -> SubscriberId {
        SubscriberId::new(n)
    }

    #[test]
    fn unconstrained_request_granted() {
        let mut rm = ResourceManager::new(MediationPolicy::MergeMax);
        let d = rm.request(sub(1), 0, &target(), &interval(500));
        assert_eq!(d, Decision::Granted { effective: interval(500) });
        assert_eq!(rm.approved_count(), 1);
    }

    #[test]
    fn non_mediated_commands_are_granted_unchanged() {
        let mut rm = ResourceManager::new(MediationPolicy::DenyConflicts);
        for command in [SensorCommand::Sleep { duration_ms: 100 }, SensorCommand::Ping] {
            assert_eq!(
                rm.request(sub(1), 0, &target(), &command),
                Decision::Granted { effective: command }
            );
        }
        assert_eq!((rm.approved_count(), rm.denied_count()), (2, 0));
    }

    #[test]
    fn merge_max_takes_fastest_interval() {
        let mut rm = ResourceManager::new(MediationPolicy::MergeMax);
        assert_eq!(
            rm.request(sub(1), 0, &target(), &interval(1000)),
            Decision::Granted { effective: interval(1000) }
        );
        // A second consumer wants 5x faster: both get 200ms.
        assert_eq!(
            rm.request(sub(2), 0, &target(), &interval(200)),
            Decision::Granted { effective: interval(200) }
        );
        // A third wants slower: effective stays at the fastest demand.
        assert_eq!(
            rm.request(sub(3), 0, &target(), &interval(2000)),
            Decision::Granted { effective: interval(200) }
        );
        assert_eq!(rm.effective_interval_ms(sensor(), StreamIndex::new(0)), Some(200));
    }

    #[test]
    fn deny_conflicts_refuses_second_differing_demand() {
        let mut rm = ResourceManager::new(MediationPolicy::DenyConflicts);
        assert!(rm.request(sub(1), 0, &target(), &interval(1000)).is_granted());
        let d = rm.request(sub(2), 5, &target(), &interval(100));
        assert!(matches!(
            d,
            Decision::Denied { reason: DenyReason::Conflict { holder } } if holder == sub(1)
        ));
        // An identical demand is fine.
        assert!(rm.request(sub(3), 0, &target(), &interval(1000)).is_granted());
    }

    #[test]
    fn priority_wins_overrides_lower() {
        let mut rm = ResourceManager::new(MediationPolicy::PriorityWins);
        assert!(rm.request(sub(1), 1, &target(), &interval(1000)).is_granted());
        // Lower priority conflicting demand refused.
        assert!(!rm.request(sub(2), 0, &target(), &interval(100)).is_granted());
        // Equal priority: incumbent wins.
        assert!(!rm.request(sub(3), 1, &target(), &interval(100)).is_granted());
        // Higher priority displaces.
        assert_eq!(
            rm.request(sub(4), 3, &target(), &interval(100)),
            Decision::Granted { effective: interval(100) }
        );
        assert_eq!(rm.effective_interval_ms(sensor(), StreamIndex::new(0)), Some(100));
    }

    #[test]
    fn duty_cycle_merge_takes_most_awake() {
        let mut rm = ResourceManager::new(MediationPolicy::MergeMax);
        let duty = |p: u16| SensorCommand::SetDutyCycle { permille: p };
        assert_eq!(
            rm.request(sub(1), 0, &target(), &duty(100)),
            Decision::Granted { effective: duty(100) }
        );
        assert_eq!(
            rm.request(sub(2), 0, &target(), &duty(700)),
            Decision::Granted { effective: duty(700) }
        );
        // A sleepier demand cannot drag the merged value down.
        assert_eq!(
            rm.request(sub(3), 0, &target(), &duty(50)),
            Decision::Granted { effective: duty(700) }
        );
    }

    #[test]
    fn release_consumer_recomputes_merge() {
        let mut rm = ResourceManager::new(MediationPolicy::MergeMax);
        rm.request(sub(1), 0, &target(), &interval(1000));
        rm.request(sub(2), 0, &target(), &interval(100));
        assert_eq!(rm.effective_interval_ms(sensor(), StreamIndex::new(0)), Some(100));
        assert_eq!(rm.release_consumer(sub(2)), 1);
        assert_eq!(rm.effective_interval_ms(sensor(), StreamIndex::new(0)), Some(1000));
        assert_eq!(rm.release_consumer(sub(1)), 1);
        assert_eq!(rm.effective_interval_ms(sensor(), StreamIndex::new(0)), None);
        assert_eq!(rm.release_consumer(sub(1)), 0);
    }

    #[test]
    fn streams_mediate_independently() {
        let mut rm = ResourceManager::new(MediationPolicy::DenyConflicts);
        let s1 = SensorCommand::SetReportInterval { stream: StreamIndex::new(1), interval_ms: 100 };
        assert!(rm.request(sub(1), 0, &target(), &interval(1000)).is_granted());
        assert!(
            rm.request(sub(2), 0, &target(), &s1).is_granted(),
            "different stream, no conflict"
        );
    }

    #[test]
    fn stream_target_resolves_to_sensor() {
        let mut rm = ResourceManager::new(MediationPolicy::DenyConflicts);
        let stream_target =
            ActuationTarget::Stream(garnet_wire::StreamId::new(sensor(), StreamIndex::new(0)));
        assert!(rm.request(sub(1), 0, &stream_target, &interval(1000)).is_granted());
        // A demand on the sensor itself meets the stream target's demand.
        let d = rm.request(sub(2), 0, &target(), &interval(100));
        assert!(matches!(
            d,
            Decision::Denied { reason: DenyReason::Conflict { holder } } if holder == sub(1)
        ));
        assert_eq!(rm.effective_interval_ms(sensor(), StreamIndex::new(0)), Some(1000));
    }

    #[test]
    fn deny_reason_displays() {
        let r = DenyReason::Conflict { holder: sub(9) };
        assert!(r.to_string().contains("sub9"));
    }
}
