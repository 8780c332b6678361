//! The Super Coordinator: global consumer-state awareness and
//! predictive actuation.
//!
//! "Suitably sophisticated consumer processes may forward state-change
//! details to the Super Coordinator, which eventually amasses a global
//! view of these consumers. In response to (or in anticipation of) global
//! consumer states, the Super Coordinator may invoke policy changes in
//! the strategy used by the Resource Manager" (§4.2). §6.1 singles out
//! the predictive capability as the ongoing-work centrepiece: for a
//! complex water course, "the ability of the super coordinator to
//! anticipate changes to water bodies and preempt actuation requests is
//! expected to be significant".
//!
//! The predictor is a first-order Markov model per consumer: transition
//! counts between reported states. When a consumer enters state `s` and
//! the model gives a sufficiently likely next state `s'` that has a
//! registered policy action, the coordinator emits that action *now* —
//! before the consumer asks — hiding the request/approval/transmission
//! latency from the eventual need. Experiment E10 measures the saving
//! against the reactive baseline.

use std::collections::{BTreeMap, HashMap};

use garnet_simkit::SimTime;
use garnet_wire::{ActuationTarget, SensorCommand};

/// An application-defined consumer state (opaque to the coordinator).
pub type ConsumerStateId = u32;

/// Whether the coordinator anticipates or merely reacts (the E10 ablation
/// switch).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum CoordinationMode {
    /// Emit policy actions only for states actually entered.
    Reactive,
    /// Additionally emit actions for likely *next* states.
    Predictive {
        /// Minimum observed transition probability before anticipating.
        min_confidence: f64,
    },
}

/// A pre-registered response to a consumer state: what the middleware
/// should do to the sensor field when (or just before) the state holds.
#[derive(Clone, Debug, PartialEq)]
pub struct PolicyAction {
    /// Where to send the command.
    pub target: ActuationTarget,
    /// The command.
    pub command: SensorCommand,
    /// Priority to submit with.
    pub priority: u8,
    /// Whether this action may be fired *in anticipation* of the state.
    /// Escalations (sample faster) are safe to pre-fire; demotions
    /// (relax, sleep) are not — predicting "the flood will end" must not
    /// slow the stations while it is still running.
    pub anticipatable: bool,
}

/// An action emitted by the coordinator, labelled with why.
#[derive(Clone, Debug, PartialEq)]
pub struct CoordinatorAction {
    /// The action to execute via Resource Manager + Actuation Service.
    pub action: PolicyAction,
    /// True if this was issued in *anticipation* of a predicted state.
    pub anticipatory: bool,
    /// The state that triggered it (actual, or predicted).
    pub state: ConsumerStateId,
}

#[derive(Debug, Default)]
struct ConsumerModel {
    current: Option<ConsumerStateId>,
    /// transitions[(from, to)] = count.
    transitions: BTreeMap<(ConsumerStateId, ConsumerStateId), u64>,
    /// outgoing totals per from-state.
    totals: BTreeMap<ConsumerStateId, u64>,
    last_change: SimTime,
}

impl ConsumerModel {
    fn record(&mut self, to: ConsumerStateId, at: SimTime) {
        if let Some(from) = self.current {
            *self.transitions.entry((from, to)).or_insert(0) += 1;
            *self.totals.entry(from).or_insert(0) += 1;
        }
        self.current = Some(to);
        self.last_change = at;
    }

    fn predict(&self, from: ConsumerStateId) -> Option<(ConsumerStateId, f64)> {
        let total = *self.totals.get(&from)?;
        if total == 0 {
            return None;
        }
        self.transitions
            .range((from, ConsumerStateId::MIN)..=(from, ConsumerStateId::MAX))
            .max_by_key(|(_, &count)| count)
            .map(|(&(_, to), &count)| (to, count as f64 / total as f64))
    }
}

/// The Super Coordinator.
///
/// # Example
///
/// ```
/// use garnet_core::coordinator::{CoordinationMode, PolicyAction, SuperCoordinator};
/// use garnet_simkit::SimTime;
/// use garnet_wire::{ActuationTarget, SensorCommand, SensorId, StreamIndex};
///
/// let mut coord = SuperCoordinator::new(CoordinationMode::Predictive { min_confidence: 0.5 });
/// coord.register_policy(2, PolicyAction {
///     target: ActuationTarget::Sensor(SensorId::new(1)?),
///     command: SensorCommand::SetReportInterval { stream: StreamIndex::new(0), interval_ms: 100 },
///     priority: 5,
///     anticipatable: true,
/// });
/// // Teach the model that state 1 is always followed by state 2 …
/// for i in 0..3u64 {
///     coord.report_state(7, 1, SimTime::from_secs(i * 2));
///     coord.report_state(7, 2, SimTime::from_secs(i * 2 + 1));
/// }
/// // … so re-entering state 1 anticipates state 2's action immediately.
/// let actions = coord.report_state(7, 1, SimTime::from_secs(100));
/// assert!(actions.iter().any(|a| a.anticipatory));
/// # Ok::<(), garnet_wire::WireError>(())
/// ```
#[derive(Debug)]
pub struct SuperCoordinator {
    mode: CoordinationMode,
    models: HashMap<u32, ConsumerModel>,
    policies: BTreeMap<ConsumerStateId, PolicyAction>,
    reports: u64,
    reactive_actions: u64,
    anticipatory_actions: u64,
}

impl SuperCoordinator {
    /// Creates a coordinator.
    pub fn new(mode: CoordinationMode) -> Self {
        SuperCoordinator {
            mode,
            models: HashMap::new(),
            policies: BTreeMap::new(),
            reports: 0,
            reactive_actions: 0,
            anticipatory_actions: 0,
        }
    }

    /// Registers (replacing) the policy action for a state.
    pub fn register_policy(&mut self, state: ConsumerStateId, action: PolicyAction) {
        self.policies.insert(state, action);
    }

    /// A consumer (identified by its subscriber id raw value) reports a
    /// state change. Returns the actions the middleware should execute.
    pub fn report_state(
        &mut self,
        consumer: u32,
        state: ConsumerStateId,
        now: SimTime,
    ) -> Vec<CoordinatorAction> {
        self.reports += 1;
        let model = self.models.entry(consumer).or_default();
        let unchanged = model.current == Some(state);
        model.record(state, now);
        // The transition the model now expects out of the entered state.
        let anticipated = match self.mode {
            CoordinationMode::Predictive { min_confidence } if !unchanged => model
                .predict(state)
                .filter(|&(next, confidence)| confidence >= min_confidence && next != state),
            _ => None,
        };
        let mut out = Vec::new();

        // Reactive part: the entered state's own policy (suppress
        // repeats while the state is unchanged).
        if !unchanged {
            if let Some(action) = self.policies.get(&state) {
                self.reactive_actions += 1;
                out.push(CoordinatorAction { action: action.clone(), anticipatory: false, state });
            }
        }

        // Predictive part: look one transition ahead.
        if let Some((next, _)) = anticipated {
            if let Some(action) = self.policies.get(&next).filter(|a| a.anticipatable) {
                self.anticipatory_actions += 1;
                out.push(CoordinatorAction {
                    action: action.clone(),
                    anticipatory: true,
                    state: next,
                });
            }
        }
        out
    }

    /// The model's most likely successor of `state` for `consumer`.
    #[cfg(test)]
    pub(crate) fn predict_next(
        &self,
        consumer: u32,
        state: ConsumerStateId,
    ) -> Option<(ConsumerStateId, f64)> {
        self.models.get(&consumer)?.predict(state)
    }

    /// State-change reports received.
    pub fn report_count(&self) -> u64 {
        self.reports
    }

    /// Reactive actions emitted.
    pub fn reactive_action_count(&self) -> u64 {
        self.reactive_actions
    }

    /// Anticipatory actions emitted.
    pub fn anticipatory_action_count(&self) -> u64 {
        self.anticipatory_actions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use garnet_wire::{SensorId, StreamIndex};

    fn action(interval_ms: u32) -> PolicyAction {
        PolicyAction {
            target: ActuationTarget::Sensor(SensorId::new(1).unwrap()),
            command: SensorCommand::SetReportInterval { stream: StreamIndex::new(0), interval_ms },
            priority: 3,
            anticipatable: true,
        }
    }

    #[test]
    fn reactive_action_on_state_entry() {
        let mut c = SuperCoordinator::new(CoordinationMode::Reactive);
        c.register_policy(5, action(100));
        let out = c.report_state(1, 5, SimTime::ZERO);
        assert_eq!(out.len(), 1);
        assert!(!out[0].anticipatory);
        assert_eq!(out[0].state, 5);
        assert_eq!(c.reactive_action_count(), 1);
    }

    #[test]
    fn repeated_same_state_does_not_refire() {
        let mut c = SuperCoordinator::new(CoordinationMode::Reactive);
        c.register_policy(5, action(100));
        assert_eq!(c.report_state(1, 5, SimTime::ZERO).len(), 1);
        assert!(c.report_state(1, 5, SimTime::from_secs(1)).is_empty());
        assert_eq!(c.report_state(1, 6, SimTime::from_secs(2)).len(), 0, "no policy for 6");
        assert_eq!(c.report_state(1, 5, SimTime::from_secs(3)).len(), 1, "re-entry fires again");
    }

    #[test]
    fn state_without_policy_is_silent() {
        let mut c = SuperCoordinator::new(CoordinationMode::Reactive);
        assert!(c.report_state(1, 42, SimTime::ZERO).is_empty());
        assert_eq!(c.report_count(), 1);
    }

    #[test]
    fn markov_model_learns_transitions() {
        let mut c = SuperCoordinator::new(CoordinationMode::Reactive);
        // 1→2 twice, 1→3 once.
        for to in [2u32, 3, 2] {
            c.report_state(9, 1, SimTime::ZERO);
            c.report_state(9, to, SimTime::ZERO);
        }
        let (next, conf) = c.predict_next(9, 1).unwrap();
        assert_eq!(next, 2);
        assert!((conf - 2.0 / 3.0).abs() < 1e-9);
        assert!(c.predict_next(9, 99).is_none());
        assert!(c.predict_next(42, 1).is_none(), "unknown consumer");
    }

    #[test]
    fn predictive_mode_anticipates_confident_transition() {
        let mut c = SuperCoordinator::new(CoordinationMode::Predictive { min_confidence: 0.6 });
        c.register_policy(2, action(50));
        // Train 1→2 three times.
        for _ in 0..3 {
            c.report_state(1, 1, SimTime::ZERO);
            c.report_state(1, 2, SimTime::ZERO);
        }
        // Entering 1 now pre-fires state 2's policy.
        let out = c.report_state(1, 1, SimTime::from_secs(9));
        assert_eq!(out.len(), 1);
        assert!(out[0].anticipatory);
        assert_eq!(out[0].state, 2);
        // Anticipation also fired during the later training entries of
        // state 1 (the model was already confident by then).
        assert!(c.anticipatory_action_count() >= 1);
    }

    #[test]
    fn low_confidence_does_not_anticipate() {
        let mut c = SuperCoordinator::new(CoordinationMode::Predictive { min_confidence: 0.9 });
        c.register_policy(2, action(50));
        c.register_policy(3, action(75));
        // 1→2 once, 1→3 once: 50% each, below the bar.
        c.report_state(1, 1, SimTime::ZERO);
        c.report_state(1, 2, SimTime::ZERO);
        c.report_state(1, 1, SimTime::ZERO);
        c.report_state(1, 3, SimTime::ZERO);
        let out = c.report_state(1, 1, SimTime::ZERO);
        assert!(out.iter().all(|a| !a.anticipatory), "got {out:?}");
    }

    #[test]
    fn reactive_and_anticipatory_can_combine() {
        let mut c = SuperCoordinator::new(CoordinationMode::Predictive { min_confidence: 0.5 });
        c.register_policy(1, action(500));
        c.register_policy(2, action(50));
        c.report_state(1, 1, SimTime::ZERO);
        c.report_state(1, 2, SimTime::ZERO);
        let out = c.report_state(1, 1, SimTime::from_secs(5));
        // Reactive for state 1 + anticipatory for predicted state 2.
        assert_eq!(out.len(), 2);
        assert!(!out[0].anticipatory);
        assert!(out[1].anticipatory);
    }

    #[test]
    fn self_loop_prediction_not_anticipated() {
        let mut c = SuperCoordinator::new(CoordinationMode::Predictive { min_confidence: 0.1 });
        c.register_policy(1, action(100));
        // Teach 1→1 by alternating (1, then 1 again counts as unchanged,
        // so use 1→2→1→… to build 2→1 and 1→2; then force 1→1 via 2).
        c.report_state(1, 1, SimTime::ZERO);
        c.report_state(1, 2, SimTime::ZERO);
        c.report_state(1, 1, SimTime::ZERO);
        // Prediction from 2 is state 1, fine; prediction from 1 is 2 with
        // no policy... register policy for 1 only and enter 2:
        let out = c.report_state(1, 2, SimTime::ZERO);
        // Predicted next from 2 is 1 (100%), which has a policy → anticipatory.
        assert!(out.iter().any(|a| a.anticipatory && a.state == 1));
    }
}
