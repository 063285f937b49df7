//! The control-plane command channel: how a closed-loop controller
//! actuates the simulation it observes.
//!
//! Observers on the [`bus`](crate::bus) are strictly passive — they may
//! never touch the driver's RNG or state from inside an event callback.
//! A controller therefore gains agency only *indirectly*: it pushes
//! [`ControlCommand`]s into a [`CommandQueue`] shared with the driver, and
//! the driver drains the queue at fixed points of its event loop (after
//! each scheduling cycle), applying commands **in push order at the
//! current simulated time**. Because observers run synchronously on a
//! single thread, push order is deterministic, so a closed-loop run is as
//! replayable as an open-loop one: same config + seed + policy → identical
//! telemetry, byte for byte.
//!
//! With no queue attached (the default) the driver pays one `Option`
//! check per loop iteration and its telemetry stays byte-identical to
//! pre-control-plane builds. An attached-but-silent queue (a controller
//! with a disabled policy) likewise leaves the bytes untouched: draining
//! an empty queue draws nothing and records nothing.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use rsc_cluster::ids::NodeId;
use rsc_health::lifecycle::ReleasePolicy;
use rsc_sim_core::time::SimDuration;
use rsc_telemetry::store::ControlTrigger;

/// What a control command asks the driver to do.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ControlVerb {
    /// Pull a node for a remediation visit (interrupt its jobs, walk the
    /// repair path). The soft mitigation for lemon suspects.
    RemediateNode {
        /// The node to pull.
        node: NodeId,
    },
    /// Quarantine a node preemptively. With a [`ReleasePolicy`] the
    /// quarantine is controller-initiated and may be released after
    /// enough clean observation windows; without one it is absorbing,
    /// like an operator write-off.
    QuarantineNode {
        /// The node to quarantine.
        node: NodeId,
        /// Controlled-release schedule, if any.
        release: Option<ReleasePolicy>,
    },
    /// Flip fabric routing from static to adaptive.
    AdaptiveRouting,
    /// Restore the fabric's baseline static routing policy.
    RestoreRouting,
    /// Re-solve the fleet checkpoint cadence: newly submitted jobs
    /// checkpoint at `interval` from now on.
    RetuneCheckpoint {
        /// The new checkpoint interval.
        interval: SimDuration,
    },
}

/// One actuation request from the control plane.
///
/// `budget_ok == false` marks a command the controller *wanted* to issue
/// but could not afford under its budget: the driver records the action
/// with `accepted == false` and actuates nothing — the graceful
/// degradation to alert-only the audit trail must still show.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ControlCommand {
    /// The requested actuation.
    pub verb: ControlVerb,
    /// Which alert condition motivated it.
    pub trigger: ControlTrigger,
    /// Whether the controller's budget admitted the action.
    pub budget_ok: bool,
}

/// The shared FIFO between a controller (producer) and the driver
/// (consumer). Cloning shares the underlying queue.
#[derive(Debug, Clone, Default)]
pub struct CommandQueue(Arc<Mutex<VecDeque<ControlCommand>>>);

impl CommandQueue {
    /// An empty queue.
    pub fn new() -> Self {
        CommandQueue::default()
    }

    /// Enqueues a command. Commands are applied in push order.
    ///
    /// # Panics
    ///
    /// Panics if the lock is poisoned (a producer panicked mid-push).
    pub fn push(&self, cmd: ControlCommand) {
        self.0
            .lock()
            .expect("command queue poisoned")
            .push_back(cmd);
    }

    /// Moves every pending command onto the end of `out`, in push order.
    /// Reusing `out` across calls makes draining an empty queue free of
    /// allocation.
    ///
    /// # Panics
    ///
    /// Panics if the lock is poisoned.
    pub fn drain_into(&self, out: &mut Vec<ControlCommand>) {
        out.extend(self.0.lock().expect("command queue poisoned").drain(..));
    }

    /// Whether any command is pending.
    ///
    /// # Panics
    ///
    /// Panics if the lock is poisoned.
    pub fn is_empty(&self) -> bool {
        self.0.lock().expect("command queue poisoned").is_empty()
    }

    /// Number of pending commands.
    ///
    /// # Panics
    ///
    /// Panics if the lock is poisoned.
    pub fn len(&self) -> usize {
        self.0.lock().expect("command queue poisoned").len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_preserves_push_order_across_clones() {
        let q = CommandQueue::new();
        let producer = q.clone();
        assert!(q.is_empty());
        producer.push(ControlCommand {
            verb: ControlVerb::AdaptiveRouting,
            trigger: ControlTrigger::MttfRegression,
            budget_ok: true,
        });
        producer.push(ControlCommand {
            verb: ControlVerb::RemediateNode {
                node: NodeId::new(3),
            },
            trigger: ControlTrigger::LemonSuspect,
            budget_ok: false,
        });
        assert_eq!(q.len(), 2);
        let mut drained = Vec::new();
        q.drain_into(&mut drained);
        assert_eq!(drained.len(), 2);
        assert_eq!(drained[0].verb, ControlVerb::AdaptiveRouting);
        assert!(matches!(
            drained[1].verb,
            ControlVerb::RemediateNode { node } if node == NodeId::new(3)
        ));
        assert!(!drained[1].budget_ok);
        assert!(q.is_empty());
    }
}
