//! Tandem-level scheduler selection.

use crate::node::NodePolicy;

/// The scheduler used at every node of a [`TandemSim`](crate::TandemSim),
/// in the two-class (through vs. cross) setting of the paper's Fig. 1.
///
/// All but GPS and SCFQ are Δ-schedulers and simulate as one
/// [`NodePolicy::Delta`] offset rule. GPS and SCFQ are not
/// Δ-schedulers and have no bound in the paper's framework — simulating
/// them illustrates where the analysis boundary lies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SchedulerKind {
    /// First-in-first-out across both classes.
    Fifo,
    /// Through traffic at strictly *lower* priority (blind
    /// multiplexing).
    Bmux,
    /// Through traffic at strictly *higher* priority.
    ThroughPriority,
    /// EDF with per-node relative deadlines (slots).
    Edf {
        /// Deadline of through traffic at each node.
        d_through: f64,
        /// Deadline of cross traffic at each node.
        d_cross: f64,
    },
    /// The Δ-scheduler with constant `Δ_{0,c} = v` slots: FIFO order
    /// with the through class's keys `v` later (`v > 0`) or the cross
    /// class's `−v` later (`v < 0`).
    Delta(f64),
    /// Generalized processor sharing with the given weights.
    Gps {
        /// Weight of the through class.
        w_through: f64,
        /// Weight of the cross class.
        w_cross: f64,
    },
    /// Self-clocked fair queueing with the given weights (the packet
    /// approximation of GPS; also not a Δ-scheduler).
    Scfq {
        /// Weight of the through class.
        w_through: f64,
        /// Weight of the cross class.
        w_cross: f64,
    },
}

impl SchedulerKind {
    /// The per-node two-class policy (class 0 = through, 1 = cross).
    pub fn node_policy(&self) -> NodePolicy {
        let inf = f64::INFINITY;
        match *self {
            SchedulerKind::Fifo => NodePolicy::Delta(vec![0.0, 0.0]),
            SchedulerKind::Bmux => NodePolicy::Delta(vec![inf, 0.0]),
            SchedulerKind::ThroughPriority => NodePolicy::Delta(vec![0.0, inf]),
            SchedulerKind::Edf { d_through, d_cross } => {
                NodePolicy::Delta(vec![d_through, d_cross])
            }
            SchedulerKind::Delta(v) => NodePolicy::Delta(vec![v.max(0.0), (-v).max(0.0)]),
            SchedulerKind::Gps { w_through, w_cross } => NodePolicy::Gps(vec![w_through, w_cross]),
            SchedulerKind::Scfq { w_through, w_cross } => {
                NodePolicy::Scfq(vec![w_through, w_cross])
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn offsets_differ_by_the_papers_delta() {
        let offsets = |k: SchedulerKind| match k.node_policy() {
            NodePolicy::Delta(o) => o,
            other => panic!("{k:?} is a Δ-scheduler, got {other:?}"),
        };
        let inf = f64::INFINITY;
        assert_eq!(offsets(SchedulerKind::Fifo), [0.0, 0.0]);
        assert_eq!(offsets(SchedulerKind::Bmux), [inf, 0.0]);
        assert_eq!(offsets(SchedulerKind::ThroughPriority), [0.0, inf]);
        assert_eq!(offsets(SchedulerKind::Edf { d_through: 3.0, d_cross: 8.0 }), [3.0, 8.0]);
        assert_eq!(offsets(SchedulerKind::Delta(30.0)), [30.0, 0.0]);
        assert_eq!(offsets(SchedulerKind::Delta(-5.0)), [0.0, 5.0]);
    }

    #[test]
    fn fair_queueing_keeps_its_weights() {
        let gps = SchedulerKind::Gps { w_through: 1.0, w_cross: 2.0 };
        assert_eq!(gps.node_policy(), NodePolicy::Gps(vec![1.0, 2.0]));
        let scfq = SchedulerKind::Scfq { w_through: 2.0, w_cross: 1.0 };
        assert_eq!(scfq.node_policy(), NodePolicy::Scfq(vec![2.0, 1.0]));
    }
}
