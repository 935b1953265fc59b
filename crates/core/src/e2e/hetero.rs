//! Non-homogeneous paths (the extension at the end of Section IV).
//!
//! Each node may have its own capacity `C^h`, cross aggregate `ρ_c^h`
//! (with its own bounding constants), and scheduler constant `Δ_{0,h}`.
//! The delay bound reduces to the same single-variable minimization,
//! with `θ_h(X)` the smallest non-negative solution of
//!
//! `(C^h − (h−1)γ)(X + θ_h) − (ρ_c^h + γ)·[X + Δ_{0,h}(θ_h)]₊ ≥ σ`.

use crate::delta::PathScheduler;
use crate::e2e::{gamma, E2eDelayBound};
use nc_traffic::Ebb;

/// One node of a heterogeneous tandem.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HeteroNode {
    /// Link capacity `C^h`.
    pub capacity: f64,
    /// The cross aggregate entering at this node.
    pub cross: Ebb,
    /// The scheduler at this node.
    pub scheduler: PathScheduler,
}

/// A heterogeneous tandem path: per-node capacities, cross traffic, and
/// schedulers; one through aggregate crossing all nodes.
#[derive(Debug, Clone, PartialEq)]
pub struct HeteroPath {
    through: Ebb,
    nodes: Vec<HeteroNode>,
}

impl HeteroPath {
    /// Creates a heterogeneous path.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is empty or any capacity is not
    /// positive/finite.
    pub fn new(through: Ebb, nodes: Vec<HeteroNode>) -> Self {
        assert!(!nodes.is_empty(), "HeteroPath: need at least one node");
        for n in &nodes {
            assert!(
                n.capacity > 0.0 && n.capacity.is_finite(),
                "HeteroPath: capacities must be positive"
            );
        }
        HeteroPath { through, nodes }
    }

    /// The through aggregate.
    pub fn through(&self) -> &Ebb {
        &self.through
    }

    /// The per-node descriptions.
    pub fn nodes(&self) -> &[HeteroNode] {
        &self.nodes
    }

    /// Path length.
    pub fn hops(&self) -> usize {
        self.nodes.len()
    }

    /// The admissible `γ` range: at every node
    /// `(h' + 1)·γ < C^h − ρ_c^h − ρ` must leave room (we use the
    /// tightest node with the full-path index, mirroring Eq. (32)).
    pub fn gamma_max(&self) -> f64 {
        let h1 = self.hops() as f64 + 1.0;
        self.nodes
            .iter()
            .map(|n| (n.capacity - n.cross.rho() - self.through.rho()) / h1)
            .fold(f64::INFINITY, f64::min)
    }

    /// Whether every node has spare long-run capacity.
    pub fn is_stable(&self) -> bool {
        self.gamma_max() > 0.0
    }

    /// The delay bound at a fixed `γ`.
    ///
    /// Returns `None` if `γ` is out of range, no finite `σ` reaches
    /// `epsilon` at this `γ`, or the optimization is infeasible.
    ///
    /// # Panics
    ///
    /// Panics if `epsilon` is not in `(0, 1)`.
    pub fn delay_bound_at_gamma(&self, epsilon: f64, gamma: f64) -> Option<E2eDelayBound> {
        assert!(epsilon > 0.0 && epsilon < 1.0, "delay_bound_at_gamma: epsilon must be in (0,1)");
        gamma::at_gamma(&self.through, &self.segments(), self.gamma_max(), epsilon, gamma)
    }

    /// The delay bound optimized over `γ` (grid with refinement, as in
    /// [`TandemPath::delay_bound`](crate::TandemPath::delay_bound)).
    ///
    /// # Panics
    ///
    /// Panics if `epsilon` is not in `(0, 1)`.
    pub fn delay_bound(&self, epsilon: f64) -> Option<E2eDelayBound> {
        gamma::search(&self.through, &self.segments(), self.gamma_max(), epsilon)
    }

    /// Runs of equal consecutive nodes.
    fn segments(&self) -> Vec<gamma::Segment> {
        self.nodes
            .chunk_by(|a, b| a == b)
            .map(|run| gamma::Segment {
                capacity: run[0].capacity,
                cross: run[0].cross,
                delta: run[0].scheduler.delta(),
                len: run.len(),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::e2e::TandemPath;

    fn ebb(rho: f64) -> Ebb {
        Ebb::new(1.0, rho, 0.1)
    }

    #[test]
    fn homogeneous_hetero_matches_tandem_path() {
        let through = ebb(15.0);
        let cross = ebb(40.0);
        let hops = 4usize;
        let nodes =
            vec![HeteroNode { capacity: 100.0, cross, scheduler: PathScheduler::Fifo }; hops];
        let hp = HeteroPath::new(through, nodes);
        let tp = TandemPath::new(100.0, hops, through, cross, PathScheduler::Fifo);
        let eps = 1e-9;
        let a = hp.delay_bound(eps).unwrap().delay;
        let b = tp.delay_bound(eps).unwrap().delay;
        assert!((a - b).abs() / b < 1e-6, "hetero {a} vs homogeneous {b}");
    }

    #[test]
    fn bottleneck_dominates() {
        // Shrinking one node's capacity can only increase the bound.
        let through = ebb(15.0);
        let cross = ebb(40.0);
        let mk = |bottleneck: f64| {
            let mut nodes =
                vec![HeteroNode { capacity: 100.0, cross, scheduler: PathScheduler::Fifo }; 4];
            nodes[2].capacity = bottleneck;
            HeteroPath::new(through, nodes).delay_bound(1e-9).map(|b| b.delay)
        };
        let wide = mk(100.0).unwrap();
        let narrow = mk(70.0).unwrap();
        assert!(narrow > wide, "bottleneck {narrow} must exceed {wide}");
    }

    #[test]
    fn mixed_schedulers_interpolate() {
        // A path that is FIFO except one BMUX node lies between all-FIFO
        // and all-BMUX.
        let through = ebb(15.0);
        let cross = ebb(40.0);
        let mk = |scheds: [PathScheduler; 3]| {
            let nodes = scheds
                .iter()
                .map(|&s| HeteroNode { capacity: 100.0, cross, scheduler: s })
                .collect();
            HeteroPath::new(through, nodes).delay_bound(1e-9).unwrap().delay
        };
        use PathScheduler::{Bmux, Fifo};
        let fifo = mk([Fifo, Fifo, Fifo]);
        let mixed = mk([Fifo, Bmux, Fifo]);
        let bmux = mk([Bmux, Bmux, Bmux]);
        assert!(fifo <= mixed + 1e-9);
        assert!(mixed <= bmux + 1e-9);
    }

    #[test]
    fn per_node_cross_rates_respected() {
        // Unequal cross loads: swapping them must not change the bound
        // structure drastically, but raising any one raises the bound.
        let through = ebb(10.0);
        let mk = |rhos: [f64; 3]| {
            let nodes = rhos
                .iter()
                .map(|&r| HeteroNode {
                    capacity: 100.0,
                    cross: ebb(r),
                    scheduler: PathScheduler::Fifo,
                })
                .collect();
            HeteroPath::new(through, nodes).delay_bound(1e-9).unwrap().delay
        };
        let base = mk([30.0, 30.0, 30.0]);
        let hot = mk([30.0, 60.0, 30.0]);
        assert!(hot > base);
    }

    #[test]
    fn unstable_path_returns_none() {
        let through = ebb(50.0);
        let nodes =
            vec![HeteroNode { capacity: 60.0, cross: ebb(20.0), scheduler: PathScheduler::Fifo }];
        assert_eq!(HeteroPath::new(through, nodes).delay_bound(1e-9), None);
    }
}
