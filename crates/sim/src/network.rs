//! The logical network overlay L (paper §2.1).
//!
//! `⟨P, L⟩` is the network/observation plane: processes communicate over a
//! **dynamically changing** logical overlay. This module provides the
//! overlay graph (static full mesh, arbitrary graphs, and dynamic link
//! up/down changes) plus the per-network delay, loss, and FIFO
//! configuration consumed by the engine.

use serde::{Deserialize, Serialize};

use crate::delay::DelayModel;
use crate::loss::LossModel;

/// Index of an actor (process) in the simulation.
pub type ActorId = usize;

/// The overlay graph topology.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Topology {
    /// Every pair of distinct actors is connected (the common case for the
    /// paper's system-wide strobe broadcasts).
    FullMesh {
        /// Number of nodes.
        n: usize,
    },
    /// Arbitrary undirected graph given by an adjacency matrix. `adj[i][j]`
    /// is true iff `i` and `j` can exchange messages directly.
    Graph {
        /// Symmetric adjacency matrix; the diagonal is ignored.
        adj: Vec<Vec<bool>>,
    },
}

impl Topology {
    /// A ring of `n` nodes (each node linked to its two neighbours).
    pub fn ring(n: usize) -> Self {
        let mut adj = vec![vec![false; n]; n];
        for i in 0..n {
            adj[i][(i + 1) % n] = true;
            adj[(i + 1) % n][i] = true;
        }
        Topology::Graph { adj }
    }

    /// A star with node 0 at the centre — the common sensornet configuration
    /// with a distinguished root/back-end server P₀.
    #[cfg(test)]
    pub(crate) fn star(n: usize) -> Self {
        let mut adj = vec![vec![false; n]; n];
        adj[0][1..].iter_mut().for_each(|e| *e = true);
        for row in adj.iter_mut().skip(1) {
            row[0] = true;
        }
        Topology::Graph { adj }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        match self {
            Topology::FullMesh { n } => *n,
            Topology::Graph { adj } => adj.len(),
        }
    }

    /// True if the topology has no nodes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Are `a` and `b` directly connected? (No self-loops.)
    pub(crate) fn connected(&self, a: ActorId, b: ActorId) -> bool {
        if a == b {
            return false;
        }
        match self {
            Topology::FullMesh { n } => a < *n && b < *n,
            Topology::Graph { adj } => a < adj.len() && b < adj.len() && adj[a][b],
        }
    }

    /// The neighbours of `a`.
    #[cfg(test)]
    pub(crate) fn neighbors(&self, a: ActorId) -> Vec<ActorId> {
        let mut out = Vec::new();
        self.collect_neighbors(a, &mut out);
        out
    }

    /// Collect the neighbours of `a` (ascending id order) into `out`,
    /// clearing it first. Allocation-free once `out` has warmed up — the
    /// engine calls this on every broadcast.
    pub(crate) fn collect_neighbors(&self, a: ActorId, out: &mut Vec<ActorId>) {
        out.clear();
        match self {
            Topology::FullMesh { n } => {
                if a < *n {
                    out.extend((0..*n).filter(|&b| b != a));
                }
            }
            Topology::Graph { adj } => {
                if let Some(row) = adj.get(a) {
                    out.extend(
                        row.iter().enumerate().filter_map(|(b, &up)| (up && b != a).then_some(b)),
                    );
                }
            }
        }
    }
}

/// Full network-plane configuration: overlay + delay + loss + ordering.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NetworkConfig {
    /// The overlay graph L.
    pub topology: Topology,
    /// The message-delay model (paper §3.2.2).
    pub delay: DelayModel,
    /// The message-loss model.
    pub loss: LossModel,
    /// If true, per-(sender, receiver) channels deliver in FIFO order; if
    /// false, messages may overtake each other (pure asynchrony).
    pub fifo: bool,
}

impl NetworkConfig {
    /// A lossless full mesh of `n` nodes with the given delay model, FIFO.
    pub fn full_mesh(n: usize, delay: DelayModel) -> Self {
        NetworkConfig {
            topology: Topology::FullMesh { n },
            delay,
            loss: LossModel::None,
            fifo: true,
        }
    }
}

/// The engine's one ledger of network-plane activity: every message sent
/// is, in the end, delivered, lost, or still in flight (or parked by a
/// partition). Experiment E7 ("clock sync is not free"; strobe scalar O(1)
/// vs strobe vector O(n)) reads these. The fault plane's `FaultStats` say
/// which fault took a lost message or made a duplicate.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct NetStats {
    /// Point-to-point message transmissions attempted (a broadcast to k
    /// neighbours counts k; a channel-fault duplicate counts once more; a
    /// send to a peer with no link counts too).
    pub messages_sent: u64,
    /// Messages actually delivered.
    pub messages_delivered: u64,
    /// Messages that will never be delivered: sent with no link, dropped
    /// by the loss model, or removed by the fault plane (at a down node,
    /// by a partition, by a channel-fault rule).
    pub messages_lost: u64,
    /// Total payload bytes across attempted transmissions.
    pub bytes_sent: u64,
    /// Number of broadcast operations performed.
    pub broadcasts: u64,
}

impl NetStats {
    /// Fold another counter set into this one. The sharded engine keeps
    /// per-shard stats during a run and merges them at the end; every field
    /// is a sum-decomposable counter, so the merge is exact.
    pub(crate) fn absorb(&mut self, other: &NetStats) {
        self.messages_sent += other.messages_sent;
        self.messages_delivered += other.messages_delivered;
        self.messages_lost += other.messages_lost;
        self.bytes_sent += other.bytes_sent;
        self.broadcasts += other.broadcasts;
    }
}

#[cfg(test)]
impl NetworkConfig {
    /// Replace the loss model (builder style).
    pub(crate) fn with_loss(mut self, loss: LossModel) -> Self {
        self.loss = loss;
        self
    }

    /// Set FIFO / non-FIFO channel ordering (builder style).
    pub(crate) fn with_fifo(mut self, fifo: bool) -> Self {
        self.fifo = fifo;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn full_mesh_connects_all_pairs() {
        let t = Topology::FullMesh { n: 4 };
        for a in 0..4 {
            for b in 0..4 {
                assert_eq!(t.connected(a, b), a != b);
            }
        }
        assert!(!t.connected(0, 4), "out-of-range is not connected");
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn ring_has_degree_two() {
        let t = Topology::ring(5);
        for i in 0..5 {
            assert_eq!(t.neighbors(i).len(), 2, "node {i}");
        }
        assert!(t.connected(0, 4), "ring wraps around");
        assert!(!t.connected(0, 2));
    }

    #[test]
    fn star_centres_on_zero() {
        let t = Topology::star(6);
        assert_eq!(t.neighbors(0).len(), 5);
        for i in 1..6 {
            assert_eq!(t.neighbors(i), vec![0]);
        }
    }

    #[test]
    fn ring_of_two_is_single_link() {
        let t = Topology::ring(2);
        assert!(t.connected(0, 1));
        assert_eq!(t.neighbors(0), vec![1]);
    }

    #[test]
    fn config_builders() {
        let c = NetworkConfig::full_mesh(3, DelayModel::delta(SimDuration::from_millis(10)))
            .with_loss(LossModel::Bernoulli { p: 0.1 })
            .with_fifo(false);
        assert!(!c.fifo);
        assert_eq!(c.topology.len(), 3);
        assert!(matches!(c.loss, LossModel::Bernoulli { .. }));
    }
}
