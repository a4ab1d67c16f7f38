//! Mobility models for world-plane objects.
//!
//! The paper's objects "may be static or mobile (e.g., objects with RFID
//! tags, animals with embedded chips, humans)". The scenarios move people
//! over a [`RoomGraph`]: discrete rooms connected by doors, walked along
//! edges (smart office, hospital, exhibition hall).

use serde::{Deserialize, Serialize};

use psn_sim::rng::RngStream;
use psn_sim::time::{SimDuration, SimTime};

/// A discrete room-adjacency graph.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) struct RoomGraph {
    /// `adj[r]` = rooms reachable from room `r` in one transition.
    adj: Vec<Vec<usize>>,
}

impl RoomGraph {
    /// A corridor: rooms `0..n` in a line, each connected to its
    /// neighbours.
    pub fn corridor(n: usize) -> Self {
        let adj = (0..n)
            .map(|r| {
                let mut ns = Vec::new();
                if r > 0 {
                    ns.push(r - 1);
                }
                if r + 1 < n {
                    ns.push(r + 1);
                }
                ns
            })
            .collect();
        RoomGraph { adj }
    }

    /// A hub-and-spoke building: room 0 is a lobby connected to all others.
    pub(crate) fn lobby(n: usize) -> Self {
        let mut adj = vec![Vec::new(); n];
        for r in 1..n {
            adj[0].push(r);
            adj[r].push(0);
        }
        RoomGraph { adj }
    }

    /// One random transition from `r` (stays put if `r` is isolated).
    pub fn step(&self, r: usize, rng: &mut RngStream) -> usize {
        let ns = &self.adj[r];
        if ns.is_empty() {
            r
        } else {
            *rng.choose(ns)
        }
    }
}

/// A person (or animal, or tagged object) walking a room graph: stays in a
/// room for an exponentially-distributed dwell time, then moves to a random
/// adjacent room.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct RoomWalker {
    /// Current room.
    pub room: usize,
    /// Mean dwell time per room.
    pub mean_dwell: SimDuration,
    /// When the next transition happens.
    pub(crate) next_move: SimTime,
}

impl RoomWalker {
    /// A walker starting in `room` at time zero.
    pub fn new(room: usize, mean_dwell: SimDuration, rng: &mut RngStream) -> Self {
        let next_move = SimTime::ZERO + rng.exponential_duration(mean_dwell);
        RoomWalker { room, mean_dwell, next_move }
    }

    /// If `now ≥ next_move`, transition and return `Some((old, new))`.
    pub(crate) fn maybe_move(
        &mut self,
        now: SimTime,
        graph: &RoomGraph,
        rng: &mut RngStream,
    ) -> Option<(usize, usize)> {
        if now < self.next_move {
            return None;
        }
        let old = self.room;
        self.room = graph.step(self.room, rng);
        self.next_move = now + rng.exponential_duration(self.mean_dwell);
        Some((old, self.room))
    }
}

#[cfg(test)]
impl RoomGraph {
    /// A graph from an explicit adjacency list.
    pub fn new(adj: Vec<Vec<usize>>) -> Self {
        for (r, ns) in adj.iter().enumerate() {
            for &n in ns {
                assert!(n < adj.len(), "room {r} links to out-of-range {n}");
            }
        }
        RoomGraph { adj }
    }

    /// Number of rooms.
    pub fn len(&self) -> usize {
        self.adj.len()
    }

    /// Rooms adjacent to `r`.
    pub fn neighbors(&self, r: usize) -> &[usize] {
        &self.adj[r]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psn_sim::rng::RngFactory;

    fn rng() -> RngStream {
        RngFactory::new(5).stream(0)
    }

    #[test]
    fn corridor_shape() {
        let g = RoomGraph::corridor(4);
        assert_eq!(g.neighbors(0), &[1]);
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert_eq!(g.neighbors(3), &[2]);
        assert_eq!(g.len(), 4);
    }

    #[test]
    fn lobby_shape() {
        let g = RoomGraph::lobby(4);
        assert_eq!(g.neighbors(0), &[1, 2, 3]);
        assert_eq!(g.neighbors(2), &[0]);
    }

    #[test]
    fn step_stays_on_graph() {
        let g = RoomGraph::corridor(5);
        let mut r = rng();
        let mut room = 2;
        for _ in 0..100 {
            let next = g.step(room, &mut r);
            assert!(g.neighbors(room).contains(&next));
            room = next;
        }
    }

    #[test]
    fn isolated_room_stays_put() {
        let g = RoomGraph::new(vec![vec![]]);
        let mut r = rng();
        assert_eq!(g.step(0, &mut r), 0);
    }

    #[test]
    #[should_panic(expected = "out-of-range")]
    fn adjacency_validated() {
        let _ = RoomGraph::new(vec![vec![3]]);
    }

    #[test]
    fn walker_moves_after_dwell() {
        let g = RoomGraph::corridor(3);
        let mut r = rng();
        let mut w = RoomWalker::new(1, SimDuration::from_secs(10), &mut r);
        assert!(w.maybe_move(SimTime::ZERO, &g, &mut r).is_none(), "not yet");
        let move_time = w.next_move;
        let moved = w.maybe_move(move_time, &g, &mut r);
        let (old, new) = moved.expect("must move at next_move");
        assert_eq!(old, 1);
        assert!(new == 0 || new == 2);
        assert!(w.next_move > move_time, "new dwell scheduled");
    }

    #[test]
    fn walker_dwell_times_average_out() {
        let g = RoomGraph::lobby(5);
        let mut r = rng();
        let mean = SimDuration::from_secs(2);
        let mut w = RoomWalker::new(0, mean, &mut r);
        let mut moves = 0;
        let mut t = SimTime::ZERO;
        let horizon = SimTime::from_secs(4000);
        while t < horizon {
            t = w.next_move;
            if w.maybe_move(t, &g, &mut r).is_some() {
                moves += 1;
            }
        }
        // ~4000s / 2s mean dwell ≈ 2000 moves; allow wide tolerance.
        assert!((1700..=2300).contains(&moves), "moves = {moves}");
    }
}
