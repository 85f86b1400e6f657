//! Operand network (OPN): a 5×5 wormhole-routed mesh carrying one 64-bit
//! operand per link per cycle (Gratz et al., the paper's reference \[6\]).
//!
//! Nodes: the global tile at (0,0), register tiles along the top row, data
//! tiles down the left column, and the 4×4 execution tiles filling the
//! interior. Packets route X-then-Y with one cycle per hop; each directed
//! link carries one packet per cycle, so concurrent traffic backs up —
//! the contention §7 identifies as the prototype's biggest performance
//! artifact.

use crate::cache::ClaimSet;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Mesh side length (5×5 nodes).
const MESH: u8 = 5;

/// A node on the 5×5 mesh, as (row, col) with `0 ≤ row, col ≤ 4`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Node {
    /// Mesh row.
    pub row: u8,
    /// Mesh column.
    pub col: u8,
}

impl Node {
    /// The global control tile.
    pub const GT: Node = Node { row: 0, col: 0 };

    /// Execution tile `e` (0..16) in the 4×4 interior.
    pub fn et(e: u8) -> Node {
        Node {
            row: 1 + e / 4,
            col: 1 + e % 4,
        }
    }

    /// Register tile for bank `b` (0..4), along the top row.
    pub fn rt(b: u8) -> Node {
        Node { row: 0, col: 1 + b }
    }

    /// Data tile for bank `b` (0..4), down the left column.
    pub fn dt(b: u8) -> Node {
        Node { row: 1 + b, col: 0 }
    }

    /// Manhattan distance in hops.
    pub fn hops(self, other: Node) -> u32 {
        (self.row.abs_diff(other.row) + self.col.abs_diff(other.col)) as u32
    }

    /// Row-major index of the node on the mesh.
    fn index(self) -> usize {
        usize::from(self.row) * usize::from(MESH) + usize::from(self.col)
    }

    /// The neighbour one hop away in direction `dir`: 0 east, 1 west,
    /// 2 south, 3 north (off-mesh steps wrap and name no node).
    fn step(self, dir: usize) -> Node {
        match dir {
            0 => Node {
                col: self.col.wrapping_add(1),
                ..self
            },
            1 => Node {
                col: self.col.wrapping_sub(1),
                ..self
            },
            2 => Node {
                row: self.row.wrapping_add(1),
                ..self
            },
            _ => Node {
                row: self.row.wrapping_sub(1),
                ..self
            },
        }
    }

    /// Index of the directed link `self → to` in [`Opn`]'s link table
    /// (`node * 4 + direction`), or `None` when the two nodes are not mesh
    /// neighbours.
    fn link(self, to: Node) -> Option<usize> {
        let on_mesh = |n: Node| n.row < MESH && n.col < MESH;
        if !on_mesh(self) || !on_mesh(to) {
            return None;
        }
        (0..4)
            .find(|&dir| self.step(dir) == to)
            .map(|dir| self.index() * 4 + dir)
    }
}

/// Traffic classes matching the paper's Figure 8 breakdown.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TrafficClass {
    /// Execution tile to execution tile.
    EtEt,
    /// Execution tile ↔ data tile (loads/stores and replies).
    EtDt,
    /// Execution tile ↔ register tile (reads/writes).
    EtRt,
    /// Execution tile to global tile (branch resolution).
    EtGt,
    /// Data tile to register tile.
    DtRt,
}

impl TrafficClass {
    /// Every class, in declaration (index) order.
    const ALL: [TrafficClass; 5] = [
        TrafficClass::EtEt,
        TrafficClass::EtDt,
        TrafficClass::EtRt,
        TrafficClass::EtGt,
        TrafficClass::DtRt,
    ];
}

/// Per-class hop-count histogram (0..=5+ hops).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct OpnStats {
    /// `hist[class][hops.min(5)]` packet counts.
    pub hist: HashMap<TrafficClass, [u64; 6]>,
    /// Total packets.
    pub packets: u64,
    /// Total hops.
    pub total_hops: u64,
    /// Cycles lost waiting for busy links.
    pub contention_cycles: u64,
}

impl OpnStats {
    /// Adds another run's traffic into this one (the live-point
    /// parallel-replay reduction).
    pub fn absorb(&mut self, o: &OpnStats) {
        for (class, h) in &o.hist {
            let e = self.hist.entry(*class).or_default();
            for (a, b) in e.iter_mut().zip(h) {
                *a += b;
            }
        }
        self.packets += o.packets;
        self.total_hops += o.total_hops;
        self.contention_cycles += o.contention_cycles;
    }

    /// Average hops per packet.
    pub fn avg_hops(&self) -> f64 {
        if self.packets == 0 {
            0.0
        } else {
            self.total_hops as f64 / self.packets as f64
        }
    }

    /// Fraction of packets of `class` with exactly `hops` hops (5 = "5+").
    pub fn fraction(&self, class: TrafficClass, hops: usize) -> f64 {
        let total: u64 = self.hist.values().flat_map(|h| h.iter()).sum();
        if total == 0 {
            return 0.0;
        }
        self.hist
            .get(&class)
            .map(|h| h[hops.min(5)] as f64 / total as f64)
            .unwrap_or(0.0)
    }
}

/// Serializable image of the mesh's link occupancy: one `(from, to,
/// claimed cycles)` entry per busy directed link, sorted by endpoints with
/// sorted claims, so identical traffic always serializes to identical
/// bytes. Statistics are excluded (live-point snapshots are pure machine
/// state).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct OpnSnapshot {
    links: Vec<(Node, Node, Vec<u64>)>,
}

/// The network's traffic counters while it runs: [`OpnStats`] with the
/// hop histogram as a fixed array indexed by [`TrafficClass`]. Plain
/// `Copy` data, so the timed-warmup path saves and restores it for free.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct OpnCounts {
    hist: [[u64; 6]; 5],
    packets: u64,
    total_hops: u64,
    contention_cycles: u64,
}

/// The mesh with exact per-link, per-cycle occupancy.
///
/// Timestamps arrive out of order (in-flight blocks overlap), so the model
/// keeps a claimed-cycle set per directed link rather than a monotonic
/// next-free cycle: a packet claims the first free cycle ≥ its ready time
/// on each hop. The 100 directed links (4 per node, including the unused
/// ones off the mesh edge) sit in a fixed table indexed by
/// `node * 4 + direction`.
#[derive(Debug)]
pub struct Opn {
    /// Claimed cycles per directed link, indexed by [`Node::link`].
    link_busy: Vec<ClaimSet>,
    /// Traffic accounting; see [`Opn::stats`].
    pub(crate) counts: OpnCounts,
}

impl Default for Opn {
    fn default() -> Opn {
        Opn {
            link_busy: vec![ClaimSet::default(); usize::from(MESH * MESH) * 4],
            counts: OpnCounts::default(),
        }
    }
}

impl Opn {
    /// Creates an idle network.
    pub fn new() -> Opn {
        Opn::default()
    }

    /// The traffic accounted so far. The histogram holds an entry for each
    /// class that routed at least one packet.
    pub fn stats(&self) -> OpnStats {
        let c = &self.counts;
        OpnStats {
            hist: TrafficClass::ALL
                .iter()
                .zip(&c.hist)
                .filter(|(_, h)| h.iter().any(|&n| n > 0))
                .map(|(&class, h)| (class, *h))
                .collect(),
            packets: c.packets,
            total_hops: c.total_hops,
            contention_cycles: c.contention_cycles,
        }
    }

    /// Routes one operand from `from` to `to` starting at `t`; returns the
    /// arrival cycle. Local delivery (same node) is a zero-cost bypass.
    pub fn route(&mut self, from: Node, to: Node, t: u64, class: TrafficClass) -> u64 {
        let hops = from.hops(to);
        self.counts.hist[class as usize][(hops as usize).min(5)] += 1;
        self.counts.packets += 1;
        self.counts.total_hops += u64::from(hops);
        if hops == 0 {
            return t;
        }
        // X-then-Y routing, one cycle per hop, one packet per link-cycle.
        let mut now = t;
        let mut cur = from;
        while cur != to {
            let dir = if cur.col < to.col {
                0
            } else if cur.col > to.col {
                1
            } else if cur.row < to.row {
                2
            } else {
                3
            };
            let link = cur.index() * 4 + dir;
            let depart = self.link_busy[link].claim(now, 1);
            self.counts.contention_cycles += depart - now;
            now = depart + 1;
            cur = cur.step(dir);
        }
        now
    }

    /// Captures the link occupancy for a live-point, keeping only claims
    /// at cycle ≥ `horizon`. Claims far enough in the past can never be
    /// probed again (departure searches start at operand-ready times near
    /// the current clock, and the model's own opportunistic pruning
    /// already discards anything 1024+ cycles stale on hot links), so
    /// dropping them keeps cold links from pinning dead cycles into every
    /// snapshot without perturbing the replay.
    pub fn snapshot(&self, horizon: u64) -> OpnSnapshot {
        let mut links: Vec<(Node, Node, Vec<u64>)> = self
            .link_busy
            .iter()
            .enumerate()
            .filter_map(|(l, busy)| {
                let claims = busy.claims_from(horizon);
                if claims.is_empty() {
                    return None;
                }
                let from = Node {
                    row: (l / 4 / usize::from(MESH)) as u8,
                    col: (l / 4 % usize::from(MESH)) as u8,
                };
                Some((from, from.step(l % 4), claims.to_vec()))
            })
            .collect();
        links.sort_unstable_by_key(|&(a, b, _)| (a.row, a.col, b.row, b.col));
        OpnSnapshot { links }
    }

    /// Restores link occupancy captured by [`Opn::snapshot`]; statistics
    /// are left untouched (the caller baselines them). Entries naming a
    /// pair of nodes that are not mesh neighbours carry no link and are
    /// skipped: no route could ever probe them.
    pub fn restore(&mut self, s: &OpnSnapshot) {
        for busy in &mut self.link_busy {
            *busy = ClaimSet::default();
        }
        for (from, to, claims) in &s.links {
            if let Some(l) = from.link(*to) {
                self.link_busy[l] = ClaimSet::from_claims(claims);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::oracle;
    use proptest::prelude::*;
    use std::collections::HashSet;

    /// The original hash-map mesh: one hash set of claimed cycles per
    /// directed link ever used, and the histogram counted straight into
    /// the [`OpnStats`] map.
    #[derive(Default)]
    struct OracleOpn {
        link_busy: HashMap<(Node, Node), HashSet<u64>>,
        stats: OpnStats,
    }

    impl OracleOpn {
        fn route(&mut self, from: Node, to: Node, t: u64, class: TrafficClass) -> u64 {
            let hops = from.hops(to);
            self.stats.hist.entry(class).or_default()[(hops as usize).min(5)] += 1;
            self.stats.packets += 1;
            self.stats.total_hops += u64::from(hops);
            let mut now = t;
            let mut cur = from;
            while cur != to {
                let next = if cur.col != to.col {
                    let col = if cur.col < to.col {
                        cur.col + 1
                    } else {
                        cur.col - 1
                    };
                    Node { col, ..cur }
                } else {
                    let row = if cur.row < to.row {
                        cur.row + 1
                    } else {
                        cur.row - 1
                    };
                    Node { row, ..cur }
                };
                let depart = oracle::claim(self.link_busy.entry((cur, next)).or_default(), now, 1);
                self.stats.contention_cycles += depart - now;
                now = depart + 1;
                cur = next;
            }
            now
        }

        fn snapshot(&self, horizon: u64) -> OpnSnapshot {
            let mut links: Vec<(Node, Node, Vec<u64>)> = self
                .link_busy
                .iter()
                .map(|(&(from, to), busy)| (from, to, oracle::sorted_from(busy, horizon)))
                .filter(|(_, _, v)| !v.is_empty())
                .collect();
            links.sort_unstable_by_key(|&(a, b, _)| (a.row, a.col, b.row, b.col));
            OpnSnapshot { links }
        }

        fn restore(&mut self, s: &OpnSnapshot) {
            self.link_busy = s
                .links
                .iter()
                .map(|(from, to, claims)| ((*from, *to), claims.iter().copied().collect()))
                .collect();
        }
    }

    /// A route for the differential test: seven in ten packets travel east
    /// from ET 0 (so the link ET 0 → ET 1 crosses the prune threshold),
    /// one in ten travels back west, and the rest go between arbitrary
    /// mesh nodes.
    fn pick_route(sel: u8, a: u8, b: u8) -> (Node, Node) {
        let node = |n: u8| Node {
            row: n / 5,
            col: n % 5,
        };
        match sel {
            0..=6 => (Node::et(0), Node::et(1 + sel % 3)),
            7 => (Node::et(3), Node::et(0)),
            _ => (node(a), node(b)),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4))]

        /// The fixed link table with sorted claim sets reproduces the
        /// hash-map mesh exactly: arrival cycles, the folded statistics
        /// (histogram included) and snapshots at every step (of the claims
        /// near the clock, and of every claim each 128 steps), across the
        /// 2048-claim prune, and through snapshot → restore → continue.
        #[test]
        fn routes_match_the_hash_set_oracle(
            ops in prop::collection::vec((0u8..10, 0u8..25, 0u8..25, 0u64..64, 0u8..5), 3200..3600),
            split in 0usize..3200,
            cut in 0u64..4000,
        ) {
            let mut fast = Opn::new();
            let mut slow = OracleOpn::default();
            let mut resumed: Option<(Opn, OracleOpn)> = None;
            for (step, &(sel, a, b, jitter, class)) in ops.iter().enumerate() {
                let (from, to) = pick_route(sel, a, b);
                let class = TrafficClass::ALL[usize::from(class)];
                let t = step as u64 + jitter;
                if step == split {
                    let horizon = (step as u64).saturating_sub(cut);
                    let mut f = Opn::new();
                    f.restore(&fast.snapshot(horizon));
                    let mut o = OracleOpn::default();
                    o.restore(&slow.snapshot(horizon));
                    prop_assert_eq!(f.snapshot(0), o.snapshot(0));
                    resumed = Some((f, o));
                }
                prop_assert_eq!(fast.route(from, to, t, class), slow.route(from, to, t, class));
                let near = if step % 128 == 0 { 0 } else { t.saturating_sub(256) };
                prop_assert_eq!(fast.snapshot(near), slow.snapshot(near), "step {}", step);
                if let Some((f, o)) = resumed.as_mut() {
                    prop_assert_eq!(f.route(from, to, t, class), o.route(from, to, t, class));
                }
            }
            prop_assert_eq!(fast.snapshot(0), slow.snapshot(0));
            prop_assert_eq!(fast.stats(), slow.stats.clone());
            let (f, o) = resumed.expect("split lies inside the run");
            prop_assert_eq!(f.snapshot(0), o.snapshot(0));
            prop_assert_eq!(f.stats().contention_cycles, o.stats.contention_cycles);
            // The hot link took more claims than the threshold and was
            // pruned.
            let hot = (Node::et(0), Node::et(1));
            let hot_claims = ops.iter().filter(|&&(sel, ..)| sel <= 6).count();
            prop_assert!(hot_claims > ClaimSet::PRUNE_LEN);
            let kept = fast.snapshot(0).links.iter().find(|l| (l.0, l.1) == hot).unwrap().2.len();
            prop_assert!(kept < hot_claims);
        }
    }

    #[test]
    fn topology_positions() {
        assert_eq!(Node::et(0), Node { row: 1, col: 1 });
        assert_eq!(Node::et(15), Node { row: 4, col: 4 });
        assert_eq!(Node::rt(3), Node { row: 0, col: 4 });
        assert_eq!(Node::dt(0), Node { row: 1, col: 0 });
        assert_eq!(Node::GT.hops(Node::et(15)), 8);
    }

    #[test]
    fn zero_hop_bypass_is_free() {
        let mut o = Opn::new();
        let a = Node::et(5);
        assert_eq!(o.route(a, a, 100, TrafficClass::EtEt), 100);
        assert_eq!(o.stats().packets, 1);
        assert_eq!(o.stats().total_hops, 0);
    }

    #[test]
    fn latency_equals_hops_when_idle() {
        let mut o = Opn::new();
        let t = o.route(Node::et(0), Node::et(3), 10, TrafficClass::EtEt);
        assert_eq!(t, 13); // 3 hops east
    }

    #[test]
    fn link_contention_delays_second_packet() {
        let mut o = Opn::new();
        let a = Node::et(0);
        let b = Node::et(1);
        let t1 = o.route(a, b, 10, TrafficClass::EtEt);
        let t2 = o.route(a, b, 10, TrafficClass::EtEt);
        assert_eq!(t1, 11);
        assert_eq!(t2, 12);
        assert_eq!(o.stats().contention_cycles, 1);
    }

    #[test]
    fn out_of_order_claims_do_not_serialize() {
        // Regression: a packet with an *earlier* timestamp than a previously
        // routed packet must not queue behind it (overlapping in-flight
        // blocks route out of order).
        let mut o = Opn::new();
        let a = Node::et(0);
        let b = Node::et(1);
        let late = o.route(a, b, 1000, TrafficClass::EtEt);
        assert_eq!(late, 1001);
        let early = o.route(a, b, 10, TrafficClass::EtEt);
        assert_eq!(early, 11, "early packet must use the free cycle at t=10");
        assert_eq!(o.stats().contention_cycles, 0);
    }

    #[test]
    fn histogram_buckets() {
        let mut o = Opn::new();
        o.route(Node::et(0), Node::et(0), 0, TrafficClass::EtEt);
        o.route(Node::rt(0), Node::et(12), 0, TrafficClass::EtRt);
        assert_eq!(o.stats().hist[&TrafficClass::EtEt][0], 1);
        assert!(o.stats().avg_hops() > 0.0);
    }
}
