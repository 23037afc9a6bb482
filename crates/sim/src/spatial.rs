//! Spatial acceleration for the simulation core.
//!
//! Two independent indexes remove the O(everything) scans from the two
//! hottest per-event code paths:
//!
//! * [`NodeGrid`] — a uniform grid over node positions with cell size equal
//!   to the radio range. Packet delivery queries the 3×3 cell neighborhood
//!   of the sender instead of scanning every node; since no in-range node
//!   can sit outside that neighborhood, the candidate set is exact. Dead
//!   nodes are evicted, so they cost nothing after they die.
//! * [`AudibleIndex`] — per-node candidate lists of acoustic sources that
//!   can *ever* be audible at that node, with a conservative time window.
//!   Static sources are resolved once by point distance; mobile sources are
//!   bucketed per waypoint segment (including the clamped dwell before the
//!   first and after the last waypoint) via
//!   [`Position::distance_to_segment`], and the per-segment windows are
//!   merged into one hull interval per (node, source) pair.
//!
//! # The RNG-order invariant
//!
//! The simulator promises bit-identical traces from a fixed seed, pinned by
//! golden digests in `tests/determinism.rs`. Packet loss is drawn from
//! `medium_rng` once per alive in-range receiver **in ascending node-index
//! order**, and audio/level synthesis mixes source contributions **in
//! ascending source-index order**. The indexes therefore never decide
//! outcomes themselves — they only shrink the candidate set:
//!
//! * [`NodeGrid::query_sorted`] distance-filters with the exact same
//!   predicate as the brute-force scan and sorts candidates by node index
//!   *before* any loss draw happens, so the `medium_rng` sequence is
//!   byte-for-byte unchanged.
//! * [`AudibleIndex`] entries are stored in ascending source order and are
//!   a strict superset of the audible sources at any instant; excluded
//!   sources contribute exactly `0.0` to a max-fold (peak level) or a sum
//!   guarded by `lvl > 0.0` (sample mixing), so skipping them is
//!   bit-identical.
//!
//! `crates/sim/tests/prop_sim.rs` checks both equivalences against the
//! brute-force reference across random topologies, ranges, and mobile
//! sources.

use crate::acoustics::{AcousticField, Motion, SourceSpec};
use enviromic_types::{NodeId, Position, SimTime};

/// Safety margin (feet) added to range comparisons when deciding index
/// membership. Candidacy must never have false negatives: the margin
/// swallows the rounding difference between the build-time segment
/// distance and the query-time point distance. False positives are free —
/// the exact predicate is re-evaluated at query time.
const RANGE_MARGIN_FT: f64 = 1e-6;

/// Upper bound on grid cells per axis, so a tiny radio range over a huge
/// deployment cannot explode memory. Capping *grows* cells beyond the
/// radio range, which keeps the 3×3 neighborhood sufficient. 1024 keeps
/// city-scale extents (miles across, radio ranges of tens of feet) out of
/// the mega-bucket regime while bounding the grid at ~1M cells.
const MAX_CELLS_PER_AXIS: usize = 1024;

/// Uniform-grid index over node positions, cell size ≥ the radio range.
///
/// Built once when the world starts (nodes never move); nodes are removed
/// when they die. Queries return the alive candidates within range of a
/// point, sorted by node index.
#[derive(Debug, Clone)]
pub struct NodeGrid {
    origin: Position,
    cell_ft: f64,
    cols: usize,
    rows: usize,
    /// Node indices bucketed by cell, row-major.
    cells: Vec<Vec<u32>>,
    /// Cell index per node; `usize::MAX` marks an evicted (dead) node.
    node_cell: Vec<usize>,
    /// Node positions, indexed by node id (immutable after build).
    positions: Vec<Position>,
}

impl NodeGrid {
    /// Builds the grid for nodes at `positions` with the given radio
    /// range. Nodes whose `alive` flag is false are left out.
    #[must_use]
    pub fn build(positions: &[Position], alive: &[bool], range_ft: f64) -> Self {
        let (mut min_x, mut min_y) = (f64::INFINITY, f64::INFINITY);
        let (mut max_x, mut max_y) = (f64::NEG_INFINITY, f64::NEG_INFINITY);
        for p in positions {
            min_x = min_x.min(p.x);
            min_y = min_y.min(p.y);
            max_x = max_x.max(p.x);
            max_y = max_y.max(p.y);
        }
        if positions.is_empty() {
            (min_x, min_y, max_x, max_y) = (0.0, 0.0, 0.0, 0.0);
        }
        let extent = (max_x - min_x).max(max_y - min_y).max(0.0);
        let cell_ft = range_ft
            .max(extent / MAX_CELLS_PER_AXIS as f64)
            .max(RANGE_MARGIN_FT);
        // Out-of-bounds coordinates clamp into the edge cells, which can
        // only merge cells (never split them), so the 3×3 neighborhood
        // invariant survives the axis cap.
        let cols = (((max_x - min_x) / cell_ft).floor() as usize + 1).clamp(1, MAX_CELLS_PER_AXIS);
        let rows = (((max_y - min_y) / cell_ft).floor() as usize + 1).clamp(1, MAX_CELLS_PER_AXIS);
        let mut grid = NodeGrid {
            origin: Position::new(min_x, min_y),
            cell_ft,
            cols,
            rows,
            cells: vec![Vec::new(); cols * rows],
            node_cell: vec![usize::MAX; positions.len()],
            positions: positions.to_vec(),
        };
        for (idx, &p) in positions.iter().enumerate() {
            if alive.get(idx).copied().unwrap_or(true) {
                let cell = grid.cell_index(p);
                grid.cells[cell].push(NodeId::from_index(idx).0);
                grid.node_cell[idx] = cell;
            }
        }
        grid
    }

    /// The cell a position falls into, clamped to the grid bounds.
    fn cell_index(&self, p: Position) -> usize {
        let col = (((p.x - self.origin.x) / self.cell_ft).floor() as isize)
            .clamp(0, self.cols as isize - 1) as usize;
        let row = (((p.y - self.origin.y) / self.cell_ft).floor() as isize)
            .clamp(0, self.rows as isize - 1) as usize;
        row * self.cols + col
    }

    /// Evicts a node (it died). Idempotent.
    pub fn remove(&mut self, node: usize) {
        let cell = self.node_cell[node];
        if cell == usize::MAX {
            return;
        }
        self.node_cell[node] = usize::MAX;
        let bucket = &mut self.cells[cell];
        if let Some(pos) = bucket.iter().position(|&n| n as usize == node) {
            bucket.swap_remove(pos);
        }
    }

    /// Re-admits an evicted node at its build-time position (it rebooted).
    /// Idempotent. Bucket order is irrelevant: [`NodeGrid::query_sorted`]
    /// sorts candidates by node index before they are used.
    pub fn insert(&mut self, node: usize) {
        if self.node_cell[node] != usize::MAX {
            return;
        }
        let cell = self.cell_index(self.positions[node]);
        self.cells[cell].push(NodeId::from_index(node).0);
        self.node_cell[node] = cell;
    }

    /// True while the node is present (i.e. alive).
    #[must_use]
    pub fn contains(&self, node: usize) -> bool {
        self.node_cell[node] != usize::MAX
    }

    /// Collects into `out` every present node within `range_ft` of
    /// `center` (inclusive — the same `d <= range` predicate as the
    /// brute-force delivery scan), sorted by node index. `out` is cleared
    /// first; its capacity is reused, so steady-state queries do not
    /// allocate.
    pub fn query_sorted(&self, center: Position, range_ft: f64, out: &mut Vec<u32>) {
        out.clear();
        // Small worlds: when the whole grid fits inside one 3×3
        // neighborhood, bucket gathering plus the final sort costs more
        // than the sequential scan it replaced. Scan all nodes directly —
        // same predicate, already in ascending index order.
        if self.cols <= 3 && self.rows <= 3 {
            for (idx, p) in self.positions.iter().enumerate() {
                if self.node_cell[idx] != usize::MAX && p.distance_to(center) <= range_ft {
                    out.push(NodeId::from_index(idx).0);
                }
            }
            return;
        }
        let ccol = (((center.x - self.origin.x) / self.cell_ft).floor() as isize)
            .clamp(0, self.cols as isize - 1);
        let crow = (((center.y - self.origin.y) / self.cell_ft).floor() as isize)
            .clamp(0, self.rows as isize - 1);
        for row in (crow - 1).max(0)..=(crow + 1).min(self.rows as isize - 1) {
            for col in (ccol - 1).max(0)..=(ccol + 1).min(self.cols as isize - 1) {
                let cell = row as usize * self.cols + col as usize;
                for &idx in &self.cells[cell] {
                    if self.positions[idx as usize].distance_to(center) <= range_ft {
                        out.push(idx);
                    }
                }
            }
        }
        out.sort_unstable();
    }
}

/// One candidate entry: `source` can only be audible at the owning node
/// during `[from, to]` (a conservative hull — the exact level is always
/// re-evaluated).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AudibleEntry {
    /// Index into [`AcousticField::sources`].
    pub source: u32,
    /// Earliest instant the source can be audible at this node.
    pub from: SimTime,
    /// Latest instant the source can be audible at this node (inclusive).
    pub to: SimTime,
}

/// Per-node candidate lists of possibly-audible sources, ascending by
/// source index.
#[derive(Debug, Clone, Default)]
pub struct AudibleIndex {
    per_node: Vec<Vec<AudibleEntry>>,
}

impl AudibleIndex {
    /// Creates an index over `nodes` nodes with no sources yet; populate
    /// it one source at a time with [`AudibleIndex::add_source`].
    #[must_use]
    pub fn new(nodes: usize) -> Self {
        AudibleIndex {
            per_node: vec![Vec::new(); nodes],
        }
    }

    /// Resolves the candidate set for every node against every source.
    ///
    /// Static sources are included iff the fixed distance is below the
    /// audible range (plus margin). Mobile sources are tested per
    /// trajectory leg — segment distance lower-bounds every position the
    /// source takes during that leg — and the windows of the in-range legs
    /// are merged into one hull interval.
    #[must_use]
    pub fn build(positions: &[Position], sources: &[SourceSpec]) -> Self {
        let mut idx = AudibleIndex::new(positions.len());
        for (si, s) in sources.iter().enumerate() {
            idx.add_source(positions, si as u32, s);
        }
        idx
    }

    /// Patches the candidate lists for one newly added source — the
    /// incremental form of [`AudibleIndex::build`]: building from scratch
    /// is defined as folding `add_source` over the sources in index
    /// order, so adding source `k` to an index holding `0..k` yields a
    /// structure identical to rebuilding with `0..=k`.
    ///
    /// # Panics
    ///
    /// Panics when `source` does not keep each node's entry list ascending
    /// (sources must be added in ascending index order) or when
    /// `positions` disagrees with the index's node count.
    pub fn add_source(&mut self, positions: &[Position], source: u32, s: &SourceSpec) {
        assert_eq!(
            positions.len(),
            self.per_node.len(),
            "position set diverged from the index"
        );
        match &s.motion {
            Motion::Static(p) => {
                for (ni, np) in positions.iter().enumerate() {
                    if p.distance_to(*np) < s.range_ft + RANGE_MARGIN_FT {
                        self.push_entry(
                            ni,
                            AudibleEntry {
                                source,
                                from: s.start,
                                to: s.stop,
                            },
                        );
                    }
                }
            }
            Motion::Waypoints(points) => {
                let legs = trajectory_legs(points, s.start, s.stop);
                for (ni, np) in positions.iter().enumerate() {
                    let mut hull: Option<(SimTime, SimTime)> = None;
                    for &(t0, t1, a, b) in &legs {
                        if np.distance_to_segment(a, b) < s.range_ft + RANGE_MARGIN_FT {
                            hull = Some(match hull {
                                None => (t0, t1),
                                Some((f, t)) => (f.min(t0), t.max(t1)),
                            });
                        }
                    }
                    if let Some((from, to)) = hull {
                        self.push_entry(ni, AudibleEntry { source, from, to });
                    }
                }
            }
        }
    }

    /// Appends one entry to a node's list, keeping it ascending by source.
    fn push_entry(&mut self, node: usize, entry: AudibleEntry) {
        let list = &mut self.per_node[node];
        assert!(
            list.last().is_none_or(|last| last.source < entry.source),
            "sources must be added in ascending index order"
        );
        list.push(entry);
    }

    /// Removes every candidate entry for `source` — called once the source
    /// has stopped *and* no in-flight audio block can still overlap its
    /// lifetime. Past its stop instant the source's level is an exact
    /// `0.0` everywhere, so dropping the entries afterwards never changes
    /// a peak or a mix. Entry lists stay ascending (removal preserves
    /// order). O(total entries); each source is retired at most once.
    pub fn retire_source(&mut self, source: u32) {
        for list in &mut self.per_node {
            if let Ok(i) = list.binary_search_by_key(&source, |e| e.source) {
                list.remove(i);
            }
        }
    }

    /// Drops every candidate entry of one node — called when the node is
    /// permanently dead (battery exhausted). Its level samples are never
    /// delivered anywhere afterwards, so the cleared list is unobservable;
    /// this only stops the per-tick window scan from paying for a corpse.
    /// Not used for crash faults: a rebooted node needs its candidates.
    pub fn clear_node(&mut self, node: usize) {
        self.per_node[node].clear();
        self.per_node[node].shrink_to_fit();
    }

    /// The candidate entries for `node`, ascending by source index.
    #[must_use]
    pub fn entries(&self, node: usize) -> &[AudibleEntry] {
        &self.per_node[node]
    }

    /// The strongest single-source level heard at `listener` at `t`, not
    /// counting ambient noise. Concurrent sources do not add powers — for
    /// detection purposes the dominant source masks the rest, which
    /// mirrors the paper's "collision" discussion. Only the node's
    /// candidates are consulted; the result is bit-identical to a scan of
    /// every source in the field (`crates/sim/tests/prop_sim.rs`).
    #[must_use]
    pub fn peak_level(
        &self,
        field: &AcousticField,
        node: usize,
        listener: Position,
        t: SimTime,
    ) -> f64 {
        let sources = field.sources();
        let mut peak = 0.0f64;
        for e in &self.per_node[node] {
            if t >= e.from && t <= e.to {
                peak = peak.max(sources[e.source as usize].level_at(listener, t));
            }
        }
        peak
    }

    /// Collects into `out` the ascending source indices whose candidate
    /// window overlaps `[t0, t1]` at `node` — the mixing set for one audio
    /// block. `out` is cleared first; its capacity is reused.
    pub fn block_sources(&self, node: usize, t0: SimTime, t1: SimTime, out: &mut Vec<u32>) {
        out.clear();
        for e in &self.per_node[node] {
            if e.from <= t1 && e.to >= t0 {
                out.push(e.source);
            }
        }
    }
}

/// Decomposes a waypoint trajectory (clamped to the active window
/// `[start, stop]`) into legs of `(window start, window end, segment a,
/// segment b)`. Includes the stationary dwell at the first position before
/// the first waypoint and at the last position after the last waypoint, so
/// the legs jointly cover every instant of `[start, stop]`.
fn trajectory_legs(
    points: &[(SimTime, Position)],
    start: SimTime,
    stop: SimTime,
) -> Vec<(SimTime, SimTime, Position, Position)> {
    let mut legs = Vec::with_capacity(points.len() + 1);
    let (first_t, first_p) = points[0];
    let (last_t, last_p) = *points.last().expect("validated non-empty");
    if start < first_t {
        legs.push((start, first_t.min(stop), first_p, first_p));
    }
    for pair in points.windows(2) {
        let (t0, p0) = pair[0];
        let (t1, p1) = pair[1];
        if t1 < start || t0 > stop {
            continue;
        }
        legs.push((t0.max(start), t1.min(stop), p0, p1));
    }
    if stop > last_t {
        legs.push((last_t.max(start), stop, last_p, last_p));
    }
    legs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::acoustics::Waveform;
    use enviromic_types::{SimDuration, SourceId};

    fn secs(s: f64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs_f64(s)
    }

    #[test]
    fn grid_query_matches_brute_force_on_a_grid() {
        let positions: Vec<Position> = (0..100)
            .map(|i| Position::new(f64::from(i % 10) * 2.0, f64::from(i / 10) * 2.0))
            .collect();
        let alive = vec![true; positions.len()];
        let range = 3.2;
        let grid = NodeGrid::build(&positions, &alive, range);
        let mut out = Vec::new();
        for &center in &positions {
            grid.query_sorted(center, range, &mut out);
            let brute: Vec<u32> = positions
                .iter()
                .enumerate()
                .filter(|(_, p)| p.distance_to(center) <= range)
                .map(|(i, _)| i as u32)
                .collect();
            assert_eq!(out, brute, "center {center}");
        }
    }

    #[test]
    fn removed_nodes_disappear_from_queries() {
        let positions = vec![
            Position::new(0.0, 0.0),
            Position::new(1.0, 0.0),
            Position::new(2.0, 0.0),
        ];
        let mut grid = NodeGrid::build(&positions, &[true, true, true], 5.0);
        let mut out = Vec::new();
        grid.query_sorted(Position::new(0.0, 0.0), 5.0, &mut out);
        assert_eq!(out, vec![0, 1, 2]);
        grid.remove(1);
        grid.remove(1); // idempotent
        assert!(!grid.contains(1));
        grid.query_sorted(Position::new(0.0, 0.0), 5.0, &mut out);
        assert_eq!(out, vec![0, 2]);
        grid.insert(1); // rebooted
        grid.insert(1); // idempotent
        assert!(grid.contains(1));
        grid.query_sorted(Position::new(0.0, 0.0), 5.0, &mut out);
        assert_eq!(out, vec![0, 1, 2]);
    }

    #[test]
    fn tiny_range_over_large_extent_stays_bounded() {
        let positions = vec![Position::new(0.0, 0.0), Position::new(10_000.0, 10_000.0)];
        let grid = NodeGrid::build(&positions, &[true, true], 0.001);
        assert!(grid.cols <= MAX_CELLS_PER_AXIS && grid.rows <= MAX_CELLS_PER_AXIS);
        let mut out = Vec::new();
        grid.query_sorted(Position::new(0.0, 0.0), 0.001, &mut out);
        assert_eq!(out, vec![0]);
    }

    #[test]
    fn node_indices_above_the_old_u16_cap_survive_the_grid() {
        // 70 000 nodes: indices above 65 535 used to be truncated by a bare
        // `as u16` in insert/query, silently aliasing node 70 000 onto node
        // 4 464. Spread the nodes so the grid actually buckets them.
        let n = 70_000usize;
        let positions: Vec<Position> = (0..n)
            .map(|i| Position::new((i % 1000) as f64 * 10.0, (i / 1000) as f64 * 10.0))
            .collect();
        let alive = vec![true; n];
        let mut grid = NodeGrid::build(&positions, &alive, 12.0);
        let mut out = Vec::new();
        let last = positions[n - 1];
        grid.query_sorted(last, 12.0, &mut out);
        assert!(
            out.contains(&((n - 1) as u32)),
            "the last node must be found under its real index, got {out:?}"
        );
        assert!(out.iter().all(|&i| (i as usize) < n));
        // Evict-and-reinsert goes through the other formerly-truncating
        // path.
        grid.remove(n - 1);
        grid.query_sorted(last, 12.0, &mut out);
        assert!(!out.contains(&((n - 1) as u32)));
        grid.insert(n - 1);
        grid.query_sorted(last, 12.0, &mut out);
        assert!(out.contains(&((n - 1) as u32)));
    }

    fn mobile_source(range_ft: f64) -> SourceSpec {
        SourceSpec {
            id: SourceId(1),
            start: secs(1.0),
            stop: secs(11.0),
            amplitude: 100.0,
            range_ft,
            motion: Motion::Waypoints(vec![
                (secs(2.0), Position::new(0.0, 0.0)),
                (secs(6.0), Position::new(8.0, 0.0)),
                (secs(10.0), Position::new(8.0, 8.0)),
            ]),
            waveform: Waveform::Noise,
        }
    }

    #[test]
    fn dwell_before_and_after_waypoints_is_covered() {
        // Source active from 1 s but first waypoint at 2 s: it dwells at
        // the first position for a second, which must be indexed; same for
        // the dwell at the last position between 10 s and 11 s.
        let positions = vec![Position::new(0.0, 0.5), Position::new(8.0, 7.5)];
        let sources = vec![mobile_source(1.0)];
        let idx = AudibleIndex::build(&positions, &sources);
        let e0 = idx.entries(0)[0];
        assert_eq!(
            e0.from,
            secs(1.0),
            "pre-waypoint dwell starts at activation"
        );
        let e1 = idx.entries(1)[0];
        assert_eq!(
            e1.to,
            secs(11.0),
            "post-waypoint dwell runs to deactivation"
        );
    }

    #[test]
    fn block_sources_are_ascending_and_windowed() {
        let positions = vec![Position::new(0.0, 0.0)];
        let mut sources = vec![mobile_source(2.0)];
        sources.push(SourceSpec {
            id: SourceId(2),
            start: secs(20.0),
            stop: secs(21.0),
            amplitude: 50.0,
            range_ft: 5.0,
            motion: Motion::Static(Position::new(0.0, 1.0)),
            waveform: Waveform::Noise,
        });
        let idx = AudibleIndex::build(&positions, &sources);
        let mut out = Vec::new();
        idx.block_sources(0, secs(0.0), secs(30.0), &mut out);
        assert_eq!(out, vec![0, 1]);
        idx.block_sources(0, secs(20.5), secs(20.6), &mut out);
        assert_eq!(out, vec![1], "mobile source window ended long before");
    }
}
