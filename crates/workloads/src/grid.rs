//! Deployment topologies.
//!
//! The paper uses two: a regular indoor grid (8×6 MicaZ motes, 2 ft
//! spacing) and an irregular outdoor forest plot (36 motes over roughly
//! 105 ft × 105 ft, attached to trees wherever trees happened to stand).

use enviromic_sim::rng::RngStreams;
use enviromic_types::Position;
use rand::Rng;

/// A deployment: node positions indexed by the node IDs the simulator will
/// assign (insertion order).
#[derive(Debug, Clone, PartialEq)]
pub struct Topology {
    positions: Vec<Position>,
    /// Columns of the logical grid (for contour binning).
    pub cols: usize,
    /// Rows of the logical grid.
    pub rows: usize,
}

impl Topology {
    /// A `cols × rows` grid with the given spacing in feet, row-major
    /// (node 0 at the origin), exactly like the indoor testbed (§IV:
    /// "48 MicaZ motes placed as a 8×6 grid with unit grid length 2 ft").
    ///
    /// # Panics
    ///
    /// Panics when `cols` or `rows` is zero.
    #[must_use]
    pub fn grid(cols: usize, rows: usize, spacing_ft: f64) -> Self {
        assert!(cols > 0 && rows > 0, "grid must be non-empty");
        let mut positions = Vec::with_capacity(cols * rows);
        for r in 0..rows {
            for c in 0..cols {
                positions.push(Position::new(c as f64 * spacing_ft, r as f64 * spacing_ft));
            }
        }
        Topology {
            positions,
            cols,
            rows,
        }
    }

    /// The paper's indoor testbed: 8×6 nodes, 2 ft spacing.
    #[must_use]
    pub fn indoor_testbed() -> Self {
        Topology::grid(8, 6, 2.0)
    }

    /// An irregular deployment: `n` nodes jittered from a rough grid over
    /// a `side_ft × side_ft` area, like motes strapped to trees in the
    /// forest plot. Deterministic in `seed`.
    ///
    /// # Panics
    ///
    /// Panics when `n` is zero.
    #[must_use]
    pub fn irregular(n: usize, side_ft: f64, seed: u64) -> Self {
        assert!(n > 0, "deployment must be non-empty");
        let cols = (n as f64).sqrt().ceil() as usize;
        let rows = n.div_ceil(cols);
        let cell = side_ft / cols as f64;
        let mut rng = RngStreams::new(seed).stream("topology", 0);
        let mut positions = Vec::with_capacity(n);
        'outer: for r in 0..rows {
            for c in 0..cols {
                if positions.len() == n {
                    break 'outer;
                }
                let jx = rng.gen_range(-0.35..0.35) * cell;
                let jy = rng.gen_range(-0.35..0.35) * cell;
                positions.push(Position::new(
                    (c as f64 + 0.5) * cell + jx,
                    (r as f64 + 0.5) * cell + jy,
                ));
            }
        }
        Topology {
            positions,
            cols,
            rows,
        }
    }

    /// The outdoor forest deployment: 36 motes over 105 ft × 105 ft.
    #[must_use]
    pub fn forest(seed: u64) -> Self {
        Topology::irregular(36, 105.0, seed)
    }

    /// A deployment from explicit positions, binned into a logical
    /// `cols × rows` grid for contour summaries. Used by generators whose
    /// layout is neither a regular grid nor a jittered one (e.g. the
    /// city-block workload, which places nodes along street lines).
    ///
    /// # Panics
    ///
    /// Panics when `positions` is empty or `cols`/`rows` is zero.
    #[must_use]
    pub fn from_positions(positions: Vec<Position>, cols: usize, rows: usize) -> Self {
        assert!(!positions.is_empty(), "deployment must be non-empty");
        assert!(cols > 0 && rows > 0, "logical grid must be non-empty");
        Topology {
            positions,
            cols,
            rows,
        }
    }

    /// Node positions in node-ID order.
    #[must_use]
    pub fn positions(&self) -> &[Position] {
        &self.positions
    }

    /// Number of nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// True for an empty topology (never produced by the constructors).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// The grid cell `(col, row)` a node falls into when the bounding box
    /// is binned into the logical `cols × rows` grid.
    #[must_use]
    pub fn cell_of(&self, index: usize) -> (usize, usize) {
        let p = self.positions[index];
        let (w, h) = self.extent();
        let col = ((p.x / w * self.cols as f64) as usize).min(self.cols - 1);
        let row = ((p.y / h * self.rows as f64) as usize).min(self.rows - 1);
        (col, row)
    }

    /// Bounding-box extent `(width, height)` in feet (at least 1 ft to
    /// avoid degenerate bins).
    #[must_use]
    pub fn extent(&self) -> (f64, f64) {
        let w = self
            .positions
            .iter()
            .map(|p| p.x)
            .fold(0.0f64, f64::max)
            .max(1.0);
        let h = self
            .positions
            .iter()
            .map(|p| p.y)
            .fold(0.0f64, f64::max)
            .max(1.0);
        (w + 1e-9, h + 1e-9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indoor_testbed_matches_paper() {
        let t = Topology::indoor_testbed();
        assert_eq!(t.len(), 48);
        assert_eq!((t.cols, t.rows), (8, 6));
        assert_eq!(t.positions()[0], Position::new(0.0, 0.0));
        assert_eq!(t.positions()[7], Position::new(14.0, 0.0));
        assert_eq!(t.positions()[8], Position::new(0.0, 2.0));
        assert_eq!(t.positions()[47], Position::new(14.0, 10.0));
    }

    #[test]
    fn irregular_is_deterministic_and_bounded() {
        let a = Topology::forest(42);
        let b = Topology::forest(42);
        assert_eq!(a, b);
        assert_ne!(a, Topology::forest(43));
        assert_eq!(a.len(), 36);
        for p in a.positions() {
            assert!((0.0..=105.0).contains(&p.x), "{p}");
            assert!((0.0..=105.0).contains(&p.y), "{p}");
        }
    }

    #[test]
    fn cells_partition_the_grid() {
        let t = Topology::grid(4, 2, 2.0);
        assert_eq!(t.cell_of(0), (0, 0));
        assert_eq!(t.cell_of(3), (3, 0));
        assert_eq!(t.cell_of(7), (3, 1));
    }
}
