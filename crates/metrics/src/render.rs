//! Plain-text rendering of series and spatial contours for the
//! figure-reproduction harness.

use serde::{Deserialize, Serialize};

/// Renders a multi-column time series as an aligned text table.
///
/// `columns` are the value-column names; each row is `(x, values)` with
/// `values.len() == columns.len()`.
///
/// # Panics
///
/// Panics when a row's value count does not match the column count.
#[must_use]
pub fn render_series(x_name: &str, columns: &[&str], rows: &[(f64, Vec<f64>)]) -> String {
    let mut out = String::new();
    out.push_str(&format!("{x_name:>10}"));
    for c in columns {
        out.push_str(&format!(" {c:>18}"));
    }
    out.push('\n');
    for (x, values) in rows {
        assert_eq!(values.len(), columns.len(), "row width mismatch");
        out.push_str(&format!("{x:>10.1}"));
        for v in values {
            out.push_str(&format!(" {v:>18.4}"));
        }
        out.push('\n');
    }
    out
}

/// A spatial grid of values for contour-style figures.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ContourGrid {
    /// Grid columns.
    pub cols: usize,
    /// Grid rows.
    pub rows: usize,
    /// Row-major cell values.
    pub values: Vec<f64>,
}

impl ContourGrid {
    /// Builds a grid by summing per-node values into cells.
    ///
    /// # Panics
    ///
    /// Panics when `cells` and `values` differ in length or a cell is out
    /// of range.
    #[must_use]
    pub fn from_node_values(
        cols: usize,
        rows: usize,
        cells: &[(usize, usize)],
        values: &[f64],
    ) -> Self {
        assert_eq!(cells.len(), values.len(), "cells/values length mismatch");
        let mut grid = vec![0.0; cols * rows];
        for (&(c, r), &v) in cells.iter().zip(values) {
            assert!(c < cols && r < rows, "cell ({c},{r}) out of {cols}x{rows}");
            grid[r * cols + c] += v;
        }
        ContourGrid {
            cols,
            rows,
            values: grid,
        }
    }

    /// The maximum cell value.
    #[must_use]
    pub fn max(&self) -> f64 {
        self.values.iter().copied().fold(0.0, f64::max)
    }

    /// Renders the grid: a digit map (0–9 relative to the maximum, row 0
    /// at the bottom like the paper's plots) followed by raw values.
    #[must_use]
    pub fn render(&self, title: &str) -> String {
        let mut out = format!("{title} (max = {:.0})\n", self.max());
        let max = self.max().max(1e-12);
        for r in (0..self.rows).rev() {
            out.push_str("  ");
            for c in 0..self.cols {
                let v = self.values[r * self.cols + c];
                let digit = ((v / max) * 9.0).round() as u32;
                out.push_str(&format!("{digit} "));
            }
            out.push('\n');
        }
        out.push_str("  raw values (row-major, row 0 first):\n");
        for r in 0..self.rows {
            out.push_str("   ");
            for c in 0..self.cols {
                out.push_str(&format!(" {:>10.0}", self.values[r * self.cols + c]));
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_renders_aligned_rows() {
        let rows = vec![(0.0, vec![1.0, 2.0]), (10.0, vec![3.5, 4.25])];
        let s = render_series("t", &["a", "b"], &rows);
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains('a') && lines[0].contains('b'));
        assert!(lines[2].contains("3.5000"));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn series_rejects_ragged_rows() {
        let _ = render_series("t", &["a"], &[(0.0, vec![1.0, 2.0])]);
    }

    #[test]
    fn contour_sums_cells_and_scales_digits() {
        let cells = [(0, 0), (0, 0), (1, 1)];
        let values = [2.0, 3.0, 10.0];
        let g = ContourGrid::from_node_values(2, 2, &cells, &values);
        assert_eq!(g.values, vec![5.0, 0.0, 0.0, 10.0]);
        assert_eq!(g.max(), 10.0);
        let s = g.render("demo");
        assert!(s.contains("demo"));
        // Cell (0,0)=5 → digit 5 of 9; cell (1,1)=10 → digit 9.
        assert!(s.contains('9'));
    }

    #[test]
    fn empty_grid_renders_zeroes() {
        let g = ContourGrid::from_node_values(2, 1, &[], &[]);
        assert_eq!(g.max(), 0.0);
        assert!(g.render("empty").contains("0 0"));
    }
}
