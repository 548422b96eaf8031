//! Dense traffic matrices.
//!
//! A traffic matrix records the demand in bytes between every ordered pair of
//! nodes for one training iteration. The paper visualises these as heatmaps
//! (Figures 1, 4, 8, 9); the `TopologyFinder` consumes them as `T_AllReduce`
//! and `T_MP` inputs.

use serde::{Deserialize, Serialize};

/// Demand in bytes between every ordered pair of `n` nodes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrafficMatrix {
    n: usize,
    /// Row-major `n x n` demand in bytes; `data[src * n + dst]`.
    data: Vec<f64>,
}

impl TrafficMatrix {
    /// All-zero matrix over `n` nodes.
    pub fn new(n: usize) -> Self {
        TrafficMatrix { n, data: vec![0.0; n * n] }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Demand in bytes from `src` to `dst`.
    pub fn get(&self, src: usize, dst: usize) -> f64 {
        self.data[src * self.n + dst]
    }

    /// Set the demand from `src` to `dst`.
    pub fn set(&mut self, src: usize, dst: usize, bytes: f64) {
        self.data[src * self.n + dst] = bytes;
    }

    /// Add `bytes` of demand from `src` to `dst`.
    pub fn add(&mut self, src: usize, dst: usize, bytes: f64) {
        self.data[src * self.n + dst] += bytes;
    }

    /// Scale the demand between one pair by `factor`.
    pub fn scale_entry(&mut self, src: usize, dst: usize, factor: f64) {
        self.data[src * self.n + dst] *= factor;
    }

    /// Total bytes of demand in the matrix.
    pub fn total(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Maximum single-pair demand in bytes.
    pub fn max_entry(&self) -> f64 {
        self.data.iter().cloned().fold(0.0, f64::max)
    }

    /// Number of ordered pairs with non-zero demand.
    pub fn nonzero_pairs(&self) -> usize {
        self.data.iter().filter(|&&d| d > 0.0).count()
    }

    /// Element-wise sum of two matrices over the same node set.
    pub fn merged(&self, other: &TrafficMatrix) -> TrafficMatrix {
        assert_eq!(self.n, other.n);
        let mut out = self.clone();
        for i in 0..self.data.len() {
            out.data[i] += other.data[i];
        }
        out
    }

    /// All ordered `(src, dst, bytes)` entries with non-zero demand, sorted
    /// by descending demand.
    pub fn entries_desc(&self) -> Vec<(usize, usize, f64)> {
        let mut v: Vec<(usize, usize, f64)> = (0..self.n)
            .flat_map(|s| (0..self.n).map(move |d| (s, d)))
            .filter(|&(s, d)| self.get(s, d) > 0.0)
            .map(|(s, d)| (s, d, self.get(s, d)))
            .collect();
        v.sort_by(|a, b| b.2.total_cmp(&a.2));
        v
    }

    /// [`entries_desc`](Self::entries_desc) of this matrix relabelled onto a
    /// larger node set (node `i` becomes `map[i]`), computed from this
    /// matrix's own entries: the cost is O(n² + e log e) in this matrix's
    /// `n` and non-zero count `e`, whatever the size of the target set.
    ///
    /// The result equals adding every entry into an all-zero matrix over the
    /// target set and listing it: entries `map` folds onto one pair are
    /// summed in this matrix's `entries_desc` order, and equal demands keep
    /// row-major order of the relabelled pairs.
    pub fn remapped_entries_desc(&self, map: &[usize]) -> Vec<(usize, usize, f64)> {
        assert_eq!(map.len(), self.n, "one target node per node");
        let mut v: Vec<(usize, usize, f64)> =
            self.entries_desc().into_iter().map(|(s, d, bytes)| (map[s], map[d], bytes)).collect();
        // Row-major order of the target pairs; the sort is stable, so entries
        // folding onto one pair stay in the order the dense sum adds them.
        v.sort_by_key(|&(s, d, _)| (s, d));
        v.dedup_by(|next, kept| {
            let same = (next.0, next.1) == (kept.0, kept.1);
            if same {
                kept.2 += next.2;
            }
            same
        });
        v.sort_by(|a, b| b.2.total_cmp(&a.2));
        v
    }

    /// ASCII heatmap rendering: rows are sources, columns destinations; each
    /// cell is scaled to a 0–9 digit relative to the maximum entry. Useful
    /// for the figure-regeneration binaries.
    pub fn ascii_heatmap(&self) -> String {
        let max = self.max_entry();
        let mut s = String::new();
        for src in 0..self.n {
            for dst in 0..self.n {
                let v = self.get(src, dst);
                let c = if max <= 0.0 || v <= 0.0 {
                    '.'
                } else {
                    let level = ((v / max) * 9.0).ceil().min(9.0) as u32;
                    char::from_digit(level, 10).unwrap()
                };
                s.push(c);
                s.push(' ');
            }
            s.push('\n');
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_matrix_totals_zero() {
        let m = TrafficMatrix::new(4);
        assert_eq!(m.total(), 0.0);
        assert_eq!(m.nonzero_pairs(), 0);
    }

    #[test]
    fn get_set_add_roundtrip() {
        let mut m = TrafficMatrix::new(3);
        m.set(0, 1, 10.0);
        m.add(0, 1, 5.0);
        assert_eq!(m.get(0, 1), 15.0);
        assert_eq!(m.get(1, 0), 0.0);
        assert_eq!(m.total(), 15.0);
    }

    #[test]
    fn merged_adds_elementwise() {
        let mut a = TrafficMatrix::new(2);
        a.set(0, 1, 1.0);
        let mut b = TrafficMatrix::new(2);
        b.set(0, 1, 2.0);
        b.set(1, 0, 3.0);
        let c = a.merged(&b);
        assert_eq!(c.get(0, 1), 3.0);
        assert_eq!(c.get(1, 0), 3.0);
    }

    #[test]
    fn entries_sorted_descending() {
        let mut m = TrafficMatrix::new(3);
        m.set(0, 1, 5.0);
        m.set(1, 2, 10.0);
        m.set(2, 0, 1.0);
        let e = m.entries_desc();
        assert_eq!(e[0], (1, 2, 10.0));
        assert_eq!(e[2], (2, 0, 1.0));
    }

    #[test]
    fn ascii_heatmap_marks_max_as_nine() {
        let mut m = TrafficMatrix::new(2);
        m.set(0, 1, 100.0);
        let art = m.ascii_heatmap();
        assert!(art.contains('9'));
        assert!(art.contains('.'));
    }

    #[test]
    fn max_entry_and_scale() {
        let mut m = TrafficMatrix::new(2);
        m.set(0, 1, 8.0);
        m.scale_entry(0, 1, 0.5);
        assert_eq!(m.max_entry(), 4.0);
    }
}
