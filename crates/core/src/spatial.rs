//! The Index Manager's spatial index (paper Fig. 1).
//!
//! The paper's architecture includes an Index Manager that locates, for a
//! query predicate, the stored entities intersecting it. For the regular
//! chunk grids of the bundled applications that is closed-form arithmetic,
//! but two structures need a true spatial lookup on every query: the
//! *semantic cache* ("which cached results overlap this window?",
//! `vmqs-datastore`) and the *scheduling graph* ("which nodes can share
//! an edge with this new query?", [`crate::graph`]). The second runs under
//! the shard lock on every submit and both grow with what is cached, so
//! neither walks its whole population: [`GridIndex`] is a uniform-grid
//! spatial hash over rectangles that returns the intersecting ids in
//! ascending order, which is also what keeps both callers deterministic.

// A panic here takes down a worker or a submitter: every `unwrap` /
// `expect` outside the tests needs an `#[expect(.., reason)]` saying why
// it cannot fire.
#![warn(clippy::unwrap_used, clippy::expect_used)]

use crate::geom::Rect;
use crate::ids::DatasetId;
use std::collections::HashMap;

/// Predicates with a spatial footprint the Index Manager can index: a
/// dataset plus a bounding rectangle. Two specs can only have nonzero
/// `overlap` if their footprints intersect on the same dataset.
pub trait SpatialSpec: crate::spec::QuerySpec {
    /// The dataset and base-resolution bounding rectangle of this
    /// predicate's result.
    fn region_key(&self) -> (DatasetId, Rect);
}

/// A uniform-grid spatial hash from rectangles to `u64` ids.
///
/// Cell size is fixed at construction; each entry is registered, with its
/// rectangle, in every cell the rectangle touches, so a probe costs the
/// population of the cells it touches and nothing per entry elsewhere.
/// Queries return each matching id exactly once, sorted, so downstream
/// behaviour is deterministic.
#[derive(Debug)]
pub struct GridIndex {
    cell: u32,
    cells: HashMap<(DatasetId, u32, u32), Vec<(u64, Rect)>>,
    entries: HashMap<u64, (DatasetId, Rect)>,
}

impl GridIndex {
    /// Creates an index with the given cell side length in pixels.
    pub fn new(cell_size: u32) -> Self {
        assert!(cell_size > 0, "cell size must be positive");
        GridIndex {
            cell: cell_size,
            cells: HashMap::new(),
            entries: HashMap::new(),
        }
    }

    /// Number of indexed entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is indexed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    fn cell_range(&self, r: &Rect) -> (u32, u32, u32, u32) {
        let c0 = r.x / self.cell;
        let c1 = (r.x1().saturating_sub(1)) / self.cell;
        let r0 = r.y / self.cell;
        let r1 = (r.y1().saturating_sub(1)) / self.cell;
        (c0, c1, r0, r1)
    }

    /// Indexes `id` under `rect` on `dataset`. Panics if `id` is already
    /// present or `rect` is empty.
    pub fn insert(&mut self, id: u64, dataset: DatasetId, rect: Rect) {
        assert!(!rect.is_empty(), "cannot index an empty rectangle");
        let prev = self.entries.insert(id, (dataset, rect));
        assert!(prev.is_none(), "id {id} already indexed");
        let (c0, c1, r0, r1) = self.cell_range(&rect);
        for cy in r0..=r1 {
            for cx in c0..=c1 {
                let cell = self.cells.entry((dataset, cx, cy)).or_default();
                cell.push((id, rect));
            }
        }
    }

    /// Removes `id`; no-op if absent.
    pub fn remove(&mut self, id: u64) {
        let (dataset, rect) = match self.entries.remove(&id) {
            Some(e) => e,
            None => return,
        };
        let (c0, c1, r0, r1) = self.cell_range(&rect);
        for cy in r0..=r1 {
            for cx in c0..=c1 {
                if let Some(v) = self.cells.get_mut(&(dataset, cx, cy)) {
                    v.retain(|&(x, _)| x != id);
                    if v.is_empty() {
                        self.cells.remove(&(dataset, cx, cy));
                    }
                }
            }
        }
    }

    /// Ids whose rectangles intersect `probe` on `dataset`, sorted
    /// ascending (each id once).
    pub fn query(&self, dataset: DatasetId, probe: &Rect) -> Vec<u64> {
        if probe.is_empty() {
            return Vec::new();
        }
        let (c0, c1, r0, r1) = self.cell_range(probe);
        let mut out = Vec::new();
        for cy in r0..=r1 {
            for cx in c0..=c1 {
                if let Some(v) = self.cells.get(&(dataset, cx, cy)) {
                    // Confirm actual intersection (grid cells
                    // over-approximate).
                    let hits = v.iter().filter(|(_, r)| r.intersects(probe));
                    out.extend(hits.map(|&(id, _)| id));
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idx() -> GridIndex {
        GridIndex::new(64)
    }

    const DS: DatasetId = DatasetId(0);

    #[test]
    fn insert_query_remove_roundtrip() {
        let mut g = idx();
        g.insert(1, DS, Rect::new(0, 0, 10, 10));
        g.insert(2, DS, Rect::new(100, 100, 10, 10));
        assert_eq!(g.len(), 2);
        assert_eq!(g.query(DS, &Rect::new(5, 5, 10, 10)), vec![1]);
        assert_eq!(g.query(DS, &Rect::new(0, 0, 200, 200)), vec![1, 2]);
        g.remove(1);
        assert_eq!(g.query(DS, &Rect::new(0, 0, 200, 200)), vec![2]);
        g.remove(99); // no-op
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn rect_spanning_many_cells_reported_once() {
        let mut g = idx();
        g.insert(7, DS, Rect::new(0, 0, 1000, 1000));
        assert_eq!(g.query(DS, &Rect::new(0, 0, 1000, 1000)), vec![7]);
        assert_eq!(g.query(DS, &Rect::new(500, 500, 10, 10)), vec![7]);
    }

    #[test]
    fn datasets_are_isolated() {
        let mut g = idx();
        g.insert(1, DatasetId(0), Rect::new(0, 0, 50, 50));
        g.insert(2, DatasetId(1), Rect::new(0, 0, 50, 50));
        assert_eq!(g.query(DatasetId(0), &Rect::new(0, 0, 10, 10)), vec![1]);
        assert_eq!(g.query(DatasetId(1), &Rect::new(0, 0, 10, 10)), vec![2]);
    }

    #[test]
    fn touching_edges_do_not_intersect() {
        let mut g = idx();
        g.insert(1, DS, Rect::new(0, 0, 64, 64));
        // Shares only the edge x=64: not a hit.
        assert!(g.query(DS, &Rect::new(64, 0, 64, 64)).is_empty());
    }

    #[test]
    fn empty_probe_returns_nothing() {
        let mut g = idx();
        g.insert(1, DS, Rect::new(0, 0, 50, 50));
        assert!(g.query(DS, &Rect::empty()).is_empty());
    }

    #[test]
    #[should_panic(expected = "already indexed")]
    fn duplicate_id_panics() {
        let mut g = idx();
        g.insert(1, DS, Rect::new(0, 0, 10, 10));
        g.insert(1, DS, Rect::new(20, 20, 10, 10));
    }

    #[test]
    #[should_panic(expected = "empty rectangle")]
    fn empty_rect_rejected() {
        idx().insert(1, DS, Rect::empty());
    }

    #[test]
    fn matches_linear_scan_on_dense_population() {
        let mut g = GridIndex::new(37); // deliberately odd cell size
        let mut rects = Vec::new();
        for i in 0u64..200 {
            let r = Rect::new(
                ((i * 97) % 900) as u32,
                ((i * 61) % 900) as u32,
                ((i * 13) % 80 + 1) as u32,
                ((i * 29) % 80 + 1) as u32,
            );
            g.insert(i, DS, r);
            rects.push(r);
        }
        for probe_i in 0..20u64 {
            let probe = Rect::new(
                ((probe_i * 131) % 800) as u32,
                ((probe_i * 17) % 800) as u32,
                90,
                90,
            );
            let mut expect: Vec<u64> = rects
                .iter()
                .enumerate()
                .filter(|(_, r)| r.intersects(&probe))
                .map(|(i, _)| i as u64)
                .collect();
            expect.sort_unstable();
            assert_eq!(g.query(DS, &probe), expect, "probe {probe:?}");
        }
    }
}
