//! Spatially binned point store — the data layout behind fast multi-tile
//! point passes.
//!
//! A [`BinnedPointTable`] reorders a [`PointTable`]'s row indices by a
//! uniform grid cell key (row-major linearized), stored CSR-style: a
//! `offsets` array of `cells + 1` entries and a `permutation` array holding
//! the point indices of cell `c` at `permutation[offsets[c]..offsets[c+1]]`.
//! Each cell also carries the tight bounding box of its points, so a query
//! window prunes at cell granularity without touching the rows.
//!
//! This is the software analogue of keeping tile-resident geometry on the
//! GPU (raster-join style) and of Hashedcubes' linearized spatial ordering:
//! a canvas tile's point pass walks only the cells intersecting its
//! viewport instead of re-scanning the whole table, turning a multi-tile
//! frame from O(tiles × N) into O(N + matched).
//!
//! The structure never copies the columns — it is an index permutation over
//! the existing SoA storage, cheap to build (two counting-sort passes) and
//! cheap to keep per data set across frames.

use crate::table::PointTable;
use urbane_geom::{BoundingBox, Point};

/// Rough number of points a cell of the auto-sized grid should hold. Small
/// enough that a quarter-extent tile prunes most of the table, large enough
/// that the per-cell bookkeeping stays negligible next to the columns.
const TARGET_POINTS_PER_CELL: usize = 1024;

/// Largest auto-chosen grid side. 256×256 cells bound the offsets/bbox
/// arrays to a few MB no matter how large the table grows.
const MAX_AUTO_GRID_SIDE: u32 = 256;

/// Rows [`BinnedPointTable::mark_rows_meeting`] marks between two polls of
/// its caller's budget.
const MARK_POLL_ROWS: usize = 1 << 16;

/// A uniform-grid CSR index over a point table's rows.
#[derive(Debug, Clone, PartialEq)]
pub struct BinnedPointTable {
    /// The world box the grid covers (the table's bbox at build time).
    bbox: BoundingBox,
    /// Grid columns.
    gx: u32,
    /// Grid rows.
    gy: u32,
    /// Cell width in world units (positive even for degenerate extents).
    cell_w: f64,
    /// Cell height in world units.
    cell_h: f64,
    /// CSR offsets, `gx * gy + 1` entries.
    offsets: Vec<u32>,
    /// Point indices grouped by cell, ascending within each cell.
    permutation: Vec<u32>,
    /// Tight bbox of each cell's points (empty for empty cells).
    cell_bounds: Vec<BoundingBox>,
    /// Rows indexed (the table's length at build time).
    n_points: usize,
}

impl BinnedPointTable {
    /// Bin `table` on an automatically sized square grid
    /// (≈[`TARGET_POINTS_PER_CELL`] points per cell).
    pub fn build(table: &PointTable) -> Self {
        let n = table.len();
        let side = ((n as f64 / TARGET_POINTS_PER_CELL as f64).sqrt().ceil() as u32)
            .clamp(1, MAX_AUTO_GRID_SIDE);
        Self::with_grid(table, side, side)
    }

    /// Bin `table` on an explicit `gx × gy` grid.
    ///
    /// # Panics
    /// Panics when either dimension is zero — a caller bug, not a data
    /// condition.
    pub fn with_grid(table: &PointTable, gx: u32, gy: u32) -> Self {
        assert!(gx > 0 && gy > 0, "grid dimensions must be positive");
        let bbox = table.bbox();
        let n = table.len();
        let cells = (gx as usize) * (gy as usize);
        // Degenerate widths (empty table, or all points collinear) still get
        // a positive cell size so the coordinate→cell math stays finite.
        let cell_w = if bbox.is_empty() || bbox.width() <= 0.0 { 1.0 } else { bbox.width() / gx as f64 };
        let cell_h = if bbox.is_empty() || bbox.height() <= 0.0 { 1.0 } else { bbox.height() / gy as f64 };

        let mut this = BinnedPointTable {
            bbox,
            gx,
            gy,
            cell_w,
            cell_h,
            offsets: vec![0u32; cells + 1],
            permutation: vec![0u32; n],
            cell_bounds: vec![BoundingBox::empty(); cells],
            n_points: n,
        };

        // Counting sort, two passes. Pass 1: histogram into offsets[c + 1].
        for i in 0..n {
            let c = this.cell_of(table.loc(i));
            this.offsets[c + 1] += 1;
        }
        for c in 0..cells {
            this.offsets[c + 1] += this.offsets[c];
        }
        // Pass 2: place indices. Scanning i ascending keeps each cell's
        // slice ascending, which is what lets consumers rebuild a globally
        // index-ordered candidate list (bit-identical float accumulation
        // against the unbinned scan) with a plain sort.
        let mut cursor: Vec<u32> = this.offsets[..cells].to_vec();
        for i in 0..n {
            let p = table.loc(i);
            let c = this.cell_of(p);
            this.permutation[cursor[c] as usize] = i as u32;
            cursor[c] += 1;
            this.cell_bounds[c].expand(p);
        }
        this
    }

    /// Bin a spatially pre-sorted `table` (rows in Hilbert/file order, as
    /// materialized from a `urbane-store` chunk stream) on an explicit
    /// `gx × gy` grid. Produces exactly the structure [`Self::with_grid`]
    /// builds — same offsets, permutation, and cell bounds — but computes
    /// each row's cell key once instead of twice: keys are staged into a
    /// scratch array during the histogram pass and replayed during
    /// placement. Sorted input additionally arrives in long same-cell runs,
    /// so the histogram increments and cursor writes stay cache-resident
    /// instead of striding the whole grid.
    ///
    /// # Panics
    /// Panics when either dimension is zero — a caller bug, not a data
    /// condition.
    pub fn with_grid_from_sorted(table: &PointTable, gx: u32, gy: u32) -> Self {
        assert!(gx > 0 && gy > 0, "grid dimensions must be positive");
        let bbox = table.bbox();
        let n = table.len();
        let cells = (gx as usize) * (gy as usize);
        let cell_w = if bbox.is_empty() || bbox.width() <= 0.0 { 1.0 } else { bbox.width() / gx as f64 };
        let cell_h = if bbox.is_empty() || bbox.height() <= 0.0 { 1.0 } else { bbox.height() / gy as f64 };

        let mut this = BinnedPointTable {
            bbox,
            gx,
            gy,
            cell_w,
            cell_h,
            offsets: vec![0u32; cells + 1],
            permutation: vec![0u32; n],
            cell_bounds: vec![BoundingBox::empty(); cells],
            n_points: n,
        };

        let mut keys: Vec<usize> = Vec::with_capacity(n);
        for i in 0..n {
            let c = this.cell_of(table.loc(i));
            keys.push(c);
            this.offsets[c + 1] += 1;
        }
        for c in 0..cells {
            this.offsets[c + 1] += this.offsets[c];
        }
        let mut cursor: Vec<u32> = this.offsets[..cells].to_vec();
        for (i, &c) in keys.iter().enumerate() {
            this.permutation[cursor[c] as usize] = i as u32;
            cursor[c] += 1;
            this.cell_bounds[c].expand(table.loc(i));
        }
        this
    }

    /// The linearized (row-major) cell holding `p`. Out-of-box points clamp
    /// into the edge cells, so every row lands somewhere.
    #[inline]
    fn cell_of(&self, p: Point) -> usize {
        self.row_of(p.y) as usize * self.gx as usize + self.col_of(p.x) as usize
    }

    /// The grid column holding world x-coordinate `x` (clamped to the grid).
    #[inline]
    fn col_of(&self, x: f64) -> u32 {
        (((x - self.bbox.min.x) / self.cell_w).floor() as i64).clamp(0, self.gx as i64 - 1) as u32
    }

    /// The grid row holding world y-coordinate `y` (clamped to the grid).
    #[inline]
    fn row_of(&self, y: f64) -> u32 {
        (((y - self.bbox.min.y) / self.cell_h).floor() as i64).clamp(0, self.gy as i64 - 1) as u32
    }

    /// Rows indexed.
    #[inline]
    pub fn len(&self) -> usize {
        self.n_points
    }

    /// True when the underlying table had no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n_points == 0
    }

    /// The world box the grid covers.
    #[inline]
    pub fn bbox(&self) -> BoundingBox {
        self.bbox
    }

    /// Grid dimensions `(gx, gy)`.
    #[inline]
    pub fn grid_dims(&self) -> (u32, u32) {
        (self.gx, self.gy)
    }

    /// Number of grid cells.
    #[inline]
    pub fn cell_count(&self) -> usize {
        (self.gx as usize) * (self.gy as usize)
    }

    /// Point indices of cell `(cx, cy)`, ascending.
    pub fn cell_indices(&self, cx: u32, cy: u32) -> &[u32] {
        let c = cy as usize * self.gx as usize + cx as usize;
        &self.permutation[self.offsets[c] as usize..self.offsets[c + 1] as usize]
    }

    /// Append the indices of every point that might fall inside `query`
    /// (conservative: cell-bbox granularity, so a superset of the true
    /// matches). Appended order is cell-major, *not* globally ascending —
    /// callers needing index order sort afterwards.
    pub fn candidates_into(&self, query: &BoundingBox, out: &mut Vec<u32>) {
        // lint: allow(cancel-poll-reachability) one slice copy per cell into a tile's candidate list; the tile kernels poll the budget per chunk while they walk that list
        for rows in self.cells_meeting(query) {
            out.extend_from_slice(rows);
        }
    }

    /// Set the bit of every row in a cell whose tight bounds meet `query`,
    /// in a caller's row mask (row `i` is bit `i % 64` of `bits[i / 64]`).
    /// The cells are exactly those [`candidates_into`](Self::candidates_into)
    /// walks, so the marked rows are a superset of the rows inside `query`;
    /// bits already set stay set. An empty or disjoint `query` marks nothing.
    ///
    /// `poll` runs before the first row and again after every
    /// `MARK_POLL_ROWS` marked rows; its first error stops the walk and is
    /// returned (the mask is then partial).
    ///
    /// # Panics
    /// Panics when `bits` holds fewer than `len().div_ceil(64)` words.
    pub fn mark_rows_meeting<E>(
        &self,
        query: &BoundingBox,
        bits: &mut [u64],
        mut poll: impl FnMut() -> Result<(), E>,
    ) -> Result<(), E> {
        assert!(bits.len() >= self.n_points.div_ceil(64), "row mask too short");
        let mut rows = self.cells_meeting(query).flatten();
        loop {
            poll()?;
            let mut marked = 0;
            // lint: allow(cancel-poll-reachability) at most MARK_POLL_ROWS rows per batch; the enclosing loop polls through the caller's closure before each batch
            for &i in rows.by_ref().take(MARK_POLL_ROWS) {
                bits[i as usize >> 6] |= 1u64 << (i & 63);
                marked += 1;
            }
            if marked < MARK_POLL_ROWS {
                return Ok(());
            }
        }
    }

    /// The row slices of the non-empty cells whose tight bounds meet
    /// `query`, cell-major. Query edges map to cells through the same
    /// monotone floor-and-clamp as each row did at build time, so a point
    /// inside `query` always lies in a walked cell.
    fn cells_meeting<'s>(&'s self, query: &'s BoundingBox) -> impl Iterator<Item = &'s [u32]> + 's {
        let live = !query.is_empty() && query.intersects(&self.bbox);
        let (cx0, cx1) = (self.col_of(query.min.x), self.col_of(query.max.x));
        let (cy0, cy1) = (self.row_of(query.min.y), self.row_of(query.max.y));
        let gx = self.gx as usize;
        let cys = if live { cy0..cy1 + 1 } else { 0..0 };
        cys.flat_map(move |cy| (cx0..=cx1).map(move |cx| cy as usize * gx + cx as usize))
            .filter(move |&c| self.cell_bounds[c].intersects(query))
            .map(move |c| &self.permutation[self.offsets[c] as usize..self.offsets[c + 1] as usize])
    }

    /// True when `query` covers the whole grid — a consumer gains nothing
    /// from candidate pruning and should scan the table directly.
    pub fn covered_by(&self, query: &BoundingBox) -> bool {
        self.bbox.is_empty() || query.contains_box(&self.bbox)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{AttrType, Schema};

    fn table(n: usize) -> PointTable {
        let schema = Schema::new([("v", AttrType::Numeric)]).unwrap();
        let mut t = PointTable::new(schema);
        for i in 0..n {
            // Deterministic scatter over [0, 100)².
            let x = (i.wrapping_mul(104_729) % 100_000) as f64 / 1_000.0;
            let y = (i.wrapping_mul(15_485_863) % 100_000) as f64 / 1_000.0;
            t.push(Point::new(x, y), i as i64, &[i as f32]).unwrap();
        }
        t
    }

    #[test]
    fn permutation_is_a_bijection() {
        let t = table(2_000);
        let b = BinnedPointTable::with_grid(&t, 8, 8);
        assert_eq!(b.len(), 2_000);
        let mut seen = vec![false; t.len()];
        for (gx, gy) in [(8u32, 8u32)] {
            for cy in 0..gy {
                for cx in 0..gx {
                    for &i in b.cell_indices(cx, cy) {
                        assert!(!seen[i as usize], "index {i} appears twice");
                        seen[i as usize] = true;
                    }
                }
            }
        }
        assert!(seen.iter().all(|&s| s), "every row must be binned");
    }

    #[test]
    fn cell_slices_are_ascending_and_spatially_tight() {
        let t = table(3_000);
        let b = BinnedPointTable::with_grid(&t, 10, 10);
        for cy in 0..10 {
            for cx in 0..10 {
                let idxs = b.cell_indices(cx, cy);
                assert!(idxs.windows(2).all(|w| w[0] < w[1]), "cell slice not ascending");
            }
        }
        // Every point lies inside its cell's recorded bounds.
        let mut out = Vec::new();
        b.candidates_into(&t.bbox(), &mut out);
        assert_eq!(out.len(), t.len());
    }

    #[test]
    fn candidates_superset_of_window_matches() {
        let t = table(5_000);
        let b = BinnedPointTable::build(&t);
        let window = BoundingBox::from_coords(20.0, 30.0, 45.0, 55.0);
        let mut cand = Vec::new();
        b.candidates_into(&window, &mut cand);
        cand.sort_unstable();
        // Superset: every true match is a candidate.
        for i in 0..t.len() {
            if window.contains(t.loc(i)) {
                assert!(cand.binary_search(&(i as u32)).is_ok(), "match {i} missing");
            }
        }
        // And pruning actually happened on a quarter-ish window.
        assert!(cand.len() < t.len(), "window candidates must prune");
    }

    #[test]
    fn marked_rows_are_the_candidates() {
        let t = table(5_000);
        let b = BinnedPointTable::build(&t);
        for window in [
            BoundingBox::from_coords(20.0, 30.0, 45.0, 55.0),
            BoundingBox::from_coords(0.0, 0.0, 100.0, 100.0),
            BoundingBox::from_coords(500.0, 500.0, 600.0, 600.0),
            BoundingBox::empty(),
        ] {
            let mut cand = Vec::new();
            b.candidates_into(&window, &mut cand);
            let mut bits = vec![0u64; t.len().div_ceil(64)];
            b.mark_rows_meeting(&window, &mut bits, || Ok::<(), ()>(())).unwrap();
            let mut marked: Vec<u32> = (0..t.len() as u32)
                .filter(|&i| bits[i as usize >> 6] >> (i & 63) & 1 == 1)
                .collect();
            cand.sort_unstable();
            marked.sort_unstable();
            assert_eq!(marked, cand, "{window:?}");
        }
    }

    #[test]
    fn marking_stops_at_the_first_poll_error() {
        let t = table(300_000);
        let b = BinnedPointTable::build(&t);
        let mut bits = vec![0u64; t.len().div_ceil(64)];
        let mut polls = 0;
        let r = b.mark_rows_meeting(&t.bbox(), &mut bits, || {
            polls += 1;
            if polls == 2 {
                Err("cancelled")
            } else {
                Ok(())
            }
        });
        assert_eq!(r, Err("cancelled"));
        let marked: u32 = bits.iter().map(|w| w.count_ones()).sum();
        assert_eq!(marked as usize, MARK_POLL_ROWS);
    }

    #[test]
    fn disjoint_window_yields_nothing() {
        let t = table(500);
        let b = BinnedPointTable::build(&t);
        let mut cand = Vec::new();
        b.candidates_into(&BoundingBox::from_coords(500.0, 500.0, 600.0, 600.0), &mut cand);
        assert!(cand.is_empty());
        assert!(!b.covered_by(&BoundingBox::from_coords(0.0, 0.0, 1.0, 1.0)));
        assert!(b.covered_by(&t.bbox()));
    }

    #[test]
    fn degenerate_tables_bin_safely() {
        let schema = Schema::new([("v", AttrType::Numeric)]).unwrap();
        let empty = PointTable::new(schema.clone());
        let b = BinnedPointTable::build(&empty);
        assert!(b.is_empty());
        assert_eq!(b.cell_count(), 1);

        // All rows on one spot: zero-width bbox.
        let mut t = PointTable::new(schema);
        for i in 0..10 {
            t.push(Point::new(5.0, 5.0), i, &[0.0]).unwrap();
        }
        let b = BinnedPointTable::with_grid(&t, 4, 4);
        let mut cand = Vec::new();
        b.candidates_into(&BoundingBox::from_coords(0.0, 0.0, 10.0, 10.0), &mut cand);
        assert_eq!(cand.len(), 10);
    }

    #[test]
    fn from_sorted_fast_path_is_bit_identical() {
        // Identical on any input order (the fast path changes the key
        // staging, not the result)…
        let t = table(3_000);
        assert_eq!(
            BinnedPointTable::with_grid_from_sorted(&t, 12, 9),
            BinnedPointTable::with_grid(&t, 12, 9)
        );
        // …including degenerate shapes.
        let schema = Schema::new([("v", AttrType::Numeric)]).unwrap();
        let empty = PointTable::new(schema.clone());
        assert_eq!(
            BinnedPointTable::with_grid_from_sorted(&empty, 4, 4),
            BinnedPointTable::with_grid(&empty, 4, 4)
        );
        let mut flat = PointTable::new(schema);
        for i in 0..20 {
            flat.push(Point::new(i as f64, 5.0), i, &[0.0]).unwrap();
        }
        assert_eq!(
            BinnedPointTable::with_grid_from_sorted(&flat, 8, 8),
            BinnedPointTable::with_grid(&flat, 8, 8)
        );
    }

    #[test]
    fn auto_grid_scales_with_cardinality() {
        let small = BinnedPointTable::build(&table(100));
        let large = BinnedPointTable::build(&table(50_000));
        assert!(large.cell_count() > small.cell_count());
        assert_eq!(small.grid_dims().0, small.grid_dims().1);
    }
}
