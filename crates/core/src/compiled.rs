//! Query compilation: evaluate the filter set once per query, not once per
//! tile per point.
//!
//! [`CompiledQuery`] hoists the filter conjunction to query start: it is
//! evaluated into a shared bitmask, and every tile (on every worker thread)
//! answers "does row i survive the filters?" with a single bit test. The
//! aggregate value column is resolved once alongside, so kernels read
//! `column[i]` directly instead of gathering per-chunk `Vec<f32>` copies.
//!
//! **Viewport seeding.** When the store carries bins and the query has
//! `SpatialBox` filters, the mask build starts from the bins instead of from
//! all N rows: the boxes intersect into one window, every row of a cell
//! whose tight bounds meet that window gets its bit set, and then every
//! predicate (the box tests included) clears the seeded bits it rejects. A
//! window that covers the whole grid seeds nothing and the build scans all
//! rows as before; an empty window (an inverted box, disjoint boxes) leaves
//! the mask all zero. The seeded mask equals the unseeded one bit for bit:
//! cell bounds and filter boxes are both closed, so the seed is a superset
//! of the rows the boxes keep, and the exact predicates still run on every
//! seeded row. The point pass then walks set bits a mask word at a time, so
//! a narrow viewport costs about its own rows rather than N.
//!
//! [`PointStore`] pairs the table with an optional [`BinnedPointTable`] and
//! owns the per-tile candidate logic: given a tile's world box it returns the
//! (sorted, ascending) indices that might land in the tile, or `None` when a
//! full scan is no worse. Ascending order matters — f32 blending is not
//! associative, so feeding each pixel its points in the same relative order
//! as the unbinned scan is what keeps binned results bit-identical. The mask
//! walk visits rows in ascending order too.

use crate::budget::QueryBudget;
use crate::Result;
use urban_data::binned::BinnedPointTable;
use urban_data::filter::{spatial_window, Filter};
use urban_data::query::{AggKind, SpatialAggQuery};
use urban_data::time::TimeRange;
use urban_data::PointTable;
use urbane_geom::{BoundingBox, Point};

/// Rows per budget poll while building the filter bitmask (a multiple of 64
/// so chunk edges align with mask words).
const MASK_CHUNK: usize = 1 << 16;

/// One filter condition bound to its table columns — the per-row dispatch
/// and column lookup are hoisted out of the scan loop, which matters when
/// the mask build runs once per batch member.
enum Pred<'t> {
    /// Attribute in `[min, max]` (closed; NaN never matches).
    Range { vals: &'t [f32], min: f32, max: f32 },
    /// Attribute equals a categorical code.
    Equals { vals: &'t [f32], value: f32 },
    /// Timestamp within a half-open range.
    Time { ts: &'t [i64], range: TimeRange },
    /// Location within a closed box.
    Spatial { xs: &'t [f64], ys: &'t [f64], bbox: BoundingBox },
}

impl Pred<'_> {
    fn bind<'t>(f: &Filter, points: &'t PointTable) -> Result<Pred<'t>> {
        Ok(match f {
            Filter::AttrRange { column, min, max } => Pred::Range {
                vals: points.column(points.schema().index_of(column)?),
                min: *min,
                max: *max,
            },
            Filter::AttrEquals { column, value } => Pred::Equals {
                vals: points.column(points.schema().index_of(column)?),
                value: *value,
            },
            Filter::Time(r) => Pred::Time { ts: points.timestamps(), range: *r },
            Filter::SpatialBox(b) => {
                Pred::Spatial { xs: points.xs(), ys: points.ys(), bbox: *b }
            }
        })
    }

    /// Does row `i` satisfy this condition? Identical semantics to
    /// [`Filter`]'s row probe.
    #[inline]
    fn test(&self, i: usize) -> bool {
        match self {
            Pred::Range { vals, min, max } => {
                let v = vals[i];
                v >= *min && v <= *max
            }
            Pred::Equals { vals, value } => vals[i] == *value,
            Pred::Time { ts, range } => range.contains(ts[i]),
            Pred::Spatial { xs, ys, bbox } => bbox.contains(Point::new(xs[i], ys[i])),
        }
    }
}

/// Evaluate a filter conjunction into a bitmask. Unseeded, the first
/// condition fills the mask with a tight columnar scan; with a `seed` (a
/// superset of the surviving rows) every condition runs in the clearing
/// loop instead. Each clearing pass re-probes only the bits still set.
fn build_mask(
    preds: &[Pred<'_>],
    n: usize,
    seed: Option<Vec<u64>>,
    budget: &QueryBudget,
) -> Result<Vec<u64>> {
    let seeded = seed.is_some();
    let mut bits = seed.unwrap_or_else(|| vec![0u64; n.div_ceil(64)]);
    for (k, pred) in preds.iter().enumerate() {
        let mut start = 0usize;
        while start < n {
            budget.check()?;
            let end = (start + MASK_CHUNK).min(n);
            let w0 = start >> 6;
            if k == 0 && !seeded {
                // Fill whole words in a register — one store per 64 rows.
                for (off, slot) in bits[w0..end.div_ceil(64)].iter_mut().enumerate() {
                    let lo = (w0 + off) << 6;
                    let hi = (lo + 64).min(n);
                    let mut word = 0u64;
                    for i in lo..hi {
                        word |= u64::from(pred.test(i)) << (i & 63);
                    }
                    *slot = word;
                }
            } else {
                for (off, slot) in bits[w0..end.div_ceil(64)].iter_mut().enumerate() {
                    let base = (w0 + off) << 6;
                    let mut word = *slot;
                    let mut pending = word;
                    while pending != 0 {
                        let b = pending.trailing_zeros() as usize;
                        if !pred.test(base | b) {
                            word &= !(1u64 << b);
                        }
                        pending &= pending - 1;
                    }
                    *slot = word;
                }
            }
            start = end;
        }
    }
    Ok(bits)
}

/// A query compiled against one table: resolved aggregate column plus a
/// shared filter bitmask. Immutable after construction — share it freely
/// across tile workers.
pub(crate) struct CompiledQuery {
    /// The aggregate being computed.
    pub(crate) agg: AggKind,
    /// Resolved value column (None for COUNT).
    pub(crate) col: Option<usize>,
    /// One bit per row, set when the row survives every filter. `None` when
    /// the query has no filters (everything matches — skip the bit tests).
    mask: Option<Vec<u64>>,
}

impl CompiledQuery {
    /// Compile `query` against `store`'s table, evaluating the filter set
    /// once — over the viewport's bin cells only when the store has bins and
    /// the query a `SpatialBox` window (see the module docs). Polls `budget`
    /// while scanning so huge tables stay cancellable.
    pub(crate) fn new(
        store: &PointStore<'_>,
        query: &SpatialAggQuery,
        budget: &QueryBudget,
    ) -> Result<Self> {
        let points = store.table();
        let agg = query.agg_kind();
        let col = agg.resolve(points)?;
        let mask = if query.filters.is_empty() {
            None
        } else {
            let filters = query.filters.filters();
            let preds =
                filters.iter().map(|f| Pred::bind(f, points)).collect::<Result<Vec<_>>>()?;
            let seed = store.viewport_seed(filters, budget)?;
            Some(build_mask(&preds, points.len(), seed, budget)?)
        };
        Ok(CompiledQuery { agg, col, mask })
    }

    /// Does row `i` survive the filters? One bit test after compilation.
    #[inline]
    pub(crate) fn matches(&self, i: usize) -> bool {
        match &self.mask {
            None => true,
            Some(bits) => bits[i >> 6] & (1u64 << (i & 63)) != 0,
        }
    }

    /// Fill `out` with the surviving rows of `start..end` (ascending).
    pub(crate) fn select_range(&self, start: usize, end: usize, out: &mut Vec<u32>) {
        out.clear();
        match &self.mask {
            None => out.extend((start..end).map(|i| i as u32)),
            Some(bits) => {
                if start >= end {
                    return;
                }
                // Walk the set bits word by word: zero words (rows outside
                // the viewport or rejected by the filters) cost one load.
                let (first, last) = (start >> 6, (end - 1) >> 6);
                for (w, &full) in bits.iter().enumerate().take(last + 1).skip(first) {
                    let mut word = full;
                    if w == first {
                        word &= !0u64 << (start & 63);
                    }
                    if w == last && end & 63 != 0 {
                        word &= (1u64 << (end & 63)) - 1;
                    }
                    while word != 0 {
                        out.push(((w << 6) | word.trailing_zeros() as usize) as u32);
                        word &= word - 1;
                    }
                }
            }
        }
    }

    /// Fill `out` with the surviving rows of `candidates` (order preserved).
    pub(crate) fn select_from(&self, candidates: &[u32], out: &mut Vec<u32>) {
        out.clear();
        match &self.mask {
            None => out.extend_from_slice(candidates),
            Some(_) => {
                out.extend(candidates.iter().copied().filter(|&i| self.matches(i as usize)))
            }
        }
    }
}

/// A point table plus its (optional) spatial bins — what tile kernels scan.
///
/// Construct with [`PointStore::plain`] for the classic full-scan path or
/// [`PointStore::with_bins`] to enable per-tile candidate pruning. The store
/// is `Copy`-cheap (two references) and shared across tile workers.
#[derive(Debug, Clone, Copy)]
pub struct PointStore<'a> {
    table: &'a PointTable,
    bins: Option<&'a BinnedPointTable>,
}

impl<'a> PointStore<'a> {
    /// A store that always scans the full table.
    pub fn plain(table: &'a PointTable) -> Self {
        PointStore { table, bins: None }
    }

    /// A store with spatial bins for per-tile pruning.
    ///
    /// # Panics
    /// Panics when `bins` was built over a different number of rows than
    /// `table` holds — a stale index would silently produce wrong answers.
    pub fn with_bins(table: &'a PointTable, bins: &'a BinnedPointTable) -> Self {
        assert_eq!(
            bins.len(),
            table.len(),
            "binned index covers {} rows but the table has {}",
            bins.len(),
            table.len()
        );
        PointStore { table, bins: Some(bins) }
    }

    /// The underlying table.
    #[inline]
    pub fn table(&self) -> &'a PointTable {
        self.table
    }

    /// Whether spatial bins are attached.
    pub fn is_binned(&self) -> bool {
        self.bins.is_some()
    }

    /// The mask seed for a query's filters: one bit per row of every bin
    /// cell whose tight bounds meet the intersection of the `SpatialBox`
    /// terms, or `None` when there are no bins, no box, or the window covers
    /// the whole grid (a seed would prune nothing). Polls `budget` per chunk
    /// of marked rows.
    fn viewport_seed(&self, filters: &[Filter], budget: &QueryBudget) -> Result<Option<Vec<u64>>> {
        let (Some(bins), Some(window)) = (self.bins, spatial_window(filters)) else {
            return Ok(None);
        };
        if bins.covered_by(&window) {
            return Ok(None);
        }
        let mut bits = vec![0u64; self.table.len().div_ceil(64)];
        bins.mark_rows_meeting(&window, &mut bits, || budget.check())?;
        Ok(Some(bits))
    }

    /// The candidate rows for a tile covering `world`, sorted ascending, or
    /// `None` when the kernel should scan all rows (no bins, the tile covers
    /// the whole grid, or pruning found nothing to drop). Candidates are a
    /// conservative superset — out-of-tile rows are still culled by the
    /// half-open viewport projection, exactly as in the full scan.
    pub(crate) fn candidates(&self, world: &BoundingBox) -> Option<Vec<u32>> {
        let bins = self.bins?;
        if bins.is_empty() || bins.covered_by(world) {
            return None;
        }
        let mut out = Vec::new();
        bins.candidates_into(world, &mut out);
        if out.len() == self.table.len() {
            return None;
        }
        // Cell-major → global index order: the blend order per pixel must
        // match the unbinned scan bit-for-bit.
        out.sort_unstable();
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use urban_data::schema::{AttrType, Schema};

    fn table(n: usize) -> PointTable {
        let schema = Schema::new([("v", AttrType::Numeric)]).unwrap();
        let mut t = PointTable::new(schema);
        for i in 0..n {
            let x = (i.wrapping_mul(104_729) % 1_000) as f64 / 10.0;
            let y = (i.wrapping_mul(15_485_863) % 1_000) as f64 / 10.0;
            t.push(Point::new(x, y), i as i64, &[i as f32]).unwrap();
        }
        t
    }

    #[test]
    fn mask_agrees_with_direct_probing() {
        let t = table(500);
        let q = SpatialAggQuery::count().filter(Filter::Time(TimeRange::new(100, 400)));
        let cq = CompiledQuery::new(&PointStore::plain(&t), &q, &QueryBudget::unlimited()).unwrap();
        let direct = q.filters.compile(&t).unwrap();
        for i in 0..t.len() {
            assert_eq!(cq.matches(i), direct.matches(i), "row {i}");
        }
        let mut out = Vec::new();
        cq.select_range(0, t.len(), &mut out);
        assert_eq!(out.len(), 300);
    }

    #[test]
    fn filterless_query_selects_everything() {
        let t = table(100);
        let store = PointStore::plain(&t);
        let cq = CompiledQuery::new(&store, &SpatialAggQuery::count(), &QueryBudget::unlimited())
            .unwrap();
        assert!(cq.matches(0) && cq.matches(99));
        let mut out = Vec::new();
        cq.select_range(10, 20, &mut out);
        assert_eq!(out, (10u32..20).collect::<Vec<_>>());
        cq.select_from(&[5, 3, 8], &mut out);
        assert_eq!(out, vec![5, 3, 8]);
    }

    #[test]
    fn candidates_sorted_and_pruning() {
        let t = table(5_000);
        let bins = BinnedPointTable::build(&t);
        let store = PointStore::with_bins(&t, &bins);
        // Whole-table window → full-scan signal.
        assert!(store.candidates(&t.bbox()).is_none());
        // Quarter window → sorted strict subset.
        let q = BoundingBox::from_coords(0.0, 0.0, 40.0, 40.0);
        let cand = store.candidates(&q).expect("should prune");
        assert!(cand.len() < t.len());
        assert!(cand.windows(2).all(|w| w[0] < w[1]), "candidates must be ascending");
        // Plain store never yields candidates.
        assert!(PointStore::plain(&t).candidates(&q).is_none());
    }

    /// Points on a half-unit lattice over [0, 100)², so box edges and bin
    /// cell bounds pass exactly through data points.
    fn lattice_table(rng: &mut StdRng, n: usize) -> PointTable {
        let schema = Schema::new([("v", AttrType::Numeric)]).unwrap();
        let mut t = PointTable::new(schema);
        for i in 0..n {
            let x = rng.gen_range(0..200u32) as f64 * 0.5;
            let y = rng.gen_range(0..200u32) as f64 * 0.5;
            t.push(Point::new(x, y), i as i64, &[rng.gen_range(0.0..10.0f32)]).unwrap();
        }
        t
    }

    /// A lattice box, sometimes inverted (min > max: contains nothing).
    fn lattice_box(rng: &mut StdRng) -> BoundingBox {
        let mut c = || rng.gen_range(-10..210i32) as f64 * 0.5;
        let (x0, y0, x1, y1) = (c(), c(), c(), c());
        if x0 > x1 && y0 > y1 {
            BoundingBox { min: Point::new(x0, y0), max: Point::new(x1, y1) }
        } else {
            BoundingBox::from_coords(x0, y0, x1, y1)
        }
    }

    fn mask_of(store: &PointStore<'_>, q: &SpatialAggQuery) -> Option<Vec<u64>> {
        CompiledQuery::new(store, q, &QueryBudget::unlimited()).unwrap().mask
    }

    #[test]
    fn seeded_mask_equals_unseeded_word_for_word() {
        let mut rng = StdRng::seed_from_u64(0x5eed);
        let mut seeded_runs = 0;
        for round in 0..40 {
            let n = rng.gen_range(1..3_000usize);
            let t = lattice_table(&mut rng, n);
            let bins = match round % 3 {
                0 => BinnedPointTable::build(&t),
                1 => BinnedPointTable::with_grid(&t, 7, 3),
                _ => BinnedPointTable::with_grid(&t, 40, 40),
            };
            let plain = PointStore::plain(&t);
            let binned = PointStore::with_bins(&t, &bins);
            for _ in 0..10 {
                let mut q = SpatialAggQuery::count();
                for _ in 0..rng.gen_range(1..3usize) {
                    q = q.filter(Filter::SpatialBox(lattice_box(&mut rng)));
                }
                if rng.gen_bool(0.5) {
                    let a = rng.gen_range(0..t.len() as i64);
                    q = q.filter(Filter::Time(TimeRange::new(a, a + rng.gen_range(0..2_000i64))));
                }
                if rng.gen_bool(0.3) {
                    q = q.filter(Filter::AttrRange { column: "v".into(), min: 2.0, max: 7.5 });
                }
                let window = spatial_window(q.filters.filters()).unwrap();
                if !bins.covered_by(&window) {
                    seeded_runs += 1;
                }
                assert_eq!(mask_of(&binned, &q), mask_of(&plain, &q), "round {round}: {q:?}");
            }
        }
        assert!(seeded_runs > 200, "too few queries took the seeded path: {seeded_runs}");
    }

    #[test]
    fn seeding_prunes_and_empty_windows_match_nothing() {
        let mut rng = StdRng::seed_from_u64(11);
        let t = lattice_table(&mut rng, 5_000);
        let bins = BinnedPointTable::build(&t);
        let store = PointStore::with_bins(&t, &bins);
        let budget = QueryBudget::unlimited();
        let quarter = [Filter::SpatialBox(BoundingBox::from_coords(0.0, 0.0, 40.0, 40.0))];
        let seed = store.viewport_seed(&quarter, &budget).unwrap().expect("seeds");
        let seeded = seed.iter().map(|w| w.count_ones() as usize).sum::<usize>();
        assert!(seeded < t.len() / 2, "a quarter window seeded {seeded} of {} rows", t.len());
        // Covering window and no window: no seed, the plain scan runs.
        let whole = [Filter::SpatialBox(t.bbox().inflate(1.0))];
        assert!(store.viewport_seed(&whole, &budget).unwrap().is_none());
        assert!(store.viewport_seed(&[], &budget).unwrap().is_none());
        // Disjoint boxes intersect to nothing: an all-zero mask.
        let q = SpatialAggQuery::count()
            .filter(Filter::SpatialBox(BoundingBox::from_coords(0.0, 0.0, 10.0, 10.0)))
            .filter(Filter::SpatialBox(BoundingBox::from_coords(50.0, 50.0, 60.0, 60.0)));
        assert!(mask_of(&store, &q).unwrap().iter().all(|&w| w == 0));
    }

    #[test]
    fn seeding_polls_the_budget() {
        let t = table(5_000);
        let bins = BinnedPointTable::build(&t);
        let store = PointStore::with_bins(&t, &bins);
        let handle = crate::budget::CancelHandle::new();
        handle.cancel();
        let budget = QueryBudget::unlimited().cancellable(&handle);
        let vp = [Filter::SpatialBox(BoundingBox::from_coords(0.0, 0.0, 40.0, 40.0))];
        assert!(store.viewport_seed(&vp, &budget).is_err());
    }

    #[test]
    fn word_walk_select_range_equals_per_row_filter() {
        let mut rng = StdRng::seed_from_u64(7);
        let t = lattice_table(&mut rng, 1_000);
        let bins = BinnedPointTable::with_grid(&t, 8, 8);
        let q = SpatialAggQuery::count()
            .filter(Filter::SpatialBox(BoundingBox::from_coords(10.0, 20.0, 60.5, 70.0)))
            .filter(Filter::Time(TimeRange::new(100, 900)));
        let mut out = Vec::new();
        for store in [PointStore::plain(&t), PointStore::with_bins(&t, &bins)] {
            let cq = CompiledQuery::new(&store, &q, &QueryBudget::unlimited()).unwrap();
            let mut ranges = vec![(0, t.len()), (0, 0), (64, 128), (63, 65), (999, 1_000)];
            for _ in 0..200 {
                let a = rng.gen_range(0..t.len());
                ranges.push((a, rng.gen_range(a..=t.len())));
            }
            for (start, end) in ranges {
                cq.select_range(start, end, &mut out);
                let want: Vec<u32> =
                    (start..end).filter(|&i| cq.matches(i)).map(|i| i as u32).collect();
                assert_eq!(out, want, "range {start}..{end}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "binned index covers")]
    fn stale_bins_rejected() {
        let a = table(100);
        let b = table(200);
        let bins = BinnedPointTable::build(&a);
        let _ = PointStore::with_bins(&b, &bins);
    }
}
