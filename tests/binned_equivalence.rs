//! Binned == unbinned bit-identity across the whole executor matrix.
//!
//! Spatial binning is a pure pruning layer: the candidate lists a
//! [`BinnedPointTable`] hands a tile are a superset of the tile's points,
//! sorted ascending — so every kernel folds the same points in the same
//! order as the full 0..N scan, and the `AggTable`s must be *bit-identical*
//! (`==` on the raw f64 state, not approximately equal). The same holds for
//! the work-stealing scheduler: tile parts merge in tile order, so the
//! answer cannot depend on the thread count or on scheduling races.
//!
//! Viewport queries (`SpatialBox` filters) against a binned store seed the
//! filter mask from the bin cells that meet the viewport. The seeded mask
//! must equal the plain one bit for bit, so tables *and* pipeline counters
//! must match the plain scan on every plan, edge case and execution path.

use gpu_raster::RenderStats;
use raster_join::{
    BinningMode, CanvasSpec, ExecutionMode, PointStore, PointStrategy, QueryBudget, RasterJoin,
    RasterJoinConfig,
};
use urban_data::binned::BinnedPointTable;
use urban_data::filter::Filter;
use urban_data::gen::regions::voronoi_neighborhoods;
use urban_data::query::{AggKind, SpatialAggQuery};
use urban_data::time::TimeRange;
use urban_data::{PointTable, RegionSet};
use urbane_bench::workload::{demo_start, Workload};
use urbane_geom::{BoundingBox, Point};

/// A 512-px canvas tiled at 128 px: a multi-tile plan (≥ 4×4 in the square
/// dimension) so candidate pruning and work stealing both actually engage.
fn config(mode: ExecutionMode, strategy: PointStrategy, threads: usize) -> RasterJoinConfig {
    RasterJoinConfig {
        spec: CanvasSpec::Resolution(512),
        max_tile: 128,
        mode,
        strategy,
        threads,
        binning: BinningMode::Off, // stores are supplied explicitly below
        ..Default::default()
    }
}

fn demo_data() -> (PointTable, RegionSet) {
    let w = Workload::standard(8_000, 17);
    let regions = voronoi_neighborhoods(&w.city.bbox(), 48, 5, 2);
    (w.taxi, regions)
}

fn queries() -> Vec<SpatialAggQuery> {
    vec![
        SpatialAggQuery::count(),
        SpatialAggQuery::new(AggKind::Sum("fare".into()))
            .filter(Filter::Time(TimeRange::new(0, i64::MAX / 2))),
        SpatialAggQuery::new(AggKind::Min("tip".into()))
            .filter(Filter::AttrRange { column: "fare".into(), min: 2.0, max: 60.0 }),
    ]
}

/// Every (mode, strategy) × thread count × query: the binned store must
/// reproduce the serial unbinned table exactly.
#[test]
fn matrix_bit_identity() {
    let (points, regions) = demo_data();
    let bins = BinnedPointTable::build(&points);
    let plain = PointStore::plain(&points);
    let binned = PointStore::with_bins(&points, &bins);
    let budget = QueryBudget::unlimited();

    let combos = [
        (ExecutionMode::Bounded, PointStrategy::PointsFirst),
        (ExecutionMode::Weighted, PointStrategy::PointsFirst),
        (ExecutionMode::Accurate, PointStrategy::PointsFirst),
        (ExecutionMode::Bounded, PointStrategy::IdBuffer),
    ];
    for q in queries() {
        for (mode, strategy) in combos {
            let baseline = RasterJoin::new(config(mode, strategy, 1))
                .execute_store(plain, &regions, &q, &budget)
                .expect("serial unbinned");
            assert!(baseline.tiles >= 4, "plan must be multi-tile, got {}", baseline.tiles);
            for threads in [1usize, 2, 4, 7] {
                let join = RasterJoin::new(config(mode, strategy, threads));
                let unbinned = join
                    .execute_store(plain, &regions, &q, &budget)
                    .expect("threaded unbinned");
                let with_bins = join
                    .execute_store(binned, &regions, &q, &budget)
                    .expect("threaded binned");
                assert_eq!(
                    baseline.table, unbinned.table,
                    "{mode:?}/{strategy:?} threads={threads}: thread count changed the answer"
                );
                assert_eq!(
                    baseline.table, with_bins.table,
                    "{mode:?}/{strategy:?} threads={threads}: binning changed the answer"
                );
            }
        }
    }
}

/// Explicit-grid binning (all the way to degenerate 1×1) is equally
/// invisible, via the config knob rather than a hand-built store.
#[test]
fn grid_knob_bit_identity() {
    let (points, regions) = demo_data();
    let q = SpatialAggQuery::new(AggKind::Avg("fare".into()));
    let base = RasterJoin::new(config(ExecutionMode::Bounded, PointStrategy::PointsFirst, 1))
        .execute(&points, &regions, &q)
        .expect("unbinned");
    for side in [1u32, 3, 16, 64] {
        let join = RasterJoin::new(RasterJoinConfig {
            binning: BinningMode::Grid(side),
            ..config(ExecutionMode::Bounded, PointStrategy::PointsFirst, 4)
        });
        let got = join.execute(&points, &regions, &q).expect("binned");
        assert_eq!(base.table, got.table, "grid side {side} changed the answer");
    }
}

/// Auto mode bins exactly when it can pay off — and never changes answers
/// on either side of the threshold.
#[test]
fn auto_mode_bit_identity_across_threshold() {
    let (points, regions) = demo_data();
    let q = SpatialAggQuery::count();
    for n in [raster_join::MIN_AUTO_BIN_POINTS - 1, raster_join::MIN_AUTO_BIN_POINTS + 1] {
        let pts = points.prefix(n);
        let off = RasterJoin::new(config(ExecutionMode::Bounded, PointStrategy::PointsFirst, 2))
            .execute(&pts, &regions, &q)
            .expect("off");
        let auto = RasterJoin::new(RasterJoinConfig {
            binning: BinningMode::Auto,
            ..config(ExecutionMode::Bounded, PointStrategy::PointsFirst, 2)
        })
        .execute(&pts, &regions, &q)
        .expect("auto");
        assert_eq!(off.table, auto.table, "auto binning changed the answer at n={n}");
    }
}

/// A zero grid side is a configuration error, not a panic.
#[test]
fn zero_grid_side_rejected() {
    let (points, regions) = demo_data();
    let join = RasterJoin::new(RasterJoinConfig {
        binning: BinningMode::Grid(0),
        ..config(ExecutionMode::Bounded, PointStrategy::PointsFirst, 1)
    });
    let err = join.execute(&points, &regions, &SpatialAggQuery::count()).unwrap_err();
    assert!(
        matches!(err, raster_join::RasterJoinError::Config(_)),
        "expected Config error, got {err:?}"
    );
}

/// The prepared executor accepts a binned store too and replays the
/// one-shot answer bit-for-bit.
#[test]
fn prepared_store_bit_identity() {
    use raster_join::PreparedRasterJoin;
    let (points, regions) = demo_data();
    let bins = BinnedPointTable::build(&points);
    let budget = QueryBudget::unlimited();
    let q = SpatialAggQuery::new(AggKind::Sum("fare".into()));
    for mode in [ExecutionMode::Bounded, ExecutionMode::Accurate] {
        let prepared =
            PreparedRasterJoin::prepare(&regions, CanvasSpec::Resolution(512), 128, mode)
                .expect("prepare");
        let base = prepared.execute(&points, &q).expect("plain prepared");
        let got = prepared
            .execute_store(PointStore::with_bins(&points, &bins), &q, &budget)
            .expect("binned prepared");
        assert_eq!(base.table, got.table, "{mode:?}: prepared binned diverged");
    }
}

/// Viewport queries covering the seeded path's edge cases: box edges exactly
/// through data points and bin cell bounds, intersecting and disjoint box
/// pairs, an inverted box, a box outside the data, and a box covering the
/// whole grid — alone, under a time window, and with MIN/AVG aggregates.
fn viewport_queries(points: &PointTable, bins: &BinnedPointTable) -> Vec<SpatialAggQuery> {
    let data = points.bbox();
    let (gx, gy) = bins.grid_dims();
    let cell_x = |k: u32| data.min.x + data.width() * f64::from(k) / f64::from(gx);
    let cell_y = |k: u32| data.min.y + data.height() * f64::from(k) / f64::from(gy);
    let (a, b) = (points.loc(11), points.loc(4_321));
    let through_points = BoundingBox::new(a, b);
    let through_cells =
        BoundingBox::from_coords(cell_x(1), cell_y(1), cell_x(gx / 2 + 1), cell_y(gy - 1));
    let quarter = BoundingBox::new(data.min, data.center());
    let overlapping = BoundingBox::new(data.center(), Point::new(cell_x(gx / 4), cell_y(gy / 4)));
    let far_corner = BoundingBox::new(data.center(), data.max);
    let inverted = BoundingBox { min: data.center(), max: data.min };
    let outside = BoundingBox::from_coords(
        data.max.x + 1.0,
        data.max.y + 1.0,
        data.max.x + 500.0,
        data.max.y + 500.0,
    );
    let whole = data.inflate(1.0);
    let week = Filter::Time(TimeRange::new(demo_start(), demo_start() + 7 * 86_400));
    let sum = || SpatialAggQuery::new(AggKind::Sum("fare".into()));
    let boxed = |q: SpatialAggQuery, b: BoundingBox| q.filter(Filter::SpatialBox(b));
    vec![
        boxed(sum(), through_points),
        boxed(sum(), through_points).filter(week.clone()),
        boxed(sum(), through_cells),
        boxed(SpatialAggQuery::new(AggKind::Min("tip".into())), through_cells).filter(week.clone()),
        boxed(boxed(SpatialAggQuery::new(AggKind::Avg("fare".into())), quarter), overlapping),
        boxed(boxed(sum(), quarter), far_corner).filter(week.clone()),
        boxed(sum(), BoundingBox::new(data.min, data.min)),
        boxed(SpatialAggQuery::count(), inverted),
        boxed(sum(), outside).filter(week.clone()),
        boxed(sum(), whole).filter(week),
    ]
}

/// Single-tile and multi-tile plans over the same 512-px canvas.
fn plans() -> [(&'static str, u32); 2] {
    [("single-tile", 512), ("multi-tile", 128)]
}

/// The points that pass the filters and land in a tile are the same on
/// both sides on every plan. With one tile both sides also scan every row,
/// so every counter matches; a multi-tile binned pass additionally drops
/// rows outside each tile's candidate cells, which lowers `points_in` and
/// `points_culled` by the same amount.
fn assert_same_stats(label: &str, tiles: usize, p: RenderStats, b: RenderStats) {
    assert_eq!(p.fragments, b.fragments, "{label}: fragments");
    assert_eq!(p.points_in - p.points_culled, b.points_in - b.points_culled, "{label}: landed");
    if tiles == 1 {
        assert_eq!(p, b, "{label}: render stats");
    }
}

/// Every (mode, strategy) × thread count × plan × viewport query × bin
/// grid: tables equal the serial plain scan, and the pipeline counters
/// equal the plain scan's.
#[test]
fn viewport_matrix_bit_identity() {
    let (points, regions) = demo_data();
    let budget = QueryBudget::unlimited();
    let plain = PointStore::plain(&points);
    let combos = [
        (ExecutionMode::Bounded, PointStrategy::PointsFirst),
        (ExecutionMode::Weighted, PointStrategy::PointsFirst),
        (ExecutionMode::Accurate, PointStrategy::PointsFirst),
        (ExecutionMode::Bounded, PointStrategy::IdBuffer),
    ];
    for bins in [BinnedPointTable::build(&points), BinnedPointTable::with_grid(&points, 16, 16)] {
        let binned = PointStore::with_bins(&points, &bins);
        for (plan, max_tile) in plans() {
            for (qi, q) in viewport_queries(&points, &bins).iter().enumerate() {
                for (mode, strategy) in combos {
                    let cfg =
                        |threads| RasterJoinConfig { max_tile, ..config(mode, strategy, threads) };
                    let baseline = RasterJoin::new(cfg(1))
                        .execute_store(plain, &regions, q, &budget)
                        .expect("serial plain");
                    for threads in [1usize, 2, 4] {
                        let label =
                            format!("{plan} query {qi} {mode:?}/{strategy:?} threads={threads}");
                        let got = RasterJoin::new(cfg(threads))
                            .execute_store(binned, &regions, q, &budget)
                            .expect("binned");
                        assert_eq!(baseline.table, got.table, "{label}: table");
                        assert_same_stats(&label, baseline.tiles, baseline.stats, got.stats);
                    }
                }
            }
        }
    }
}

/// Batched and prepared execution compile their members through the same
/// path: a binned store answers a batch of viewport queries, and replays
/// them prepared, exactly as the plain store does.
#[test]
fn viewport_batch_and_prepared_bit_identity() {
    use raster_join::PreparedRasterJoin;
    let (points, regions) = demo_data();
    let bins = BinnedPointTable::with_grid(&points, 16, 16);
    let plain = PointStore::plain(&points);
    let binned = PointStore::with_bins(&points, &bins);
    let budget = QueryBudget::unlimited();
    let queries = viewport_queries(&points, &bins);
    for (plan, max_tile) in plans() {
        for mode in [ExecutionMode::Bounded, ExecutionMode::Weighted, ExecutionMode::Accurate] {
            let join = RasterJoin::new(RasterJoinConfig {
                max_tile,
                ..config(mode, PointStrategy::PointsFirst, 2)
            });
            let a = join.execute_batch_store(plain, &regions, &queries, &budget).expect("plain");
            let b = join.execute_batch_store(binned, &regions, &queries, &budget).expect("binned");
            assert_eq!(a.tables, b.tables, "{plan} {mode:?}: batch tables");
            assert_same_stats(&format!("{plan} {mode:?} batch"), a.tiles, a.stats, b.stats);

            if mode == ExecutionMode::Weighted {
                continue; // prepared execution is bounded/accurate only
            }
            let prepared =
                PreparedRasterJoin::prepare(&regions, CanvasSpec::Resolution(512), max_tile, mode)
                    .expect("prepare");
            for (qi, q) in queries.iter().enumerate() {
                let a = prepared.execute_store(plain, q, &budget).expect("plain prepared");
                let b = prepared.execute_store(binned, q, &budget).expect("binned prepared");
                assert_eq!(a.table, b.table, "{plan} {mode:?} query {qi}: prepared table");
                let label = format!("{plan} {mode:?} query {qi} prepared");
                assert_same_stats(&label, a.tiles, a.stats, b.stats);
            }
        }
    }
}
