//! Property-based equivalence for the additive block cache: for random
//! workloads, viewports, aggregates, execution modes, binning settings,
//! thread counts, and cache warmth states, an answer composed from cached
//! per-block partial aggregates (plus a residual pass) must be
//! *bit-identical* to direct evaluation on the count channel in every mode
//! and on the value channel in accurate mode, and always within the
//! *reported* certified bound on values. The block cache must never trade
//! correctness for latency.

use proptest::prelude::*;
use raster_join::{BinningMode, CanvasSpec, ExecutionMode, RasterJoinConfig};
use urbane::catalog::DataCatalog;
use urbane::service::{QueryRequest, ServiceConfig, UrbaneService};
use urbane::ResolutionPyramid;
use urban_data::filter::Filter;
use urban_data::gen::regions::{grid_regions, voronoi_neighborhoods};
use urban_data::query::AggKind;
use urban_data::schema::{AttrType, Schema};
use urban_data::time::TimeRange;
use urban_data::PointTable;
use urbane_geom::{BoundingBox, Point};

const EXTENT: f64 = 100.0;

fn extent() -> BoundingBox {
    BoundingBox::from_coords(0.0, 0.0, EXTENT, EXTENT)
}

/// How warm the block store is before the scenario's target query runs.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Warmth {
    /// Nothing cached: the answer is composed purely from residual blocks.
    Cold,
    /// A viewport-free query seeded every block: full-hit composition.
    Warm,
    /// A half-extent viewport seeded some blocks: mixed composition.
    PartialWarm,
}

#[derive(Debug, Clone)]
struct Scenario {
    points: Vec<(f64, f64, i64, f32)>,
    layout: u8,
    n_regions: usize,
    seed: u64,
    agg: u8,
    mode: u8,
    binning: bool,
    threads: usize,
    warmth: u8,
    /// Target viewport as extent fractions (x0, y0, w, h).
    viewport: (f64, f64, f64, f64),
    time_filter: Option<(i64, i64)>,
}

fn scenario_strategy() -> impl Strategy<Value = Scenario> {
    (
        (
            proptest::collection::vec(
                (0.0..EXTENT, 0.0..EXTENT, 0i64..1_000, 0.0f32..100.0),
                50..300,
            ),
            0u8..2,
            6usize..24,
            0u64..1_000,
        ),
        (0u8..5, 0u8..3, 0u8..2, 0u8..2, 0u8..3),
        (
            (0.0..0.5, 0.0..0.5, 0.3..0.5, 0.3..0.5),
            proptest::option::of((0i64..500, 500i64..1_000)),
        ),
    )
        .prop_map(
            |(
                (points, layout, n_regions, seed),
                (agg, mode, binning, threads, warmth),
                (viewport, time_filter),
            )| Scenario {
                points,
                layout,
                n_regions,
                seed,
                agg,
                mode,
                binning: binning == 1,
                threads: if threads == 0 { 1 } else { 4 },
                warmth,
                viewport,
                time_filter,
            },
        )
}

fn service(s: &Scenario, block_cache_bytes: usize) -> UrbaneService {
    let schema = Schema::new([("v", AttrType::Numeric)]).unwrap();
    let mut table = PointTable::new(schema);
    for &(x, y, t, v) in &s.points {
        table.push(Point::new(x, y), t, &[v]).unwrap();
    }
    let regions = match s.layout {
        0 => voronoi_neighborhoods(&extent(), s.n_regions, s.seed, 1),
        _ => {
            let n = (s.n_regions as f64).sqrt().ceil().max(1.0) as u32;
            grid_regions(&extent(), n, n)
        }
    };
    let mut catalog = DataCatalog::new();
    catalog.register("d", table);
    UrbaneService::new(
        ServiceConfig {
            join: RasterJoinConfig {
                spec: CanvasSpec::Resolution(128),
                threads: s.threads,
                binning: if s.binning { BinningMode::Auto } else { BinningMode::Off },
                ..RasterJoinConfig::default()
            },
            cache_capacity: 64,
            block_cache_bytes,
            ..Default::default()
        },
        catalog,
        ResolutionPyramid::new(vec![regions]),
    )
    .unwrap()
}

fn request(s: &Scenario) -> QueryRequest {
    let agg = match s.agg {
        0 => AggKind::Count,
        1 => AggKind::Sum("v".into()),
        2 => AggKind::Avg("v".into()),
        3 => AggKind::Min("v".into()),
        _ => AggKind::Max("v".into()),
    };
    let mode = match s.mode {
        0 => ExecutionMode::Bounded,
        1 => ExecutionMode::Weighted,
        _ => ExecutionMode::Accurate,
    };
    let (fx, fy, fw, fh) = s.viewport;
    let viewport = BoundingBox::from_coords(
        fx * EXTENT,
        fy * EXTENT,
        (fx + fw) * EXTENT,
        (fy + fh) * EXTENT,
    );
    let mut req = QueryRequest::count("d", 0)
        .agg(agg)
        .mode(mode)
        .filter(Filter::SpatialBox(viewport));
    if let Some((a, b)) = s.time_filter {
        req = req.filter(Filter::Time(TimeRange::new(a, b)));
    }
    req
}

/// The warm-up queries that put the block store into the scenario's
/// warmth state. Distinct exact keys from the target by construction.
fn warm_up(svc: &UrbaneService, s: &Scenario, req: &QueryRequest) {
    let warmth = match s.warmth {
        0 => Warmth::Cold,
        1 => Warmth::Warm,
        _ => Warmth::PartialWarm,
    };
    match warmth {
        Warmth::Cold => {}
        Warmth::Warm => {
            // Viewport-free twin seeds every block of this conjunction.
            let mut twin = QueryRequest::count("d", 0).agg(req.agg.clone()).mode(req.mode);
            if let Some((a, b)) = s.time_filter {
                twin = twin.filter(Filter::Time(TimeRange::new(a, b)));
            }
            svc.query(&twin).expect("warm-up query");
        }
        Warmth::PartialWarm => {
            // Left-half viewport seeds some blocks; the rest stay cold.
            let half =
                BoundingBox::from_coords(0.0, 0.0, 0.5 * EXTENT, EXTENT);
            let mut twin = QueryRequest::count("d", 0)
                .agg(req.agg.clone())
                .mode(req.mode)
                .filter(Filter::SpatialBox(half));
            if let Some((a, b)) = s.time_filter {
                twin = twin.filter(Filter::Time(TimeRange::new(a, b)));
            }
            svc.query(&twin).expect("warm-up query");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Composed-from-blocks answers equal direct evaluation: counts are
    /// bit-identical in every mode, values are bit-identical in accurate
    /// mode, and every value sits within the reported certified bound.
    #[test]
    fn composed_answers_match_direct_evaluation(s in scenario_strategy()) {
        let with_blocks = service(&s, 4 << 20);
        let direct = service(&s, 0);
        let req = request(&s);
        warm_up(&with_blocks, &s, &req);

        let a = with_blocks.query(&req).expect("block-cache query");
        let b = direct.query(&req).expect("direct query");

        // The count channel is exact in every mode: subset raster passes
        // see the same canvas plan as the whole pass, so block composition
        // cannot move a single point across a region boundary.
        for (r, (sa, sb)) in a.table.states.iter().zip(&b.table.states).enumerate() {
            prop_assert_eq!(
                sa.count, sb.count,
                "region {} count diverged under {:?}/warmth {}", r, req.mode, s.warmth
            );
        }
        if req.mode == ExecutionMode::Accurate {
            prop_assert_eq!(
                &a.table.states, &b.table.states,
                "accurate-mode composition must be bit-identical"
            );
        }
        // The composed certified bound must cover the observed deviation.
        // Blocks and band share the direct run's canvas plan, so it is
        // exactly the direct run's bound.
        let bound = a.report.error_bound.unwrap_or(0.0);
        let tol = bound.max(1e-9);
        for (x, y) in a.table.values().iter().zip(b.table.values()) {
            match (x, y) {
                (None, None) => {}
                (Some(x), Some(y)) => prop_assert!(
                    (x - y).abs() <= tol,
                    "value {} vs {} beyond certified bound {}", x, y, bound
                ),
                (x, y) => prop_assert!(false, "emptiness diverged: {:?} vs {:?}", x, y),
            }
        }
        if let (Some(ca), Some(cb)) = (a.report.error_bound, b.report.error_bound) {
            prop_assert!(ca == cb, "composed bound {} must equal direct bound {}", ca, cb);
        }
    }

    /// A fully warm block store answers a never-seen exact key without any
    /// executor work, and the replayed bound is still certified.
    #[test]
    fn warm_store_serves_distinct_keys_from_blocks(s in scenario_strategy()) {
        prop_assume!(s.warmth == 1);
        let svc = service(&s, 4 << 20);
        let req = request(&s);
        warm_up(&svc, &s, &req);

        // A viewport covering everything shares every block with the
        // viewport-free warm-up query but has a distinct exact key.
        let wide = extent().inflate(EXTENT);
        let mut covered = QueryRequest::count("d", 0).agg(req.agg.clone()).mode(req.mode)
            .filter(Filter::SpatialBox(wide));
        if let Some((a, b)) = s.time_filter {
            covered = covered.filter(Filter::Time(TimeRange::new(a, b)));
        }
        let from_blocks = svc.query(&covered).expect("composed query");
        let direct = service(&s, 0).query(&covered).expect("direct query");
        prop_assert!(from_blocks.cached, "full coverage must serve from blocks");
        prop_assert_eq!(&from_blocks.table.states, &direct.table.states);
        prop_assert!(from_blocks.report.error_bound.is_some());
    }
}
