//! Binning / work-stealing performance suite — the `--exp bench` mode of the
//! `repro` binary and the generator of `BENCH_rasterjoin.json`.
//!
//! The suite times the bounded multi-tile point pass with spatial binning
//! off (every tile scans the full table — the pre-binning executor's cost
//! model) against a prebuilt [`BinnedPointTable`] driven through
//! [`RasterJoin::execute_store`], plus single-tile and accurate-mode
//! controls. Bin construction is timed separately because a session builds
//! bins once and amortizes them over every subsequent frame. A single-tile
//! viewport leg (bounded SUM under a time window and a `SpatialBox`, the
//! shape of one pan step) times the bin-seeded filter mask against the
//! plain scan.
//!
//! Every timed pair is first checked for bit-identical `AggTable`s, so a
//! silently-wrong fast path can never produce a flattering number.

use crate::{median_ms, time_ms, Table};
use crate::workload::{demo_start, Workload};
use raster_join::{
    BinningMode, CanvasSpec, PointStore, QueryBudget, RasterJoin, RasterJoinConfig,
};
use spatial_index::PackedRegionIndex;
use urban_data::binned::BinnedPointTable;
use urban_data::filter::Filter;
use urban_data::gen::regions::voronoi_neighborhoods;
use urban_data::query::{AggKind, SpatialAggQuery};
use urban_data::time::TimeRange;
use urbane_geom::BoundingBox;
use urbane_store::{ChunkedPointSource, StoreBuilder};

/// Knobs for the perf suite (all settable from the `repro` CLI).
#[derive(Debug, Clone)]
pub struct PerfConfig {
    /// Taxi rows for the workload (the headline run uses 1,000,000).
    pub points: usize,
    /// Worker threads for the multi-tile experiments.
    pub threads: usize,
    /// Repetitions per measurement; the median is reported.
    pub reps: usize,
    /// Canvas resolution of the multi-tile experiments.
    pub resolution: u32,
    /// Tile size limit — `resolution / max_tile` per axis gives the grid.
    pub max_tile: u32,
}

impl Default for PerfConfig {
    fn default() -> Self {
        PerfConfig { points: 1_000_000, threads: 4, reps: 5, resolution: 1024, max_tile: 256 }
    }
}

/// One measured experiment row.
#[derive(Debug, Clone)]
pub struct PerfRow {
    /// Experiment name (stable across runs — consumers key on it).
    pub name: String,
    /// Median wall-clock latency.
    pub median_ms: f64,
    /// Input points divided by the median latency.
    pub points_per_sec: f64,
    /// Worker threads used.
    pub threads: usize,
    /// Tiles in the canvas plan.
    pub tiles: usize,
    /// Whether the run used a binned point store.
    pub binned: bool,
}

/// One point of the raster-vs-index race: both joins answering the same
/// query over the same points, at one region-set size.
#[derive(Debug, Clone)]
pub struct IndexJoinPoint {
    /// Regions in the set (the race's x axis).
    pub regions: usize,
    /// Median latency of the bounded raster join (ε-approximate).
    pub raster_ms: f64,
    /// Median latency of the exact stored index join (ε = 0).
    pub index_ms: f64,
    /// Chunks the stored join actually read.
    pub chunks_scanned: u64,
    /// Chunks skipped by directory footers without a read.
    pub chunks_pruned: u64,
}

/// The full suite result: rows plus the derived headline numbers.
#[derive(Debug, Clone)]
pub struct PerfReport {
    /// Config the suite ran with.
    pub config: PerfConfig,
    /// Milliseconds to build the bins (paid once per dataset, not per frame).
    pub bin_build_ms: f64,
    /// Grid dimensions the auto-binner chose.
    pub grid: (u32, u32),
    /// All measured rows.
    pub rows: Vec<PerfRow>,
    /// Unbinned / binned latency ratio for the headline bounded multi-tile
    /// experiment (>1 means binning won).
    pub speedup_bounded_multitile: f64,
    /// Raster-vs-index race across region-set sizes (exact stored index
    /// join from `urbane-store` vs the bounded raster path).
    pub index_join: Vec<IndexJoinPoint>,
    /// First region count at which the faster join differs from the one at
    /// the previous count (`None` when one join won the whole sweep).
    pub index_crossover_regions: Option<usize>,
}

impl PerfReport {
    /// Hand-rolled JSON (the workspace deliberately has no serde): one
    /// object with per-experiment rows, written to `BENCH_rasterjoin.json`
    /// by `scripts/bench.sh`.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str("  \"bench\": \"rasterjoin\",\n");
        s.push_str(&format!(
            "  \"command\": \"cargo run --release -p urbane-bench --bin repro -- --exp bench \
             --scale {} --threads {} --reps {} --json BENCH_rasterjoin.json\",\n",
            self.config.points, self.config.threads, self.config.reps
        ));
        s.push_str(&format!("  \"points\": {},\n", self.config.points));
        s.push_str(&format!("  \"threads\": {},\n", self.config.threads));
        s.push_str(&format!("  \"reps\": {},\n", self.config.reps));
        s.push_str(&format!("  \"resolution\": {},\n", self.config.resolution));
        s.push_str(&format!("  \"max_tile\": {},\n", self.config.max_tile));
        s.push_str(&format!("  \"bin_grid\": [{}, {}],\n", self.grid.0, self.grid.1));
        s.push_str(&format!("  \"bin_build_ms\": {:.3},\n", self.bin_build_ms));
        s.push_str(&format!(
            "  \"speedup_bounded_multitile\": {:.3},\n",
            self.speedup_bounded_multitile
        ));
        s.push_str("  \"experiments\": [\n");
        for (i, r) in self.rows.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"name\": \"{}\", \"median_ms\": {:.3}, \"points_per_sec\": {:.0}, \
                 \"threads\": {}, \"tiles\": {}, \"binned\": {}}}{}\n",
                r.name,
                r.median_ms,
                r.points_per_sec,
                r.threads,
                r.tiles,
                r.binned,
                if i + 1 < self.rows.len() { "," } else { "" }
            ));
        }
        s.push_str("  ],\n");
        s.push_str("  \"index_join\": [\n");
        for (i, p) in self.index_join.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"regions\": {}, \"raster_ms\": {:.3}, \"index_ms\": {:.3}, \
                 \"chunks_scanned\": {}, \"chunks_pruned\": {}}}{}\n",
                p.regions,
                p.raster_ms,
                p.index_ms,
                p.chunks_scanned,
                p.chunks_pruned,
                if i + 1 < self.index_join.len() { "," } else { "" }
            ));
        }
        s.push_str("  ],\n");
        match self.index_crossover_regions {
            Some(n) => s.push_str(&format!("  \"index_crossover_regions\": {n},\n")),
            None => s.push_str("  \"index_crossover_regions\": null,\n"),
        }
        s.push_str(&format!(
            "  \"index_crossover_note\": \"{}\"\n",
            crossover_note(&self.index_join, self.index_crossover_regions)
        ));
        s.push_str("}\n");
        s
    }

    /// Human-readable table for the repro binary's stdout.
    pub fn render(&self) -> String {
        let mut t = Table::new(["experiment", "median ms", "Mpts/s", "threads", "tiles", "binned"]);
        for r in &self.rows {
            t.row([
                r.name.clone(),
                format!("{:.1}", r.median_ms),
                format!("{:.1}", r.points_per_sec / 1e6),
                format!("{}", r.threads),
                format!("{}", r.tiles),
                format!("{}", r.binned),
            ]);
        }
        format!(
            "BENCH  Binning + work-stealing ({} points, median of {}; bins: {}x{} built in \
             {:.1} ms)\n\n{}\nbounded multi-tile speedup (unbinned / binned): {:.2}x\n\n{}",
            self.config.points,
            self.config.reps,
            self.grid.0,
            self.grid.1,
            self.bin_build_ms,
            t.render(),
            self.speedup_bounded_multitile,
            render_race(&self.index_join, self.index_crossover_regions)
        )
    }
}

fn config(cfg: &PerfConfig, binning: BinningMode, mode: raster_join::ExecutionMode) -> RasterJoinConfig {
    RasterJoinConfig {
        spec: CanvasSpec::Resolution(cfg.resolution),
        max_tile: cfg.max_tile,
        mode,
        threads: cfg.threads,
        binning,
        ..Default::default()
    }
}

/// Run the suite. Deterministic (seeded workload, fixed region set); only
/// the wall-clock numbers vary run to run.
pub fn run(cfg: &PerfConfig) -> PerfReport {
    use raster_join::ExecutionMode::{Accurate, Bounded};
    let w = Workload::standard(cfg.points, 42);
    let regions = w.neighborhoods();
    let q = SpatialAggQuery::new(AggKind::Sum("fare".into()));
    let budget = QueryBudget::unlimited();

    // Bins built once, like a session would; timed separately.
    let (bins, bin_build_ms) = time_ms(|| BinnedPointTable::build(&w.taxi));
    let binned_store = PointStore::with_bins(&w.taxi, &bins);
    let plain_store = PointStore::plain(&w.taxi);

    let mut rows = Vec::new();
    let mut run_pair = |name: &str, join_cfg: RasterJoinConfig, q: &SpatialAggQuery| {
        let threads = join_cfg.threads;
        let off = RasterJoin::new(join_cfg);
        // Correctness gate: the binned table must be bit-identical to the
        // unbinned one before either side is worth timing.
        let base = off.execute_store(plain_store, &regions, q, &budget).expect("unbinned run");
        let fast = off.execute_store(binned_store, &regions, q, &budget).expect("binned run");
        assert_eq!(base.table, fast.table, "{name}: binned result diverged");
        if base.tiles == 1 {
            // One tile scans every row on both sides: only the filter mask
            // differs, so even the pipeline counters must agree.
            assert_eq!(base.stats, fast.stats, "{name}: binned stats diverged");
        }
        let tiles = base.tiles;
        let unbinned_ms = median_ms(cfg.reps, || {
            off.execute_store(plain_store, &regions, q, &budget).expect("unbinned run");
        });
        let binned_ms = median_ms(cfg.reps, || {
            off.execute_store(binned_store, &regions, q, &budget).expect("binned run");
        });
        for (suffix, ms, binned) in
            [("unbinned", unbinned_ms, false), ("binned", binned_ms, true)]
        {
            rows.push(PerfRow {
                name: format!("{name}_{suffix}"),
                median_ms: ms,
                points_per_sec: cfg.points as f64 / (ms / 1e3),
                threads,
                tiles,
                binned,
            });
        }
        (unbinned_ms, binned_ms)
    };

    let multi = |mode, threads| RasterJoinConfig { threads, ..config(cfg, BinningMode::Off, mode) };
    let (head_unbinned, head_binned) =
        run_pair("bounded_multitile", multi(Bounded, cfg.threads), &q);
    run_pair("bounded_multitile_serial", multi(Bounded, 1), &q);
    run_pair("accurate_multitile", multi(Accurate, cfg.threads), &q);

    // Viewport leg: one pan step on a single-tile canvas. The tile covers
    // the whole grid, so per-tile candidates prune nothing; the binned side
    // wins only through the viewport-seeded filter mask.
    let single = RasterJoinConfig {
        max_tile: cfg.resolution.max(cfg.max_tile),
        threads: 1,
        ..config(cfg, BinningMode::Off, Bounded)
    };
    run_pair("bounded_viewport", single.clone(), &viewport_query(&w));

    // Single-tile control: candidates() returns None (viewport covers the
    // bins' bbox), so binned and unbinned must cost the same.
    {
        let single = RasterJoin::new(single);
        let base = single.execute_store(plain_store, &regions, &q, &budget).expect("single run");
        let fast =
            single.execute_store(binned_store, &regions, &q, &budget).expect("single binned");
        assert_eq!(base.table, fast.table, "single-tile: binned result diverged");
        let ms = median_ms(cfg.reps, || {
            single.execute_store(binned_store, &regions, &q, &budget).expect("single binned");
        });
        rows.push(PerfRow {
            name: "bounded_singletile_binned".into(),
            median_ms: ms,
            points_per_sec: cfg.points as f64 / (ms / 1e3),
            threads: 1,
            tiles: base.tiles,
            binned: true,
        });
    }

    let (index_join, index_crossover_regions) = race(cfg, &w, &q);

    PerfReport {
        config: cfg.clone(),
        bin_build_ms,
        grid: bins.grid_dims(),
        rows,
        speedup_bounded_multitile: head_unbinned / head_binned,
        index_join,
        index_crossover_regions,
    }
}

/// One pan step: SUM(fare) over the first week inside a viewport an eighth
/// of the city's width and height, centred on the city.
fn viewport_query(w: &Workload) -> SpatialAggQuery {
    let city = w.city.bbox();
    let c = city.center();
    let (hw, hh) = (city.width() / 16.0, city.height() / 16.0);
    let start = demo_start();
    let viewport = BoundingBox::from_coords(c.x - hw, c.y - hh, c.x + hw, c.y + hh);
    SpatialAggQuery::new(AggKind::Sum("fare".into()))
        .filter(Filter::Time(TimeRange::new(start, start + 7 * 86_400)))
        .filter(Filter::SpatialBox(viewport))
}

/// Raster-vs-index race: serialize the workload into an in-memory `.ubs`
/// store once, then at each region-set size time the bounded raster path
/// (ε-approximate) against the exact stored index join (ε = 0). Before
/// either side is timed the streamed join must agree bit-for-bit with the
/// in-memory index join — a silently-wrong stream never races.
fn race(
    cfg: &PerfConfig,
    w: &Workload,
    q: &SpatialAggQuery,
) -> (Vec<IndexJoinPoint>, Option<usize>) {
    use raster_join::ExecutionMode::Bounded;
    let plain_store = PointStore::plain(&w.taxi);
    let store_bytes = StoreBuilder::new().encode(&w.taxi).expect("store encode");
    let budget = QueryBudget::unlimited();
    let mut points = Vec::new();
    for n_regions in [8usize, 32, 128, 512] {
        let set = voronoi_neighborhoods(&w.city.bbox(), n_regions, 42, 2);
        let index = PackedRegionIndex::build(&set);
        let open = || ChunkedPointSource::from_bytes(store_bytes.clone());

        let (stored, stats) = spatial_index::index_join_stored_parallel(
            open, &set, &index, q, &budget, cfg.threads,
        )
        .expect("stored index join");
        let resident = spatial_index::index_join_budgeted(&w.taxi, &set, &index, q, &budget)
            .expect("in-memory index join");
        assert_eq!(stored, resident, "{n_regions} regions: streamed join diverged");

        let raster = RasterJoin::new(config(cfg, BinningMode::Off, Bounded));
        let raster_ms = median_ms(cfg.reps, || {
            raster.execute_store(plain_store, &set, q, &budget).expect("raster run");
        });
        let index_ms = median_ms(cfg.reps, || {
            spatial_index::index_join_stored_parallel(
                open, &set, &index, q, &budget, cfg.threads,
            )
            .expect("stored index join");
        });
        points.push(IndexJoinPoint {
            regions: n_regions,
            raster_ms,
            index_ms,
            chunks_scanned: stats.chunks_scanned,
            chunks_pruned: stats.chunks_pruned,
        });
    }
    let crossover = crossover(&points);
    (points, crossover)
}

/// Does the raster join win (or tie) at this sweep point?
fn raster_wins(p: &IndexJoinPoint) -> bool {
    p.raster_ms <= p.index_ms
}

/// The first region count at which the faster join differs from the one at
/// the previous count, or `None` when one join wins the whole sweep.
pub fn crossover(points: &[IndexJoinPoint]) -> Option<usize> {
    points.windows(2).find(|w| raster_wins(&w[0]) != raster_wins(&w[1])).map(|w| w[1].regions)
}

/// One line saying who wins where, for the JSON note and the text report.
pub fn crossover_note(points: &[IndexJoinPoint], crossover: Option<usize>) -> String {
    let winner = |raster: bool| if raster { "raster" } else { "the exact index join" };
    match (points.first(), crossover) {
        (None, _) => "no sweep points".to_string(),
        (Some(p), None) => format!("{} wins at all sizes", winner(raster_wins(p))),
        (Some(_), Some(n)) => {
            let after = points.iter().find(|p| p.regions == n).is_some_and(raster_wins);
            format!("{} overtakes {} at {n} regions", winner(after), winner(!after))
        }
    }
}

/// Just the raster-vs-index race (the `repro --exp indexjoin` mode):
/// builds the standard workload and returns the sweep plus the crossover.
pub fn index_join_race(cfg: &PerfConfig) -> (Vec<IndexJoinPoint>, Option<usize>) {
    let w = Workload::standard(cfg.points, 42);
    let q = SpatialAggQuery::new(AggKind::Sum("fare".into()));
    race(cfg, &w, &q)
}

/// Human-readable table for an index-join race run standalone.
pub fn render_race(points: &[IndexJoinPoint], crossover: Option<usize>) -> String {
    let mut t = Table::new(["regions", "raster ms", "index ms", "scanned", "pruned"]);
    for p in points {
        t.row([
            format!("{}", p.regions),
            format!("{:.1}", p.raster_ms),
            format!("{:.1}", p.index_ms),
            format!("{}", p.chunks_scanned),
            format!("{}", p.chunks_pruned),
        ]);
    }
    format!(
        "Raster join (bounded, ε > 0) vs stored index join (exact, ε = 0):\n\n{}\n{}\n",
        t.render(),
        crossover_note(points, crossover)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_suite_runs_and_serializes() {
        let cfg = PerfConfig {
            points: 20_000,
            threads: 2,
            reps: 1,
            resolution: 256,
            max_tile: 64,
        };
        let report = run(&cfg);
        assert!(report.rows.len() >= 5);
        assert!(report.rows.iter().all(|r| r.median_ms >= 0.0 && r.points_per_sec >= 0.0));
        let json = report.to_json();
        // Structural sanity without a JSON parser: balanced braces, the
        // stable keys present, one object per experiment row.
        assert!(json.starts_with("{\n") && json.ends_with("}\n"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        for key in [
            "\"bench\"",
            "\"bin_build_ms\"",
            "\"speedup_bounded_multitile\"",
            "\"experiments\"",
            "\"index_join\"",
            "\"index_crossover_regions\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert_eq!(json.matches("\"name\"").count(), report.rows.len());
        assert_eq!(json.matches("\"raster_ms\"").count(), report.index_join.len());
        assert_eq!(report.index_join.len(), 4);
        assert!(report.render().contains("speedup"));
        assert!(report.render().contains("index join"));
        for leg in ["bounded_viewport_unbinned", "bounded_viewport_binned"] {
            assert!(report.rows.iter().any(|r| r.name == leg), "missing {leg}");
        }
        assert!(json.contains("\"index_crossover_note\""));
    }

    fn sweep(times: &[(f64, f64)]) -> Vec<IndexJoinPoint> {
        [8usize, 32, 128, 512]
            .iter()
            .zip(times)
            .map(|(&regions, &(raster_ms, index_ms))| IndexJoinPoint {
                regions,
                raster_ms,
                index_ms,
                chunks_scanned: 0,
                chunks_pruned: 0,
            })
            .collect()
    }

    #[test]
    fn one_winner_throughout_is_no_crossover() {
        let points = sweep(&[(218.6, 776.7), (451.5, 487.2), (240.3, 797.3), (292.7, 1872.9)]);
        assert_eq!(crossover(&points), None);
        assert_eq!(crossover_note(&points, None), "raster wins at all sizes");
        let points = sweep(&[(9.0, 1.0), (9.0, 2.0), (9.0, 3.0), (9.0, 4.0)]);
        assert_eq!(crossover(&points), None);
        assert_eq!(crossover_note(&points, None), "the exact index join wins at all sizes");
    }

    #[test]
    fn crossover_is_where_the_winner_flips() {
        let points = sweep(&[(5.0, 1.0), (5.0, 2.0), (5.0, 6.0), (5.0, 9.0)]);
        assert_eq!(crossover(&points), Some(128));
        assert_eq!(
            crossover_note(&points, Some(128)),
            "raster overtakes the exact index join at 128 regions"
        );
        let points = sweep(&[(1.0, 5.0), (6.0, 5.0), (7.0, 5.0), (8.0, 5.0)]);
        assert_eq!(crossover(&points), Some(32));
        assert_eq!(
            crossover_note(&points, Some(32)),
            "the exact index join overtakes raster at 32 regions"
        );
    }
}
