//! Batched Raster Join — one polygon rasterization for N concurrent queries.
//!
//! Urbane's GPU idiom amortizes the polygon pass across work via multi-target
//! framebuffers. This module is the executor-side half of that trick for the
//! serving layer: K queries sharing `(dataset, regions, resolution, mode)`
//! run as ONE raster join. The point pass projects every candidate row once
//! and blends it into the K accumulation targets its per-query filter mask
//! admits ([`gpu_raster::multi`]); boundary traversal, scanline fill, exact
//! point-in-polygon fix-ups, and coverage clipping — all query-independent —
//! run once per batch instead of once per query.
//!
//! **Bit-identity contract.** Every per-target arithmetic sequence is the
//! exact subsequence a solo run of that query would execute: the point pass
//! feeds the same ascending candidate stream and gates per target, gathers
//! fold pixels in the same rasterization order with the same per-target
//! `count ≤ 0` early-outs, and the accurate fix-up accumulates rows in the
//! same row-major order. f32/f64 accumulation being non-associative is
//! therefore irrelevant — the operations are literally the same, in the same
//! order, so `execute_batch` answers equal serial [`RasterJoin`] answers
//! bit-for-bit (asserted by `tests/batch_equivalence.rs`).

use crate::bounded::POINT_CHUNK;
use crate::budget::QueryBudget;
use crate::canvas::CanvasPlan;
use crate::compiled::{CompiledQuery, PointStore};
use crate::executor::{ExecutionMode, PointStrategy, PolygonPath, RasterJoin};
use crate::{RasterJoinError, Result};
use gpu_raster::blend::BlendOp;
use gpu_raster::line::traverse_segment;
use gpu_raster::{Buffer2D, MultiBuffer2D, Pipeline, RenderStats};
use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use urban_data::query::{AggKind, AggTable, SpatialAggQuery};
use urban_data::{PointTable, RegionId, RegionSet};
use urbane_geom::clip::clip_polygon_to_box;
use urbane_geom::projection::Viewport;
use urbane_geom::triangulate::triangulate;
use urbane_geom::MultiPolygon;

/// Ceiling on batch width: K targets cost `K × 8` bytes per pixel in the
/// multi-target accumulator, so the planner's admission cap and this guard
/// together bound batch memory at `canvas × MAX_BATCH_TARGETS × 8` bytes.
pub const MAX_BATCH_TARGETS: usize = 64;

/// The answers of one batched execution plus shared metadata (one canvas,
/// one ε — members share them by construction).
#[derive(Debug, Clone)]
pub struct BatchResult {
    /// Per-member aggregate tables, in the order the queries were given.
    pub tables: Vec<AggTable>,
    /// The shared per-point positional error bound.
    pub epsilon: f64,
    /// Canvas width in pixels.
    pub canvas_width: u32,
    /// Canvas height in pixels.
    pub canvas_height: u32,
    /// Number of tiles rendered (once, for the whole batch).
    pub tiles: usize,
    /// Merged pipeline statistics for the single shared pass.
    pub stats: RenderStats,
}

/// Per-tile accumulation buffers for K queries: one multi-target
/// `(count, Σvalue)` buffer plus per-target min/max planes where an
/// aggregate needs them.
pub(crate) struct BatchPointBuffers {
    /// K targets of `(count, Σvalue)`, pixel-major.
    pub count_sum: MultiBuffer2D<[f32; 2]>,
    /// Per-target per-pixel min (only for MIN aggregates).
    pub min: Vec<Option<Buffer2D<f32>>>,
    /// Per-target per-pixel max (only for MAX aggregates).
    pub max: Vec<Option<Buffer2D<f32>>>,
}

/// Batched point pass: one projection per candidate row, K gated blends.
/// The row stream (candidate order, chunking, budget polls) is identical to
/// the serial [`crate::bounded::point_pass`]; target `t` receives exactly
/// the blend subsequence its own pass would have.
pub(crate) fn batch_point_pass(
    pipe: &mut Pipeline,
    store: &PointStore<'_>,
    cqs: &[CompiledQuery],
    budget: &QueryBudget,
) -> Result<BatchPointBuffers> {
    let points = store.table();
    let (w, h) = (pipe.viewport().width, pipe.viewport().height);
    let k = cqs.len();

    let mut count_sum = MultiBuffer2D::new(w, h, k, [0.0f32; 2]);
    let mut min_bufs: Vec<Option<Buffer2D<f32>>> = cqs
        .iter()
        .map(|cq| matches!(cq.agg, AggKind::Min(_)).then(|| Buffer2D::new(w, h, f32::INFINITY)))
        .collect();
    let mut max_bufs: Vec<Option<Buffer2D<f32>>> = cqs
        .iter()
        .map(|cq| {
            matches!(cq.agg, AggKind::Max(_)).then(|| Buffer2D::new(w, h, f32::NEG_INFINITY))
        })
        .collect();

    let viewport = *pipe.viewport();
    let candidates = store.candidates(&viewport.world);
    let columns: Vec<Option<&[f32]>> =
        cqs.iter().map(|cq| cq.col.map(|c| points.column(c))).collect();
    let total = candidates.as_ref().map_or(points.len(), |c| c.len());
    let row = |k: usize| candidates.as_ref().map_or(k, |c| c[k] as usize);

    // Specialized `glDrawBuffers` loop instead of the generic (closure-gated)
    // `Pipeline::draw_points_multi`, in two passes:
    //
    // 1. Project every candidate once into `(pixel base, row)` hits, then
    //    stable-bucket the hits by horizontal canvas band. The K-target
    //    accumulator is K× a solo buffer — far past cache for wide batches —
    //    so blending in input order would miss on almost every point. Banding
    //    confines each blend burst to one `BAND_ROWS`-tall accumulator slice.
    // 2. Blend band by band. A pixel lives in exactly one band and the
    //    bucketing is stable, so each pixel still receives its blends in
    //    ascending candidate order — the f32 sums per target stay exactly
    //    the subsequence a solo pass would produce, bit for bit.
    //
    // The arithmetic per (point, target) is unchanged: gate on the member's
    // filter mask, Add-blend `[1.0, v]` componentwise, targets ascending.
    let mut points_in = 0u64;
    let mut culled = 0u64;
    let mut frags = 0u64;

    // Pass 1: project + bucket. Band height caps one band's accumulator
    // slice at ~`BAND_BUDGET` bytes regardless of batch width.
    const BAND_BUDGET: usize = 2 << 20;
    let texel_bytes = k * std::mem::size_of::<[f32; 2]>();
    let band_rows = (BAND_BUDGET / (w as usize * texel_bytes)).clamp(1, h as usize) as u32;
    let n_bands = h.div_ceil(band_rows) as usize;
    let mut hits: Vec<(u32, u32)> = Vec::with_capacity(total);
    let mut band_counts = vec![0u32; n_bands];
    let mut start = 0usize;
    while start < total {
        budget.check()?;
        let end = (start + POINT_CHUNK).min(total);
        for j in start..end {
            let i = row(j);
            points_in += 1;
            let Some((x, y)) = viewport.world_to_pixel(points.loc(i)) else {
                culled += 1;
                continue;
            };
            // lint: bounded-by the candidate count (scratch, dropped at pass end)
            hits.push((y * w + x, i as u32));
            band_counts[(y / band_rows) as usize] += 1;
        }
        start = end;
    }
    let ordered = if n_bands > 1 {
        let mut cursors = vec![0usize; n_bands];
        let mut acc = 0usize;
        for (cursor, &count) in cursors.iter_mut().zip(&band_counts) {
            *cursor = acc;
            acc += count as usize;
        }
        let mut ordered: Vec<(u32, u32)> = vec![(0, 0); hits.len()];
        for &hit in &hits {
            let band = (hit.0 / (band_rows * w)) as usize;
            ordered[cursors[band]] = hit;
            cursors[band] += 1;
        }
        drop(hits);
        ordered
    } else {
        // One band — the whole accumulator fits the budget; the stable
        // scatter would be an identity copy.
        hits
    };

    // Pass 2: gated K-way blends, band by band.
    let mut done = 0usize;
    while done < ordered.len() {
        budget.check()?;
        let end = (done + POINT_CHUNK).min(ordered.len());
        for &(base, i32row) in &ordered[done..end] {
            let i = i32row as usize;
            let texels = count_sum.texels_at_mut(base as usize);
            for ((texel, cq), col) in texels.iter_mut().zip(cqs).zip(&columns) {
                if cq.matches(i) {
                    let [count, sum] = texel;
                    *count += 1.0;
                    *sum += col.map_or(0.0, |vals| vals[i]);
                    frags += 1;
                }
            }
        }
        done = end;
    }
    drop(ordered);

    // Min/max planes are solo-width buffers; the rare aggregates that need
    // them keep the straightforward in-order pass.
    let mut start = 0usize;
    while start < total {
        budget.check()?;
        let end = (start + POINT_CHUNK).min(total);
        for t in 0..k {
            if let (Some(buf), Some(vals)) = (min_bufs[t].as_mut(), columns[t]) {
                for j in start..end {
                    let i = row(j);
                    if cqs[t].matches(i) {
                        gpu_raster::point::draw_point(
                            buf,
                            &viewport,
                            points.loc(i),
                            vals[i],
                            BlendOp::Min,
                        );
                    }
                }
            }
            if let (Some(buf), Some(vals)) = (max_bufs[t].as_mut(), columns[t]) {
                for j in start..end {
                    let i = row(j);
                    if cqs[t].matches(i) {
                        gpu_raster::point::draw_point(
                            buf,
                            &viewport,
                            points.loc(i),
                            vals[i],
                            BlendOp::Max,
                        );
                    }
                }
            }
        }
        start = end;
    }
    let stats = pipe.stats_mut();
    stats.draw_calls += 1;
    stats.points_in += points_in;
    stats.points_culled += culled;
    stats.fragments += frags;

    Ok(BatchPointBuffers { count_sum, min: min_bufs, max: max_bufs })
}

/// Fold one pixel into every member's state for `region`. Mirrors the
/// serial `fold_pixel` per target, including the `count ≤ 0` early-out.
#[inline]
pub(crate) fn batch_fold_pixel(
    tables: &mut [AggTable],
    region: usize,
    bufs: &BatchPointBuffers,
    x: u32,
    y: u32,
) {
    for (t, &[count, sum]) in bufs.count_sum.texels(x, y).iter().enumerate() {
        if count <= 0.0 {
            continue;
        }
        let state = &mut tables[t].states[region];
        state.count += count as u64;
        state.weight += count as f64; // full-weight fold: weight tracks count
        state.sum += sum as f64;
        if let Some(minb) = &bufs.min[t] {
            state.min = state.min.min(minb.get(x, y) as f64);
        }
        if let Some(maxb) = &bufs.max[t] {
            state.max = state.max.max(maxb.get(x, y) as f64);
        }
    }
}

/// Polygon pass for one region, shared by the batch: rasterize the geometry
/// ONCE and fold every covered pixel into all K members. `skip` filters out
/// pixels handled elsewhere (boundary pixels); pixel visit order matches the
/// serial `gather_region` exactly.
pub(crate) fn batch_gather_region<F: FnMut(u32, u32) -> bool>(
    pipe: &mut Pipeline,
    bufs: &BatchPointBuffers,
    geom: &MultiPolygon,
    path: PolygonPath,
    tables: &mut [AggTable],
    region: usize,
    mut skip: F,
) -> Result<()> {
    let (w, h) = (bufs.count_sum.width(), bufs.count_sum.height());
    let viewport = *pipe.viewport();
    if !viewport.world.intersects(&geom.bbox()) {
        return Ok(());
    }
    for poly in geom.polygons() {
        if !viewport.world.intersects(&poly.bbox()) {
            continue;
        }
        match path {
            PolygonPath::Scanline => {
                let screen_rings: Vec<Vec<urbane_geom::Point>> = poly
                    .rings()
                    .map(|r| r.vertices().iter().map(|&p| viewport.world_to_screen(p)).collect())
                    .collect();
                let refs: Vec<&[urbane_geom::Point]> =
                    screen_rings.iter().map(|v| v.as_slice()).collect();
                gpu_raster::polygon_scan::rasterize_rings(&refs, w, h, |x, y| {
                    if !skip(x, y) {
                        batch_fold_pixel(tables, region, bufs, x, y);
                    }
                });
            }
            PolygonPath::Triangulated => {
                for t in triangulate(poly)? {
                    let a = viewport.world_to_screen(t.a);
                    let b = viewport.world_to_screen(t.b);
                    let c = viewport.world_to_screen(t.c);
                    gpu_raster::triangle::rasterize_triangle(a, b, c, w, h, |x, y| {
                        if !skip(x, y) {
                            batch_fold_pixel(tables, region, bufs, x, y);
                        }
                    });
                }
            }
        }
    }
    Ok(())
}

/// Fresh per-member tables for one tile (or the final merge).
fn batch_tables(cqs: &[CompiledQuery], n_regions: usize) -> Vec<AggTable> {
    cqs.iter().map(|cq| AggTable::new(cq.agg.clone(), n_regions)).collect()
}

/// Bounded Raster Join for one tile, K members at once.
pub(crate) fn batch_bounded_tile(
    viewport: &Viewport,
    store: &PointStore<'_>,
    regions: &RegionSet,
    cqs: &[CompiledQuery],
    path: PolygonPath,
    budget: &QueryBudget,
) -> Result<(Vec<AggTable>, RenderStats)> {
    let mut pipe = Pipeline::new(*viewport);
    let bufs = batch_point_pass(&mut pipe, store, cqs, budget)?;
    let mut tables = batch_tables(cqs, regions.len());
    for (id, _, geom) in regions.iter() {
        budget.check()?;
        batch_gather_region(
            &mut pipe,
            &bufs,
            geom,
            path,
            &mut tables,
            id as usize,
            |_, _| false,
        )?;
    }
    Ok((tables, *pipe.stats()))
}

/// Accurate Raster Join for one tile, K members at once. The boundary
/// traversal and every exact point-in-polygon test run ONCE per batch; only
/// the accumulates are per-member.
pub(crate) fn batch_accurate_tile(
    viewport: &Viewport,
    store: &PointStore<'_>,
    regions: &RegionSet,
    cqs: &[CompiledQuery],
    path: PolygonPath,
    budget: &QueryBudget,
) -> Result<(Vec<AggTable>, RenderStats)> {
    let points = store.table();
    let mut pipe = Pipeline::new(*viewport);
    let (w, h) = (viewport.width, viewport.height);
    let bufs = batch_point_pass(&mut pipe, store, cqs, budget)?;

    // Boundary pixels are a property of (regions, viewport) alone — computed
    // once for the whole batch, exactly as the serial kernel computes them.
    let mut boundary_pairs: Vec<(u32, RegionId)> = Vec::new();
    // lint: capped-by regions.len() — the region table of the requested level, server-side data the wire only selects
    let mut region_boundary: Vec<HashSet<u32>> = Vec::with_capacity(regions.len());
    for (id, _, geom) in regions.iter() {
        budget.check()?;
        let mut set = HashSet::new();
        if viewport.world.intersects(&geom.bbox()) {
            for poly in geom.polygons() {
                for e in poly.edges() {
                    let a = viewport.world_to_screen(e.a);
                    let b = viewport.world_to_screen(e.b);
                    traverse_segment(a, b, w, h, |x, y| {
                        set.insert(y * w + x);
                    });
                }
            }
        }
        for &pix in &set {
            boundary_pairs.push((pix, id));
        }
        region_boundary.push(set);
    }
    boundary_pairs.sort_unstable();

    // Interior gather: one rasterization per region, K folds per pixel.
    let mut tables = batch_tables(cqs, regions.len());
    for (id, _, geom) in regions.iter() {
        budget.check()?;
        let skip_set = &region_boundary[id as usize];
        batch_gather_region(&mut pipe, &bufs, geom, path, &mut tables, id as usize, |x, y| {
            skip_set.contains(&(y * w + x))
        })?;
    }

    // Exact fix-up: project each candidate row once, PIP-test once per
    // (row, region), accumulate into every member whose mask admits the row.
    let columns: Vec<Option<&[f32]>> =
        cqs.iter().map(|cq| cq.col.map(|c| points.column(c))).collect();
    let cand = store.candidates(&viewport.world);
    let total = cand.as_ref().map_or(points.len(), |c| c.len());
    for k in 0..total {
        if k % POINT_CHUNK == 0 {
            budget.check()?;
        }
        let i = cand.as_ref().map_or(k, |c| c[k] as usize);
        if !cqs.iter().any(|cq| cq.matches(i)) {
            continue;
        }
        let p = points.loc(i);
        let (x, y) = match viewport.world_to_pixel(p) {
            Some(c) => c,
            None => continue,
        };
        let pix = y * w + x;
        let lo = boundary_pairs.partition_point(|&(q, _)| q < pix);
        if lo == boundary_pairs.len() || boundary_pairs[lo].0 != pix {
            continue; // not a boundary pixel for any region
        }
        for &(q, id) in &boundary_pairs[lo..] {
            if q != pix {
                break;
            }
            if regions.geometry(id).contains(p) {
                for (t, cq) in cqs.iter().enumerate() {
                    if cq.matches(i) {
                        let v = columns[t].map_or(0.0, |vals| vals[i] as f64);
                        tables[t].states[id as usize].accumulate(v);
                    }
                }
            }
        }
    }

    Ok((tables, *pipe.stats()))
}

/// Weighted Raster Join for one tile, K members at once. Boundary traversal
/// and the exact coverage clipping run ONCE per (region, pixel); only the
/// weighted accumulates are per-member.
pub(crate) fn batch_weighted_tile(
    viewport: &Viewport,
    store: &PointStore<'_>,
    regions: &RegionSet,
    cqs: &[CompiledQuery],
    path: PolygonPath,
    budget: &QueryBudget,
) -> Result<(Vec<AggTable>, RenderStats)> {
    let mut pipe = Pipeline::new(*viewport);
    let (w, h) = (viewport.width, viewport.height);
    let bufs = batch_point_pass(&mut pipe, store, cqs, budget)?;
    let pixel_area = viewport.units_per_pixel_x() * viewport.units_per_pixel_y();

    let mut tables = batch_tables(cqs, regions.len());
    let mut boundary: Vec<u32> = Vec::new();
    for (id, _, geom) in regions.iter() {
        budget.check()?;
        if !viewport.world.intersects(&geom.bbox()) {
            continue;
        }
        // Sorted + deduped boundary pixels, exactly as the serial kernel
        // builds them: membership is a binary search, and the fractional
        // fold below visits pixels in the same fixed order.
        boundary.clear();
        for poly in geom.polygons() {
            for e in poly.edges() {
                let a = viewport.world_to_screen(e.a);
                let b = viewport.world_to_screen(e.b);
                traverse_segment(a, b, w, h, |x, y| {
                    boundary.push(y * w + x);
                });
            }
        }
        boundary.sort_unstable();
        boundary.dedup();
        // Interior pixels: full weight, shared rasterization.
        batch_gather_region(&mut pipe, &bufs, geom, path, &mut tables, id as usize, |x, y| {
            boundary.binary_search(&(y * w + x)).is_ok()
        })?;
        // Boundary pixels: the exact area-fraction weight is a property of
        // (region, pixel) — clip once, accumulate K times.
        for &pix in &boundary {
            let (x, y) = (pix % w, pix / w);
            let texels = bufs.count_sum.texels(x, y);
            if texels.iter().all(|&[count, _]| count <= 0.0) {
                continue;
            }
            let cell = viewport.pixel_to_world_box(x, y);
            let mut covered = 0.0;
            for poly in geom.polygons() {
                if let Ok(Some(clipped)) = clip_polygon_to_box(poly, &cell) {
                    covered += clipped.area();
                }
            }
            let weight = (covered / pixel_area).clamp(0.0, 1.0);
            if weight <= 0.0 {
                continue;
            }
            for (t, &[count, sum]) in texels.iter().enumerate() {
                if count <= 0.0 {
                    continue;
                }
                let min = bufs.min[t].as_ref().map_or(f64::INFINITY, |b| b.get(x, y) as f64);
                let max =
                    bufs.max[t].as_ref().map_or(f64::NEG_INFINITY, |b| b.get(x, y) as f64);
                tables[t].states[id as usize].accumulate_weighted(
                    count as u64,
                    sum as f64,
                    min,
                    max,
                    weight,
                );
            }
        }
    }
    Ok((tables, *pipe.stats()))
}

/// Validate a batch and compile its members. Shared by the one-shot and
/// prepared batch entry points.
pub(crate) fn compile_batch(
    store: &PointStore<'_>,
    queries: &[SpatialAggQuery],
    budget: &QueryBudget,
) -> Result<Vec<CompiledQuery>> {
    if queries.is_empty() {
        return Err(RasterJoinError::Config("empty batch".into()));
    }
    if queries.len() > MAX_BATCH_TARGETS {
        return Err(RasterJoinError::Config(format!(
            "batch of {} exceeds MAX_BATCH_TARGETS ({MAX_BATCH_TARGETS})",
            queries.len()
        )));
    }
    queries.iter().map(|q| CompiledQuery::new(store, q, budget)).collect()
}

impl RasterJoin {
    /// Evaluate `queries` as ONE raster join: the polygon rasterization,
    /// boundary traversal, and point projection run once, each point blending
    /// into the K accumulator targets its member's filter mask admits.
    /// Answers are bit-identical to K serial [`RasterJoin::execute_with_budget`]
    /// calls. Unlimited budget; see [`execute_batch_store`](Self::execute_batch_store).
    pub fn execute_batch(
        &self,
        points: &PointTable,
        regions: &RegionSet,
        queries: &[SpatialAggQuery],
    ) -> Result<BatchResult> {
        let bins = self.auto_bins(points, regions)?;
        let store = match &bins {
            Some(b) => PointStore::with_bins(points, b),
            None => PointStore::plain(points),
        };
        self.execute_batch_store(store, regions, queries, &QueryBudget::unlimited())
    }

    /// Batched execution against a caller-provided [`PointStore`], under a
    /// shared `budget` (the serving layer passes the min of the members'
    /// deadlines). Semantics per member are identical to
    /// [`execute_store`](Self::execute_store): budget polling, per-tile panic
    /// isolation, work-stealing tile scheduling with order-deterministic
    /// merge. The id-buffer strategy is rejected (its scatter writes one
    /// region id per pixel — there is no K-target analogue).
    pub fn execute_batch_store(
        &self,
        store: PointStore<'_>,
        regions: &RegionSet,
        queries: &[SpatialAggQuery],
        budget: &QueryBudget,
    ) -> Result<BatchResult> {
        if regions.is_empty() {
            return Err(RasterJoinError::Config("empty region set".into()));
        }
        budget.check()?;
        let config = self.config();
        if config.strategy == PointStrategy::IdBuffer {
            return Err(RasterJoinError::Config(
                "batched execution supports the points-first strategy only".into(),
            ));
        }
        let plan = CanvasPlan::plan(&regions.bbox(), config.spec, config.max_tile)?;
        let cqs = compile_batch(&store, queries, budget)?;
        let store = &store;
        let cqs = &cqs[..];

        // Per-tile body mirrors `execute_store`: budget poll, fault hook,
        // kernel inside a panic shield.
        let run_tile = |idx: usize, vp: &Viewport| -> Result<(Vec<AggTable>, RenderStats)> {
            budget.check()?;
            #[cfg(not(feature = "fault-injection"))]
            let _ = idx;
            let caught =
                catch_unwind(AssertUnwindSafe(|| -> Result<(Vec<AggTable>, RenderStats)> {
                    #[cfg(feature = "fault-injection")]
                    if let Some(faults) = &config.faults {
                        faults.on_tile_start(idx, budget)?;
                    }
                    match config.mode {
                        ExecutionMode::Bounded => {
                            batch_bounded_tile(vp, store, regions, cqs, config.path, budget)
                        }
                        ExecutionMode::Weighted => {
                            batch_weighted_tile(vp, store, regions, cqs, config.path, budget)
                        }
                        ExecutionMode::Accurate => {
                            batch_accurate_tile(vp, store, regions, cqs, config.path, budget)
                        }
                        ExecutionMode::IndexJoin => Err(RasterJoinError::Config(
                            "index join executes at the session layer, not the raster pipeline"
                                .into(),
                        )),
                    }
                }));
            caught.unwrap_or_else(|payload| {
                Err(RasterJoinError::Internal(format!(
                    "tile worker panicked: {}",
                    gpu_raster::tile::panic_message(payload.as_ref())
                )))
            })
        };

        let mut tables = batch_tables(cqs, regions.len());
        let mut stats = RenderStats::new();
        let threads = config.threads.max(1).min(plan.tiles.len());
        if threads == 1 {
            // lint: polls-budget run_tile checks the budget at its head before every tile; the closure body is opaque to the call graph
            for (idx, vp) in plan.tiles.iter().enumerate() {
                let (ts, s) = run_tile(idx, vp)?;
                merge_batch(&mut tables, &ts)?;
                stats.merge(&s);
            }
        } else {
            // Work-stealing, same shape as `execute_store`: a shared cursor
            // dispenses tiles; results are keyed by tile index and replayed
            // in tile order so the per-member f64 merge arithmetic — and the
            // answer — is independent of thread count and scheduling.
            type TileOut = (usize, (Vec<AggTable>, RenderStats));
            let tiles = &plan.tiles;
            let cursor = AtomicUsize::new(0);
            let abort = AtomicBool::new(false);
            let worker_outs: Vec<(Vec<TileOut>, Option<RasterJoinError>)> =
                std::thread::scope(|scope| {
                    let (run_tile, cursor, abort) = (&run_tile, &cursor, &abort);
                    let handles: Vec<_> = (0..threads)
                        .map(|_| {
                            scope.spawn(move || {
                                let mut done: Vec<TileOut> = Vec::new();
                                loop {
                                    // Acquire pairs with the Release store
                                    // below: an observed abort happens-after
                                    // everything the failing worker did.
                                    if abort.load(Ordering::Acquire) {
                                        return (done, None);
                                    }
                                    // lint: relaxed-ok work-dispenser counter; the increment itself is the only coordination, tile results are published via join
                                    let idx = cursor.fetch_add(1, Ordering::Relaxed);
                                    if idx >= tiles.len() {
                                        return (done, None);
                                    }
                                    match run_tile(idx, &tiles[idx]) {
                                        Ok(out) => done.push((idx, out)),
                                        Err(e) => {
                                            // Release: cross-thread control
                                            // flag; pairs with the Acquire
                                            // load at the top of the loop.
                                            abort.store(true, Ordering::Release);
                                            return (done, Some(e));
                                        }
                                    }
                                }
                            })
                        })
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| {
                            h.join().unwrap_or_else(|payload| {
                                (
                                    Vec::new(),
                                    Some(RasterJoinError::Internal(format!(
                                        "tile worker panicked: {}",
                                        gpu_raster::tile::panic_message(payload.as_ref())
                                    ))),
                                )
                            })
                        })
                        .collect()
                });
            // Prefer an Internal diagnosis over the cancellations it causes.
            let mut first_err: Option<RasterJoinError> = None;
            let mut parts: Vec<TileOut> = Vec::new();
            for (done, err) in worker_outs {
                parts.extend(done);
                if let Some(e) = err {
                    let internal = matches!(e, RasterJoinError::Internal(_));
                    if first_err.is_none()
                        || (internal && !matches!(first_err, Some(RasterJoinError::Internal(_))))
                    {
                        first_err = Some(e);
                    }
                }
            }
            if let Some(e) = first_err {
                return Err(e);
            }
            parts.sort_unstable_by_key(|&(idx, _)| idx);
            for (_, (ts, s)) in &parts {
                merge_batch(&mut tables, ts)?;
                stats.merge(s);
            }
        }

        Ok(BatchResult {
            tables,
            epsilon: plan.epsilon,
            canvas_width: plan.width,
            canvas_height: plan.height,
            tiles: plan.tiles.len(),
            stats,
        })
    }
}

/// Merge one tile's per-member tables into the batch accumulators, member
/// by member — each member sees the same merge sequence a solo run would.
fn merge_batch(into: &mut [AggTable], tile: &[AggTable]) -> Result<()> {
    debug_assert_eq!(into.len(), tile.len());
    // lint: allow(cancel-poll-reachability) merges K member tables of one finished tile, bounded by the batch width
    for (dst, src) in into.iter_mut().zip(tile) {
        dst.merge(src)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::canvas::CanvasSpec;
    use crate::executor::RasterJoinConfig;
    use urban_data::filter::Filter;
    use urban_data::gen::corpus::uniform_points;
    use urban_data::gen::regions::voronoi_neighborhoods;
    use urban_data::query::AggKind;
    use urban_data::time::TimeRange;
    use urbane_geom::BoundingBox;

    fn setup() -> (PointTable, RegionSet) {
        let extent = BoundingBox::from_coords(0.0, 0.0, 100.0, 100.0);
        (uniform_points(&extent, 3_000, 11, 50.0), voronoi_neighborhoods(&extent, 12, 3, 2))
    }

    fn mixed_queries() -> Vec<SpatialAggQuery> {
        vec![
            SpatialAggQuery::count(),
            SpatialAggQuery::new(AggKind::Sum("v".into()))
                .filter(Filter::Time(TimeRange::new(0, 1_500))),
            SpatialAggQuery::new(AggKind::Min("v".into())),
            SpatialAggQuery::new(AggKind::Max("v".into()))
                .filter(Filter::Time(TimeRange::new(500, 2_500))),
        ]
    }

    #[test]
    fn batch_matches_serial_across_modes() {
        let (points, regions) = setup();
        let queries = mixed_queries();
        for mode in [ExecutionMode::Bounded, ExecutionMode::Weighted, ExecutionMode::Accurate] {
            let rj = RasterJoin::new(RasterJoinConfig {
                spec: CanvasSpec::Resolution(128),
                mode,
                ..Default::default()
            });
            let batch = rj.execute_batch(&points, &regions, &queries).unwrap();
            assert_eq!(batch.tables.len(), queries.len());
            for (t, q) in queries.iter().enumerate() {
                let solo = rj.execute(&points, &regions, q).unwrap();
                assert_eq!(
                    batch.tables[t].values(),
                    solo.table.values(),
                    "mode {mode:?} member {t}"
                );
                assert_eq!(batch.epsilon, solo.epsilon);
            }
        }
    }

    #[test]
    fn batch_of_one_is_the_serial_answer() {
        let (points, regions) = setup();
        let q = SpatialAggQuery::new(AggKind::Avg("v".into()));
        let rj = RasterJoin::new(RasterJoinConfig::with_resolution(96));
        let batch = rj.execute_batch(&points, &regions, std::slice::from_ref(&q)).unwrap();
        let solo = rj.execute(&points, &regions, &q).unwrap();
        assert_eq!(batch.tables[0].values(), solo.table.values());
    }

    #[test]
    fn tiled_batch_matches_untiled() {
        let (points, regions) = setup();
        let queries = mixed_queries();
        let single = RasterJoin::new(RasterJoinConfig {
            spec: CanvasSpec::Resolution(256),
            max_tile: 4096,
            ..Default::default()
        });
        let tiled = RasterJoin::new(RasterJoinConfig {
            spec: CanvasSpec::Resolution(256),
            max_tile: 100,
            threads: 4,
            ..Default::default()
        });
        let a = single.execute_batch(&points, &regions, &queries).unwrap();
        let b = tiled.execute_batch(&points, &regions, &queries).unwrap();
        assert!(b.tiles > 1);
        for t in 0..queries.len() {
            assert_eq!(a.tables[t].values(), b.tables[t].values(), "member {t}");
        }
    }

    #[test]
    #[ignore = "manual profiling aid"]
    fn profile_batch_phases() {
        use std::time::Instant;
        let extent = BoundingBox::from_coords(0.0, 0.0, 100.0, 100.0);
        let points = uniform_points(&extent, 500_000, 11, 50.0);
        let regions = voronoi_neighborhoods(&extent, 16, 3, 2);
        let queries: Vec<SpatialAggQuery> = (0..8)
            .map(|i| {
                SpatialAggQuery::count().filter(Filter::AttrRange {
                    column: "v".into(),
                    min: 0.0,
                    max: 1.0e9 + i as f32,
                })
            })
            .collect();
        let rj = RasterJoin::new(RasterJoinConfig {
            spec: CanvasSpec::Resolution(512),
            ..Default::default()
        });
        let budget = QueryBudget::unlimited();
        // Min-of-N timing: the container this runs in is noisy, and the
        // minimum is the robust estimator of the uncontended cost.
        fn min_ms<T>(reps: usize, mut f: impl FnMut() -> T) -> (T, f64) {
            let mut best = f64::INFINITY;
            let mut out = None;
            for _ in 0..reps {
                let t0 = Instant::now();
                let v = f();
                best = best.min(t0.elapsed().as_secs_f64() * 1e3);
                out = Some(v);
            }
            (out.unwrap(), best)
        }
        let store = PointStore::plain(&points);
        let (_, ms) = min_ms(5, || CompiledQuery::new(&store, &queries[0], &budget).unwrap());
        println!("compile one: {ms:.2}ms");
        let (solo, ms) = min_ms(5, || rj.execute(&points, &regions, &queries[0]).unwrap());
        println!("solo execute: {ms:.2}ms count {}", solo.table.total_count());
        let (batch, ms) = min_ms(5, || rj.execute_batch(&points, &regions, &queries).unwrap());
        println!("batch of 8: {ms:.2}ms count {}", batch.tables[7].total_count());
        let (_, ms) = min_ms(5, || rj.execute_batch(&points, &regions, &queries[..1]).unwrap());
        println!("batch of 1: {ms:.2}ms");
        let (cqs, ms) = min_ms(5, || compile_batch(&store, &queries, &budget).unwrap());
        println!("compile 8: {ms:.2}ms");
        let vp = CanvasPlan::plan(&regions.bbox(), CanvasSpec::Resolution(512), 4096)
            .unwrap()
            .tiles[0];
        let mut pipe = Pipeline::new(vp);
        let (bufs, ms) = min_ms(5, || batch_point_pass(&mut pipe, &store, &cqs, &budget).unwrap());
        println!("point pass 8: {ms:.2}ms");
        let (_, ms) = min_ms(5, || {
            let mut tables = batch_tables(&cqs, regions.len());
            for (id, _, geom) in regions.iter() {
                batch_gather_region(
                    &mut pipe,
                    &bufs,
                    geom,
                    PolygonPath::Scanline,
                    &mut tables,
                    id as usize,
                    |_, _| false,
                )
                .unwrap();
            }
            tables
        });
        println!("gather 8: {ms:.2}ms");
        let (_, ms) =
            min_ms(5, || batch_point_pass(&mut pipe, &store, &cqs[..1], &budget).unwrap());
        println!("point pass 1: {ms:.2}ms");
    }

    #[test]
    fn invalid_batches_rejected() {
        let (points, regions) = setup();
        let rj = RasterJoin::with_defaults();
        assert!(matches!(
            rj.execute_batch(&points, &regions, &[]),
            Err(RasterJoinError::Config(_))
        ));
        let too_many = vec![SpatialAggQuery::count(); MAX_BATCH_TARGETS + 1];
        assert!(matches!(
            rj.execute_batch(&points, &regions, &too_many),
            Err(RasterJoinError::Config(_))
        ));
        let idb = RasterJoin::new(RasterJoinConfig {
            strategy: PointStrategy::IdBuffer,
            ..Default::default()
        });
        assert!(matches!(
            idb.execute_batch(&points, &regions, &[SpatialAggQuery::count()]),
            Err(RasterJoinError::Config(_))
        ));
    }
}
