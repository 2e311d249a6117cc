//! Additive block cache — GeoBlocks-style partial-aggregate composition.
//!
//! The exact-key cache ([`crate::cache::QueryCache`]) only helps when a
//! request repeats *verbatim*. Interactive exploration almost never does
//! that: every zoom/pan step carries a fresh viewport filter, so the
//! exact-key hit rate on a TaxiVis-style trace is ~0 even though each step
//! re-aggregates mostly the same regions. GeoBlocks (arXiv 1908.07753)
//! resolves this by caching *partial aggregates over spatial blocks* and
//! assembling answers additively; this module is that idea grafted onto
//! Urbane's executors.
//!
//! ## Why composition is exact here
//!
//! The points-first raster join computes every region's [`AggState`]
//! independently: the point pass renders points regardless of regions, and
//! the per-region gather only reads that region's mask. Combined with the
//! fact that [`AggState::default`] is an exact merge identity, a pass
//! restricted to a subset of regions (via
//! [`raster_join::RasterJoin::execute_store_subset`], which preserves the
//! full set's canvas plan) produces states *bit-identical* to a whole-set
//! pass — urbane-verify's `region_split` / `filter_partition` / `composition`
//! metamorphic laws certify exactly this invariant.
//!
//! ## Keying and viewport independence
//!
//! A block key is `(dataset, generation, level, mode, resolution, agg,
//! non-spatial filter conjunction, block id)` — deliberately **without** the
//! query's `SpatialBox` filters. A cached block therefore answers *any*
//! viewport, provided the viewport cannot clip the block's regions: a region
//! whose bbox, inflated by a conservative raster-assignment margin, lies
//! inside the viewport joins exactly the same points with or without the
//! viewport filter. [`BlockPlan`] classifies every region as *inner*
//! (servable from viewport-independent blocks), *outer* (provably empty
//! under the viewport), or *band* (straddling the viewport edge — computed
//! fresh with the full filter conjunction and never block-cached).
//!
//! ## ε accounting
//!
//! Every block entry stores the certified ε of the pass that produced it.
//! A composed answer's certified bound is the **sum of its component-block
//! bounds** plus the residual passes' bounds — conservative (per-region
//! error never exceeds any single component's ε) but additive, which is
//! what [`urbane_verify`-style](crate::guard::GuardReport::error_bound)
//! budget bookkeeping needs to stay closed under composition.
//!
//! ## Memory
//!
//! Storage is a byte-budgeted LRU: every entry is charged its canonical key
//! plus `states.len() × size_of::<AggState>()`, and inserts evict the
//! coldest entries until the budget holds. A budget of 0 disables the cache
//! entirely (the service default).

use crate::session::lock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use urban_data::filter::{spatial_window, Filter};
use urban_data::query::AggState;
use urban_data::{RegionId, RegionSet};
use urbane_geom::BoundingBox;

/// Consecutive region ids grouped per block. Small enough that a pan step
/// invalidates little, large enough that entry overhead stays negligible.
pub const BLOCK_REGIONS: u32 = 8;

/// The block a region id belongs to.
#[inline]
pub fn block_of(region: RegionId) -> u32 {
    region / BLOCK_REGIONS
}

/// Number of blocks covering `n_regions` regions.
#[inline]
pub fn block_count(n_regions: usize) -> u32 {
    (n_regions as u32).div_ceil(BLOCK_REGIONS)
}

/// The member region ids of a block (clamped to the set's arity).
pub fn block_span(block: u32, n_regions: usize) -> std::ops::Range<RegionId> {
    let start = block * BLOCK_REGIONS;
    let end = (start + BLOCK_REGIONS).min(n_regions as u32);
    start..end.max(start)
}

/// One cached block: the member regions' partial aggregates. Its ε is the
/// canvas plan's, fixed by the block key (level, mode, resolution), so the
/// entry does not carry one.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockEntry {
    /// Per-member states; index = `region_id - block_span(block).start`.
    pub states: Vec<AggState>,
}

impl BlockEntry {
    fn cost(&self, canonical_len: usize) -> usize {
        canonical_len + self.states.len() * std::mem::size_of::<AggState>() + ENTRY_OVERHEAD
    }
}

/// Fixed bookkeeping charge per entry (hash-map slot, clocks, lengths).
const ENTRY_OVERHEAD: usize = 64;

/// How a query's region set decomposes against its viewport.
#[derive(Debug, Clone, Default)]
pub struct BlockPlan {
    /// Regions whose results are viewport-independent (cached blocks apply).
    pub inner: Vec<RegionId>,
    /// Regions straddling the viewport edge — evaluated fresh with the full
    /// filter conjunction, never block-cached.
    pub band: Vec<RegionId>,
    /// Regions provably empty under the viewport (default state, no work).
    pub outer: Vec<RegionId>,
    /// Blocks covering `inner`, sorted and deduplicated.
    pub blocks: Vec<u32>,
}

/// The filter conjunction with every `SpatialBox` term removed — the
/// viewport-independent part that goes into block keys.
pub fn strip_spatial(filters: &[Filter]) -> Vec<Filter> {
    filters
        .iter()
        .filter(|f| !matches!(f, Filter::SpatialBox(_)))
        .cloned()
        .collect()
}

/// A conservative margin for raster assignment: a point can land in a
/// region's pixel mask from up to roughly one pixel diagonal outside the
/// region, so four pixel widths of the effective canvas safely over-covers
/// every mode (bounded center sampling, weighted coverage, accurate PIP).
pub fn assignment_margin(extent: &BoundingBox, resolution: u32) -> f64 {
    let r = resolution.max(1) as f64;
    4.0 * (extent.width().max(extent.height()) / r).max(f64::MIN_POSITIVE)
}

/// Classify every region of `regions` against the conjunction's viewport.
/// `margin` widens each region bbox before the containment tests (see
/// [`assignment_margin`]); with no `SpatialBox` filter every region is
/// inner.
pub fn plan(regions: &RegionSet, filters: &[Filter], margin: f64) -> BlockPlan {
    let viewport = spatial_window(filters);
    let mut out = BlockPlan::default();
    for (id, _, geom) in regions.iter() {
        match &viewport {
            None => out.inner.push(id),
            Some(vp) => {
                let inflated = geom.bbox().inflate(margin);
                if vp.contains_box(&inflated) {
                    out.inner.push(id);
                } else if !vp.intersects(&inflated) {
                    out.outer.push(id);
                } else {
                    out.band.push(id);
                }
            }
        }
    }
    out.blocks = out.inner.iter().map(|&r| block_of(r)).collect();
    out.blocks.dedup();
    out
}

/// Block-cache counters (`/metrics` and `repro --exp blockcache`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BlockCacheStats {
    /// Individual blocks served from cache.
    pub hits: u64,
    /// Queries answered by composing cached blocks with residual work.
    pub partial_hits: u64,
    /// Blocks computed through residual passes and back-filled.
    pub residual_blocks: u64,
    /// Entries evicted by the byte budget.
    pub evictions: u64,
    /// Entries currently held.
    pub entries: u64,
    /// Bytes currently charged against the budget.
    pub bytes: u64,
}

struct Entry {
    canonical: String,
    value: BlockEntry,
    last_used: u64,
    cost: usize,
}

struct Store {
    map: HashMap<u64, Entry>,
    clock: u64,
    bytes: usize,
}

/// The byte-budgeted LRU block store. A single mutex suffices: the store is
/// consulted a handful of times per query (once per needed block), not once
/// per point, so contention is negligible next to the raster passes.
pub struct BlockCache {
    inner: Mutex<Store>,
    budget_bytes: usize,
    hits: AtomicU64,
    partial_hits: AtomicU64,
    residual_blocks: AtomicU64,
    evictions: AtomicU64,
}

impl BlockCache {
    /// A cache charging entries against `budget_bytes` (0 disables caching).
    pub fn new(budget_bytes: usize) -> Self {
        BlockCache {
            inner: Mutex::new(Store { map: HashMap::new(), clock: 0, bytes: 0 }),
            budget_bytes,
            hits: AtomicU64::new(0),
            partial_hits: AtomicU64::new(0),
            residual_blocks: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Is the cache enabled at all?
    pub fn enabled(&self) -> bool {
        self.budget_bytes > 0
    }

    fn fnv1a(bytes: &[u8]) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    /// Look a block up by canonical key, refreshing its LRU position and
    /// counting a block-level hit. Collisions cannot serve wrong blocks:
    /// the canonical string is compared on every probe.
    pub fn get(&self, canonical: &str) -> Option<BlockEntry> {
        if self.budget_bytes == 0 {
            return None;
        }
        let mut store = lock(&self.inner);
        store.clock += 1;
        let tick = store.clock;
        match store.map.get_mut(&Self::fnv1a(canonical.as_bytes())) {
            Some(e) if e.canonical == canonical => {
                e.last_used = tick;
                // lint: relaxed-ok monotone hit counter; the store mutex orders the entry itself
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(e.value.clone())
            }
            _ => None,
        }
    }

    /// Insert (or replace) a block, evicting the coldest entries until the
    /// byte budget holds. An entry larger than the whole budget is dropped
    /// on the floor rather than thrashing everything else out.
    pub fn insert(&self, canonical: String, value: BlockEntry) {
        if self.budget_bytes == 0 {
            return;
        }
        let cost = value.cost(canonical.len());
        if cost > self.budget_bytes {
            return;
        }
        let hash = Self::fnv1a(canonical.as_bytes());
        let mut store = lock(&self.inner);
        store.clock += 1;
        let tick = store.clock;
        if let Some(old) = store.map.remove(&hash) {
            store.bytes -= old.cost;
        }
        // lint: bounded-by budget_bytes (byte-budgeted LRU evicts below)
        store.map.insert(hash, Entry { canonical, value, last_used: tick, cost });
        store.bytes += cost;
        while store.bytes > self.budget_bytes {
            let Some(coldest) =
                store.map.iter().min_by_key(|(_, e)| e.last_used).map(|(&h, _)| h)
            else {
                break;
            };
            if let Some(e) = store.map.remove(&coldest) {
                store.bytes -= e.cost;
                // lint: relaxed-ok monotone eviction counter; the store mutex orders the map
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Drop every entry whose canonical key starts with `prefix` — dataset
    /// reloads call this so no stale-generation block survives (correctness
    /// does not depend on it: keys embed the generation).
    pub fn purge(&self, prefix: &str) {
        let mut store = lock(&self.inner);
        let mut freed = 0usize;
        store.map.retain(|_, e| {
            if e.canonical.starts_with(prefix) {
                freed += e.cost;
                false
            } else {
                true
            }
        });
        store.bytes -= freed;
    }

    /// Count one query answered by composing cached blocks with residual
    /// work (the partial-hit event behind the ci smoke stage).
    pub fn note_partial_hit(&self) {
        // lint: relaxed-ok monotone event counter; nothing is published through it
        self.partial_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Count `n` blocks computed through a residual pass and back-filled.
    pub fn note_residual_blocks(&self, n: u64) {
        // lint: relaxed-ok monotone event counter; nothing is published through it
        self.residual_blocks.fetch_add(n, Ordering::Relaxed);
    }

    /// Counter + occupancy snapshot.
    pub fn stats(&self) -> BlockCacheStats {
        let (entries, bytes) = {
            let store = lock(&self.inner);
            (store.map.len() as u64, store.bytes as u64)
        };
        BlockCacheStats {
            hits: self.hits.load(Ordering::Relaxed), // lint: relaxed-ok counter read for stats only
            partial_hits: self.partial_hits.load(Ordering::Relaxed), // lint: relaxed-ok counter read for stats only
            residual_blocks: self.residual_blocks.load(Ordering::Relaxed), // lint: relaxed-ok counter read for stats only
            evictions: self.evictions.load(Ordering::Relaxed), // lint: relaxed-ok counter read for stats only
            entries,
            bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use urban_data::time::TimeRange;
    use urbane_geom::Polygon;

    fn entry(n: usize) -> BlockEntry {
        BlockEntry { states: vec![AggState::default(); n] }
    }

    #[test]
    fn block_arithmetic() {
        assert_eq!(block_of(0), 0);
        assert_eq!(block_of(BLOCK_REGIONS - 1), 0);
        assert_eq!(block_of(BLOCK_REGIONS), 1);
        assert_eq!(block_count(0), 0);
        assert_eq!(block_count(1), 1);
        assert_eq!(block_count(BLOCK_REGIONS as usize + 1), 2);
        let span = block_span(1, BLOCK_REGIONS as usize + 3);
        assert_eq!(span, BLOCK_REGIONS..BLOCK_REGIONS + 3);
    }

    #[test]
    fn viewport_is_the_intersection_of_spatial_terms() {
        assert_eq!(spatial_window(&[]), None);
        let a = BoundingBox::from_coords(0.0, 0.0, 10.0, 10.0);
        let b = BoundingBox::from_coords(5.0, 5.0, 20.0, 20.0);
        let vp = spatial_window(&[
            Filter::SpatialBox(a),
            Filter::Time(TimeRange::new(0, 10)),
            Filter::SpatialBox(b),
        ])
        .unwrap();
        assert_eq!(vp, BoundingBox::from_coords(5.0, 5.0, 10.0, 10.0));
        let far = BoundingBox::from_coords(50.0, 50.0, 60.0, 60.0);
        let disjoint = spatial_window(&[Filter::SpatialBox(a), Filter::SpatialBox(far)]);
        assert!(disjoint.is_some_and(|w| w.is_empty()));
        let stripped = strip_spatial(&[Filter::SpatialBox(a), Filter::Time(TimeRange::new(0, 10))]);
        assert_eq!(stripped.len(), 1);
        assert!(matches!(stripped[0], Filter::Time(_)));
    }

    fn three_squares() -> RegionSet {
        // r0 deep inside the viewport, r1 straddling its edge, r2 far out.
        RegionSet::from_polygons(
            "t",
            "r",
            vec![
                Polygon::from_coords(&[(2.0, 2.0), (4.0, 2.0), (4.0, 4.0), (2.0, 4.0)]).unwrap(),
                Polygon::from_coords(&[(8.0, 2.0), (12.0, 2.0), (12.0, 4.0), (8.0, 4.0)]).unwrap(),
                Polygon::from_coords(&[(30.0, 2.0), (32.0, 2.0), (32.0, 4.0), (30.0, 4.0)])
                    .unwrap(),
            ],
        )
    }

    #[test]
    fn plan_classifies_inner_band_outer() {
        let regions = three_squares();
        let vp = Filter::SpatialBox(BoundingBox::from_coords(0.0, 0.0, 10.0, 10.0));
        let p = plan(&regions, &[vp], 0.5);
        assert_eq!(p.inner, vec![0]);
        assert_eq!(p.band, vec![1]);
        assert_eq!(p.outer, vec![2]);
        assert_eq!(p.blocks, vec![0]);
    }

    #[test]
    fn plan_without_viewport_is_all_inner() {
        let regions = three_squares();
        let p = plan(&regions, &[Filter::Time(TimeRange::new(0, 5))], 0.5);
        assert_eq!(p.inner, vec![0, 1, 2]);
        assert!(p.band.is_empty() && p.outer.is_empty());
    }

    #[test]
    fn plan_with_empty_viewport_is_all_outer() {
        let regions = three_squares();
        let a = Filter::SpatialBox(BoundingBox::from_coords(0.0, 0.0, 1.0, 1.0));
        let b = Filter::SpatialBox(BoundingBox::from_coords(50.0, 50.0, 60.0, 60.0));
        let p = plan(&regions, &[a, b], 0.5);
        assert!(p.inner.is_empty() && p.band.is_empty());
        assert_eq!(p.outer.len(), 3);
    }

    #[test]
    fn margin_widens_the_band() {
        let regions = three_squares();
        let vp = Filter::SpatialBox(BoundingBox::from_coords(0.0, 0.0, 10.0, 10.0));
        // A margin wide enough pushes the deep-inner region into the band.
        let p = plan(&regions, std::slice::from_ref(&vp), 7.0);
        assert!(p.inner.is_empty());
        assert!(p.band.contains(&0));
    }

    #[test]
    fn get_insert_and_canonical_guard() {
        let c = BlockCache::new(1 << 16);
        assert!(c.get("k1").is_none());
        c.insert("k1".into(), entry(4));
        let hit = c.get("k1").unwrap();
        assert_eq!(hit.states.len(), 4);
        assert!(c.get("k2").is_none());
        let st = c.stats();
        assert_eq!(st.hits, 1);
        assert_eq!(st.entries, 1);
        assert!(st.bytes > 0);
    }

    #[test]
    fn zero_budget_disables() {
        let c = BlockCache::new(0);
        assert!(!c.enabled());
        c.insert("k".into(), entry(1));
        assert!(c.get("k").is_none());
        assert_eq!(c.stats().entries, 0);
    }

    #[test]
    fn byte_budget_evicts_the_coldest() {
        let unit = entry(BLOCK_REGIONS as usize);
        let unit_cost = unit.cost(2);
        let c = BlockCache::new(unit_cost * 2 + unit_cost / 2); // fits two
        c.insert("k1".into(), unit.clone());
        c.insert("k2".into(), unit.clone());
        assert!(c.get("k1").is_some()); // refresh k1
        c.insert("k3".into(), unit.clone()); // evicts k2 (coldest)
        assert!(c.get("k2").is_none());
        assert!(c.get("k1").is_some());
        assert!(c.get("k3").is_some());
        let st = c.stats();
        assert_eq!(st.evictions, 1);
        assert_eq!(st.entries, 2);
        assert!(st.bytes as usize <= unit_cost * 2 + unit_cost / 2);
        // An entry larger than the entire budget is refused outright.
        c.insert("huge".into(), entry(10_000));
        assert!(c.get("huge").is_none());
    }

    #[test]
    fn replacement_rebalances_bytes() {
        let c = BlockCache::new(1 << 16);
        c.insert("k".into(), entry(64));
        let big = c.stats().bytes;
        c.insert("k".into(), entry(4));
        let small = c.stats().bytes;
        assert!(small < big);
        assert_eq!(c.stats().entries, 1);
    }

    #[test]
    fn purge_by_prefix_frees_bytes() {
        let c = BlockCache::new(1 << 16);
        c.insert("taxi|0|a".into(), entry(4));
        c.insert("taxi|0|b".into(), entry(4));
        c.insert("crime|0|a".into(), entry(4));
        c.purge("taxi|");
        assert!(c.get("taxi|0|a").is_none());
        assert!(c.get("crime|0|a").is_some());
        let st = c.stats();
        assert_eq!(st.entries, 1);
        assert_eq!(st.bytes, entry(4).cost("crime|0|a".len()) as u64);
    }

    #[test]
    fn event_counters_accumulate() {
        let c = BlockCache::new(1 << 10);
        c.note_partial_hit();
        c.note_residual_blocks(3);
        c.note_residual_blocks(2);
        let st = c.stats();
        assert_eq!(st.partial_hits, 1);
        assert_eq!(st.residual_blocks, 5);
    }
}
