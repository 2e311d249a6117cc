//! The benchmark's own copy of what the server computes: the same
//! generated data, the served configuration, and direct calls into the
//! executors. Used to recompute sampled answers and to replay requests
//! layer by layer.

use crate::workload::archive_start;
use raster_join::{
    CanvasSpec, ExecutionMode, PointStore, QueryBudget, RasterJoin, RasterJoinConfig,
    RasterJoinResult,
};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;
use urban_data::gen::city::CityModel;
use urban_data::gen::taxi::{generate_taxi, TaxiConfig};
use urban_data::{BinnedPointTable, PointTable, RegionSet};
use urbane::service::QueryRequest;
use urbane::ResolutionPyramid;

/// urbane-serve's default `--resolution` (the benchmark boots it with
/// default flags, so this is the served canvas).
pub const SERVED_RESOLUTION: u32 = 512;

/// The pyramid urbane-serve builds at boot.
pub fn served_pyramid() -> ResolutionPyramid {
    ResolutionPyramid::standard(&CityModel::nyc_like().bbox(), 16, 8, 5)
}

/// The raster configuration the service resolves a request to.
pub fn join_config(req: &QueryRequest) -> RasterJoinConfig {
    RasterJoinConfig {
        spec: CanvasSpec::Resolution(req.resolution.unwrap_or(SERVED_RESOLUTION)),
        mode: req.mode,
        ..RasterJoinConfig::with_resolution(SERVED_RESOLUTION)
    }
}

/// One generated data set, with the bins the service would build for it.
pub struct Loaded {
    /// The rows, in the order the server holds them.
    pub table: PointTable,
    /// Spatial bins (the service bins every table past the auto threshold).
    pub bins: Option<BinnedPointTable>,
    /// Time to build the bins, ms (0 without bins).
    pub bin_build_ms: f64,
}

impl Loaded {
    fn new(table: PointTable, with_bins: bool) -> Loaded {
        let t = Instant::now();
        let bins = (with_bins && table.len() >= raster_join::MIN_AUTO_BIN_POINTS)
            .then(|| BinnedPointTable::build(&table));
        let bin_build_ms = if bins.is_some() {
            t.elapsed().as_secs_f64() * 1e3
        } else {
            0.0
        };
        Loaded {
            table,
            bins,
            bin_build_ms,
        }
    }

    /// The point store the service would hand the executor.
    pub fn store(&self) -> PointStore<'_> {
        match &self.bins {
            Some(b) => PointStore::with_bins(&self.table, b),
            None => PointStore::plain(&self.table),
        }
    }
}

/// Where a data set's rows come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Source {
    /// Catalog name.
    pub dataset: &'static str,
    /// Rows.
    pub rows: usize,
    /// Generator seed.
    pub seed: u64,
}

/// Generated tables, built once per source.
pub struct Reference {
    pyramid: ResolutionPyramid,
    loaded: HashMap<Source, Arc<Loaded>>,
}

impl Default for Reference {
    fn default() -> Self {
        Reference {
            pyramid: served_pyramid(),
            loaded: HashMap::new(),
        }
    }
}

/// The archive rows as the store holds them: `urbane-cli generate`'s taxi
/// table, in the store's Hilbert order.
pub fn hilbert_ordered(table: &PointTable) -> PointTable {
    let perm = urbane_store::hilbert_permutation(table);
    let mut out = PointTable::with_capacity(table.schema().clone(), table.len());
    let mut attrs = vec![0.0f32; table.schema().len()];
    for &i in &perm {
        let i = i as usize;
        for (c, a) in attrs.iter_mut().enumerate() {
            *a = table.attr(i, c);
        }
        out.push(table.loc(i), table.time(i), &attrs)
            .expect("row matches its own schema");
    }
    out
}

/// The archive's rows in generation order, as `urbane-cli generate` makes them.
pub fn archive_rows(rows: usize, seed: u64) -> PointTable {
    generate_taxi(
        &CityModel::nyc_like(),
        &TaxiConfig {
            rows,
            seed,
            start: archive_start(),
            days: 30,
        },
    )
}

impl Reference {
    /// A pyramid level.
    pub fn level(&self, level: usize) -> Arc<RegionSet> {
        self.pyramid
            .level(level)
            .expect("generated queries use served levels")
    }

    /// Install an already generated table (so a replay can time the
    /// generation itself).
    pub fn insert(&mut self, src: Source, table: PointTable) -> Arc<Loaded> {
        let archive = src.dataset == "archive";
        let loaded = Arc::new(Loaded::new(table, !archive));
        self.loaded.insert(src, Arc::clone(&loaded));
        loaded
    }

    /// The rows behind `src`, generated on first use exactly as the server
    /// (or `urbane-cli` for the archive) generates them.
    pub fn load(&mut self, src: Source) -> Arc<Loaded> {
        if let Some(l) = self.loaded.get(&src) {
            return Arc::clone(l);
        }
        let table = if src.dataset == "archive" {
            hilbert_ordered(&archive_rows(src.rows, src.seed))
        } else {
            urbane_serve::router::synthetic_table(src.dataset, src.rows, src.seed)
                .expect("workloads only name synthetic data sets")
        };
        self.insert(src, table)
    }

    /// Evaluate `req` over `store` the way the service's full rung does.
    pub fn raster(
        &self,
        store: PointStore<'_>,
        req: &QueryRequest,
    ) -> Result<RasterJoinResult, String> {
        RasterJoin::new(join_config(req))
            .execute_store(
                store,
                &self.level(req.level),
                &req.to_query(),
                &QueryBudget::unlimited(),
            )
            .map_err(|e| e.to_string())
    }

    /// The exact in-memory index join.
    pub fn index(&self, data: &Loaded, req: &QueryRequest) -> Result<urban_data::AggTable, String> {
        let regions = self.level(req.level);
        let index = spatial_index::PackedRegionIndex::build(&regions);
        spatial_index::index_join(&data.table, &regions, &index, &req.to_query())
            .map_err(|e| e.to_string())
    }

    /// The table the server should have answered `req` with.
    pub fn answer(
        &self,
        data: &Loaded,
        req: &QueryRequest,
    ) -> Result<urban_data::AggTable, String> {
        if req.mode == ExecutionMode::IndexJoin {
            self.index(data, req)
        } else {
            self.raster(data.store(), req).map(|r| r.table)
        }
    }
}
