//! The traced run's per-layer numbers.
//!
//! Spans are recorded by the benchmark itself: one around each HTTP call
//! of the traced pass, in the loop (with the service's `guard.elapsed_ms`
//! attached), and one around each in-process replay of that request's
//! inputs through the public function of the layer that does the work.
//! Spans stay in memory and are written out once, at the end.

use crate::check::{served_answer, Failure};
use crate::drive::{Outcome, Phase, Span, Summary};
use crate::reference::{archive_rows, hilbert_ordered, Reference, Source};
use crate::server::Counters;
use crate::stats::{mean, median, percentile};
use crate::workload::{Sequence, Workload};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;
use raster_join::PointStore;
use urban_data::PointTable;
use urbane_geom::bbox::BoundingBox;
use urbane_geom::point::Point;
use urbane_serve::wire;

/// Requests replayed in process per traced run (every k-th of the phase).
const REPLAY_OPS: usize = 160;

/// In-memory span log.
#[derive(Debug, Default)]
pub struct Spans {
    spans: Vec<Span>,
    clock: Option<Instant>,
}

impl Spans {
    fn now_us(&mut self) -> f64 {
        let t0 = *self.clock.get_or_insert_with(Instant::now);
        t0.elapsed().as_secs_f64() * 1e6
    }

    /// Time `f` as a child of `parent`, returning its result and ms.
    fn time<T>(
        &mut self,
        name: &'static str,
        request: usize,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let start_us = self.now_us();
        let out = std::hint::black_box(f());
        let end_us = self.now_us();
        self.spans.push(Span {
            name,
            request,
            parent,
            start_us,
            end_us,
            guard_ms: None,
        });
        (out, (end_us - start_us) / 1e3)
    }

    /// Write the log as JSON lines.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let guard = s.guard_ms.map_or("null".to_string(), |g| g.to_string());
            writeln!(
                out,
                r#"{{"id":{id},"name":"{}","request":{},"parent":{parent},"start_us":{:.3},"end_us":{:.3},"guard_elapsed_ms":{guard}}}"#,
                s.name, s.request, s.start_us, s.end_us
            )?;
        }
        out.flush()
    }
}

/// Inputs of the per-layer replay.
pub struct Traced<'a> {
    /// The workload.
    pub workload: Workload,
    /// Its sequence.
    pub seq: &'a Sequence,
    /// The traced pass.
    pub phase: &'a Phase,
    /// Its classified answers (in phase order).
    pub answers: &'a [Result<Summary, Failure>],
    /// `/metrics` before and after the traced pass.
    pub before: &'a Counters,
    /// See `before`.
    pub after: &'a Counters,
    /// Main row count.
    pub rows: usize,
    /// Seed.
    pub seed: u64,
    /// The archive store the server streamed from.
    pub store: Option<&'a Path>,
    /// Scratch directory for the replayed store build.
    pub work: &'a Path,
}

#[derive(Default)]
struct Acc {
    parse_us: Vec<f64>,
    encode_us: Vec<f64>,
    exec_ms: Vec<f64>,
    fixed_ms: Vec<f64>,
    pass_ms: Vec<f64>,
    points_in: Vec<f64>,
    culled: Vec<f64>,
    fragments: Vec<f64>,
    boundary: Vec<f64>,
    candidate_frac: Vec<f64>,
    join_ms: Vec<f64>,
    open_ms: Vec<f64>,
    rows_scanned: Vec<f64>,
    chunks_pruned: f64,
    chunks_scanned: f64,
    bytes_read: Vec<f64>,
    covered_ms: f64,
    client_ms: f64,
}

/// Replay the traced pass layer by layer and return every per-layer
/// metric (name → value, unit), plus the span log.
pub fn replay(t: &Traced<'_>, reference: &mut Reference) -> Result<(Metrics, Spans), String> {
    // The traced pass's HTTP spans come first, so span `i` is request `i`.
    let mut spans = Spans {
        spans: t.phase.spans.clone(),
        clock: None,
    };
    let mut m = Metrics::default();
    let mut acc = Acc::default();

    // data: every table the workload's set-up generates, timed.
    let mut generate_s = 0.0;
    let mut bin_ms = Vec::new();
    for &dataset in &["taxi", "311", "crime"] {
        let rows = t.workload.resident_rows(t.rows);
        let src = Source {
            dataset,
            rows,
            seed: t.seed,
        };
        let (table, ms) = spans.time("data.synthetic_table", usize::MAX, None, || {
            urbane_serve::router::synthetic_table(dataset, rows, t.seed)
                .expect("synthetic data set")
        });
        generate_s += ms / 1e3;
        if t.workload != Workload::Archive && t.workload.datasets().contains(&dataset) {
            let loaded = reference.insert(src, table);
            bin_ms.push(loaded.bin_build_ms);
        }
    }
    let mut store_build_s = 0.0;
    let mut region_index_ms = Vec::new();
    let mut read_chunk_ms = Vec::new();
    if t.workload == Workload::Archive {
        let rows = t.workload.store_rows(t.rows);
        let (table, ms) = spans.time("data.generate_taxi", usize::MAX, None, || {
            archive_rows(rows, t.seed)
        });
        generate_s += ms / 1e3;
        let path = t.work.join("replay.ubs");
        let (built, ms) = spans.time("store.write_file", usize::MAX, None, || {
            urbane_store::StoreBuilder::new().write_file(&table, &path)
        });
        built.map_err(|e| format!("replayed store build: {e}"))?;
        store_build_s = ms / 1e3;
        let _ = std::fs::remove_file(&path);
        reference.insert(
            Source {
                dataset: "archive",
                rows,
                seed: t.seed,
            },
            hilbert_ordered(&table),
        );
        for level in 0..crate::workload::LEVELS {
            let regions = reference.level(level);
            let (_, ms) = spans.time("index.region_index_build", usize::MAX, None, || {
                spatial_index::PackedRegionIndex::build(&regions)
            });
            region_index_ms.push(ms);
        }
        let store = t.store.ok_or("archive replay needs the served store")?;
        let mut src = urbane_store::ChunkedPointSource::open(store).map_err(|e| e.to_string())?;
        for i in 0..src.n_chunks() {
            let (chunk, ms) =
                spans.time("store.read_chunk", usize::MAX, None, || src.read_chunk(i));
            chunk.map_err(|e| e.to_string())?;
            read_chunk_ms.push(ms);
        }
    }
    m.put("data.generate_s", generate_s, "s");
    m.put("data.bin_build_ms", mean(&bin_ms), "ms");

    // Per-request replays.
    let n = t.phase.outcomes.len();
    let stride = n.div_ceil(REPLAY_OPS).max(1);
    for i in (0..n).step_by(stride) {
        let o = &t.phase.outcomes[i];
        let Ok(ans) = &t.answers[i] else { continue };
        let q = &t.seq.queries[o.query];
        let parent = Some(i);
        let body = q.body();
        let (req, parse_ms) =
            spans.time("wire.parse_query", i, parent, || wire::parse_query(&body));
        let req = req.map_err(|e| e.to_string())?;
        acc.parse_us.push(parse_ms * 1e3);
        let regions = reference.level(req.level);
        let table = if q.index {
            let store = t.store.ok_or("index replay needs the served store")?;
            let (src, ms) = spans.time("store.open", i, parent, || {
                urbane_store::ChunkedPointSource::open(store)
            });
            let mut src = src.map_err(|e| e.to_string())?;
            acc.open_ms.push(ms);
            let index = spatial_index::PackedRegionIndex::build(&regions);
            let query = req.to_query();
            let budget = raster_join::QueryBudget::unlimited();
            let (res, ms) = spans.time("index.index_join_stored", i, parent, || {
                spatial_index::index_join_stored(&mut src, &regions, &index, &query, &budget)
            });
            let (table, st) = res.map_err(|e| e.to_string())?;
            acc.join_ms.push(ms);
            acc.rows_scanned.push(st.rows_scanned as f64);
            acc.chunks_pruned += st.chunks_pruned as f64;
            acc.chunks_scanned += st.chunks_scanned as f64;
            acc.bytes_read.push(src.stats().bytes_read as f64);
            table
        } else {
            let src = Source {
                dataset: q.dataset,
                rows: t.workload.resident_rows(t.rows),
                seed: t.seed,
            };
            let data = reference.load(src);
            let (res, ms) = spans.time("core.execute_store", i, parent, || {
                reference.raster(data.store(), &req)
            });
            let res = res?;
            // The same request over a store with no points: only the canvas,
            // the polygon raster and the gather remain.
            let empty = PointTable::new(data.table.schema().clone());
            let (fixed, fixed_ms) = spans.time("core.execute_store.fixed", i, parent, || {
                reference.raster(PointStore::plain(&empty), &req)
            });
            fixed?;
            acc.exec_ms.push(ms);
            acc.fixed_ms.push(fixed_ms);
            acc.pass_ms.push(ms - fixed_ms);
            acc.points_in.push(res.stats.points_in as f64);
            acc.culled.push(res.stats.points_culled as f64);
            acc.fragments.push(res.stats.fragments as f64);
            acc.boundary.push(res.stats.boundary_cells as f64);
            if let (Some(bins), Some([x0, y0, x1, y1])) = (&data.bins, q.bbox) {
                let mut out = Vec::new();
                bins.candidates_into(
                    &BoundingBox::new(Point::new(x0, y0), Point::new(x1, y1)),
                    &mut out,
                );
                acc.candidate_frac
                    .push(out.len() as f64 / data.table.len().max(1) as f64);
            }
            res.table
        };
        let answer = served_answer(table, regions, ans.generation);
        let (_, encode_ms) = spans.time("wire.answer_to_json", i, parent, || {
            wire::answer_to_json(&req, &answer).to_string().len()
        });
        acc.encode_us.push(encode_ms * 1e3);
        acc.covered_ms += ans.elapsed_ms + parse_ms + encode_ms;
        acc.client_ms += o.rtt_ms;
    }

    // server + wire
    let valid: Vec<(&Outcome, &Summary)> = t
        .phase
        .outcomes
        .iter()
        .zip(t.answers)
        .filter_map(|(o, a)| a.as_ref().ok().map(|a| (o, a)))
        .collect();
    let overhead: Vec<f64> = valid.iter().map(|(o, a)| o.rtt_ms - a.elapsed_ms).collect();
    let kb: Vec<f64> = valid.iter().map(|(o, _)| o.bytes as f64 / 1024.0).collect();
    let elapsed: Vec<f64> = valid.iter().map(|(_, a)| a.elapsed_ms).collect();
    m.put("server.overhead_p50_ms", median(&overhead), "ms");
    m.put("server.response_kb", mean(&kb), "KiB");
    m.put(
        "server.shed",
        t.after.delta(t.before, "urbane_shed_total"),
        "count",
    );
    m.put("wire.parse_us", median(&acc.parse_us), "us");
    m.put("wire.encode_us", median(&acc.encode_us), "us");

    // urbane service
    let d = |name: &str| t.after.delta(t.before, name);
    let hits = d("urbane_cache_hits_total");
    let misses = d("urbane_cache_misses_total");
    let rungs = ["full", "degraded_bounded", "preview_sample", "cached"]
        .map(|p| d(&format!("urbane_guard_path_total{{path=\"{p}\"}}")));
    let answered: f64 = rungs.iter().sum();
    m.put("service.elapsed_p50_ms", percentile(&elapsed, 0.50), "ms");
    m.put("service.elapsed_p95_ms", percentile(&elapsed, 0.95), "ms");
    m.put(
        "service.cache_hit_frac",
        ratio(hits, hits + misses),
        "fraction",
    );
    m.put("service.cache_hits", hits, "count");
    m.put("service.cache_misses", misses, "count");
    m.put(
        "service.single_flight_followers",
        d("urbane_single_flight_followers_total"),
        "count",
    );
    m.put(
        "service.degraded_frac",
        ratio(rungs[1] + rungs[2], answered),
        "fraction",
    );
    m.put(
        "service.streamed_queries",
        d("urbane_store_streamed_queries_total"),
        "count",
    );
    m.put(
        "service.page_ins",
        d("urbane_store_page_ins_total"),
        "count",
    );

    // core / raster
    let exec_s: f64 = acc.exec_ms.iter().sum::<f64>() / 1e3;
    m.put("core.execute_p50_ms", median(&acc.exec_ms), "ms");
    m.put("core.fixed_ms", median(&acc.fixed_ms), "ms");
    m.put("core.point_pass_ms", median(&acc.pass_ms), "ms");
    m.put("core.points_in", mean(&acc.points_in), "count");
    m.put("core.points_culled", mean(&acc.culled), "count");
    m.put("core.fragments", mean(&acc.fragments), "count");
    m.put("core.boundary_cells", mean(&acc.boundary), "count");
    m.put(
        "core.points_per_s",
        ratio(acc.points_in.iter().sum(), exec_s),
        "1/s",
    );
    m.put(
        "data.bin_candidate_frac",
        mean(&acc.candidate_frac),
        "fraction",
    );

    // index + store
    m.put("index.join_p50_ms", median(&acc.join_ms), "ms");
    m.put("index.rows_scanned", mean(&acc.rows_scanned), "count");
    m.put(
        "index.chunk_prune_frac",
        ratio(acc.chunks_pruned, acc.chunks_pruned + acc.chunks_scanned),
        "fraction",
    );
    m.put("index.region_index_build_ms", mean(&region_index_ms), "ms");
    m.put("store.build_s", store_build_s, "s");
    m.put("store.open_ms", median(&acc.open_ms), "ms");
    m.put("store.read_chunk_p50_ms", median(&read_chunk_ms), "ms");
    m.put("store.bytes_read_per_query", mean(&acc.bytes_read), "bytes");

    // the trace itself
    m.put(
        "trace.coverage",
        ratio(acc.covered_ms, acc.client_ms),
        "fraction",
    );
    m.put(
        "trace.overhead_frac",
        ratio(t.phase.record_s, t.phase.wall_s),
        "fraction",
    );
    Ok((m, spans))
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Named metrics with units, in a stable order.
#[derive(Debug, Default, Clone)]
pub struct Metrics(pub BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    /// Set one metric.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.insert(name.to_string(), (value, unit));
    }
}
