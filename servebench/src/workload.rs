//! The three workloads and their seeded, fixed-length operation sequences.
//!
//! Every sequence is generated from `--seed` before any timing starts, so
//! two runs with one seed and one length send byte-identical requests in
//! the same order. Nothing here looks at the server.

use std::collections::HashSet;
use urban_data::gen::city::CityModel;
use urban_data::time::{timestamp, DAY, HOUR};

/// Pyramid levels the server ships (boroughs, neighborhoods, grid).
pub const LEVELS: usize = 3;

/// The workloads, each stressing a different layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One analyst's zoom/pan/drill session: nearly every query is a full
    /// Raster Join pass.
    Pan,
    /// Two analysts on linked views: mostly exact-key cache hits, with
    /// reloads at epoch barriers.
    Dashboard,
    /// Exact index-mode queries streamed from a cold `.ubs` store.
    Archive,
}

impl Workload {
    /// Parse a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "pan" => Some(Workload::Pan),
            "dashboard" => Some(Workload::Dashboard),
            "archive" => Some(Workload::Archive),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Pan => "pan",
            Workload::Dashboard => "dashboard",
            Workload::Archive => "archive",
        }
    }

    /// Closed-loop connections (one analyst each).
    pub fn connections(self) -> usize {
        match self {
            Workload::Dashboard => 2,
            Workload::Pan | Workload::Archive => 1,
        }
    }

    /// Default rows of the workload's main data set: the server's resident
    /// `--rows` for `pan`/`dashboard`, the store's rows for `archive`.
    pub fn default_rows(self) -> usize {
        match self {
            Workload::Pan | Workload::Dashboard => 500_000,
            Workload::Archive => 1_000_000,
        }
    }

    /// Rows per resident synthetic data set the server generates at boot.
    pub fn resident_rows(self, rows: usize) -> usize {
        match self {
            Workload::Pan | Workload::Dashboard => rows,
            // The archive server never queries its resident sets; keep them
            // small so `peak_rss_mb` is the store path's.
            Workload::Archive => (rows / 10).max(1),
        }
    }

    /// Rows of the cold `.ubs` store (archive only).
    pub fn store_rows(self, rows: usize) -> usize {
        match self {
            Workload::Archive => rows,
            Workload::Pan | Workload::Dashboard => 0,
        }
    }

    /// Queries per connection per second of `--seconds`. The operation
    /// count is this rate times the run length — fixed per (workload,
    /// length), never stretched or cut by how fast the server answers.
    fn ops_per_second(self) -> usize {
        match self {
            Workload::Pan => 190,
            Workload::Dashboard => 320,
            Workload::Archive => 40,
        }
    }

    /// Data sets the workload queries.
    pub fn datasets(self) -> &'static [&'static str] {
        match self {
            Workload::Pan => &["taxi"],
            Workload::Dashboard => &["taxi", "311", "crime"],
            Workload::Archive => &["archive"],
        }
    }
}

/// SplitMix64: tiny, seedable, and identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one purpose of one seed.
    pub fn new(seed: u64, stream: &str) -> Rng {
        Rng(seed ^ fnv1a(stream.as_bytes()))
    }

    /// Next raw 64 bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Uniform index in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// FNV-1a, for stream names and the sequence digest.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// One `POST /query` body, kept structured so the in-process replays can
/// swap its viewport.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// Catalog name.
    pub dataset: &'static str,
    /// Pyramid level.
    pub level: usize,
    /// Wire aggregate spec.
    pub agg: &'static str,
    /// `mode=index` (exact) instead of the default bounded raster.
    pub index: bool,
    /// Viewport `[x0, y0, x1, y1]`, world units.
    pub bbox: Option<[f64; 4]>,
    /// Half-open time window.
    pub time: Option<(i64, i64)>,
}

impl Query {
    /// The request body, exactly as sent.
    pub fn body(&self) -> String {
        let mut filters = Vec::new();
        if let Some((s, e)) = self.time {
            filters.push(format!(r#"{{"type":"time","start":{s},"end":{e}}}"#));
        }
        if let Some([x0, y0, x1, y1]) = self.bbox {
            filters.push(format!(
                r#"{{"type":"bbox","x0":{x0},"y0":{y0},"x1":{x1},"y1":{y1}}}"#
            ));
        }
        let mode = if self.index { r#","mode":"index""# } else { "" };
        format!(
            r#"{{"dataset":"{}","level":{},"agg":"{}"{mode},"filters":[{}]}}"#,
            self.dataset,
            self.level,
            self.agg,
            filters.join(",")
        )
    }

    /// Does the viewport overlap `other`'s?
    fn overlaps(&self, other: &Query) -> bool {
        match (self.bbox, other.bbox) {
            (Some(a), Some(b)) => a[0] < b[2] && b[0] < a[2] && a[1] < b[3] && b[1] < a[3],
            _ => false,
        }
    }
}

/// A `/reload` of a synthetic data set at the epoch barrier.
#[derive(Debug, Clone, PartialEq)]
pub struct Reload {
    /// Data set to regenerate.
    pub dataset: &'static str,
    /// Rows of the regenerated table.
    pub rows: usize,
    /// Generator seed of the regenerated table.
    pub seed: u64,
}

impl Reload {
    /// The request body.
    pub fn body(&self) -> String {
        format!(
            r#"{{"dataset":"{}","rows":{},"seed":{}}}"#,
            self.dataset, self.rows, self.seed
        )
    }
}

/// Queries each connection sends between two barriers, and the write (if
/// any) the barrier after them carries.
#[derive(Debug, Clone)]
pub struct Epoch {
    /// Per connection, indices into [`Sequence::queries`].
    pub lanes: Vec<Vec<usize>>,
    /// A reload run at the barrier that ends this epoch.
    pub reload: Option<Reload>,
}

/// The whole fixed-work plan of one run.
#[derive(Debug, Clone)]
pub struct Sequence {
    /// Distinct request bodies (dashboard: the view catalog).
    pub queries: Vec<Query>,
    /// The timed phase, barrier to barrier.
    pub epochs: Vec<Epoch>,
    /// Set-up queries: one per (data set, level) the workload touches.
    pub warmup: Vec<Query>,
}

/// Workload property shares, each with its base.
#[derive(Debug, Clone, Default)]
pub struct Properties {
    /// Queries whose exact body was already sent earlier in the phase.
    pub repeats: usize,
    /// Consecutive query pairs (same connection) whose viewports overlap.
    pub overlapping_steps: usize,
    /// Base of `overlapping_steps`.
    pub steps: usize,
    /// Reloads in the timed phase.
    pub reloads: usize,
}

impl Sequence {
    /// Queries in the timed phase.
    pub fn op_count(&self) -> usize {
        self.epochs
            .iter()
            .map(|e| e.lanes.iter().map(Vec::len).sum::<usize>())
            .sum()
    }

    /// The timed phase in one flat order (epoch, connection, position).
    pub fn flat_ops(&self) -> Vec<usize> {
        let mut out = Vec::with_capacity(self.op_count());
        for e in &self.epochs {
            for lane in &e.lanes {
                out.extend_from_slice(lane);
            }
        }
        out
    }

    /// Digest of everything the run sends, in order.
    pub fn digest(&self) -> String {
        let mut text = String::new();
        for w in &self.warmup {
            text.push_str(&w.body());
        }
        for e in &self.epochs {
            for (c, lane) in e.lanes.iter().enumerate() {
                text.push_str(&format!("|c{c}:"));
                for &q in lane {
                    text.push_str(&self.queries[q].body());
                }
            }
            if let Some(r) = &e.reload {
                text.push_str(&r.body());
            }
        }
        format!("{:016x}", fnv1a(text.as_bytes()))
    }

    /// Repeat and overlap shares of the timed phase.
    pub fn properties(&self) -> Properties {
        let mut p = Properties::default();
        let mut seen = HashSet::new();
        for &q in &self.flat_ops() {
            if !seen.insert(self.queries[q].body()) {
                p.repeats += 1;
            }
        }
        for e in &self.epochs {
            for lane in &e.lanes {
                for pair in lane.windows(2) {
                    p.steps += 1;
                    if self.queries[pair[1]].overlaps(&self.queries[pair[0]]) {
                        p.overlapping_steps += 1;
                    }
                }
            }
            p.reloads += usize::from(e.reload.is_some());
        }
        p
    }
}

const TAXI_AGGS: [&str; 6] = [
    "count",
    "sum:fare",
    "avg:fare",
    "avg:tip",
    "max:distance",
    "avg:distance",
];
const AGGS_311: [&str; 3] = ["count", "avg:response_hours", "max:response_hours"];
const CRIME_AGGS: [&str; 3] = ["count", "avg:severity", "sum:severity"];

fn aggs_of(dataset: &str) -> &'static [&'static str] {
    match dataset {
        "311" => &AGGS_311,
        "crime" => &CRIME_AGGS,
        _ => &TAXI_AGGS,
    }
}

/// Days covered by every synthetic data set.
const DAYS: i64 = 30;

/// First timestamp of the archive store (`urbane-cli generate` starts its
/// synthetic data on this date; the server's resident sets start at 0).
pub fn archive_start() -> i64 {
    timestamp(2009, 1, 1, 0, 0, 0)
}

fn time_window(rng: &mut Rng, start: i64, lengths: &[i64]) -> (i64, i64) {
    let len = lengths[rng.below(lengths.len())] * DAY;
    let hours = ((DAYS * DAY - len) / HOUR).max(1) as usize;
    let s = start + rng.below(hours + 1) as i64 * HOUR;
    (s, s + len)
}

/// Round to 0.1 world units, so bodies stay short and parse back exactly.
fn r1(v: f64) -> f64 {
    (v * 10.0).round() / 10.0
}

fn viewport(cx: f64, cy: f64, half_w: f64) -> [f64; 4] {
    let half_h = half_w * 0.75;
    [
        r1(cx - half_w),
        r1(cy - half_h),
        r1(cx + half_w),
        r1(cy + half_h),
    ]
}

/// A walker over the city that zooms, pans and drills the way one analyst
/// explores a map: each step moves the viewport by less than its width, so
/// consecutive viewports overlap, except for rare jumps to another area.
struct Walker {
    rng: Rng,
    cx: f64,
    cy: f64,
    half_w: f64,
    level: usize,
}

impl Walker {
    const MIN_HALF_W: f64 = 1_500.0;
    const MAX_HALF_W: f64 = 12_000.0;

    fn new(mut rng: Rng) -> Walker {
        let city = CityModel::nyc_like().bbox();
        let cx = rng.range(city.min.x, city.max.x);
        let cy = rng.range(city.min.y, city.max.y);
        Walker {
            rng,
            cx,
            cy,
            half_w: 6_000.0,
            level: 1,
        }
    }

    fn step(&mut self) -> Query {
        let city = CityModel::nyc_like().bbox();
        let rng = &mut self.rng;
        if rng.unit() < 0.08 {
            self.cx = rng.range(city.min.x, city.max.x);
            self.cy = rng.range(city.min.y, city.max.y);
            self.half_w = rng.range(3_000.0, 9_000.0);
        } else {
            let old = self.half_w;
            self.half_w =
                (old * rng.range(-0.3, 0.3).exp()).clamp(Self::MIN_HALF_W, Self::MAX_HALF_W);
            self.cx = (self.cx + rng.range(-0.6, 0.6) * old).clamp(city.min.x, city.max.x);
            self.cy = (self.cy + rng.range(-0.45, 0.45) * old).clamp(city.min.y, city.max.y);
        }
        if rng.unit() < 0.3 {
            self.level = match (self.level, rng.unit() < 0.5) {
                (0, _) => 1,
                (l, true) if l + 1 < LEVELS => l + 1,
                (l, _) => l - 1,
            };
        }
        Query {
            dataset: "taxi",
            level: self.level,
            agg: TAXI_AGGS[rng.below(TAXI_AGGS.len())],
            index: false,
            bbox: Some(viewport(self.cx, self.cy, self.half_w)),
            time: Some(time_window(rng, 0, &[1, 2, 3, 7, 14])),
        }
    }
}

/// An exact, zoomed-in archive query around one of the city's busy areas.
fn archive_query(rng: &mut Rng) -> Query {
    let city = CityModel::nyc_like();
    let (cx, cy) = if rng.unit() < 0.7 {
        let spots = city.hotspots();
        let h = &spots[rng.below(spots.len())];
        (
            h.center.x + rng.range(-3_000.0, 3_000.0),
            h.center.y + rng.range(-3_000.0, 3_000.0),
        )
    } else {
        let b = city.bbox();
        (rng.range(b.min.x, b.max.x), rng.range(b.min.y, b.max.y))
    };
    let half_w = rng.range(800.0_f64.ln(), 4_000.0_f64.ln()).exp();
    Query {
        dataset: "archive",
        level: rng.below(LEVELS),
        agg: TAXI_AGGS[rng.below(TAXI_AGGS.len())],
        index: true,
        bbox: Some(viewport(cx, cy, half_w)),
        time: Some(time_window(rng, archive_start(), &[3, 7, 14, 30])),
    }
}

fn warmup(datasets: &[&'static str], index: bool) -> Vec<Query> {
    // No filters: these keys can never collide with a timed-phase body,
    // which always carries a time window.
    let mut out = Vec::new();
    for &dataset in datasets {
        for level in 0..LEVELS {
            out.push(Query {
                dataset,
                level,
                agg: "count",
                index,
                bbox: None,
                time: None,
            });
        }
    }
    out
}

/// Build the run's sequence. `rows` is the workload's main row count
/// (see [`Workload::default_rows`]).
pub fn generate(workload: Workload, seed: u64, seconds: u64, rows: usize) -> Sequence {
    let per_conn = (workload.ops_per_second() * seconds as usize).max(1);
    match workload {
        Workload::Pan => {
            let mut walker = Walker::new(Rng::new(seed, "pan"));
            let queries: Vec<Query> = (0..per_conn).map(|_| walker.step()).collect();
            Sequence {
                epochs: vec![Epoch {
                    lanes: vec![(0..queries.len()).collect()],
                    reload: None,
                }],
                queries,
                warmup: warmup(&["taxi"], false),
            }
        }
        Workload::Archive => {
            let mut rng = Rng::new(seed, "archive");
            let queries: Vec<Query> = (0..per_conn).map(|_| archive_query(&mut rng)).collect();
            Sequence {
                epochs: vec![Epoch {
                    lanes: vec![(0..queries.len()).collect()],
                    reload: None,
                }],
                queries,
                warmup: warmup(&["archive"], true),
            }
        }
        Workload::Dashboard => dashboard(seed, per_conn, rows),
    }
}

/// Queries per connection between two barriers.
const EPOCH_OPS: usize = 30;
/// A reload runs at every `RELOAD_EVERY`-th barrier: one per 120 queries,
/// which re-misses about 7% of them, so the p95 falls on the write path's
/// misses rather than on scheduling jitter among hits.
const RELOAD_EVERY: usize = 2;
/// Views per data set in the linked-view catalog.
const VIEWS_PER_DATASET: usize = 8;

fn dashboard(seed: u64, per_conn: usize, rows: usize) -> Sequence {
    let mut rng = Rng::new(seed, "dashboard");
    let datasets: [&'static str; 3] = ["taxi", "311", "crime"];
    let city = CityModel::nyc_like().bbox();

    // The view catalog, indexed by popularity rank. Rank fixes the data set
    // and level (and so the answer's size), so a hit costs the same for
    // every seed; the seed picks aggregates, time windows and viewports.
    // The most popular third of the traffic goes to the middle level, so
    // the p50 falls inside one answer size instead of between two.
    // Every view carries a time window, so it never collides with a warm-up
    // key; every other triple of ranks is clipped to a viewport.
    let views: Vec<Query> = (0..datasets.len() * VIEWS_PER_DATASET)
        .map(|rank| {
            let dataset = datasets[(rank / LEVELS) % datasets.len()];
            let aggs = aggs_of(dataset);
            let bbox = ((rank / LEVELS) % 2 == 1).then(|| {
                let cx = rng.range(city.min.x, city.max.x);
                let cy = rng.range(city.min.y, city.max.y);
                viewport(cx, cy, rng.range(4_000.0, 10_000.0))
            });
            Query {
                dataset,
                level: [1, 0, 2][rank % LEVELS],
                agg: aggs[rng.below(aggs.len())],
                index: false,
                bbox,
                time: Some(time_window(&mut rng, 0, &[1, 7, 30])),
            }
        })
        .collect();

    // Zipf(1) popularity over the ranks.
    let weights: Vec<f64> = (1..=views.len()).map(|r| 1.0 / r as f64).collect();
    let total: f64 = weights.iter().sum();
    let draw = |rng: &mut Rng| -> usize {
        let mut u = rng.unit() * total;
        for (rank, w) in weights.iter().enumerate() {
            if u < *w {
                return rank;
            }
            u -= w;
        }
        views.len() - 1
    };
    // The most popular view of a data set: what both analysts look at
    // first after it reloads.
    let top_view =
        |dataset: &str| -> usize { views.iter().position(|v| v.dataset == dataset).unwrap_or(0) };

    let n_epochs = per_conn.div_ceil(EPOCH_OPS);
    let mut warm: HashSet<usize> = HashSet::new();
    // Reloads cycle through the data sets in a seeded order, so every run
    // regenerates each of them equally often.
    let mut reload_rng = Rng::new(seed, "dashboard-reload");
    let mut reload_order = datasets;
    for i in (1..reload_order.len()).rev() {
        reload_order.swap(i, reload_rng.below(i + 1));
    }
    let mut n_reloads = 0;
    let mut refresh_view: Option<usize> = None;
    let mut epochs = Vec::with_capacity(n_epochs);
    for e in 0..n_epochs {
        let len = EPOCH_OPS.min(per_conn - e * EPOCH_OPS);
        let mut lanes: Vec<Vec<usize>> = vec![Vec::new(); 2];
        // A view that is cold at the start of the epoch is sent by one
        // connection only, so which reads miss never depends on how the
        // two connections interleave. The post-reload refresh view is the
        // one deliberate exception: both send it first, concurrently, to
        // exercise single-flight.
        let mut cold_owner: Vec<Option<usize>> = vec![None; views.len()];
        if let Some(v) = refresh_view.take() {
            for lane in &mut lanes {
                lane.push(v);
            }
            warm.insert(v);
        }
        let shared = lanes[0].first().copied();
        for pos in lanes[0].len()..len {
            for (c, lane) in lanes.iter_mut().enumerate() {
                let v = loop {
                    let v = draw(&mut rng);
                    // Keep the refresh view off the next few positions: the
                    // follower may be answered a moment before the leader's
                    // cache insert lands.
                    if pos < 4 && Some(v) == shared {
                        continue;
                    }
                    if warm.contains(&v) {
                        break v;
                    }
                    match cold_owner[v] {
                        Some(owner) if owner != c => continue,
                        _ => {
                            cold_owner[v] = Some(c);
                            break v;
                        }
                    }
                };
                lane.push(v);
            }
        }
        for (v, owner) in cold_owner.iter().enumerate() {
            if owner.is_some() {
                warm.insert(v);
            }
        }
        let reload = ((e + 1) % RELOAD_EVERY == 0 && e + 1 < n_epochs).then(|| {
            let dataset = reload_order[n_reloads % reload_order.len()];
            n_reloads += 1;
            warm.retain(|&v| views[v].dataset != dataset);
            refresh_view = Some(top_view(dataset));
            Reload {
                dataset,
                rows,
                seed: reload_rng.next_u64() >> 16,
            }
        });
        epochs.push(Epoch { lanes, reload });
    }
    Sequence {
        queries: views,
        epochs,
        warmup: warmup(&datasets, false),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence_and_fixed_length() {
        for w in [Workload::Pan, Workload::Dashboard, Workload::Archive] {
            let a = generate(w, 7, 2, 1000);
            let b = generate(w, 7, 2, 1000);
            assert_eq!(a.digest(), b.digest(), "{w:?}");
            assert_eq!(
                a.op_count(),
                w.ops_per_second() * 2 * w.connections(),
                "{w:?}"
            );
            let c = generate(w, 8, 2, 1000);
            assert_ne!(a.digest(), c.digest(), "{w:?}");
            assert_eq!(a.op_count(), c.op_count(), "{w:?}");
        }
    }

    #[test]
    fn pan_steps_overlap_and_never_repeat() {
        let s = generate(Workload::Pan, 3, 4, 1000);
        let p = s.properties();
        assert_eq!(p.repeats, 0);
        assert!(p.overlapping_steps * 10 > p.steps * 8, "{p:?}");
    }

    #[test]
    fn dashboard_cold_views_belong_to_one_connection_per_epoch() {
        let s = generate(Workload::Dashboard, 5, 4, 1000);
        assert!(s.properties().reloads > 0);
        let mut warm: HashSet<usize> = HashSet::new();
        for (i, e) in s.epochs.iter().enumerate() {
            // After a reload both connections open with the same view.
            let refresh = (i > 0 && s.epochs[i - 1].reload.is_some()).then(|| e.lanes[0][0]);
            if let Some(v) = refresh {
                assert_eq!(e.lanes[1][0], v);
            }
            let cold = |lane: &Vec<usize>| -> HashSet<usize> {
                lane.iter().copied().filter(|v| !warm.contains(v)).collect()
            };
            let (a, b) = (cold(&e.lanes[0]), cold(&e.lanes[1]));
            assert!(a.intersection(&b).all(|v| Some(*v) == refresh), "epoch {i}");
            warm.extend(a);
            warm.extend(b);
            if let Some(r) = &e.reload {
                warm.retain(|&v| s.queries[v].dataset != r.dataset);
            }
        }
    }

    #[test]
    fn bodies_parse_on_the_wire() {
        for w in [Workload::Pan, Workload::Dashboard, Workload::Archive] {
            let s = generate(w, 1, 1, 1000);
            for q in s.queries.iter().chain(&s.warmup) {
                urbane_serve::wire::parse_query(&q.body()).expect("generated body parses");
            }
        }
    }
}
