//! `servebench` — a closed-loop load generator for the shipped
//! `urbane-serve` binary.
//!
//! ```text
//! servebench --bin-dir target/release --workload pan --seed 1 --seconds 10 --trace 0
//! ```
//!
//! It boots `urbane-serve` (default flags except `--port 0`, `--workers
//! nproc`, `--rows`, `--seed`, and `--store-dir` for `archive`), sends a
//! fixed operation sequence generated from `--seed` to completion over at
//! most `nproc` keep-alive connections, checks every answer, and prints one
//! result line as the last line of stdout. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` replays the same sequence with spans and
//! in-process layer replays and reports the per-layer metrics instead.
//! `servebench/run.sh` builds everything from source and runs this from the
//! repository root; scratch files go to `.bench_work/`.

mod check;
mod drive;
mod layers;
mod reference;
mod server;
mod stats;
mod workload;

use check::{
    classify, expected_generations, sample_slots, verify_sample, Failure, Generations, Verdict,
};
use drive::{Outcome, Summary};
use layers::Metrics;
use reference::Reference;
use server::{Server, CLIENT_TIMEOUT};
use stats::{median, percentile};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;
use workload::{Sequence, Workload};

/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUPS: usize = 5;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    bin_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut bin_dir = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("bad value {v:?} for {flag}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(num(&value)?),
            "--seconds" => seconds = Some(num(&value)?.max(1)),
            "--trace" => trace = num(&value)? != 0,
            "--bin-dir" => bin_dir = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required (pan | dashboard | archive)")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        bin_dir: bin_dir.ok_or("--bin-dir is required (run via servebench/run.sh)")?,
    })
}

/// A scratch directory removed on drop.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

struct Bench {
    args: Args,
    rows: usize,
    workers: usize,
    seq: Sequence,
    work: WorkDir,
}

/// A booted, warmed-up server and how long that took.
struct Ready {
    server: Server,
    setup_s: f64,
    store: Option<PathBuf>,
}

impl Bench {
    fn cli(&self, args: &[&str]) -> Result<(), String> {
        let bin = self.args.bin_dir.join("urbane-cli");
        let out = Command::new(&bin)
            .args(args)
            .output()
            .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
        if !out.status.success() {
            return Err(format!(
                "urbane-cli {}: {}",
                args.join(" "),
                String::from_utf8_lossy(&out.stderr).trim()
            ));
        }
        Ok(())
    }

    /// Boot to ready: build the archive store (archive), spawn the server
    /// (which generates its synthetic catalog), and warm up until every
    /// data set and level the workload uses has returned a full answer.
    fn setup(&self, idx: usize) -> Result<Ready, String> {
        let dir = self.work.0.join(format!("setup{idx}"));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let wl = self.args.workload;
        let mut server_args: Vec<String> = [
            "--port".to_string(),
            "0".into(),
            "--workers".into(),
            self.workers.to_string(),
            "--rows".into(),
            wl.resident_rows(self.rows).to_string(),
            "--seed".into(),
            self.args.seed.to_string(),
        ]
        .into();
        let t0 = Instant::now();
        let mut store = None;
        let upt = dir.join("archive.upt");
        if wl == Workload::Archive {
            let store_dir = dir.join("store");
            std::fs::create_dir_all(&store_dir).map_err(|e| e.to_string())?;
            let ubs = store_dir.join("archive.ubs");
            let (rows, seed) = (
                wl.store_rows(self.rows).to_string(),
                self.args.seed.to_string(),
            );
            let upt_s = upt.to_string_lossy().into_owned();
            self.cli(&[
                "generate", "--kind", "taxi", "--rows", &rows, "--seed", &seed, "--out", &upt_s,
            ])?;
            self.cli(&[
                "build-store",
                "--data",
                &upt_s,
                "--out",
                &ubs.to_string_lossy(),
            ])?;
            server_args.push("--store-dir".into());
            server_args.push(store_dir.to_string_lossy().into_owned());
            store = Some(ubs);
        }
        let server = Server::spawn(
            &self.args.bin_dir.join("urbane-serve"),
            &server_args,
            &dir.join("serve.log"),
        )?;
        drive::warm_up(&server, &self.seq.warmup)?;
        let setup_s = t0.elapsed().as_secs_f64();
        let _ = std::fs::remove_file(&upt);
        // Write the store back to disk now, outside both timings: left to
        // the kernel, its writeback would land in the timed phase.
        if let Some(ubs) = &store {
            std::fs::File::open(ubs)
                .and_then(|f| f.sync_all())
                .map_err(|e| format!("{}: {e}", ubs.display()))?;
        }
        Ok(Ready {
            server,
            setup_s,
            store,
        })
    }
}

/// Classify a phase's outcomes and reloads into `verdict`.
fn gate(
    seq: &Sequence,
    phase: &drive::Phase,
    verdict: &mut Verdict,
) -> Vec<Result<Summary, Failure>> {
    let expected = expected_generations(seq, phase);
    let answers: Vec<_> = phase
        .outcomes
        .iter()
        .zip(&expected)
        .map(|(o, &g)| classify(o, g))
        .collect();
    for a in &answers {
        verdict.record(a);
    }
    verdict.record_reloads(&phase.reloads);
    answers
}

/// A failed request counts at the client timeout: past every latency limit.
fn latency(o: &Outcome, a: &Result<Summary, Failure>) -> f64 {
    if a.is_ok() {
        o.rtt_ms
    } else {
        f64::INFINITY
    }
}

fn finite(ms: f64) -> f64 {
    if ms.is_finite() {
        ms
    } else {
        CLIENT_TIMEOUT.as_secs_f64() * 1e3
    }
}

/// Per reload at a barrier: time to the first full answer carrying the new
/// generation (both connections open the next epoch on the reloaded set).
fn refresh_times(
    seq: &Sequence,
    phase: &drive::Phase,
    answers: &[Result<Summary, Failure>],
) -> Vec<f64> {
    phase
        .reloads
        .iter()
        .map(|ack| {
            let Some(g) = ack.generation else {
                return f64::INFINITY;
            };
            let first = phase
                .outcomes
                .iter()
                .zip(answers)
                .filter(|(o, _)| {
                    o.epoch == ack.epoch + 1 && seq.queries[o.query].dataset == ack.reload.dataset
                })
                .filter_map(|(o, a)| {
                    a.as_ref()
                        .ok()
                        .filter(|a| a.generation == g)
                        .map(|_| o.end_s)
                })
                .fold(f64::INFINITY, f64::min);
            (first - ack.start_s) * 1e3
        })
        .collect()
}

fn git_commit() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn json_str(s: &str) -> String {
    urbane_geom::geojson::Json::String(s.to_string()).to_string()
}

fn metrics_json(m: &Metrics) -> String {
    let items: Vec<String> =
        m.0.iter()
            .map(|(k, (v, u))| {
                format!(
                    r#"{}:{{"value":{},"unit":{}}}"#,
                    json_str(k),
                    v,
                    json_str(u)
                )
            })
            .collect();
    format!("{{{}}}", items.join(","))
}

fn run() -> Result<i32, String> {
    let args = parse_args()?;
    let wl = args.workload;
    let rows = wl.default_rows();
    let workers = std::thread::available_parallelism().map_or(1, usize::from);
    let seq = workload::generate(wl, args.seed, args.seconds, rows);
    let work = Path::new(".bench_work").join(format!(
        "{}-s{}-p{}",
        wl.name(),
        args.seed,
        std::process::id()
    ));
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    let bench = Bench {
        rows,
        workers,
        seq,
        work: WorkDir(work),
        args,
    };
    let seq = &bench.seq;
    let props = seq.properties();
    let ops = seq.op_count();
    let picked = sample_slots(bench.args.seed, ops);

    let mut verdict = Verdict::default();
    let mut gens = Generations::new(wl, bench.args.seed, rows);
    let mut reference = Reference::default();
    let mut metrics = Metrics::default();
    let mut extra = Vec::new();

    let (phase, answers, before, after) = if !bench.args.trace {
        let mut setup_s = Vec::new();
        let mut ready = None;
        for i in 0..SETUPS {
            // Stop the previous server before the next one boots.
            drop(ready.take());
            let r = bench.setup(i)?;
            setup_s.push(r.setup_s);
            ready = Some(r);
        }
        let ready = ready.expect("at least one set-up");
        let server = &ready.server;
        let before = server.metrics()?;
        let phase = drive::run(server, seq, &picked, false);
        let rss = server.peak_rss_mb()?;
        let after = server.metrics()?;
        drop(ready);

        let answers = gate(seq, &phase, &mut verdict);
        let lat: Vec<f64> = phase
            .outcomes
            .iter()
            .zip(&answers)
            .map(|(o, a)| latency(o, a))
            .collect();
        let completed = answers.iter().filter(|a| a.is_ok()).count();
        metrics.put("query_p50_ms", finite(percentile(&lat, 0.50)), "ms");
        metrics.put("query_p95_ms", finite(percentile(&lat, 0.95)), "ms");
        metrics.put("throughput_qps", completed as f64 / phase.wall_s, "1/s");
        metrics.put("setup_s", median(&setup_s), "s");
        metrics.put("peak_rss_mb", rss, "MB");
        // Only `dashboard` writes while it reads; it is run by hand, outside
        // the benchmark's workloads.
        if wl == Workload::Dashboard {
            let refresh = refresh_times(seq, &phase, &answers);
            metrics.put("refresh_ms", finite(median(&refresh)), "ms");
        }
        extra.push(format!(
            r#""samples":{{"queries":{},"beyond_p95":{},"reloads":{},"setups":{}}},"wall_s":{}"#,
            lat.len(),
            lat.len() - (0.95 * lat.len() as f64).ceil() as usize,
            phase.reloads.len(),
            setup_s.len(),
            phase.wall_s
        ));
        (phase, answers, before, after)
    } else {
        let ready = bench.setup(0)?;
        let before = ready.server.metrics()?;
        let phase = drive::run(&ready.server, seq, &picked, true);
        let after = ready.server.metrics()?;
        let store = ready.store.clone();
        drop(ready);
        let answers = gate(seq, &phase, &mut verdict);
        let traced = layers::Traced {
            workload: wl,
            seq,
            phase: &phase,
            answers: &answers,
            before: &before,
            after: &after,
            rows,
            seed: bench.args.seed,
            store: store.as_deref(),
            work: &bench.work.0,
        };
        let (m, spans) = layers::replay(&traced, &mut reference)?;
        metrics = m;
        let trace_path = Path::new(".bench_work").join(format!(
            "trace-{}-s{}.jsonl",
            wl.name(),
            bench.args.seed
        ));
        spans
            .write(&trace_path)
            .map_err(|e| format!("{}: {e}", trace_path.display()))?;
        extra.push(format!(
            r#""trace_file":{}"#,
            json_str(&trace_path.to_string_lossy())
        ));
        (phase, answers, before, after)
    };

    gens.learn(&phase.reloads);
    verify_sample(
        seq,
        &phase,
        &answers,
        &picked,
        &gens,
        &mut reference,
        &mut verdict,
    );

    let hits = after.delta(&before, "urbane_cache_hits_total");
    let lookups = hits + after.delta(&before, "urbane_cache_misses_total");
    let prune = metrics
        .0
        .get("index.chunk_prune_frac")
        .filter(|_| wl == Workload::Archive)
        .map(|v| v.0);
    let provenance = format!(
        r#"{{"commit":{},"nproc":{},"seed":{},"workload":{},"rows":{},"resident_rows":{},"store_rows":{},"operations":{},"connections":{},"server_workers":{},"seconds":{},"trace":{},"sequence_digest":{}}}"#,
        json_str(&git_commit()),
        workers,
        bench.args.seed,
        json_str(wl.name()),
        rows,
        wl.resident_rows(rows),
        wl.store_rows(rows),
        ops,
        wl.connections(),
        workers,
        bench.args.seconds,
        u8::from(bench.args.trace),
        json_str(&seq.digest()),
    );
    let properties = format!(
        r#"{{"repeat_share":{},"repeat_base":{},"cache_hit_frac":{},"cache_lookups":{},"overlap_share":{},"overlap_base":{},"reloads":{},"chunk_prune_frac":{}}}"#,
        props.repeats as f64 / ops.max(1) as f64,
        ops,
        if lookups > 0.0 { hits / lookups } else { 0.0 },
        lookups,
        props.overlapping_steps as f64 / props.steps.max(1) as f64,
        props.steps,
        props.reloads,
        prune.map_or("null".to_string(), |p| p.to_string()),
    );
    let failures: Vec<String> = verdict
        .failures
        .iter()
        .map(|(k, v)| format!("{}:{v}", json_str(k)))
        .collect();
    let mismatches: Vec<String> = verdict
        .mismatches
        .iter()
        .take(5)
        .map(|m| json_str(m))
        .collect();
    extra.push(format!(
        r#""failures":{{{}}},"verified":{},"mismatches":[{}]"#,
        failures.join(","),
        verdict.verified,
        mismatches.join(",")
    ));
    println!(
        r#"{{"provenance":{provenance},"properties":{properties},{}}}"#,
        extra.join(",")
    );
    println!(
        r#"{{"correct":{},"attempted":{},"failed":{},"metrics":{}}}"#,
        verdict.correct(),
        verdict.attempted,
        verdict.failed(),
        metrics_json(&metrics)
    );
    Ok(if verdict.correct() { 0 } else { 1 })
}

fn main() {
    let code = match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("servebench: {e}");
            2
        }
    };
    std::process::exit(code);
}
