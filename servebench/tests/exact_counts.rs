//! Exact-count self-check: two runs of one workload with one seed must do
//! exactly the same work, layer by layer.
//!
//! Builds the shipped binaries, then runs `servebench --trace 1` twice for
//! `pan` and twice for `archive` (one-second sequences) from the repository
//! root and compares the work counters. Run with `cargo test --release
//! --manifest-path servebench/Cargo.toml`.

use std::path::{Path, PathBuf};
use std::process::Command;
use urbane_geom::geojson::{parse_json, Json};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("servebench sits in the repo")
        .to_path_buf()
}

/// Build urbane-serve and urbane-cli; return the directory holding them.
fn shipped_bins(root: &Path) -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| root.join(".bench_build"));
    let target = if target.is_absolute() {
        target
    } else {
        root.join(target)
    };
    let status = Command::new(env!("CARGO"))
        .args([
            "build",
            "--release",
            "--quiet",
            "-p",
            "urbane-serve",
            "-p",
            "urbane",
            "--bins",
        ])
        .env("CARGO_TARGET_DIR", &target)
        .current_dir(root)
        .status()
        .expect("cargo runs");
    assert!(status.success(), "building the shipped binaries failed");
    target.join("release")
}

fn traced_run(root: &Path, bins: &Path, workload: &str) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_servebench"))
        .current_dir(root)
        .args(["--bin-dir", &bins.to_string_lossy()])
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "1",
            "--trace",
            "1",
        ])
        .output()
        .expect("servebench runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload}: exit {:?}\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    let result = parse_json(last).expect("the result line is JSON");
    assert_eq!(
        result.get("correct").and_then(Json::as_bool),
        Some(true),
        "{last}"
    );
    assert_eq!(
        result.get("failed").and_then(Json::as_f64),
        Some(0.0),
        "{last}"
    );
    result
}

fn metric(result: &Json, name: &str) -> f64 {
    result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("metric {name} missing"))
}

#[test]
fn repeated_runs_do_identical_work() {
    let root = repo_root();
    let bins = shipped_bins(&root);
    for (workload, counters) in [
        (
            "pan",
            &[
                "core.points_in",
                "core.fragments",
                "service.cache_hits",
                "service.cache_misses",
            ][..],
        ),
        (
            "archive",
            &[
                "index.rows_scanned",
                "store.bytes_read_per_query",
                "service.cache_hits",
                "service.cache_misses",
            ][..],
        ),
    ] {
        let a = traced_run(&root, &bins, workload);
        let b = traced_run(&root, &bins, workload);
        for name in counters {
            let (x, y) = (metric(&a, name), metric(&b, name));
            assert_eq!(x.to_bits(), y.to_bits(), "{workload} {name}: {x} vs {y}");
        }
        // The counters must count something, or the check proves nothing.
        assert!(
            metric(&a, counters[0]) > 0.0,
            "{workload} {} is zero",
            counters[0]
        );
        assert!(metric(&a, "service.cache_misses") > 0.0, "{workload}");
    }
}
