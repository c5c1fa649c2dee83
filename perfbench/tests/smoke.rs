//! Every workload at smoke length, untraced and traced: the whole
//! pipeline (set-up, closed loop, every answer check, per-layer pass)
//! against a real `questpro serve` process, in a few seconds.

use std::path::{Path, PathBuf};
use std::process::Command;

/// Builds the `questpro` binary next to the benchmark's own, with the
/// same profile, and returns its path.
fn server_binary(bench: &Path) -> PathBuf {
    let profile_dir = bench.parent().expect("binary has a directory");
    let target = profile_dir
        .parent()
        .expect("profile directory has a parent");
    let repo = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let mut cmd = Command::new(std::env::var("CARGO").unwrap_or_else(|_| "cargo".into()));
    cmd.args([
        "build",
        "--offline",
        "-p",
        "questpro-cli",
        "--manifest-path",
    ])
    .arg(repo.join("Cargo.toml"))
    .env("CARGO_TARGET_DIR", target);
    if profile_dir.file_name().is_some_and(|n| n == "release") {
        cmd.arg("--release");
    }
    let status = cmd.status().expect("cargo runs");
    assert!(status.success(), "building questpro-cli failed");
    profile_dir.join("questpro")
}

/// The value of metric `name` in a result line.
fn metric(line: &str, name: &str) -> f64 {
    let key = format!("\"{name}\": {{\"value\": ");
    let at = line.find(&key).expect("metric present") + key.len();
    let end = at + line[at..].find(',').expect("value ends");
    line[at..end].parse().expect("a number")
}

#[test]
fn every_workload_runs_and_checks_at_smoke_length() {
    let bench = PathBuf::from(env!("CARGO_BIN_EXE_questpro-perfbench"));
    let server = server_binary(&bench);
    let work = bench
        .parent()
        .expect("binary has a directory")
        .join("perfbench-smoke");
    for workload in ["sessions", "scale_mix"] {
        // The untraced run first: the traced run compares its own
        // `op_iqm_ms` with the untraced one (`trace.overhead_pct`).
        let mut untraced = Vec::new();
        for (trace, metrics) in [("0", 9), ("1", 32)] {
            let out = Command::new(&bench)
                .args([
                    "--workload",
                    workload,
                    "--seed",
                    "7",
                    "--seconds",
                    "1",
                    "--trace",
                    trace,
                    "--smoke",
                ])
                .args(&untraced)
                .arg("--server")
                .arg(&server)
                .arg("--work-dir")
                .arg(&work)
                .output()
                .expect("benchmark runs");
            let stdout = String::from_utf8_lossy(&out.stdout);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(
                out.status.success(),
                "{workload} trace {trace} failed:\n{stderr}"
            );
            let last = stdout.lines().last().unwrap_or("");
            assert!(
                last.starts_with("{\"correct\": true, "),
                "{workload} trace {trace}: {last}"
            );
            assert_eq!(
                last.matches("\"unit\"").count(),
                metrics,
                "{workload} trace {trace}: {last}"
            );
            if trace == "0" {
                untraced = vec![
                    "--untraced-op-iqm-ms".to_string(),
                    metric(last, "op_iqm_ms").to_string(),
                ];
            }
        }
    }
}
