//! `questpro-perfbench`: drives `questpro serve` from one client thread
//! and prints the end-to-end metrics (`--trace 0`) or the per-layer
//! metrics (`--trace 1`) of one workload as a JSON line; see README.md.
//!
//! ```text
//! questpro-perfbench --server PATH --workload sessions|scale_mix
//!     --seed N --seconds S --trace 0|1 [--smoke] [--work-dir DIR]
//!     [--untraced-op-iqm-ms X]
//! ```
//!
//! With `--trace 1 --untraced-op-iqm-ms X`, where X is an untraced run's
//! `op_iqm_ms` on the same arguments, the traced run also prints its own
//! overhead, `trace.overhead_pct`; `run.py` makes that untraced run.

mod client;
mod layers;
mod oracle;
mod report;
mod rng;
mod scale_mix;
mod server;
mod sessions;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;

use report::Report;

/// Command-line settings shared by every workload.
pub struct Settings {
    /// The `questpro` binary.
    pub server: PathBuf,
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Whether this is the traced run (per-layer metrics).
    pub trace: bool,
    /// The smoke length: tiny inputs, every check, a few seconds.
    pub smoke: bool,
    /// Scratch directory for snapshots and server logs.
    pub work_dir: PathBuf,
    /// An untraced run's `op_iqm_ms`, which the traced run's is compared
    /// with.
    pub untraced_op_iqm_ms: Option<f64>,
}

impl Settings {
    /// How many times set-up is repeated; `setup_s` is their median.
    pub fn setups(&self) -> usize {
        if self.smoke {
            2
        } else {
            15
        }
    }

    /// Closed-loop warm-up before the measured phase, in seconds.
    pub fn warmup(&self) -> f64 {
        if self.smoke {
            0.0
        } else {
            1.0
        }
    }
}

fn parse_args() -> Result<(String, Settings), String> {
    let mut workload = None;
    let mut s = Settings {
        server: PathBuf::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        smoke: false,
        work_dir: PathBuf::from(".bench_build/perfbench-work"),
        untraced_op_iqm_ms: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--smoke" {
            s.smoke = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = |v: &str| {
            v.parse::<f64>()
                .map_err(|_| format!("{flag}: not a number: {v:?}"))
        };
        match flag.as_str() {
            "--server" => s.server = PathBuf::from(value),
            "--workload" => workload = Some(value),
            "--seed" => {
                s.seed = value
                    .parse()
                    .map_err(|_| format!("--seed: not an integer: {value:?}"))?
            }
            "--seconds" => s.seconds = num(&value)?,
            "--trace" => {
                s.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            "--work-dir" => s.work_dir = PathBuf::from(value),
            "--untraced-op-iqm-ms" => s.untraced_op_iqm_ms = Some(num(&value)?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if s.server.as_os_str().is_empty() {
        return Err("--server PATH is required".into());
    }
    if s.seconds.is_nan() || s.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok((workload, s))
}

fn main() -> ExitCode {
    let (workload, settings) = match parse_args() {
        Ok(x) => x,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&settings.work_dir) {
        eprintln!("perfbench: {}: {e}", settings.work_dir.display());
        return ExitCode::FAILURE;
    }
    let result: Result<Report, String> = match workload.as_str() {
        "sessions" => sessions::run(&settings),
        "scale_mix" => scale_mix::run(&settings),
        other => Err(format!("unknown workload {other:?} (sessions, scale_mix)")),
    };
    match result {
        Ok(mut report) => {
            if let (true, Some(plain)) = (settings.trace, settings.untraced_op_iqm_ms) {
                let traced = report.end_to_end("op_iqm_ms");
                report.layer(
                    "trace.overhead_pct",
                    100.0 * (traced / plain - 1.0),
                    "%",
                    format!("op_iqm_ms {traced:.4} traced vs {plain:.4} untraced"),
                );
            }
            report.print_summary();
            println!("{}", report.json(settings.trace));
            if report.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {workload}: {e}");
            ExitCode::FAILURE
        }
    }
}
