//! perfbench: the repository's benchmark.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload chaos-2t --seed 1 --seconds 50 --trace 0
//! ```
//!
//! Runs one workload against the library's public API (`World::generate`,
//! `Pipeline`, `RunStore`), checks every operation against the world's
//! ground truth, and prints as its last stdout line one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` a separate traced
//! pass reports the per-layer ones and writes a Chrome trace under
//! `perfbench/out/`. See README.md.

mod checks;
mod sys;
mod trace;
mod workload;

use serde_json::{json, Content, Value};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::ExitCode;
use workload::{Args, Workload};

const USAGE: &str = "usage: perfbench --workload paper-1t|chaos-2t|rerun-warm \
     [--seed N] [--seconds S] [--trace 0|1]";

/// The default run seed. README.md names a held-out seed for
/// confirming claims.
const DEFAULT_SEED: u64 = 1;

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 50.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => {
                let raw = value()?;
                seed = match raw.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => raw.parse(),
                }
                .map_err(|_| format!("--seed must be an integer, got {raw:?}"))?;
            }
            "--seconds" => {
                let raw = value()?;
                seconds = match raw.parse::<f64>() {
                    Ok(s) if s.is_finite() && s > 0.0 => s,
                    _ => return Err(format!("--seconds must be a positive number, got {raw:?}")),
                };
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
                };
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        out_dir: PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out"),
    })
}

/// A directory for this process's stores, removed when dropped, so that
/// no store outlives the run even when an operation fails or panics.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn create(args: &Args) -> Result<ScratchDir, String> {
        let path = args.out_dir.join(format!("tmp-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("create {}: {e}", path.display()))?;
        Ok(ScratchDir(path))
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let scratch = match ScratchDir::create(&args) {
        Ok(dir) => dir,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut tracer = trace::Tracer::new();
    let result = catch_unwind(AssertUnwindSafe(|| {
        workload::run(&args, &scratch.0, &mut tracer)
    }));
    drop(scratch);
    let outcome = match result {
        Ok(Ok(outcome)) => outcome,
        Ok(Err(e)) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
        Err(_) => {
            eprintln!("error: the benchmark panicked");
            return ExitCode::FAILURE;
        }
    };
    for (name, value, unit) in &outcome.metrics {
        eprintln!("{name:<26} {value:>16.6} {unit}");
        if !value.is_finite() {
            eprintln!("error: metric {name} is not a finite number");
            return ExitCode::FAILURE;
        }
    }
    let metrics = Content::Map(
        outcome
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                (name.to_string(), json!({ "value": value, "unit": unit }).0)
            })
            .collect(),
    );
    let result = json!({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": Value(metrics),
    });
    println!("{result}");
    ExitCode::SUCCESS
}
