//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path taxibench/Cargo.toml -- \
//!     --workload <solve-pla33810|serve-fresh|serve-zipf> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every input is generated from `--seed`. An untraced run (`--trace 0`) prints
//! the end-to-end metrics; a traced run (`--trace 1`) prints the per-layer
//! metrics, measured by timing calls into the crates' public functions from
//! this package, and its own overhead against untraced measurement in the same
//! run. The last line of stdout is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! The process exits non-zero when any operation fails or any output check
//! fails. See `NOTES.md` for why each workload exists and what each layer
//! metric should move.

mod alloc;
mod check;
mod layers;
mod offline;
mod report;
mod serve;
mod stats;

#[global_allocator]
static ALLOCATOR: alloc::CountingAlloc = alloc::CountingAlloc;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must lie in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("taxibench: {message}");
            std::process::exit(2);
        }
    };
    let report = match args.workload.as_str() {
        "solve-pla33810" => offline::run(&args),
        "serve-fresh" => serve::run(&args, serve::Mix::Fresh),
        "serve-zipf" => serve::run(&args, serve::Mix::Zipf),
        other => {
            eprintln!("taxibench: unknown workload {other}");
            std::process::exit(2);
        }
    };
    report.print(&args.workload);
    if !report.correct() {
        std::process::exit(1);
    }
}
