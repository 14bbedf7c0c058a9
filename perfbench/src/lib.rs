//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload's inputs are generated from `--seed` before timing and
//! run through the public entry points (`SystemSim::execute`,
//! `ControlledSim::execute`). `--trace 0` measures the end-to-end
//! metrics with tracing off; `--trace 1` re-drives the same inputs one
//! layer at a time and measures the per-layer metrics. Either way every
//! output is checked, a human-readable block is printed, and the last
//! line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. `BENCHMARK.json` at the
//! repository root declares the workloads and metrics;
//! `perfbench/declarations.json` adds each workload's inputs and each
//! per-layer metric's module and expected effect.

#![forbid(unsafe_code)]

mod checks;
mod end_to_end;
pub mod layers;
pub mod report;
pub mod tracing;
pub mod workloads;

use std::path::PathBuf;

use report::Outcome;
use tracing::Tracer;
use workloads::{Scale, Workload};

/// Keep the per-session spans of one request in this many.
const SPAN_SAMPLE_EVERY: usize = 1000;

/// A parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// The workload to run.
    pub workload: Workload,
    /// Seed of every input generator.
    pub seed: u64,
    /// Host seconds of timed passes.
    pub seconds: f64,
    /// Run the traced per-layer run instead of the end-to-end one.
    pub trace: bool,
}

/// Parse `--workload <name> --seed <n> --seconds <s> --trace <0|1>`;
/// all four are required.
///
/// # Errors
/// A usage message naming the bad or missing argument.
pub fn parse_args<I: IntoIterator<Item = String>>(args: I) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed `{value}`"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds `{value}`"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must lie in (0, 600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got `{value}`")),
                });
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The commit of a git checkout in the working directory, if any.
fn git_commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let commit = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(PathBuf::from(".git").join(r)).unwrap_or_default(),
        None => head.to_string(),
    };
    let commit = commit.trim();
    if commit.is_empty() {
        "unknown (not a git checkout)".to_string()
    } else {
        commit.to_string()
    }
}

/// The run-context line.
fn context(args: &Args) -> String {
    format!(
        "workload {} seed {} seconds {} trace {}; nproc {}; commit {}; {}; profile {}; agenda heap",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, std::num::NonZero::get),
        git_commit(),
        env!("PERFBENCH_RUSTC"),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
    )
}

/// Run one invocation at `scale`, returning its outcome. In traced mode
/// the spans are also returned, for writing out.
///
/// # Errors
/// A set-up error, as text.
pub fn run(args: &Args, scale: Scale) -> Result<(Outcome, Tracer), String> {
    if args.trace {
        let mut tr = Tracer::new(SPAN_SAMPLE_EVERY);
        let out = layers::run(args.workload, args.seed, args.seconds, scale, &mut tr)?;
        Ok((out, tr))
    } else {
        let out = end_to_end::run(args.workload, args.seed, args.seconds, scale)?;
        Ok((out, Tracer::off()))
    }
}

/// The command-line entry point; returns the exit code.
pub fn main<I: IntoIterator<Item = String>>(argv: I) -> i32 {
    let args = match parse_args(argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                Workload::ALL.map(Workload::name).join("|")
            );
            return 2;
        }
    };
    let (mut out, tr) = match run(&args, Scale::Full) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return 1;
        }
    };
    out.context.insert(0, context(&args));
    if args.trace {
        // Spans go beside the executable, inside the build directory.
        let path = std::env::current_exe()
            .ok()
            .and_then(|p| p.parent().map(PathBuf::from))
            .unwrap_or_default()
            .join(format!("spans-{}-{}.json", args.workload.name(), args.seed));
        match std::fs::write(&path, tr.write_json()) {
            Ok(()) => out.context.push(format!("spans: {}", path.display())),
            Err(e) => {
                out.correct = false;
                out.failures.push(format!("writing spans: {e}"));
            }
        }
    }
    print!("{}", out.render(args.workload.name()));
    println!("{}", out.json());
    i32::from(!out.correct)
}
