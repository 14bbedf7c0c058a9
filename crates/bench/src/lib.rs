//! Shared plumbing for the figure-regeneration binaries.
//!
//! Each paper artifact has a binary (`fig5` … `fig8`, `fig1_4`, `table1`,
//! `table2`, `ablation`, `crosscheck`, `hybrid_study`, `landscape`,
//! `pareto`) that prints the regenerated data as text and, with `--json
//! <path>`, also writes the structured data for plotting. All of them
//! execute through [`sb_analysis::runner`]: `--threads N` picks the
//! worker-pool size (output is bit-identical for every N), and
//! `--manifest <path>` writes the run's [`sb_analysis::RunManifest`] —
//! per-stage wall-clock timings — as JSON. The Criterion benches live in
//! `benches/`.
//!
//! The studies (`throughput`, `scale`, `scenario`, `recovery`,
//! `frontier`, `distribution`, …) run as `sbcast <study>`; end-to-end
//! and per-layer timing lives in the separate `perfbench/` package that
//! `BENCHMARK.json` declares.

#![forbid(unsafe_code)]

use std::path::PathBuf;

use sb_analysis::runner::Runner;

/// Parsed command line shared by every figure binary.
#[derive(Debug, Default)]
pub struct Args {
    /// `--json <path>`: where to additionally write JSON output.
    pub json: Option<PathBuf>,
    /// `--threads <n>`: runner worker count (0 = one per core, default 1).
    pub threads: usize,
    /// `--manifest <path>`: where to write the JSON run manifest.
    pub manifest: Option<PathBuf>,
    /// `--progress`: live per-stage counters on stderr.
    pub progress: bool,
}

impl Args {
    /// Parse `std::env::args()`. Unknown flags abort with a usage message.
    #[must_use]
    pub fn parse() -> Self {
        Self::parse_from(std::env::args().skip(1))
    }

    /// Parse from an explicit iterator (testable).
    ///
    /// # Panics
    /// Panics on unknown arguments or a missing flag value.
    #[must_use]
    pub fn parse_from<I: IntoIterator<Item = String>>(args: I) -> Self {
        let mut out = Args {
            threads: 1,
            ..Args::default()
        };
        let mut it = args.into_iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--json" => {
                    let path = it.next().expect("--json requires a path");
                    out.json = Some(PathBuf::from(path));
                }
                "--threads" => {
                    let n = it.next().expect("--threads requires a count");
                    out.threads = n.parse().expect("--threads: not an integer");
                }
                "--manifest" => {
                    let path = it.next().expect("--manifest requires a path");
                    out.manifest = Some(PathBuf::from(path));
                }
                "--progress" => out.progress = true,
                other => panic!(
                    "unknown argument `{other}` (supported: --json <path> --threads <n> \
                     --manifest <path> --progress)"
                ),
            }
        }
        out
    }

    /// The [`Runner`] this invocation asked for.
    #[must_use]
    pub fn runner(&self) -> Runner {
        Runner::new(self.threads).with_progress(self.progress)
    }

    /// Write `value` as pretty JSON if `--json` was given.
    pub fn maybe_write_json<T: serde::Serialize>(&self, value: &T) {
        if let Some(path) = &self.json {
            let json = serde_json::to_string_pretty(value).expect("serializable artifact");
            std::fs::write(path, json).expect("writable --json path");
            eprintln!("wrote {}", path.display());
        }
    }

    /// Finish the run: print the runner's per-stage timings to stderr and
    /// write the manifest if `--manifest` was given. Timings never touch
    /// stdout, which stays byte-identical across thread counts.
    pub fn finish(&self, runner: &Runner) {
        let manifest = runner.manifest();
        eprint!("{}", manifest.summary());
        if let Some(path) = &self.manifest {
            let json = serde_json::to_string_pretty(&manifest).expect("serializable manifest");
            std::fs::write(path, json).expect("writable --manifest path");
            eprintln!("wrote {}", path.display());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_json_flag() {
        let a = Args::parse_from(["--json".to_string(), "/tmp/x.json".to_string()]);
        assert_eq!(a.json, Some(PathBuf::from("/tmp/x.json")));
        assert_eq!(a.threads, 1);
        let none = Args::parse_from(std::iter::empty());
        assert!(none.json.is_none());
        assert!(none.manifest.is_none());
    }

    #[test]
    fn parses_runner_flags() {
        let a = Args::parse_from(
            ["--threads", "8", "--manifest", "/tmp/m.json", "--progress"].map(str::to_string),
        );
        assert_eq!(a.threads, 8);
        assert_eq!(a.manifest, Some(PathBuf::from("/tmp/m.json")));
        assert!(a.progress);
        assert_eq!(a.runner().threads(), 8);
    }

    #[test]
    fn zero_threads_means_all_cores() {
        let a = Args::parse_from(["--threads", "0"].map(str::to_string));
        assert!(a.runner().threads() >= 1);
    }

    #[test]
    #[should_panic(expected = "unknown argument")]
    fn rejects_unknown_flags() {
        let _ = Args::parse_from(["--bogus".to_string()]);
    }
}
