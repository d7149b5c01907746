//! The shared figure runner every bench binary fronts.
//!
//! A figure binary is three lines: pick codes, call its `cyclone::experiments`
//! declaration, format rows into a [`Table`]. Everything else —
//! command-line parsing, Monte-Carlo configuration, sweep-cache control, and
//! table/CSV/JSON emission — lives here, so the 17 binaries share one frontend
//! instead of 17 copies of the loop.
//!
//! # Command line
//!
//! Flags can be passed after `--` with `cargo bench -p bench --bench figNN -- ...`:
//!
//! * `--shots N` — Monte-Carlo shots per LER point (`CYCLONE_SHOTS`); the fixed
//!   budget, and the adaptive mode's reference for the default shot cap.
//! * `--threads N` — sweep pool size, 0 = auto (`CYCLONE_THREADS`).
//! * `--full` — run the full code catalog (`CYCLONE_FULL=1`). Full runs sample
//!   **adaptively** by default (see below).
//! * `--quick` — shorthand for `--shots 50`.
//! * `--csv` — CSV output instead of an aligned table (`CYCLONE_CSV=1`).
//! * `--no-cache` — bypass the sweep cache (`CYCLONE_NO_CACHE=1`).
//! * `--cache-dir DIR` — cache directory (`CYCLONE_SWEEP_DIR`, default `sweeps/`
//!   at the repository root).
//! * `--decode-cache-dir DIR` — persist per-context decode caches (syndrome →
//!   correction tables) under DIR across runs (`CYCLONE_DECODE_CACHE_DIR`;
//!   unset = in-memory only). Estimates are bit-identical either way — entries
//!   are pure decoder outputs — so this is purely a warm-start lever.
//!
//! Distributed (multi-process) sweeps:
//!
//! * `--shards N` — coordinator mode (`CYCLONE_SHARDS`): before the figure
//!   builds, self-exec N worker processes, each computing the deterministic
//!   subset of points its shard owns into a shard-local cache
//!   (`<cache>/shards/<i>-of-<N>/`), then merge the shard caches into the main
//!   cache. The figure's own sweep then runs serially over all-cache-hits, so
//!   output is bit-identical to an unsharded run. Requires caching (`--no-cache`
//!   disables the fleet).
//! * `--shard i/N` — worker mode (`CYCLONE_SHARD`): compute only the points
//!   shard `i` of `N` owns, into the shard-local cache, checkpointing after
//!   every computed point so a killed worker loses at most the in-flight point.
//!   The main cache is consulted read-only for pre-existing hits.
//! * `--checkpoint-every K` — override the checkpoint cadence
//!   (`CYCLONE_CHECKPOINT_EVERY`; worker default 1, `0` = single final write).
//!
//! Adaptive (precision-targeted) sampling:
//!
//! * `--target-rse X` — stop each LER point at relative standard error ≤ X
//!   (`CYCLONE_TARGET_RSE`). Setting it enables adaptive mode anywhere; `0`
//!   disables it explicitly. Default when adaptive: 0.1.
//! * `--min-failures N` — require ≥ N failures before stopping
//!   (`CYCLONE_MIN_FAILURES`, default 100).
//! * `--max-shots N` — per-point shot cap (`CYCLONE_MAX_SHOTS`; default
//!   `20 × shots`, so low-LER points may sample *deeper* than the fixed budget).
//! * `--fixed` — force the fixed `--shots` budget even with `--full`
//!   (`CYCLONE_FIXED=1`); the resulting tables are bit-identical to the
//!   pre-adaptive engine.
//!
//! Channel-structured noise:
//!
//! * `--noise uniform|biased:<ratio>|schedule` — the error channel every
//!   Monte-Carlo point samples under (`CYCLONE_NOISE`). `uniform` (the default)
//!   is the historical scalar model, bit-identical to the pre-channel engine.
//!   `biased:<ratio>` adds measurement flips at `<ratio>` times the effective
//!   data rate to every sweep point (cache entries are keyed per channel, so
//!   biased and uniform runs never poison each other). `schedule` requests
//!   per-qubit channels derived from each codesign's compiled idle exposure —
//!   figures that compile profiled rounds (`fig_hetero`) resolve it per point;
//!   figures that only know latencies fall back to uniform and say so.
//!
//! Unknown flags (e.g. the `--bench` cargo appends) are ignored. Flags override the
//! corresponding environment variables for the run.

use crate::Table;
use cyclone::sweep::{Shard, SweepOptions};
use cyclone::sweep_cache::{merge_files, MergeReport};
use decoder::memory::{MemoryConfig, PrecisionTarget};
use noise::ChannelSpec;
use serde_json::Value;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Default relative-standard-error target of adaptive runs (`rse ≈ 1/√failures`,
/// so this pairs naturally with [`DEFAULT_MIN_FAILURES`]).
pub const DEFAULT_TARGET_RSE: f64 = 0.1;

/// Default failure floor of adaptive runs (the classic stop-at-100-failures rule).
pub const DEFAULT_MIN_FAILURES: usize = 100;

/// Default per-point shot cap of adaptive runs, as a multiple of the fixed budget:
/// high-LER points stop orders of magnitude earlier, low-LER points may go this
/// much deeper to reach the target precision.
pub const MAX_SHOTS_FACTOR: usize = 20;

/// The resolved `--noise` / `CYCLONE_NOISE` channel mode.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NoiseFlag {
    /// The historical scalar model (the default).
    Uniform,
    /// Measurement flips at this ratio of the effective data rate on every point.
    Biased(f64),
    /// Schedule-derived per-qubit channels, resolved by figures that compile
    /// profiled rounds; others fall back to uniform.
    Schedule,
}

impl NoiseFlag {
    /// Parses `uniform`, `biased:<ratio>` (finite, non-negative ratio), or
    /// `schedule`; anything else is malformed (`None`), falling back per the
    /// workspace convention.
    pub fn parse(raw: &str) -> Option<Self> {
        let raw = raw.trim();
        match raw {
            "uniform" => Some(NoiseFlag::Uniform),
            "schedule" => Some(NoiseFlag::Schedule),
            _ => raw.strip_prefix("biased:").and_then(|ratio| {
                ratio
                    .trim()
                    .parse::<f64>()
                    .ok()
                    .filter(|r| r.is_finite() && *r >= 0.0)
                    .map(NoiseFlag::Biased)
            }),
        }
    }
}

/// Everything a figure closure needs: the Monte-Carlo configuration and the sweep
/// options (pool size + cache location) resolved from flags and environment.
#[derive(Debug, Clone)]
pub struct RunContext {
    /// Monte-Carlo configuration for LER points.
    pub config: MemoryConfig,
    /// Sweep execution options (pass to the `*_with` experiment runners; carries
    /// the resolved precision target in `sweep.precision` when adaptive mode is
    /// active, `None` = fixed shot budget, and the default channel spec in
    /// `sweep.channel` when `--noise biased:<ratio>` is active).
    pub sweep: SweepOptions,
    /// CSV output requested (`--csv` / `CYCLONE_CSV`).
    pub csv: bool,
    /// Full code catalog requested (`--full` / `CYCLONE_FULL`).
    pub full: bool,
    /// The requested channel mode (`--noise` / `CYCLONE_NOISE`). `Biased` is
    /// already threaded into [`RunContext::sweep`]; `Schedule` is advisory — a
    /// figure that compiles profiled rounds resolves it per point.
    pub noise: NoiseFlag,
    /// Requested worker-process count (`--shards` / `CYCLONE_SHARDS`, default 1).
    /// `>= 2` without a shard assignment makes this process a fleet coordinator
    /// (see [`RunContext::run_worker_fleet`]).
    pub shards: usize,
    /// This process's shard assignment (`--shard i/N` / `CYCLONE_SHARD`).
    /// `Some` makes this a worker: [`RunContext::sweep`] is already pointed at
    /// the shard-local cache with the main cache as read-only fallback.
    pub shard: Option<Shard>,
}

impl RunContext {
    /// Resolves the context from the process arguments and environment.
    pub fn from_env() -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        Self::from_args(&args)
    }

    /// Resolves the context from explicit arguments (tests use this directly).
    pub fn from_args(args: &[String]) -> Self {
        let env = |name: &str| std::env::var(name).ok();
        let mut shots = crate::shots();
        let mut threads = crate::threads();
        let mut no_cache = crate::flag_from(env("CYCLONE_NO_CACHE").as_deref());
        let mut cache_dir = env("CYCLONE_SWEEP_DIR")
            .filter(|s| !s.trim().is_empty())
            .map(PathBuf::from)
            .unwrap_or_else(default_sweep_dir);
        let mut decode_cache_dir = env("CYCLONE_DECODE_CACHE_DIR")
            .filter(|s| !s.trim().is_empty())
            .map(PathBuf::from);
        let mut csv = crate::csv_output();
        let mut full = crate::full_run();
        // `Some(0.0)` is an explicit disable; `None` defers to the `--full`
        // default. A malformed or non-finite value is treated as unset (the
        // workspace's malformed-fallback convention), never as a disable — and a
        // malformed *flag* value keeps whatever the environment resolved to.
        let parse_rse = |s: &str| s.trim().parse::<f64>().ok().filter(|v| v.is_finite());
        let parse_cap = |s: &str| s.trim().parse::<usize>().ok().filter(|&n| n > 0);
        let mut target_rse: Option<f64> = env("CYCLONE_TARGET_RSE").as_deref().and_then(parse_rse);
        let mut min_failures =
            crate::env_parse(env("CYCLONE_MIN_FAILURES").as_deref(), DEFAULT_MIN_FAILURES);
        let mut max_shots: Option<usize> = env("CYCLONE_MAX_SHOTS").as_deref().and_then(parse_cap);
        let mut fixed = crate::flag_from(env("CYCLONE_FIXED").as_deref());
        let mut noise = env("CYCLONE_NOISE")
            .as_deref()
            .and_then(NoiseFlag::parse)
            .unwrap_or(NoiseFlag::Uniform);
        let mut shards = env("CYCLONE_SHARDS")
            .as_deref()
            .and_then(parse_cap)
            .unwrap_or(1);
        let mut shard = env("CYCLONE_SHARD").as_deref().and_then(Shard::parse);
        // `Some(0)` is an explicit single-final-write request; `None` defers to
        // the mode default (workers checkpoint after every point).
        let parse_every = |s: &str| s.trim().parse::<usize>().ok();
        let mut checkpoint: Option<usize> = env("CYCLONE_CHECKPOINT_EVERY")
            .as_deref()
            .and_then(parse_every);

        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--shots" => {
                    if let Some(value) = args.get(i + 1) {
                        shots = crate::shots_from(Some(value));
                        i += 1;
                    }
                }
                "--threads" => {
                    if let Some(value) = args.get(i + 1) {
                        threads = crate::threads_from(Some(value));
                        i += 1;
                    }
                }
                "--quick" => shots = 50,
                "--full" => full = true,
                "--csv" => csv = true,
                "--no-cache" => no_cache = true,
                "--cache-dir" => {
                    if let Some(value) = args.get(i + 1) {
                        cache_dir = PathBuf::from(value);
                        i += 1;
                    }
                }
                "--decode-cache-dir" => {
                    if let Some(value) = args.get(i + 1) {
                        decode_cache_dir = Some(PathBuf::from(value));
                        i += 1;
                    }
                }
                "--target-rse" => {
                    if let Some(value) = args.get(i + 1) {
                        target_rse = parse_rse(value).or(target_rse);
                        i += 1;
                    }
                }
                "--min-failures" => {
                    if let Some(value) = args.get(i + 1) {
                        min_failures = crate::env_parse(Some(value), min_failures);
                        i += 1;
                    }
                }
                "--max-shots" => {
                    if let Some(value) = args.get(i + 1) {
                        max_shots = parse_cap(value).or(max_shots);
                        i += 1;
                    }
                }
                "--fixed" => fixed = true,
                "--shards" => {
                    if let Some(value) = args.get(i + 1) {
                        shards = parse_cap(value).unwrap_or(shards);
                        i += 1;
                    }
                }
                "--shard" => {
                    if let Some(value) = args.get(i + 1) {
                        shard = Shard::parse(value).or(shard);
                        i += 1;
                    }
                }
                "--checkpoint-every" => {
                    if let Some(value) = args.get(i + 1) {
                        checkpoint = parse_every(value).or(checkpoint);
                        i += 1;
                    }
                }
                "--noise" => {
                    if let Some(value) = args.get(i + 1) {
                        // A malformed value keeps whatever the environment
                        // resolved to (the workspace's malformed-flag rule).
                        noise = NoiseFlag::parse(value).unwrap_or(noise);
                        i += 1;
                    }
                }
                _ => {}
            }
            i += 1;
        }

        let config = MemoryConfig {
            shots,
            bp_iterations: 30,
            threads,
            seed: 0xC1C1_0DE5,
        };
        // Adaptive mode: explicitly requested via a positive --target-rse, or the
        // --full default. --fixed (or --target-rse 0) pins the fixed-shot path,
        // which is bit-identical to the pre-adaptive engine.
        let precision = match (fixed, target_rse, full) {
            (true, _, _) => None,
            (false, Some(rse), _) if rse <= 0.0 => None,
            (false, Some(rse), _) => Some(rse),
            (false, None, true) => Some(DEFAULT_TARGET_RSE),
            (false, None, false) => None,
        }
        .map(|rse| PrecisionTarget {
            target_rse: rse,
            min_failures,
            max_shots: max_shots.unwrap_or_else(|| shots.saturating_mul(MAX_SHOTS_FACTOR)),
        });
        let mut sweep = if no_cache {
            SweepOptions::ephemeral(config)
        } else {
            // Workers write a shard-local cache (the main cache stays a
            // read-only fallback), so N processes never race on one file.
            let dir = match shard {
                Some(shard) => shard_cache_dir(&cache_dir, shard),
                None => cache_dir.clone(),
            };
            SweepOptions::cached(config, dir)
        };
        if let Some(target) = precision {
            sweep = sweep.with_precision(target);
        }
        if let NoiseFlag::Biased(ratio) = noise {
            sweep = sweep.with_channel(ChannelSpec::Biased { meas_ratio: ratio });
        }
        if let Some(dir) = decode_cache_dir {
            // One decode-cache directory for the whole fleet: its atomic-rename
            // save path is multi-process safe, and sharing lets workers warm
            // each other's structured-channel caches.
            sweep = sweep.with_decode_cache_dir(dir);
        }
        if let Some(shard) = shard {
            sweep = sweep.with_shard(shard);
            if !no_cache {
                sweep = sweep.with_fallback_cache_dir(cache_dir);
            }
        }
        sweep = sweep.with_checkpoint(checkpoint.unwrap_or(usize::from(shard.is_some())));
        RunContext {
            config,
            sweep,
            csv,
            full,
            noise,
            shards,
            shard,
        }
    }

    /// The cache directory, when caching is enabled. For a worker this is the
    /// shard-local directory; [`RunContext::main_cache_dir`] is the merged view.
    pub fn cache_dir(&self) -> Option<&std::path::Path> {
        self.sweep.cache_dir.as_deref()
    }

    /// The fleet-wide cache directory: the fallback for a worker (its
    /// `cache_dir` is shard-local), the cache dir itself otherwise.
    pub fn main_cache_dir(&self) -> Option<&std::path::Path> {
        self.sweep
            .fallback_cache_dir
            .as_deref()
            .or_else(|| self.cache_dir())
    }

    /// Coordinator step: when `--shards N` (N ≥ 2) was requested, caching is on,
    /// and this process has no shard assignment of its own, self-exec one worker
    /// per shard (same binary, same flags, plus `--shard i/N`), wait for all of
    /// them, and merge their shard-local caches into the main cache directory.
    /// Everything else — including workers, `--no-cache` runs, and plain serial
    /// runs — is a no-op.
    ///
    /// A failed or killed worker is reported but does not abort the run: its
    /// checkpointed points still merge, and the caller's own serial sweep
    /// recomputes whatever is missing. Output therefore stays bit-identical to
    /// an unsharded run no matter how the fleet died.
    ///
    /// # Errors
    ///
    /// Returns an error only when the fleet cannot be launched at all (the
    /// executable path is unknown or the first spawn fails).
    pub fn run_worker_fleet(&self) -> std::io::Result<Vec<(String, MergeReport)>> {
        if self.shards < 2 || self.shard.is_some() {
            return Ok(Vec::new());
        }
        let Some(main_dir) = self.cache_dir().map(Path::to_path_buf) else {
            eprintln!("warning: --shards needs the sweep cache; running serially (--no-cache)");
            return Ok(Vec::new());
        };
        let exe = std::env::current_exe()?;
        let forwarded = forwardable_args(std::env::args().skip(1));
        let mut children = Vec::new();
        for index in 0..self.shards {
            let shard = Shard::new(index, self.shards);
            let spawned = std::process::Command::new(&exe)
                .args(&forwarded)
                .arg("--shard")
                .arg(shard.to_string())
                .env_remove("CYCLONE_SHARDS")
                .env_remove("CYCLONE_SHARD")
                .stdout(std::process::Stdio::piped())
                .stderr(std::process::Stdio::piped())
                .spawn();
            match spawned {
                Ok(child) => children.push((shard, child)),
                Err(err) if children.is_empty() => return Err(err),
                Err(err) => eprintln!("warning: could not spawn shard {shard} worker: {err}"),
            }
        }
        for (shard, child) in children {
            match child.wait_with_output() {
                Ok(output) if output.status.success() => {}
                Ok(output) => {
                    eprintln!(
                        "warning: shard {shard} worker exited with {}",
                        output.status
                    );
                    eprint!("{}", String::from_utf8_lossy(&output.stderr));
                }
                Err(err) => eprintln!("warning: could not wait for shard {shard} worker: {err}"),
            }
        }
        merge_shard_caches(&main_dir)
    }

    /// Re-exports the resolved values into the environment so the env-reading
    /// helpers (code catalog selection, CSV rendering) agree with the flags.
    ///
    /// Only [`figure`] calls this, from a bench binary's single-threaded `main` —
    /// it must NOT be called from library code or tests, where mutating the
    /// process environment races with the parallel test harness.
    fn export_env(&self) {
        std::env::set_var("CYCLONE_SHOTS", self.config.shots.to_string());
        std::env::set_var("CYCLONE_THREADS", self.config.threads.to_string());
        std::env::set_var("CYCLONE_CSV", if self.csv { "1" } else { "0" });
        std::env::set_var("CYCLONE_FULL", if self.full { "1" } else { "0" });
    }
}

/// The default cache directory: `sweeps/` at the repository root.
pub fn default_sweep_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../sweeps"))
}

/// The shard-local cache directory of one worker: `<root>/shards/<i>-of-<N>`.
pub fn shard_cache_dir(root: &Path, shard: Shard) -> PathBuf {
    root.join("shards")
        .join(format!("{}-of-{}", shard.index, shard.total))
}

/// The coordinator's argument list for its workers: its own arguments minus any
/// `--shards`/`--shard` (the coordinator appends the worker's own `--shard`).
fn forwardable_args(args: impl Iterator<Item = String>) -> Vec<String> {
    let mut forwarded = Vec::new();
    let mut skip_value = false;
    for arg in args {
        if skip_value {
            skip_value = false;
            continue;
        }
        if arg == "--shards" || arg == "--shard" {
            skip_value = true;
            continue;
        }
        forwarded.push(arg);
    }
    forwarded
}

/// Folds every shard-local cache under `<main_dir>/shards/*/` back into the
/// main cache directory: files are grouped by name (`<figure>.json`; rendered
/// `*.table.json` artifacts and stray temp files are ignored) and merged with
/// [`merge_files`], so corrupt or incompatible shard files are skipped and
/// reported rather than aborting. Caches left by a *different* shard layout
/// merge just as well — the deterministic partition makes any union valid.
///
/// # Errors
///
/// Returns an error when the shard directories cannot be enumerated; per-file
/// merge failures are reported to stderr and skipped.
pub fn merge_shard_caches(main_dir: &Path) -> std::io::Result<Vec<(String, MergeReport)>> {
    let shard_root = main_dir.join("shards");
    let mut by_name: BTreeMap<String, Vec<PathBuf>> = BTreeMap::new();
    let Ok(shard_dirs) = std::fs::read_dir(&shard_root) else {
        return Ok(Vec::new()); // no shards directory: nothing to merge
    };
    for shard_dir in shard_dirs.flatten() {
        let dir = shard_dir.path();
        if !dir.is_dir() {
            continue;
        }
        for file in std::fs::read_dir(&dir)?.flatten() {
            let path = file.path();
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
                continue;
            };
            if name.ends_with(".json") && !name.ends_with(".table.json") && !name.starts_with('.') {
                by_name.entry(name.to_string()).or_default().push(path);
            }
        }
    }
    let mut reports = Vec::new();
    for (name, sources) in by_name {
        match merge_files(&main_dir.join(&name), &sources) {
            Ok(report) => {
                for (path, reason) in &report.sources_skipped {
                    eprintln!("warning: merge skipped {}: {reason}", path.display());
                }
                reports.push((name, report));
            }
            Err(err) => eprintln!("warning: could not merge shard caches for {name}: {err}"),
        }
    }
    Ok(reports)
}

/// A figure's printable result: the table plus optional trailing note lines
/// (crossover points, best configurations, headline ratios).
#[derive(Debug, Clone)]
pub struct FigureReport {
    /// The figure's table.
    pub table: Table,
    /// Free-form lines printed after the table, each preceded by a blank line.
    pub notes: Vec<String>,
}

impl FigureReport {
    /// A report with trailing notes.
    pub fn with_notes(table: Table, notes: Vec<String>) -> Self {
        FigureReport { table, notes }
    }
}

impl From<Table> for FigureReport {
    fn from(table: Table) -> Self {
        FigureReport {
            table,
            notes: Vec::new(),
        }
    }
}

/// Runs one figure: resolves the context, builds the report, prints it, and (when
/// caching is enabled) records the rendered rows as `sweeps/<name>.table.json` so
/// every figure leaves a machine-readable artifact next to the sweep cache.
pub fn figure<R: Into<FigureReport>>(
    name: &str,
    title: &str,
    build: impl FnOnce(&RunContext) -> R,
) {
    let context = RunContext::from_env();
    context.export_env();
    // Coordinator mode: fan the figure's points out across worker processes
    // first, so the build below runs all-cache-hits over the merged result —
    // bit-identical to a serial run, just computed by N cores.
    match context.run_worker_fleet() {
        Ok(merged) => {
            for (file, report) in &merged {
                println!(
                    "(sharded: merged {} across {} shard cache(s) into {file})",
                    report.entries_total, report.sources_merged
                );
            }
        }
        Err(err) => eprintln!("warning: worker fleet failed ({err}); computing serially"),
    }
    let report: FigureReport = build(&context).into();
    report.table.print(title);
    if let Some(shard) = context.shard {
        println!("(worker shard {shard}: skipped points belong to other shards)");
    }
    if let Some(target) = &context.sweep.precision {
        println!(
            "(adaptive sampling: target rse {}, >={} failures, <={} shots/point)",
            target.target_rse, target.min_failures, target.max_shots
        );
    }
    match context.noise {
        NoiseFlag::Uniform => {}
        NoiseFlag::Biased(ratio) => {
            println!("(noise channel: measurement flips at {ratio}x the data rate on every point)");
        }
        NoiseFlag::Schedule => println!(
            "(noise channel: schedule-derived; honored by figures that compile profiled \
             rounds, e.g. fig_hetero — latency-only figures sample uniformly)"
        ),
    }
    for note in &report.notes {
        println!("\n{note}");
    }
    if let Some(dir) = context.cache_dir() {
        if let Err(err) = write_table_json(dir, name, title, &report.table) {
            eprintln!("warning: could not write {name}.table.json: {err}");
        }
    }
}

/// Serializes a rendered table as `<dir>/<name>.table.json`.
fn write_table_json(
    dir: &std::path::Path,
    name: &str,
    title: &str,
    table: &Table,
) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let mut root = BTreeMap::new();
    root.insert("figure".to_string(), Value::from(name));
    root.insert("title".to_string(), Value::from(title));
    root.insert(
        "headers".to_string(),
        Value::Array(
            table
                .headers()
                .iter()
                .map(|h| Value::from(h.as_str()))
                .collect(),
        ),
    );
    root.insert(
        "rows".to_string(),
        Value::Array(
            table
                .rows()
                .iter()
                .map(|row| Value::Array(row.iter().map(|c| Value::from(c.as_str())).collect()))
                .collect(),
        ),
    );
    let mut text = serde_json::to_string(&Value::Object(root));
    text.push('\n');
    std::fs::write(dir.join(format!("{name}.table.json")), text)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn flags_override_defaults() {
        let ctx = RunContext::from_args(&args(&[
            "--shots",
            "77",
            "--threads",
            "3",
            "--no-cache",
            "--ignored-flag",
        ]));
        assert_eq!(ctx.config.shots, 77);
        assert_eq!(ctx.config.threads, 3);
        assert!(ctx.cache_dir().is_none());
        assert_eq!(ctx.config.seed, 0xC1C1_0DE5);
    }

    #[test]
    fn quick_flag_sets_ci_shot_count() {
        let ctx = RunContext::from_args(&args(&["--quick"]));
        assert_eq!(ctx.config.shots, 50);
    }

    #[test]
    fn cache_dir_flag_redirects_the_cache() {
        let ctx = RunContext::from_args(&args(&["--cache-dir", "/tmp/sweep-test"]));
        assert_eq!(
            ctx.cache_dir(),
            Some(std::path::Path::new("/tmp/sweep-test"))
        );
    }

    #[test]
    fn decode_cache_dir_flag_threads_into_sweep_options() {
        // Default: no persistent decode cache (in-memory only).
        let ctx = RunContext::from_args(&args(&["--shots", "100"]));
        assert!(ctx.sweep.decode_cache_dir.is_none());

        let ctx = RunContext::from_args(&args(&["--decode-cache-dir", "/tmp/decode-test"]));
        assert_eq!(
            ctx.sweep.decode_cache_dir.as_deref(),
            Some(std::path::Path::new("/tmp/decode-test"))
        );

        // Orthogonal to the sweep cache: --no-cache disables result caching but
        // leaves the decode cache alone.
        let ctx = RunContext::from_args(&args(&[
            "--no-cache",
            "--decode-cache-dir",
            "/tmp/decode-test",
        ]));
        assert!(ctx.cache_dir().is_none());
        assert!(ctx.sweep.decode_cache_dir.is_some());
    }

    #[test]
    fn malformed_flag_values_fall_back() {
        let ctx = RunContext::from_args(&args(&["--shots", "abc"]));
        assert_eq!(ctx.config.shots, crate::DEFAULT_SHOTS);
        let ctx = RunContext::from_args(&args(&["--threads", "x"]));
        assert_eq!(ctx.config.threads, crate::AUTO_THREADS);
    }

    #[test]
    fn default_runs_stay_on_the_fixed_path() {
        // No adaptive flags, no --full → precision target absent, so sweeps are
        // bit-identical to the pre-adaptive engine.
        let ctx = RunContext::from_args(&args(&["--shots", "200"]));
        assert!(ctx.sweep.precision.is_none());
    }

    #[test]
    fn malformed_target_rse_defers_to_the_mode_default() {
        // A typo'd value is "unset", never an accidental disable: with --full the
        // adaptive default still applies, without it the run stays fixed.
        let ctx = RunContext::from_args(&args(&["--full", "--target-rse", "O.1"]));
        let target = ctx
            .sweep
            .precision
            .expect("malformed value must not disable --full adaptive");
        assert_eq!(target.target_rse, DEFAULT_TARGET_RSE);
        let ctx = RunContext::from_args(&args(&["--target-rse", "abc"]));
        assert!(ctx.sweep.precision.is_none());
        // Non-finite values are malformed too: NaN must not slip past the
        // disable guard into a stop rule that can never fire.
        let ctx = RunContext::from_args(&args(&["--full", "--target-rse", "nan"]));
        assert_eq!(
            ctx.sweep.precision.map(|t| t.target_rse),
            Some(DEFAULT_TARGET_RSE)
        );
        let ctx = RunContext::from_args(&args(&["--target-rse", "inf"]));
        assert!(ctx.sweep.precision.is_none());
    }

    #[test]
    fn malformed_adaptive_flag_values_keep_earlier_settings() {
        // A malformed --min-failures/--max-shots value falls back to whatever was
        // already resolved (the documented env→flag override never *discards* a
        // valid env setting on a typo'd flag).
        let ctx = RunContext::from_args(&args(&[
            "--shots",
            "400",
            "--target-rse",
            "0.2",
            "--min-failures",
            "4OO",
            "--max-shots",
            "x",
        ]));
        let target = ctx.sweep.precision.expect("adaptive");
        assert_eq!(target.min_failures, DEFAULT_MIN_FAILURES);
        assert_eq!(target.max_shots, 400 * MAX_SHOTS_FACTOR);
    }

    #[test]
    fn full_runs_sample_adaptively_by_default() {
        let ctx = RunContext::from_args(&args(&["--shots", "1000", "--full"]));
        let target = ctx
            .sweep
            .precision
            .expect("--full enables adaptive sampling");
        assert_eq!(target.target_rse, DEFAULT_TARGET_RSE);
        assert_eq!(target.min_failures, DEFAULT_MIN_FAILURES);
        assert_eq!(target.max_shots, 1000 * MAX_SHOTS_FACTOR);
        assert_eq!(ctx.sweep.precision, Some(target));
    }

    #[test]
    fn fixed_flag_pins_the_fixed_path_even_in_full_mode() {
        let ctx = RunContext::from_args(&args(&["--full", "--fixed"]));
        assert!(ctx.full);
        assert!(
            ctx.sweep.precision.is_none(),
            "--fixed must win over the --full default"
        );
        // --target-rse 0 is the explicit-disable spelling of the same thing.
        let ctx = RunContext::from_args(&args(&["--full", "--target-rse", "0"]));
        assert!(ctx.sweep.precision.is_none());
    }

    #[test]
    fn noise_flag_parses_all_three_modes() {
        assert_eq!(NoiseFlag::parse("uniform"), Some(NoiseFlag::Uniform));
        assert_eq!(NoiseFlag::parse(" schedule "), Some(NoiseFlag::Schedule));
        assert_eq!(NoiseFlag::parse("biased:2.5"), Some(NoiseFlag::Biased(2.5)));
        assert_eq!(NoiseFlag::parse("biased: 0 "), Some(NoiseFlag::Biased(0.0)));
        assert_eq!(NoiseFlag::parse("biased:-1"), None);
        assert_eq!(NoiseFlag::parse("biased:nan"), None);
        assert_eq!(NoiseFlag::parse("biased:"), None);
        assert_eq!(NoiseFlag::parse("gaussian"), None);
    }

    #[test]
    fn noise_flag_threads_the_channel_into_sweep_options() {
        // Default: uniform, no channel on the sweep — bit-identical engine.
        let ctx = RunContext::from_args(&args(&["--shots", "100"]));
        assert_eq!(ctx.noise, NoiseFlag::Uniform);
        assert!(ctx.sweep.channel.is_none());

        // biased:<ratio> becomes the engine-wide default channel.
        let ctx = RunContext::from_args(&args(&["--noise", "biased:3"]));
        assert_eq!(ctx.noise, NoiseFlag::Biased(3.0));
        assert_eq!(
            ctx.sweep.channel,
            Some(ChannelSpec::Biased { meas_ratio: 3.0 })
        );

        // schedule is advisory: the sweep default stays uniform, figures that can
        // resolve per-codesign channels read ctx.noise.
        let ctx = RunContext::from_args(&args(&["--noise", "schedule"]));
        assert_eq!(ctx.noise, NoiseFlag::Schedule);
        assert!(ctx.sweep.channel.is_none());

        // Malformed values keep the earlier resolution.
        let ctx = RunContext::from_args(&args(&["--noise", "biased:3", "--noise", "bogus"]));
        assert_eq!(ctx.noise, NoiseFlag::Biased(3.0));
    }

    #[test]
    fn shard_flags_resolve_worker_and_coordinator_modes() {
        // Default: one shard, no assignment, single final cache write.
        let ctx = RunContext::from_args(&args(&["--shots", "100"]));
        assert_eq!(ctx.shards, 1);
        assert!(ctx.shard.is_none());
        assert!(ctx.sweep.shard.is_none());
        assert_eq!(ctx.sweep.checkpoint, 0);

        // Coordinator: --shards alone never shards the local sweep (the fleet
        // does the sharded work; this process runs the all-hits serial pass).
        let ctx = RunContext::from_args(&args(&["--shards", "4"]));
        assert_eq!(ctx.shards, 4);
        assert!(ctx.shard.is_none());
        assert!(ctx.sweep.shard.is_none());

        // Worker: shard-local cache under the main dir, main dir as read-only
        // fallback, checkpoint after every point.
        let ctx = RunContext::from_args(&args(&[
            "--cache-dir",
            "/tmp/sweep-shard-test",
            "--shard",
            "2/4",
        ]));
        assert_eq!(ctx.shard, Some(Shard::new(2, 4)));
        assert_eq!(ctx.sweep.shard, Some(Shard::new(2, 4)));
        assert_eq!(
            ctx.cache_dir(),
            Some(Path::new("/tmp/sweep-shard-test/shards/2-of-4"))
        );
        assert_eq!(
            ctx.sweep.fallback_cache_dir.as_deref(),
            Some(Path::new("/tmp/sweep-shard-test"))
        );
        assert_eq!(
            ctx.main_cache_dir(),
            Some(Path::new("/tmp/sweep-shard-test"))
        );
        assert_eq!(ctx.sweep.checkpoint, 1);

        // Explicit cadence override, and the 0 = single-final-write spelling.
        let ctx = RunContext::from_args(&args(&["--shard", "0/2", "--checkpoint-every", "5"]));
        assert_eq!(ctx.sweep.checkpoint, 5);
        let ctx = RunContext::from_args(&args(&["--shard", "0/2", "--checkpoint-every", "0"]));
        assert_eq!(ctx.sweep.checkpoint, 0);

        // Malformed values keep earlier resolutions (the workspace convention).
        let ctx = RunContext::from_args(&args(&["--shard", "4/4"]));
        assert!(ctx.shard.is_none(), "out-of-range shard is malformed");
        let ctx = RunContext::from_args(&args(&["--shards", "0"]));
        assert_eq!(ctx.shards, 1);

        // --no-cache disables the sharded cache plumbing but keeps the shard
        // restriction itself.
        let ctx = RunContext::from_args(&args(&["--no-cache", "--shard", "1/3"]));
        assert!(ctx.cache_dir().is_none());
        assert!(ctx.sweep.fallback_cache_dir.is_none());
        assert_eq!(ctx.sweep.shard, Some(Shard::new(1, 3)));
    }

    #[test]
    fn forwardable_args_strip_fleet_topology() {
        let forwarded = forwardable_args(
            args(&[
                "--shots", "50", "--shards", "4", "--noise", "biased:2", "--shard", "1/4",
            ])
            .into_iter(),
        );
        assert_eq!(forwarded, args(&["--shots", "50", "--noise", "biased:2"]));
    }

    #[test]
    fn adaptive_flags_resolve_a_precision_target() {
        let ctx = RunContext::from_args(&args(&[
            "--shots",
            "400",
            "--target-rse",
            "0.25",
            "--min-failures",
            "30",
            "--max-shots",
            "9000",
        ]));
        let target = ctx
            .sweep
            .precision
            .expect("--target-rse enables adaptive sampling");
        assert_eq!(target.target_rse, 0.25);
        assert_eq!(target.min_failures, 30);
        assert_eq!(target.max_shots, 9000);
    }
}
