//! Shared infrastructure for the benchmark harness that regenerates every table and
//! figure of the paper.
//!
//! Each figure has its own `harness = false` bench target under `benches/`; all of
//! them are thin frontends over [`runner`], which handles argument parsing,
//! Monte-Carlo configuration, sweep-cache control, and aligned-table / CSV / JSON
//! output. The helpers here cover code selection and environment parsing.
//!
//! Environment variables (each has a `--flag` equivalent, see [`runner`]):
//!
//! * `CYCLONE_SHOTS` — Monte-Carlo shots per LER point (default 400; the paper samples
//!   until `> 10 / LER` shots, which is far more than a CI run should attempt).
//! * `CYCLONE_THREADS` — worker-thread count for the sweep pool (default 0 =
//!   available parallelism, at most 16; explicit counts are clamped to 256).
//!   Workers claim whole points, then share the 64-shot chunks of the points still
//!   running. Results are bit-identical at every setting; pin it in CI or on
//!   shared machines to bound CPU use.
//! * `CYCLONE_FULL` — set to `1` to run the full code catalog (including
//!   `[[625,25,8]]` and `[[144,12,12]]`) instead of the quick subset.
//! * `CYCLONE_CSV` — set to `1` to print comma-separated values instead of aligned
//!   text.
//! * `CYCLONE_NO_CACHE` — set to `1` to bypass the `sweeps/<figure>.json` cache.
//! * `CYCLONE_SWEEP_DIR` — cache directory (default `sweeps/` at the repo root).
//! * `CYCLONE_TARGET_RSE` — relative-standard-error target: enables adaptive
//!   (stop-at-precision) sampling; `0` explicitly disables it. `CYCLONE_FULL=1`
//!   runs default to adaptive at 0.1.
//! * `CYCLONE_MIN_FAILURES` — failure floor of the adaptive stop rule (default 100).
//! * `CYCLONE_MAX_SHOTS` — per-point shot cap of adaptive runs (default
//!   20 × `CYCLONE_SHOTS`).
//! * `CYCLONE_FIXED` — set to `1` to force the fixed `CYCLONE_SHOTS` budget even
//!   in `--full` runs (bit-identical to the pre-adaptive engine).
//! * `CYCLONE_NOISE` — error-channel mode: `uniform` (default, the historical
//!   scalar model), `biased:<ratio>` (measurement flips at `<ratio>` times the
//!   data rate on every sweep point), or `schedule` (per-qubit channels from
//!   compiled idle exposure, resolved by figures that compile profiled rounds).
//! * `CYCLONE_SHARDS` — worker-process count for distributed sweeps (default 1 =
//!   in-process only). At `N >= 2` the figure binary becomes a coordinator: it
//!   spawns `N` copies of itself, one per shard, merges their shard-local caches,
//!   and assembles the final output from cache hits — bit-identical to a serial
//!   run at any `N`.
//! * `CYCLONE_SHARD` — `i/N` worker identity (normally set by the coordinator,
//!   not by hand): compute only the points hashing to shard `i` and write them to
//!   a shard-local cache under `<cache-dir>/shards/<i>-of-<N>/`.
//! * `CYCLONE_CHECKPOINT_EVERY` — rewrite the cache after every `K` computed
//!   points (default: 1 for workers, one final write otherwise; `0` explicitly
//!   requests the single final write). A killed worker resumes from its last
//!   checkpoint and loses only in-flight points.

pub mod runner;

use decoder::memory::MemoryConfig;
use qec::codes::{self, CatalogEntry};
use qec::CssCode;
use std::str::FromStr;

/// Default Monte-Carlo shots per logical-error-rate point when `CYCLONE_SHOTS` is
/// unset or malformed.
pub const DEFAULT_SHOTS: usize = 400;

/// Parses an environment value: unset, empty, or malformed input falls back to
/// `default`. All `CYCLONE_*` knobs go through this single parser, so they share the
/// whitespace-trimming and malformed-value semantics.
pub fn env_parse<T: FromStr>(raw: Option<&str>, default: T) -> T {
    raw.and_then(|s| s.trim().parse::<T>().ok())
        .unwrap_or(default)
}

/// Parses a `CYCLONE_SHOTS` value: unset, empty, non-numeric, or zero falls back to
/// [`DEFAULT_SHOTS`] (zero shots would panic the LER estimator).
pub fn shots_from(raw: Option<&str>) -> usize {
    match env_parse(raw, DEFAULT_SHOTS) {
        0 => DEFAULT_SHOTS,
        n => n,
    }
}

/// Worker-thread count meaning "use available parallelism" (the
/// [`decoder::memory::MemoryConfig::threads`] convention).
pub const AUTO_THREADS: usize = 0;

/// Parses a `CYCLONE_THREADS` value: unset, empty, or non-numeric falls back to
/// [`AUTO_THREADS`] (auto-detect); `"0"` is a valid explicit auto-detect request.
pub fn threads_from(raw: Option<&str>) -> usize {
    env_parse(raw, AUTO_THREADS)
}

/// Parses a boolean `CYCLONE_*` flag: only the numeral `1` (modulo surrounding
/// whitespace) enables it.
pub fn flag_from(raw: Option<&str>) -> bool {
    env_parse(raw, 0u8) == 1
}

/// Number of Monte-Carlo shots per logical-error-rate point, honoring `CYCLONE_SHOTS`.
pub fn shots() -> usize {
    shots_from(std::env::var("CYCLONE_SHOTS").ok().as_deref())
}

/// Monte-Carlo worker-thread count, honoring `CYCLONE_THREADS` (0 = auto).
pub fn threads() -> usize {
    threads_from(std::env::var("CYCLONE_THREADS").ok().as_deref())
}

/// Whether to run the full (slow) code catalog, honoring `CYCLONE_FULL`.
pub fn full_run() -> bool {
    flag_from(std::env::var("CYCLONE_FULL").ok().as_deref())
}

/// Whether to emit CSV instead of an aligned table, honoring `CYCLONE_CSV`.
pub fn csv_output() -> bool {
    flag_from(std::env::var("CYCLONE_CSV").ok().as_deref())
}

/// The Monte-Carlo configuration used by every LER bench, honoring `CYCLONE_SHOTS`
/// and `CYCLONE_THREADS`. The estimate itself is thread-count invariant (per-shot
/// RNG streams), so pinning threads only bounds CPU use.
pub fn memory_config() -> MemoryConfig {
    MemoryConfig {
        shots: shots(),
        bp_iterations: 30,
        threads: threads(),
        seed: 0xC1C1_0DE5,
    }
}

/// The physical-error-rate grid used by the LER sweeps (Figs. 14 and 15).
pub fn error_rate_grid() -> Vec<f64> {
    vec![1e-4, 2e-4, 5e-4, 1e-3, 2e-3]
}

/// HGP codes used by the benches: `[[100,4,4]]` and `[[225,9,6]]` by default, the
/// full catalog (adding `[[400,16,6]]` and `[[625,25,8]]`) with `CYCLONE_FULL=1`.
///
/// # Panics
///
/// Panics if the deterministic code constructions fail (they do not).
pub fn hgp_codes() -> Vec<CssCode> {
    if full_run() {
        codes::hgp_catalog()
            .expect("catalog construction")
            .into_iter()
            .map(|e| e.code)
            .collect()
    } else {
        vec![
            codes::hgp_100().expect("construction"),
            codes::hgp_225_9_6().expect("construction"),
        ]
    }
}

/// BB codes used by the benches: `[[72,12,6]]` and `[[90,8,10]]` by default, the full
/// catalog (adding `[[108,8,10]]` and `[[144,12,12]]`) with `CYCLONE_FULL=1`.
///
/// # Panics
///
/// Panics if the deterministic code constructions fail (they do not).
pub fn bb_codes() -> Vec<CssCode> {
    if full_run() {
        codes::bb_catalog()
            .expect("catalog construction")
            .into_iter()
            .map(|e| e.code)
            .collect()
    } else {
        vec![
            codes::bb_72_12_6().expect("construction"),
            codes::bb_90_8_10().expect("construction"),
        ]
    }
}

/// The full labelled catalog (both families), honoring `CYCLONE_FULL`.
///
/// # Panics
///
/// Panics if the deterministic code constructions fail (they do not).
pub fn catalog() -> Vec<CatalogEntry> {
    if full_run() {
        codes::full_catalog().expect("catalog construction")
    } else {
        let mut entries = Vec::new();
        for code in hgp_codes() {
            entries.push(CatalogEntry {
                family: codes::CodeFamily::Hgp,
                label: code.descriptor(),
                code,
            });
        }
        for code in bb_codes() {
            entries.push(CatalogEntry {
                family: codes::CodeFamily::Bb,
                label: code.descriptor(),
                code,
            });
        }
        entries
    }
}

/// The `[[225,9,6]]` code used by most single-code sensitivity studies.
///
/// # Panics
///
/// Panics if the deterministic construction fails (it does not).
pub fn sensitivity_code() -> CssCode {
    codes::hgp_225_9_6().expect("construction")
}

/// A simple column-aligned (or CSV) table printer.
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row (must have the same arity as the headers).
    ///
    /// # Panics
    ///
    /// Panics if the row length differs from the header length.
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells);
        self
    }

    /// The column headers.
    pub fn headers(&self) -> &[String] {
        &self.headers
    }

    /// The appended rows.
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    /// Renders the table, honoring `CYCLONE_CSV`.
    pub fn render(&self) -> String {
        if csv_output() {
            let mut out = self.headers.join(",");
            out.push('\n');
            for row in &self.rows {
                out.push_str(&row.join(","));
                out.push('\n');
            }
            return out;
        }
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Prints the rendered table to stdout with a title line.
    pub fn print(&self, title: &str) {
        println!("\n== {title} ==");
        print!("{}", self.render());
    }
}

/// Formats a duration in seconds as milliseconds with two decimals.
pub fn ms(seconds: f64) -> String {
    format!("{:.2}", seconds * 1e3)
}

/// Formats a probability in scientific notation.
pub fn sci(p: f64) -> String {
    format!("{p:.3e}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["a", "long header"]);
        t.row(vec!["1".into(), "2".into()]);
        let s = t.render();
        assert!(s.contains("long header"));
        assert!(s.lines().count() >= 3);
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn table_rejects_bad_row() {
        let mut t = Table::new(&["a"]);
        t.row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn defaults_are_reasonable() {
        assert!(shots() > 0);
        assert_eq!(error_rate_grid().len(), 5);
    }

    #[test]
    fn env_parse_is_generic_over_fromstr() {
        // usize / u8 / f64 all share the trim + malformed-fallback semantics.
        assert_eq!(env_parse::<usize>(Some(" 42 "), 7), 42);
        assert_eq!(env_parse::<usize>(Some("nope"), 7), 7);
        assert_eq!(env_parse::<usize>(None, 7), 7);
        assert_eq!(env_parse::<u8>(Some("1"), 0), 1);
        assert_eq!(env_parse::<f64>(Some("2.5"), 0.0), 2.5);
        assert_eq!(env_parse::<f64>(Some(""), 1.25), 1.25);
    }

    #[test]
    fn shots_parsing_defaults_and_overrides() {
        // Unset → default.
        assert_eq!(shots_from(None), DEFAULT_SHOTS);
        // Well-formed override.
        assert_eq!(shots_from(Some("50")), 50);
        assert_eq!(shots_from(Some(" 1250 ")), 1250);
        // Malformed values fall back to the default instead of erroring.
        assert_eq!(shots_from(Some("abc")), DEFAULT_SHOTS);
        assert_eq!(shots_from(Some("")), DEFAULT_SHOTS);
        assert_eq!(shots_from(Some("-3")), DEFAULT_SHOTS);
        assert_eq!(shots_from(Some("1e3")), DEFAULT_SHOTS);
        // Zero shots would panic the LER estimator; treat it as malformed.
        assert_eq!(shots_from(Some("0")), DEFAULT_SHOTS);
    }

    #[test]
    fn threads_parsing_defaults_and_overrides() {
        // Unset → auto-detect.
        assert_eq!(threads_from(None), AUTO_THREADS);
        // Explicit pin.
        assert_eq!(threads_from(Some("4")), 4);
        assert_eq!(threads_from(Some(" 12 ")), 12);
        // "0" is a valid explicit auto request, not a malformed value.
        assert_eq!(threads_from(Some("0")), AUTO_THREADS);
        // Malformed values fall back to auto instead of erroring.
        assert_eq!(threads_from(Some("abc")), AUTO_THREADS);
        assert_eq!(threads_from(Some("")), AUTO_THREADS);
        assert_eq!(threads_from(Some("-2")), AUTO_THREADS);
        assert_eq!(threads_from(Some("2.5")), AUTO_THREADS);
    }

    #[test]
    fn flag_parsing_accepts_only_literal_one() {
        assert!(flag_from(Some("1")));
        assert!(flag_from(Some(" 1")));
        assert!(!flag_from(None));
        assert!(!flag_from(Some("0")));
        assert!(!flag_from(Some("true")));
        assert!(!flag_from(Some("yes")));
        assert!(!flag_from(Some("")));
    }

    #[test]
    fn format_helpers() {
        assert_eq!(ms(0.001), "1.00");
        assert!(sci(1.5e-3).contains('e'));
    }
}
