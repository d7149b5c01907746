//! Offline composition of sweep cache files: `merge`, `stats`, and `verify`
//! over the `sweeps/<figure>.json` format written by [`crate::run_sweep`].
//!
//! Sharded fleets (see `bench::runner`) leave one cache file per shard; this
//! module folds them back into a single file. The merge is a **union of point
//! sets** with conflicts resolved by the same meets-or-exceeds order the sweep
//! engine's reuse rules apply: an entry with strictly more recorded shots
//! replaces one with fewer, and ties keep the incumbent. Because every entry is
//! produced by per-shot seeded RNG streams, two entries with equal shot counts
//! for the same point are bit-identical, which makes the merge commutative and
//! idempotent — shards can be folded in any order, any number of times, and the
//! result is the same file.
//!
//! Compatibility is decided at the header level: files must agree on `figure`,
//! `seed`, and `bp_iterations` (the same identity [`crate::run_sweep`]'s loader
//! checks). A source that disagrees — or does not parse — is *skipped and
//! reported*, never silently folded in, and never aborts the merge of the
//! remaining sources. Schema-1 and schema-2 files are accepted as sources:
//! their entries simply lack the `channel` field and read back as `"uniform"`,
//! exactly the channel those entries were sampled under.

use crate::sweep::CACHE_SCHEMA;
use decoder::cache::atomic_write;
use serde_json::Value;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// One cache file parsed into its header and per-id entries.
#[derive(Debug, Clone)]
struct ParsedCache {
    /// Every header field except `points` (kept verbatim so merged output
    /// preserves `mode`/`target_*` context from the reference file).
    header: BTreeMap<String, Value>,
    /// Entries by point id; the `usize` is the recorded shot count used for
    /// conflict resolution.
    entries: BTreeMap<String, (usize, Value)>,
}

impl ParsedCache {
    fn figure(&self) -> &str {
        self.header
            .get("figure")
            .and_then(Value::as_str)
            .unwrap_or_default()
    }

    fn seed(&self) -> &str {
        self.header
            .get("seed")
            .and_then(Value::as_str)
            .unwrap_or_default()
    }

    fn bp_iterations(&self) -> u64 {
        self.header
            .get("bp_iterations")
            .and_then(Value::as_u64)
            .unwrap_or_default()
    }

    /// Whether `other` may be merged into this cache: same figure, same seed,
    /// same BP iteration cap — the identity [`crate::run_sweep`]'s loader
    /// checks before reusing any entry.
    fn compatible_with(&self, other: &ParsedCache) -> Option<String> {
        if self.figure() != other.figure() {
            return Some(format!(
                "figure `{}` does not match `{}`",
                other.figure(),
                self.figure()
            ));
        }
        if self.seed() != other.seed() {
            return Some(format!(
                "seed {} does not match {}",
                other.seed(),
                self.seed()
            ));
        }
        if self.bp_iterations() != other.bp_iterations() {
            return Some(format!(
                "bp_iterations {} does not match {}",
                other.bp_iterations(),
                self.bp_iterations()
            ));
        }
        None
    }
}

/// Parses one cache file, rejecting anything [`verify_file`] would reject.
fn parse_cache(path: &Path) -> Result<ParsedCache, String> {
    let text = std::fs::read_to_string(path).map_err(|err| format!("unreadable: {err}"))?;
    let doc = serde_json::from_str(&text).map_err(|err| format!("malformed JSON: {err}"))?;
    let Some(root) = doc.as_object() else {
        return Err("root is not an object".to_string());
    };
    let mut header = root.clone();
    let points = header.remove("points");
    if header.get("figure").and_then(Value::as_str).is_none() {
        return Err("missing string header field `figure`".to_string());
    }
    if header.get("seed").and_then(Value::as_str).is_none() {
        return Err(
            "missing string header field `seed` (u64 stored as decimal string)".to_string(),
        );
    }
    if header
        .get("bp_iterations")
        .and_then(Value::as_u64)
        .is_none()
    {
        return Err("missing numeric header field `bp_iterations`".to_string());
    }
    let Some(points) = points.as_ref().and_then(Value::as_array) else {
        return Err("missing array field `points`".to_string());
    };
    let mut entries = BTreeMap::new();
    for (index, entry) in points.iter().enumerate() {
        let Some(id) = entry.get("id").and_then(Value::as_str) else {
            return Err(format!("entry {index} has no string `id`"));
        };
        let (Some(_), Some(_), Some(shots), Some(failures)) = (
            entry.get("p").and_then(Value::as_f64),
            entry.get("latency").and_then(Value::as_f64),
            entry.get("shots").and_then(Value::as_u64),
            entry.get("failures").and_then(Value::as_u64),
        ) else {
            return Err(format!(
                "entry `{id}` is missing one of p/latency/shots/failures"
            ));
        };
        if failures > shots {
            return Err(format!(
                "entry `{id}` records {failures} failures out of {shots} shots"
            ));
        }
        if entries
            .insert(id.to_string(), (shots as usize, entry.clone()))
            .is_some()
        {
            return Err(format!("duplicate entry id `{id}`"));
        }
    }
    Ok(ParsedCache { header, entries })
}

/// What one [`merge_files`] call did.
#[derive(Debug, Clone, Default)]
pub struct MergeReport {
    /// Sources whose entries were folded in.
    pub sources_merged: usize,
    /// Sources left out, with the reason (corrupt file, incompatible header).
    pub sources_skipped: Vec<(PathBuf, String)>,
    /// Entries newly added to the destination.
    pub entries_added: usize,
    /// Destination entries replaced by a strictly-more-shots source entry.
    pub entries_upgraded: usize,
    /// Entry count of the written destination file.
    pub entries_total: usize,
}

/// Merges `sources` into `dest`, writing the union atomically.
///
/// The reference header (figure/seed/bp_iterations that every folded source
/// must match) comes from `dest` when it exists and parses, else from the first
/// parseable source. A corrupt `dest` is treated as absent — the merge rebuilds
/// it from the sources rather than failing. Conflicting entries resolve to the
/// one with strictly more recorded shots; ties keep the incumbent. Entries with
/// zero recorded shots are dropped (the sweep engine's loader skips them
/// anyway).
///
/// # Errors
///
/// Returns an error when no input (destination or source) parses as a cache
/// file — there is nothing to write — or when writing the destination fails.
/// Per-source problems are reported in [`MergeReport::sources_skipped`], not as
/// errors.
pub fn merge_files(dest: &Path, sources: &[PathBuf]) -> std::io::Result<MergeReport> {
    let mut report = MergeReport::default();
    // A missing or corrupt destination is rebuilt from the sources.
    let mut merged: Option<ParsedCache> = parse_cache(dest).ok();
    for source in sources {
        let parsed = match parse_cache(source) {
            Ok(parsed) => parsed,
            Err(reason) => {
                report.sources_skipped.push((source.clone(), reason));
                continue;
            }
        };
        let Some(merged) = merged.as_mut() else {
            // No destination yet: the first parseable source becomes the
            // reference, and all of its entries are new.
            report.entries_added += parsed.entries.len();
            merged = Some(parsed);
            report.sources_merged += 1;
            continue;
        };
        if let Some(reason) = merged.compatible_with(&parsed) {
            report.sources_skipped.push((source.clone(), reason));
            continue;
        }
        for (id, (shots, entry)) in parsed.entries {
            match merged.entries.get(&id) {
                Some(&(existing, _)) if existing >= shots => {}
                Some(_) => {
                    merged.entries.insert(id, (shots, entry));
                    report.entries_upgraded += 1;
                }
                None => {
                    merged.entries.insert(id, (shots, entry));
                    report.entries_added += 1;
                }
            }
        }
        report.sources_merged += 1;
    }
    let Some(mut merged) = merged else {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!(
                "no parseable cache file among {} and {} source(s)",
                dest.display(),
                sources.len()
            ),
        ));
    };
    merged.entries.retain(|_, (shots, _)| *shots > 0);
    report.entries_total = merged.entries.len();

    let mut root = merged.header;
    root.insert("schema".to_string(), Value::from(CACHE_SCHEMA as usize));
    root.insert(
        "points".to_string(),
        Value::Array(
            merged
                .entries
                .into_values()
                .map(|(_, entry)| entry)
                .collect(),
        ),
    );
    let mut text = serde_json::to_string(&Value::Object(root));
    text.push('\n');
    atomic_write(dest, &text)?;
    Ok(report)
}

/// Summary statistics of one cache file.
#[derive(Debug, Clone)]
pub struct CacheStats {
    /// Schema tag recorded in the file (0 when absent — schema-1 files predate
    /// the field).
    pub schema: u64,
    /// The figure the cache belongs to.
    pub figure: String,
    /// The RNG seed (decimal string, as stored).
    pub seed: String,
    /// The BP iteration cap the entries were decoded under.
    pub bp_iterations: u64,
    /// Sampling mode recorded in the header (`fixed`, `adaptive`, or `unknown`
    /// for schema-1 files).
    pub mode: String,
    /// Number of point entries.
    pub entries: usize,
    /// Total Monte-Carlo shots recorded across all entries.
    pub total_shots: usize,
    /// Total failures recorded across all entries.
    pub total_failures: usize,
}

/// Parses `path` and summarizes it.
///
/// # Errors
///
/// Returns the same validation failures as [`verify_file`], as a human-readable
/// reason.
pub fn stats_file(path: &Path) -> Result<CacheStats, String> {
    let parsed = parse_cache(path)?;
    let total_shots = parsed.entries.values().map(|(shots, _)| *shots).sum();
    let total_failures = parsed
        .entries
        .values()
        .filter_map(|(_, entry)| entry.get("failures").and_then(Value::as_u64))
        .sum::<u64>() as usize;
    Ok(CacheStats {
        schema: parsed
            .header
            .get("schema")
            .and_then(Value::as_u64)
            .unwrap_or(0),
        figure: parsed.figure().to_string(),
        seed: parsed.seed().to_string(),
        bp_iterations: parsed.bp_iterations(),
        mode: parsed
            .header
            .get("mode")
            .and_then(Value::as_str)
            .unwrap_or("unknown")
            .to_string(),
        entries: parsed.entries.len(),
        total_shots,
        total_failures,
    })
}

/// Validates that `path` is a structurally sound cache file: parseable JSON
/// with the required header fields, a `points` array whose entries all carry
/// `id`/`p`/`latency`/`shots`/`failures`, no duplicate ids, and no entry with
/// more failures than shots.
///
/// # Errors
///
/// Returns a human-readable reason when any check fails.
pub fn verify_file(path: &Path) -> Result<(), String> {
    parse_cache(path).map(|_| ())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch_dir(test: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("cyclone-sweep-cache-{}-{test}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        dir
    }

    fn cache_text(figure: &str, entries: &[(&str, usize, usize)]) -> String {
        let points: Vec<String> = entries
            .iter()
            .map(|(id, shots, failures)| {
                format!(
                    "{{\"id\":\"{id}\",\"p\":0.001,\"latency\":0.0,\"channel\":\"uniform\",\
                     \"shots\":{shots},\"failures\":{failures},\"ler\":0.1,\"std_err\":0.01}}"
                )
            })
            .collect();
        format!(
            "{{\"schema\":3,\"figure\":\"{figure}\",\"seed\":\"3250654693\",\"shots\":60,\
             \"bp_iterations\":12,\"mode\":\"fixed\",\"points\":[{}]}}\n",
            points.join(",")
        )
    }

    #[test]
    fn merge_unions_and_prefers_more_shots() {
        let dir = scratch_dir("union");
        let a = dir.join("a.json");
        let b = dir.join("b.json");
        let dest = dir.join("merged.json");
        std::fs::write(&a, cache_text("fig", &[("p0", 100, 3), ("p1", 50, 1)])).unwrap();
        std::fs::write(&b, cache_text("fig", &[("p1", 200, 4), ("p2", 80, 2)])).unwrap();
        let report = merge_files(&dest, &[a, b]).expect("merge");
        assert_eq!(report.sources_merged, 2);
        assert!(report.sources_skipped.is_empty());
        assert_eq!(report.entries_total, 3);
        assert_eq!(report.entries_added, 3);
        assert_eq!(report.entries_upgraded, 1);
        let stats = stats_file(&dest).expect("stats");
        assert_eq!(stats.entries, 3);
        assert_eq!(stats.total_shots, 100 + 200 + 80);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn merge_skips_incompatible_and_corrupt_sources() {
        let dir = scratch_dir("skip");
        let good = dir.join("good.json");
        let other_figure = dir.join("other.json");
        let corrupt = dir.join("corrupt.json");
        let dest = dir.join("merged.json");
        std::fs::write(&good, cache_text("fig", &[("p0", 100, 3)])).unwrap();
        std::fs::write(&other_figure, cache_text("not-fig", &[("p9", 10, 0)])).unwrap();
        std::fs::write(&corrupt, "{\"schema\":3,").unwrap();
        let report = merge_files(&dest, &[good, other_figure, corrupt]).expect("merge");
        assert_eq!(report.sources_merged, 1);
        assert_eq!(report.sources_skipped.len(), 2);
        assert_eq!(report.entries_total, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn merge_is_idempotent_and_commutative_bytewise() {
        let dir = scratch_dir("commute");
        let a = dir.join("a.json");
        let b = dir.join("b.json");
        std::fs::write(&a, cache_text("fig", &[("p0", 100, 3), ("p1", 50, 1)])).unwrap();
        std::fs::write(&b, cache_text("fig", &[("p1", 50, 1), ("p2", 80, 2)])).unwrap();
        let ab = dir.join("ab.json");
        let ba = dir.join("ba.json");
        merge_files(&ab, &[a.clone(), b.clone()]).expect("merge ab");
        merge_files(&ba, &[b.clone(), a.clone()]).expect("merge ba");
        let ab_text = std::fs::read_to_string(&ab).unwrap();
        assert_eq!(ab_text, std::fs::read_to_string(&ba).unwrap());
        // Folding the same sources in again changes nothing.
        merge_files(&ab, &[a, b]).expect("re-merge");
        assert_eq!(ab_text, std::fs::read_to_string(&ab).unwrap());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn merge_with_nothing_parseable_errors() {
        let dir = scratch_dir("nothing");
        let corrupt = dir.join("corrupt.json");
        std::fs::write(&corrupt, "not json").unwrap();
        let err = merge_files(&dir.join("merged.json"), &[corrupt]);
        assert!(err.is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn verify_rejects_structural_problems() {
        let dir = scratch_dir("verify");
        let valid = dir.join("valid.json");
        std::fs::write(&valid, cache_text("fig", &[("p0", 100, 3)])).unwrap();
        assert!(verify_file(&valid).is_ok());
        let impossible = dir.join("impossible.json");
        std::fs::write(&impossible, cache_text("fig", &[("p0", 10, 11)])).unwrap();
        assert!(verify_file(&impossible).is_err_and(|reason| reason.contains("failures")));
        let dup = dir.join("dup.json");
        std::fs::write(&dup, cache_text("fig", &[("p0", 10, 1), ("p0", 10, 1)])).unwrap();
        assert!(verify_file(&dup).is_err_and(|reason| reason.contains("duplicate")));
        assert!(verify_file(&dir.join("missing.json")).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
