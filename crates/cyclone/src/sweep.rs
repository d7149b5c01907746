//! The scenario sweep engine: declarative figure specifications executed across a
//! shared worker pool, with a JSON result cache.
//!
//! A [`ScenarioSpec`] names a figure and enumerates its Monte-Carlo operating points
//! (`code × physical error rate × round latency`, each with a unique id). The engine
//! ([`run_sweep`]):
//!
//! * executes every point across [`decoder::memory::estimate_points`]'s worker pool —
//!   workers claim whole points, and once every point is started an idle worker
//!   joins the point (fixed-budget or adaptive) with the most unclaimed 64-shot
//!   chunks, so a figure scales with the host core count even when one slow
//!   point dominates;
//! * is deterministic at any thread count: every point is evaluated with the same
//!   per-shot RNG streams derived from [`MemoryConfig::seed`] (the workspace's
//!   `0xC1C1_0DE5` convention, shared with `decoder::memory`), so results are
//!   bit-identical whether `CYCLONE_THREADS` is 1 or 64;
//! * serializes results to `sweeps/<figure>.json` and reuses them as a cache on
//!   re-runs: a point is recomputed only when its id, operating point, or Monte-Carlo
//!   configuration changed, so quick-mode CI runs and full-shot local runs compose
//!   without poisoning each other (a corrupt or missing cache file simply falls back
//!   to recomputation). Cache files are written atomically (temp file + rename in
//!   the same directory), so a crash or two figure binaries sharing a cache
//!   directory can never leave or observe a torn file;
//! * optionally samples **adaptively**: a [`PrecisionTarget`] on the options (or on
//!   an individual point) stops each point at a target relative standard error /
//!   failure count instead of a fixed shot budget, and the cache records the shots
//!   actually spent so a cached point is reused whenever it meets-or-exceeds the
//!   requested precision (cache schema 2; schema-1 fixed-shot files stay readable).

use decoder::cache::atomic_write;
use decoder::memory::{estimate_points, LerEstimate, LerPoint, MemoryConfig, PrecisionTarget};
use noise::ChannelSpec;
use qec::CssCode;
use serde_json::Value;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Version tag written to cache files. Schema 2 added the `mode` header and
/// meets-or-exceeds reuse of per-entry shot counts; schema 3 added the per-entry
/// `channel` identity (see [`ChannelSpec::cache_id`]). Schema-1 and schema-2
/// files stay readable unmigrated: entries carry per-point `shots`/`failures`
/// already, and a missing `channel` field reads back as `"uniform"` — exactly
/// the channel every pre-schema-3 point was sampled under.
pub(crate) const CACHE_SCHEMA: u64 = 3;

/// A deterministic work-shard assignment: of `total` cooperating processes, this
/// one computes only the operating points whose stable identity hashes to
/// `index` (see [`shard_of`]). Because the assignment depends only on the
/// point's id string — never on spec order, shard count of a previous run, or
/// the host — any shard layout partitions a spec into disjoint, collectively
/// exhaustive subsets, and every point's estimate is the same bit-for-bit no
/// matter which shard (or how many shards) computed it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shard {
    /// This process's shard index, `0 <= index < total`.
    pub index: usize,
    /// Total number of shards in the fleet (at least 1).
    pub total: usize,
}

impl Shard {
    /// A shard assignment.
    ///
    /// # Panics
    ///
    /// Panics unless `index < total`.
    pub fn new(index: usize, total: usize) -> Self {
        assert!(index < total, "shard index {index} out of range 0..{total}");
        Shard { index, total }
    }

    /// Parses the `--shard` spelling `"i/N"` (e.g. `"2/4"`); `None` when
    /// malformed or out of range (`i >= N` or `N == 0`).
    pub fn parse(raw: &str) -> Option<Self> {
        let (index, total) = raw.trim().split_once('/')?;
        let index = index.trim().parse::<usize>().ok()?;
        let total = total.trim().parse::<usize>().ok()?;
        (index < total).then_some(Shard { index, total })
    }

    /// Whether the point with this stable id belongs to this shard.
    pub fn contains(&self, id: &str) -> bool {
        shard_of(id, self.total) == self.index
    }
}

impl std::fmt::Display for Shard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.index, self.total)
    }
}

/// The shard that owns the point with stable id `id` in a `total`-shard layout:
/// an FNV-1a digest of the id bytes reduced mod `total`. Stable across
/// processes, platforms, and releases — the partition is part of the sharding
/// contract, so shard-local caches from different fleet layouts stay mergeable.
///
/// # Panics
///
/// Panics when `total` is zero.
pub fn shard_of(id: &str, total: usize) -> usize {
    assert!(total > 0, "shard layouts need at least one shard");
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in id.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (hash % total as u64) as usize
}

/// One Monte-Carlo operating point of a scenario sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct OperatingPoint {
    /// Unique id within the spec (cache key and diagnostic label), e.g.
    /// `"cyclone/[[72,12,6]]/p=1e-3"`.
    pub id: String,
    /// Index into [`ScenarioSpec::codes`].
    pub code: usize,
    /// Physical error rate.
    pub p: f64,
    /// Round latency in seconds.
    pub latency: f64,
    /// Per-point precision override: `Some` samples this point adaptively with its
    /// own target, `None` defers to [`SweepOptions::precision`] (and to the fixed
    /// shot budget when that is `None` too).
    pub precision: Option<PrecisionTarget>,
    /// Per-point error-channel override: `Some` samples this point under its own
    /// channel spec, `None` defers to [`SweepOptions::channel`] (and to the
    /// uniform channel when that is `None` too). The effective spec participates
    /// in cache-point identity via [`ChannelSpec::cache_id`].
    pub channel: Option<ChannelSpec>,
}

/// A declarative scenario sweep: the codes of one figure and every operating point
/// to estimate.
#[derive(Debug, Default)]
pub struct ScenarioSpec {
    /// Figure name; the cache file is `sweeps/<figure>.json`.
    pub figure: String,
    /// The codes referenced by the points.
    pub codes: Vec<CssCode>,
    /// The operating points, in output order.
    pub points: Vec<OperatingPoint>,
}

impl ScenarioSpec {
    /// An empty spec for the given figure.
    pub fn new(figure: impl Into<String>) -> Self {
        ScenarioSpec {
            figure: figure.into(),
            codes: Vec::new(),
            points: Vec::new(),
        }
    }

    /// Adds a code and returns its index for use in [`ScenarioSpec::point`].
    pub fn code(&mut self, code: CssCode) -> usize {
        self.codes.push(code);
        self.codes.len() - 1
    }

    /// Adds one operating point (sampled per [`SweepOptions::precision`] under the
    /// sweep's default channel).
    ///
    /// # Panics
    ///
    /// Panics if `code` is out of range or the id duplicates an earlier point's.
    pub fn point(&mut self, id: impl Into<String>, code: usize, p: f64, latency: f64) -> &mut Self {
        self.push_point(id.into(), code, p, latency, None, None)
    }

    /// Adds one operating point with its own [`PrecisionTarget`], overriding the
    /// sweep-level default for just this point.
    ///
    /// # Panics
    ///
    /// Panics if `code` is out of range or the id duplicates an earlier point's.
    pub fn point_precise(
        &mut self,
        id: impl Into<String>,
        code: usize,
        p: f64,
        latency: f64,
        target: PrecisionTarget,
    ) -> &mut Self {
        self.push_point(id.into(), code, p, latency, Some(target), None)
    }

    /// Adds one operating point with its own [`ChannelSpec`], overriding the
    /// sweep-level default channel for just this point.
    ///
    /// # Panics
    ///
    /// Panics if `code` is out of range or the id duplicates an earlier point's.
    pub fn point_channel(
        &mut self,
        id: impl Into<String>,
        code: usize,
        p: f64,
        latency: f64,
        channel: ChannelSpec,
    ) -> &mut Self {
        self.push_point(id.into(), code, p, latency, None, Some(channel))
    }

    fn push_point(
        &mut self,
        id: String,
        code: usize,
        p: f64,
        latency: f64,
        precision: Option<PrecisionTarget>,
        channel: Option<ChannelSpec>,
    ) -> &mut Self {
        assert!(code < self.codes.len(), "code index {code} out of range");
        assert!(
            self.points.iter().all(|pt| pt.id != id),
            "duplicate point id `{id}`"
        );
        self.points.push(OperatingPoint {
            id,
            code,
            p,
            latency,
            precision,
            channel,
        });
        self
    }
}

/// How [`run_sweep`] executes a spec.
#[derive(Debug, Clone)]
pub struct SweepOptions {
    /// Monte-Carlo configuration applied to every point (`threads` sizes the
    /// sweep's worker pool; the estimate itself is thread-count invariant).
    /// `config.shots` is the fixed budget of points without a precision target.
    pub config: MemoryConfig,
    /// Cache directory (`sweeps/` by convention). `None` disables caching.
    pub cache_dir: Option<PathBuf>,
    /// Default precision target: `Some` switches every point (without its own
    /// [`OperatingPoint::precision`] override) to adaptive stop-at-precision
    /// sampling, whose 64-shot chunks idle workers share like a fixed point's;
    /// `None` keeps the fixed `config.shots` budget, bit-identical to the engine
    /// before adaptive sampling existed.
    pub precision: Option<PrecisionTarget>,
    /// Default error channel: `Some` samples every point (without its own
    /// [`OperatingPoint::channel`] override) under this spec; `None` keeps the
    /// uniform channel, bit-identical to the engine before channels existed.
    pub channel: Option<ChannelSpec>,
    /// Directory for persistent per-context decode caches (syndrome → correction
    /// tables keyed by matrix + priors digest). `None` keeps decode caches
    /// in-memory only. Estimates are bit-identical either way: cached entries are
    /// pure decoder outputs.
    pub decode_cache_dir: Option<PathBuf>,
    /// Work-shard assignment: `Some` restricts computation to the spec points
    /// this shard owns (see [`Shard::contains`]). Points owned by other shards
    /// are still served from the cache when present; otherwise they come back as
    /// [`PointOutcome::skipped`] with an empty estimate. `None` (the default)
    /// computes every miss.
    pub shard: Option<Shard>,
    /// Checkpoint granularity: with `checkpoint = k > 0` the cache file is
    /// rewritten after every `k` freshly computed points, so a killed run loses
    /// at most the in-flight group. `0` (the default) keeps the single
    /// final write. Checkpointing never changes estimates — only how often the
    /// same entries are published.
    pub checkpoint: usize,
    /// Read-only secondary cache directory, consulted for points the primary
    /// `cache_dir` misses. Never written. Lets a shard-local worker reuse a
    /// pre-existing main cache without racing other workers on it.
    pub fallback_cache_dir: Option<PathBuf>,
}

impl SweepOptions {
    /// Runs entirely in memory — no cache reads or writes (the default for unit
    /// tests and library callers).
    pub fn ephemeral(config: MemoryConfig) -> Self {
        SweepOptions {
            config,
            cache_dir: None,
            precision: None,
            channel: None,
            decode_cache_dir: None,
            shard: None,
            checkpoint: 0,
            fallback_cache_dir: None,
        }
    }

    /// Reads and writes `<dir>/<figure>.json` around the run.
    pub fn cached(config: MemoryConfig, dir: impl Into<PathBuf>) -> Self {
        SweepOptions {
            config,
            cache_dir: Some(dir.into()),
            precision: None,
            channel: None,
            decode_cache_dir: None,
            shard: None,
            checkpoint: 0,
            fallback_cache_dir: None,
        }
    }

    /// Switches the sweep to adaptive sampling with `target` as the default
    /// per-point precision (builder style).
    pub fn with_precision(mut self, target: PrecisionTarget) -> Self {
        self.precision = Some(target);
        self
    }

    /// Samples every point (without its own override) under `channel`
    /// (builder style).
    pub fn with_channel(mut self, channel: ChannelSpec) -> Self {
        self.channel = Some(channel);
        self
    }

    /// Persists per-context decode caches under `dir` across runs
    /// (builder style). Safe to enable anywhere: cache entries are pure
    /// decoder outputs, so estimates stay bit-identical.
    pub fn with_decode_cache_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.decode_cache_dir = Some(dir.into());
        self
    }

    /// Restricts computation to the points `shard` owns (builder style). Points
    /// owned by other shards are cache-hits-or-skipped, never computed.
    pub fn with_shard(mut self, shard: Shard) -> Self {
        self.shard = Some(shard);
        self
    }

    /// Rewrites the cache file after every `every` freshly computed points
    /// (builder style); `0` restores the single final write.
    pub fn with_checkpoint(mut self, every: usize) -> Self {
        self.checkpoint = every;
        self
    }

    /// Consults `dir` (read-only) for points the primary cache misses
    /// (builder style).
    pub fn with_fallback_cache_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.fallback_cache_dir = Some(dir.into());
        self
    }

    /// The effective sampling target of one spec point (its override, else the
    /// sweep default; `None` = fixed shot budget).
    fn target_for(&self, point: &OperatingPoint) -> Option<PrecisionTarget> {
        point.precision.or(self.precision)
    }

    /// The effective channel spec of one spec point (its override, else the sweep
    /// default; `None` = uniform).
    fn channel_for<'a>(&'a self, point: &'a OperatingPoint) -> Option<&'a ChannelSpec> {
        point.channel.as_ref().or(self.channel.as_ref())
    }

    /// The cache identity of one spec point's effective channel.
    fn channel_id_for(&self, point: &OperatingPoint) -> String {
        self.channel_for(point)
            .map_or_else(|| ChannelSpec::Uniform.cache_id(), ChannelSpec::cache_id)
    }
}

/// One executed operating point.
#[derive(Debug, Clone)]
pub struct PointOutcome {
    /// The spec's point id.
    pub id: String,
    /// Physical error rate of the point.
    pub p: f64,
    /// Round latency of the point, seconds.
    pub latency: f64,
    /// The logical-error-rate estimate.
    pub ler: LerEstimate,
    /// Whether the estimate was served from the cache.
    pub cached: bool,
    /// Whether the point was skipped: it belongs to another shard and had no
    /// cached estimate. Skipped points carry [`LerEstimate::empty`] and are
    /// never written to the cache.
    pub skipped: bool,
}

/// The result of one sweep, points in spec order.
#[derive(Debug, Clone)]
pub struct SweepResult {
    /// The spec's figure name.
    pub figure: String,
    /// One outcome per spec point, in order.
    pub points: Vec<PointOutcome>,
    /// How many points were served from the cache.
    pub cache_hits: usize,
    /// How many points were recomputed.
    pub computed: usize,
    /// How many points were skipped as another shard's work (always 0 for
    /// unsharded runs).
    pub skipped: usize,
}

impl SweepResult {
    /// The estimates alone, in spec order (the shape most figure assemblers want).
    pub fn estimates(&self) -> Vec<LerEstimate> {
        self.points.iter().map(|p| p.ler).collect()
    }

    /// Total Monte-Carlo shots recorded across all points (cached and computed) —
    /// the cost metric adaptive sampling optimizes.
    pub fn total_shots(&self) -> usize {
        self.points.iter().map(|p| p.ler.shots).sum()
    }

    /// The largest relative standard error across all points ([`f64::INFINITY`]
    /// when any point has no positive estimate) — the precision metric adaptive
    /// sampling equalizes.
    pub fn max_relative_std_err(&self) -> f64 {
        self.points
            .iter()
            .map(|p| p.ler.relative_std_err())
            .fold(0.0, f64::max)
    }
}

/// Executes a scenario sweep: cache lookup, parallel estimation of the misses
/// (whole points, with idle workers sharing the last points' 64-shot chunks,
/// adaptive points included), cache write-back.
///
/// # Panics
///
/// Panics if the spec references an out-of-range code index (point construction via
/// [`ScenarioSpec::point`] already prevents this).
pub fn run_sweep(spec: &ScenarioSpec, options: &SweepOptions) -> SweepResult {
    for point in &spec.points {
        assert!(
            point.code < spec.codes.len(),
            "point `{}` references code {} but the spec has {}",
            point.id,
            point.code,
            spec.codes.len()
        );
    }

    let file_name = format!("{}.json", spec.figure);
    let cache_path = options.cache_dir.as_ref().map(|dir| dir.join(&file_name));
    let mut cached = cache_path
        .as_deref()
        .map(|path| load_cache(path, spec, options))
        .unwrap_or_default();
    // The fallback directory (worker mode's read-only view of the main cache) is
    // consulted only for points the primary cache misses.
    if let Some(dir) = &options.fallback_cache_dir {
        for (id, ler) in load_cache(&dir.join(&file_name), spec, options) {
            cached.entry(id).or_insert(ler);
        }
    }

    // `resolved`: spec index → (estimate, served-from-cache). Points absent from
    // the map at the end were skipped (another shard's uncached work).
    let mut resolved: BTreeMap<usize, (LerEstimate, bool)> = BTreeMap::new();
    for (i, point) in spec.points.iter().enumerate() {
        if let Some(&ler) = cached.get(&point.id) {
            resolved.insert(i, (ler, true));
        }
    }

    // Estimate the misses this shard owns across the shared pool, in
    // checkpoint-sized groups so a killed run loses at most the in-flight group,
    // then stitch hits and misses back into spec order.
    let misses: Vec<usize> = (0..spec.points.len())
        .filter(|i| !resolved.contains_key(i))
        .filter(|&i| match options.shard {
            Some(shard) => shard.contains(&spec.points[i].id),
            None => true,
        })
        .collect();
    let group_len = match options.checkpoint {
        0 => misses.len().max(1),
        every => every,
    };
    for group in misses.chunks(group_len) {
        let jobs: Vec<LerPoint<'_>> = group
            .iter()
            .map(|&i| {
                let point = &spec.points[i];
                LerPoint {
                    code: &spec.codes[point.code],
                    p: point.p,
                    latency: point.latency,
                    channel: options.channel_for(point),
                    target: options.target_for(point),
                }
            })
            .collect();
        let fresh = estimate_points(&jobs, &options.config, options.decode_cache_dir.as_deref());
        for (&i, est) in group.iter().zip(fresh) {
            resolved.insert(i, (est, false));
        }
        // Checkpoint: publish everything resolved so far. The final store below
        // covers the last group (and the no-miss case), so mid-run writes are
        // purely about bounding loss on a kill.
        if options.checkpoint != 0 && group.len() == group_len {
            if let Some(path) = cache_path.as_deref() {
                if let Err(err) = store_cache(path, spec, options, &resolved) {
                    eprintln!(
                        "warning: could not checkpoint sweep cache {}: {err}",
                        path.display()
                    );
                }
            }
        }
    }

    if let Some(path) = cache_path.as_deref() {
        if let Err(err) = store_cache(path, spec, options, &resolved) {
            eprintln!(
                "warning: could not write sweep cache {}: {err}",
                path.display()
            );
        }
    }

    let points: Vec<PointOutcome> = spec
        .points
        .iter()
        .enumerate()
        .map(|(i, point)| match resolved.get(&i) {
            Some(&(ler, cached)) => PointOutcome {
                id: point.id.clone(),
                p: point.p,
                latency: point.latency,
                ler,
                cached,
                skipped: false,
            },
            None => PointOutcome {
                id: point.id.clone(),
                p: point.p,
                latency: point.latency,
                ler: LerEstimate::empty(),
                cached: false,
                skipped: true,
            },
        })
        .collect();

    let cache_hits = points.iter().filter(|p| p.cached).count();
    let skipped = points.iter().filter(|p| p.skipped).count();
    SweepResult {
        figure: spec.figure.clone(),
        computed: points.len() - cache_hits - skipped,
        cache_hits,
        skipped,
        points,
    }
}

/// Loads reusable per-point estimates from a cache file. Any structural problem —
/// missing file, malformed JSON, wrong figure, changed Monte-Carlo configuration —
/// yields an empty map, i.e. full recomputation.
///
/// Reuse is decided per entry against the *requested* sampling mode of its spec
/// point: a fixed-budget point requires the exact `config.shots` count (the
/// pre-adaptive rule, so schema-1 files keep hitting), while a precision-targeted
/// point reuses any entry that meets-or-exceeds the requested precision — whether
/// it was produced by an adaptive run, a bigger adaptive cap, or a fixed full-shot
/// run.
fn load_cache(
    path: &Path,
    spec: &ScenarioSpec,
    options: &SweepOptions,
) -> BTreeMap<String, LerEstimate> {
    let config = &options.config;
    let Ok(text) = std::fs::read_to_string(path) else {
        return BTreeMap::new();
    };
    let Ok(doc) = serde_json::from_str(&text) else {
        return BTreeMap::new();
    };
    // The u64 seed is stored as a decimal string — the shim's JSON numbers are
    // f64, which would silently round seeds above 2^53. The header `shots` field is
    // informational only since schema 2: the per-entry shot counts are what the
    // reuse rules consult.
    if doc.get("figure").and_then(Value::as_str) != Some(spec.figure.as_str())
        || doc.get("seed").and_then(Value::as_str) != Some(config.seed.to_string().as_str())
        || doc.get("bp_iterations").and_then(Value::as_u64) != Some(config.bp_iterations as u64)
    {
        return BTreeMap::new();
    }
    let Some(entries) = doc.get("points").and_then(Value::as_array) else {
        return BTreeMap::new();
    };
    let mut reusable = BTreeMap::new();
    for entry in entries {
        let Some(id) = entry.get("id").and_then(Value::as_str) else {
            continue;
        };
        // A cached estimate is reused only when its operating point matches the
        // spec's bit-for-bit (floats survive the JSON round trip exactly thanks to
        // shortest-roundtrip formatting).
        let Some(point) = spec.points.iter().find(|p| p.id == id) else {
            continue;
        };
        let (Some(p), Some(latency), Some(shots), Some(failures)) = (
            entry.get("p").and_then(Value::as_f64),
            entry.get("latency").and_then(Value::as_f64),
            entry.get("shots").and_then(Value::as_u64),
            entry.get("failures").and_then(Value::as_u64),
        ) else {
            continue;
        };
        if p != point.p || latency != point.latency || shots == 0 {
            continue;
        }
        // Channel identity (schema 3): an entry is reusable only for the channel
        // it was sampled under. Schema-1/2 entries carry no `channel` field and
        // read back as "uniform" — the channel every pre-schema-3 point used — so
        // old caches keep hitting for uniform requests and are correctly
        // invalidated for structured ones.
        let entry_channel = entry
            .get("channel")
            .and_then(Value::as_str)
            .unwrap_or("uniform");
        if entry_channel != options.channel_id_for(point) {
            continue;
        }
        let (shots, failures) = (shots as usize, failures as usize);
        let reuse = match options.target_for(point) {
            // Fixed budget: the exact shot count, as before adaptive sampling.
            None => shots == config.shots,
            // Precision target: anything at least as precise as requested — the
            // stop rule itself, or a run that already spent the full cap.
            Some(target) => target.met_by(shots, failures) || shots >= target.max_shots,
        };
        if reuse && failures <= shots {
            reusable.insert(id.to_string(), LerEstimate::from_counts(shots, failures));
        }
    }
    reusable
}

/// Serializes the resolved entries of a sweep (plus the configuration that
/// produced them) as the figure's cache file, atomically. `resolved` maps spec
/// index → (estimate, served-from-cache); entries land in spec order, and
/// zero-shot placeholders are never written (readers skip them anyway), so a
/// partial (checkpoint or sharded) write is a well-formed cache that composes
/// with other shards' files via [`crate::sweep_cache::merge_files`].
fn store_cache(
    path: &Path,
    spec: &ScenarioSpec,
    options: &SweepOptions,
    resolved: &BTreeMap<usize, (LerEstimate, bool)>,
) -> std::io::Result<()> {
    let config = &options.config;
    let mut root = BTreeMap::new();
    root.insert("schema".to_string(), Value::from(CACHE_SCHEMA as usize));
    root.insert("figure".to_string(), Value::from(spec.figure.clone()));
    root.insert("seed".to_string(), Value::from(config.seed.to_string()));
    root.insert("shots".to_string(), Value::from(config.shots));
    root.insert(
        "bp_iterations".to_string(),
        Value::from(config.bp_iterations),
    );
    root.insert(
        "mode".to_string(),
        Value::from(if options.precision.is_some() {
            "adaptive"
        } else {
            "fixed"
        }),
    );
    if let Some(target) = &options.precision {
        root.insert("target_rse".to_string(), Value::Number(target.target_rse));
        root.insert("min_failures".to_string(), Value::from(target.min_failures));
        root.insert("max_shots".to_string(), Value::from(target.max_shots));
    }
    let entries: Vec<Value> = resolved
        .iter()
        .filter(|(_, (ler, _))| ler.shots > 0)
        .map(|(&i, (ler, _))| {
            let spec_point = &spec.points[i];
            let mut entry = BTreeMap::new();
            entry.insert("id".to_string(), Value::from(spec_point.id.clone()));
            entry.insert("p".to_string(), Value::Number(spec_point.p));
            entry.insert("latency".to_string(), Value::Number(spec_point.latency));
            entry.insert(
                "channel".to_string(),
                Value::from(options.channel_id_for(spec_point)),
            );
            // `shots` records what was actually spent on the point (which varies
            // per point under adaptive sampling), never the configured budget.
            entry.insert("shots".to_string(), Value::from(ler.shots));
            entry.insert("failures".to_string(), Value::from(ler.failures));
            entry.insert("ler".to_string(), Value::Number(ler.ler));
            entry.insert("std_err".to_string(), Value::Number(ler.std_err));
            Value::Object(entry)
        })
        .collect();
    root.insert("points".to_string(), Value::Array(entries));
    let mut text = serde_json::to_string(&Value::Object(root));
    text.push('\n');
    atomic_write(path, &text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qec::codes::bb_72_12_6;

    fn quick_config() -> MemoryConfig {
        MemoryConfig {
            shots: 60,
            bp_iterations: 12,
            threads: 2,
            seed: 0xC1C1_0DE5,
        }
    }

    fn tiny_spec(figure: &str) -> ScenarioSpec {
        let mut spec = ScenarioSpec::new(figure);
        let code = spec.code(bb_72_12_6().expect("valid"));
        spec.point("a", code, 3e-3, 0.0);
        spec.point("b", code, 3e-3, 0.05);
        spec.point("c", code, 8e-3, 0.01);
        spec
    }

    #[test]
    fn sweep_matches_direct_estimates() {
        let spec = tiny_spec("unit-direct");
        let config = quick_config();
        let result = run_sweep(&spec, &SweepOptions::ephemeral(config));
        assert_eq!(result.figure, "unit-direct");
        assert_eq!(result.computed, 3);
        assert_eq!(result.cache_hits, 0);
        for (point, outcome) in spec.points.iter().zip(&result.points) {
            let direct = decoder::memory::logical_error_rate(
                &spec.codes[point.code],
                point.p,
                point.latency,
                &config,
            );
            assert_eq!(
                outcome.ler.failures, direct.failures,
                "{} diverged",
                point.id
            );
            assert_eq!(outcome.ler.ler, direct.ler);
            assert!(!outcome.cached);
        }
    }

    #[test]
    #[should_panic(expected = "duplicate point id")]
    fn spec_rejects_duplicate_ids() {
        let mut spec = ScenarioSpec::new("dup");
        let code = spec.code(bb_72_12_6().expect("valid"));
        spec.point("same", code, 1e-3, 0.0);
        spec.point("same", code, 2e-3, 0.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn spec_rejects_bad_code_index() {
        let mut spec = ScenarioSpec::new("bad");
        spec.point("a", 0, 1e-3, 0.0);
    }
}
