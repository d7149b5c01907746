//! Monte-Carlo logical-memory experiments.
//!
//! [`MemoryExperiment`] estimates the logical error rate (LER) of a CSS code under the
//! hardware-aware noise model: the compiled execution latency of one syndrome-
//! extraction round is converted into a decoherence error (Pauli twirling), added to
//! the base circuit-level error rate, and the resulting effective per-qubit error rate
//! drives independent X/Z error sampling, BP+OSD decoding, and logical-failure
//! counting (see DESIGN.md, substitution 3). One pool of `std` scoped threads
//! samples every run and sweep in 64-shot chunks; every shot derives its own RNG
//! stream from the base seed, so the estimate is identical for any worker count.
//! Each worker owns a [`BatchScratch`] (bit-sliced error/syndrome words plus one
//! [`DecoderScratch`], decode cache and weight-1 table per sector), so
//! steady-state sampling performs zero heap allocation.

use crate::bposd::{BpOsdDecoder, DecodeMethod};
use crate::cache::DecodeCache;
use crate::scratch::DecoderScratch;
use noise::{ChannelSpec, ErrorChannel, HardwareNoiseModel};
use qec::linalg::BitMat;
use qec::CssCode;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// An estimated logical error rate with sampling statistics.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LerEstimate {
    /// Number of Monte-Carlo shots.
    pub shots: usize,
    /// Number of shots in which a logical X or Z error occurred.
    pub failures: usize,
    /// Point estimate `failures / shots` (with a half-failure floor when no failure
    /// was observed, so log-scale plots remain finite).
    pub ler: f64,
    /// Binomial standard error of the estimate.
    pub std_err: f64,
}

impl LerEstimate {
    /// Builds the estimate from raw counts (the counting constructor, so a cached
    /// `(shots, failures)` pair round-trips to a bit-identical estimate).
    ///
    /// # Panics
    ///
    /// Panics if `shots` is zero (use [`LerEstimate::empty`] for a no-data estimate)
    /// or if `failures` exceeds `shots`.
    pub fn from_counts(shots: usize, failures: usize) -> Self {
        assert!(shots > 0, "need at least one shot");
        assert!(
            failures <= shots,
            "{failures} failures cannot come from {shots} shots"
        );
        let raw = failures as f64 / shots as f64;
        let ler = if failures == 0 {
            0.5 / shots as f64
        } else {
            raw
        };
        // The standard error is computed from the (possibly floored) estimate, so a
        // zero-failure point carries a nonzero uncertainty instead of std_err = 0.
        let std_err = (ler * (1.0 - ler) / shots as f64).sqrt();
        LerEstimate {
            shots,
            failures,
            ler,
            std_err,
        }
    }

    /// The explicit no-data estimate a zero-shot configuration produces: zero shots,
    /// zero failures, `ler` and `std_err` both 0.0 (never NaN), and neither an
    /// upper bound nor a real measurement.
    ///
    /// Regression guard: `shots == 0` used to fabricate a phantom 1-shot
    /// zero-failure estimate with a misleading 0.5 LER floor.
    pub const fn empty() -> Self {
        LerEstimate {
            shots: 0,
            failures: 0,
            ler: 0.0,
            std_err: 0.0,
        }
    }

    /// Whether this estimate carries no data at all (zero shots).
    pub fn is_empty(&self) -> bool {
        self.shots == 0
    }

    /// Whether shots were taken but no failure was observed (the estimate is an
    /// upper-bound floor). An [empty](LerEstimate::is_empty) estimate is *not* an
    /// upper bound — it is no measurement at all.
    pub fn is_upper_bound(&self) -> bool {
        self.shots > 0 && self.failures == 0
    }

    /// The relative standard error `std_err / ler` ([`f64::INFINITY`] when there is
    /// no positive point estimate to normalize by, never NaN).
    pub fn relative_std_err(&self) -> f64 {
        if self.ler > 0.0 {
            self.std_err / self.ler
        } else {
            f64::INFINITY
        }
    }
}

/// A precision target for adaptive (stop-at-precision) Monte-Carlo sampling.
///
/// A point stops at the smallest shot count at which it has seen at least
/// `min_failures` failures **and** its [relative standard
/// error](LerEstimate::relative_std_err) is at or below `target_rse`, capped by
/// `max_shots`. Requiring both keeps the stop rule honest: the failure-count floor
/// guards against stopping on a noisy early `std_err` estimate, and the relative
/// standard error is the actual precision knob (`rse ≈ 1/√failures` for rare
/// failures, so `min_failures = 100` alone already means `rse ≈ 0.1`).
///
/// The stopping decision is evaluated on shot *prefixes* of the same seeded
/// per-shot RNG streams the fixed-budget path uses, so the adaptive result is the
/// fixed result of its own shot count: bit-identical at any worker count and any
/// execution batch size.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PrecisionTarget {
    /// Stop once the relative standard error (`std_err / ler`) is at or below this
    /// (`0.0` never stops early: sample to `max_shots`).
    pub target_rse: f64,
    /// ... and at least this many failures were observed (a floor of 1 is always
    /// applied, so the rse check never runs on a floored zero-failure estimate).
    pub min_failures: usize,
    /// Hard cap on the number of shots spent on one point.
    pub max_shots: usize,
}

impl PrecisionTarget {
    /// A target with the given relative-standard-error goal, failure floor, and
    /// shot cap.
    pub fn new(target_rse: f64, min_failures: usize, max_shots: usize) -> Self {
        PrecisionTarget {
            target_rse,
            min_failures,
            max_shots,
        }
    }

    /// Whether a `(shots, failures)` pair meets this target (the stop rule, also
    /// used by the sweep cache to decide whether a cached point may be reused for a
    /// precision-targeted request). The `max_shots` cap is deliberately not
    /// consulted here: this is the *precision* criterion alone. An impossible pair
    /// (`failures > shots`, e.g. from a corrupt cache entry) never meets it.
    pub fn met_by(&self, shots: usize, failures: usize) -> bool {
        if shots == 0 || failures > shots || failures < self.min_failures.max(1) {
            return false;
        }
        let est = LerEstimate::from_counts(shots, failures);
        est.std_err <= self.target_rse * est.ler
    }
}

/// Configuration of a memory experiment.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MemoryConfig {
    /// Number of Monte-Carlo shots.
    pub shots: usize,
    /// Maximum BP iterations before the OSD fallback.
    pub bp_iterations: usize,
    /// Number of worker threads (0 = use available parallelism; see
    /// [`MemoryConfig::worker_count`] for the caps).
    pub threads: usize,
    /// Base RNG seed (each shot derives its own stream, so the estimate does
    /// not depend on the worker count).
    pub seed: u64,
}

impl Default for MemoryConfig {
    fn default() -> Self {
        MemoryConfig {
            shots: 2_000,
            bp_iterations: 30,
            threads: 0,
            seed: 0xC1C1_0DE5,
        }
    }
}

impl MemoryConfig {
    /// Creates a config with the given number of shots and defaults elsewhere.
    pub fn with_shots(shots: usize) -> Self {
        MemoryConfig {
            shots,
            ..Default::default()
        }
    }

    /// Resolves the configured thread count to a concrete worker count:
    /// 0 = available parallelism capped at 16, an explicit count is clamped to
    /// 256, so no setting can make a pool spawn an unbounded number of threads.
    /// Every pool further caps this at its number of 64-shot work units.
    pub fn worker_count(&self) -> usize {
        if self.threads > 0 {
            self.threads.min(MAX_WORKERS)
        } else {
            std::thread::available_parallelism()
                .map_or(4, |n| n.get())
                .min(AUTO_MAX_WORKERS)
        }
    }

    /// The RNG seed of one Monte-Carlo shot: a SplitMix64-style stream split of
    /// the base seed, independent of which worker runs the shot. Public so
    /// external drivers (benches, equivalence tests) can replay the exact stream
    /// of any shot of a run.
    pub fn shot_seed(&self, shot: usize) -> u64 {
        self.seed
            .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(shot as u64 + 1))
    }
}

/// Ceiling of the worker count [`MemoryConfig::worker_count`] resolves
/// `threads: 0` (available parallelism) to.
const AUTO_MAX_WORKERS: usize = 16;

/// Ceiling of an explicit [`MemoryConfig::threads`]: far above any host's
/// useful parallelism, low enough that a stray value (`CYCLONE_THREADS`) cannot
/// make a pool spawn thousands of threads, each with its own [`BatchScratch`].
const MAX_WORKERS: usize = 256;

/// Per-worker sampling workspace: one [`DecoderScratch`] per sector decoder plus the
/// error/syndrome/residual buffers of a shot, so [`MemoryExperiment::sample_one_with`]
/// performs zero heap allocation in steady state.
#[derive(Debug, Clone, Default)]
pub struct ShotScratch {
    x_decode: DecoderScratch,
    z_decode: DecoderScratch,
    x_error: Vec<bool>,
    z_error: Vec<bool>,
    syndrome: Vec<bool>,
    residual: Vec<bool>,
}

impl ShotScratch {
    /// Creates an empty workspace; buffers are sized on first shot.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Precomputed corrections for every weight-1 syndrome of one decode context.
///
/// A weight-1 syndrome under measurement noise is overwhelmingly a single
/// measurement-check flip — a "re-measure" event whose correction is known in
/// advance — and when it is instead caused by a data error whose column is that
/// unit vector, the table entry covers that case too, because every entry is
/// built by running the real sector decode on the single-bit syndrome `e_r`.
/// Decoding is a pure function of `(matrix, priors, syndrome)`, so the table
/// lookup is bit-identical to a live decode while bypassing BP *and* OSD.
#[derive(Debug, Clone, Default)]
struct Weight1Table {
    /// Context tag the table was built for (same identity as [`DecodeCache`]).
    tag: u64,
    /// Words per packed correction row.
    corr_words: usize,
    /// Number of checks (rows of the table).
    rows: usize,
    /// `rows × corr_words` packed corrections, check-major.
    corr: Vec<u64>,
    /// Whether the table holds corrections for the bound context.
    built: bool,
}

/// Aggregate decode-resolution counters of one [`BatchScratch`], accumulated
/// since the scratch was created (never reset by context rebinds): how active
/// lanes were resolved. `decoded` counts full BP(+OSD) decodes — i.e. lanes not
/// served by the weight-1 table or the decode cache — and `osd_fallbacks` the
/// subset that needed the OSD stage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Active (non-zero-syndrome) lanes seen.
    pub active_lanes: u64,
    /// Lanes resolved by the weight-1 fast-path table.
    pub weight1_hits: u64,
    /// Lanes that ran a full decode (cache and weight-1 misses).
    pub decoded: u64,
    /// Full decodes that fell through BP to the OSD stage.
    pub osd_fallbacks: u64,
}

/// One sector's decode state in a [`BatchScratch`]: the decoder scratch, the
/// per-syndrome cache, and the weight-1 fast-path table.
#[derive(Debug, Clone, Default)]
struct SectorBatch {
    decode: DecoderScratch,
    cache: DecodeCache,
    w1: Weight1Table,
}

/// The lane (de)packing buffers shared by both sectors of a batch decode.
#[derive(Debug, Clone, Default)]
struct LaneBuffers {
    /// Per-sector syndrome words, check-major (reused across sectors).
    syn_words: Vec<u64>,
    /// Correction words, qubit-major (reused across sectors).
    corr_words: Vec<u64>,
    /// One shot's unpacked syndrome (decoder input on a cache miss).
    syndrome: Vec<bool>,
    /// One shot's syndrome packed 64-checks-per-word (decode-cache key).
    syn_pack: Vec<u64>,
    /// One shot's correction packed 64-qubits-per-word (decode-cache value).
    corr_pack: Vec<u64>,
}

/// Per-worker workspace of the bit-sliced batch sampler
/// ([`MemoryExperiment::sample_batch_with`]): 64 shots travel together, one bit
/// per `u64` lane, so error patterns, measurement flips, syndromes, corrections,
/// and logical-failure parities are all held column-major as words. Buffers are
/// sized on the first batch and reused — zero heap allocation in steady state —
/// and each sector keeps its own [`DecoderScratch`], [`DecodeCache`], and
/// weight-1 fast-path table.
#[derive(Debug, Clone, Default)]
pub struct BatchScratch {
    x: SectorBatch,
    z: SectorBatch,
    /// X-frame error words, qubit-major: bit `k` of `[q]` = shot `k` has an X at `q`.
    x_err_words: Vec<u64>,
    /// Z-frame error words, qubit-major.
    z_err_words: Vec<u64>,
    /// Measurement-flip words for the X-sector checks (head of the channel's
    /// check-major layout), check-major.
    xflip_words: Vec<u64>,
    /// Measurement-flip words for the Z-sector checks (tail), check-major.
    zflip_words: Vec<u64>,
    /// Shared lane (de)packing buffers.
    lanes: LaneBuffers,
    /// Decode-resolution counters (monotone over the scratch's lifetime).
    stats: BatchStats,
}

impl BatchScratch {
    /// Creates an empty workspace; buffers are sized on the first batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Decode-cache hit/miss totals over both sectors since the caches were last
    /// bound (telemetry for benches and tests).
    pub fn cache_stats(&self) -> (u64, u64) {
        (
            self.x.cache.hits() + self.z.cache.hits(),
            self.x.cache.misses() + self.z.cache.misses(),
        )
    }

    /// Conflict-eviction total over both sector caches since their last bind.
    pub fn cache_evictions(&self) -> u64 {
        self.x.cache.evictions() + self.z.cache.evictions()
    }

    /// Decode-resolution counters accumulated since the scratch was created.
    pub fn stats(&self) -> BatchStats {
        self.stats
    }
}

/// A logical-memory experiment for one code under one hardware noise model and one
/// per-qubit [`ErrorChannel`].
#[derive(Debug)]
pub struct MemoryExperiment<'a> {
    code: &'a CssCode,
    model: HardwareNoiseModel,
    /// The per-qubit channel driving the sampler. Defaults to the uniform channel
    /// at the model's effective error rate, which reproduces the historical scalar
    /// path bit-for-bit.
    channel: ErrorChannel,
    /// Per-bit decoder priors: the channel's data rates clamped to the decoder's
    /// numerically safe range (rebuilt whenever the channel changes).
    priors: Vec<f64>,
    /// Content digest of `priors` ([`crate::bp::priors_digest`]), precomputed at
    /// rebuild so every structured-channel decode hits the priors-LLR cache with a
    /// single `u64` compare.
    priors_key: u64,
    x_decoder: BpOsdDecoder,
    z_decoder: BpOsdDecoder,
    /// Supports of the logical X operators (flagging Z-sector failures), flattened
    /// once so the batch path computes logical parities word-at-a-time.
    logical_x_supports: Vec<Vec<usize>>,
    /// Supports of the logical Z operators (flagging X-sector failures).
    logical_z_supports: Vec<Vec<usize>>,
    /// Decode-context base tag of the X-sector decoder (content digest of `Hz` +
    /// BP iteration cap); mixed with the priors identity to bind a [`DecodeCache`].
    x_ctx: u64,
    /// Decode-context base tag of the Z-sector decoder (`Hx` + cap).
    z_ctx: u64,
    /// Directory for persisted decode caches: when set, every Monte-Carlo worker
    /// loads matching per-sector cache files before it samples and stores its
    /// caches back after (see [`MemoryExperiment::set_decode_cache_dir`]).
    decode_cache_dir: Option<PathBuf>,
}

/// Flattens logical operators from dense masks to index supports.
fn supports_of(ops: &[Vec<bool>]) -> Vec<Vec<usize>> {
    ops.iter()
        .map(|op| {
            op.iter()
                .enumerate()
                .filter_map(|(q, &on)| on.then_some(q))
                .collect()
        })
        .collect()
}

/// Content digest of a parity-check matrix plus the BP iteration cap: the part of
/// a decode context that is fixed at decoder construction. Two decoders with equal
/// matrices and caps compute identical corrections, so tagging by content (not
/// identity) lets a [`DecodeCache`] survive experiment rebuilds over the same code.
fn matrix_tag(h: &BitMat, bp_iterations: usize) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |word: u64| {
        for byte in word.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(h.num_rows() as u64);
    eat(h.num_cols() as u64);
    eat(bp_iterations as u64);
    for r in 0..h.num_rows() {
        for &w in h.row_words(r) {
            eat(w);
        }
    }
    hash
}

/// Mixes a decode-context base tag with the priors identity of the current channel.
fn mix_ctx(base: u64, prior_bits: u64) -> u64 {
    let mut hash = base ^ prior_bits;
    hash ^= hash >> 33;
    hash = hash.wrapping_mul(0xff51_afd7_ed55_8ccd);
    hash ^= hash >> 33;
    hash
}

impl<'a> MemoryExperiment<'a> {
    /// Builds the experiment (constructing BP+OSD decoders for both sectors) with
    /// the uniform channel at the model's effective error rate.
    pub fn new(code: &'a CssCode, model: HardwareNoiseModel, bp_iterations: usize) -> Self {
        let mut exp = MemoryExperiment {
            code,
            model,
            channel: ErrorChannel::uniform(code.num_qubits(), model.effective_error_rate()),
            priors: Vec::new(),
            priors_key: 0,
            // Hx detects Z errors; Hz detects X errors.
            x_decoder: BpOsdDecoder::new(code.hz(), bp_iterations),
            z_decoder: BpOsdDecoder::new(code.hx(), bp_iterations),
            logical_x_supports: supports_of(code.logical_x()),
            logical_z_supports: supports_of(code.logical_z()),
            x_ctx: matrix_tag(code.hz(), bp_iterations),
            z_ctx: matrix_tag(code.hx(), bp_iterations),
            decode_cache_dir: None,
        };
        exp.rebuild_priors();
        exp
    }

    /// Builds the experiment with an explicit channel (see
    /// [`MemoryExperiment::set_channel`]).
    pub fn with_channel(
        code: &'a CssCode,
        model: HardwareNoiseModel,
        channel: ErrorChannel,
        bp_iterations: usize,
    ) -> Self {
        let mut exp = Self::new(code, model, bp_iterations);
        exp.set_channel(channel);
        exp
    }

    /// Replaces the noise model, keeping the (expensive-to-build) sector decoders.
    /// The channel is reset to the uniform channel of the new model — a previous
    /// [`set_channel`](MemoryExperiment::set_channel) never leaks across points.
    ///
    /// Latency and error-rate sweeps over one code should construct a single
    /// experiment and call this between points instead of rebuilding everything.
    pub fn set_model(&mut self, model: HardwareNoiseModel) {
        self.model = model;
        self.set_channel(ErrorChannel::uniform(
            self.code.num_qubits(),
            model.effective_error_rate(),
        ));
    }

    /// Replaces the per-qubit error channel, keeping model and decoders.
    ///
    /// # Panics
    ///
    /// Panics if the channel's data length differs from the code's qubit count, or
    /// a non-empty measurement vector differs from the code's check count
    /// (X-sector checks then Z-sector, see `noise::channel`).
    pub fn set_channel(&mut self, channel: ErrorChannel) {
        assert_eq!(
            channel.num_data(),
            self.code.num_qubits(),
            "channel sized for a different code"
        );
        assert!(
            !channel.has_measurement_noise()
                || channel.measurement().len() == self.code.num_stabilizers(),
            "channel has {} measurement checks, code has {}",
            channel.measurement().len(),
            self.code.num_stabilizers()
        );
        self.channel = channel;
        self.rebuild_priors();
    }

    /// The channel currently driving the sampler.
    pub fn channel(&self) -> &ErrorChannel {
        &self.channel
    }

    /// Sets (or clears) the persistent decode-cache directory. When set, every
    /// worker of [`run`](MemoryExperiment::run) loads matching per-sector
    /// cache files before sampling and stores its caches
    /// back afterwards (atomic rename, last writer wins — every complete file is
    /// valid, entries are pure decoder outputs). Files are keyed by code label,
    /// sector, and the full decode-context digest (matrix + BP cap + priors), so
    /// a stale or foreign file can never contribute an entry; deleting the
    /// directory at any time only costs warm-up misses.
    pub fn set_decode_cache_dir(&mut self, dir: Option<PathBuf>) {
        self.decode_cache_dir = dir;
    }

    /// The current per-sector decode-context tags `(x, z)`: the matrix digests
    /// mixed with the active channel's priors identity. This is the identity
    /// under which [`DecodeCache`]s bind and persisted cache files are named.
    fn sector_contexts(&self) -> (u64, u64) {
        let prior_bits = match self.channel.uniform_rate() {
            Some(p) => p.clamp(1e-9, 0.45).to_bits(),
            None => self.priors_key,
        };
        (
            mix_ctx(self.x_ctx, prior_bits),
            mix_ctx(self.z_ctx, prior_bits),
        )
    }

    /// The persisted-cache file path of one sector context inside `dir`.
    fn decode_cache_path(&self, dir: &Path, sector: char, ctx: u64) -> PathBuf {
        let label: String = self
            .code
            .descriptor()
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
            .collect();
        dir.join(format!(
            "decode-{}-{sector}-{ctx:016x}.json",
            label.trim_matches('-')
        ))
    }

    /// Binds both sector caches of `batch` to the experiment's current decode
    /// contexts and loads any matching persisted cache files from `dir`.
    /// Returns the number of entries admitted (0 when no file matches — a
    /// persisted cache is an accelerator, never a correctness input).
    pub fn load_decode_caches(&self, dir: &Path, batch: &mut BatchScratch) -> usize {
        let n = self.code.num_qubits();
        let (x_ctx, z_ctx) = self.sector_contexts();
        let mut loaded = 0;
        let m_x = self.x_decoder.check_matrix().num_rows();
        batch.x.cache.ensure(x_ctx, m_x, n);
        loaded += batch
            .x
            .cache
            .load_from(&self.decode_cache_path(dir, 'x', x_ctx));
        let m_z = self.z_decoder.check_matrix().num_rows();
        batch.z.cache.ensure(z_ctx, m_z, n);
        loaded += batch
            .z
            .cache
            .load_from(&self.decode_cache_path(dir, 'z', z_ctx));
        loaded
    }

    /// Stores both sector caches of `batch` (those bound and non-empty) into
    /// `dir`, creating it if needed. Each file is published with an atomic
    /// temp-file + rename, so concurrent workers never tear a file — the last
    /// complete writer wins, and any complete file is valid.
    ///
    /// # Errors
    ///
    /// Returns the first I/O error from creating the directory or writing a file.
    pub fn store_decode_caches(&self, dir: &Path, batch: &BatchScratch) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let (x_ctx, z_ctx) = self.sector_contexts();
        if !batch.x.cache.is_empty() {
            batch
                .x
                .cache
                .save_to(&self.decode_cache_path(dir, 'x', x_ctx))?;
        }
        if !batch.z.cache.is_empty() {
            batch
                .z
                .cache
                .save_to(&self.decode_cache_path(dir, 'z', z_ctx))?;
        }
        Ok(())
    }

    fn rebuild_priors(&mut self) {
        self.priors.clear();
        self.priors
            .extend(self.channel.data().iter().map(|&p| p.clamp(1e-9, 0.45)));
        self.priors_key = crate::bp::priors_digest(&self.priors);
    }

    /// The effective per-qubit, per-round error rate driving the sampling.
    pub fn effective_error_rate(&self) -> f64 {
        self.model.effective_error_rate()
    }

    /// Runs one shot with the given RNG; returns `true` when a logical error occurred.
    ///
    /// Allocating convenience wrapper around [`MemoryExperiment::sample_one_with`].
    pub fn sample_one<R: Rng>(&self, rng: &mut R) -> bool {
        self.sample_one_with(rng, &mut ShotScratch::new())
    }

    /// Runs one shot with the given RNG, borrowing all working buffers from
    /// `scratch`; returns `true` when a logical error occurred. In steady state
    /// (after the first shot has sized the buffers) this performs no heap allocation.
    ///
    /// With the uniform channel this is the historical scalar path — same RNG
    /// stream, same cached-LLR `decode_into` — bit for bit. A structured channel
    /// samples each data qubit at its own rate, flips extracted syndrome bits at
    /// the channel's measurement rates, and decodes with matching per-bit priors
    /// via `decode_with_priors_into`.
    // cyclone-lint: hot-path
    pub fn sample_one_with<R: Rng>(&self, rng: &mut R, scratch: &mut ShotScratch) -> bool {
        let n = self.code.num_qubits();
        let uniform = self.channel.uniform_rate();
        // Depolarizing channel: X, Y, Z each with p/3. X-frame = X or Y; Z-frame = Z or Y.
        scratch.x_error.clear();
        scratch.x_error.resize(n, false);
        scratch.z_error.clear();
        scratch.z_error.resize(n, false);
        // Rates arrive pre-validated: `ErrorChannel::from_rates` saturates at the
        // depolarizing maximum once, at construction, with `saturated()` recording
        // the fact — no silent per-draw clamp here.
        match uniform {
            Some(p) => {
                for q in 0..n {
                    if rng.gen_bool(p) {
                        depolarize(rng, scratch, q);
                    }
                }
            }
            None => {
                for (q, &pq) in self.channel.data().iter().enumerate() {
                    if rng.gen_bool(pq) {
                        depolarize(rng, scratch, q);
                    }
                }
            }
        }
        // Measurement flip rates per sector: the X decoder consumes Z-stabilizer
        // checks (rows of Hz, the tail of the channel's check-major layout), the Z
        // decoder consumes X-stabilizer checks (the head).
        let (x_check_rates, z_check_rates) = if self.channel.has_measurement_noise() {
            let split = self.code.num_x_stabilizers();
            let m = self.channel.measurement();
            (&m[..split], &m[split..])
        } else {
            (&[] as &[f64], &[] as &[f64])
        };
        // X errors are detected by Z stabilizers and corrected by the X decoder.
        self.x_decoder
            .check_matrix()
            .syndrome_into(&scratch.x_error, &mut scratch.syndrome);
        flip_syndrome(rng, &mut scratch.syndrome, z_check_rates);
        self.decode_sector(
            &self.x_decoder,
            uniform,
            &scratch.syndrome,
            &mut scratch.x_decode,
        );
        xor_into(
            &scratch.x_error,
            scratch.x_decode.error(),
            &mut scratch.residual,
        );
        if self.code.x_error_is_logical(&scratch.residual) {
            return true;
        }
        // Z errors are detected by X stabilizers.
        self.z_decoder
            .check_matrix()
            .syndrome_into(&scratch.z_error, &mut scratch.syndrome);
        flip_syndrome(rng, &mut scratch.syndrome, x_check_rates);
        self.decode_sector(
            &self.z_decoder,
            uniform,
            &scratch.syndrome,
            &mut scratch.z_decode,
        );
        xor_into(
            &scratch.z_error,
            scratch.z_decode.error(),
            &mut scratch.residual,
        );
        self.code.z_error_is_logical(&scratch.residual)
    }

    /// One sector decode: the uniform channel keeps the cached-LLR scalar path,
    /// structured channels pass the per-bit priors. Returns the decode status
    /// (which stage resolved the syndrome) for fallback-rate telemetry.
    fn decode_sector(
        &self,
        decoder: &BpOsdDecoder,
        uniform: Option<f64>,
        syndrome: &[bool],
        scratch: &mut DecoderScratch,
    ) -> crate::bposd::DecodeStatus {
        match uniform {
            Some(p) => decoder.decode_into(syndrome, p.clamp(1e-9, 0.45), scratch),
            None => decoder.decode_with_priors_keyed_into(
                syndrome,
                &self.priors,
                self.priors_key,
                scratch,
            ),
        }
    }

    /// Samples and decodes up to 64 Monte-Carlo shots at once, bit-sliced one shot
    /// per `u64` lane; returns the failure mask (bit `k` set iff shot
    /// `first_shot + k` suffered a logical error). `count` must be in `1..=64`.
    ///
    /// Bit-identical to running [`MemoryExperiment::sample_one_with`] per shot:
    /// every shot draws from its own seeded stream
    /// (`config.shot_seed(first_shot + k)`) in exactly the scalar order — data
    /// qubits, then Z-sector measurement flips, then X-sector flips. (The scalar
    /// path skips the X-sector flips when the X sector already failed; drawing
    /// them here is harmless because nothing ever consumes the remainder of a
    /// shot's stream.) Syndrome extraction, measurement flips, and
    /// logical-failure parities are all word-level; BP+OSD runs only for lanes
    /// with a non-trivial syndrome (a zero syndrome provably decodes to the zero
    /// correction under the clamped priors), and repeated syndromes are served
    /// from a per-sector [`DecodeCache`] whose entries store the exact decoder
    /// output — so failures never depend on batch size, lane order, or cache
    /// state. In steady state the batch performs zero heap allocations.
    pub fn sample_batch_with(
        &self,
        config: &MemoryConfig,
        first_shot: usize,
        count: usize,
        batch: &mut BatchScratch,
    ) -> u64 {
        assert!(
            (1..=64).contains(&count),
            "batch holds 1..=64 shots, got {count}"
        );
        let n = self.code.num_qubits();
        let uniform = self.channel.uniform_rate();
        batch.x_err_words.clear();
        batch.x_err_words.resize(n, 0);
        batch.z_err_words.clear();
        batch.z_err_words.resize(n, 0);
        let (x_check_rates, z_check_rates) = if self.channel.has_measurement_noise() {
            let split = self.code.num_x_stabilizers();
            let m = self.channel.measurement();
            (&m[..split], &m[split..])
        } else {
            (&[] as &[f64], &[] as &[f64])
        };
        batch.xflip_words.clear();
        batch.xflip_words.resize(x_check_rates.len(), 0);
        batch.zflip_words.clear();
        batch.zflip_words.resize(z_check_rates.len(), 0);
        for k in 0..count {
            let lane = 1u64 << k;
            let mut rng = StdRng::seed_from_u64(config.shot_seed(first_shot + k));
            match uniform {
                Some(p) => {
                    for q in 0..n {
                        if rng.gen_bool(p) {
                            depolarize_words(&mut rng, batch, q, lane);
                        }
                    }
                }
                None => {
                    for (q, &pq) in self.channel.data().iter().enumerate() {
                        if rng.gen_bool(pq) {
                            depolarize_words(&mut rng, batch, q, lane);
                        }
                    }
                }
            }
            // Scalar draw order: the Z-sector check flips (consumed by the X
            // sector's syndrome) come first, then the X-sector check flips.
            for (r, &p) in z_check_rates.iter().enumerate() {
                if rng.gen_bool(p) {
                    batch.zflip_words[r] |= lane;
                }
            }
            for (r, &p) in x_check_rates.iter().enumerate() {
                if rng.gen_bool(p) {
                    batch.xflip_words[r] |= lane;
                }
            }
        }
        let prior_bits = match uniform {
            Some(p) => p.clamp(1e-9, 0.45).to_bits(),
            None => self.priors_key,
        };
        // X errors are detected by Z stabilizers and corrected by the X decoder;
        // a residual logical X anticommutes with some logical Z.
        let fail_x = self.batch_decode_sector(
            &self.x_decoder,
            uniform,
            mix_ctx(self.x_ctx, prior_bits),
            &batch.x_err_words,
            &batch.zflip_words,
            &self.logical_z_supports,
            &mut batch.lanes,
            &mut batch.x,
            &mut batch.stats,
        );
        let fail_z = self.batch_decode_sector(
            &self.z_decoder,
            uniform,
            mix_ctx(self.z_ctx, prior_bits),
            &batch.z_err_words,
            &batch.xflip_words,
            &self.logical_x_supports,
            &mut batch.lanes,
            &mut batch.z,
            &mut batch.stats,
        );
        let mask = if count == 64 {
            u64::MAX
        } else {
            (1u64 << count) - 1
        };
        (fail_x | fail_z) & mask
    }

    /// One sector of the batch path: word-level syndrome extraction and
    /// measurement flips, weight-1-table and cache-backed decoding of the active
    /// lanes, and word-level logical-failure parities. Returns the sector's
    /// failure mask.
    #[allow(clippy::too_many_arguments)]
    fn batch_decode_sector(
        &self,
        decoder: &BpOsdDecoder,
        uniform: Option<f64>,
        ctx: u64,
        err_words: &[u64],
        flip_words: &[u64],
        logicals: &[Vec<usize>],
        lanes: &mut LaneBuffers,
        sector: &mut SectorBatch,
        stats: &mut BatchStats,
    ) -> u64 {
        let n = err_words.len();
        let h = decoder.check_matrix();
        let m = h.num_rows();
        h.syndrome_words_into(err_words, &mut lanes.syn_words);
        if !flip_words.is_empty() {
            debug_assert_eq!(flip_words.len(), m, "one flip word per check");
            for (s, &f) in lanes.syn_words.iter_mut().zip(flip_words) {
                *s ^= f;
            }
        }
        lanes.corr_words.clear();
        lanes.corr_words.resize(n, 0);
        // Lanes with an all-zero syndrome decode to the zero correction for free.
        let mut active: u64 = lanes.syn_words.iter().fold(0, |acc, &w| acc | w);
        if active != 0 {
            sector.cache.ensure(ctx, m, n);
            // Measurement noise makes weight-1 syndromes the dominant non-trivial
            // case; precompute their corrections once per context. (Uniform
            // channels skip the table: weight-1 syndromes are rare there and the
            // m warm-up decodes would not pay for themselves.)
            if !flip_words.is_empty() {
                self.ensure_weight1(decoder, uniform, ctx, lanes, sector);
            }
            let syn_len = m.div_ceil(64).max(1);
            let corr_len = n.div_ceil(64).max(1);
            while active != 0 {
                let k = active.trailing_zeros() as usize;
                active &= active - 1;
                let lane = 1u64 << k;
                stats.active_lanes += 1;
                // Unpack lane k's syndrome: bools for the decoder, packed words
                // for the cache key, and its weight for the fast path.
                lanes.syn_pack.clear();
                lanes.syn_pack.resize(syn_len, 0);
                lanes.syndrome.clear();
                let mut weight = 0u32;
                for (r, &w) in lanes.syn_words.iter().enumerate() {
                    let bit = (w >> k) & 1 == 1;
                    lanes.syndrome.push(bit);
                    if bit {
                        lanes.syn_pack[r >> 6] |= 1 << (r & 63);
                        weight += 1;
                    }
                }
                // Weight-1 fast path: scatter the precomputed correction row —
                // bit-identical to a live decode because the row *is* one.
                if weight == 1 && sector.w1.built {
                    let r = lanes
                        .syndrome
                        .iter()
                        .position(|&b| b)
                        .expect("weight-1 syndrome has a set bit");
                    let row = &sector.w1.corr[r * sector.w1.corr_words..];
                    for (wi, &w) in row[..sector.w1.corr_words].iter().enumerate() {
                        let mut bits = w;
                        while bits != 0 {
                            let q = (wi << 6) + bits.trailing_zeros() as usize;
                            bits &= bits - 1;
                            lanes.corr_words[q] |= lane;
                        }
                    }
                    stats.weight1_hits += 1;
                    continue;
                }
                let mut hit = false;
                if let Some(stored) = sector.cache.lookup(&lanes.syn_pack) {
                    for (wi, &w) in stored.iter().enumerate() {
                        let mut bits = w;
                        while bits != 0 {
                            let q = (wi << 6) + bits.trailing_zeros() as usize;
                            bits &= bits - 1;
                            lanes.corr_words[q] |= lane;
                        }
                    }
                    hit = true;
                }
                if hit {
                    continue;
                }
                let status =
                    self.decode_sector(decoder, uniform, &lanes.syndrome, &mut sector.decode);
                stats.decoded += 1;
                if status.method == DecodeMethod::OrderedStatistics {
                    stats.osd_fallbacks += 1;
                }
                lanes.corr_pack.clear();
                lanes.corr_pack.resize(corr_len, 0);
                for (q, &e) in sector.decode.error().iter().enumerate() {
                    if e {
                        lanes.corr_pack[q >> 6] |= 1 << (q & 63);
                        lanes.corr_words[q] |= lane;
                    }
                }
                sector.cache.insert(&lanes.syn_pack, &lanes.corr_pack);
            }
        }
        let mut fail = 0u64;
        for support in logicals {
            let mut parity = 0u64;
            for &q in support {
                parity ^= err_words[q] ^ lanes.corr_words[q];
            }
            fail |= parity;
        }
        fail
    }
    // cyclone-lint: end-hot-path

    /// Builds (or rebinds) one sector's weight-1 correction table: for every
    /// check `r`, run the real sector decode on the single-bit syndrome `e_r`
    /// and pack the resulting correction. Runs once per decode context per
    /// worker (outside the steady state: storage is sized here, and re-binding
    /// to the same context is a tag compare).
    fn ensure_weight1(
        &self,
        decoder: &BpOsdDecoder,
        uniform: Option<f64>,
        ctx: u64,
        lanes: &mut LaneBuffers,
        sector: &mut SectorBatch,
    ) {
        let m = decoder.check_matrix().num_rows();
        let n = self.code.num_qubits();
        let corr_len = n.div_ceil(64).max(1);
        let w1 = &mut sector.w1;
        if w1.built && w1.tag == ctx && w1.rows == m && w1.corr_words == corr_len {
            return;
        }
        w1.tag = ctx;
        w1.rows = m;
        w1.corr_words = corr_len;
        w1.corr.clear();
        w1.corr.resize(m * corr_len, 0);
        for r in 0..m {
            lanes.syndrome.clear();
            lanes.syndrome.resize(m, false);
            lanes.syndrome[r] = true;
            self.decode_sector(decoder, uniform, &lanes.syndrome, &mut sector.decode);
            let row = &mut w1.corr[r * corr_len..(r + 1) * corr_len];
            for (q, &e) in sector.decode.error().iter().enumerate() {
                if e {
                    row[q >> 6] |= 1 << (q & 63);
                }
            }
        }
        w1.built = true;
    }

    /// Runs the Monte-Carlo experiment and returns the LER estimate: a fixed
    /// budget of `config.shots` shots, or, with a `target`, adaptive
    /// stop-at-precision sampling capped at `target.max_shots` (`config.shots`
    /// is then ignored).
    ///
    /// An adaptive run stops at the smallest shot count meeting `target` (see
    /// [`PrecisionTarget`]), so it returns exactly the fixed-budget estimate of
    /// that shot count: the target only *chooses* the budget, it never changes
    /// the sample. Each shot samples its own stream
    /// ([`MemoryConfig::shot_seed`]), so the estimate is bit-identical for every
    /// `threads` setting (workers pull 64-shot chunks purely for load
    /// balancing, and the bit-sliced batch path is bit-identical to the scalar
    /// per-shot path). Every worker owns one [`BatchScratch`], so sampling
    /// allocates only at worker startup, never per shot. The pool never exceeds
    /// the run's number of 64-shot chunks.
    pub fn run(&self, config: &MemoryConfig, target: Option<&PrecisionTarget>) -> LerEstimate {
        let job = Job::new(config.shots, target.copied());
        sample_pool(Source::Shared(self), vec![job], config)[0]
    }
}

/// Shot-prefix length of the structured-channel decode-cache warm-up that
/// perfbench's traced replay performs before sampling a point. No sampler in
/// this crate uses it; it stays public only for that replay, and goes when the
/// replay mirrors the chunk pool.
pub const DECODE_WARMUP_SHOTS: usize = 192;

/// One operating point of a logical-error-rate sweep: a code evaluated at physical
/// error rate `p` with a syndrome-extraction round latency of `latency` seconds,
/// optionally under a structured error channel and a precision target.
#[derive(Debug, Clone, Copy)]
pub struct LerPoint<'a> {
    /// The code under test.
    pub code: &'a CssCode,
    /// Physical error rate.
    pub p: f64,
    /// Round latency in seconds (drives the decoherence contribution).
    pub latency: f64,
    /// How the hardware model is lifted to a per-qubit channel: `None` (or
    /// [`ChannelSpec::Uniform`]) is the historical scalar path, bit for bit.
    pub channel: Option<&'a ChannelSpec>,
    /// `None` samples the fixed [`MemoryConfig::shots`] budget; `Some` samples
    /// adaptively, as [`MemoryExperiment::run`] does with a target.
    pub target: Option<PrecisionTarget>,
}

/// Estimates every point of a sweep across one shared worker pool, returning the
/// estimates in input order.
///
/// This is the parallel primitive under the `cyclone::sweep` engine. Workers
/// claim whole points in input order; once every point is started, a worker
/// that would idle joins the point with the most unclaimed 64-shot chunks —
/// fixed-budget or adaptive — and samples them alongside its owner, so one
/// slow point never leaves the rest of the pool idle. Every point is evaluated
/// exactly as a serial [`MemoryExperiment::run`] at its model, channel and
/// target would — same shot count, same per-shot RNG streams — so the result
/// vector is bit-identical to the serial loop at every worker count.
///
/// Workers reuse one [`MemoryExperiment`] (the expensive-to-build sector decoder
/// pair) per distinct code, moving it between operating points with
/// [`MemoryExperiment::set_model`]. When `decode_cache_dir` is set, every
/// worker loads matching per-sector decode-cache files before sampling a point
/// and stores them back after (see
/// [`MemoryExperiment::set_decode_cache_dir`]), so sweep re-runs skip the
/// compulsory-miss wall; entries are exact decoder outputs, so estimates are
/// bit-identical with or without the directory. `config.threads` sizes the pool
/// (see [`MemoryConfig::worker_count`]), capped at the sweep's number of
/// 64-shot chunks.
pub fn estimate_points(
    points: &[LerPoint<'_>],
    config: &MemoryConfig,
    decode_cache_dir: Option<&Path>,
) -> Vec<LerEstimate> {
    let jobs = points
        .iter()
        .map(|point| Job::new(config.shots, point.target))
        .collect();
    let source = Source::Points {
        points,
        bp_iterations: config.bp_iterations,
        decode_cache_dir,
    };
    sample_pool(source, jobs, config)
}

/// Where a chunk-pool worker finds the experiment of a job.
enum Source<'p, 'a> {
    /// A single job on an experiment every worker shares.
    Shared(&'p MemoryExperiment<'a>),
    /// Job `i` is `points[i]`, sampled on the worker's own experiment for the
    /// point's code.
    Points {
        points: &'p [LerPoint<'a>],
        bp_iterations: usize,
        decode_cache_dir: Option<&'p Path>,
    },
}

impl<'a> Source<'_, 'a> {
    /// The experiment of `job`. For points: the worker's cached
    /// [`MemoryExperiment`] for the point's code (built on first use; keyed by
    /// the code reference's address, stable for the pool's scope), moved to
    /// the point's model and channel.
    fn experiment<'w>(
        &'w self,
        own: &'w mut Vec<(*const CssCode, MemoryExperiment<'a>)>,
        job: usize,
    ) -> &'w MemoryExperiment<'a> {
        let (points, bp_iterations, decode_cache_dir) = match *self {
            Source::Shared(exp) => return exp,
            Source::Points {
                points,
                bp_iterations,
                decode_cache_dir,
            } => (points, bp_iterations, decode_cache_dir),
        };
        let point = &points[job];
        let key = std::ptr::from_ref(point.code);
        let model = HardwareNoiseModel::new(noise::NoiseParameters::new(point.p), point.latency);
        let slot = match own.iter().position(|(k, _)| *k == key) {
            Some(slot) => {
                own[slot].1.set_model(model);
                slot
            }
            None => {
                let mut exp = MemoryExperiment::new(point.code, model, bp_iterations);
                exp.set_decode_cache_dir(decode_cache_dir.map(Path::to_path_buf));
                own.push((key, exp));
                own.len() - 1
            }
        };
        let exp = &mut own[slot].1;
        // A structured channel replaces the uniform one set_model just
        // installed; uniform specs skip the rebuild and keep the historical
        // fast path byte-for-byte.
        if let Some(spec) = point.channel.filter(|spec| !spec.is_uniform()) {
            exp.set_channel(spec.instantiate(
                &model,
                point.code.num_qubits(),
                point.code.num_stabilizers(),
            ));
        }
        exp
    }
}

/// The Monte-Carlo driver under [`MemoryExperiment::run`] and
/// [`estimate_points`]: samples `jobs` in 64-shot chunks across one scoped
/// worker pool and returns their estimates in input order.
///
/// Workers claim unstarted jobs in input order; once every job has started, a
/// worker that would idle joins the job with the most unclaimed chunks. Every
/// shot samples its own [`MemoryConfig::shot_seed`] stream and each job's
/// [`Frontier`] scans failure masks in shot order, so which worker sampled
/// which chunk never shows in an estimate.
fn sample_pool(source: Source<'_, '_>, jobs: Vec<Job>, config: &MemoryConfig) -> Vec<LerEstimate> {
    let chunks: usize = jobs.iter().map(Job::unclaimed).sum();
    let workers = config.worker_count().min(chunks);
    let next_job = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let mut own = Vec::new();
                // Claim unstarted jobs in input order ...
                loop {
                    let i = next_job.fetch_add(1, Ordering::Relaxed);
                    if i >= jobs.len() {
                        break;
                    }
                    jobs[i].sample(&source, &mut own, i, config);
                }
                // ... then join the started job with the most chunks left,
                // until no job has any.
                while let Some(i) = (0..jobs.len())
                    .filter(|&i| jobs[i].unclaimed() > 0)
                    .max_by_key(|&i| jobs[i].unclaimed())
                {
                    jobs[i].sample(&source, &mut own, i, config);
                }
            });
        }
    });
    jobs.into_iter().map(Job::estimate).collect()
}

/// One job of [`sample_pool`]: shots `0..cap` of one experiment, stopped at the
/// first shot prefix that meets `target`. The atomics publish no other data:
/// `stop` is written and checked under the frontier lock, a stale read outside
/// it only samples a chunk the frontier then discards, and the estimate is read
/// after the pool's scope has joined every worker — so `Relaxed` suffices.
struct Job {
    cap: usize,
    target: Option<PrecisionTarget>,
    /// Next unclaimed 64-shot chunk.
    next_chunk: AtomicUsize,
    /// The shot sampling ends at: `cap` until the frontier finds the prefix
    /// meeting the target. No chunk starting at or past it is claimed.
    stop: AtomicUsize,
    frontier: Mutex<Frontier>,
}

/// The in-order failure scan of one [`Job`].
#[derive(Default)]
struct Frontier {
    /// Shots scanned, a prefix of the job's shots.
    shots: usize,
    /// Failures among the scanned shots.
    failures: usize,
    /// `(start, count, mask)` of chunks that finished ahead of the scan:
    /// typically at most one per other worker, never one entry per shot.
    ahead: Vec<(usize, usize, u64)>,
}

impl Job {
    /// A job of `shots` fixed shots, or of at most `target.max_shots` adaptive
    /// ones.
    fn new(shots: usize, target: Option<PrecisionTarget>) -> Self {
        let cap = target.map_or(shots, |target| target.max_shots);
        Job {
            cap,
            target,
            next_chunk: AtomicUsize::new(0),
            stop: AtomicUsize::new(cap),
            frontier: Mutex::default(),
        }
    }

    /// Claims the next chunk; returns its first shot, or `None` once no chunk
    /// before the stop shot is left.
    fn claim(&self) -> Option<usize> {
        let start = self.next_chunk.fetch_add(1, Ordering::Relaxed) * 64;
        (start < self.stop.load(Ordering::Relaxed)).then_some(start)
    }

    /// Chunks before the stop shot nobody has claimed yet.
    fn unclaimed(&self) -> usize {
        let chunks = self.stop.load(Ordering::Relaxed).div_ceil(64);
        chunks.saturating_sub(self.next_chunk.load(Ordering::Relaxed))
    }

    /// One worker's share of the job: claims chunks until none is left and
    /// samples them on its own [`BatchScratch`], loaded from and stored back
    /// to the experiment's decode-cache directory when one is set. A worker
    /// that claims no chunk touches neither the experiment, a scratch nor the
    /// disk.
    fn sample<'a>(
        &self,
        source: &Source<'_, 'a>,
        own: &mut Vec<(*const CssCode, MemoryExperiment<'a>)>,
        job: usize,
        config: &MemoryConfig,
    ) {
        let Some(mut start) = self.claim() else {
            return;
        };
        let exp = source.experiment(own, job);
        let mut batch = BatchScratch::new();
        if let Some(dir) = &exp.decode_cache_dir {
            exp.load_decode_caches(dir, &mut batch);
        }
        loop {
            let count = 64.min(self.cap - start);
            let mask = exp.sample_batch_with(config, start, count, &mut batch);
            self.finish(start, count, mask);
            match self.claim() {
                Some(next) => start = next,
                None => break,
            }
        }
        if let Some(dir) = &exp.decode_cache_dir {
            // Persistence is best-effort: a read-only directory must not fail
            // the estimate.
            let _ = exp.store_decode_caches(dir, &batch);
        }
    }

    /// Hands a sampled chunk's failure mask to the frontier. Masks are scanned
    /// strictly in shot order, so a chunk that finishes ahead of the scan waits
    /// in `ahead`; once a prefix meets the target, its length is published as
    /// the stop shot and every later mask is discarded.
    fn finish(&self, start: usize, count: usize, mask: u64) {
        let mut frontier = self.frontier.lock().expect("no sampling worker panicked");
        if start >= self.stop.load(Ordering::Relaxed) {
            return;
        }
        if start != frontier.shots {
            frontier.ahead.push((start, count, mask));
            return;
        }
        let (mut count, mut mask) = (count, mask);
        loop {
            if let Some(stop) = frontier.scan(count, mask, self.target.as_ref()) {
                self.stop.store(stop, Ordering::Relaxed);
                frontier.ahead.clear();
                return;
            }
            let shots = frontier.shots;
            let Some(next) = frontier.ahead.iter().position(|&(s, ..)| s == shots) else {
                return;
            };
            (_, count, mask) = frontier.ahead.swap_remove(next);
        }
    }

    /// The job's estimate, once every claimed chunk has finished.
    fn estimate(self) -> LerEstimate {
        let frontier = self
            .frontier
            .into_inner()
            .expect("no sampling worker panicked");
        debug_assert_eq!(frontier.shots, self.stop.into_inner(), "unscanned chunks");
        match frontier.shots {
            0 => LerEstimate::empty(),
            shots => LerEstimate::from_counts(shots, frontier.failures),
        }
    }
}

impl Frontier {
    /// Scans the next `count` shots' failure bits; returns the length of the
    /// first prefix meeting `target`, if one does.
    fn scan(&mut self, count: usize, mask: u64, target: Option<&PrecisionTarget>) -> Option<usize> {
        let Some(target) = target else {
            self.shots += count;
            self.failures += mask.count_ones() as usize;
            return None;
        };
        for k in 0..count {
            self.shots += 1;
            self.failures += (mask >> k & 1) as usize;
            if target.met_by(self.shots, self.failures) {
                return Some(self.shots);
            }
        }
        None
    }
}

// cyclone-lint: hot-path
/// XORs two equal-length slices into a reused output buffer.
fn xor_into(a: &[bool], b: &[bool], out: &mut Vec<bool>) {
    debug_assert_eq!(a.len(), b.len());
    out.clear();
    out.extend(a.iter().zip(b).map(|(&x, &y)| x ^ y));
}

/// Applies one depolarizing event to qubit `q`: X, Y, Z each with probability 1/3
/// (X-frame = X or Y; Z-frame = Z or Y).
#[inline]
fn depolarize<R: Rng>(rng: &mut R, scratch: &mut ShotScratch, q: usize) {
    match rng.gen_range(0..3) {
        0 => scratch.x_error[q] = true,
        1 => scratch.z_error[q] = true,
        _ => {
            scratch.x_error[q] = true;
            scratch.z_error[q] = true;
        }
    }
}

/// Bit-sliced [`depolarize`]: applies one depolarizing event to qubit `q` in the
/// lane selected by `lane`, drawing the same single `gen_range(0..3)` the scalar
/// path draws so the per-shot RNG streams stay aligned.
#[inline]
fn depolarize_words<R: Rng>(rng: &mut R, batch: &mut BatchScratch, q: usize, lane: u64) {
    match rng.gen_range(0..3) {
        0 => batch.x_err_words[q] |= lane,
        1 => batch.z_err_words[q] |= lane,
        _ => {
            batch.x_err_words[q] |= lane;
            batch.z_err_words[q] |= lane;
        }
    }
}

/// Flips each extracted syndrome bit with its check's measurement error rate.
/// An empty rate slice (noiseless measurement) draws nothing from the RNG, so the
/// uniform channel's stream stays bit-identical to the historical path.
#[inline]
fn flip_syndrome<R: Rng>(rng: &mut R, syndrome: &mut [bool], rates: &[f64]) {
    if rates.is_empty() {
        return;
    }
    debug_assert_eq!(
        syndrome.len(),
        rates.len(),
        "one measurement rate per check"
    );
    for (bit, &p) in syndrome.iter_mut().zip(rates) {
        if rng.gen_bool(p) {
            *bit = !*bit;
        }
    }
}
// cyclone-lint: end-hot-path

/// Convenience: estimate the LER of `code` for a round that takes `latency` seconds at
/// physical error rate `p`.
pub fn logical_error_rate(
    code: &CssCode,
    p: f64,
    latency: f64,
    config: &MemoryConfig,
) -> LerEstimate {
    let model = HardwareNoiseModel::new(noise::NoiseParameters::new(p), latency);
    MemoryExperiment::new(code, model, config.bp_iterations).run(config, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use noise::NoiseParameters;
    use qec::codes::bb_72_12_6;

    #[test]
    fn low_noise_gives_low_ler() {
        let code = bb_72_12_6().expect("valid");
        let model = HardwareNoiseModel::new(NoiseParameters::new(1e-4), 0.0);
        let exp = MemoryExperiment::new(&code, model, 25);
        let est = exp.run(
            &MemoryConfig {
                shots: 300,
                ..Default::default()
            },
            None,
        );
        assert!(
            est.ler < 0.1,
            "LER {} too high at p=1e-4 with zero latency",
            est.ler
        );
    }

    #[test]
    fn latency_increases_ler() {
        let code = bb_72_12_6().expect("valid");
        let cfg = MemoryConfig {
            shots: 400,
            ..Default::default()
        };
        let fast = logical_error_rate(&code, 2e-3, 0.0, &cfg);
        let slow = logical_error_rate(&code, 2e-3, 0.3, &cfg);
        assert!(
            slow.ler >= fast.ler,
            "long latency ({}) should not beat zero latency ({})",
            slow.ler,
            fast.ler
        );
    }

    #[test]
    fn huge_noise_gives_high_ler() {
        let code = bb_72_12_6().expect("valid");
        let model = HardwareNoiseModel::new(NoiseParameters::new(0.2), 0.0);
        let exp = MemoryExperiment::new(&code, model, 10);
        let est = exp.run(
            &MemoryConfig {
                shots: 100,
                ..Default::default()
            },
            None,
        );
        assert!(est.ler > 0.2, "LER {} suspiciously low at p=0.2", est.ler);
    }

    #[test]
    fn thread_count_does_not_change_the_estimate() {
        // threads: 0 resolves to available parallelism; because every shot owns
        // its own seeded RNG stream, the estimate must match a single-threaded
        // run exactly.
        let code = bb_72_12_6().expect("valid");
        let model = HardwareNoiseModel::new(NoiseParameters::new(8e-3), 5e-3);
        let exp = MemoryExperiment::new(&code, model, 20);
        let base = MemoryConfig {
            shots: 250,
            bp_iterations: 20,
            threads: 0,
            seed: 0xC1C1_0DE5,
        };
        let auto = exp.run(&base, None);
        let single = exp.run(&MemoryConfig { threads: 1, ..base }, None);
        let four = exp.run(&MemoryConfig { threads: 4, ..base }, None);
        assert_eq!(auto.failures, single.failures);
        assert_eq!(auto.failures, four.failures);
        assert_eq!(auto.ler, single.ler);
        assert_eq!(auto.shots, single.shots);
    }

    #[test]
    fn estimate_counts_consistent() {
        let e = LerEstimate::from_counts(1000, 10);
        assert_eq!(e.ler, 0.01);
        assert!(!e.is_upper_bound());
        let zero = LerEstimate::from_counts(1000, 0);
        assert!(zero.is_upper_bound());
        assert!(zero.ler > 0.0);
    }

    #[test]
    #[should_panic(expected = "failures cannot come from")]
    fn more_failures_than_shots_is_rejected() {
        // Regression: 11 failures in 10 shots used to yield ler = 1.1 and a NaN
        // std_err instead of being rejected like a zero-shot count.
        let _ = LerEstimate::from_counts(10, 11);
    }

    #[test]
    fn impossible_counts_never_meet_a_precision_target() {
        let t = PrecisionTarget::new(0.48, 3, 10_000);
        assert!(!t.met_by(10, 11));
        let full = LerEstimate::from_counts(10, 10);
        assert_eq!((full.ler, full.std_err), (1.0, 0.0));
    }

    #[test]
    fn zero_failure_estimate_carries_nonzero_std_err() {
        // Regression: std_err used to come from the raw (zero) failure fraction, so
        // zero-failure points plotted with zero uncertainty despite the ler floor.
        let zero = LerEstimate::from_counts(400, 0);
        assert!(
            zero.std_err > 0.0,
            "floored estimate must have nonzero std_err"
        );
        let expected = (zero.ler * (1.0 - zero.ler) / 400.0).sqrt();
        assert_eq!(zero.std_err, expected);
        // Nonzero-failure points are unchanged: ler equals the raw fraction.
        let some = LerEstimate::from_counts(1000, 10);
        assert_eq!(some.std_err, (0.01f64 * 0.99 / 1000.0).sqrt());
    }

    #[test]
    fn zero_shot_config_returns_the_empty_estimate() {
        // Regression: shots == 0 used to fabricate a phantom 1-shot zero-failure
        // estimate (ler floored to 0.5) via `from_counts(shots.max(1), ...)`.
        let code = bb_72_12_6().expect("valid");
        let est = logical_error_rate(&code, 5e-3, 0.0, &MemoryConfig::with_shots(0));
        assert!(est.is_empty());
        assert_eq!(est.shots, 0);
        assert_eq!(est.failures, 0);
        assert_eq!(est.ler, 0.0);
        assert_eq!(est.std_err, 0.0);
        assert!(
            !est.is_upper_bound(),
            "no shots is no measurement, not an upper bound"
        );
        assert!(est.ler.is_finite() && est.std_err.is_finite());
        assert_eq!(est.relative_std_err(), f64::INFINITY);
        assert_eq!(est, LerEstimate::empty());
    }

    #[test]
    fn precision_target_stop_rule() {
        let t = PrecisionTarget::new(0.48, 3, 10_000);
        // Below the failure floor: never met, whatever the rse would be.
        assert!(!t.met_by(10_000, 2));
        assert!(!t.met_by(0, 0));
        // rse = sqrt((1-p)/(p*s)): 4 failures in 40 shots → p=0.1, rse = 0.474 ≤ 0.48.
        assert!(t.met_by(40, 4));
        // Same failures over more shots → rse approaches 1/√failures = 0.49975 → not met.
        assert!(!t.met_by(4_000, 4));
        // The failure floor is at least 1, so a floored zero-failure estimate never
        // satisfies any target.
        let loose = PrecisionTarget::new(100.0, 0, 100);
        assert!(!loose.met_by(100, 0));
        assert!(loose.met_by(100, 1));
        // target_rse = 0 never stops early.
        assert!(!PrecisionTarget::new(0.0, 1, 100).met_by(100, 99));
    }

    #[test]
    fn adaptive_estimate_is_a_prefix_of_the_fixed_path() {
        // The adaptive run must return exactly what a fixed-budget run of its own
        // shot count returns: the stop rule chooses the budget, never the sample.
        let code = bb_72_12_6().expect("valid");
        let model = HardwareNoiseModel::new(NoiseParameters::new(0.05), 0.0);
        let exp = MemoryExperiment::new(&code, model, 15);
        let config = MemoryConfig {
            shots: 0, // ignored by the adaptive path
            bp_iterations: 15,
            threads: 1,
            seed: 0xC1C1_0DE5,
        };
        let target = PrecisionTarget::new(0.35, 8, 5_000);
        let adaptive = exp.run(&config, Some(&target));
        assert!(adaptive.shots < 5_000, "high-failure point must stop early");
        assert!(target.met_by(adaptive.shots, adaptive.failures));
        assert!(
            !target.met_by(
                adaptive.shots - 1,
                adaptive.failures - usize::from(adaptive.failures > 0)
            ),
            "must stop at the *smallest* qualifying prefix"
        );
        let fixed = exp.run(
            &MemoryConfig {
                shots: adaptive.shots,
                ..config
            },
            None,
        );
        assert_eq!(
            adaptive, fixed,
            "adaptive result must be the fixed result of its shot count"
        );
    }

    #[test]
    fn adaptive_is_thread_count_invariant() {
        let code = bb_72_12_6().expect("valid");
        let model = HardwareNoiseModel::new(NoiseParameters::new(0.04), 0.0);
        let exp = MemoryExperiment::new(&code, model, 15);
        let base = MemoryConfig {
            shots: 0,
            bp_iterations: 15,
            threads: 1,
            seed: 0xC1C1_0DE5,
        };
        let target = PrecisionTarget::new(0.4, 6, 2_000);
        let reference = exp.run(&base, Some(&target));
        for threads in [2, 3, 4, 8] {
            let got = exp.run(&MemoryConfig { threads, ..base }, Some(&target));
            assert_eq!(got, reference, "threads={threads} diverged from one worker");
        }
    }

    #[test]
    fn adaptive_caps_at_max_shots() {
        // An unreachable target (failure floor above what the cap can deliver)
        // must cap at max_shots and match the fixed run of that budget exactly.
        let code = bb_72_12_6().expect("valid");
        let model = HardwareNoiseModel::new(NoiseParameters::new(1e-4), 0.0);
        let exp = MemoryExperiment::new(&code, model, 15);
        let config = MemoryConfig {
            shots: 0,
            bp_iterations: 15,
            threads: 2,
            seed: 0xC1C1_0DE5,
        };
        let target = PrecisionTarget::new(0.1, 1_000_000, 300);
        let capped = exp.run(&config, Some(&target));
        assert_eq!(capped.shots, 300);
        assert_eq!(
            capped,
            exp.run(
                &MemoryConfig {
                    shots: 300,
                    ..config
                },
                None
            )
        );
        // A zero-shot cap is the empty estimate, like a zero-shot fixed config.
        let empty = exp.run(&config, Some(&PrecisionTarget::new(0.1, 1, 0)));
        assert!(empty.is_empty());
    }

    #[test]
    fn estimate_points_mixes_fixed_and_adaptive_points() {
        let code = bb_72_12_6().expect("valid");
        let config = MemoryConfig {
            shots: 150,
            bp_iterations: 15,
            threads: 4,
            seed: 0xC1C1_0DE5,
        };
        let target = PrecisionTarget::new(0.4, 6, 4_000);
        let points = [
            point(&code, 0.05, 0.0, None, None),
            point(&code, 0.05, 0.0, None, Some(target)),
        ];
        let mixed = estimate_points(&points, &config, None);
        // The fixed slot matches the plain fixed path ...
        assert_eq!(mixed[0], logical_error_rate(&code, 0.05, 0.0, &config));
        // ... and the adaptive slot matches a direct single-worker adaptive run.
        let model = HardwareNoiseModel::new(NoiseParameters::new(0.05), 0.0);
        let exp = MemoryExperiment::new(&code, model, config.bp_iterations);
        let single = MemoryConfig {
            threads: 1,
            ..config
        };
        assert_eq!(mixed[1], exp.run(&single, Some(&target)));
    }

    #[test]
    fn scratch_sampling_matches_allocating_sampling() {
        let code = bb_72_12_6().expect("valid");
        let model = HardwareNoiseModel::new(NoiseParameters::new(6e-3), 2e-3);
        let exp = MemoryExperiment::new(&code, model, 20);
        let mut scratch = ShotScratch::new();
        for shot in 0..40u64 {
            let mut rng_a = StdRng::seed_from_u64(0xC1C1_0DE5 ^ shot);
            let mut rng_b = StdRng::seed_from_u64(0xC1C1_0DE5 ^ shot);
            assert_eq!(
                exp.sample_one(&mut rng_a),
                exp.sample_one_with(&mut rng_b, &mut scratch),
                "shot {shot} diverged between allocating and scratch paths"
            );
        }
    }

    #[test]
    fn estimate_points_matches_serial_calls() {
        let code = bb_72_12_6().expect("valid");
        let cfg = MemoryConfig {
            shots: 120,
            bp_iterations: 20,
            threads: 4,
            seed: 0xC1C1_0DE5,
        };
        let points = [
            point(&code, 2e-3, 0.0, None, None),
            point(&code, 2e-3, 0.05, None, None),
            point(&code, 8e-3, 0.01, None, None),
        ];
        let pooled = estimate_points(&points, &cfg, None);
        assert_eq!(pooled.len(), 3);
        for (point, est) in points.iter().zip(&pooled) {
            let direct = logical_error_rate(point.code, point.p, point.latency, &cfg);
            assert_eq!(est.failures, direct.failures, "point {point:?} diverged");
            assert_eq!(est.ler, direct.ler);
            assert_eq!(est.shots, direct.shots);
        }
    }

    /// A sweep point on `code`.
    fn point<'a>(
        code: &'a CssCode,
        p: f64,
        latency: f64,
        channel: Option<&'a ChannelSpec>,
        target: Option<PrecisionTarget>,
    ) -> LerPoint<'a> {
        LerPoint {
            code,
            p,
            latency,
            channel,
            target,
        }
    }

    /// The serial reference of one sweep point: a fresh single-worker
    /// experiment at the point's model, channel and target.
    fn serial_estimate(point: &LerPoint<'_>, config: &MemoryConfig) -> LerEstimate {
        let single = MemoryConfig {
            threads: 1,
            ..*config
        };
        let model = HardwareNoiseModel::new(NoiseParameters::new(point.p), point.latency);
        let mut exp = MemoryExperiment::new(point.code, model, config.bp_iterations);
        if let Some(spec) = point.channel.filter(|spec| !spec.is_uniform()) {
            exp.set_channel(spec.instantiate(
                &model,
                point.code.num_qubits(),
                point.code.num_stabilizers(),
            ));
        }
        match point.target {
            None if point.channel.is_none() => {
                logical_error_rate(point.code, point.p, point.latency, &single)
            }
            target => exp.run(&single, target.as_ref()),
        }
    }

    #[test]
    fn estimate_points_is_pool_size_invariant() {
        // One heavy point (most shots decode, many fail) among light ones, so
        // idle workers join its chunks; fixed and adaptive, uniform and
        // structured points mixed, shot counts straddling the 64-shot chunk,
        // and a persistent decode-cache directory shared by every pool.
        let dir = std::env::temp_dir().join(format!("straggler-pool-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let code = bb_72_12_6().expect("valid");
        let biased = ChannelSpec::Biased { meas_ratio: 2.0 };
        let adaptive = Some(PrecisionTarget::new(0.5, 3, 300));
        let points = [
            point(&code, 1e-4, 0.0, None, None),
            point(&code, 6e-2, 0.0, None, None),
            point(&code, 2e-3, 0.0, Some(&biased), None),
            point(&code, 5e-3, 0.02, None, adaptive),
            point(&code, 1e-3, 0.0, Some(&biased), adaptive),
            point(&code, 5e-4, 0.02, None, None),
        ];
        let pools = [1, 2, 3, 8];
        for shots in [63, 64, 65, 1000] {
            let config = MemoryConfig {
                shots,
                bp_iterations: 10,
                threads: 1,
                seed: 0xC1C1_0DE5,
            };
            let serial: Vec<LerEstimate> =
                points.iter().map(|p| serial_estimate(p, &config)).collect();
            for threads in pools {
                let pooled =
                    estimate_points(&points, &MemoryConfig { threads, ..config }, Some(&dir));
                assert_eq!(pooled, serial, "shots={shots} threads={threads}");
            }
            // A one-point sweep: every worker but the owner joins its chunks.
            assert!(shots < 1000 || serial[1].failures > 50, "heavy point");
            let four = MemoryConfig {
                threads: 4,
                ..config
            };
            let alone = estimate_points(&points[1..2], &four, None);
            assert_eq!(alone, serial[1..2], "shots={shots} one point");
        }

        // Adaptive stragglers, which the rest of the pool joins: a heavy point
        // whose target is met mid-chunk while other workers sample past it,
        // one whose unmeetable target stops it at a cap that is not a
        // multiple of 64, and one met on the last shot of a chunk, so the next
        // chunk starts exactly at the stop and must still be discarded; next
        // to light fixed and adaptive points.
        let config = MemoryConfig {
            shots: 100,
            bp_iterations: 10,
            threads: 1,
            seed: 0xC1C1_0DE5,
        };
        let met = Some(PrecisionTarget::new(0.08, 1, 4_000));
        let capped = Some(PrecisionTarget::new(0.1, 1_000_000, 1_000));
        let boundary = Some(PrecisionTarget::new(1.0, 22, 4_000));
        let stragglers = [
            point(&code, 1e-4, 0.0, None, None),
            point(&code, 2e-3, 0.0, Some(&biased), adaptive),
            point(&code, 6e-2, 0.0, None, met),
            point(&code, 6e-2, 0.01, Some(&biased), capped),
            point(&code, 6e-2, 0.0, None, boundary),
        ];
        let serial: Vec<LerEstimate> = stragglers
            .iter()
            .map(|p| serial_estimate(p, &config))
            .collect();
        assert!(
            serial[2].shots > 256 && serial[2].shots % 64 != 0,
            "{:?}",
            serial[2]
        );
        assert_eq!(serial[3].shots, 1_000);
        assert_eq!(serial[4].shots, 128, "the 22nd failure is shot 128");
        for threads in pools {
            let pooled = estimate_points(&stragglers, &MemoryConfig { threads, ..config }, None);
            assert_eq!(pooled, serial, "adaptive stragglers threads={threads}");
            for i in [2, 4] {
                let alone = &stragglers[i..=i];
                let pool = MemoryConfig { threads, ..config };
                assert_eq!(
                    estimate_points(alone, &pool, None),
                    serial[i..=i],
                    "adaptive point {i} alone, threads={threads}"
                );
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn huge_thread_counts_are_clamped() {
        // An explicit thread count is clamped, and every pool is capped at its
        // 64-shot work units: 10 000 requested threads spawn at most a few.
        assert_eq!(
            MemoryConfig {
                threads: 10_000,
                ..Default::default()
            }
            .worker_count(),
            MAX_WORKERS
        );
        let code = bb_72_12_6().expect("valid");
        let serial = MemoryConfig {
            shots: 100,
            bp_iterations: 10,
            threads: 1,
            seed: 0xC1C1_0DE5,
        };
        let huge = MemoryConfig {
            threads: 10_000,
            ..serial
        };
        let target = PrecisionTarget::new(0.5, 2, 200);
        let points = [
            point(&code, 5e-3, 0.0, None, None),
            point(&code, 2e-2, 0.0, None, Some(target)),
        ];
        assert_eq!(
            estimate_points(&points, &huge, None),
            estimate_points(&points, &serial, None)
        );
        let model = HardwareNoiseModel::new(NoiseParameters::new(2e-2), 0.0);
        let exp = MemoryExperiment::new(&code, model, serial.bp_iterations);
        assert_eq!(exp.run(&huge, None), exp.run(&serial, None));
        assert_eq!(
            exp.run(&huge, Some(&target)),
            exp.run(&serial, Some(&target))
        );
    }

    #[test]
    fn estimate_points_handles_empty_input() {
        assert!(estimate_points(&[], &MemoryConfig::default(), None).is_empty());
    }

    #[test]
    fn explicit_uniform_channel_is_bit_identical_to_the_scalar_path() {
        // Installing the uniform channel by hand must reproduce the historical
        // scalar path exactly: same RNG stream, same cached-LLR decodes.
        let code = bb_72_12_6().expect("valid");
        let model = HardwareNoiseModel::new(NoiseParameters::new(8e-3), 5e-3);
        let cfg = MemoryConfig {
            shots: 200,
            bp_iterations: 20,
            threads: 2,
            seed: 0xC1C1_0DE5,
        };
        let scalar = MemoryExperiment::new(&code, model, cfg.bp_iterations).run(&cfg, None);
        let channel = noise::ErrorChannel::uniform(code.num_qubits(), model.effective_error_rate());
        let channeled = MemoryExperiment::with_channel(&code, model, channel, cfg.bp_iterations)
            .run(&cfg, None);
        assert_eq!(scalar, channeled);
    }

    #[test]
    fn measurement_noise_degrades_the_logical_error_rate() {
        // A biased channel flips extracted syndrome bits, so decoding gets harder:
        // at matched data rates the biased LER must not beat the uniform one (and
        // with a strong bias it should clearly exceed it).
        let code = bb_72_12_6().expect("valid");
        let model = HardwareNoiseModel::new(NoiseParameters::new(4e-3), 0.0);
        let cfg = MemoryConfig {
            shots: 400,
            bp_iterations: 20,
            threads: 2,
            seed: 0xC1C1_0DE5,
        };
        let p = model.effective_error_rate();
        let uniform = MemoryExperiment::new(&code, model, cfg.bp_iterations).run(&cfg, None);
        let biased = noise::ErrorChannel::biased(
            code.num_qubits(),
            code.num_stabilizers(),
            p,
            (20.0 * p).min(0.45),
        );
        let noisy =
            MemoryExperiment::with_channel(&code, model, biased, cfg.bp_iterations).run(&cfg, None);
        assert!(
            noisy.failures > uniform.failures,
            "strong measurement noise ({} failures) should beat uniform ({} failures)",
            noisy.failures,
            uniform.failures
        );
    }

    #[test]
    fn structured_channels_are_thread_count_invariant() {
        let code = bb_72_12_6().expect("valid");
        let model = HardwareNoiseModel::new(NoiseParameters::new(6e-3), 1e-3);
        let p = model.effective_error_rate();
        // Heterogeneous data rates and measurement noise in one channel.
        let mut data: Vec<f64> = vec![p; code.num_qubits()];
        for (q, rate) in data.iter_mut().enumerate() {
            if q % 3 == 0 {
                *rate = (2.0 * p).min(0.5);
            }
        }
        let channel = noise::ErrorChannel::from_rates(data, vec![2e-3; code.num_stabilizers()]);
        let base = MemoryConfig {
            shots: 150,
            bp_iterations: 15,
            threads: 1,
            seed: 0xC1C1_0DE5,
        };
        let exp = MemoryExperiment::with_channel(&code, model, channel, base.bp_iterations);
        let single = exp.run(&base, None);
        let four = exp.run(&MemoryConfig { threads: 4, ..base }, None);
        assert_eq!(single, four);
    }

    #[test]
    fn decode_cache_dir_preserves_bit_identity_under_a_pool() {
        // Persisted decode caches are pure decoder outputs: a single worker or a
        // pool, starting from a cold or a warm directory, samples exactly the
        // estimate of a run without one.
        let code = bb_72_12_6().expect("valid");
        let model = HardwareNoiseModel::new(NoiseParameters::new(5e-3), 0.0);
        let base = MemoryConfig {
            shots: 312,
            bp_iterations: 15,
            threads: 1,
            seed: 0xC1C1_0DE5,
        };
        let channel =
            noise::ErrorChannel::biased(code.num_qubits(), code.num_stabilizers(), 5e-3, 0.5);
        let mut exp = MemoryExperiment::with_channel(&code, model, channel, base.bp_iterations);
        let reference = exp.run(&base, None);
        let pool = MemoryConfig { threads: 4, ..base };
        assert_eq!(exp.run(&pool, None), reference);
        let dir =
            std::env::temp_dir().join(format!("cyclone-cache-dir-identity-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        exp.set_decode_cache_dir(Some(dir.clone()));
        assert_eq!(exp.run(&base, None), reference, "cold persistent caches");
        let mut loaded = BatchScratch::new();
        assert!(
            exp.load_decode_caches(&dir, &mut loaded) > 0,
            "a single worker must persist its caches"
        );
        assert_eq!(exp.run(&base, None), reference, "warm persistent caches");
        assert_eq!(
            exp.run(&pool, None),
            reference,
            "warm caches across a worker pool"
        );
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(
            exp.run(&pool, None),
            reference,
            "cold caches across a worker pool"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn set_model_resets_a_structured_channel() {
        // A custom channel must never leak into the next operating point: set_model
        // reinstalls the uniform channel of the new model.
        let code = bb_72_12_6().expect("valid");
        let model = HardwareNoiseModel::new(NoiseParameters::new(5e-3), 0.0);
        let cfg = MemoryConfig {
            shots: 150,
            ..Default::default()
        };
        let fresh = MemoryExperiment::new(&code, model, cfg.bp_iterations).run(&cfg, None);
        let biased =
            noise::ErrorChannel::biased(code.num_qubits(), code.num_stabilizers(), 5e-3, 0.3);
        let mut exp = MemoryExperiment::with_channel(&code, model, biased, cfg.bp_iterations);
        assert!(exp.channel().has_measurement_noise());
        exp.set_model(model);
        assert_eq!(
            exp.channel().uniform_rate(),
            Some(model.effective_error_rate())
        );
        assert_eq!(exp.run(&cfg, None), fresh);
    }

    #[test]
    fn estimate_points_applies_channel_specs_per_point() {
        let code = bb_72_12_6().expect("valid");
        let cfg = MemoryConfig {
            shots: 150,
            bp_iterations: 15,
            threads: 4,
            seed: 0xC1C1_0DE5,
        };
        let biased = ChannelSpec::Biased { meas_ratio: 20.0 };
        let points = [
            point(&code, 5e-3, 0.0, None, None),
            point(&code, 5e-3, 0.0, Some(&ChannelSpec::Uniform), None),
            point(&code, 5e-3, 0.0, Some(&biased), None),
        ];
        let estimates = estimate_points(&points, &cfg, None);
        // None and an explicit Uniform spec are the same path ...
        assert_eq!(estimates[0], estimates[1]);
        assert_eq!(estimates[0], logical_error_rate(&code, 5e-3, 0.0, &cfg));
        // ... and the biased point sees more failures under the same seeds.
        assert!(estimates[2].failures > estimates[0].failures);
    }

    #[test]
    fn schedule_channel_samples_end_to_end() {
        // A from_schedule channel (heterogeneous data + ancilla rates) drives the
        // sampler and per-bit priors without panicking, deterministically.
        let code = bb_72_12_6().expect("valid");
        let model = HardwareNoiseModel::new(NoiseParameters::new(5e-3), 2e-2);
        let n = code.num_qubits();
        let data_idle: Vec<f64> = (0..n).map(|q| 2e-2 * (q % 5) as f64 / 4.0).collect();
        let meas_idle: Vec<f64> = (0..code.num_stabilizers())
            .map(|c| 1e-2 * (c % 3) as f64)
            .collect();
        let channel = noise::ErrorChannel::from_schedule(&model, &data_idle, &meas_idle);
        assert!(channel.uniform_rate().is_none());
        let cfg = MemoryConfig {
            shots: 120,
            bp_iterations: 15,
            threads: 2,
            seed: 0xC1C1_0DE5,
        };
        let exp = MemoryExperiment::with_channel(&code, model, channel.clone(), cfg.bp_iterations);
        let a = exp.run(&cfg, None);
        let b = MemoryExperiment::with_channel(&code, model, channel, cfg.bp_iterations)
            .run(&cfg, None);
        assert_eq!(a, b, "schedule-channel sampling must be deterministic");
        assert_eq!(a.shots, cfg.shots);
    }

    #[test]
    fn rates_straddling_the_old_clamp_sample_identically_to_the_saturated_rate() {
        // Regression for the silent mid-sample `p.min(0.75)`: rates are now
        // saturated once at channel construction (with `saturated()` recording
        // it), so a channel requesting 0.9 must sample exactly like one built at
        // the depolarizing maximum — same streams, same failures — while a rate
        // below the clamp is untouched.
        let code = bb_72_12_6().expect("valid");
        let model = HardwareNoiseModel::new(NoiseParameters::new(0.3), 0.0);
        let n = code.num_qubits();
        let cfg = MemoryConfig {
            shots: 64,
            bp_iterations: 10,
            threads: 1,
            seed: 0xC1C1_0DE5,
        };
        let over = noise::ErrorChannel::from_rates(vec![0.9; n], Vec::new());
        assert!(over.saturated());
        let at_max = noise::ErrorChannel::from_rates(vec![0.75; n], Vec::new());
        assert!(!at_max.saturated());
        let a =
            MemoryExperiment::with_channel(&code, model, over, cfg.bp_iterations).run(&cfg, None);
        let b =
            MemoryExperiment::with_channel(&code, model, at_max, cfg.bp_iterations).run(&cfg, None);
        assert_eq!(a, b, "saturated channel must sample at the maximum");
        // Below the old clamp nothing changes: 0.7 stays 0.7 and differs from
        // the saturated stream.
        let below = noise::ErrorChannel::from_rates(vec![0.7; n], Vec::new());
        assert!(!below.saturated());
        let c =
            MemoryExperiment::with_channel(&code, model, below, cfg.bp_iterations).run(&cfg, None);
        assert_ne!(a.failures, 0);
        assert!(
            c.failures <= a.failures,
            "lower rate cannot fail more often"
        );
    }

    #[test]
    fn batch_decode_cache_hits_on_repeated_syndromes() {
        // At physical rates the syndrome distribution is dominated by a few
        // popular patterns; the batch path must serve most decodes from the
        // per-sector caches, and cached runs must match cold runs exactly.
        let code = bb_72_12_6().expect("valid");
        let model = HardwareNoiseModel::new(NoiseParameters::new(3e-3), 0.0);
        let exp = MemoryExperiment::with_channel(
            &code,
            model,
            noise::ErrorChannel::biased(code.num_qubits(), code.num_stabilizers(), 3e-3, 6e-3),
            20,
        );
        let cfg = MemoryConfig {
            shots: 0,
            bp_iterations: 20,
            threads: 1,
            seed: 0xC1C1_0DE5,
        };
        let mut batch = BatchScratch::new();
        let mut masks = Vec::new();
        for chunk in 0..60 {
            masks.push(exp.sample_batch_with(&cfg, chunk * 64, 64, &mut batch));
        }
        let (hits, misses) = batch.cache_stats();
        assert!(hits > 0, "repeated syndromes must hit the decode cache");
        assert!(
            hits > misses,
            "physical-rate syndromes should mostly repeat (hits {hits}, misses {misses})"
        );
        // Replaying through a warm cache reproduces every mask bit-for-bit.
        for (chunk, &mask) in masks.iter().enumerate() {
            assert_eq!(
                exp.sample_batch_with(&cfg, chunk * 64, 64, &mut batch),
                mask
            );
        }
    }

    #[test]
    fn weight1_fast_path_serves_measurement_flip_lanes() {
        // Under measurement noise, single-flip syndromes dominate the active
        // lanes; they must resolve through the weight-1 table, not BP/OSD, and
        // stats must account for every active lane exactly once.
        let code = bb_72_12_6().expect("valid");
        let model = HardwareNoiseModel::new(NoiseParameters::new(3e-3), 0.0);
        let exp = MemoryExperiment::with_channel(
            &code,
            model,
            noise::ErrorChannel::biased(code.num_qubits(), code.num_stabilizers(), 3e-3, 6e-3),
            20,
        );
        let cfg = MemoryConfig {
            shots: 0,
            bp_iterations: 20,
            threads: 1,
            seed: 0xC1C1_0DE5,
        };
        let mut batch = BatchScratch::new();
        for chunk in 0..40 {
            exp.sample_batch_with(&cfg, chunk * 64, 64, &mut batch);
        }
        let stats = batch.stats();
        assert!(
            stats.weight1_hits > 0,
            "measurement flips must exercise the weight-1 fast path"
        );
        let (hits, _) = batch.cache_stats();
        assert_eq!(
            stats.active_lanes,
            stats.weight1_hits + hits + stats.decoded,
            "every active lane resolves exactly once: {stats:?} cache hits {hits}"
        );
        assert!(stats.osd_fallbacks <= stats.decoded);
    }

    #[test]
    fn persisted_decode_caches_roundtrip_and_stay_bit_identical() {
        let dir = std::env::temp_dir().join(format!("memory-cache-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let code = bb_72_12_6().expect("valid");
        let model = HardwareNoiseModel::new(NoiseParameters::new(3e-3), 0.0);
        let channel =
            noise::ErrorChannel::biased(code.num_qubits(), code.num_stabilizers(), 3e-3, 6e-3);
        let cfg = MemoryConfig {
            shots: 400,
            bp_iterations: 20,
            threads: 1,
            seed: 0xC1C1_0DE5,
        };

        let mut exp = MemoryExperiment::with_channel(&code, model, channel.clone(), 20);
        let cold = exp.run(&cfg, None);

        exp.set_decode_cache_dir(Some(dir.clone()));
        let writing = exp.run(&cfg, None);
        assert_eq!(
            cold.failures, writing.failures,
            "cache dir must not change results"
        );
        let files: Vec<_> = std::fs::read_dir(&dir)
            .expect("cache dir created")
            .filter_map(|e| e.ok())
            .collect();
        assert!(!files.is_empty(), "run must persist sector cache files");

        // A fresh experiment over the same context loads the persisted entries
        // and reproduces the estimate bit-for-bit.
        let mut warm_exp = MemoryExperiment::with_channel(&code, model, channel.clone(), 20);
        let mut scratch = BatchScratch::new();
        let loaded = warm_exp.load_decode_caches(&dir, &mut scratch);
        assert!(
            loaded > 0,
            "persisted entries must load for the same context"
        );
        warm_exp.set_decode_cache_dir(Some(dir.clone()));
        let warm = warm_exp.run(&cfg, None);
        assert_eq!(cold.failures, warm.failures);
        assert_eq!(cold.ler, warm.ler);

        // Decoding depends on the data-rate priors, not the measurement rates:
        // a channel differing only in measurement ratio shares the decode
        // context and legitimately reuses the persisted entries...
        let shared = MemoryExperiment::with_channel(
            &code,
            model,
            noise::ErrorChannel::biased(code.num_qubits(), code.num_stabilizers(), 3e-3, 9e-3),
            20,
        );
        let mut shared_scratch = BatchScratch::new();
        assert!(shared.load_decode_caches(&dir, &mut shared_scratch) > 0);
        // ...while different data rates bind a different context: nothing
        // loads, nothing breaks.
        let other = MemoryExperiment::with_channel(
            &code,
            model,
            noise::ErrorChannel::biased(code.num_qubits(), code.num_stabilizers(), 4e-3, 6e-3),
            20,
        );
        let mut other_scratch = BatchScratch::new();
        assert_eq!(other.load_decode_caches(&dir, &mut other_scratch), 0);

        // Adaptive runs accept the directory too and stay bit-identical.
        let target = PrecisionTarget::new(0.3, 1, 400);
        let plain = MemoryExperiment::with_channel(&code, model, channel.clone(), 20)
            .run(&cfg, Some(&target));
        let mut adaptive_exp = MemoryExperiment::with_channel(&code, model, channel, 20);
        adaptive_exp.set_decode_cache_dir(Some(dir.clone()));
        let adaptive = adaptive_exp.run(&cfg, Some(&target));
        assert_eq!(plain.failures, adaptive.failures);
        assert_eq!(plain.shots, adaptive.shots);

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn estimate_points_matches_without_cache_dir() {
        let dir = std::env::temp_dir().join(format!("points-cache-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let code = bb_72_12_6().expect("valid");
        let spec = ChannelSpec::Biased { meas_ratio: 2.0 };
        let points = [
            point(&code, 4e-3, 0.0, Some(&spec), None),
            point(&code, 4e-3, 0.0, None, None),
        ];
        let cfg = MemoryConfig {
            shots: 200,
            bp_iterations: 20,
            threads: 2,
            seed: 0xC1C1_0DE5,
        };
        let plain = estimate_points(&points, &cfg, None);
        let writing = estimate_points(&points, &cfg, Some(&dir));
        let warm = estimate_points(&points, &cfg, Some(&dir));
        for (a, b) in plain.iter().zip(&writing) {
            assert_eq!(a.failures, b.failures);
        }
        for (a, b) in plain.iter().zip(&warm) {
            assert_eq!(a.failures, b.failures);
        }
        assert!(
            std::fs::read_dir(&dir)
                .map(|d| d.count() > 0)
                .unwrap_or(false),
            "point pool must persist decode caches"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn set_model_matches_fresh_experiment() {
        let code = bb_72_12_6().expect("valid");
        let cfg = MemoryConfig {
            shots: 120,
            ..Default::default()
        };
        let fresh = logical_error_rate(&code, 5e-3, 0.1, &cfg);
        let mut exp = MemoryExperiment::new(
            &code,
            HardwareNoiseModel::new(NoiseParameters::new(5e-3), 0.0),
            cfg.bp_iterations,
        );
        exp.set_model(HardwareNoiseModel::new(NoiseParameters::new(5e-3), 0.1));
        let reused = exp.run(&cfg, None);
        assert_eq!(fresh.failures, reused.failures);
        assert_eq!(fresh.ler, reused.ler);
    }
}
