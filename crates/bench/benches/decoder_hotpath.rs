//! Decoder hot-path throughput on the `[[72,12,6]]` BB code.
//!
//! Measures per-decode and per-shot rates with plain wall-clock timing (the
//! criterion shim's statistics are no richer — see `crates/shims/README.md`):
//!
//! * **BP-only** — decodes of weight-1-error syndromes, which belief propagation
//!   resolves without the OSD fallback;
//! * **OSD-fallback** — decodes of syndromes on which BP fails, exercising the
//!   word-level ordered-statistics path;
//! * **OSD stage** — the shipped column-basis OSD and the row-echelon reference
//!   oracle (`crates/decoder/tests/support/osd_oracle.rs`) timed on the same
//!   BP-failure syndromes with precomputed BP suspicion, on `[[72,12,6]]` and on
//!   `[[225,9,6]]` at the effective rate of the Fig. 15 sweep's slowest point
//!   (baseline codesign, p = 2e-3), so the stage's gain is recorded on every run;
//! * **full-shot (scalar)** — complete Monte-Carlo shots (depolarizing sample +
//!   X and Z decodes + logical checks) via `MemoryExperiment::sample_one_with`;
//! * **full-shot (batch)** — the same shots through the bit-sliced 64-lane path
//!   (`MemoryExperiment::sample_batch_with`: word-level syndrome extraction,
//!   zero-syndrome lane skip, weight-1 fast path, per-syndrome decode cache),
//!   for the uniform, biased, and schedule-shaped channels, with per-channel
//!   weight-1-fast-path and OSD-fallback rates from `BatchStats` deltas.
//!
//! Setting `CYCLONE_DECODE_CACHE_DIR` persists the structured channels' decode
//! caches there and loads them back on the next run: a **cold** run (nothing to
//! load) pays every compulsory syndrome decode once, a **warm** run serves them
//! from the persisted cache. The JSON records which state was measured.
//!
//! A counting global allocator verifies the zero-allocation claim: after warmup,
//! every timed loop — scalar and batch, all channel shapes, cold and warm — must
//! perform **zero** heap allocations (cache load/store and the weight-1 table
//! build happen outside the timed loops). Each run overwrites
//! `BENCH_decoder.json` at the repository root with its measurements, so the
//! file always holds the current commit's numbers and the perf trajectory
//! accumulates in git history (and in CI artifacts). All timed loops are
//! single-threaded — worker parallelism is `MemoryExperiment::run`'s concern,
//! not the hot path's. `CYCLONE_SHOTS` scales the measurement length (CI uses
//! 50), and `CYCLONE_ENFORCE=1` turns the recorded regression thresholds below
//! into hard assertions.

use decoder::bposd::{BpOsdDecoder, DecodeMethod};
use decoder::memory::{BatchScratch, BatchStats, MemoryConfig, MemoryExperiment, ShotScratch};
use decoder::osd::OsdDecoder;
use decoder::scratch::DecoderScratch;
use decoder::simd::{Simd, SimdIsa, SimdMode};
use noise::{ErrorChannel, HardwareNoiseModel, NoiseParameters};
use qec::codes::{bb_72_12_6, hgp_225_9_6};
use qec::CssCode;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

#[path = "../../decoder/tests/support/osd_oracle.rs"]
mod osd_oracle;
use osd_oracle::RowEchelonOsd;

/// Full-shot throughput measured at the pre-refactor commit (`be2e5a4`, allocating
/// `sample_one`, per-decode Tanner rebuild, bit-level OSD) on this container:
/// median of three 20k-shot runs. The recorded baseline field in
/// `BENCH_decoder.json` comes from this constant, and `speedup_vs_pre_pr` is
/// always computed from it at run time — never hand-entered.
const PRE_PR_BASELINE_SHOTS_PER_SEC: f64 = 61_860.0;

/// Regression floor for the batch uniform rate under `CYCLONE_ENFORCE=1`
/// (quick mode included): the original tentpole target for this container, with
/// the measured rate (~4M shots/sec full-length) leaving roughly 3× headroom.
const ENFORCE_MIN_UNIFORM_BATCH_SHOTS_PER_SEC: f64 = 1_000_000.0;

/// Regression ceiling for the worst **cold** structured-channel penalty
/// (`uniform_batch / min(biased_batch, schedule_batch)`) under
/// `CYCLONE_ENFORCE=1`. The cold run is bounded by compulsory decode-cache
/// misses: every first-seen multi-event syndrome pays the full BP-failure +
/// OSD-fallback cost, pinned bit-identical to the scalar decoder. The BP/OSD
/// hot-loop work (word-packed convergence, branchless min-sum signs, row-major
/// total accumulation, warm-started OSD) brought the measured cold penalty from
/// ~28× down to ~20× on this container; 25× is the do-not-regress ceiling.
/// The *warm* run — the persistent decode cache loaded — is held to the much
/// tighter [`ENFORCE_MAX_WARM_STRUCTURED_PENALTY`].
const ENFORCE_MAX_STRUCTURED_PENALTY: f64 = 25.0;

/// Warm-run regression ceiling for the structured-channel penalty: with the
/// persisted caches loaded, compulsory misses vanish (measured ~2× on this
/// container, dominated by the per-shot RNG stream that bit-identity pins).
const ENFORCE_MAX_WARM_STRUCTURED_PENALTY: f64 = 5.0;

/// Warm-run regression floor for the slowest structured-channel batch rate
/// (measured ~2M shots/sec on this container).
const ENFORCE_MIN_WARM_STRUCTURED_BATCH_SHOTS_PER_SEC: f64 = 300_000.0;

/// SIMD-only regression floor for the BP kernel gain, applied under
/// `CYCLONE_ENFORCE=1` when the dispatched ISA is AVX2 (this container's
/// acceptance ISA): `bp_only_decodes_per_sec` must be at least this multiple of
/// the forced-scalar rate measured in the same run. Hosts that dispatch SSE2 or
/// scalar record the honest ratio (or `simd_not_available`) without enforcing.
const ENFORCE_MIN_BP_SIMD_SPEEDUP: f64 = 1.5;

/// SIMD-only ceiling for the worst cold structured-channel penalty under
/// `CYCLONE_ENFORCE=1` on an AVX2 host: the vectorized check pass shrinks the
/// compulsory-miss BP cost, so the cold penalty must sit below the scalar-era
/// 22× (the scalar-safe [`ENFORCE_MAX_STRUCTURED_PENALTY`] ceiling still
/// applies to `CYCLONE_SIMD=off` runs).
const ENFORCE_MAX_SIMD_STRUCTURED_PENALTY: f64 = 22.0;

/// Same-run floor for the `[[225,9,6]]` OSD-stage gain of the column-basis
/// decoder over the row-echelon oracle under `CYCLONE_ENFORCE=1` (measured
/// ~9-10x on a 2-core AVX2 host). Both rates come from one run on one host, so
/// shared-runner load cancels out of the ratio.
const ENFORCE_MIN_OSD_STAGE_SPEEDUP: f64 = 2.0;

/// The physical error rate of the acceptance measurement.
const P: f64 = 3e-3;

/// The physical error rate of the Fig. 15 sweep's slowest point: the
/// baseline codesign on `[[225,9,6]]`.
const STRAGGLER_P: f64 = 2e-3;

struct CountingAllocator;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn allocations() -> usize {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Times `iters` calls of `routine` and returns calls per second.
fn rate(iters: usize, mut routine: impl FnMut(usize)) -> f64 {
    let start = Instant::now();
    for i in 0..iters {
        routine(i);
    }
    iters as f64 / start.elapsed().as_secs_f64()
}

/// What one channel's batch measurement produced: the steady-state rate plus
/// the `BatchStats` / cache-counter deltas of its lanes over the timed loop.
struct ChannelMeasurement {
    shots_per_sec: f64,
    stats: BatchStats,
    cache_hits: u64,
    cache_misses: u64,
}

impl ChannelMeasurement {
    fn weight1_fastpath_rate(&self) -> f64 {
        self.stats.weight1_hits as f64 / self.stats.active_lanes.max(1) as f64
    }

    fn osd_fallback_rate(&self) -> f64 {
        self.stats.osd_fallbacks as f64 / self.stats.active_lanes.max(1) as f64
    }

    fn cache_hit_rate(&self) -> f64 {
        self.cache_hits as f64 / (self.cache_hits + self.cache_misses).max(1) as f64
    }
}

/// Measures steady-state batch throughput (shots/sec) for one experiment, and
/// asserts the timed loop is allocation-free. `batch` arrives warm (buffers and
/// decode caches sized, OSD arenas grown); the cache context re-bind and the
/// weight-1 table build happen on the first (untimed) chunk, which never
/// allocates in the timed loop that follows.
fn batch_rate(
    exp: &MemoryExperiment,
    cfg: &MemoryConfig,
    batch: &mut BatchScratch,
    chunks: usize,
) -> ChannelMeasurement {
    // One untimed chunk re-binds the decode caches to this experiment's context
    // (which zeroes the cache counters when the context changes), builds the
    // weight-1 table, and repopulates the popular syndromes. The stat baselines
    // are captured *after* it, so the deltas cover exactly the timed loop.
    black_box(exp.sample_batch_with(cfg, 0, 64, batch));
    let stats0 = batch.stats();
    let (hits0, misses0) = batch.cache_stats();
    let before = allocations();
    let shots_per_sec = 64.0
        * rate(chunks, |chunk| {
            black_box(exp.sample_batch_with(cfg, chunk * 64, 64, batch));
        });
    assert_eq!(
        allocations() - before,
        0,
        "steady-state sample_batch_with must not allocate"
    );
    let stats1 = batch.stats();
    let (hits1, misses1) = batch.cache_stats();
    ChannelMeasurement {
        shots_per_sec,
        stats: BatchStats {
            active_lanes: stats1.active_lanes - stats0.active_lanes,
            weight1_hits: stats1.weight1_hits - stats0.weight1_hits,
            decoded: stats1.decoded - stats0.decoded,
            osd_fallbacks: stats1.osd_fallbacks - stats0.osd_fallbacks,
        },
        cache_hits: hits1 - hits0,
        cache_misses: misses1 - misses0,
    }
}

/// Same-input OSD-stage rates: the shipped column-basis decoder against the
/// row-echelon oracle.
struct OsdStage {
    column: f64,
    row_oracle: f64,
}

impl OsdStage {
    fn speedup(&self) -> f64 {
        self.column / self.row_oracle
    }

    fn json(&self) -> String {
        format!(
            "\"column\": {:.1},\n    \"row_oracle\": {:.1},\n    \"speedup\": {:.2}",
            self.column,
            self.row_oracle,
            self.speedup()
        )
    }
}

/// Times the OSD stage alone on `count` Z-sector syndromes of `code` (errors
/// sampled at `sample_p`) on which 30-iteration BP with prior `decode_p` fails,
/// with the BP suspicion precomputed. Both decoders must agree on every input,
/// and the timed loops must not allocate.
fn osd_stage(code: &CssCode, sample_p: f64, decode_p: f64, count: usize, iters: usize) -> OsdStage {
    let n = code.num_qubits();
    let decoder = BpOsdDecoder::new(code.hz(), 30);
    let mut scratch = DecoderScratch::new();
    let mut rng = StdRng::seed_from_u64(0xC1C1_0DE5);
    let mut inputs: Vec<(Vec<bool>, Vec<f64>)> = Vec::new();
    while inputs.len() < count {
        let e: Vec<bool> = (0..n).map(|_| rng.gen_bool(sample_p)).collect();
        let s = code.z_syndrome(&e);
        let status = decoder.decode_into(&s, decode_p, &mut scratch);
        if status.method == DecodeMethod::OrderedStatistics {
            inputs.push((s, scratch.llrs().iter().map(|&l| -l).collect()));
        }
    }
    let osd = OsdDecoder::new(code.hz().clone());
    let mut oracle = RowEchelonOsd::new(code.hz().clone());
    for (s, susp) in &inputs {
        assert!(osd.decode_into(s, susp, &mut scratch));
        assert!(oracle.decode(s, susp));
        assert_eq!(
            scratch.error(),
            oracle.error(),
            "column OSD diverged from the oracle"
        );
    }
    let before = allocations();
    let column = rate(iters, |i| {
        let (s, susp) = &inputs[i % inputs.len()];
        black_box(osd.decode_into(black_box(s), susp, &mut scratch));
    });
    let row_oracle = rate(iters, |i| {
        let (s, susp) = &inputs[i % inputs.len()];
        black_box(oracle.decode(black_box(s), susp));
    });
    assert_eq!(
        allocations() - before,
        0,
        "steady-state OSD decode_into must not allocate"
    );
    OsdStage { column, row_oracle }
}

fn main() {
    let code = bb_72_12_6().expect("valid");
    let n = code.num_qubits();
    let decoder = BpOsdDecoder::new(code.hz(), 30);
    let iters = 40 * bench::shots(); // 16k iterations by default, 2k in CI quick mode
    let enforce = std::env::var("CYCLONE_ENFORCE").is_ok_and(|v| v == "1");
    let decode_cache_dir = std::env::var("CYCLONE_DECODE_CACHE_DIR")
        .ok()
        .filter(|s| !s.trim().is_empty())
        .map(PathBuf::from);

    // --- BP-only: weight-1 errors, cycled over every qubit. -----------------
    let weight1_syndromes: Vec<Vec<bool>> = (0..n)
        .map(|q| {
            let mut e = vec![false; n];
            e[q] = true;
            code.z_syndrome(&e)
        })
        .collect();
    let mut scratch = DecoderScratch::new();
    for s in &weight1_syndromes {
        let status = decoder.decode_into(s, P, &mut scratch);
        assert_eq!(status.method, DecodeMethod::BeliefPropagation);
    }
    let before = allocations();
    let bp_rate = rate(iters, |i| {
        let s = &weight1_syndromes[i % weight1_syndromes.len()];
        black_box(decoder.decode_into(black_box(s), P, &mut scratch));
    });
    assert_eq!(
        allocations() - before,
        0,
        "steady-state BP-only decode_into must not allocate (dispatched kernel)"
    );

    // --- BP-only again, kernel dispatch pinned to the scalar reference. -----
    // Same syndromes, same run, so `bp_rate / bp_scalar_rate` is an honest
    // same-host measure of the SIMD check-pass gain (the property suite pins
    // the two paths bit-identical, so this is purely a throughput ratio).
    let simd = decoder.simd();
    let scalar_decoder = BpOsdDecoder::new(code.hz(), 30).with_simd(Simd::with_mode(SimdMode::Off));
    let mut scalar_scratch = DecoderScratch::new();
    for s in &weight1_syndromes {
        let status = scalar_decoder.decode_into(s, P, &mut scalar_scratch);
        assert_eq!(status.method, DecodeMethod::BeliefPropagation);
    }
    let before = allocations();
    let bp_scalar_rate = rate(iters, |i| {
        let s = &weight1_syndromes[i % weight1_syndromes.len()];
        black_box(scalar_decoder.decode_into(black_box(s), P, &mut scalar_scratch));
    });
    assert_eq!(
        allocations() - before,
        0,
        "steady-state BP-only decode_into must not allocate (scalar kernel)"
    );
    let bp_simd_speedup = bp_rate / bp_scalar_rate;

    // --- OSD-fallback: syndromes on which BP fails. -------------------------
    let mut rng = StdRng::seed_from_u64(0xC1C1_0DE5);
    let mut fallback_syndromes: Vec<Vec<bool>> = Vec::new();
    while fallback_syndromes.len() < 32 {
        let e: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.08)).collect();
        let s = code.z_syndrome(&e);
        if decoder.decode_into(&s, P, &mut scratch).method == DecodeMethod::OrderedStatistics {
            fallback_syndromes.push(s);
        }
    }
    let osd_rate = rate(iters / 4, |i| {
        let s = &fallback_syndromes[i % fallback_syndromes.len()];
        black_box(decoder.decode_into(black_box(s), P, &mut scratch));
    });

    // --- OSD stage alone: column basis vs row-echelon oracle. --------------
    // On the [[72,12,6]] fallback syndromes above, and on [[225,9,6]] at the
    // effective rate of the Fig. 15 sweep's slowest point, whose fallbacks
    // dominate that sweep's decode time.
    let osd_stage_bb72 = osd_stage(&code, 0.08, P, 32, iters / 4);
    let hgp225 = hgp_225_9_6().expect("valid");
    let (_, latencies) = cyclone::experiments::ler_comparison_spec(
        "decoder_hotpath",
        std::slice::from_ref(&hgp225),
        &[STRAGGLER_P],
    );
    let straggler_rate = HardwareNoiseModel::new(NoiseParameters::new(STRAGGLER_P), latencies[0].0)
        .effective_error_rate();
    let osd_stage_hgp225 = osd_stage(&hgp225, straggler_rate, straggler_rate, 32, iters / 8);

    // --- Scalar full shots, with the zero-allocation check. -----------------
    let model = HardwareNoiseModel::new(NoiseParameters::new(P), 0.0);
    let exp = MemoryExperiment::new(&code, model, 30);
    let mut shot_scratch = ShotScratch::new();
    // Warm up the scratch buffers, including the OSD-fallback path in both sectors
    // (rare at p = 3e-3, so a burst of high-noise shots forces it deliberately).
    let noisy = MemoryExperiment::new(
        &code,
        HardwareNoiseModel::new(NoiseParameters::new(0.08), 0.0),
        30,
    );
    for shot in 0..256usize {
        let mut rng = StdRng::seed_from_u64(0xC1C1_0DE5 ^ shot as u64);
        black_box(noisy.sample_one_with(&mut rng, &mut shot_scratch));
        black_box(exp.sample_one_with(&mut rng, &mut shot_scratch));
    }
    let allocs_before = allocations();
    let shot_rate = rate(iters, |shot| {
        let mut rng = StdRng::seed_from_u64(0xC1C1_0DE5 ^ shot as u64);
        black_box(exp.sample_one_with(&mut rng, &mut shot_scratch));
    });
    let steady_state_allocs = allocations() - allocs_before;
    assert_eq!(
        steady_state_allocs, 0,
        "steady-state sample_one_with must not allocate"
    );

    // --- Per-channel-kind scalar sampling throughput. -----------------------
    // The biased channel exercises syndrome flips + per-bit priors; the
    // "schedule" channel is a fully heterogeneous from_schedule instantiation
    // (distinct data and ancilla idle exposures). Both must also be
    // allocation-free in steady state.
    let channel_rate = |channel: ErrorChannel| -> f64 {
        let exp = MemoryExperiment::with_channel(&code, model, channel, 30);
        let mut scratch = ShotScratch::new();
        for shot in 0..256usize {
            let mut rng = StdRng::seed_from_u64(0xC1C1_0DE5 ^ shot as u64);
            black_box(exp.sample_one_with(&mut rng, &mut scratch));
        }
        let before = allocations();
        let rate = rate(iters, |shot| {
            let mut rng = StdRng::seed_from_u64(0xC1C1_0DE5 ^ shot as u64);
            black_box(exp.sample_one_with(&mut rng, &mut scratch));
        });
        assert_eq!(
            allocations() - before,
            0,
            "steady-state channel sampling must not allocate"
        );
        rate
    };
    let biased_channel = || ErrorChannel::biased(n, code.num_stabilizers(), P, 2.0 * P);
    let schedule_channel = || {
        let data_idle: Vec<f64> = (0..n).map(|q| 1e-2 * (q % 7) as f64 / 6.0).collect();
        let meas_idle: Vec<f64> = (0..code.num_stabilizers())
            .map(|c| 1e-2 * (c % 5) as f64 / 4.0)
            .collect();
        ErrorChannel::from_schedule(&model, &data_idle, &meas_idle)
    };
    let biased_rate = channel_rate(biased_channel());
    let schedule_rate = channel_rate(schedule_channel());

    // --- Bit-sliced batch shots, per channel kind. --------------------------
    // One warm scratch serves every channel: a high-noise burst grows the OSD
    // arenas and decode-cache storage once, then each `batch_rate` re-binds the
    // caches to its channel context allocation-free. When
    // CYCLONE_DECODE_CACHE_DIR is set, each structured channel's caches are
    // loaded before and persisted after its measurement (both outside the
    // timed loop), so a rerun with the same directory measures the warm state.
    let cfg = MemoryConfig {
        shots: 0,
        bp_iterations: 30,
        threads: 1,
        seed: 0xC1C1_0DE5,
    };
    let mut batch = BatchScratch::new();
    for chunk in 0..4usize {
        black_box(noisy.sample_batch_with(&cfg, chunk * 64, 64, &mut batch));
    }
    let chunks = (iters / 64).max(8);
    let uniform = batch_rate(&exp, &cfg, &mut batch, chunks);
    let mut entries_loaded = 0usize;
    let mut structured = |channel: ErrorChannel| -> ChannelMeasurement {
        let exp = MemoryExperiment::with_channel(&code, model, channel, 30);
        if let Some(dir) = &decode_cache_dir {
            entries_loaded += exp.load_decode_caches(dir, &mut batch);
        }
        let measurement = batch_rate(&exp, &cfg, &mut batch, chunks);
        if let Some(dir) = &decode_cache_dir {
            exp.store_decode_caches(dir, &batch)
                .expect("persist decode caches");
        }
        measurement
    };
    let biased = structured(biased_channel());
    let schedule = structured(schedule_channel());
    let warm = entries_loaded > 0;
    let cache_evictions = batch.cache_evictions();

    // The headline figures: the batch path is what `MemoryExperiment::run`
    // executes, so the pre-PR speedup and the structured-channel penalty are
    // both computed from it — against the recorded baseline field, at run time.
    let uniform_batch = uniform.shots_per_sec;
    let biased_batch = biased.shots_per_sec;
    let schedule_batch = schedule.shots_per_sec;
    let speedup = uniform_batch / PRE_PR_BASELINE_SHOTS_PER_SEC;
    let structured_min = biased_batch.min(schedule_batch);
    let structured_penalty = uniform_batch / structured_min;
    let cache_hit_rate = biased.cache_hit_rate();

    println!("decoder hot path, [[72,12,6]] BB code at p = {P:.0e} ({iters} iterations)");
    println!(
        "  simd dispatch: {} ({} lanes{})",
        simd.isa_name(),
        simd.lanes(),
        if simd.forced() { ", forced" } else { "" }
    );
    println!("  BP-only        {bp_rate:>12.0} decodes/sec");
    println!(
        "    scalar ref   {bp_scalar_rate:>12.0} decodes/sec ({bp_simd_speedup:.2}x kernel gain)"
    );
    println!("  OSD-fallback   {osd_rate:>12.0} decodes/sec (BP failure + OSD)");
    for (label, stage) in [
        (code.descriptor(), &osd_stage_bb72),
        (
            format!("{} at p_eff = {straggler_rate:.3}", hgp225.descriptor()),
            &osd_stage_hgp225,
        ),
    ] {
        println!("    OSD stage, {label}");
        println!("      column     {:>12.0} decodes/sec", stage.column);
        println!(
            "      row oracle {:>12.0} decodes/sec ({:.2}x column-basis gain)",
            stage.row_oracle,
            stage.speedup()
        );
    }
    println!("  scalar shots   {shot_rate:>12.0} shots/sec (uniform)");
    println!("    biased       {biased_rate:>12.0} shots/sec");
    println!("    schedule     {schedule_rate:>12.0} shots/sec");
    println!("  batch shots    {uniform_batch:>12.0} shots/sec (uniform, 64 lanes/word)");
    for (name, m) in [("biased", &biased), ("schedule", &schedule)] {
        println!(
            "    {name:<9}  {:>12.0} shots/sec (weight-1 fast path {:.1}%, OSD fallback {:.1}% of active lanes)",
            m.shots_per_sec,
            100.0 * m.weight1_fastpath_rate(),
            100.0 * m.osd_fallback_rate(),
        );
    }
    println!(
        "  decode-cache hit rate (biased batch): {:.1}%  ({cache_evictions} conflict evictions)",
        100.0 * cache_hit_rate
    );
    match (&decode_cache_dir, warm) {
        (None, _) => {}
        (Some(dir), false) => println!(
            "  persistent decode cache: cold (nothing to load from {})",
            dir.display()
        ),
        (Some(dir), true) => println!(
            "  persistent decode cache: warm ({entries_loaded} entries loaded from {})",
            dir.display()
        ),
    }
    println!("  worst structured penalty vs uniform batch: {structured_penalty:.2}x");
    println!("  steady-state heap allocations per shot: {steady_state_allocs}");
    println!(
        "  speedup vs pre-PR baseline ({PRE_PR_BASELINE_SHOTS_PER_SEC:.0} shots/sec): {speedup:.2}x"
    );

    if enforce {
        assert!(
            uniform_batch >= ENFORCE_MIN_UNIFORM_BATCH_SHOTS_PER_SEC,
            "uniform batch throughput regressed: {uniform_batch:.0} < \
             {ENFORCE_MIN_UNIFORM_BATCH_SHOTS_PER_SEC:.0} shots/sec"
        );
        assert!(
            osd_stage_hgp225.speedup() >= ENFORCE_MIN_OSD_STAGE_SPEEDUP,
            "[[225,9,6]] OSD-stage gain regressed: {:.2}x < {ENFORCE_MIN_OSD_STAGE_SPEEDUP:.2}x \
             vs same-run row-echelon oracle",
            osd_stage_hgp225.speedup()
        );
        assert!(
            structured_penalty <= ENFORCE_MAX_STRUCTURED_PENALTY,
            "structured-channel penalty regressed: {structured_penalty:.2}x > \
             {ENFORCE_MAX_STRUCTURED_PENALTY:.2}x"
        );
        if warm {
            assert!(
                structured_penalty <= ENFORCE_MAX_WARM_STRUCTURED_PENALTY,
                "warm structured-channel penalty regressed: {structured_penalty:.2}x > \
                 {ENFORCE_MAX_WARM_STRUCTURED_PENALTY:.2}x"
            );
            assert!(
                structured_min >= ENFORCE_MIN_WARM_STRUCTURED_BATCH_SHOTS_PER_SEC,
                "warm structured batch throughput regressed: {structured_min:.0} < \
                 {ENFORCE_MIN_WARM_STRUCTURED_BATCH_SHOTS_PER_SEC:.0} shots/sec"
            );
        }
        // SIMD-only thresholds are tied to the acceptance ISA: SSE2 and scalar
        // hosts record honest numbers without gating on them, and a forced
        // `CYCLONE_SIMD=off` enforce run stays on the scalar-safe ceilings.
        if simd.isa() == SimdIsa::Avx2 {
            assert!(
                bp_simd_speedup >= ENFORCE_MIN_BP_SIMD_SPEEDUP,
                "AVX2 BP kernel gain regressed: {bp_simd_speedup:.2}x < \
                 {ENFORCE_MIN_BP_SIMD_SPEEDUP:.2}x vs same-run scalar reference"
            );
            assert!(
                structured_penalty <= ENFORCE_MAX_SIMD_STRUCTURED_PENALTY,
                "AVX2 structured-channel penalty regressed: {structured_penalty:.2}x > \
                 {ENFORCE_MAX_SIMD_STRUCTURED_PENALTY:.2}x"
            );
        }
        println!(
            "  CYCLONE_ENFORCE: thresholds hold ({}{})",
            if warm { "cold + warm" } else { "cold" },
            if simd.isa() == SimdIsa::Avx2 {
                " + avx2"
            } else {
                ""
            }
        );
    }

    let channel_stats = |m: &ChannelMeasurement| {
        format!(
            "{{\n      \"weight1_fastpath_rate\": {:.3},\n      \
             \"osd_fallback_rate\": {:.3},\n      \"cache_hit_rate\": {:.3}\n    }}",
            m.weight1_fastpath_rate(),
            m.osd_fallback_rate(),
            m.cache_hit_rate(),
        )
    };
    // Mirrors the sweep bench's `scaling_not_measurable` convention: a host
    // (or a forced `CYCLONE_SIMD=off` run) without a vector ISA records an
    // honest marker instead of a ~1.0x ratio that would read as a regression.
    let speedup_field = if simd.is_vectorized() {
        format!("{bp_simd_speedup:.2}")
    } else {
        "\"simd_not_available\"".to_owned()
    };
    let json = format!(
        "{{\n  \"code\": \"{}\",\n  \"p\": {P},\n  \"iterations\": {iters},\n  \
         \"simd\": {{\n    \"isa\": \"{}\",\n    \"forced\": {},\n    \"lanes\": {}\n  }},\n  \
         \"bp_only_decodes_per_sec\": {bp_rate:.1},\n  \
         \"bp_scalar_decodes_per_sec\": {bp_scalar_rate:.1},\n  \
         \"bp_simd_speedup\": {speedup_field},\n  \
         \"osd_fallback_decodes_per_sec\": {osd_rate:.1},\n  \
         \"osd_stage_decodes_per_sec\": {{\n    {}\n  }},\n  \
         \"osd_stage_hgp225_decodes_per_sec\": {{\n    \"code\": \"{}\",\n    \
         \"p\": {STRAGGLER_P},\n    \"p_eff\": {straggler_rate:.4},\n    {}\n  }},\n  \
         \"full_shot_shots_per_sec\": {shot_rate:.1},\n  \
         \"channel_shots_per_sec\": {{\n    \"uniform\": {shot_rate:.1},\n    \
         \"biased\": {biased_rate:.1},\n    \"schedule\": {schedule_rate:.1}\n  }},\n  \
         \"batch_shots_per_sec\": {{\n    \"uniform\": {uniform_batch:.1},\n    \
         \"biased\": {biased_batch:.1},\n    \"schedule\": {schedule_batch:.1}\n  }},\n  \
         \"batch_channel_stats\": {{\n    \"biased\": {},\n    \"schedule\": {}\n  }},\n  \
         \"batch_cache_evictions\": {cache_evictions},\n  \
         \"decode_cache\": {{\n    \"persistent\": {},\n    \
         \"entries_loaded\": {entries_loaded},\n    \"warm\": {warm}\n  }},\n  \
         \"structured_penalty_vs_uniform\": {structured_penalty:.2},\n  \
         \"steady_state_allocs_per_shot\": {steady_state_allocs},\n  \
         \"pre_pr_baseline_shots_per_sec\": {PRE_PR_BASELINE_SHOTS_PER_SEC:.1},\n  \
         \"speedup_vs_pre_pr\": {speedup:.2}\n}}\n",
        code.descriptor(),
        simd.isa_name(),
        simd.forced(),
        simd.lanes(),
        osd_stage_bb72.json(),
        hgp225.descriptor(),
        osd_stage_hgp225.json(),
        channel_stats(&biased),
        channel_stats(&schedule),
        decode_cache_dir.is_some(),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_decoder.json");
    // cyclone-lint: allow(io-unwrap) -- bench artifact write is fail-fast by design: a partial BENCH_decoder.json must abort the run, not pass CI
    std::fs::write(path, json).expect("write BENCH_decoder.json");
    println!("  wrote {path}");
}
