//! Property-based tests of the decoding substrate: BP+OSD correctness invariants and
//! noise-model monotonicity at the memory-experiment level.

use decoder::bp::BeliefPropagation;
use decoder::bposd::{BpOsdDecoder, DecodeMethod};
use decoder::memory::{BatchScratch, MemoryConfig, MemoryExperiment, ShotScratch};
use decoder::osd::OsdDecoder;
use decoder::scratch::DecoderScratch;
use decoder::simd::{Simd, SimdMode};
use decoder::sparse::SparseBinMat;
use noise::{ErrorChannel, HardwareNoiseModel, NoiseParameters};
use proptest::prelude::*;
use qec::classical::ClassicalCode;
use qec::hgp::square_hypergraph_product;
use qec::linalg::BitMat;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::OnceLock;

#[path = "support/osd_oracle.rs"]
mod osd_oracle;
use osd_oracle::RowEchelonOsd;

proptest! {
    // Deterministic: every case derives from this explicit seed (the workspace's
    // shared 0xC1C1_0DE5 convention), so a CI failure reproduces locally.
    #![proptest_config(ProptestConfig::with_cases(24).with_seed(0xC1C1_0DE5))]

    #[test]
    fn bposd_always_matches_the_syndrome(seed in 0u64..50, p in 0.002f64..0.08) {
        let c = ClassicalCode::gallager_ldpc(8, 3, 4, seed % 10);
        let code = square_hypergraph_product(&c).expect("valid");
        let decoder = BpOsdDecoder::new(code.hz(), 25);
        let mut rng = StdRng::seed_from_u64(seed);
        let n = code.num_qubits();
        let error: Vec<bool> = (0..n).map(|_| rng.gen_bool(p)).collect();
        let syndrome = code.z_syndrome(&error);
        let decoded = decoder.decode(&syndrome, p);
        prop_assert_eq!(code.z_syndrome(&decoded.error), syndrome);
    }

    #[test]
    fn correctable_errors_never_cause_logicals(position in 0usize..100) {
        // Any single-qubit error is within the correction radius of the distance-3
        // surface-like HGP code.
        let code = square_hypergraph_product(&ClassicalCode::repetition(3)).expect("valid");
        let decoder = BpOsdDecoder::new(code.hz(), 30);
        let n = code.num_qubits();
        let q = position % n;
        let mut error = vec![false; n];
        error[q] = true;
        let syndrome = code.z_syndrome(&error);
        let decoded = decoder.decode(&syndrome, 0.01);
        let residual: Vec<bool> = error.iter().zip(&decoded.error).map(|(&a, &b)| a ^ b).collect();
        prop_assert!(!code.x_error_is_logical(&residual));
    }

    #[test]
    fn syndrome_of_sparse_matrix_matches_dense(seed in 0u64..40) {
        let c = ClassicalCode::gallager_ldpc(12, 3, 4, seed);
        let h = c.parity_check();
        let sparse = SparseBinMat::from_bitmat(h);
        let mut rng = StdRng::seed_from_u64(seed);
        let e: Vec<bool> = (0..h.num_cols()).map(|_| rng.gen_bool(0.3)).collect();
        prop_assert_eq!(sparse.syndrome(&e), h.mul_vec(&e));
    }

    #[test]
    fn decode_into_is_bit_identical_to_allocating_decode(
        seed in 0u64..60,
        p in 0.005f64..0.2,
        bp_iterations in 1usize..12,
    ) {
        // One dirty scratch reused across every case, matrix size, and decoder —
        // exactly the Monte-Carlo steady state. Low iteration caps make the OSD
        // fallback fire often; low error weights keep BP-converged cases common.
        let c = ClassicalCode::gallager_ldpc(8 + 4 * (seed % 2) as usize, 3, 4, seed % 11);
        let code = square_hypergraph_product(&c).expect("valid");
        let h = code.hz();
        let mut rng = StdRng::seed_from_u64(seed);
        let n = code.num_qubits();
        let error: Vec<bool> = (0..n).map(|_| rng.gen_bool(p)).collect();
        let syndrome = code.z_syndrome(&error);

        let bp = BeliefPropagation::new(SparseBinMat::from_bitmat(h), bp_iterations);
        let bp_legacy = bp.decode(&syndrome, p);
        let mut scratch = DecoderScratch::new();
        let bp_status = bp.decode_into(&syndrome, p, &mut scratch);
        prop_assert_eq!(bp_status.converged, bp_legacy.converged);
        prop_assert_eq!(bp_status.iterations, bp_legacy.iterations);
        prop_assert_eq!(scratch.error(), bp_legacy.error.as_slice());
        prop_assert_eq!(scratch.llrs(), bp_legacy.llrs.as_slice());

        // Full BP+OSD through the *same* (now dirty) scratch: both the converged
        // and the fallback branch must match the allocating path bit for bit.
        let dec = BpOsdDecoder::new(h, bp_iterations);
        let legacy = dec.decode(&syndrome, p);
        let status = dec.decode_into(&syndrome, p, &mut scratch);
        prop_assert_eq!(status.method, legacy.method);
        prop_assert_eq!(status.iterations, legacy.iterations);
        prop_assert_eq!(scratch.error(), legacy.error.as_slice());
        if !bp_legacy.converged {
            prop_assert_eq!(status.method, DecodeMethod::OrderedStatistics);
        }
        // And a second decode of the same syndrome through the warm scratch (the
        // cached uniform channel LLR path) must be stable.
        let again = dec.decode_into(&syndrome, p, &mut scratch);
        prop_assert_eq!(again.method, status.method);
        prop_assert_eq!(scratch.error(), legacy.error.as_slice());
    }

    #[test]
    fn uniform_priors_are_bit_identical_to_the_cached_llr_path(
        seed in 0u64..60,
        p in 0.005f64..0.15,
        bp_iterations in 2usize..20,
        code_pick in 0usize..3,
    ) {
        // The channel refactor routes structured noise through
        // `decode_with_priors_into`; with a constant prior vector that entry point
        // must compute exactly what the cached-LLR `decode_into` fast path
        // computes — same hard decisions, same posteriors, same OSD fallbacks —
        // across the code catalog. One dirty scratch per side bounces between the
        // X and Z sector decoders, so the uniform-LLR cache is repeatedly
        // invalidated and rebuilt exactly as in the Monte-Carlo steady state.
        let code = match code_pick {
            0 => qec::codes::bb_72_12_6().expect("valid"),
            1 => qec::codes::hgp_100().expect("valid"),
            _ => qec::codes::bb_90_8_10().expect("valid"),
        };
        let n = code.num_qubits();
        let priors = vec![p; n];
        let mut rng = StdRng::seed_from_u64(0xC1C1_0DE5 ^ seed);
        let error: Vec<bool> = (0..n).map(|_| rng.gen_bool(p)).collect();
        let mut uniform_scratch = DecoderScratch::new();
        let mut priors_scratch = DecoderScratch::new();
        for (h, syndrome) in [
            (code.hz(), code.z_syndrome(&error)),
            (code.hx(), code.x_syndrome(&error)),
        ] {
            let dec = BpOsdDecoder::new(h, bp_iterations);
            let uniform = dec.decode_into(&syndrome, p, &mut uniform_scratch);
            let with_priors =
                dec.decode_with_priors_into(&syndrome, &priors, &mut priors_scratch);
            prop_assert_eq!(uniform, with_priors);
            prop_assert_eq!(uniform_scratch.error(), priors_scratch.error());
            prop_assert_eq!(uniform_scratch.llrs(), priors_scratch.llrs());
            // The cached-LLR fast path must survive the comparison: decoding the
            // same syndrome again through the warm uniform scratch is stable.
            let again = dec.decode_into(&syndrome, p, &mut uniform_scratch);
            prop_assert_eq!(again, uniform);
        }
    }

    #[test]
    fn batch_decode_is_bit_identical_to_per_shot_path(
        seed in 0u64..40,
        p in 0.002f64..0.03,
        code_pick in 0usize..3,
        channel_pick in 0usize..3,
    ) {
        // The bit-sliced batch sampler must reproduce the scalar per-shot path
        // shot for shot: same seeded streams, same corrections (both sectors —
        // the failure verdict ORs them), same verdicts — across the code catalog,
        // all three channel shapes, and batch sizes from a single lane to
        // multi-chunk runs. The low BP iteration cap makes the OSD fallback fire
        // on a healthy fraction of the structured-channel shots.
        let code = match code_pick {
            0 => qec::codes::bb_72_12_6().expect("valid"),
            1 => qec::codes::hgp_100().expect("valid"),
            _ => qec::codes::bb_90_8_10().expect("valid"),
        };
        let model = HardwareNoiseModel::new(NoiseParameters::new(p), 2e-3);
        let n = code.num_qubits();
        let checks = code.num_stabilizers();
        let p_eff = model.effective_error_rate();
        let channel = match channel_pick {
            0 => ErrorChannel::uniform(n, p_eff),
            1 => ErrorChannel::biased(n, checks, p_eff, (2.0 * p_eff).min(0.75)),
            _ => {
                // Schedule-shaped heterogeneous rates: per-qubit idle exposures.
                let data_idle: Vec<f64> = (0..n).map(|q| 1e-3 * ((q % 7) as f64)).collect();
                let meas_idle: Vec<f64> =
                    (0..checks).map(|c| 1e-3 * ((c % 5) as f64)).collect();
                ErrorChannel::from_schedule(&model, &data_idle, &meas_idle)
            }
        };
        let exp = MemoryExperiment::with_channel(&code, model, channel, 8);
        let config = MemoryConfig {
            shots: 0,
            bp_iterations: 8,
            threads: 1,
            seed: 0xC1C1_0DE5 ^ seed,
        };
        // One dirty batch scratch (and decode cache) across every batch size —
        // cache hits must be indistinguishable from misses.
        let mut batch_scratch = BatchScratch::new();
        let mut shot_scratch = ShotScratch::new();
        for &total in &[1usize, 7, 64, 200] {
            let mut start = 0usize;
            while start < total {
                let count = 64.min(total - start);
                let mask = exp.sample_batch_with(&config, start, count, &mut batch_scratch);
                for k in 0..count {
                    let mut rng = StdRng::seed_from_u64(config.shot_seed(start + k));
                    let scalar = exp.sample_one_with(&mut rng, &mut shot_scratch);
                    prop_assert_eq!(
                        (mask >> k) & 1 == 1,
                        scalar,
                        "shot {} diverged (batch size {}, channel {})",
                        start + k,
                        total,
                        channel_pick
                    );
                }
                start += count;
            }
        }
    }

    #[test]
    fn simd_propagate_is_bit_identical_to_scalar(
        seed in 0u64..60,
        p in 0.002f64..0.06,
        bp_iterations in 1usize..16,
        code_pick in 0usize..3,
        channel_pick in 0usize..3,
        flip_bits in 0u64..8,
    ) {
        // The vectorized propagate path (CYCLONE_SIMD=force) must reproduce the
        // scalar reference (CYCLONE_SIMD=off) byte for byte: same convergence
        // verdict and iteration count, same hard decisions, and bit-equal
        // posterior LLRs — across the code catalog, all three channel shapes
        // (uniform via the cached-LLR path, biased and schedule-derived via
        // per-bit priors), both sectors, converged and exhausted runs (the low
        // iteration caps force plenty of non-convergence), and syndromes the
        // error alone would not produce (random measurement flips, including
        // ones outside the column space). On hosts without a vector ISA,
        // `force` resolves to the scalar path and the comparison is trivially
        // green. Kernel-level adversarial inputs (-0.0, ties, infinities) are
        // pinned separately in `decoder::simd`'s unit tests.
        let code = match code_pick {
            0 => qec::codes::bb_72_12_6().expect("valid"),
            1 => qec::codes::hgp_100().expect("valid"),
            _ => qec::codes::bb_90_8_10().expect("valid"),
        };
        let model = HardwareNoiseModel::new(NoiseParameters::new(p), 2e-3);
        let n = code.num_qubits();
        let checks = code.num_stabilizers();
        let p_eff = model.effective_error_rate();
        let channel = match channel_pick {
            0 => ErrorChannel::uniform(n, p_eff),
            1 => ErrorChannel::biased(n, checks, p_eff, (2.0 * p_eff).min(0.75)),
            _ => {
                let data_idle: Vec<f64> = (0..n).map(|q| 1e-3 * ((q % 7) as f64)).collect();
                let meas_idle: Vec<f64> =
                    (0..checks).map(|c| 1e-3 * ((c % 5) as f64)).collect();
                ErrorChannel::from_schedule(&model, &data_idle, &meas_idle)
            }
        };
        // Exactly the priors clamp `MemoryExperiment::rebuild_priors` applies.
        let priors: Vec<f64> = channel.data().iter().map(|&r| r.clamp(1e-9, 0.45)).collect();
        let mut rng = StdRng::seed_from_u64(0xC1C1_0DE5 ^ seed);
        let error: Vec<bool> = (0..n).map(|_| rng.gen_bool(p_eff)).collect();
        // One dirty scratch per side, bounced across sectors and channel kinds —
        // the Monte-Carlo steady state, with `llrs_pad` reused iteration to
        // iteration exactly as in production.
        let mut simd_scratch = DecoderScratch::new();
        let mut scalar_scratch = DecoderScratch::new();
        for (h, mut syndrome) in [
            (code.hz(), code.z_syndrome(&error)),
            (code.hx(), code.x_syndrome(&error)),
        ] {
            for _ in 0..flip_bits {
                let at = rng.gen_range(0..syndrome.len());
                syndrome[at] = !syndrome[at];
            }
            let simd_bp = BeliefPropagation::new(SparseBinMat::from_bitmat(h), bp_iterations)
                .with_simd(Simd::with_mode(SimdMode::Force));
            let scalar_bp = BeliefPropagation::new(SparseBinMat::from_bitmat(h), bp_iterations)
                .with_simd(Simd::with_mode(SimdMode::Off));
            let a = simd_bp.decode_with_priors_into(&syndrome, &priors, &mut simd_scratch);
            let b = scalar_bp.decode_with_priors_into(&syndrome, &priors, &mut scalar_scratch);
            prop_assert_eq!(a, b, "priors-path status diverged");
            prop_assert_eq!(simd_scratch.error(), scalar_scratch.error());
            let simd_bits: Vec<u64> =
                simd_scratch.llrs().iter().map(|v| v.to_bits()).collect();
            let scalar_bits: Vec<u64> =
                scalar_scratch.llrs().iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(simd_bits, scalar_bits, "priors-path LLRs not byte-identical");
            let ua = simd_bp.decode_into(&syndrome, p_eff.clamp(1e-9, 0.45), &mut simd_scratch);
            let ub =
                scalar_bp.decode_into(&syndrome, p_eff.clamp(1e-9, 0.45), &mut scalar_scratch);
            prop_assert_eq!(ua, ub, "uniform-path status diverged");
            prop_assert_eq!(simd_scratch.error(), scalar_scratch.error());
            let simd_bits: Vec<u64> =
                simd_scratch.llrs().iter().map(|v| v.to_bits()).collect();
            let scalar_bits: Vec<u64> =
                scalar_scratch.llrs().iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(simd_bits, scalar_bits, "uniform-path LLRs not byte-identical");
        }
    }

    #[test]
    fn effective_error_rate_monotone_in_latency(latency in 0.0f64..0.5, p_exp in 1.0f64..3.0) {
        let p = 10f64.powf(-1.0 - p_exp); // 1e-2 .. 1e-4
        let short = HardwareNoiseModel::new(NoiseParameters::new(p), latency);
        let long = HardwareNoiseModel::new(NoiseParameters::new(p), latency + 0.05);
        prop_assert!(long.effective_error_rate() >= short.effective_error_rate());
    }
}

/// The full evaluation catalog, built once per test binary.
fn catalog() -> &'static [qec::codes::CatalogEntry] {
    static CATALOG: OnceLock<Vec<qec::codes::CatalogEntry>> = OnceLock::new();
    CATALOG.get_or_init(|| qec::codes::full_catalog().expect("valid catalog"))
}

/// A random `m × n` check matrix of row weight ~6 whose last rows repeat
/// earlier ones (so it is rank-deficient and has syndromes outside its column
/// space).
fn random_checks(m: usize, n: usize, rng: &mut StdRng) -> BitMat {
    let mut rows: Vec<Vec<usize>> = (0..m - m / 8)
        .map(|_| (0..6).map(|_| rng.gen_range(0..n)).collect())
        .collect();
    while rows.len() < m {
        let (a, b) = (rng.gen_range(0..rows.len()), rng.gen_range(0..rows.len()));
        let mut sum: Vec<usize> = rows[a].iter().chain(&rows[b]).copied().collect();
        sum.sort_unstable();
        rows.push(sum);
    }
    let mut h = BitMat::zeros(m, n);
    for (r, support) in rows.iter().enumerate() {
        for &c in support {
            h.flip(r, c);
        }
    }
    h
}

/// Rewrites BP suspicions into the adversarial shapes the sort key must
/// order deterministically: 0 leaves them as they are, 1 rounds them to a few
/// tied levels, 2 sprinkles NaN, 3 sprinkles `+0.0` / `-0.0`.
fn distort_scores(scores: &mut [f64], shape: usize, rng: &mut StdRng) {
    for x in scores.iter_mut() {
        match shape {
            1 => *x = (*x / 4.0).round(),
            2 if rng.gen_bool(0.2) => *x = f64::NAN,
            3 if rng.gen_bool(0.3) => *x = if rng.gen_bool(0.5) { 0.0 } else { -0.0 },
            _ => {}
        }
    }
}

/// Decodes one (syndrome, suspicion) pair with both the shipped column-basis
/// OSD (through the caller's dirty scratch) and the row-echelon oracle, and
/// checks they agree; on an inconsistent syndrome the shipped decoder must
/// leave `scratch.error` as it was. Returns whether the syndrome was
/// consistent.
fn assert_osd_matches_oracle(
    osd: &OsdDecoder,
    oracle: &mut RowEchelonOsd,
    syndrome: &[bool],
    suspicion: &[f64],
    scratch: &mut DecoderScratch,
) -> bool {
    let before = scratch.error().to_vec();
    let consistent = oracle.decode(syndrome, suspicion);
    assert_eq!(
        osd.decode_into(syndrome, suspicion, scratch),
        consistent,
        "consistency verdict diverged"
    );
    if consistent {
        assert_eq!(scratch.error(), oracle.error());
    } else {
        assert_eq!(
            scratch.error(),
            before.as_slice(),
            "failed decode wrote error"
        );
    }
    consistent
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4).with_seed(0xC1C1_0DE5))]

    #[test]
    fn column_osd_matches_row_echelon_oracle(seed in 0u64..1000) {
        // The column-basis OSD must return exactly the row-echelon oracle's
        // solution and consistency verdict on both sectors of every catalog code
        // (the BB check matrices are rank-deficient), on the suspicions real BP
        // failures produce at low, moderate and high noise, rewritten into ties,
        // NaN and signed zeros; and on random rank-deficient matrices whose row
        // counts straddle packed-column word boundaries. A flipped measurement
        // bit and uniformly random syndromes supply inconsistent inputs. One
        // dirty scratch crosses every shape.
        let mut rng = StdRng::seed_from_u64(0xC1C1_0DE5 ^ seed);
        let mut scratch = DecoderScratch::new();
        let mut bp_scratch = DecoderScratch::new();
        let (mut consistent, mut inconsistent) = (0usize, 0usize);
        let mut tally = |ok: bool| if ok { consistent += 1 } else { inconsistent += 1 };
        for entry in catalog() {
            for h in [entry.code.hx(), entry.code.hz()] {
                let (m, n) = h.shape();
                let osd = OsdDecoder::new(h.clone());
                let mut oracle = RowEchelonOsd::new(h.clone());
                let bp = BpOsdDecoder::new(h, 6);
                for (k, p) in [1e-3, 0.03, 0.1].into_iter().enumerate() {
                    let error: Vec<bool> = (0..n).map(|_| rng.gen_bool(p)).collect();
                    let exact = h.mul_vec(&error);
                    let mut flipped = exact.clone();
                    let at = rng.gen_range(0..m);
                    flipped[at] = !flipped[at];
                    let random: Vec<bool> = (0..m).map(|_| rng.gen_bool(0.5)).collect();
                    for syndrome in [exact, flipped, random] {
                        bp.decode_into(&syndrome, p, &mut bp_scratch);
                        let mut suspicion: Vec<f64> =
                            bp_scratch.llrs().iter().map(|&l| -l).collect();
                        distort_scores(&mut suspicion, (seed as usize + k) % 4, &mut rng);
                        tally(assert_osd_matches_oracle(
                            &osd, &mut oracle, &syndrome, &suspicion, &mut scratch,
                        ));
                    }
                }
            }
        }
        for m in [63usize, 64, 65, 128] {
            let h = random_checks(m, 2 * m + 3, &mut rng);
            let (m, n) = h.shape();
            let osd = OsdDecoder::new(h.clone());
            let mut oracle = RowEchelonOsd::new(h.clone());
            for shape in 0..4 {
                let error: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.05)).collect();
                let random: Vec<bool> = (0..m).map(|_| rng.gen_bool(0.5)).collect();
                for syndrome in [h.mul_vec(&error), random] {
                    let mut suspicion: Vec<f64> = (0..n)
                        .map(|c| if error[c] { 2.0 } else { 0.0 } + rng.gen_range(-1.0..1.0))
                        .collect();
                    distort_scores(&mut suspicion, shape, &mut rng);
                    tally(assert_osd_matches_oracle(
                        &osd, &mut oracle, &syndrome, &suspicion, &mut scratch,
                    ));
                }
            }
        }
        prop_assert!(consistent > 0 && inconsistent > 0, "{consistent} / {inconsistent}");
    }
}

#[test]
fn simd_propagate_matches_scalar_on_adversarial_row_shapes() {
    // Row degrees chosen to stress the padded-CSR layout: an empty row (no
    // padded range at all), a degree-1 row (min2 stays +∞, its one output is
    // scale·min2 = +∞-scaled), a lane-exact degree-4 row, and degrees 5 and 9
    // (one partial vector, two-vectors-plus-partial) — every syndrome pattern,
    // several iteration caps, both converged and exhausted runs.
    let h = SparseBinMat::from_row_supports(
        11,
        vec![
            vec![],
            vec![3],
            vec![0, 2, 4, 6],
            vec![1, 2, 3, 4, 5, 6, 7, 8, 10],
            vec![0, 5, 7, 9, 10],
        ],
    );
    let mut simd_scratch = DecoderScratch::new();
    let mut scalar_scratch = DecoderScratch::new();
    for iterations in [1usize, 3, 30] {
        let simd_bp = BeliefPropagation::new(h.clone(), iterations)
            .with_simd(Simd::with_mode(SimdMode::Force));
        let scalar_bp =
            BeliefPropagation::new(h.clone(), iterations).with_simd(Simd::with_mode(SimdMode::Off));
        for pattern in 0u32..32 {
            let syndrome: Vec<bool> = (0..5).map(|r| (pattern >> r) & 1 == 1).collect();
            let a = simd_bp.decode_into(&syndrome, 0.05, &mut simd_scratch);
            let b = scalar_bp.decode_into(&syndrome, 0.05, &mut scalar_scratch);
            assert_eq!(a, b, "status diverged on syndrome {pattern:05b}");
            assert_eq!(simd_scratch.error(), scalar_scratch.error());
            let simd_bits: Vec<u64> = simd_scratch.llrs().iter().map(|v| v.to_bits()).collect();
            let scalar_bits: Vec<u64> = scalar_scratch.llrs().iter().map(|v| v.to_bits()).collect();
            assert_eq!(
                simd_bits, scalar_bits,
                "LLRs not byte-identical on syndrome {pattern:05b}"
            );
        }
    }
}

#[test]
fn memory_experiment_is_deterministic_for_fixed_seed() {
    let code = square_hypergraph_product(&ClassicalCode::repetition(3)).expect("valid");
    let model = HardwareNoiseModel::new(NoiseParameters::new(5e-3), 1e-3);
    let cfg = MemoryConfig {
        shots: 150,
        bp_iterations: 15,
        threads: 3,
        seed: 42,
    };
    let a = MemoryExperiment::new(&code, model, cfg.bp_iterations).run(&cfg, None);
    let b = MemoryExperiment::new(&code, model, cfg.bp_iterations).run(&cfg, None);
    assert_eq!(
        a.failures, b.failures,
        "same seed and shot split must reproduce"
    );
    assert_eq!(a.shots, b.shots);
}
