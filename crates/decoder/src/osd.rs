//! Ordered-statistics decoding (OSD-0) post-processing.
//!
//! Belief propagation alone often fails on quantum LDPC codes because of the many
//! degenerate low-weight solutions. OSD-0 (Panteleev–Kalachev style) takes the BP
//! posterior reliabilities, orders the columns of `H` from most to least likely to
//! be in error, selects pivot columns greedily in that order — column `j` is a pivot
//! iff it is linearly independent of the columns ordered before it — and returns
//! the unique combination of pivot columns that reproduces the syndrome, with every
//! non-pivot position set to zero.
//!
//! # Column-basis elimination
//!
//! [`OsdDecoder::new`] packs `H` column-major once (`m.div_ceil(64)` words per
//! column). Each decode then walks the columns in suspicion order and reduces each
//! one against an echelon basis of the pivots found so far, keyed by each basis
//! vector's lowest set row. A column that reduces to zero depends on earlier ones
//! and is skipped; any other column becomes the next pivot, stored already reduced
//! under its (new, unique) lowest row. Every basis vector also carries a bitset of
//! the pivots it combines, so the reduction keeps track of which original columns
//! it has summed.
//!
//! This picks exactly the pivots of row-echelon Gaussian elimination on
//! `[H(ordered) | s]`: both are the greedy basis of the ordered columns. The OSD-0
//! solution is the unique combination of those independent pivots that equals `s`,
//! so both methods return the same vector. A row-echelon reference oracle pins this
//! in the property suite.
//!
//! # Early exit
//!
//! The syndrome is kept reduced against the basis as a running residual: whenever
//! a new pivot's key row is the residual's lowest set row, the residual is reduced
//! further. A nonzero residual reduced this way is never in the span of the basis,
//! since any nonzero combination of basis vectors has its lowest set row at a key.
//! So the decode stops as soon as the residual reaches zero, usually long before the
//! columns run out. The residual's pivot bitset is then the solution, scattered back
//! through the column order. Pivots found after that point could only take the value
//! zero. If the columns run out with a nonzero residual, the syndrome lies outside
//! the column space of `H`, and the decode reports it.
//!
//! Consecutive decodes also reuse the previous column order as the sort's starting
//! permutation: Monte-Carlo shots at one operating point produce similar BP
//! posteriors, so the input is nearly sorted. The comparator is a strict total
//! order, so any starting permutation sorts to the same result. Every buffer lives
//! in a [`DecoderScratch`], so steady-state decodes do not allocate.

use crate::scratch::DecoderScratch;
use qec::linalg::BitMat;

/// `DecoderScratch::row_owner` entry for a row that is no basis vector's key.
const NO_OWNER: usize = usize::MAX;

/// Sort key for suspicion scores: NaN (e.g. from a degenerate prior) maps to the
/// lowest possible suspicion instead of silently scrambling the order, and signed
/// zeros collapse so ties keep breaking by column index.
#[inline]
fn suspicion_key(x: f64) -> f64 {
    if x.is_nan() {
        f64::NEG_INFINITY
    } else if x == 0.0 {
        0.0
    } else {
        x
    }
}

/// Reduces `v` (`rw` vector words followed by its pivot bitset) against the
/// echelon `basis`, walking up from its lowest set row. Returns the lowest set row
/// of the result, which no basis vector owns, or `None` once `v` is zero.
///
/// Each XOR clears the current lowest row and changes only higher rows, because a
/// basis vector has no set row below its key.
#[inline]
fn reduce(v: &mut [u64], rw: usize, basis: &[u64], row_owner: &[usize]) -> Option<usize> {
    let stride = v.len();
    for w in 0..rw {
        while v[w] != 0 {
            let row = (w << 6) | v[w].trailing_zeros() as usize;
            let owner = row_owner[row];
            if owner == NO_OWNER {
                return Some(row);
            }
            for (dst, src) in v
                .iter_mut()
                .zip(&basis[owner * stride..(owner + 1) * stride])
            {
                *dst ^= src;
            }
        }
    }
    None
}

/// OSD-0 decoder over a fixed parity-check matrix.
#[derive(Debug, Clone)]
pub struct OsdDecoder {
    h: BitMat,
    /// `H` packed column-major: column `c` is words `c * col_words..(c + 1) *
    /// col_words`, row `r` at bit `r & 63` of word `r >> 6`.
    cols: Vec<u64>,
    /// Words per packed column, `m.div_ceil(64)`.
    col_words: usize,
}

impl OsdDecoder {
    /// Creates an OSD decoder for the parity-check matrix `h`.
    pub fn new(h: BitMat) -> Self {
        let (m, n) = h.shape();
        let col_words = m.div_ceil(64);
        let mut cols = vec![0u64; n * col_words];
        for r in 0..m {
            for (w, &word) in h.row_words(r).iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    let c = (w << 6) | bits.trailing_zeros() as usize;
                    cols[c * col_words + (r >> 6)] |= 1u64 << (r & 63);
                    bits &= bits - 1;
                }
            }
        }
        OsdDecoder { h, cols, col_words }
    }

    /// The parity-check matrix.
    pub fn matrix(&self) -> &BitMat {
        &self.h
    }

    /// Decodes a syndrome given per-bit "suspicion" scores (higher = more likely in
    /// error, e.g. `-llr` from BP). Returns an error vector `e` with `H·e = syndrome`,
    /// or `None` if the syndrome is not in the column space of `H` (cannot happen for
    /// syndromes generated by real error patterns).
    ///
    /// # Panics
    ///
    /// Panics if dimensions do not match.
    pub fn decode(&self, syndrome: &[bool], suspicion: &[f64]) -> Option<Vec<bool>> {
        let mut scratch = DecoderScratch::new();
        self.decode_into(syndrome, suspicion, &mut scratch)
            .then_some(scratch.error)
    }

    /// Scratch-borrowing variant of [`OsdDecoder::decode`]: returns `true` and leaves
    /// the solution in [`DecoderScratch::error`] when the syndrome is consistent;
    /// returns `false` — leaving `scratch.error` untouched — otherwise.
    ///
    /// The column sort starts from the previous decode's order left in the scratch;
    /// the output does not depend on the scratch's prior contents.
    ///
    /// # Panics
    ///
    /// Panics if dimensions do not match.
    // cyclone-lint: hot-path
    pub fn decode_into(
        &self,
        syndrome: &[bool],
        suspicion: &[f64],
        scratch: &mut DecoderScratch,
    ) -> bool {
        let (m, n) = self.h.shape();
        assert_eq!(syndrome.len(), m, "syndrome length mismatch");
        assert_eq!(suspicion.len(), n, "need one score per column");

        // Column order: most suspicious first (ties broken by index for determinism).
        // The index tiebreak makes the comparator a strict total order, so the
        // unstable sort yields the same permutation as a stable one — without the
        // stable sort's temporary-buffer allocation — from any starting permutation.
        // `scratch.order` is only ever written here, so `len() == n` implies it is a
        // permutation of `0..n`.
        let DecoderScratch {
            order,
            basis,
            row_owner,
            residual,
            pivot_pos,
            error,
            ..
        } = scratch;
        if order.len() != n {
            order.clear();
            order.extend(0..n);
        }
        order.sort_unstable_by(|&a, &b| {
            suspicion_key(suspicion[b])
                .total_cmp(&suspicion_key(suspicion[a]))
                .then(a.cmp(&b))
        });

        // A basis slot is `rw` vector words followed by a pivot bitset of the same
        // width (at most `m` pivots exist). Slot `rank` doubles as the candidate
        // column's workspace, so an independent column is already in place.
        let rw = self.col_words;
        let stride = 2 * rw;
        basis.resize(m * stride, 0);
        row_owner.clear();
        row_owner.resize(m, NO_OWNER);
        pivot_pos.clear();
        residual.clear();
        residual.resize(stride, 0);
        for (r, _) in syndrome.iter().enumerate().filter(|(_, &bit)| bit) {
            residual[r >> 6] |= 1u64 << (r & 63);
        }
        let mut residual_low = reduce(residual, rw, basis, row_owner);

        for (pos, &col) in order.iter().enumerate() {
            // Stop once the syndrome lies in the span of the pivots found so far.
            // `m` pivots span every syndrome, so `rank` never reaches `m` here.
            let Some(low) = residual_low else { break };
            let rank = pivot_pos.len();
            let (done, free) = basis.split_at_mut(rank * stride);
            let cand = &mut free[..stride];
            cand[..rw].copy_from_slice(&self.cols[col * rw..(col + 1) * rw]);
            cand[rw..].fill(0);
            let Some(key) = reduce(cand, rw, done, row_owner) else {
                continue;
            };
            cand[rw + (rank >> 6)] |= 1u64 << (rank & 63);
            row_owner[key] = rank;
            pivot_pos.push(pos);
            if key == low {
                residual_low = reduce(residual, rw, basis, row_owner);
            }
        }
        if residual_low.is_some() {
            return false;
        }

        // OSD-0: the residual's pivot bitset names the pivots summing to the
        // syndrome; every other column is zero.
        error.clear();
        error.resize(n, false);
        for (w, &word) in residual[rw..].iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let k = (w << 6) | bits.trailing_zeros() as usize;
                error[order[pivot_pos[k]]] = true;
                bits &= bits - 1;
            }
        }
        debug_assert_eq!(self.h.mul_vec(error), syndrome);
        true
    }
    // cyclone-lint: end-hot-path
}

#[cfg(test)]
mod tests {
    use super::*;
    use qec::linalg::weight;

    fn repetition_h(n: usize) -> BitMat {
        let rows: Vec<Vec<usize>> = (0..n - 1).map(|i| vec![i, i + 1]).collect();
        BitMat::from_row_supports(n - 1, n, &rows)
    }

    #[test]
    fn exact_syndrome_match() {
        let h = repetition_h(9);
        let osd = OsdDecoder::new(h.clone());
        let mut e = vec![false; 9];
        e[2] = true;
        e[5] = true;
        let s = h.mul_vec(&e);
        // Uniform suspicion: the decoder must still return *a* valid solution.
        let sol = osd.decode(&s, &[1.0; 9]).expect("consistent");
        assert_eq!(h.mul_vec(&sol), s);
    }

    #[test]
    fn suspicion_guides_to_true_error() {
        let h = repetition_h(9);
        let osd = OsdDecoder::new(h.clone());
        let mut e = vec![false; 9];
        e[4] = true;
        let s = h.mul_vec(&e);
        let mut suspicion = vec![0.0; 9];
        suspicion[4] = 10.0;
        let sol = osd.decode(&s, &suspicion).expect("consistent");
        assert_eq!(sol, e);
    }

    #[test]
    fn low_weight_solutions_preferred_with_good_scores() {
        let h = repetition_h(15);
        let osd = OsdDecoder::new(h.clone());
        let mut e = vec![false; 15];
        e[7] = true;
        let s = h.mul_vec(&e);
        // Mild suspicion centred on the true error position.
        let suspicion: Vec<f64> = (0..15).map(|i| if i == 7 { 2.0 } else { 0.1 }).collect();
        let sol = osd.decode(&s, &suspicion).expect("consistent");
        assert_eq!(h.mul_vec(&sol), s);
        assert!(
            weight(&sol) <= 2,
            "solution should be low weight, got {}",
            weight(&sol)
        );
    }

    #[test]
    fn inconsistent_syndrome_detected() {
        // H with a zero row cannot produce a nonzero syndrome on that row.
        let h = BitMat::from_dense(&[vec![1, 1], vec![0, 0]]);
        let osd = OsdDecoder::new(h);
        assert!(osd.decode(&[false, true], &[0.5, 0.5]).is_none());
    }

    #[test]
    fn nan_suspicion_ranks_lowest_instead_of_scrambling() {
        // Regression: `partial_cmp(..).unwrap_or(Equal)` used to make NaN compare
        // equal to everything, leaving the column order dependent on the sort's
        // internal element visitation. A NaN score must behave exactly like -inf
        // (least suspicious), keeping the decode deterministic and correct.
        let h = repetition_h(9);
        let osd = OsdDecoder::new(h.clone());
        let mut e = vec![false; 9];
        e[4] = true;
        let s = h.mul_vec(&e);
        let mut suspicion = vec![0.1; 9];
        suspicion[4] = 10.0;
        suspicion[7] = f64::NAN;
        let sol = osd.decode(&s, &suspicion).expect("consistent");
        assert_eq!(sol, e, "NaN column must not attract the solution");
        let mut as_neg_inf = suspicion.clone();
        as_neg_inf[7] = f64::NEG_INFINITY;
        assert_eq!(osd.decode(&s, &as_neg_inf), Some(sol));
    }

    #[test]
    fn word_boundary_sizes_round_trip() {
        // Exercise n % 64 == 0 (syndrome bit on a fresh word) and n % 64 != 0.
        for n in [63usize, 64, 65, 70] {
            let h = repetition_h(n + 1); // n+1 columns, n rows... keep simple:
            let cols = h.num_cols();
            let osd = OsdDecoder::new(h.clone());
            let mut e = vec![false; cols];
            e[cols / 2] = true;
            e[1] = true;
            let s = h.mul_vec(&e);
            let suspicion: Vec<f64> = (0..cols).map(|i| if e[i] { 5.0 } else { 0.2 }).collect();
            let sol = osd.decode(&s, &suspicion).expect("consistent");
            assert_eq!(h.mul_vec(&sol), s, "n = {cols}");
        }
    }

    #[test]
    fn warm_start_matches_cold_on_dirty_scratch() {
        // Re-decode a stream of different syndromes/suspicions through one warm
        // scratch; every result must equal a cold decode into a fresh scratch.
        let h = repetition_h(70);
        let cols = h.num_cols();
        let osd = OsdDecoder::new(h.clone());
        let mut warm = DecoderScratch::new();
        for round in 0..20usize {
            let mut e = vec![false; cols];
            e[(round * 7) % cols] = true;
            e[(round * 13 + 3) % cols] = true;
            let s = h.mul_vec(&e);
            let suspicion: Vec<f64> = (0..cols)
                .map(|i| ((i * 31 + round * 17) % 97) as f64 / 97.0)
                .collect();
            let cold = osd.decode(&s, &suspicion).expect("consistent");
            assert!(osd.decode_into(&s, &suspicion, &mut warm));
            assert_eq!(warm.error(), cold.as_slice(), "round {round}");
        }
    }

    #[test]
    fn warm_start_still_detects_inconsistency() {
        // A zero row with a nonzero syndrome leaves a residual no column clears,
        // and the failed decode must leave the previous solution in place.
        let h = BitMat::from_dense(&[vec![1, 1], vec![0, 0]]);
        let osd = OsdDecoder::new(h);
        let mut scratch = DecoderScratch::new();
        // Dirty the scratch with a consistent decode first.
        assert!(osd.decode_into(&[true, false], &[0.5, 0.5], &mut scratch));
        let before = scratch.error().to_vec();
        assert!(!osd.decode_into(&[false, true], &[0.5, 0.5], &mut scratch));
        assert!(!osd.decode_into(&[true, true], &[0.5, 0.5], &mut scratch));
        assert_eq!(scratch.error(), before.as_slice());
    }

    #[test]
    fn warm_start_survives_size_migration() {
        // A scratch whose order permutation belongs to a different n must fall
        // back to the fresh 0..n order, not index out of bounds or misdecode;
        // the row counts 63, 8, 128, 64, 65, 14 straddle packed-column word
        // boundaries in both directions.
        let mut scratch = DecoderScratch::new();
        for n in [64usize, 9, 129, 65, 66, 15] {
            let h = repetition_h(n);
            let osd = OsdDecoder::new(h.clone());
            let mut e = vec![false; n];
            e[n / 2] = true;
            let s = h.mul_vec(&e);
            let suspicion: Vec<f64> = (0..n).map(|i| 1.0 / (2.0 + i as f64)).collect();
            let cold = osd.decode(&s, &suspicion).expect("consistent");
            assert!(osd.decode_into(&s, &suspicion, &mut scratch));
            assert_eq!(scratch.error(), cold.as_slice(), "n = {n}");
        }
    }

    #[test]
    fn scratch_reuse_across_sizes_matches_fresh() {
        let mut scratch = DecoderScratch::new();
        for n in [9usize, 70, 15] {
            let h = repetition_h(n);
            let osd = OsdDecoder::new(h.clone());
            let mut e = vec![false; n];
            e[n / 3] = true;
            let s = h.mul_vec(&e);
            let suspicion: Vec<f64> = (0..n).map(|i| 1.0 / (1.0 + i as f64)).collect();
            let fresh = osd.decode(&s, &suspicion).expect("consistent");
            assert!(osd.decode_into(&s, &suspicion, &mut scratch));
            assert_eq!(scratch.error(), fresh.as_slice());
        }
    }
}
