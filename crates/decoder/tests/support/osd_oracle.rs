//! Row-echelon reference oracle for OSD-0.
//!
//! The textbook statement of the OSD-0 definition that
//! [`decoder::osd::OsdDecoder`] must reproduce bit for bit: sort the columns by
//! suspicion (most suspicious first, NaN lowest, `-0.0 == 0.0`, ties by index),
//! gather the augmented matrix `[H(ordered) | s]`, run full Gauss–Jordan
//! elimination in permuted-column order, and read the pivot columns' values off
//! the syndrome column with every non-pivot column set to zero. Every decode starts
//! from a fresh `0..n` order and eliminates to the end, so it shares no
//! shortcut with the shipped decoder. The oracle owns its buffers, so repeated
//! decodes do not allocate once they are sized.
//!
//! Shared by the decoder property tests and the `decoder_hotpath` bench, which
//! include this file by path.

use qec::linalg::BitMat;

/// The suspicion sort key of the OSD-0 definition: NaN ranks lowest and signed
/// zeros compare equal, so ties break by column index.
fn suspicion_key(x: f64) -> f64 {
    if x.is_nan() {
        f64::NEG_INFINITY
    } else if x == 0.0 {
        0.0
    } else {
        x
    }
}

/// Row-echelon OSD-0 over a fixed parity-check matrix.
pub struct RowEchelonOsd {
    h: BitMat,
    order: Vec<usize>,
    aug: Vec<u64>,
    pivot_cols: Vec<usize>,
    solution_ordered: Vec<bool>,
    error: Vec<bool>,
}

impl RowEchelonOsd {
    /// Creates the oracle for the parity-check matrix `h`.
    pub fn new(h: BitMat) -> Self {
        RowEchelonOsd {
            h,
            order: Vec::new(),
            aug: Vec::new(),
            pivot_cols: Vec::new(),
            solution_ordered: Vec::new(),
            error: Vec::new(),
        }
    }

    /// The solution of the last decode that returned `true`.
    pub fn error(&self) -> &[bool] {
        &self.error
    }

    /// Decodes `syndrome` under `suspicion`. Returns `true` and stores the
    /// solution (see [`RowEchelonOsd::error`]) when the syndrome lies in the column
    /// space of `H`; returns `false`, leaving the stored solution untouched,
    /// otherwise.
    pub fn decode(&mut self, syndrome: &[bool], suspicion: &[f64]) -> bool {
        let (m, n) = self.h.shape();
        assert_eq!(syndrome.len(), m, "syndrome length mismatch");
        assert_eq!(suspicion.len(), n, "need one score per column");

        // The index tiebreak makes the comparator a strict total order, so the
        // unstable sort is deterministic (and allocation-free).
        let order = &mut self.order;
        order.clear();
        order.extend(0..n);
        order.sort_unstable_by(|&a, &b| {
            suspicion_key(suspicion[b])
                .total_cmp(&suspicion_key(suspicion[a]))
                .then(a.cmp(&b))
        });

        // Augmented matrix [H(ordered) | s] in word-packed rows, the syndrome at
        // bit position `n`, gathered 64 permuted columns per accumulator word.
        let words = (n + 1).div_ceil(64);
        let aug = &mut self.aug;
        aug.resize(m * words, 0);
        for (r, &sr) in syndrome.iter().enumerate() {
            let h_row = self.h.row_words(r);
            let out = &mut aug[r * words..(r + 1) * words];
            let mut acc = 0u64;
            let mut w = 0usize;
            for (pos, &orig) in order.iter().enumerate() {
                acc |= ((h_row[orig >> 6] >> (orig & 63)) & 1) << (pos & 63);
                if pos & 63 == 63 {
                    out[w] = acc;
                    w += 1;
                    acc = 0;
                }
            }
            if sr {
                acc |= 1u64 << (n & 63);
            }
            out[w] = acc;
        }

        // Full Gauss–Jordan in permuted-column order. Every row at or below
        // `pivot_row` is zero in the columns already passed, so the next pivot
        // column is the minimum leading set bit over those rows (syndrome bit
        // masked out) and the pivot row is the first row attaining it.
        let pivot_cols = &mut self.pivot_cols;
        pivot_cols.clear();
        let last_word_mask = (1u64 << (n & 63)) - 1;
        let (syn_word, syn_bit) = (n >> 6, n & 63);
        let mut pivot_row = 0usize;
        while pivot_row < m {
            let mut best_col = usize::MAX;
            let mut best_row = usize::MAX;
            for r in pivot_row..m {
                let row = &aug[r * words..(r + 1) * words];
                for (w, &raw) in row.iter().enumerate() {
                    let word = if w == words - 1 {
                        raw & last_word_mask
                    } else {
                        raw
                    };
                    if word != 0 {
                        let lead = (w << 6) | word.trailing_zeros() as usize;
                        if lead < best_col {
                            best_col = lead;
                            best_row = r;
                        }
                        break;
                    }
                }
            }
            if best_col == usize::MAX {
                break;
            }
            for w in 0..words {
                aug.swap(pivot_row * words + w, best_row * words + w);
            }
            let (pivot_word, pivot_bit) = (best_col >> 6, best_col & 63);
            for rr in 0..m {
                if rr != pivot_row && (aug[rr * words + pivot_word] >> pivot_bit) & 1 == 1 {
                    for w in 0..words {
                        let v = aug[pivot_row * words + w];
                        aug[rr * words + w] ^= v;
                    }
                }
            }
            pivot_cols.push(best_col);
            pivot_row += 1;
        }

        // Consistency: every all-zero row must carry a zero syndrome bit.
        let syndrome_bit = |r: usize| (aug[r * words + syn_word] >> syn_bit) & 1 == 1;
        if (pivot_row..m).any(syndrome_bit) {
            return false;
        }

        self.solution_ordered.clear();
        self.solution_ordered.resize(n, false);
        for (row, &col) in pivot_cols.iter().enumerate() {
            self.solution_ordered[col] = syndrome_bit(row);
        }
        self.error.clear();
        self.error.resize(n, false);
        for (pos, &orig) in order.iter().enumerate() {
            self.error[orig] = self.solution_ordered[pos];
        }
        true
    }
}
