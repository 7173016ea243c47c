//! Devex reference-framework pricing, shared by both simplex solvers so
//! that they pick the same entering column from the same reduced costs.
//!
//! Each candidate column `j` carries a weight `w_j ≥ 1` that estimates the
//! squared norm of its tableau column measured in the reference framework:
//! the columns nonbasic at the start of a phase, where every weight is 1.
//! Pricing enters the column with the largest `d_j²/w_j`, the steepest
//! edge as far as the weights know it, instead of Dantzig's most negative
//! `d_j`. A pivot that brings `q` in on row `r` raises every column its
//! pivot row touches to `w_j = max(w_j, (α_rj/α_rq)²·w_q)`, and the leaving
//! column starts at `max(w_q/α_rq², 1)` (Harris 1973; Forrest & Goldfarb
//! 1992).
//!
//! The entering column's own weight `w_q` is not the stored estimate but
//! its exact reference norm, read off the updated column `α_q` that the
//! ratio test has already formed ([`entering_weight`]), as Forrest and
//! Goldfarb do. On the slot LP this matters. Its pivot rows are convexity
//! rows of ones and capacity rows whose entries rarely exceed the pivot,
//! so with the stored `w_q` the weights of `fig3_offline`'s instances
//! (seed 1) never rose above 1 + 1e-14 and every pivot matched Dantzig's,
//! 1 451 a cold solve. The exact `w_q` also counts the basic reference
//! columns the entering one displaces; with it the weights grow and a cold
//! solve takes about 161 pivots.
//!
//! The solvers store each weight as its reciprocal `1/w_j`, so the pricing
//! pass over every column multiplies instead of dividing; the division
//! moves to the few columns a pivot actually raises.

/// The exact reference weight of an entering column from its updated
/// column: 1 if the column itself is in the reference framework, plus
/// `α_iq²` for every row `i` whose basic column is, summed in row order.
pub(crate) fn entering_weight(in_ref: bool, column: impl IntoIterator<Item = (bool, f64)>) -> f64 {
    let own = if in_ref { 1.0 } else { 0.0 };
    column
        .into_iter()
        .filter(|&(basic_in_ref, _)| basic_in_ref)
        .fold(own, |w, (_, a)| w + a * a)
}

/// The weight update of one pivot whose entering column weighs `w_q` and
/// meets its pivot row at `α_rq`, on reciprocal weights.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Step {
    /// `w_q/α_rq²`: a column with pivot-row entry `α_rj` is raised to at
    /// least `α_rj²` times this.
    scale: f64,
}

impl Step {
    pub(crate) fn new(wq: f64, aq: f64) -> Self {
        Self {
            scale: wq / (aq * aq),
        }
    }

    /// `1/max(w_j, (α_rj/α_rq)²·w_q)` from `inv_wj = 1/w_j` and `a = α_rj`.
    #[inline]
    pub(crate) fn raise(self, inv_wj: f64, a: f64) -> f64 {
        let w = a * a * self.scale;
        let inv = if w * inv_wj > 1.0 { 1.0 / w } else { inv_wj };
        debug_assert!(inv <= 1.0, "Devex weight {} fell below 1", 1.0 / inv);
        inv
    }

    /// `1/max(w_q/α_rq², 1)`, the reciprocal weight of the leaving column.
    pub(crate) fn leaving(self) -> f64 {
        if self.scale > 1.0 {
            1.0 / self.scale
        } else {
            1.0
        }
    }
}

/// The column with the largest `d_j²/w_j` among those with `d_j < -eps`,
/// from `inv_w[j] = 1/w_j`; `None` when no column prices below `-eps`.
///
/// Scores tie when their square roots, `|d_j|/√w_j`, lie within `eps` of
/// the best one, and the lowest index among them wins; with every weight
/// at 1 this is Dantzig's rule and its tie window. Structured programs hold
/// many columns that tie exactly in exact arithmetic, and solvers that
/// compute `d` and `w` in different orders round them apart; the window
/// lets them still pick the same column.
pub(crate) fn pick(d: &[f64], inv_w: &[f64], eps: f64) -> Option<usize> {
    debug_assert_eq!(d.len(), inv_w.len());
    let score = |dj: f64, iw: f64| {
        let s = dj * dj * iw;
        if dj < -eps {
            s
        } else {
            0.0
        }
    };
    let higher = |best: f64, s: f64| if s > best { s } else { best };
    // The maximum is exact in any order, so eight independent lanes let
    // the pass vectorize instead of chaining one compare per column; a
    // second pass finds the first column that ties with it, testing eight
    // columns at a time before it looks for the one.
    let mut lanes = [0.0f64; 8];
    let (d_chunks, w_chunks) = (d.chunks_exact(8), inv_w.chunks_exact(8));
    let tail = d_chunks.remainder().iter().zip(w_chunks.remainder());
    for (dc, wc) in d_chunks.zip(w_chunks) {
        for ((lane, &dj), &wj) in lanes.iter_mut().zip(dc).zip(wc) {
            *lane = higher(*lane, score(dj, wj));
        }
    }
    let best = tail
        .map(|(&dj, &wj)| score(dj, wj))
        .chain(lanes)
        .fold(0.0f64, higher);
    if best <= 0.0 {
        return None;
    }
    let floor = (best.sqrt() - eps).max(0.0);
    // Non-candidates score 0, so the least positive double keeps them out.
    let tie = (floor * floor).max(f64::MIN_POSITIVE);
    let ties = |(&dj, &wj): (&f64, &f64)| score(dj, wj) >= tie;
    let chunk = d
        .chunks(8)
        .zip(inv_w.chunks(8))
        .position(|(dc, wc)| dc.iter().zip(wc).fold(false, |any, col| any | ties(col)))?;
    let start = 8 * chunk;
    let within = d[start..].iter().zip(&inv_w[start..]).position(ties)?;
    Some(start + within)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn picks_the_largest_weighted_score_lowest_index_on_ties() {
        // Scores 4/4 = 1, 9/1 = 9, 0 (not improving), 9/1 = 9, 16/4 = 4.
        let d = [-2.0, -3.0, 0.5, -3.0, -4.0];
        let inv_w = [0.25, 1.0, 1.0, 1.0, 0.25];
        assert_eq!(pick(&d, &inv_w, 1e-9), Some(1));
        // Within eps of the best `|d_j|/√w_j` is a tie, beyond it is not.
        let inv_w = [1.0, 1.0, 1.0, 1.0, 0.25];
        assert_eq!(
            pick(&[-1.0, -3.0, -3.0 - 5e-10, 0.0, 0.0], &inv_w, 1e-9),
            Some(1)
        );
        assert_eq!(
            pick(&[-1.0, -3.0, -3.0 - 5e-9, 0.0, 0.0], &inv_w, 1e-9),
            Some(2)
        );
        // Past the eight-lane chunks the tail still competes.
        let mut d = vec![-1.0; 17];
        let inv_w = vec![1.0; 17];
        d[16] = -5.0;
        assert_eq!(pick(&d, &inv_w, 1e-9), Some(16));
        assert_eq!(pick(&[0.0, -1e-12, 3.0], &[1.0; 3], 1e-9), None);
    }

    #[test]
    fn entering_weight_sums_the_reference_rows() {
        let column = [(true, 2.0), (false, 5.0), (true, -0.5)];
        assert_eq!(entering_weight(true, column), 5.25);
        assert_eq!(entering_weight(false, column), 4.25);
        assert_eq!(entering_weight(false, [(false, 3.0)]), 0.0);
    }

    #[test]
    fn steps_raise_weights_and_never_below_one() {
        // w_q = 1 on a pivot element 2: scale 1/4.
        let step = Step::new(1.0, 2.0);
        assert_eq!(step.raise(1.0, 1.0), 1.0);
        assert_eq!(step.raise(1.0, 4.0), 0.25);
        assert_eq!(step.raise(0.125, 4.0), 0.125);
        assert_eq!(step.leaving(), 1.0);
        // w_q = 8 on a pivot element 1/2: scale 32.
        let step = Step::new(8.0, 0.5);
        assert_eq!(step.raise(1.0, 0.5), 0.125);
        assert_eq!(step.leaving(), 1.0 / 32.0);
    }
}
