//! Round-robin (equal-share) compute division — the "RR" in `DynamicRR`.

use mec_topology::units::Compute;

/// Equal share of `capacity` among `n` requests; the whole capacity when
/// `n == 1`, and `capacity` itself when `n == 0` has no meaning so it
/// returns `None`.
pub fn fair_share(capacity: Compute, n: usize) -> Option<Compute> {
    if n == 0 {
        None
    } else {
        Some(capacity / n as f64)
    }
}

/// Water-filling with buffers kept between calls: [`WaterFill::fill`]
/// splits `capacity` across jobs with individual demand caps. Each job
/// gets at most its cap, and leftover capacity from capped jobs is
/// re-distributed to the rest (progressive filling).
#[derive(Debug, Clone, Default)]
pub struct WaterFill {
    alloc: Vec<Compute>,
    open: Vec<usize>,
    next_open: Vec<usize>,
}

impl WaterFill {
    /// Returns per-job allocations in input order. The sum never exceeds
    /// `capacity`, and no job exceeds its cap.
    pub fn fill(&mut self, capacity: Compute, caps: &[Compute]) -> &[Compute] {
        let n = caps.len();
        let alloc = &mut self.alloc;
        alloc.clear();
        alloc.resize(n, Compute::ZERO);
        if n == 0 || !capacity.is_positive() {
            return alloc;
        }
        let mut remaining = capacity;
        self.open.clear();
        self.open.extend(0..n);
        // Each pass gives every open job an equal slice of the remaining
        // capacity, capped; capped jobs close. Terminates in <= n passes.
        while !self.open.is_empty() && remaining.as_mhz() > 1e-12 {
            let share = remaining / self.open.len() as f64;
            self.next_open.clear();
            let mut gave_any = false;
            for &i in &self.open {
                let headroom = caps[i] - alloc[i];
                let give = share.min(headroom).clamp_non_negative();
                if give.as_mhz() > 0.0 {
                    alloc[i] += give;
                    remaining -= give;
                    gave_any = true;
                }
                if (caps[i] - alloc[i]).as_mhz() > 1e-12 {
                    self.next_open.push(i);
                }
            }
            if !gave_any {
                break; // every open job is saturated to its cap
            }
            std::mem::swap(&mut self.open, &mut self.next_open);
        }
        alloc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mhz(v: f64) -> Compute {
        Compute::mhz(v)
    }

    fn water_fill(capacity: Compute, caps: &[Compute]) -> Vec<Compute> {
        WaterFill::default().fill(capacity, caps).to_vec()
    }

    #[test]
    fn fair_share_divides() {
        assert_eq!(fair_share(mhz(3000.0), 3).unwrap().as_mhz(), 1000.0);
        assert_eq!(fair_share(mhz(3000.0), 1).unwrap().as_mhz(), 3000.0);
        assert!(fair_share(mhz(3000.0), 0).is_none());
    }

    #[test]
    fn water_fill_no_caps_binding() {
        let alloc = water_fill(mhz(900.0), &[mhz(1000.0), mhz(1000.0), mhz(1000.0)]);
        for a in &alloc {
            assert!((a.as_mhz() - 300.0).abs() < 1e-9);
        }
    }

    #[test]
    fn water_fill_redistributes() {
        // One small job (cap 100), two big. 1000 total: small gets 100,
        // leftover 900 split 450/450.
        let alloc = water_fill(mhz(1000.0), &[mhz(100.0), mhz(2000.0), mhz(2000.0)]);
        assert!((alloc[0].as_mhz() - 100.0).abs() < 1e-9);
        assert!((alloc[1].as_mhz() - 450.0).abs() < 1e-9);
        assert!((alloc[2].as_mhz() - 450.0).abs() < 1e-9);
    }

    #[test]
    fn water_fill_total_capped() {
        let caps = [mhz(50.0), mhz(60.0)];
        let alloc = water_fill(mhz(1000.0), &caps);
        // All caps reachable: everyone saturates.
        assert!((alloc[0].as_mhz() - 50.0).abs() < 1e-9);
        assert!((alloc[1].as_mhz() - 60.0).abs() < 1e-9);
        let total: f64 = alloc.iter().map(|a| a.as_mhz()).sum();
        assert!(total <= 1000.0 + 1e-9);
    }

    #[test]
    fn water_fill_empty_and_zero() {
        assert!(water_fill(mhz(100.0), &[]).is_empty());
        let alloc = water_fill(mhz(0.0), &[mhz(10.0)]);
        assert_eq!(alloc[0].as_mhz(), 0.0);
    }

    #[test]
    fn reused_buffers_forget_the_previous_call() {
        let mut fill = WaterFill::default();
        fill.fill(mhz(1000.0), &[mhz(100.0), mhz(2000.0), mhz(2000.0)]);
        let alloc = fill.fill(mhz(90.0), &[mhz(1000.0), mhz(20.0)]);
        assert_eq!(alloc, water_fill(mhz(90.0), &[mhz(1000.0), mhz(20.0)]));
        assert!((alloc[0].as_mhz() - 70.0).abs() < 1e-9);
        assert!((alloc[1].as_mhz() - 20.0).abs() < 1e-9);
        assert!(fill.fill(mhz(100.0), &[]).is_empty());
    }
}
