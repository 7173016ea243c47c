//! Seed-parallel sweep execution on scoped threads.
//!
//! Every figure averages independent seeded runs; those runs share nothing,
//! so they fan out across cores with `std::thread::scope`. The fan-out is
//! bounded by `available_parallelism` (one worker per core, each owning a
//! contiguous chunk of the seed range), and results return in seed order,
//! keeping the tables deterministic.

/// Runs `f(seed)` for `seed ∈ 0..runs` in parallel and returns the results
/// in seed order.
///
/// At most `available_parallelism` worker threads run at once; each owns a
/// contiguous chunk of the seed range and writes into its own slice of the
/// output, so no seed's result ever moves between workers and the returned
/// order is deterministic.
///
/// Falls back to a serial loop when the host exposes a single core (scoped
/// threads would only add contention — and would pollute the wall-clock
/// runtime measurements of Fig 3(c)).
///
/// # Panics
///
/// Propagates any panic from `f`.
pub fn parallel_seeds<T, F>(runs: u64, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(u64) -> T + Sync,
{
    let cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    if runs <= 1 || cores <= 1 {
        return (0..runs).map(f).collect();
    }
    let workers = cores.min(runs as usize);
    let chunk = (runs as usize).div_ceil(workers);
    let mut results: Vec<Option<T>> = (0..runs).map(|_| None).collect();
    let f = &f;
    std::thread::scope(|scope| {
        let mut rest: &mut [Option<T>] = &mut results;
        let mut start = 0u64;
        let mut handles = Vec::with_capacity(workers);
        while !rest.is_empty() {
            let take = chunk.min(rest.len());
            let (slice, tail) = rest.split_at_mut(take);
            rest = tail;
            let base = start;
            start += take as u64;
            handles.push(scope.spawn(move || {
                for (i, slot) in slice.iter_mut().enumerate() {
                    *slot = Some(f(base + i as u64));
                }
            }));
        }
        for h in handles {
            h.join().expect("seed worker panicked");
        }
    });
    results
        .into_iter()
        .map(|r| r.expect("every seed filled"))
        .collect()
}

/// Element-wise mean of per-seed metric vectors (each inner vector is one
/// seed's row of per-algorithm values).
///
/// # Panics
///
/// Panics if the rows have inconsistent widths or `rows` is empty.
pub fn mean_rows(rows: &[Vec<f64>]) -> Vec<f64> {
    assert!(!rows.is_empty(), "need at least one row");
    let width = rows[0].len();
    let mut out = vec![0.0; width];
    for row in rows {
        assert_eq!(row.len(), width, "ragged rows");
        for (o, v) in out.iter_mut().zip(row) {
            *o += v / rows.len() as f64;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_seed_order() {
        let out = parallel_seeds(8, |seed| seed * 10);
        assert_eq!(out, vec![0, 10, 20, 30, 40, 50, 60, 70]);
    }

    #[test]
    fn single_run_stays_inline() {
        assert_eq!(parallel_seeds(1, |s| s + 1), vec![1]);
        assert!(parallel_seeds(0, |s| s).is_empty());
    }

    #[test]
    fn mean_rows_averages() {
        let rows = vec![vec![1.0, 4.0], vec![3.0, 8.0]];
        assert_eq!(mean_rows(&rows), vec![2.0, 6.0]);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_rejected() {
        let _ = mean_rows(&[vec![1.0], vec![1.0, 2.0]]);
    }
}
