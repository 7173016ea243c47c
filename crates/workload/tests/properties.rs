//! Property-based tests of the uncertain-demand model.

use mec_topology::units::DataRate;
use mec_topology::TopologyBuilder;
use mec_workload::demand::{DemandDistribution, DemandOutcome};
use mec_workload::{parse_requests, write_requests, ArrivalProcess, WorkloadBuilder};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Strategy producing a valid demand distribution with 1-6 levels.
fn demand() -> impl Strategy<Value = DemandDistribution> {
    prop::collection::vec((1.0f64..100.0, 0.05f64..1.0, 0.0f64..2000.0), 1..6).prop_map(|triples| {
        let total: f64 = triples.iter().map(|t| t.1).sum();
        let outcomes = triples
            .into_iter()
            .map(|(rate, w, reward)| DemandOutcome {
                rate: DataRate::mbps(rate),
                prob: w / total,
                reward,
            })
            .collect();
        DemandDistribution::new(outcomes).expect("normalized by construction")
    })
}

/// Values a mutated trace field takes.
const MUTATIONS: [&str; 11] = [
    "-5", "-1", "-0", "0", "NaN", "nan", "inf", "-inf", "1e400", "", "junk",
];

/// Replaces the `k`-th (mod their count) atomic field of a written row —
/// a column, or one `:`-separated part of a task or demand entry — with
/// `value`.
fn mutate_row(row: &str, k: usize, value: &str) -> String {
    let mut cols: Vec<Vec<Vec<&str>>> = row
        .split(',')
        .map(|c| c.split('|').map(|e| e.split(':').collect()).collect())
        .collect();
    let mut parts: Vec<&mut &str> = cols.iter_mut().flatten().flatten().collect();
    let count = parts.len();
    *parts[k % count] = value;
    cols.iter()
        .map(|c| c.iter().map(|e| e.join(":")).collect::<Vec<_>>().join("|"))
        .collect::<Vec<_>>()
        .join(",")
}

proptest! {
    /// A written trace with one field of one row replaced by a negative,
    /// non-finite, empty or junk value parses to `Ok` or `Err`; it never
    /// panics.
    #[test]
    fn mutated_rows_never_panic(
        seed in 0u64..100,
        row in 0usize..3,
        k in 0usize..64,
        value in 0usize..MUTATIONS.len(),
    ) {
        let topo = TopologyBuilder::new(4).seed(seed).build();
        let requests = WorkloadBuilder::new(&topo).seed(seed).count(3).build();
        let text = write_requests(&requests);
        let mut lines: Vec<String> = text.lines().map(String::from).collect();
        lines[row + 1] = mutate_row(&lines[row + 1], k, MUTATIONS[value]);
        let _ = parse_requests(&lines.join("\n"));
    }

    /// `E[min(ρ, cap)]` is monotone in `cap`, bounded by `E[ρ]`, and equals
    /// it once `cap` clears the support.
    #[test]
    fn truncated_expectation_monotone(d in demand(), caps in prop::collection::vec(0.0f64..150.0, 2)) {
        let (lo, hi) = (caps[0].min(caps[1]), caps[0].max(caps[1]));
        let elo = d.expected_truncated_rate(DataRate::mbps(lo)).as_mbps();
        let ehi = d.expected_truncated_rate(DataRate::mbps(hi)).as_mbps();
        prop_assert!(elo <= ehi + 1e-12);
        prop_assert!(ehi <= d.expected_rate().as_mbps() + 1e-12);
        let above = d.max_rate().as_mbps() + 1.0;
        let full = d.expected_truncated_rate(DataRate::mbps(above)).as_mbps();
        prop_assert!((full - d.expected_rate().as_mbps()).abs() < 1e-9);
    }

    /// `expected_reward_within` is monotone in the available rate and
    /// reaches the full expected reward at the support's top.
    #[test]
    fn reward_within_monotone(d in demand()) {
        let mut prev = -1.0;
        for step in 0..12 {
            let cap = DataRate::mbps(step as f64 * 10.0);
            let r = d.expected_reward_within(cap);
            prop_assert!(r >= prev - 1e-12);
            prev = r;
        }
        prop_assert!((d.expected_reward_within(d.max_rate()) - d.expected_reward()).abs() < 1e-9);
    }

    /// Quantiles are monotone and live on the support.
    #[test]
    fn quantiles_monotone(d in demand(), q1 in 0.01f64..1.0, q2 in 0.01f64..1.0) {
        let (lo, hi) = (q1.min(q2), q1.max(q2));
        let rlo = d.rate_quantile(lo);
        let rhi = d.rate_quantile(hi);
        prop_assert!(rlo.as_mbps() <= rhi.as_mbps() + 1e-12);
        prop_assert!(d.outcomes().iter().any(|o| (o.rate.as_mbps() - rlo.as_mbps()).abs() < 1e-12));
    }

    /// Samples always land on the support, and the empirical mean converges
    /// to the expectation.
    #[test]
    fn sampling_on_support(d in demand(), seed in 0u64..1000) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let n = 4000;
        let mut mean = 0.0;
        for _ in 0..n {
            let o = d.sample(&mut rng);
            prop_assert!(d
                .outcomes()
                .iter()
                .any(|c| (c.rate.as_mbps() - o.rate.as_mbps()).abs() < 1e-12));
            mean += o.rate.as_mbps() / n as f64;
        }
        let expect = d.expected_rate().as_mbps();
        // 4000 samples on a <= 100 MB/s support: generous tolerance.
        prop_assert!((mean - expect).abs() < 5.0, "mean {mean} vs {expect}");
    }

    /// Generated workloads always respect their configured ranges.
    #[test]
    fn workload_ranges(
        seed in 0u64..500,
        n in 0usize..40,
        lo in 5.0f64..30.0,
        width in 1.0f64..30.0,
        levels in 1usize..7,
    ) {
        let topo = TopologyBuilder::new(4).seed(seed).build();
        let reqs = WorkloadBuilder::new(&topo)
            .seed(seed)
            .count(n)
            .rate_range(lo, lo + width)
            .levels(levels)
            .build();
        prop_assert_eq!(reqs.len(), n);
        for r in &reqs {
            prop_assert_eq!(r.demand().level_count(), levels);
            prop_assert!(r.demand().min_rate().as_mbps() >= lo - 1e-9);
            prop_assert!(r.demand().max_rate().as_mbps() <= lo + width + 1e-9);
            let mass: f64 = r.demand().outcomes().iter().map(|o| o.prob).sum();
            prop_assert!((mass - 1.0).abs() < 1e-9);
        }
    }

    /// Arrival processes are sorted and within-horizon for all shapes.
    #[test]
    fn arrivals_sorted(seed in 0u64..500, n in 0usize..50, horizon in 1u64..200) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        for process in [
            ArrivalProcess::AllAtOnce,
            ArrivalProcess::UniformOver { horizon },
            ArrivalProcess::Poisson { rate: 0.7, horizon },
        ] {
            let slots = process.generate(&mut rng, n);
            prop_assert_eq!(slots.len(), n);
            prop_assert!(slots.windows(2).all(|w| w[0] <= w[1]));
            prop_assert!(slots.iter().all(|&s| s < horizon.max(1)));
        }
    }
}
