//! Pins one saturated 40-station episode of each water-filling online
//! policy — `DynamicRR`, and the online Greedy, OCORP and HeuKKT
//! baselines — to figures recorded before the slot decision's fast path
//! was reworked, so a change to the shared capacity tracker or to
//! water-filling cannot move a decision silently. Each episode checks the
//! metrics, a digest of the latency samples and a digest of every slot's
//! allocations (plus `DynamicRR`'s own per-slot decision digest). The
//! arm-lifecycle stream `DynamicRR`'s learner probe emits over the same
//! episode is pinned for every learner, and so is the final snapshot of
//! a `serve()` run at one and two shards, and every periodic snapshot of
//! a run at one and two shards and of one crash-and-recover run.
//!
//! The offline layer is pinned too: `Appro` and `Heu` at one rounding
//! round and at the default rounds, on the Fig. 3 point and on one small
//! instance, and `Exact`'s ILP and the hindsight bound on the small one;
//! rounding one shared relaxation must decide exactly as `solve` does.

use mec_core::appro::solve_relaxation;
use mec_core::{
    hindsight_bound, Appro, DynamicRr, DynamicRrConfig, Exact, Heu, Instance, InstanceParams,
    Learner, OfflineAlgorithm, OffloadOutcome, OnlineGreedy, OnlineHeuKkt, OnlineOcorp,
    Realizations,
};
use mec_serve::{serve, ChaosSpec, FaultConfig, LoadGen, ServeConfig};
use mec_sim::{Allocation, Engine, Metrics, SlotConfig, SlotContext, SlotPolicy};
use mec_topology::station::StationId;
use mec_topology::{Latency, Topology, TopologyBuilder};
use mec_workload::{ArrivalProcess, Request, WorkloadBuilder};

const STATIONS: usize = 40;
const REQUESTS: usize = 2_000;
const HORIZON: u64 = 160;
const SEED: u64 = 11;

/// FNV-1a.
#[derive(Debug, Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

    fn new() -> Self {
        Self(Self::OFFSET)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    fn mix(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// Wraps a policy and folds every slot's allocations, and the policy's
/// decision digest when it records one, into a running FNV.
struct Recorder<P> {
    inner: P,
    allocations: Fnv,
    decisions: Fnv,
    decided_slots: u64,
}

impl<P: SlotPolicy> SlotPolicy for Recorder<P> {
    fn schedule(&mut self, ctx: &SlotContext<'_>) -> Vec<Allocation> {
        let out = self.inner.schedule(ctx);
        self.allocations.mix(ctx.slot);
        for a in &out {
            self.allocations.mix(a.request.index() as u64);
            self.allocations.mix(a.station.index() as u64);
            self.allocations.mix(a.compute.as_mhz().to_bits());
        }
        if let Some(d) = self.inner.last_decision().filter(|d| d.slot == ctx.slot) {
            self.decisions.mix(d.slot);
            self.decisions.mix(d.assign_digest);
            self.decided_slots += 1;
        }
        out
    }

    fn observe(&mut self, slot: u64, completed_reward: f64) {
        self.inner.observe(slot, completed_reward);
    }
}

/// What one pinned episode produced.
#[derive(Debug, PartialEq)]
struct Pin {
    completed: usize,
    expired: usize,
    unserved: usize,
    aborted: usize,
    reward_bits: u64,
    latencies: usize,
    latency_digest: u64,
    allocation_digest: u64,
    decision_digest: u64,
    decided_slots: u64,
}

/// The saturated 40-station world every pinned episode runs in.
fn world() -> (Topology, Vec<Request>, SlotConfig) {
    let topo = TopologyBuilder::new(STATIONS).seed(SEED).build();
    let requests = WorkloadBuilder::new(&topo)
        .seed(SEED)
        .count(REQUESTS)
        .arrivals(ArrivalProcess::UniformOver {
            horizon: HORIZON / 2,
        })
        .build();
    let cfg = SlotConfig {
        horizon: HORIZON,
        seed: SEED,
        ..Default::default()
    };
    (topo, requests, cfg)
}

fn episode<P: SlotPolicy>(mut policy: P) -> Pin {
    let (topo, requests, cfg) = world();
    let paths = topo.shortest_paths();
    policy.set_probe(true);
    let mut recorder = Recorder {
        inner: policy,
        allocations: Fnv::new(),
        decisions: Fnv::new(),
        decided_slots: 0,
    };
    let mut engine = Engine::new(&topo, &paths, requests, cfg);
    for _ in 0..HORIZON {
        engine.step(&mut recorder).expect("slot steps");
    }
    let metrics = engine.finish();
    pin(&metrics, &recorder)
}

fn pin<P>(metrics: &Metrics, recorder: &Recorder<P>) -> Pin {
    let mut latency = Fnv::new();
    for x in metrics.latencies_ms() {
        latency.mix(x.to_bits());
    }
    Pin {
        completed: metrics.completed(),
        expired: metrics.expired(),
        unserved: metrics.unserved(),
        aborted: metrics.aborted(),
        reward_bits: metrics.total_reward().to_bits(),
        latencies: metrics.latencies_ms().len(),
        latency_digest: latency.0,
        allocation_digest: recorder.allocations.0,
        decision_digest: recorder.decisions.0,
        decided_slots: recorder.decided_slots,
    }
}

fn dynamic_rr() -> DynamicRr {
    DynamicRr::new(DynamicRrConfig {
        horizon_hint: HORIZON,
        ..Default::default()
    })
}

/// What `DynamicRR`'s learner probe emitted over one episode.
#[derive(Debug, PartialEq)]
struct LearnerStream {
    digest: u64,
    events: u64,
    dropped: u64,
}

/// Runs the pinned episode under `learner` with the probe attached,
/// draining the arm-lifecycle events after every slot and folding every
/// field of each into an FNV.
fn learner_stream(learner: Learner) -> LearnerStream {
    let (topo, requests, cfg) = world();
    let paths = topo.shortest_paths();
    let mut policy = DynamicRr::new(DynamicRrConfig {
        horizon_hint: HORIZON,
        learner,
        ..Default::default()
    });
    policy.set_probe(true);
    let mut engine = Engine::new(&topo, &paths, requests, cfg);
    let mut h = Fnv::new();
    let mut events = 0;
    let mut dropped = 0;
    let opt = |h: &mut Fnv, v: Option<f64>| match v {
        None => h.mix(0),
        Some(x) => {
            h.mix(1);
            h.mix(x.to_bits());
        }
    };
    for _ in 0..HORIZON {
        engine.step(&mut policy).expect("slot steps");
        let (drained, lost) = policy.drain_learner_events();
        dropped += lost;
        for e in drained {
            h.mix(e.step);
            h.mix(e.arm as u64);
            h.mix(e.value.to_bits());
            h.bytes(e.kind.as_bytes());
            h.mix(e.pulls);
            h.mix(e.mean.to_bits());
            h.mix(e.radius.to_bits());
            opt(&mut h, e.reward);
            opt(&mut h, e.oracle);
            events += 1;
        }
    }
    LearnerStream {
        digest: h.0,
        events,
        dropped,
    }
}

#[test]
fn dynamic_rr_learner_streams_match_recorded_digests() {
    let pins = [
        (Learner::SuccessiveElimination, 0xe59f_0d69_feec_f0f0),
        (Learner::Ucb1, 0xbebd_7bfa_57e7_61f2),
        (
            Learner::EpsilonGreedy { epsilon: 0.1 },
            0x93ad_67bc_cbce_0c53,
        ),
        (Learner::Thompson, 0x05b2_198d_ff11_bc2b),
        (
            Learner::DiscountedUcb { gamma: 0.99 },
            0xde3b_18ce_8665_b8c1,
        ),
    ];
    for (learner, digest) in pins {
        assert_eq!(
            learner_stream(learner),
            LearnerStream {
                digest,
                // Nine activates at attach, then a sample and a bound
                // update for each of the 160 slots' learner updates.
                events: 329,
                dropped: 0,
            },
            "{learner:?}"
        );
    }
}

#[test]
fn dynamic_rr_episode_matches_recorded_figures() {
    assert_eq!(
        episode(dynamic_rr()),
        Pin {
            completed: 675,
            expired: 522,
            unserved: 803,
            aborted: 0,
            reward_bits: 0x4111_a2cb_9304_34af,
            latencies: 1478,
            latency_digest: 0x9e24_685f_1dde_0792,
            allocation_digest: 0x7a76_4ede_af38_37ec,
            decision_digest: 0x6b35_a50a_8fb4_04a9,
            decided_slots: HORIZON,
        }
    );
}

#[test]
fn greedy_episode_matches_recorded_figures() {
    assert_eq!(
        episode(OnlineGreedy::new()),
        Pin {
            completed: 594,
            expired: 1234,
            unserved: 172,
            aborted: 0,
            reward_bits: 0x4112_fe5c_64aa_127d,
            latencies: 766,
            latency_digest: 0xaccb_a7d2_5dd4_d0c4,
            allocation_digest: 0xafea_09ed_9697_b6de,
            decision_digest: Fnv::OFFSET,
            decided_slots: 0,
        }
    );
}

#[test]
fn ocorp_episode_matches_recorded_figures() {
    assert_eq!(
        episode(OnlineOcorp::new()),
        Pin {
            completed: 551,
            expired: 1449,
            unserved: 0,
            aborted: 0,
            reward_bits: 0x4110_d239_5ee1_c900,
            latencies: 551,
            latency_digest: 0xdf23_c523_6942_0442,
            allocation_digest: 0xef5a_34f7_6459_71df,
            decision_digest: Fnv::OFFSET,
            decided_slots: 0,
        }
    );
}

#[test]
fn heukkt_episode_matches_recorded_figures() {
    assert_eq!(
        episode(OnlineHeuKkt::new()),
        Pin {
            completed: 618,
            expired: 948,
            unserved: 434,
            aborted: 0,
            reward_bits: 0x4111_5e83_1b1c_6a63,
            latencies: 1052,
            latency_digest: 0xb2b7_8280_1677_68cd,
            allocation_digest: 0x04c1_f19c_4fa9_0b48,
            decision_digest: Fnv::OFFSET,
            decided_slots: 0,
        }
    );
}

/// FNV-1a over the bytes of `serve()`'s final snapshot for a saturated
/// `DynamicRR` run at `shards` shards.
fn serve_digest(shards: usize) -> u64 {
    let topo = TopologyBuilder::new(STATIONS).seed(SEED).build();
    let population = WorkloadBuilder::new(&topo)
        .seed(SEED)
        .count(REQUESTS)
        .build();
    let load = LoadGen::poisson(population, 1_000.0, 50.0, SEED);
    let cfg = ServeConfig {
        shards,
        queue_capacity: 256,
        policy: "DynamicRR".to_string(),
        sim: SlotConfig {
            seed: SEED,
            ..SlotConfig::default()
        },
        ..ServeConfig::default()
    };
    let out = serve(&topo, load, &cfg, |_| {}).expect("serve runs");
    let mut h = Fnv::new();
    h.bytes(out.final_snapshot.to_json().as_bytes());
    h.0
}

#[test]
fn serve_final_snapshots_match_recorded_digests() {
    assert_eq!(serve_digest(1), 0x4f6f_7927_7fb6_4ca3);
    assert_eq!(serve_digest(2), 0xadf0_0a20_03c9_5679);
}

/// FNV-1a over the bytes of every periodic snapshot (`slots_per_sec`
/// cleared, the one wall-clock field) of a saturated `DynamicRR` run at
/// `shards` shards under `chaos`, checkpointing every `checkpoint_every`
/// slots (0: genesis replay), and the number of snapshots.
fn periodic_digest(shards: usize, chaos: &str, checkpoint_every: u64) -> (u64, usize) {
    let topo = TopologyBuilder::new(STATIONS).seed(SEED).build();
    let population = WorkloadBuilder::new(&topo)
        .seed(SEED)
        .count(REQUESTS)
        .build();
    let load = LoadGen::poisson(population, 1_000.0, 50.0, SEED);
    let cfg = ServeConfig {
        shards,
        queue_capacity: 256,
        snapshot_every: 3,
        policy: "DynamicRR".to_string(),
        sim: SlotConfig {
            seed: SEED,
            ..SlotConfig::default()
        },
        chaos: ChaosSpec::parse(chaos).expect("chaos spec parses"),
        faults: FaultConfig {
            checkpoint_every,
            ..FaultConfig::default()
        },
        ..ServeConfig::default()
    };
    let mut h = Fnv::new();
    let mut count = 0;
    serve(&topo, load, &cfg, |snap| {
        let mut snap = snap.clone();
        snap.slots_per_sec = None;
        h.bytes(snap.to_json().as_bytes());
        count += 1;
    })
    .expect("serve runs");
    (h.0, count)
}

#[test]
fn serve_periodic_snapshots_match_recorded_digests() {
    assert_eq!(periodic_digest(1, "", 0), (0xa9c2_daba_ef85_1f07, 36));
    assert_eq!(periodic_digest(2, "", 0), (0xf642_f742_9721_5fc1, 53));
    // Recovery replaces the shard's latency samples wholesale. From a
    // checkpoint the learner restarts fresh, so the samples replayed
    // after that checkpoint differ from those the crashed worker had
    // reported: the snapshot's sorted history must be rebuilt.
    assert_eq!(
        periodic_digest(2, "crash:shard=1@slot=30,recover@slot=40", 8),
        (0x5ef9_3321_c4a2_dabe, 53)
    );
}

/// An offline world drawn the way the figure drivers draw one: `stations`
/// stations, `requests` requests, topology, workload and realizations all
/// from `seed`.
fn offline_world(stations: usize, requests: usize, seed: u64) -> (Instance, Realizations) {
    let topo = TopologyBuilder::new(stations).seed(seed).build();
    let requests = WorkloadBuilder::new(&topo)
        .seed(seed)
        .count(requests)
        .rate_range(30.0, 50.0)
        .levels(5)
        .decay(0.75)
        .deadline(Latency::ms(200.0))
        .build();
    let instance = Instance::new(topo, requests, InstanceParams::default());
    let realized = Realizations::draw(&instance, seed);
    (instance, realized)
}

/// The Fig. 3 point: |R| = 300, 20 stations, seed 1.
fn fig3_world() -> (Instance, Realizations) {
    offline_world(20, 300, 1)
}

/// A small instance, small enough for `Exact`'s branch-and-bound.
fn small_world() -> (Instance, Realizations) {
    offline_world(3, 10, 4)
}

fn mix_assignment(h: &mut Fnv, assignment: &[Option<StationId>]) {
    for a in assignment {
        h.mix(a.map_or(u64::MAX, |s| s.index() as u64));
    }
}

/// FNV of an offline outcome's decisions: the assignment, the metrics'
/// counts, the total reward's bits (summed in request order) and every
/// latency sample's bits. The runtime is left out.
fn outcome_digest(out: &OffloadOutcome) -> u64 {
    let mut h = Fnv::new();
    mix_assignment(&mut h, out.assignment());
    let m = out.metrics();
    h.mix(m.completed() as u64);
    h.mix(m.expired() as u64);
    h.mix(m.total_reward().to_bits());
    for x in m.latencies_ms() {
        h.mix(x.to_bits());
    }
    h.0
}

/// Digests of `Appro` and `Heu` (seed `seed`) at one round and at the
/// default rounds, in that order.
fn rounding_digests(instance: &Instance, realized: &Realizations, seed: u64) -> [u64; 4] {
    let run = |algo: &dyn OfflineAlgorithm| {
        outcome_digest(&algo.solve(instance, realized).expect("offline solve"))
    };
    [
        run(&Appro::new(seed).rounds(1)),
        run(&Appro::new(seed)),
        run(&Heu::new(seed).rounds(1)),
        run(&Heu::new(seed)),
    ]
}

#[test]
fn offline_rounding_matches_recorded_digests_at_fig3_point() {
    let (instance, realized) = fig3_world();
    assert_eq!(
        rounding_digests(&instance, &realized, 1),
        [
            0xc003_a719_2412_faf5,
            0x9c1a_9268_6957_a763,
            0x5347_b210_d780_9fa9,
            0x337b_0334_a3f5_9d5c,
        ]
    );
}

#[test]
fn offline_small_instance_matches_recorded_digests() {
    let (instance, realized) = small_world();
    assert_eq!(
        rounding_digests(&instance, &realized, 4),
        [
            0xf7cc_5143_8dbb_48df,
            0xc07c_c68d_53d5_3c2d,
            0x5005_daa2_cf8a_0bcc,
            0x4f32_ef1d_d30d_3582,
        ]
    );
    let (objective, assignment) = Exact::new().solve_ilp(&instance).expect("small ILP solves");
    let mut h = Fnv::new();
    h.mix(objective.to_bits());
    mix_assignment(&mut h, &assignment);
    assert_eq!(h.0, 0xb77c_90db_897d_8a3c);
    let bound = hindsight_bound(&instance, &realized).expect("bound LP solves");
    assert_eq!(bound.to_bits(), 0x40b2_b023_29b5_c497);
}

#[test]
fn rounding_a_shared_relaxation_decides_as_solve_does() {
    for seed in 0..4 {
        let (instance, realized) = offline_world(5, 40, seed);
        let frac = solve_relaxation(&instance).expect("relaxation solves");
        for rounds in [1, 2, 32] {
            let appro = Appro::new(seed).rounds(rounds);
            assert_eq!(
                outcome_digest(&appro.round(&instance, &realized, &frac).unwrap()),
                outcome_digest(&appro.solve(&instance, &realized).unwrap()),
                "Appro, seed {seed}, {rounds} rounds"
            );
            let heu = Heu::new(seed).rounds(rounds);
            assert_eq!(
                outcome_digest(&heu.round(&instance, &realized, &frac).unwrap()),
                outcome_digest(&heu.solve(&instance, &realized).unwrap()),
                "Heu, seed {seed}, {rounds} rounds"
            );
        }
    }
}

#[test]
fn rounding_a_relaxation_of_another_instance_size_fails() {
    let (other, _) = offline_world(3, 9, 4);
    let frac = solve_relaxation(&other).expect("relaxation solves");
    let (instance, realized) = small_world();
    assert!(Appro::new(4).round(&instance, &realized, &frac).is_err());
    assert!(Heu::new(4).round(&instance, &realized, &frac).is_err());
}
