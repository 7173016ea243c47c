//! Pins the learner probe's arm-lifecycle stream for each of the five
//! policies: a seeded reward sequence whose arm means sit far enough apart
//! that successive elimination drops several arms, a probe attached after
//! some updates, periodic drains, and one detach/reattach. Every event
//! field's bits fold into an FNV-1a digest alongside the event and drop
//! counts, so any change to what the probe emits, or when, moves a pin.

use mec_bandit::{
    ArmEventKind, ArmLifecycleEvent, ArmProbe, BanditPolicy, ConfidenceSchedule, DiscountedUcb,
    EpsilonGreedy, SuccessiveElimination, ThompsonBeta, Ucb1,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

const MEANS: [f64; 5] = [0.1, 0.3, 0.85, 0.5, 0.2];
const STEPS: u64 = 1_500;
const ATTACH_AT: u64 = 100;
const DETACH_AT: u64 = 700;
const REATTACH_AT: u64 = 900;
const DRAIN_EVERY: u64 = 64;

/// FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
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

    fn opt(&mut self, v: Option<f64>) {
        match v {
            None => self.mix(0),
            Some(x) => {
                self.mix(1);
                self.mix(x.to_bits());
            }
        }
    }
}

/// What a probed run emitted.
#[derive(Debug, PartialEq)]
struct Stream {
    digest: u64,
    events: u64,
    eliminations: u64,
    dropped: u64,
}

/// Drives one policy and folds everything its probe emits.
struct Harness<P> {
    policy: P,
    probe: ArmProbe,
    rewards: ChaCha8Rng,
    hash: Fnv,
    events: u64,
    eliminations: u64,
    dropped: u64,
}

impl<P: BanditPolicy> Harness<P> {
    fn new(policy: P) -> Self {
        Self {
            policy,
            probe: ArmProbe::default(),
            rewards: ChaCha8Rng::seed_from_u64(17),
            hash: Fnv::new(),
            events: 0,
            eliminations: 0,
            dropped: 0,
        }
    }

    fn attach(&mut self) {
        self.probe.attach(&self.policy);
    }

    fn detach(&mut self) {
        self.probe.detach();
    }

    /// One select/update round with a noisy reward around the arm's mean.
    fn step(&mut self) {
        let arm = self.policy.select();
        let noise: f64 = self.rewards.gen_range(-0.1..0.1);
        let reward = (MEANS[arm.index()] + noise).clamp(0.0, 1.0);
        self.policy.update(arm, reward);
        self.probe.after_update(&self.policy, arm, reward);
    }

    fn drain(&mut self) {
        let (events, dropped) = self.probe.drain();
        self.dropped += dropped;
        for e in events {
            self.fold(&e);
        }
    }

    fn fold(&mut self, e: &ArmLifecycleEvent) {
        let h = &mut self.hash;
        h.mix(e.step);
        h.mix(e.arm.index() as u64);
        h.bytes(e.kind.as_str().as_bytes());
        h.mix(e.pulls);
        h.mix(e.mean.to_bits());
        h.mix(e.radius.to_bits());
        h.opt(e.reward);
        h.opt(e.oracle);
        self.events += 1;
        self.eliminations += u64::from(e.kind == ArmEventKind::Eliminate);
    }

    fn finish(mut self) -> Stream {
        self.drain();
        Stream {
            digest: self.hash.0,
            events: self.events,
            eliminations: self.eliminations,
            dropped: self.dropped,
        }
    }
}

/// The pinned scenario: attach after [`ATTACH_AT`] updates, drain every
/// [`DRAIN_EVERY`], detach over `DETACH_AT..REATTACH_AT`.
fn scenario<P: BanditPolicy>(policy: P) -> Stream {
    let mut h = Harness::new(policy);
    for t in 0..STEPS {
        match t {
            ATTACH_AT | REATTACH_AT => h.attach(),
            DETACH_AT => h.detach(),
            _ => {}
        }
        h.step();
        if t % DRAIN_EVERY == 0 {
            h.drain();
        }
    }
    h.finish()
}

fn se() -> SuccessiveElimination {
    SuccessiveElimination::new(MEANS.len(), ConfidenceSchedule::Horizon(STEPS))
}

#[test]
fn successive_elimination_stream_is_pinned() {
    assert_eq!(
        scenario(se()),
        Stream {
            digest: 0x2afd_2423_9bfc_3f95,
            events: 2410,
            eliminations: 3,
            dropped: 0,
        }
    );
}

#[test]
fn ucb1_stream_is_pinned() {
    assert_eq!(
        scenario(Ucb1::new(MEANS.len())),
        Stream {
            digest: 0x4c76_050f_1eeb_f9fc,
            events: 2410,
            eliminations: 0,
            dropped: 0,
        }
    );
}

#[test]
fn epsilon_greedy_stream_is_pinned() {
    assert_eq!(
        scenario(EpsilonGreedy::new(MEANS.len(), 0.1, 0xE9)),
        Stream {
            digest: 0xe03d_b413_4a4f_db3c,
            events: 2410,
            eliminations: 0,
            dropped: 0,
        }
    );
}

#[test]
fn thompson_stream_is_pinned() {
    assert_eq!(
        scenario(ThompsonBeta::new(MEANS.len(), 0x7B)),
        Stream {
            digest: 0xff74_2868_d957_8227,
            events: 2410,
            eliminations: 0,
            dropped: 0,
        }
    );
}

#[test]
fn discounted_ucb_stream_is_pinned() {
    assert_eq!(
        scenario(DiscountedUcb::new(MEANS.len(), 0.99)),
        Stream {
            digest: 0xcb3b_868d_8094_2461,
            events: 2410,
            eliminations: 0,
            dropped: 0,
        }
    );
}

/// Past the 4096-event buffer with nothing drained: every further event
/// is counted as dropped, and a drain frees the buffer again.
#[test]
fn overflow_drop_count_is_pinned() {
    let mut h = Harness::new(se());
    h.attach();
    for _ in 0..2_500 {
        h.step();
    }
    h.drain();
    for _ in 0..20 {
        h.step();
    }
    assert_eq!(
        h.finish(),
        Stream {
            digest: 0x3217_1dcd_4d95_8c0b,
            events: 4136,
            eliminations: 4,
            dropped: 913,
        }
    );
}
