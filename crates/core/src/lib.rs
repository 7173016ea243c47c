//! # mec-core
//!
//! The ICDCS'21 paper's algorithms, built on the workspace substrates:
//!
//! | Paper artifact | Here |
//! |---|---|
//! | ILP-RM exact solution (§IV-A) | [`exact::Exact`] |
//! | Slot-indexed LP relaxation (**LP**, **LP-PT**) | [`slotlp`] |
//! | `Appro` 1/8-approximation (Alg. 1, Thm 1) | [`appro::Appro`] |
//! | `Heu` migration heuristic (Alg. 2, Thm 2) | [`heu::Heu`] |
//! | `DynamicRR` online learner (Alg. 3, Thm 3) | [`online::DynamicRr`] |
//! | OCORP / Greedy / HeuKKT baselines (§VI-A) | [`baselines`], [`online`] |
//!
//! Offline algorithms consume an [`model::Instance`] plus pre-drawn demand
//! [`model::Realizations`] (shared across algorithms for variance-free
//! comparisons — by convention an algorithm only reads `realized[j]` *after*
//! deciding to admit `r_j`, matching the paper's information model). Online
//! algorithms implement [`mec_sim::SlotPolicy`] and run under the
//! [`mec_sim::Engine`].
//!
//! ## Example
//!
//! ```
//! use mec_core::model::{Instance, InstanceParams, Realizations};
//! use mec_core::appro::Appro;
//! use mec_core::OfflineAlgorithm;
//! use mec_topology::TopologyBuilder;
//! use mec_workload::WorkloadBuilder;
//!
//! let topo = TopologyBuilder::new(8).seed(1).build();
//! let requests = WorkloadBuilder::new(&topo).seed(1).count(30).build();
//! let instance = Instance::new(topo, requests, InstanceParams::default());
//! let realized = Realizations::draw(&instance, 7);
//! let outcome = Appro::new(7).solve(&instance, &realized).unwrap();
//! assert!(outcome.metrics().total_reward() >= 0.0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod appro;
pub mod baselines;
pub mod exact;
pub mod heu;
pub mod hindsight;
pub mod model;
pub mod online;
pub mod outcome;
pub mod placement;
pub mod slotlp;

pub use appro::Appro;
pub use baselines::{Greedy, HeuKkt, Ocorp};
pub use exact::Exact;
pub use heu::Heu;
pub use hindsight::hindsight_bound;
pub use mec_bandit::RegretAccountant;
pub use mec_lp::SolverKind;
pub use model::{Instance, InstanceParams, Network, Realizations};
pub use online::{
    policy_from_name, DynamicRr, DynamicRrConfig, Learner, OnlineGreedy, OnlineHeuKkt, OnlineOcorp,
    UnknownPolicy, POLICY_NAMES,
};
pub use outcome::{OfflineAlgorithm, OffloadOutcome};
pub use placement::TaskPlacement;
pub use slotlp::{SlotLpSolver, SolverStats};
