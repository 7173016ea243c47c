//! Problem instances: topology + workload + paper parameters, with the
//! derived quantities every algorithm needs.

use mec_topology::slots::SlotLayout;
use mec_topology::station::StationId;
use mec_topology::units::{Compute, DataRate, Latency};
use mec_topology::{PathTable, Topology};
use mec_workload::demand::DemandOutcome;
use mec_workload::request::Request;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// The paper's global parameters (§VI-A defaults).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InstanceParams {
    /// Compute per unit data rate `C_unit` (20 MHz per MB/s).
    pub c_unit: Compute,
    /// Resource-slot size `C_l` (1000 MHz).
    pub slot_capacity: Compute,
    /// Time-slot length in ms (50 ms).
    pub slot_ms: f64,
}

impl Default for InstanceParams {
    fn default() -> Self {
        Self {
            c_unit: Compute::mhz(20.0),
            slot_capacity: Compute::mhz(1000.0),
            slot_ms: 50.0,
        }
    }
}

/// The network a request is served in: the topology, its shortest paths
/// and the paper's parameters. A request's Eq. 2 feasibility, slot layout
/// and Eq. 8 `ER_{jil}` are defined here once, for the offline
/// [`Instance`] and an online slot's requests alike.
#[derive(Debug, Clone, Copy)]
pub struct Network<'a> {
    /// The stations and their backhaul.
    pub topo: &'a Topology,
    /// All-pairs shortest paths over `topo`.
    pub paths: &'a PathTable,
    /// `C_unit`, `C_l` and the slot length.
    pub params: InstanceParams,
}

impl Network<'_> {
    /// The resource-slot layout of one station (`L = ⌊C/C_l⌋`).
    pub fn slot_layout(&self, station: StationId) -> SlotLayout {
        SlotLayout::partition(
            self.topo.station(station).capacity(),
            self.params.slot_capacity,
        )
    }

    /// Whether serving `request` at `station` with zero waiting meets
    /// `D̂_j` (Eq. 2 with `b_j = a_j`).
    pub fn feasible(&self, request: &Request, station: StationId) -> bool {
        request.meets_deadline_at(self.topo, self.paths, station, 0, self.params.slot_ms)
    }

    /// `ER_{jil}` (Eq. 8): the expected reward of starting `request` at
    /// slot `l` of `station` — only outcomes whose demand fits in the
    /// capacity remaining *after* the first `l` slots pay out.
    ///
    /// This reads Eq. 8's residual capacity as `C − l·C_l` for the 1-based
    /// slot `l`, so `ER_{jil}` never increases with `l`. Under the default
    /// parameters it makes every `l = L` option reward-free: a station of
    /// 3 000–3 600 MHz keeps less than 600 MHz after its three 1 000 MHz
    /// slots, below the smallest demand outcome. Whether the paper means
    /// `C − (l−1)·C_l` is an open fidelity question; changing the reading
    /// moves every figure.
    pub fn expected_reward_at(&self, request: &Request, station: StationId, l: usize) -> f64 {
        let cap = self.topo.station(station).capacity();
        let used = self.params.slot_capacity * l as f64;
        let available = (cap - used).clamp_non_negative();
        let max_rate = available.sustainable_rate(self.params.c_unit);
        request.demand().expected_reward_within(max_rate)
    }
}

/// An offline problem instance: the MEC network, the request set, and the
/// parameters, with shortest paths precomputed.
#[derive(Debug, Clone)]
pub struct Instance {
    topo: Topology,
    paths: PathTable,
    requests: Vec<Request>,
    params: InstanceParams,
}

impl Instance {
    /// Bundles a topology and workload.
    ///
    /// # Panics
    ///
    /// Panics if request ids are not dense `0..n`.
    pub fn new(topo: Topology, requests: Vec<Request>, params: InstanceParams) -> Self {
        for (i, r) in requests.iter().enumerate() {
            assert_eq!(r.id().index(), i, "request ids must be dense");
        }
        let paths = topo.shortest_paths();
        Self {
            topo,
            paths,
            requests,
            params,
        }
    }

    /// The network.
    pub fn topo(&self) -> &Topology {
        &self.topo
    }

    /// Precomputed all-pairs shortest paths.
    pub fn paths(&self) -> &PathTable {
        &self.paths
    }

    /// The request set `R`.
    pub fn requests(&self) -> &[Request] {
        &self.requests
    }

    /// Number of requests `|R|`.
    pub fn request_count(&self) -> usize {
        self.requests.len()
    }

    /// The global parameters.
    pub const fn params(&self) -> &InstanceParams {
        &self.params
    }

    /// The network the requests are served in.
    pub fn network(&self) -> Network<'_> {
        Network {
            topo: &self.topo,
            paths: &self.paths,
            params: self.params,
        }
    }

    /// The resource-slot layout of one station (`L = ⌊C/C_l⌋`).
    pub fn slot_layout(&self, station: StationId) -> SlotLayout {
        self.network().slot_layout(station)
    }

    /// Offline latency of serving request `j` at `station` with zero
    /// waiting (Eq. 2 with `b_j = a_j`), or `None` if unreachable.
    pub fn offline_latency(&self, j: usize, station: StationId) -> Option<Latency> {
        self.requests[j].experienced_latency(
            &self.topo,
            &self.paths,
            station,
            0,
            self.params.slot_ms,
        )
    }

    /// Whether serving `j` at `station` with zero waiting meets `D̂_j`.
    pub fn offline_feasible(&self, j: usize, station: StationId) -> bool {
        self.network().feasible(&self.requests[j], station)
    }

    /// The deadline-feasible stations for request `j` (offline setting).
    pub fn feasible_stations(&self, j: usize) -> Vec<StationId> {
        self.topo
            .station_ids()
            .filter(|&s| self.offline_feasible(j, s))
            .collect()
    }

    /// `ER_{jil}` (Eq. 8) of request `j` ([`Network::expected_reward_at`]).
    pub fn expected_reward_at(&self, j: usize, station: StationId, l: usize) -> f64 {
        self.network()
            .expected_reward_at(&self.requests[j], station, l)
    }

    /// The compute demand of a realized rate: `ρ · C_unit`.
    pub fn demand_of(&self, rate: DataRate) -> Compute {
        rate.demand(self.params.c_unit)
    }
}

/// One realized `(rate, reward)` outcome per request, drawn up-front so
/// every algorithm faces the same world. Algorithms must only read
/// `realized[j]` after deciding to schedule `r_j` (the paper's
/// reveal-on-schedule model).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Realizations {
    outcomes: Vec<DemandOutcome>,
}

impl Realizations {
    /// Draws one outcome per request with a seeded PRNG.
    pub fn draw(instance: &Instance, seed: u64) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x1234_5678_9abc_def0);
        let outcomes = instance
            .requests()
            .iter()
            .map(|r| r.demand().sample(&mut rng))
            .collect();
        Self { outcomes }
    }

    /// Wraps explicit outcomes (tests).
    ///
    /// # Panics
    ///
    /// Panics if the length differs from the instance it will be used with
    /// — enforced at use sites via `outcome(j)` indexing.
    pub fn from_outcomes(outcomes: Vec<DemandOutcome>) -> Self {
        Self { outcomes }
    }

    /// The realized outcome of request `j`.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    pub fn outcome(&self, j: usize) -> DemandOutcome {
        self.outcomes[j]
    }

    /// Number of realizations.
    pub fn len(&self) -> usize {
        self.outcomes.len()
    }

    /// Whether there are no realizations.
    pub fn is_empty(&self) -> bool {
        self.outcomes.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mec_topology::generator::{Shape, TopologyBuilder};
    use mec_workload::WorkloadBuilder;

    fn instance(n_requests: usize) -> Instance {
        let topo = TopologyBuilder::new(5).seed(2).build();
        let requests = WorkloadBuilder::new(&topo)
            .seed(2)
            .count(n_requests)
            .build();
        Instance::new(topo, requests, InstanceParams::default())
    }

    #[test]
    fn slot_layouts_match_capacity() {
        let inst = instance(10);
        for s in inst.topo().station_ids() {
            let layout = inst.slot_layout(s);
            assert_eq!(layout.count(), 3, "3000-3600 MHz at C_l = 1000 gives L = 3");
        }
    }

    #[test]
    fn feasible_stations_nonempty_with_default_deadline() {
        // 200 ms deadline is generous for a small Waxman graph.
        let inst = instance(20);
        for j in 0..inst.request_count() {
            assert!(
                !inst.feasible_stations(j).is_empty(),
                "request {j} has no feasible station"
            );
        }
    }

    #[test]
    fn expected_reward_decreases_in_l() {
        let inst = instance(10);
        let s = StationId(0);
        for j in 0..inst.request_count() {
            let l_vals: Vec<f64> = (0..=3).map(|l| inst.expected_reward_at(j, s, l)).collect();
            assert!(
                l_vals.windows(2).all(|w| w[0] >= w[1] - 1e-12),
                "ER must be non-increasing in l: {l_vals:?}"
            );
        }
    }

    #[test]
    fn er_zero_when_no_room() {
        let inst = instance(5);
        let s = StationId(0);
        // Starting at l = L leaves (C - L·C_l) < 1000 MHz; rates of
        // 30+ MB/s need >= 600 MHz, so some outcomes may fit — but at l
        // well past L nothing fits.
        assert_eq!(inst.expected_reward_at(0, s, 10), 0.0);
    }

    #[test]
    fn realizations_deterministic_and_within_support() {
        let inst = instance(50);
        let a = Realizations::draw(&inst, 9);
        let b = Realizations::draw(&inst, 9);
        assert_eq!(a, b);
        for j in 0..inst.request_count() {
            let o = a.outcome(j);
            assert!(inst.requests()[j]
                .demand()
                .outcomes()
                .iter()
                .any(|cand| (cand.rate.as_mbps() - o.rate.as_mbps()).abs() < 1e-12));
        }
        assert_eq!(a.len(), 50);
        assert!(!a.is_empty());
    }

    #[test]
    fn offline_latency_reachable_everywhere_in_connected_graph() {
        let inst = instance(5);
        for j in 0..5 {
            for s in inst.topo().station_ids() {
                assert!(inst.offline_latency(j, s).is_some());
            }
        }
    }

    #[test]
    fn line_topology_far_station_infeasible_with_tight_deadline() {
        use mec_topology::units::Latency;
        use mec_workload::demand::DemandDistribution;
        use mec_workload::request::{Request, RequestId};
        use mec_workload::task::Task;

        let topo = TopologyBuilder::new(10)
            .shape(Shape::Line)
            .proc_delay_range(1.0, 1.0)
            .trans_delay_range(5.0, 5.0)
            .build();
        // Deadline 20 ms: home (5.5 ms) feasible; 9 hops away (90 ms one
        // way) not.
        let req = Request::new(
            RequestId(0),
            0.into(),
            0,
            10,
            Task::reference_pipeline(),
            DemandDistribution::deterministic(DataRate::mbps(40.0), 1.0),
            Latency::ms(20.0),
        );
        let inst = Instance::new(topo, vec![req], InstanceParams::default());
        let feas = inst.feasible_stations(0);
        assert!(feas.contains(&StationId(0)));
        assert!(!feas.contains(&StationId(9)));
    }
}
