//! The paper's slot-indexed LP relaxations: **LP** (§IV-A) and **LP-PT**
//! (§V-A).
//!
//! Variables `y_{jil}` say "request `j` starts at resource slot `l` of
//! station `i`". The objective maximizes `Σ y_{jil} · ER_{jil}` (Eq. 8);
//! Constraint (9) lets each request start at most once; Constraint (10)
//! bounds, for every slot prefix, the *truncated expected* demand packed
//! into it by `2 · l · C_l` — the factor 2 is what Lemma 1 needs to absorb
//! the one request that may straddle a prefix boundary. Deadline
//! constraint (11) is enforced structurally: infeasible `(j, i)` pairs get
//! no variable.
//!
//! A variable exists only where `ER_{jil} > 0`. `ER_{jil}` never increases
//! with `l` ([`Network::expected_reward_at`]), so each `(j, i)` pair's
//! variables are one run `l = 1..=len`, and prefix row `l` takes the first
//! `min(l, len)` of them. Dropping the reward-free columns leaves LPOpt
//! unchanged: every row is `≤` with a non-negative rhs and non-negative
//! coefficients, so setting a zero-objective column to 0 keeps any
//! feasible point feasible with the same objective. Under the defaults
//! every `l = L` column is reward-free, a third of the LP.
//!
//! LP-PT tightens the truncation with the per-request fair share
//! `C(bs_i)/|R_t|` (Constraint 23), which is how `DynamicRR` throttles
//! per-slot contention.
//!
//! The LP reads only the [`Network`] and the requests it routes, each
//! named by an identity the caller chooses: `Appro` and `Heu` pass instance
//! indices ([`SlotLp::build`]), `DynamicRr` its admitted jobs' ids.

use crate::model::{Instance, Network};
use mec_lp::revised;
use mec_lp::{
    BasisCol, BasisSnapshot, Cmp, LpError, Problem, RevisedConfig, Sense, Solution, SolverKind,
    WarmOutcome,
};
use mec_topology::station::StationId;
use mec_topology::units::DataRate;
use mec_workload::request::Request;
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// Which truncation Constraint (10)/(23) applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Truncation {
    /// The offline **LP**: truncate by the prefix rate `l·C_l / C_unit`.
    Standard,
    /// **LP-PT**: additionally truncate by the fair share
    /// `C(bs_i) / active` (Eq. 23), with `active = |R_t|`.
    PerRequestShare {
        /// Number of requests admitted to the current time slot `|R_t|`.
        active: usize,
    },
}

/// Identity of a `y_{jil}` variable that is stable **across slots**: it
/// names the request by the identity the subset gave it, not by its
/// position, so a basis learned on slot `t`'s subset can be re-aimed at
/// slot `t+1`'s.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct VarKey {
    /// The request's identity (an instance index, or an online job's id).
    pub request: usize,
    /// Station `i`.
    pub station: StationId,
    /// 1-based starting resource slot `l`.
    pub slot: usize,
}

/// Identity of an LP row that is stable across slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RowKey {
    /// Constraint (9) for a request, named by its identity.
    Start(usize),
    /// Constraint (10)/(23) for a station's slot prefix `l`.
    Prefix(StationId, usize),
}

/// A basis member remembered by stable identity rather than position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum KeyCol {
    Var(VarKey),
    Slack(RowKey),
}

/// A built slot-indexed LP, ready to solve.
#[derive(Debug, Clone)]
pub struct SlotLp {
    problem: Problem,
    /// The subset's identities, in subset order.
    subset: Vec<usize>,
    /// Variable `v`'s coordinates at `var_keys[v]`.
    var_keys: Vec<VarKey>,
    row_keys: Vec<RowKey>,
    /// Request identity → its variables and Constraint (9) row; `None` for
    /// requests outside the subset or without a feasible station.
    start_rows: Vec<Option<StartRow>>,
    /// `prefix_rows[i][l - 1]` is the Constraint (10)/(23) row of station
    /// `i`'s prefix `l`, if that row has any entry.
    prefix_rows: Vec<Vec<Option<usize>>>,
}

/// One request's contiguous variable range and its start-once row.
#[derive(Debug, Clone, PartialEq)]
struct StartRow {
    vars: Range<usize>,
    row: usize,
}

/// The fractional solution `y`, grouped per request.
#[derive(Debug, Clone, PartialEq)]
pub struct FractionalAssignment {
    /// Request `j`'s options with `y > 0`, `(station, slot l, y)`, are
    /// `options[start[j]..start[j + 1]]`.
    start: Vec<usize>,
    options: Vec<(StationId, usize, f64)>,
    objective: f64,
}

impl FractionalAssignment {
    /// The options (with positive mass) for one request.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    pub fn for_request(&self, j: usize) -> &[(StationId, usize, f64)] {
        &self.options[self.start[j]..self.start[j + 1]]
    }

    /// Number of requests covered.
    pub fn request_count(&self) -> usize {
        self.start.len() - 1
    }

    /// The LP optimum `LPOpt` — an upper bound on the integral optimum
    /// (Lemma 1).
    pub fn objective(&self) -> f64 {
        self.objective
    }

    /// Total fractional mass of one request (`Σ_il y_jil ≤ 1`).
    pub fn mass(&self, j: usize) -> f64 {
        self.for_request(j).iter().map(|&(_, _, y)| y).sum()
    }
}

/// One station's run of a request's variables: `y_{ji1} ..= y_{ji,len}`.
#[derive(Debug, Clone)]
struct Run {
    station: StationId,
    /// The run's `ER_{jil}`, `l = 1..=len`, in [`RequestRuns::ers`].
    ers: Range<usize>,
}

/// One evaluated request: its runs and its demand outcomes.
#[derive(Debug, Clone)]
struct Evaluated {
    /// In [`RequestRuns::runs`].
    runs: Range<usize>,
    /// In [`RequestRuns::demand`].
    demand: Range<usize>,
}

/// Each request's runs, evaluated the first time the request is asked for
/// and kept: feasibility, `ER_{jil}` and the demand distribution depend
/// only on the request and the network.
#[derive(Debug, Clone, Default)]
struct RequestRuns {
    /// Request identity → its runs and outcomes, once evaluated.
    of_request: Vec<Option<Evaluated>>,
    runs: Vec<Run>,
    ers: Vec<f64>,
    /// Each evaluated request's demand outcomes as `(probability, rate in
    /// MB/s)`, side by side for the truncated rates every build takes.
    demand: Vec<(f64, f64)>,
}

impl RequestRuns {
    /// The runs in `self.runs` of `request`, identified by `j`, evaluating
    /// them on first use: one run per deadline-feasible station with a
    /// positive `ER_{ji1}`, covering the slots whose `ER_{jil}` is positive.
    fn runs_of(&mut self, net: &Network<'_>, j: usize, request: &Request) -> Range<usize> {
        if j >= self.of_request.len() {
            self.of_request.resize(j + 1, None);
        }
        if let Some(evaluated) = &self.of_request[j] {
            return evaluated.runs.clone();
        }
        let start = self.runs.len();
        let outcomes = request.demand().outcomes();
        let demand = self.demand.len()..self.demand.len() + outcomes.len();
        self.demand
            .extend(outcomes.iter().map(|o| (o.prob, o.rate.as_mbps())));
        for station in net.topo.station_ids() {
            if !net.feasible(request, station) {
                continue;
            }
            let first = self.ers.len();
            for l in net.slot_layout(station).indices() {
                // `ER_{jil}` never increases with `l`: the first slot that
                // earns nothing ends the run.
                let er = net.expected_reward_at(request, station, l.get());
                if er <= 0.0 {
                    break;
                }
                self.ers.push(er);
            }
            if self.ers.len() > first {
                self.runs.push(Run {
                    station,
                    ers: first..self.ers.len(),
                });
            }
        }
        let runs = start..self.runs.len();
        self.of_request[j] = Some(Evaluated {
            runs: runs.clone(),
            demand,
        });
        runs
    }

    /// Request `j`'s evaluated entry.
    fn evaluated(&self, j: usize) -> &Evaluated {
        self.of_request[j].as_ref().expect("request evaluated")
    }

    /// Request `j`'s demand outcomes as `(probability, rate in MB/s)`.
    fn demand_of(&self, j: usize) -> &[(f64, f64)] {
        &self.demand[self.evaluated(j).demand.clone()]
    }
}

/// A request's run at the station hosting it, in one build.
#[derive(Debug, Clone, Copy)]
struct Hosted {
    /// The request's identity.
    request: usize,
    /// The run's first variable.
    first: usize,
    len: usize,
    /// The run's first cell in [`ColumnCache::cells`].
    cells: usize,
}

/// The parts of a slot LP that outlive one build: each request's runs,
/// which depend only on the request and the network, and the build's
/// scratch buffers.
///
/// [`SlotLp::build`] starts from an empty cache; `DynamicRr` keeps one
/// beside its LP for the whole episode, so a request's feasibility and
/// `ER_{jil}` are evaluated once, not once per slot. The runs sit in a
/// table indexed by identity, which must name one request for the
/// cache's life; nothing is evicted.
#[derive(Debug, Clone, Default)]
pub(crate) struct ColumnCache {
    index: RequestRuns,
    /// Per station, the runs it hosts in the current build.
    hosted: Vec<Vec<Hosted>>,
    /// Per run of the current build, in variable order, one cell per slot
    /// `l` of the most any station has: the run's coefficient in its
    /// station's prefix row `l`, its truncated rate, or 0 where the run
    /// stays out of that row.
    cells: Vec<f64>,
    /// Per hosted run of one station, its truncated expected rate.
    truncs: Vec<f64>,
}

impl SlotLp {
    /// Builds the LP over a subset of the instance's requests, each
    /// identified by its index.
    ///
    /// `subset` holds distinct request indices (use `0..n` for the full
    /// offline problem). The LP has one variable per deadline-feasible
    /// `(request, station, slot)` triple whose `ER_{jil}` is positive.
    pub fn build(instance: &Instance, subset: &[usize], truncation: Truncation) -> Self {
        let requests: Vec<(usize, &Request)> = subset
            .iter()
            .map(|&j| (j, &instance.requests()[j]))
            .collect();
        let mut lp = Self::empty();
        lp.rebuild(
            &instance.network(),
            &requests,
            truncation,
            &mut ColumnCache::default(),
        );
        lp
    }

    /// An LP with no variables or rows, for [`Self::rebuild`] to fill.
    pub(crate) fn empty() -> Self {
        Self {
            problem: Problem::new(Sense::Maximize),
            subset: Vec::new(),
            var_keys: Vec::new(),
            row_keys: Vec::new(),
            start_rows: Vec::new(),
            prefix_rows: Vec::new(),
        }
    }

    /// Fills this LP with the relaxation over `subset` in `net`, whatever it
    /// held before, keeping the capacity of its vectors: an LP rebuilt
    /// every slot reuses its variable tables and the problem's objective,
    /// rows and columns instead of freeing and reallocating them.
    /// `subset` pairs each request with a distinct identity, which names
    /// it in [`VarKey`] and [`RowKey`] and keys its runs in `columns`, so
    /// `columns` must only ever be used with this one `net` and one
    /// request per identity.
    ///
    /// The problem's matrix is written once in each orientation. The
    /// variables come first, then each prefix row's coefficients, the
    /// truncated rates, into the cells of the runs it takes, which fixes
    /// every row and its length. The rows then go straight into the
    /// problem's row arrays, sized once. Every column's entries are known
    /// too, rows ascending: its request's start row, then the prefix rows
    /// `l..` its run enters. The columns are written from the cells in one
    /// pass, and the solver transposes nothing.
    pub(crate) fn rebuild(
        &mut self,
        net: &Network<'_>,
        subset: &[(usize, &Request)],
        truncation: Truncation,
        columns: &mut ColumnCache,
    ) {
        let c_unit = net.params.c_unit;
        let slot_cap = net.params.slot_capacity;
        let topo = net.topo;
        let stations = topo.station_count();
        let (mut col_start, mut col_rows, mut col_vals) = self.problem.take_columns();
        self.problem.clear();
        self.subset.clear();
        self.subset.extend(subset.iter().map(|&(j, _)| j));
        self.var_keys.clear();
        self.row_keys.clear();
        // The lookup tables are refilled from scratch: an entry left over
        // from a larger subset or network would aim the warm basis at the
        // wrong row.
        self.start_rows.clear();
        self.start_rows
            .resize(subset.iter().map(|&(j, _)| j + 1).max().unwrap_or(0), None);
        self.prefix_rows.resize_with(stations, Vec::new);
        let hosted = &mut columns.hosted;
        hosted.resize_with(stations, Vec::new);
        hosted.iter_mut().for_each(Vec::clear);
        // Counted first, so every array that grows with the variables is
        // reserved once, at its final size.
        let n: usize = subset
            .iter()
            .map(|&(j, request)| {
                let runs = columns.index.runs_of(net, j, request);
                columns.index.runs[runs]
                    .iter()
                    .map(|r| r.ers.len())
                    .sum::<usize>()
            })
            .sum();
        self.problem.reserve(n, 0);
        self.var_keys.reserve_exact(n);

        // Each run gets `stride` cells, as many as the most slots any
        // station has.
        let stride = topo
            .station_ids()
            .map(|s| net.slot_layout(s).count())
            .max()
            .unwrap_or(0);
        let mut runs_seen = 0;
        // Variables + objective, bucketed as they are created: each
        // request's variables form one contiguous range, which is its
        // Constraint (9) row (each request starts at most once), and each
        // station lists the runs it hosts.
        for &(j, request) in subset {
            let first = self.var_keys.len();
            let start_row = self.row_keys.len();
            let runs = columns.index.runs_of(net, j, request);
            for run in &columns.index.runs[runs] {
                let station = run.station;
                let ers = &columns.index.ers[run.ers.clone()];
                hosted[station.index()].push(Hosted {
                    request: j,
                    first: self.problem.add_vars(ers).index(),
                    len: ers.len(),
                    cells: runs_seen * stride,
                });
                runs_seen += 1;
                self.var_keys.extend((1..=ers.len()).map(|slot| VarKey {
                    request: j,
                    station,
                    slot,
                }));
            }
            let span = first..self.var_keys.len();
            if !span.is_empty() {
                self.start_rows[j] = Some(StartRow {
                    vars: span,
                    row: start_row,
                });
                self.row_keys.push(RowKey::Start(j));
            }
        }

        // Constraint (10)/(23): truncated expected demand per slot prefix.
        let index = &columns.index;
        let (truncs, cells) = (&mut columns.truncs, &mut columns.cells);
        cells.clear();
        cells.resize(runs_seen * stride, 0.0);
        let mut entries = self.var_keys.len();
        for station in topo.station_ids() {
            let layout = net.slot_layout(station);
            let share_rate: Option<DataRate> = match truncation {
                Truncation::Standard => None,
                Truncation::PerRequestShare { active } => {
                    if active == 0 {
                        None
                    } else {
                        Some(
                            (topo.station(station).capacity() / active as f64)
                                .sustainable_rate(c_unit),
                        )
                    }
                }
            };
            let station_runs = &hosted[station.index()];
            let rows = &mut self.prefix_rows[station.index()];
            rows.clear();
            let mut truncated_at = None;
            for l in layout.indices() {
                let prefix_rate = l.prefix_capacity(slot_cap).sustainable_rate(c_unit);
                let cap_rate = match share_rate {
                    Some(s) => s.min(prefix_rate),
                    None => prefix_rate,
                };
                // `E[min(ρ_j, cap)]` is the same for every variable of a
                // run. The cap only grows with `l`, up to the share, so
                // each distinct cap is evaluated once per run.
                let cap = cap_rate.as_mbps();
                if truncated_at != Some(cap) {
                    truncated_at = Some(cap);
                    truncs.clear();
                    // `Demand::expected_truncated_rate`, term for term.
                    truncs.extend(station_runs.iter().map(|h| {
                        index
                            .demand_of(h.request)
                            .iter()
                            .map(|&(prob, rate)| prob * rate.min(cap))
                            .sum::<f64>()
                    }));
                }
                // A run's first `min(l, len)` variables start inside the
                // prefix; every run holds at least one, so the row is
                // empty only when no run's rate is positive.
                let mut len = 0;
                for (h, &t) in station_runs.iter().zip(truncs.iter()) {
                    if t > 0.0 {
                        cells[h.cells + l.get() - 1] = t;
                        len += h.len.min(l.get());
                    }
                }
                if len == 0 {
                    rows.push(None);
                    continue;
                }
                entries += len;
                rows.push(Some(self.row_keys.len()));
                self.row_keys.push(RowKey::Prefix(station, l.get()));
            }
        }

        // The rows, in row order: every start row, then every prefix row.
        self.problem.reserve(0, entries);
        for &(j, _) in subset {
            if let Some(start) = &self.start_rows[j] {
                self.problem
                    .add_row_with(Cmp::Le, 1.0, |w| w.push_span(start.vars.clone(), 1.0));
            }
        }
        for station in topo.station_ids() {
            let station_runs = &hosted[station.index()];
            let rows = &self.prefix_rows[station.index()];
            for (l, _) in net
                .slot_layout(station)
                .indices()
                .zip(rows)
                .filter(|(_, row)| row.is_some())
            {
                let prefix_rate = l.prefix_capacity(slot_cap).sustainable_rate(c_unit);
                self.problem
                    .add_row_with(Cmp::Le, 2.0 * prefix_rate.as_mbps(), |w| {
                        for h in station_runs {
                            let t = cells[h.cells + l.get() - 1];
                            if t > 0.0 {
                                w.push_span(h.first..h.first + h.len.min(l.get()), t);
                            }
                        }
                    });
            }
        }

        // The columns in variable order: slot `l` of a run takes its
        // request's start row, then the prefix rows its cells from `l` on
        // enter. They hold the rows' entries, so their arrays are sized
        // once and filled in place.
        col_start.resize(self.var_keys.len() + 1, 0);
        col_rows.resize(entries, 0);
        col_vals.resize(entries, 0.0);
        let (mut k, mut v) = (0, 0);
        let mut run_cells = cells.chunks_exact(stride.max(1));
        for &(j, _) in subset {
            let Some(start) = &self.start_rows[j] else {
                continue;
            };
            for run in &columns.index.runs[columns.index.evaluated(j).runs.clone()] {
                let cells = run_cells.next().expect("one stride of cells per run");
                let rows = &self.prefix_rows[run.station.index()];
                for l in 0..run.ers.len() {
                    col_rows[k] = start.row as u32;
                    col_vals[k] = 1.0;
                    k += 1;
                    for (&t, row) in cells[l..].iter().zip(&rows[l..]) {
                        if let (true, Some(row)) = (t > 0.0, *row) {
                            col_rows[k] = row as u32;
                            col_vals[k] = t;
                            k += 1;
                        }
                    }
                    v += 1;
                    col_start[v] = k;
                }
            }
        }
        debug_assert_eq!(
            (v, k),
            (self.var_keys.len(), entries),
            "every entry written once"
        );
        self.problem.set_columns(col_start, col_rows, col_vals);
    }

    /// The current row carrying `key`, if this LP has it.
    fn row_of(&self, key: RowKey) -> Option<usize> {
        match key {
            RowKey::Start(j) => self.start_rows.get(j)?.as_ref().map(|s| s.row),
            RowKey::Prefix(station, l) => *self
                .prefix_rows
                .get(station.index())?
                .get(l.checked_sub(1)?)?,
        }
    }

    /// The current variable carrying `key`, if this LP has it. A
    /// request's range is ordered by `(station, slot)`.
    fn var_of(&self, key: VarKey) -> Option<usize> {
        let span = self.start_rows.get(key.request)?.as_ref()?.vars.clone();
        self.var_keys[span.clone()]
            .binary_search_by(|k| (k.station, k.slot).cmp(&(key.station, key.slot)))
            .ok()
            .map(|i| span.start + i)
    }

    /// Number of `y` variables.
    pub fn var_count(&self) -> usize {
        self.var_keys.len()
    }

    /// The underlying [`Problem`] (read access for diagnostics).
    pub fn problem(&self) -> &Problem {
        &self.problem
    }

    /// Solves the relaxation cold with a fresh revised-simplex
    /// [`SlotLpSolver`] (the dense tableau remains reachable with
    /// [`SolverKind::Dense`]).
    ///
    /// # Errors
    ///
    /// Propagates [`LpError`]; a well-formed instance is always feasible
    /// (`y = 0` satisfies everything) and bounded (`y ≤ 1` via Eq. 9).
    pub fn solve(&self, subset_len: usize) -> Result<FractionalAssignment, LpError> {
        SlotLpSolver::new(SolverKind::Revised).solve(self, subset_len)
    }

    /// Reads the fractional assignment out of a raw LP solution.
    fn extract(&self, sol: &Solution, subset_len: usize) -> FractionalAssignment {
        // Each request's variables are one contiguous range, in request
        // order, so its options are too.
        debug_assert!(
            self.subset.len() <= subset_len,
            "a request outside the subset"
        );
        let mut start = Vec::with_capacity(subset_len + 1);
        let mut options = Vec::new();
        for &j in &self.subset {
            start.push(options.len());
            let vars = self.start_rows[j].as_ref().map_or(0..0, |s| s.vars.clone());
            for (key, &y) in self.var_keys[vars.clone()].iter().zip(&sol.values()[vars]) {
                if y > 1e-9 {
                    options.push((key.station, key.slot, y));
                }
            }
        }
        start.resize(subset_len + 1, options.len());
        FractionalAssignment {
            start,
            options,
            objective: sol.objective(),
        }
    }
}

/// Counters describing how a [`SlotLpSolver`]'s solves actually ran: the
/// counters a policy reports in its telemetry, under the solver's name.
pub use mec_sim::SolverTelemetry as SolverStats;

/// A persistent slot-LP solver that carries the optimal basis from one
/// slot's LP to the next.
///
/// Successive per-slot LPs differ only by arrival/expiry deltas: a few
/// request columns and start-once rows appear or vanish while the station
/// prefix rows persist. The solver snapshots the optimal basis after each
/// solve, keyed by [`VarKey`]/[`RowKey`] identity rather than position,
/// and re-aims it at the next LP's layout. Departed members degrade to the
/// owning row's slack (the cold choice for that row), so a mostly-shared
/// basis warm-starts phase 2 directly and the simplex only repairs the
/// delta. Any stale snapshot falls back to a cold start — warm-starting
/// is a latency optimization, never a correctness risk.
#[derive(Debug, Clone)]
pub struct SlotLpSolver {
    kind: SolverKind,
    warm_enabled: bool,
    warm: Option<Vec<(RowKey, KeyCol)>>,
    stats: SolverStats,
    /// When set, each solve's wall-clock duration is buffered for
    /// [`SlotLpSolver::drain_solve_times_ms`]. Off by default: timing is
    /// observability-only and must stay out of deterministic streams.
    record_times: bool,
    solve_times_ms: Vec<f64>,
    /// The revised simplex's buffers, reused by every solve.
    workspace: revised::Workspace,
}

impl SlotLpSolver {
    /// Creates a solver of the given kind with warm-starting enabled.
    pub fn new(kind: SolverKind) -> Self {
        Self {
            kind,
            warm_enabled: true,
            warm: None,
            stats: SolverStats::default(),
            record_times: false,
            solve_times_ms: Vec::new(),
            workspace: revised::Workspace::default(),
        }
    }

    /// Enables wall-clock timing of each solve. The buffered durations
    /// are for live histograms only; they never influence the solve.
    pub fn set_record_times(&mut self, on: bool) {
        self.record_times = on;
        if !on {
            self.solve_times_ms.clear();
        }
    }

    /// Drains the solve durations (milliseconds) buffered since the
    /// last drain. Empty unless [`SlotLpSolver::set_record_times`] is on.
    pub fn drain_solve_times_ms(&mut self) -> Vec<f64> {
        std::mem::take(&mut self.solve_times_ms)
    }

    /// Enables or disables the cross-slot warm-start cache (revised only;
    /// the dense tableau always starts cold).
    #[must_use]
    pub fn warm_start(mut self, enabled: bool) -> Self {
        self.warm_enabled = enabled;
        if !enabled {
            self.warm = None;
        }
        self
    }

    /// Which simplex this solver drives.
    pub fn kind(&self) -> SolverKind {
        self.kind
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> SolverStats {
        self.stats
    }

    /// Drops the cached basis (e.g. on an instance swap).
    pub fn reset(&mut self) {
        self.warm = None;
    }

    /// Solves `lp`, warm-starting from the previous solve when possible.
    ///
    /// # Errors
    ///
    /// Propagates [`LpError`] exactly like [`SlotLp::solve`].
    pub fn solve(
        &mut self,
        lp: &SlotLp,
        subset_len: usize,
    ) -> Result<FractionalAssignment, LpError> {
        self.stats.solves += 1;
        let pivots_before = mec_lp::pivots_performed();
        let refactors_before = mec_lp::refactors_performed();
        let started = self.record_times.then(std::time::Instant::now);
        let result = self.solve_inner(lp, subset_len);
        if let Some(t0) = started {
            self.solve_times_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        }
        let pivots = mec_lp::pivots_performed() - pivots_before;
        self.stats.pivots += pivots;
        self.stats.refactorizations += mec_lp::refactors_performed() - refactors_before;
        result
    }

    fn solve_inner(
        &mut self,
        lp: &SlotLp,
        subset_len: usize,
    ) -> Result<FractionalAssignment, LpError> {
        if self.kind == SolverKind::Dense {
            self.stats.cold_starts += 1;
            let sol = lp.problem.solve()?;
            return Ok(lp.extract(&sol, subset_len));
        }

        let config = RevisedConfig::default();
        let snapshot = if self.warm_enabled {
            self.translate(lp)
        } else {
            None
        };
        let ws = &mut self.workspace;
        let mut attempt = revised::solve_with_basis(&lp.problem, &config, snapshot.as_ref(), ws);
        // Belt and suspenders: a warm solve that drifted off the feasible
        // region restarts cold. The retry is the same solve, so it is
        // counted once, as a fallback.
        let mut retried = false;
        if let Ok((sol, _, WarmOutcome::Warm)) = &attempt {
            if !lp.problem.is_feasible(sol.values(), 1e-6) {
                self.warm = None;
                retried = true;
                attempt = revised::solve_with_basis(&lp.problem, &config, None, ws);
            }
        }
        match attempt {
            Ok((sol, basis, outcome)) => {
                let counter = match (retried, outcome) {
                    (true, _) | (false, WarmOutcome::FellBack) => &mut self.stats.warm_fallbacks,
                    (false, WarmOutcome::Warm) => &mut self.stats.warm_hits,
                    (false, WarmOutcome::Cold) => &mut self.stats.cold_starts,
                };
                *counter += 1;
                self.remember(lp, &basis);
                Ok(lp.extract(&sol, subset_len))
            }
            // Numerical breakdown: drop the cache and use the dense oracle.
            Err(LpError::IterationLimit) => {
                self.warm = None;
                if retried {
                    self.stats.warm_fallbacks += 1;
                } else {
                    self.stats.cold_starts += 1;
                }
                let sol = lp.problem.solve()?;
                Ok(lp.extract(&sol, subset_len))
            }
            Err(e) => Err(e),
        }
    }

    /// Re-aims the cached basis at `lp`'s row/column layout.
    fn translate(&self, lp: &SlotLp) -> Option<BasisSnapshot> {
        let cache = self.warm.as_ref()?;
        let m = lp.row_keys.len();
        if m == 0 {
            return None;
        }
        // A row with no surviving basis member starts on its own slack —
        // exactly what a cold basis would assign it.
        let mut cols: Vec<BasisCol> = (0..m).map(BasisCol::Slack).collect();
        for &(rk, kc) in cache {
            let Some(r) = lp.row_of(rk) else {
                continue;
            };
            let carried = match kc {
                KeyCol::Var(vk) => lp.var_of(vk).map(BasisCol::Structural),
                KeyCol::Slack(srk) => lp.row_of(srk).map(BasisCol::Slack),
            };
            cols[r] = carried.unwrap_or(BasisCol::Slack(r));
        }
        // Column deltas can collapse two rows onto one column (e.g. both
        // inherit the same survivor). Later claimants degrade to their own
        // slack; if even that is taken the duplicate stays — the installer
        // dedups and unit-fills, so a clash only weakens the hint.
        let n = lp.var_keys.len();
        let index = |c: BasisCol| match c {
            BasisCol::Structural(v) => v,
            BasisCol::Slack(r) => n + r,
            BasisCol::Surplus(_) | BasisCol::Artificial(_) => {
                unreachable!("the slot LP is all-≤")
            }
        };
        let mut claimed = vec![false; n + m];
        for (r, c) in cols.iter_mut().enumerate() {
            if claimed[index(*c)] {
                if !claimed[n + r] {
                    claimed[n + r] = true;
                    *c = BasisCol::Slack(r);
                }
            } else {
                claimed[index(*c)] = true;
            }
        }
        Some(BasisSnapshot { cols })
    }

    /// Stores the optimal basis keyed by stable identities.
    fn remember(&mut self, lp: &SlotLp, basis: &BasisSnapshot) {
        let mut keyed = Vec::with_capacity(basis.cols.len());
        for (r, &col) in basis.cols.iter().enumerate() {
            let key = match col {
                BasisCol::Structural(v) => KeyCol::Var(lp.var_keys[v]),
                BasisCol::Slack(row) => KeyCol::Slack(lp.row_keys[row]),
                // The slot LP is all-`≤`, so these blocks are empty; treat
                // defensively as the row's own slack.
                BasisCol::Surplus(_) | BasisCol::Artificial(_) => KeyCol::Slack(lp.row_keys[r]),
            };
            keyed.push((lp.row_keys[r], key));
        }
        self.warm = Some(keyed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::InstanceParams;
    use crate::online::DynamicRr;
    use mec_lp::VarId;
    use mec_sim::{Allocation, Engine, SlotConfig, SlotContext, SlotPolicy};
    use mec_topology::units::Compute;
    use mec_topology::{Latency, TopologyBuilder};
    use mec_workload::{ArrivalProcess, WorkloadBuilder};
    use proptest::prelude::*;
    use std::collections::HashSet;

    fn instance(n: usize, stations: usize) -> Instance {
        instance_seeded(n, stations, 3)
    }

    /// `subset`'s requests, each identified by its instance index.
    fn pairs<'a>(instance: &'a Instance, subset: &[usize]) -> Vec<(usize, &'a Request)> {
        subset
            .iter()
            .map(|&j| (j, &instance.requests()[j]))
            .collect()
    }

    fn instance_seeded(n: usize, stations: usize, seed: u64) -> Instance {
        let topo = TopologyBuilder::new(stations).seed(seed).build();
        let requests = WorkloadBuilder::new(&topo).seed(seed).count(n).build();
        Instance::new(topo, requests, InstanceParams::default())
    }

    /// An instance whose station capacities, resource-slot size `C_l` and
    /// demand rates are drawn too, so `ER_{jil}` can reach 0 at any `l`.
    fn instance_shaped(n: usize, stations: usize, seed: u64, shape: (f64, f64, f64)) -> Instance {
        instance_arriving(n, stations, seed, shape, ArrivalProcess::AllAtOnce)
    }

    /// [`instance_shaped`] with the given arrival process.
    fn instance_arriving(
        n: usize,
        stations: usize,
        seed: u64,
        shape: (f64, f64, f64),
        arrivals: ArrivalProcess,
    ) -> Instance {
        let (capacity, slot, rate) = shape;
        let topo = TopologyBuilder::new(stations)
            .seed(seed)
            .capacity_range(capacity, capacity * 1.3)
            .build();
        let requests = WorkloadBuilder::new(&topo)
            .seed(seed)
            .count(n)
            .rate_range(rate * 0.6, rate)
            .arrivals(arrivals)
            .build();
        let params = InstanceParams {
            slot_capacity: Compute::mhz(slot),
            ..InstanceParams::default()
        };
        Instance::new(topo, requests, params)
    }

    /// The quadratic reference builder `SlotLp::build` replaced: every
    /// row filters all variables, and the truncated rate is recomputed per
    /// variable. It builds a variable for every deadline-feasible
    /// `(request, station, slot)`, or with `reward_free: false` only for
    /// those whose `ER_{jil}` is positive, as `SlotLp` does. Returns the
    /// problem and the stable row/column identities.
    fn build_naive(
        instance: &Instance,
        subset: &[usize],
        truncation: Truncation,
        reward_free: bool,
    ) -> (Problem, Vec<VarKey>, Vec<RowKey>) {
        let mut problem = Problem::new(Sense::Maximize);
        // Each variable's subset position, identity and id.
        let mut vars: Vec<(usize, VarKey, VarId)> = Vec::new();
        let mut var_keys = Vec::new();
        let mut row_keys = Vec::new();
        let c_unit = instance.params().c_unit;
        let slot_cap = instance.params().slot_capacity;
        for (local_j, &j) in subset.iter().enumerate() {
            for station in instance.topo().station_ids() {
                if !instance.offline_feasible(j, station) {
                    continue;
                }
                for l in instance.slot_layout(station).indices() {
                    let er = instance.expected_reward_at(j, station, l.get());
                    if !reward_free && er <= 0.0 {
                        continue;
                    }
                    let var = problem.add_var(er);
                    let key = VarKey {
                        request: j,
                        station,
                        slot: l.get(),
                    };
                    vars.push((local_j, key, var));
                    var_keys.push(key);
                }
            }
        }
        for (local_j, &j) in subset.iter().enumerate() {
            let coeffs: Vec<(VarId, f64)> = vars
                .iter()
                .filter(|&&(local, _, _)| local == local_j)
                .map(|&(_, _, v)| (v, 1.0))
                .collect();
            if !coeffs.is_empty() {
                problem.add_constraint(coeffs, Cmp::Le, 1.0);
                row_keys.push(RowKey::Start(j));
            }
        }
        for station in instance.topo().station_ids() {
            let share_rate = match truncation {
                Truncation::PerRequestShare { active } if active > 0 => Some(
                    (instance.topo().station(station).capacity() / active as f64)
                        .sustainable_rate(c_unit),
                ),
                _ => None,
            };
            for l in instance.slot_layout(station).indices() {
                let prefix_rate = l.prefix_capacity(slot_cap).sustainable_rate(c_unit);
                let cap_rate = share_rate.map_or(prefix_rate, |s| s.min(prefix_rate));
                let mut coeffs: Vec<(VarId, f64)> = Vec::new();
                for &(_, key, v) in &vars {
                    if key.station == station && key.slot <= l.get() {
                        let trunc = instance.requests()[key.request]
                            .demand()
                            .expected_truncated_rate(cap_rate)
                            .as_mbps();
                        if trunc > 0.0 {
                            coeffs.push((v, trunc));
                        }
                    }
                }
                if !coeffs.is_empty() {
                    problem.add_constraint(coeffs, Cmp::Le, 2.0 * prefix_rate.as_mbps());
                    row_keys.push(RowKey::Prefix(station, l.get()));
                }
            }
        }
        (problem, var_keys, row_keys)
    }

    /// Random subsets in admission order (first appearance wins) of
    /// `0..n`.
    fn subsets(picks: &[Vec<usize>], n: usize) -> Vec<Vec<usize>> {
        picks
            .iter()
            .map(|picks| {
                let mut subset: Vec<usize> = Vec::new();
                for &p in picks {
                    if !subset.contains(&(p % n)) {
                        subset.push(p % n);
                    }
                }
                subset
            })
            .collect()
    }

    /// Steps a water-filling `DynamicRr` and, every slot and under both
    /// truncations, builds the LP over part of the live views twice: in
    /// place from the views' requests and the engine's network, as LP-PT
    /// does, and fresh from the instance the engine's requests came from.
    struct Mirror<'a> {
        instance: &'a Instance,
        inner: DynamicRr,
        /// View `i` of slot `t` is in the subset iff `mask[(i + t) % len]`.
        mask: Vec<bool>,
        from_views: SlotLp,
        columns: ColumnCache,
        /// The LP from the views and the LP from the instance, per build.
        built: Vec<(SlotLp, SlotLp)>,
    }

    impl SlotPolicy for Mirror<'_> {
        fn schedule(&mut self, ctx: &SlotContext<'_>) -> Vec<Allocation> {
            let mask = &self.mask;
            let subset: Vec<(usize, &Request)> = ctx
                .views
                .iter()
                .enumerate()
                .filter(|&(i, _)| mask[(i + ctx.slot as usize) % mask.len()])
                .map(|(_, v)| (v.job.id().index(), v.job.request()))
                .collect();
            let ids: Vec<usize> = subset.iter().map(|&(j, _)| j).collect();
            let net = Network {
                topo: ctx.topo,
                paths: ctx.paths,
                params: InstanceParams {
                    c_unit: ctx.config.c_unit,
                    slot_capacity: self.instance.params().slot_capacity,
                    slot_ms: ctx.config.slot_ms,
                },
            };
            for trunc in [
                Truncation::Standard,
                Truncation::PerRequestShare {
                    active: subset.len(),
                },
            ] {
                self.from_views
                    .rebuild(&net, &subset, trunc, &mut self.columns);
                let from_instance = SlotLp::build(self.instance, &ids, trunc);
                self.built.push((self.from_views.clone(), from_instance));
            }
            self.inner.schedule(ctx)
        }

        fn observe(&mut self, slot: u64, completed_reward: f64) {
            self.inner.observe(slot, completed_reward);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The LP built from an engine's views, keyed by job id, is the LP
        /// built from the instance those jobs came from: the same problem
        /// (columns bit for bit), the same identities, and lookups that
        /// agree on every key. The engine is stepped to a random slot, so
        /// the views hold waiting, running and departed jobs, and the
        /// views' LP keeps one column cache through the whole episode.
        #[test]
        fn views_build_the_instance_lp(
            world in (0u64..200, 1usize..30, 1usize..7),
            shape in (1000.0f64..4000.0, 300.0f64..1500.0, 20.0f64..100.0),
            mask in prop::collection::vec(0u8..2, 1..8),
            slots in 1u64..40,
        ) {
            let (seed, n, stations) = world;
            let arrivals = ArrivalProcess::UniformOver { horizon: 20 };
            let inst = instance_arriving(n, stations, seed, shape, arrivals);
            let cfg = SlotConfig {
                horizon: slots,
                c_unit: inst.params().c_unit,
                slot_ms: inst.params().slot_ms,
                seed,
                ..Default::default()
            };
            let mut engine = Engine::new(inst.topo(), inst.paths(), inst.requests().to_vec(), cfg);
            let mut mirror = Mirror {
                instance: &inst,
                inner: DynamicRr::new(Default::default()),
                mask: mask.iter().map(|&bit| bit == 1).collect(),
                from_views: SlotLp::empty(),
                columns: ColumnCache::default(),
                built: Vec::new(),
            };
            for _ in 0..slots {
                engine.step(&mut mirror).unwrap();
            }
            for (views, instance) in &mirror.built {
                prop_assert_eq!(&views.problem, &instance.problem);
                prop_assert!(views.problem.columns().bit_eq(instance.problem.columns()));
                prop_assert_eq!(&views.var_keys, &instance.var_keys);
                prop_assert_eq!(&views.row_keys, &instance.row_keys);
                for &key in &views.var_keys {
                    prop_assert_eq!(views.var_of(key), instance.var_of(key));
                }
                for &key in &views.row_keys {
                    prop_assert_eq!(views.row_of(key), instance.row_of(key));
                }
            }
        }

        /// The bucketed builder emits exactly the reference LP: same
        /// problem (variables, rows, coefficient order and bits), same
        /// identities, and lookup tables that invert those identities. The
        /// columns it writes directly are the reference rows' transpose bit
        /// for bit. One LP rebuilt in place through every case, over
        /// subsets that shrink and grow (requests leave and come back) and
        /// a share that changes, first on one network and then on a
        /// smaller one, each with its own column cache, matches a fresh
        /// build field for field, its columns included, and every key an
        /// earlier case produced resolves as it does there.
        #[test]
        fn bucketed_build_matches_naive_builder(
            world in (0u64..200, 1usize..30, 1usize..7),
            fewer in 0usize..6,
            shape in (1000.0f64..4000.0, 300.0f64..1500.0, 20.0f64..100.0),
            picks in prop::collection::vec(prop::collection::vec(0usize..1000, 0..40), 1..4),
            active in 0usize..40,
        ) {
            let (seed, n, stations) = world;
            let insts = [
                instance_shaped(n, stations, seed, shape),
                instance_seeded(n, stations.saturating_sub(fewer).max(1), seed + 1),
            ];
            let subsets = subsets(&picks, n);
            // Walked there and back so the subset both grows and shrinks.
            let walk: Vec<&Vec<usize>> = subsets.iter().chain(subsets.iter().rev().skip(1)).collect();
            let mut rebuilt = SlotLp::empty();
            let mut seen_vars: HashSet<VarKey> = HashSet::new();
            let mut seen_rows: HashSet<RowKey> = HashSet::new();
            for inst in &insts {
                let mut columns = ColumnCache::default();
                for subset in &walk {
                    for trunc in [
                        Truncation::Standard,
                        Truncation::PerRequestShare { active: 0 },
                        Truncation::PerRequestShare { active: subset.len() },
                        Truncation::PerRequestShare { active },
                    ] {
                        let lp = SlotLp::build(inst, subset, trunc);
                        let (problem, var_keys, row_keys) = build_naive(inst, subset, trunc, false);
                        prop_assert_eq!(&lp.problem, &problem);
                        // `problem` was built row by row, so its columns
                        // are the transpose of its rows.
                        prop_assert!(lp.problem.columns().bit_eq(problem.columns()));
                        prop_assert_eq!(&lp.var_keys, &var_keys);
                        prop_assert_eq!(&lp.row_keys, &row_keys);
                        for (v, &key) in lp.var_keys.iter().enumerate() {
                            prop_assert_eq!(lp.var_of(key), Some(v));
                        }
                        for (r, &key) in lp.row_keys.iter().enumerate() {
                            prop_assert_eq!(lp.row_of(key), Some(r));
                        }

                        rebuilt.rebuild(&inst.network(), &pairs(inst, subset), trunc, &mut columns);
                        prop_assert_eq!(&rebuilt.problem, &lp.problem);
                        prop_assert!(rebuilt.problem.columns().bit_eq(problem.columns()));
                        prop_assert_eq!(&rebuilt.subset, &lp.subset);
                        prop_assert_eq!(&rebuilt.var_keys, &lp.var_keys);
                        prop_assert_eq!(&rebuilt.row_keys, &lp.row_keys);
                        prop_assert_eq!(&rebuilt.start_rows, &lp.start_rows);
                        prop_assert_eq!(&rebuilt.prefix_rows, &lp.prefix_rows);
                        seen_vars.extend(&lp.var_keys);
                        seen_rows.extend(&lp.row_keys);
                        for &key in &seen_vars {
                            prop_assert_eq!(rebuilt.var_of(key), lp.var_of(key));
                        }
                        for &key in &seen_rows {
                            prop_assert_eq!(rebuilt.row_of(key), lp.row_of(key));
                        }
                    }
                }
            }
        }

        /// Dropping the reward-free columns leaves LPOpt where the LP with
        /// every deadline-feasible column has it, and drops nothing else:
        /// every column the full LP has and `SlotLp` lacks earns
        /// `ER_{jil} = 0`. The instances draw capacities, `C_l` and rates
        /// so that `ER` reaches 0 at any slot, including before `L`.
        #[test]
        fn reward_free_columns_leave_the_optimum(
            world in (0u64..500, 1usize..30, 1usize..7),
            shape in (1000.0f64..4000.0, 300.0f64..1500.0, 20.0f64..100.0),
            picks in prop::collection::vec(0usize..1000, 0..40),
            active in 0usize..40,
        ) {
            let (seed, n, stations) = world;
            let inst = instance_shaped(n, stations, seed, shape);
            let subset = subsets(&[picks], n).remove(0);
            for trunc in [Truncation::Standard, Truncation::PerRequestShare { active }] {
                let lp = SlotLp::build(&inst, &subset, trunc);
                let (full, full_keys, _) = build_naive(&inst, &subset, trunc, true);
                let kept: HashSet<VarKey> = lp.var_keys.iter().copied().collect();
                for key in full_keys.iter().filter(|k| !kept.contains(k)) {
                    prop_assert_eq!(
                        inst.expected_reward_at(key.request, key.station, key.slot),
                        0.0,
                        "{:?} was dropped", key
                    );
                }
                let config = RevisedConfig::default();
                let got = revised::solve(lp.problem(), &config).unwrap().objective();
                let want = revised::solve(&full, &config).unwrap().objective();
                prop_assert!(
                    (got - want).abs() <= 1e-9 * want.abs().max(1.0),
                    "LPOpt {} without the reward-free columns, {} with them", got, want
                );
            }
        }
    }

    /// An LP rebuilt in place through subsets where a station loses every
    /// request and then regains them, under both truncations, keeps
    /// writing exactly the transpose of its rows: the rows of the emptied
    /// station vanish and come back, and no column keeps an entry in a row
    /// that is gone.
    #[test]
    fn direct_columns_follow_rows_that_go_empty() {
        // A 20 ms deadline puts some stations out of some requests' reach.
        let topo = TopologyBuilder::new(6).seed(0).build();
        let requests = WorkloadBuilder::new(&topo)
            .seed(0)
            .count(40)
            .deadline(Latency::ms(20.0))
            .build();
        let inst = Instance::new(topo, requests, InstanceParams::default());
        let all: Vec<usize> = (0..40).collect();
        let mut columns = ColumnCache::default();
        let stations: Vec<Vec<StationId>> = all
            .iter()
            .map(|&j| {
                let runs = columns
                    .index
                    .runs_of(&inst.network(), j, &inst.requests()[j]);
                columns.index.runs[runs].iter().map(|r| r.station).collect()
            })
            .collect();
        // A station some requests run at and others avoid; a subset of
        // the avoiding ones leaves its prefix rows empty.
        let hosts = |j: usize, s: StationId| stations[j].contains(&s);
        let station = inst
            .topo()
            .station_ids()
            .find(|&s| all.iter().any(|&j| hosts(j, s)) && all.iter().any(|&j| !hosts(j, s)))
            .expect("a station that some requests avoid");
        let avoiding: Vec<usize> = all
            .iter()
            .copied()
            .filter(|&j| !hosts(j, station))
            .collect();
        let one: Vec<usize> = all
            .iter()
            .copied()
            .filter(|&j| hosts(j, station))
            .take(1)
            .collect();
        let mut lp = SlotLp::empty();
        let mut emptied = false;
        for subset in [&all, &avoiding, &one, &vec![], &all, &avoiding] {
            for trunc in [
                Truncation::Standard,
                Truncation::PerRequestShare {
                    active: subset.len(),
                },
            ] {
                lp.rebuild(&inst.network(), &pairs(&inst, subset), trunc, &mut columns);
                let (naive, _, _) = build_naive(&inst, subset, trunc, false);
                assert_eq!(lp.problem, naive);
                assert!(lp.problem.columns().bit_eq(naive.columns()));
                emptied |= !subset.is_empty()
                    && lp.prefix_rows[station.index()].iter().all(Option::is_none);
            }
        }
        assert!(emptied, "the station's prefix rows went empty on the way");
    }

    #[test]
    fn lookups_miss_outside_the_lp() {
        let inst = instance(10, 3);
        let lp = SlotLp::build(&inst, &[7, 2], Truncation::Standard);
        let absent = VarKey {
            request: 5,
            station: StationId(0),
            slot: 1,
        };
        assert_eq!(lp.var_of(absent), None);
        assert_eq!(
            lp.var_of(VarKey {
                request: 99,
                ..absent
            }),
            None
        );
        assert_eq!(lp.row_of(RowKey::Start(5)), None);
        assert_eq!(lp.row_of(RowKey::Start(99)), None);
        assert_eq!(lp.row_of(RowKey::Prefix(StationId(0), 0)), None);
        assert_eq!(lp.row_of(RowKey::Prefix(StationId(3), 1)), None);
        assert_eq!(lp.row_of(RowKey::Prefix(StationId(0), 99)), None);
    }

    #[test]
    fn builds_and_solves() {
        let inst = instance(12, 4);
        let subset: Vec<usize> = (0..12).collect();
        let lp = SlotLp::build(&inst, &subset, Truncation::Standard);
        assert!(lp.var_count() > 0);
        let frac = lp.solve(subset.len()).unwrap();
        assert!(frac.objective() > 0.0);
        // Masses respect Constraint (9).
        for j in 0..12 {
            assert!(frac.mass(j) <= 1.0 + 1e-6, "mass({j}) = {}", frac.mass(j));
        }
    }

    #[test]
    fn lp_upper_bounds_total_expected_reward() {
        // With ample capacity the LP should admit everything fully:
        // objective close to the sum of best ER over (i, l=1).
        let inst = instance(3, 4);
        let subset = vec![0, 1, 2];
        let lp = SlotLp::build(&inst, &subset, Truncation::Standard);
        let frac = lp.solve(3).unwrap();
        let best_sum: f64 = (0..3)
            .map(|j| {
                inst.topo()
                    .station_ids()
                    .map(|s| inst.expected_reward_at(j, s, 1))
                    .fold(0.0, f64::max)
            })
            .sum();
        assert!(frac.objective() <= best_sum + 1e-6);
        // 3 requests against 4 stations: nearly everything fits.
        assert!(frac.objective() >= 0.9 * best_sum);
    }

    #[test]
    fn truncation_with_share_tightens() {
        let inst = instance(20, 3);
        let subset: Vec<usize> = (0..20).collect();
        let std = SlotLp::build(&inst, &subset, Truncation::Standard)
            .solve(20)
            .unwrap();
        let pt = SlotLp::build(&inst, &subset, Truncation::PerRequestShare { active: 20 })
            .solve(20)
            .unwrap();
        // Tighter truncation cannot increase the LP value... note: smaller
        // per-variable coefficients *loosen* constraint (10); the direction
        // depends on instance. Just check both solve and stay bounded.
        assert!(std.objective().is_finite());
        assert!(pt.objective().is_finite());
    }

    #[test]
    fn empty_subset() {
        let inst = instance(5, 3);
        let lp = SlotLp::build(&inst, &[], Truncation::Standard);
        assert_eq!(lp.var_count(), 0);
        let frac = lp.solve(0).unwrap();
        assert_eq!(frac.objective(), 0.0);
        assert_eq!(frac.request_count(), 0);
    }

    #[test]
    fn solver_kinds_agree_on_objective() {
        let inst = instance(15, 4);
        let subset: Vec<usize> = (0..15).collect();
        let lp = SlotLp::build(&inst, &subset, Truncation::Standard);
        let dense = SlotLpSolver::new(SolverKind::Dense).solve(&lp, 15).unwrap();
        let revised = SlotLpSolver::new(SolverKind::Revised)
            .solve(&lp, 15)
            .unwrap();
        assert!(
            (dense.objective() - revised.objective()).abs() < 1e-6,
            "dense {} vs revised {}",
            dense.objective(),
            revised.objective()
        );
    }

    #[test]
    fn warm_cache_carries_across_sliding_subsets() {
        // A sliding window over the request population mimics the per-slot
        // arrival/expiry deltas DynamicRR produces.
        let inst = instance(30, 4);
        let mut warm = SlotLpSolver::new(SolverKind::Revised);
        let mut cold = SlotLpSolver::new(SolverKind::Revised).warm_start(false);
        for start in 0..12 {
            let subset: Vec<usize> = (start..start + 14).collect();
            let lp = SlotLp::build(&inst, &subset, Truncation::Standard);
            let a = warm.solve(&lp, subset.len()).unwrap();
            let b = cold.solve(&lp, subset.len()).unwrap();
            assert!(
                (a.objective() - b.objective()).abs() < 1e-6,
                "slot {start}: warm {} vs cold {}",
                a.objective(),
                b.objective()
            );
        }
        let stats = warm.stats();
        assert_eq!(stats.solves, 12);
        assert!(
            stats.warm_hits >= 8,
            "expected mostly warm starts, got {stats:?}"
        );
        assert_eq!(cold.stats().warm_hits, 0);
    }

    #[test]
    fn warm_solver_survives_subset_shrink_and_growth() {
        let inst = instance(25, 3);
        let mut solver = SlotLpSolver::new(SolverKind::Revised);
        for subset in [
            (0..20).collect::<Vec<usize>>(),
            (5..10).collect(),
            vec![],
            (0..25).collect(),
        ] {
            let lp = SlotLp::build(&inst, &subset, Truncation::Standard);
            let got = solver.solve(&lp, subset.len()).unwrap();
            let fresh = lp.solve(subset.len()).unwrap();
            assert!(
                (got.objective() - fresh.objective()).abs() < 1e-6,
                "subset len {}: {} vs {}",
                subset.len(),
                got.objective(),
                fresh.objective()
            );
        }
    }

    #[test]
    fn reset_clears_the_cache() {
        let inst = instance(10, 3);
        let subset: Vec<usize> = (0..10).collect();
        let lp = SlotLp::build(&inst, &subset, Truncation::Standard);
        let mut solver = SlotLpSolver::new(SolverKind::Revised);
        solver.solve(&lp, 10).unwrap();
        solver.reset();
        solver.solve(&lp, 10).unwrap();
        assert_eq!(solver.stats().warm_hits, 0);
        assert_eq!(solver.stats().cold_starts, 2);
    }

    #[test]
    fn subset_indices_are_local() {
        let inst = instance(10, 3);
        let subset = vec![7, 2]; // global ids
        let lp = SlotLp::build(&inst, &subset, Truncation::Standard);
        let frac = lp.solve(2).unwrap();
        assert_eq!(frac.request_count(), 2);
        // Local index 0 corresponds to global request 7.
        let _ = frac.for_request(0);
        let _ = frac.for_request(1);
    }
}
