//! Online `HeuKKT` [21]: per-slot KKT water-filling of each station's
//! capacity across its reward-ranked local jobs.

use crate::online::{startable_at, useful_compute, SlotCapacity};
use mec_sim::fair_share;
use mec_sim::sharing::WaterFill;
use mec_sim::{Allocation, SlotContext, SlotPolicy};
use mec_topology::units::total_cmp;

/// The online `HeuKKT` baseline: each slot, jobs attach to their
/// latency-optimal feasible station; every station then splits its capacity
/// across its local jobs by water-filling (the KKT condition of the relaxed
/// allocation problem), after dropping the lowest reward-density jobs that
/// would push the per-job share below a viability floor (they spill to the
/// "cloud" and retry next slot).
#[derive(Debug, Clone, Copy, Default)]
pub struct OnlineHeuKkt;

impl OnlineHeuKkt {
    /// Creates the policy.
    pub fn new() -> Self {
        Self
    }
}

impl SlotPolicy for OnlineHeuKkt {
    fn schedule(&mut self, ctx: &SlotContext<'_>) -> Vec<Allocation> {
        let capacity = SlotCapacity::new(ctx);
        let mut fill = WaterFill::default();
        // Attach each job to its latency-best feasible station; the KKT
        // water-filling below then resolves per-station contention.
        let mut per_station: Vec<Vec<usize>> = vec![Vec::new(); ctx.topo.station_count()];
        for (i, view) in ctx.views.iter().enumerate() {
            if !view.schedulable() {
                continue;
            }
            let best = ctx
                .topo
                .station_ids()
                .filter(|&s| startable_at(view, ctx, s))
                .min_by(|&a, &b| {
                    total_cmp(
                        &ctx.paths.delay(view.job.request().home(), a),
                        &ctx.paths.delay(view.job.request().home(), b),
                    )
                });
            if let Some(s) = best {
                per_station[s.index()].push(i);
            }
        }

        let mut out = Vec::new();
        for station in ctx.topo.station_ids() {
            let mut local = per_station[station.index()].clone();
            if local.is_empty() {
                continue;
            }
            // Reward density: expected reward per MHz of estimated demand.
            let density = |i: usize| {
                let v = &ctx.views[i];
                let d = v
                    .rate_estimate()
                    .demand(ctx.config.c_unit)
                    .as_mhz()
                    .max(1e-9);
                v.job.request().demand().expected_reward() / d
            };
            local.sort_by(|&a, &b| total_cmp(&density(b), &density(a)));

            // KKT spill: shrink the served set until the equal share can
            // sustain at least half of the median demand (a viability
            // floor — below that the allocation thrashes without
            // finishing anything).
            let cap = capacity.remaining(station);
            let mut kept = local.len();
            while kept > 1 {
                let share = fair_share(cap, kept).expect("kept >= 1");
                let median_need = useful_compute(&ctx.views[local[kept / 2]], ctx);
                if share.as_mhz() + 1e-9 >= median_need.as_mhz() / 2.0 {
                    break;
                }
                kept -= 1;
            }

            let caps: Vec<_> = local[..kept]
                .iter()
                .map(|&i| useful_compute(&ctx.views[i], ctx))
                .collect();
            let grants = fill.fill(cap, &caps);
            for (&i, &grant) in local[..kept].iter().zip(grants) {
                if grant.is_positive() {
                    out.push(Allocation {
                        request: ctx.views[i].job.id(),
                        station,
                        compute: grant,
                    });
                }
            }
        }
        out
    }

    fn name(&self) -> &str {
        "HeuKKT (online)"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::InstanceParams;
    use mec_sim::{Engine, SlotConfig};
    use mec_topology::TopologyBuilder;
    use mec_workload::{ArrivalProcess, WorkloadBuilder};

    #[test]
    fn waterfills_and_completes() {
        let topo = TopologyBuilder::new(5).seed(15).build();
        let requests = WorkloadBuilder::new(&topo)
            .seed(15)
            .count(25)
            .arrivals(ArrivalProcess::UniformOver { horizon: 120 })
            .build();
        let params = InstanceParams::default();
        let paths = topo.shortest_paths();
        let cfg = SlotConfig {
            horizon: 400,
            c_unit: params.c_unit,
            slot_ms: params.slot_ms,
            seed: 15,
            ..Default::default()
        };
        let mut engine = Engine::new(&topo, &paths, requests, cfg);
        let metrics = engine.run(&mut OnlineHeuKkt::new()).unwrap();
        assert!(metrics.completed() > 0);
        assert!(metrics.total_reward() > 0.0);
    }
}
