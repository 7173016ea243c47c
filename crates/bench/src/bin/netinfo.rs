//! Network inspector: prints the statistics of the default experiment
//! topologies and exports the 20-station backhaul as Graphviz DOT
//! (`results/topology_bs20.dot` — render with `dot -Tpng`).
//!
//! Usage: `cargo run -p mec-bench --release --bin netinfo`

use mec_bench::{Defaults, Table};
use mec_topology::TopologyStats;
use std::fs;

fn main() {
    mec_bench::reject_args("netinfo (takes no arguments)");
    let d = Defaults::paper();
    let mut table = Table::new(
        "Topology statistics (Waxman, paper defaults)",
        &[
            "|BS|",
            "edges",
            "avg degree",
            "diameter (ms)",
            "avg path (ms)",
            "capacity (GHz)",
        ],
    );
    for stations in [10usize, 20, 30, 40, 50] {
        let topo = Defaults { stations, ..d }.topology(0);
        let stats = TopologyStats::compute(&topo);
        table.push(vec![
            stations.to_string(),
            stats.edges.to_string(),
            format!("{:.1}", stats.avg_degree),
            format!("{:.1}", stats.diameter.map_or(f64::NAN, |l| l.as_ms())),
            format!(
                "{:.1}",
                stats.avg_path_delay.map_or(f64::NAN, |l| l.as_ms())
            ),
            format!("{:.1}", topo.total_capacity().as_mhz() / 1000.0),
        ]);
    }
    print!("{}", table.render());

    let topo = d.topology(0);
    fs::create_dir_all("results").expect("create results dir");
    fs::write("results/topology_bs20.dot", topo.to_dot()).expect("write dot");
    println!("  -> results/topology_bs20.dot (render with `dot -Tpng`)");
}
