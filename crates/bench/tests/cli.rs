//! The figure drivers take no arguments: a stray one exits 2 with a usage
//! line before any work starts, instead of running the figure.

use std::process::Command;

const DRIVERS: [(&str, &str); 9] = [
    ("fig3", env!("CARGO_BIN_EXE_fig3")),
    ("fig4", env!("CARGO_BIN_EXE_fig4")),
    ("fig5", env!("CARGO_BIN_EXE_fig5")),
    ("fig6", env!("CARGO_BIN_EXE_fig6")),
    ("regret", env!("CARGO_BIN_EXE_regret")),
    ("ablation", env!("CARGO_BIN_EXE_ablation")),
    ("ratio", env!("CARGO_BIN_EXE_ratio")),
    ("uncertainty", env!("CARGO_BIN_EXE_uncertainty")),
    ("netinfo", env!("CARGO_BIN_EXE_netinfo")),
];

#[test]
fn stray_arguments_exit_2_with_usage() {
    for (name, exe) in DRIVERS {
        let out = Command::new(exe)
            .arg("--bogus")
            .output()
            .expect("spawn driver");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{name}: {stderr}");
        assert!(out.stdout.is_empty(), "{name} started its run");
        assert!(stderr.contains("\"--bogus\""), "{name}: {stderr}");
        assert!(
            stderr.contains(&format!("usage: {name}")),
            "{name}: {stderr}"
        );
    }
}
