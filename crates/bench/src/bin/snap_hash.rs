//! Prints a stable hash of the sealed telemetry snapshot for a scenario.
//!
//! The byte-identity audit tool: run it before and after a layout or
//! hot-path change (same `--nodes/--days/--seed`) and diff the printed
//! FNV-1a 64 hash. Identical hashes mean the sealed snapshot — every
//! record in every stream, in order, plus the chain checkpoints — is
//! byte-for-byte unchanged.
//!
//! ```text
//! cargo run --release -p rsc-bench --bin snap_hash -- --nodes 102400 --days 1
//! ```
//!
//! `--preset rsc1|rsc2` hashes the era-accurate presets instead of the
//! resized scaling scenario (`--scale N` applies `scaled_down(N)`).

use std::io::Write as _;

use rsc_bench::{rsc1_sized_spec, rsc1_spec, rsc2_spec, FIGURE_SEED};
use rsc_sim::runner::ScenarioSpec;
use rsc_sim_core::cli;
use rsc_sim_core::fnv::fnv1a;
use rsc_telemetry::snapshot::write_snapshot;

const USAGE: &str = "[--nodes N] [--days N] [--seed N] [--preset rsc1|rsc2] [--scale N]";

fn main() {
    let spec = scenario(std::env::args().skip(1))
        .unwrap_or_else(|e| rsc_bench::exit_with_usage(&e, USAGE));
    let view = spec.simulate();
    let mut bytes = Vec::new();
    write_snapshot(&mut bytes, &view).expect("encode snapshot");
    let h = fnv1a(&bytes);
    let mut out = std::io::stdout().lock();
    writeln!(
        out,
        "scenario fp={:016x} snapshot_bytes={} fnv1a={:016x}",
        spec.fingerprint(),
        bytes.len(),
        h
    )
    .unwrap();
}

/// The scenario the flags name.
fn scenario(raw: impl Iterator<Item = String>) -> Result<ScenarioSpec, String> {
    let args = cli::parse(raw, &["nodes", "days", "seed", "preset", "scale"], &[])?;
    let nodes = args.parse_or("nodes", 2048)?;
    let days = args.parse_or("days", 7)?;
    let seed = args.parse_or("seed", FIGURE_SEED)?;
    let scale = args.parse_or("scale", 1)?;
    Ok(match args.get("preset") {
        None => rsc1_sized_spec(nodes, days, seed),
        Some("rsc1") => rsc1_spec(scale, days, seed),
        Some("rsc2") => rsc2_spec(scale, days, seed),
        Some(other) => return Err(format!("unknown preset {other:?} (rsc1|rsc2)")),
    })
}
