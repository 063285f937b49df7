#![warn(missing_docs)]

//! Shared harness utilities for the figure/table binaries.
//!
//! Every binary regenerates one table or figure from the paper by running
//! the simulator (at a stated scale) and printing the same rows/series the
//! paper reports, plus a CSV copy under [`figures_dir`].
//!
//! Simulation goes through [`rsc_sim::ScenarioRunner`]: scenarios execute
//! in parallel where a figure needs more than one, and sealed telemetry is
//! cached as snapshots under the runner's artifact directory (default
//! `target/telemetry/`), so re-running a figure binary — or a second
//! binary wanting the same scenario — loads the artifact instead of
//! simulating for minutes. Delete the cache directory (or change any
//! scenario parameter) to force fresh runs.
//!
//! Binaries that simulate take `--seed N`, `--days N`, and `--scale N`
//! flags (see [`BenchArgs`]) so scenarios can be varied without
//! recompiling; binaries with nothing to vary call [`no_args`]. Both go
//! through [`rsc_sim_core::cli`], so every flag is also accepted as
//! `--flag=N` and an unknown flag or stray argument exits with status 2.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use rsc_sim::config::SimConfig;
use rsc_sim::runner::{ScenarioRunner, ScenarioSpec};
use rsc_sim_core::cli;
use rsc_telemetry::view::TelemetryView;

/// Standard measurement horizon: the paper covers 11 months.
pub const MEASUREMENT_DAYS: u64 = 330;

/// Default seed for figure regeneration (fixed for reproducibility).
pub const FIGURE_SEED: u64 = 20_250_301;

/// The scenario runner the harness binaries share: default artifact
/// cache (override with `RSC_TELEMETRY_CACHE`), default worker pool.
pub fn runner() -> ScenarioRunner {
    ScenarioRunner::new()
}

/// The RSC-1 scenario spec at `1/divisor` scale for `days`.
pub fn rsc1_spec(divisor: u32, days: u64, seed: u64) -> ScenarioSpec {
    spec(SimConfig::rsc1(), divisor, days, seed)
}

/// The RSC-2 scenario spec at `1/divisor` scale for `days`.
pub fn rsc2_spec(divisor: u32, days: u64, seed: u64) -> ScenarioSpec {
    spec(SimConfig::rsc2(), divisor, days, seed)
}

fn spec(config: SimConfig, divisor: u32, days: u64, seed: u64) -> ScenarioSpec {
    let config = if divisor > 1 {
        config.scaled_down(divisor)
    } else {
        config
    };
    ScenarioSpec::new(config, seed, days)
}

/// The scenario `lemon_eval` and `ablation_lemon_thresholds` share: RSC-1
/// at 1/4 scale for 84 days, 24 lemons, base modes at the ~35% lemon-free
/// residual, so lemons cause about two thirds of failures — the regime
/// where their removal moves large-job failure rates as the paper reports.
pub fn lemon_eval_spec() -> ScenarioSpec {
    let mut spec = rsc1_spec(4, 84, FIGURE_SEED);
    spec.config.modes = spec.config.modes.scaled_rates(0.35);
    spec.config.lemon_count = 24;
    spec
}

/// An RSC-1-like scenario resized to exactly `num_nodes` nodes (up *or*
/// down from RSC-1's 2,048), with the arrival rate scaled proportionally
/// and the offered load re-calibrated — the scaling scenario that
/// `snap_hash` and the fleet-scale byte-identity pins run. Era storylines
/// are disabled so runs at different sizes stay comparable (stationary
/// failure rates, scheduler-bound behaviour).
pub fn rsc1_sized_spec(num_nodes: u32, days: u64, seed: u64) -> ScenarioSpec {
    let base = SimConfig::rsc1();
    let factor = num_nodes as f64 / base.cluster.num_nodes() as f64;
    let cluster = rsc_cluster::spec::ClusterSpec::new(format!("RSC-1@{num_nodes}"), num_nodes);
    let mut workload = base.workload.scaled(factor);
    workload.calibrate_load(cluster.total_gpus(), 0.95);
    let config = SimConfig {
        cluster,
        workload,
        eras: rsc_sim::config::EraPreset::None,
        lemon_count: ((base.lemon_count as f64 * factor) as usize).max(1),
        ib_spike_node_count: 0,
        ..base
    };
    ScenarioSpec::new(config, seed, days)
}

/// Runs (or loads from cache) an RSC-1-like simulation at `1/divisor`
/// scale for `days`, returning sealed telemetry.
pub fn run_rsc1(divisor: u32, days: u64, seed: u64) -> Arc<TelemetryView> {
    runner().run_one(&rsc1_spec(divisor, days, seed))
}

/// Runs the RSC-1 and RSC-2 scenarios *in parallel* (RSC-2 seeded with
/// `seed + 1` as the figure binaries conventionally do), returning both
/// sealed views.
pub fn run_both(divisor: u32, days: u64, seed: u64) -> (Arc<TelemetryView>, Arc<TelemetryView>) {
    let specs = [
        rsc1_spec(divisor, days, seed),
        rsc2_spec(divisor, days, seed + 1),
    ];
    let mut views = runner().run_all(&specs).into_iter();
    let rsc1 = views.next().expect("runner returns one view per spec");
    let rsc2 = views.next().expect("runner returns one view per spec");
    (rsc1, rsc2)
}

/// Runs a batch of scenario specs in parallel through the shared runner.
pub fn run_specs(specs: &[ScenarioSpec]) -> Vec<Arc<TelemetryView>> {
    runner().run_all(specs)
}

/// Common command-line arguments for the figure/table binaries.
///
/// Supported flags, each as `--flag N` or `--flag=N`:
///
/// * `--seed N` — RNG seed (default [`FIGURE_SEED`]);
/// * `--days N` — horizon in days (default [`MEASUREMENT_DAYS`]);
/// * `--scale N` — run clusters at `1/N` scale (default per binary).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BenchArgs {
    /// RNG seed.
    pub seed: u64,
    /// Horizon in days.
    pub days: u64,
    /// Scale divisor: simulate at `1/scale` of full cluster size.
    pub scale: u32,
}

impl BenchArgs {
    /// Parses `std::env::args()`, exiting with a usage message on
    /// malformed flags. `default_scale` is the binary's stated scale.
    pub fn parse(default_scale: u32) -> Self {
        Self::parse_from(std::env::args().skip(1), default_scale)
            .unwrap_or_else(|e| exit_with_usage(&e, "[--seed N] [--days N] [--scale N]"))
    }

    /// Parses an explicit argument list (testable core of [`parse`](Self::parse)).
    ///
    /// # Errors
    ///
    /// Returns a message for unknown flags, missing values, unparseable
    /// numbers, or a zero `--days` or `--scale`.
    pub fn parse_from<I>(args: I, default_scale: u32) -> Result<Self, String>
    where
        I: IntoIterator<Item = String>,
    {
        let args = cli::parse(args, &["seed", "days", "scale"], &[])?;
        let out = BenchArgs {
            seed: args.parse_or("seed", FIGURE_SEED)?,
            days: args.parse_or("days", MEASUREMENT_DAYS)?,
            scale: args.parse_or("scale", default_scale)?,
        };
        if out.days == 0 {
            return Err("--days must be positive".to_string());
        }
        if out.scale == 0 {
            return Err("--scale must be positive".to_string());
        }
        Ok(out)
    }

    /// A short human-readable summary for figure banners. `cluster` may be
    /// empty when the binary names the clusters itself.
    pub fn scale_note(&self, cluster: &str) -> String {
        let prefix = if cluster.is_empty() {
            String::new()
        } else {
            format!("{cluster} ")
        };
        format!(
            "{prefix}at 1/{} scale, {} simulated days, seed {}",
            self.scale, self.days, self.seed
        )
    }
}

/// For a binary that takes no arguments: refuses any it is given, so a
/// flag such as `--seed 5` cannot silently run the default.
pub fn no_args() {
    if let Err(e) = cli::parse(std::env::args().skip(1), &[], &[]) {
        exit_with_usage(&e, "(no arguments)");
    }
}

/// Prints `error` and the binary's `usage` to stderr and exits with
/// status 2.
pub fn exit_with_usage(error: &str, usage: &str) -> ! {
    eprintln!("error: {error}");
    eprintln!("usage: {usage}");
    std::process::exit(2)
}

/// Where figure CSVs land, resolved in order:
///
/// 1. `$RSC_FIGURES_DIR` — explicit override;
/// 2. `$CARGO_TARGET_DIR/figures` — follows a relocated target dir;
/// 3. `target/figures` relative to the working directory.
pub fn figures_dir() -> PathBuf {
    if let Ok(dir) = std::env::var("RSC_FIGURES_DIR") {
        if !dir.is_empty() {
            return PathBuf::from(dir);
        }
    }
    if let Ok(target) = std::env::var("CARGO_TARGET_DIR") {
        if !target.is_empty() {
            return Path::new(&target).join("figures");
        }
    }
    PathBuf::from("target").join("figures")
}

/// Writes a figure CSV and reports the path.
pub fn save_csv<S: AsRef<str>>(name: &str, header: &[&str], rows: Vec<Vec<S>>) {
    let path = figures_dir().join(name);
    match rsc_telemetry::csv::write_csv_file(&path, header, rows) {
        Ok(()) => println!("\n[csv] wrote {}", path.display()),
        Err(e) => eprintln!("[csv] failed to write {}: {e}", path.display()),
    }
}

/// Formats a fraction as a percentage with sensible precision.
pub fn pct(x: f64) -> String {
    if x == 0.0 {
        "0%".to_string()
    } else if x < 0.001 {
        format!("{:.3}%", x * 100.0)
    } else if x < 0.10 {
        format!("{:.2}%", x * 100.0)
    } else {
        format!("{:.1}%", x * 100.0)
    }
}

/// A fixed-width ASCII bar for quick terminal "plots".
pub fn bar(value: f64, max: f64, width: usize) -> String {
    if max <= 0.0 {
        return String::new();
    }
    let n = ((value / max) * width as f64).round() as usize;
    "#".repeat(n.min(width))
}

/// Prints a figure banner.
pub fn banner(id: &str, title: &str, scale_note: &str) {
    println!("==================================================================");
    println!("{id}: {title}");
    println!("  ({scale_note})");
    println!("==================================================================");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str], default_scale: u32) -> Result<BenchArgs, String> {
        BenchArgs::parse_from(args.iter().map(|s| s.to_string()), default_scale)
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.0), "0%");
        assert_eq!(pct(0.0005), "0.050%");
        assert_eq!(pct(0.05), "5.00%");
        assert_eq!(pct(0.5), "50.0%");
    }

    #[test]
    fn bar_scales() {
        assert_eq!(bar(5.0, 10.0, 10), "#####");
        assert_eq!(bar(20.0, 10.0, 10), "##########");
        assert_eq!(bar(1.0, 0.0, 10), "");
    }

    #[test]
    fn args_defaults() {
        let a = parse(&[], 8).unwrap();
        assert_eq!(a.seed, FIGURE_SEED);
        assert_eq!(a.days, MEASUREMENT_DAYS);
        assert_eq!(a.scale, 8);
    }

    #[test]
    fn args_parse_both_styles() {
        let a = parse(&["--seed", "7", "--days=14", "--scale", "32"], 8).unwrap();
        assert_eq!((a.seed, a.days, a.scale), (7, 14, 32));
    }

    #[test]
    fn args_keep_their_range_checks() {
        assert_eq!(
            parse(&["--days", "0"], 8).unwrap_err(),
            "--days must be positive"
        );
        assert_eq!(
            parse(&["--scale=0"], 8).unwrap_err(),
            "--scale must be positive"
        );
        // `--scale` is a u32: a larger value is refused, not wrapped.
        assert!(parse(&["--scale", "4294967296"], 8).is_err());
        assert!(parse(&["--frobnicate", "1"], 8).is_err());
    }

    #[test]
    fn sized_spec_matches_node_count() {
        let spec = rsc1_sized_spec(512, 3, 1);
        assert_eq!(spec.config.cluster.num_nodes(), 512);
        assert_eq!(spec.days, 3);
    }

    #[test]
    fn small_run_produces_telemetry() {
        // Uncached spec path: keep harness tests hermetic.
        let view = rsc_sim::ScenarioRunner::without_cache().run_one(&rsc1_spec(32, 2, 1));
        assert!(!view.jobs().is_empty());
    }
}
