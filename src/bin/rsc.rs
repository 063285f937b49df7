//! `rsc` — command-line front end for the reproduction.
//!
//! Subcommands:
//!
//! - `simulate` — run a simulated cluster and export a `sacct`-style job
//!   trace CSV;
//! - `analyze`  — run the paper's job-level analyses over a trace CSV
//!   (simulated or converted from real accounting data);
//! - `project`  — MTTF projections from a failure rate;
//! - `ettr`     — expected-ETTR calculator (analytic + Monte Carlo).
//!
//! Run `rsc help` for usage.

use std::fmt;
use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::process::ExitCode;

use rsc_reliability::analysis::attribution::AttributionConfig;
use rsc_reliability::analysis::cluster_goodput::{goodput_waterfall, utilization};
use rsc_reliability::analysis::ettr::analytical::{expected_ettr, EttrParams};
use rsc_reliability::analysis::ettr::jobrun::{
    ettr_by_size_bucket, long_high_priority_runs, reconstruct_job_runs,
};
use rsc_reliability::analysis::ettr::montecarlo::monte_carlo_ettr;
use rsc_reliability::analysis::goodput::goodput_loss;
use rsc_reliability::analysis::mttf::{mttf_by_job_size, FailureScope, MttfProjection};
use rsc_reliability::analysis::queueing::{mean_wait_hours, wait_by_size_and_qos};
use rsc_reliability::analysis::report::{size_distribution, status_breakdown};
use rsc_reliability::sched::accounting::JobRecord;
use rsc_reliability::sim::{ScenarioSpec, SimConfig};
use rsc_reliability::simcore::cli::{self, Args};
use rsc_reliability::simcore::rng::SimRng;
use rsc_reliability::simcore::time::SimDuration;
use rsc_reliability::telemetry::store::TelemetryStore;
use rsc_reliability::telemetry::trace::{export_jobs, import_jobs};

const USAGE: &str = "\
rsc — reliability analysis for large-scale ML clusters

USAGE:
  rsc simulate [--cluster rsc1|rsc2|small] [--days N] [--scale D]
               [--seed S] [--lemons N] [--out trace.csv]
  rsc analyze  --trace trace.csv
  rsc project  [--rate PER_1000_NODE_DAYS] [--gpus N[,N...]]
  rsc ettr     --gpus N [--rate R] [--checkpoint MIN] [--overhead MIN]
               [--queue MIN] [--work DAYS] [--trials N]
  rsc help
";

type Command = fn(&Args) -> Result<(), String>;

/// Each subcommand with the flags `USAGE` lists for it.
const COMMANDS: [(&str, &[&str], Command); 4] = [
    (
        "simulate",
        &["cluster", "days", "scale", "seed", "lemons", "out"],
        cmd_simulate,
    ),
    ("analyze", &["trace"], cmd_analyze),
    ("project", &["rate", "gpus"], cmd_project),
    (
        "ettr",
        &[
            "gpus",
            "rate",
            "checkpoint",
            "overhead",
            "queue",
            "work",
            "trials",
        ],
        cmd_ettr,
    ),
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprint!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let result = match cmd.as_str() {
        "help" | "--help" | "-h" => {
            print!("{USAGE}");
            Ok(())
        }
        other => match COMMANDS.iter().find(|(name, ..)| *name == other) {
            Some((_, known, run)) => {
                cli::parse(args[1..].iter().cloned(), known, &[]).and_then(|flags| run(&flags))
            }
            None => Err(format!("unknown command {other:?}\n{USAGE}")),
        },
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_simulate(flags: &Args) -> Result<(), String> {
    let cluster = flags.get("cluster").unwrap_or("small");
    let days = flags.parse_or("days", 30)?;
    let scale = flags.parse_or("scale", 1)?;
    let seed = flags.parse_or("seed", 42)?;
    let mut config = match cluster {
        "rsc1" => SimConfig::rsc1(),
        "rsc2" => SimConfig::rsc2(),
        "small" => SimConfig::small_test_cluster(),
        other => return Err(format!("unknown cluster {other:?} (rsc1|rsc2|small)")),
    };
    if scale > 1 {
        config = config.scaled_down(scale);
    }
    config.lemon_count = flags.parse_or("lemons", config.lemon_count)?;
    println!(
        "simulating {} ({} nodes, {} GPUs) for {days} days, seed {seed}...",
        config.cluster.name(),
        config.cluster.num_nodes(),
        config.cluster.total_gpus()
    );
    let spec = ScenarioSpec::new(config, seed, days);
    let store = spec.simulate(); // uncached: the CLI writes no artifact files
    let util = utilization(&store, spec.config.cluster.gpus_per_node());
    println!("mean utilization: {:.1}%", util * 100.0);
    println!(
        "records: {} jobs, {} health events, {} failures injected, {} GPU swaps",
        store.jobs().len(),
        store.health_events().len(),
        store.ground_truth_failures().len(),
        store.gpu_swaps()
    );
    if let Some(path) = flags.get("out") {
        let file = File::create(path).map_err(|e| format!("create {path}: {e}"))?;
        let mut w = BufWriter::new(file);
        export_jobs(&mut w, store.jobs()).map_err(|e| format!("write {path}: {e}"))?;
        println!("trace written to {path}");
    }
    Ok(())
}

/// A trace names a node whose index the largest fleet cannot hold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct NodeIdOutOfRange {
    node: u32,
}

impl fmt::Display for NodeIdOutOfRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "node id {} is outside every fleet: a fleet holds at most {} nodes",
            self.node,
            u32::MAX
        )
    }
}

/// The fleet a trace runs on: one past its highest node index (one node
/// for a trace without any), counted in `u64` so the top id cannot wrap.
fn fleet_size(records: &[JobRecord]) -> Result<u32, NodeIdOutOfRange> {
    let Some(top) = records.iter().flat_map(|r| r.nodes.iter()).max() else {
        return Ok(1);
    };
    u32::try_from(u64::from(top.index()) + 1).map_err(|_| NodeIdOutOfRange { node: top.index() })
}

fn cmd_analyze(flags: &Args) -> Result<(), String> {
    let path = flags
        .get("trace")
        .ok_or("analyze requires --trace <file>")?;
    let file = File::open(path).map_err(|e| format!("open {path}: {e}"))?;
    let records = import_jobs(BufReader::new(file)).map_err(|e| e.to_string())?;
    if records.is_empty() {
        return Err("trace contains no records".to_string());
    }
    let num_nodes = fleet_size(&records).map_err(|e| e.to_string())?;
    let mut store = TelemetryStore::new("trace", num_nodes);
    let horizon = records.iter().map(|r| r.ended_at).max().expect("non-empty");
    store.extend_jobs(records);
    store.set_horizon(horizon);
    let store = store.seal();

    println!("== status breakdown ==");
    for s in status_breakdown(&store) {
        if s.job_fraction > 0.0 {
            println!(
                "  {:<14} {:>7.3}% of jobs  {:>7.3}% of GPU-time",
                s.status.label(),
                s.job_fraction * 100.0,
                s.gpu_time_fraction * 100.0
            );
        }
    }

    println!("\n== job-size distribution ==");
    for s in size_distribution(&store) {
        println!(
            "  {:>6} GPUs  {:>7.3}% of jobs  {:>7.3}% of GPU-time",
            s.gpus,
            s.job_fraction * 100.0,
            s.gpu_time_fraction * 100.0
        );
    }

    println!("\n== MTTF by job size (all failure statuses) ==");
    let points = mttf_by_job_size(
        &store,
        FailureScope::AllFailures,
        &AttributionConfig::paper_default(),
    );
    for p in points {
        if p.failures > 0 {
            println!(
                "  {:>6} GPUs  {:>5} failures  MTTF {:>9.1} h",
                p.gpus, p.failures, p.mttf_hours
            );
        }
    }

    println!("\n== job runs (ETTR at 60-min checkpoints, 5-min restarts) ==");
    let runs = reconstruct_job_runs(&store);
    let selected = long_high_priority_runs(&runs, SimDuration::from_hours(24));
    println!(
        "  {} runs total, {} long high-priority",
        runs.len(),
        selected.len()
    );
    for b in ettr_by_size_bucket(
        &selected,
        SimDuration::from_mins(60),
        SimDuration::from_mins(5),
    ) {
        println!(
            "  {:>6}-{:<6} GPUs  {:>4} runs  mean ETTR {:.3}",
            b.gpus_lo, b.gpus_hi, b.runs, b.mean_ettr
        );
    }

    let loss = goodput_loss(&store, &AttributionConfig::paper_default());
    println!(
        "\n== goodput loss == {:.0} GPU-h from failures, {:.0} GPU-h from requeue preemptions ({:.1}% second-order)",
        loss.total_failure_loss,
        loss.total_preemption_loss,
        loss.preemption_share() * 100.0
    );

    let w = goodput_waterfall(
        &store,
        8,
        SimDuration::from_mins(60),
        SimDuration::from_mins(5),
    );
    let (p, r, l, i) = w.fractions();
    println!(
        "== capacity waterfall == productive {:.1}% | restart {:.2}% | replay {:.2}% | idle {:.1}%",
        p * 100.0,
        r * 100.0,
        l * 100.0,
        i * 100.0
    );

    println!(
        "\n== queue waits == mean {:.2} h overall",
        mean_wait_hours(&store)
    );
    for b in wait_by_size_and_qos(&store) {
        if b.count >= 50 {
            println!(
                "  {:>6}+ GPUs {:<7} {:>6} starts, mean {:.2} h, max {:.1} h",
                b.gpus_lo,
                b.qos.to_string(),
                b.count,
                b.mean_wait_hours,
                b.max_wait_hours
            );
        }
    }
    Ok(())
}

fn cmd_project(flags: &Args) -> Result<(), String> {
    let rate = flags.parse_or("rate", 6.50)? / 1000.0;
    let gpus: Vec<u32> = match flags.get("gpus") {
        None => vec![1024, 4096, 16_384, 65_536, 131_072],
        Some(v) => v
            .split(',')
            .map(|s| s.trim().parse().map_err(|_| format!("bad GPU count {s:?}")))
            .collect::<Result<_, _>>()?,
    };
    let proj = MttfProjection::new(rate);
    println!(
        "MTTF projections at {:.2} failures per 1000 node-days:",
        rate * 1000.0
    );
    for g in gpus {
        let h = proj.mttf_hours(g);
        if h >= 1.0 {
            println!("  {g:>8} GPUs -> {h:.2} h");
        } else {
            println!("  {g:>8} GPUs -> {:.1} min", h * 60.0);
        }
    }
    Ok(())
}

fn cmd_ettr(flags: &Args) -> Result<(), String> {
    let gpus = flags.parse_or("gpus", 0u32)?;
    if gpus == 0 {
        return Err("ettr requires --gpus <count>".to_string());
    }
    let params = EttrParams {
        nodes: gpus.div_ceil(8),
        r_f: flags.parse_or("rate", 6.50)? / 1000.0,
        queue_time: flags.parse_or("queue", 5.0)? / 60.0 / 24.0,
        restart_overhead: flags.parse_or("overhead", 5.0)? / 60.0 / 24.0,
        checkpoint_interval: flags.parse_or("checkpoint", 60.0)? / 60.0 / 24.0,
        productive_time: flags.parse_or("work", 7.0)?,
    };
    let trials = flags.parse_or("trials", 4000)?;
    let analytic = expected_ettr(&params);
    let mut rng = SimRng::seed_from(1);
    let mc = monte_carlo_ettr(&params, trials, &mut rng);
    println!(
        "job: {gpus} GPUs ({} nodes), MTTF {:.2} h",
        params.nodes,
        params.mttf_days() * 24.0
    );
    println!(
        "expected failures over the run: {:.2}",
        params.expected_failures()
    );
    println!("E[ETTR] analytic:     {analytic:.4}");
    println!(
        "E[ETTR] monte carlo:  {:.4} ± {:.4} ({} trials)",
        mc.mean,
        1.645 * mc.std_error,
        trials
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parses `raw` against the flags `USAGE` lists for `cmd`.
    fn parse(cmd: &str, raw: &[&str]) -> Result<Args, String> {
        let known = COMMANDS.iter().find(|(name, ..)| *name == cmd).unwrap().1;
        cli::parse(raw.iter().map(|s| s.to_string()), known, &[])
    }

    #[test]
    fn mistyped_flag_is_rejected_by_name() {
        let err = parse("simulate", &["--sead", "5"]).unwrap_err();
        assert!(err.contains("--sead"), "{err}");
        // A flag of another subcommand is just as unknown here.
        assert!(parse("simulate", &["--trials", "9"]).is_err());
        let flags = parse("simulate", &["--seed", "5"]).unwrap();
        assert_eq!(flags.get("seed"), Some("5"));
        let flags = parse("ettr", &["--gpus=16"]).unwrap();
        assert_eq!(flags.parse_or("gpus", 0u32), Ok(16));
    }

    #[test]
    fn stray_positional_and_missing_value_are_rejected() {
        let err = parse("simulate", &["--days", "3", "extra"]).unwrap_err();
        assert!(err.contains("\"extra\""), "{err}");
        let err = parse("analyze", &["--trace"]).unwrap_err();
        assert!(err.contains("--trace"), "{err}");
    }

    /// Writes a one-row trace whose job ran on `node` and analyzes it.
    fn analyze_one_row(node: u32) -> Result<(), String> {
        let path =
            std::env::temp_dir().join(format!("rsc-one-row-{}-{node}.csv", std::process::id()));
        let trace = format!(
            "job,attempt,run,gpus,qos,nodes,enqueued_at,started_at,ended_at,status,preempted_by,instigator\n\
             1,0,,8,normal,{node},0,60,3600,NODE_FAIL,,\n"
        );
        std::fs::write(&path, trace).unwrap();
        let result = cmd_analyze(&parse("analyze", &["--trace", path.to_str().unwrap()]).unwrap());
        std::fs::remove_file(&path).unwrap();
        result
    }

    #[test]
    fn analyze_refuses_a_node_id_no_fleet_can_hold() {
        let err = analyze_one_row(u32::MAX).unwrap_err();
        assert_eq!(err, NodeIdOutOfRange { node: u32::MAX }.to_string());
        analyze_one_row(5).unwrap();
    }

    #[test]
    fn every_known_flag_is_documented() {
        for (cmd, flags, _) in COMMANDS {
            let line = USAGE
                .split("\n  rsc ")
                .find(|section| section.starts_with(cmd))
                .unwrap_or_else(|| panic!("{cmd} missing from USAGE"));
            for flag in flags {
                assert!(line.contains(&format!("--{flag}")), "{cmd} --{flag}");
            }
        }
    }
}
