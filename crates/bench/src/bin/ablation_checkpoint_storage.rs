//! Ablation: what Fig. 10's checkpoint cadences cost the storage system.
//!
//! The paper's 100k-GPU requirements ("~2-minute checkpointing") assume
//! non-blocking writes. This harness prices those cadences on the three
//! storage tiers: sustained bandwidth demand, per-checkpoint stall, and
//! the ETTR actually achieved once stalls are charged.

use rsc_core::ettr::analytical::{expected_ettr, EttrParams};
use rsc_sim_core::time::SimDuration;
use rsc_storage::checkpoint::{CheckpointSpec, WriteMode};
use rsc_storage::requirements::{ettr_with_stalls, writers_needed};
use rsc_storage::tier::{StorageTier, TierSpec};

fn main() {
    rsc_bench::no_args();
    rsc_bench::banner(
        "Ablation",
        "Storage cost of Fig. 10 checkpoint cadences",
        "100k-GPU run, 2T-parameter model (32 TB checkpoints), RSC-2 failure rate",
    );
    let size_gb = 32_000.0;
    let r_f = 2.34e-3;
    let nodes = 12_500u32;

    println!(
        "\n{:>10} {:>12} {:>10} {:>12} {:>14} {:>12} {:>12}",
        "interval", "tier", "writers", "stall/ckpt", "demand GB/s", "ETTR(fail)", "ETTR(total)"
    );
    println!("{}", "-".repeat(88));
    let mut rows = Vec::new();
    for interval_mins in [60u64, 21, 7, 2] {
        let interval = SimDuration::from_mins(interval_mins);
        for tier_kind in StorageTier::ALL {
            let tier = TierSpec::rsc_default(tier_kind);
            // Shard enough to drain each write in half the interval.
            let budget = SimDuration::from_secs((interval.as_secs() / 2).max(1));
            let Some(writers) = writers_needed(size_gb, budget, &tier) else {
                println!(
                    "{:>7}min {:>12} {:>10} {:>12} {:>14} {:>12} {:>12}",
                    interval_mins,
                    tier_kind.label(),
                    "-",
                    "infeasible",
                    "-",
                    "-",
                    "-"
                );
                rows.push(vec![
                    interval_mins.to_string(),
                    tier_kind.label().to_string(),
                    String::new(),
                    "infeasible".to_string(),
                    String::new(),
                    String::new(),
                ]);
                continue;
            };
            let spec = CheckpointSpec {
                size_gb,
                interval,
                mode: WriteMode::NonBlocking {
                    snapshot_secs: 10.0,
                },
                writers,
            };
            let stall = spec.stall_fraction(&tier);
            let demand = spec.fleet_demand_gbps(1);
            let failure_ettr = expected_ettr(&EttrParams {
                nodes,
                r_f,
                queue_time: 1.0 / 60.0 / 24.0,
                restart_overhead: 2.0 / 60.0 / 24.0,
                checkpoint_interval: interval_mins as f64 / 60.0 / 24.0,
                productive_time: 7.0,
            });
            let total = ettr_with_stalls(failure_ettr, stall);
            println!(
                "{:>7}min {:>12} {:>10} {:>11} {:>14.0} {:>12.3} {:>12.3}",
                interval_mins,
                tier_kind.label(),
                writers,
                rsc_bench::pct(stall),
                demand,
                failure_ettr,
                total
            );
            rows.push(vec![
                interval_mins.to_string(),
                tier_kind.label().to_string(),
                writers.to_string(),
                format!("{stall:.5}"),
                format!("{demand:.1}"),
                format!("{total:.4}"),
            ]);
        }
    }
    println!("\nBlocking-write counterfactual at the 2-minute cadence (ObjectStore):");
    let tier = TierSpec::rsc_default(StorageTier::ObjectStore);
    let writers = writers_needed(size_gb, SimDuration::from_mins(1), &tier).expect("feasible");
    let blocking = CheckpointSpec {
        size_gb,
        interval: SimDuration::from_mins(2),
        mode: WriteMode::Blocking,
        writers,
    };
    println!(
        "  stall/ckpt = {} of the interval — blocking writes erase the gains",
        rsc_bench::pct(blocking.stall_fraction(&tier))
    );
    println!("\n(reading: minute-scale cadences are only viable on the object tier,");
    println!(" sharded wide, with non-blocking writes — the paper's assumption,");
    println!(" here priced at ~270 GB/s of sustained write bandwidth per run)");
    rsc_bench::save_csv(
        "ablation_checkpoint_storage.csv",
        &[
            "interval_mins",
            "tier",
            "writers",
            "stall_fraction",
            "demand_gbps",
            "ettr_total",
        ],
        rows,
    );
}
