//! Effective Training Time Ratio (ETTR): definition, analytical estimator,
//! Monte-Carlo validation, job-run measurement, and scale requirements.
//!
//! ETTR is the paper's headline reliability metric (§II-D): the ratio of
//! *productive* runtime to available wallclock time of a logical job run.
//! This module provides all four views the paper uses:
//!
//! - [`analytical`] — closed-form E\[ETTR\] (Eq. 1/2, Appendix A);
//! - [`montecarlo`] — direct simulation of a run's failure dynamics,
//!   used to validate the approximation (~5% agreement);
//! - [`jobrun`] — measured ETTR reconstructed from accounting records
//!   (Fig. 9);
//! - [`requirements`] — inverting the estimator for checkpoint-interval
//!   requirements at 100k-GPU scale (Fig. 10);
//! - [`restart`] — scale-aware restart overhead (§V's poorly-scaling
//!   NCCL initialization) and what optimizing it buys.

pub mod analytical;
pub mod jobrun;
pub mod montecarlo;
pub mod requirements;
pub mod restart;

pub use analytical::{expected_ettr, expected_ettr_simplified, EttrParams};
pub use jobrun::{
    ettr_by_size_bucket, long_high_priority_runs, reconstruct_job_runs, EttrBucket, JobRun,
};
pub use montecarlo::{
    monte_carlo_ettr, monte_carlo_ettr_with_loss, CheckpointLossModel, MonteCarloEttr,
};
pub use requirements::{max_checkpoint_interval_mins, max_coupled_interval_mins};
pub use restart::RestartOverheadModel;
