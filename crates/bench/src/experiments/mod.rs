//! One module per table/figure of the paper's evaluation section.

pub mod ablations;
pub mod ext_contained;
pub mod ext_topk;
pub mod fig5_quality;
pub mod fig6_trials;
pub mod fig7_breakdown;
pub mod fig8_comm;
pub mod fig9_identity;
pub mod table1_datasets;
pub mod table2_scaling;

use crate::data::PreparedDataset;
use jem_baseline::MashmapConfig;
use jem_core::{run_distributed_resilient, DistributedOutcome, MapperConfig, ResilienceOptions};
use jem_psim::{CostModel, ExecMode};
use jem_sim::{paper_analogues, DatasetId, DatasetSpec};

/// The paper's default JEM configuration (§IV-A-c).
pub fn jem_config() -> MapperConfig {
    MapperConfig::default()
}

/// Mashmap configured per its own parameterization rule.
///
/// Mashmap derives its window from the sketch-size formula (Jain et al.
/// 2017): for ℓ = 1000 bp segments at HiFi identity the sketch size is
/// s ≈ 200, giving `w = 2ℓ/s ≈ 10` — an order of magnitude denser minimizer
/// sampling than JEM's `w = 100`. That density is what makes the real
/// Mashmap's per-query work (position lists + local-intersection windows)
/// much heavier than JEM's, and is the source of the runtime gap in
/// Table II. `min_shared` plays the role of Mashmap's stage-1 count cutoff
/// `m = ⌈s·τ⌉`.
pub fn mashmap_config() -> MashmapConfig {
    MashmapConfig {
        k: 16,
        w: 10,
        ell: 1000,
        min_shared: 4,
    }
}

/// All dataset analogues at the environment scale.
pub fn all_specs() -> Vec<DatasetSpec> {
    paper_analogues(crate::env_scale())
}

/// The seven simulated inputs (Fig. 5 uses these; O. sativa is "real").
pub fn simulated_specs() -> Vec<DatasetSpec> {
    all_specs()
        .into_iter()
        .filter(|s| s.id != DatasetId::OSativaChr8)
        .collect()
}

/// The six larger inputs used in the performance study (Table II, Figs. 7–8).
pub fn performance_specs() -> Vec<DatasetSpec> {
    all_specs()
        .into_iter()
        .filter(|s| !matches!(s.id, DatasetId::EColi | DatasetId::PAeruginosa))
        .collect()
}

/// Fetch one spec by id.
pub fn spec(id: DatasetId) -> DatasetSpec {
    all_specs()
        .into_iter()
        .find(|s| s.id == id)
        .expect("known dataset id")
}

/// The faster of two fault-free distributed runs of `prep` on `p` ranks,
/// by makespan — the one sampling rule of Table II and Figs. 7a and 7b:
/// a single wall-clock sample jitters with the host, the faster of two is
/// the stable estimator.
pub fn faster_of_two_runs(
    prep: &PreparedDataset,
    config: &MapperConfig,
    p: usize,
    cost: CostModel,
) -> DistributedOutcome {
    (0..2)
        .map(|_| {
            run_distributed_resilient(
                &prep.subjects,
                &prep.reads,
                config,
                p,
                cost,
                ExecMode::Sequential,
                &ResilienceOptions::default(),
            )
            .expect("a fault-free run cannot fail")
        })
        .min_by(|a, b| {
            a.report
                .makespan_secs()
                .total_cmp(&b.report.makespan_secs())
        })
        .expect("two runs")
}
