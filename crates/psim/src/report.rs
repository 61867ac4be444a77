//! Per-step timing reports and the simulated-makespan computation.

use crate::fault::FaultStats;
use jem_obs::Recorder;

/// Span path a pipeline step reports under (metric names are static; see
/// DESIGN.md §9). Known step names map to their own `psim/<step>` path;
/// retry and re-request steps carry a round suffix (`"subject sketch
/// retry 1"`) and fold into their base step by prefix, so a Fig.-7-style
/// breakdown aggregates replayed work with the step it replays. Names the
/// table does not know land in `"psim/other"`.
pub fn step_span_path(name: &str) -> &'static str {
    const PATHS: &[(&str, &str)] = &[
        ("input load", "psim/input load"),
        ("subject sketch", "psim/subject sketch"),
        ("sketch re-request", "psim/sketch re-request"),
        ("sketch gather", "psim/sketch gather"),
        ("global table build", "psim/global table build"),
        ("query map", "psim/query map"),
        ("result gather", "psim/result gather"),
    ];
    for (prefix, path) in PATHS {
        if name.starts_with(prefix) {
            return path;
        }
    }
    "psim/other"
}

/// Simulated seconds → recorder nanoseconds (saturating; times are finite
/// and non-negative by construction).
pub(crate) fn secs_to_ns(secs: f64) -> u64 {
    (secs * 1e9) as u64
}

/// Report one step into `rec`: the step-kind counter, per-rank compute
/// observations, comm bytes, and the critical-path span. Shared by the
/// world's live path and [`RunReport::record_to`].
pub(crate) fn record_step(step: &StepReport, rec: &dyn Recorder) {
    match step.kind {
        StepKind::Compute => {
            rec.add("psim.supersteps", 1);
            for &secs in &step.per_rank_secs {
                rec.observe("psim.rank_compute_ns", secs_to_ns(secs));
            }
        }
        StepKind::Communication => {
            rec.add("psim.collectives", 1);
            rec.add("psim.comm_bytes", step.bytes as u64);
        }
    }
    rec.span_ns(step_span_path(&step.name), secs_to_ns(step.critical_secs()));
}

/// Whether a step was rank-local compute or a collective.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StepKind {
    /// A superstep: every rank computed independently.
    Compute,
    /// A collective: ranks exchanged data (virtual cost).
    Communication,
}

/// Timing record of one step of a BSP run.
#[derive(Clone, Debug)]
pub struct StepReport {
    /// Step label supplied by the program.
    pub name: String,
    /// Step category.
    pub kind: StepKind,
    /// Per-rank compute seconds (empty for collectives).
    pub per_rank_secs: Vec<f64>,
    /// Virtual communication seconds (0 for compute steps).
    pub comm_secs: f64,
    /// Total payload bytes moved (collectives only).
    pub bytes: usize,
}

impl StepReport {
    /// This step's contribution to the simulated makespan: the slowest
    /// rank for compute steps, the modeled cost for collectives.
    pub fn critical_secs(&self) -> f64 {
        match self.kind {
            StepKind::Compute => self.per_rank_secs.iter().cloned().fold(0.0, f64::max),
            StepKind::Communication => self.comm_secs,
        }
    }
}

/// Complete timing record of a BSP run.
#[derive(Clone, Debug, Default)]
pub struct RunReport {
    /// Steps in execution order.
    pub steps: Vec<StepReport>,
    /// Number of ranks the run used.
    pub ranks: usize,
    /// Fault and recovery counters (all zero for a fault-free run). The
    /// world fills the fault side (crashes/corruption/straggles); a
    /// recovering driver fills the recovery side (retries/reassignments/
    /// re-requests).
    pub fault_stats: FaultStats,
}

impl RunReport {
    /// Simulated wall-clock: `Σ_steps critical_secs` — what a BSP MPI
    /// program's elapsed time converges to.
    pub fn makespan_secs(&self) -> f64 {
        self.steps.iter().map(StepReport::critical_secs).sum()
    }

    /// Critical-path compute seconds (max-rank per superstep, summed).
    pub fn compute_secs(&self) -> f64 {
        self.steps
            .iter()
            .filter(|s| s.kind == StepKind::Compute)
            .map(StepReport::critical_secs)
            .sum()
    }

    /// Total modeled communication seconds.
    pub fn comm_secs(&self) -> f64 {
        self.steps
            .iter()
            .filter(|s| s.kind == StepKind::Communication)
            .map(|s| s.comm_secs)
            .sum()
    }

    /// Fraction of the makespan spent communicating, in `[0, 1]`.
    pub fn comm_fraction(&self) -> f64 {
        let total = self.makespan_secs();
        if total == 0.0 {
            0.0
        } else {
            self.comm_secs() / total
        }
    }

    /// Total bytes moved by collectives.
    pub fn total_bytes(&self) -> usize {
        self.steps.iter().map(|s| s.bytes).sum()
    }

    /// Replay the whole report into `rec`: every step (spans, superstep/
    /// collective counters, comm bytes, per-rank compute histogram) plus
    /// the fault and recovery counters. This is the bridge from the
    /// simulated Fig.-7-style breakdown to a metrics snapshot.
    ///
    /// A run executed while a recorder was installed has already reported
    /// all of this live (see [`crate::World`]); `record_to` exists to
    /// replay a stored or hand-built report into a *fresh* recorder —
    /// replaying into the same recorder the run reported to would double
    /// every value.
    pub fn record_to(&self, rec: &dyn Recorder) {
        for step in &self.steps {
            record_step(step, rec);
        }
        let f = &self.fault_stats;
        rec.add("psim.crashes", f.crashes as u64);
        rec.add("psim.corrupt_payloads", f.corrupt_payloads as u64);
        rec.add("psim.straggles", f.straggles as u64);
        rec.add("psim.retries", f.retries as u64);
        rec.add("psim.reassigned_blocks", f.reassigned_blocks as u64);
        rec.add("psim.re_requests", f.re_requests as u64);
    }

    /// Critical seconds of the step with the given name (0 if absent;
    /// summed over repeated names). Folds from +0.0 rather than `Sum`'s
    /// -0.0 identity so an absent step never prints as "-0.000000".
    pub fn step_secs(&self, name: &str) -> f64 {
        self.steps
            .iter()
            .filter(|s| s.name == name)
            .map(StepReport::critical_secs)
            .fold(0.0, |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn compute(name: &str, per_rank: &[f64]) -> StepReport {
        StepReport {
            name: name.into(),
            kind: StepKind::Compute,
            per_rank_secs: per_rank.to_vec(),
            comm_secs: 0.0,
            bytes: 0,
        }
    }

    fn comm(name: &str, secs: f64, bytes: usize) -> StepReport {
        StepReport {
            name: name.into(),
            kind: StepKind::Communication,
            per_rank_secs: Vec::new(),
            comm_secs: secs,
            bytes,
        }
    }

    #[test]
    fn makespan_is_critical_path() {
        let r = RunReport {
            steps: vec![
                compute("a", &[1.0, 3.0, 2.0]),
                comm("x", 0.5, 100),
                compute("b", &[2.0, 1.0, 1.0]),
            ],
            ranks: 3,
            ..Default::default()
        };
        assert!((r.makespan_secs() - 5.5).abs() < 1e-12);
        assert!((r.compute_secs() - 5.0).abs() < 1e-12);
        assert!((r.comm_secs() - 0.5).abs() < 1e-12);
        assert!((r.comm_fraction() - 0.5 / 5.5).abs() < 1e-12);
        assert_eq!(r.total_bytes(), 100);
    }

    #[test]
    fn step_lookup_sums_repeats() {
        let r = RunReport {
            steps: vec![
                compute("map", &[1.0]),
                compute("map", &[2.0]),
                comm("gather", 0.25, 8),
            ],
            ranks: 1,
            ..Default::default()
        };
        assert!((r.step_secs("map") - 3.0).abs() < 1e-12);
        assert!((r.step_secs("gather") - 0.25).abs() < 1e-12);
        assert_eq!(r.step_secs("absent"), 0.0);
    }

    #[test]
    fn empty_report_is_zero() {
        let r = RunReport::default();
        assert_eq!(r.makespan_secs(), 0.0);
        assert_eq!(r.comm_fraction(), 0.0);
    }

    #[test]
    fn critical_is_the_slowest_rank() {
        let s = compute("a", &[1.0, 2.0, 3.0]);
        assert!((s.critical_secs() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn step_span_paths_fold_retries_into_base_steps() {
        assert_eq!(step_span_path("query map"), "psim/query map");
        assert_eq!(
            step_span_path("subject sketch retry 2"),
            "psim/subject sketch"
        );
        assert_eq!(
            step_span_path("sketch re-request 1"),
            "psim/sketch re-request"
        );
        assert_eq!(
            step_span_path("sketch re-request comm"),
            "psim/sketch re-request"
        );
        assert_eq!(step_span_path("sketch gather"), "psim/sketch gather");
        assert_eq!(step_span_path("warmup"), "psim/other");
    }

    #[test]
    fn record_to_replays_breakdown_and_fault_counters() {
        let mut r = RunReport {
            steps: vec![
                compute("query map", &[1.0, 3.0]),
                comm("result gather", 0.5, 256),
                compute("query map", &[0.0, 1.0]),
            ],
            ranks: 2,
            ..Default::default()
        };
        r.fault_stats.crashes = 1;
        r.fault_stats.re_requests = 4;
        let rec = jem_obs::MetricsRecorder::new();
        r.record_to(&rec);
        let s = rec.snapshot();
        assert_eq!(s.counter("psim.supersteps"), 2);
        assert_eq!(s.counter("psim.collectives"), 1);
        assert_eq!(s.counter("psim.comm_bytes"), 256);
        assert_eq!(s.counter("psim.crashes"), 1);
        assert_eq!(s.counter("psim.re_requests"), 4);
        assert_eq!(s.counter("psim.retries"), 0);
        // Repeated step names accumulate into one span (3s + 1s critical).
        let span = &s.spans["psim/query map"];
        assert_eq!(span.count, 2);
        assert_eq!(span.total_ns, 4_000_000_000);
        assert_eq!(s.spans["psim/result gather"].total_ns, 500_000_000);
        assert_eq!(s.histograms["psim.rank_compute_ns"].count, 4);
    }
}
