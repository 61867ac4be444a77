//! The distributed driver: the paper's parallel steps S1–S4 (§III-C) on
//! `p` simulated ranks of the `jem-psim` BSP world, under an optional
//! adversarial [`FaultPlan`]. DESIGN.md §8 describes the pipeline and its
//! recovery model:
//!
//! * **S1** `"input load"`, **S2** `"subject sketch"` and **S4**
//!   `"query map"` run per *block* — block *b* is the share the fault-free
//!   run gives rank *b* — so a crashed rank's blocks are replayed by the
//!   survivors (`"<step> retry <n>"`) without changing the output.
//! * **S2** sketches each block's subjects into one code-keyed run
//!   ([`MaskedRun`]) and ships it as a framed, checksummed stream
//!   ([`MaskedRun::encode_framed`]).
//! * **S3** charges the `"sketch gather"` Allgatherv, verifies every
//!   frame, re-requests the frames that fail (`"sketch re-request <n>"`),
//!   and merges the runs into the replicated table once every block's run
//!   is in (`"global table build"`).
//! * A final `"result gather"` collective collects the mappings.
//! * An optional checkpoint of the replicated index lets a later run skip
//!   S1–S3; a corrupt or mismatched checkpoint is ignored, never trusted.
//!
//! Invariant: any plan that leaves at least one rank alive yields exactly
//! the mappings of [`JemMapper::map_reads`], sorted. The table is written
//! from the merged runs — independent of which rank delivered which block,
//! and when — and mappings are finally sorted by `(read_idx, end)`.

use crate::config::MapperConfig;
use crate::mapper::{JemMapper, Mapping};
use crate::persist::{load_index, save_index};
use crate::segment::make_segments;
use jem_index::{sketch_runs, FlatTable, MaskedRun, SubjectId};
use jem_psim::{
    block_range, corrupt_u64s, CostModel, ExecMode, FaultPlan, RankOutcome, RunReport, World,
};
use jem_seq::{SeqError, SeqRecord};
use jem_sketch::{sketch_masked_into, SketchScheme};
use std::fmt;
use std::path::PathBuf;

/// Result of a distributed run: mappings plus full timing.
#[derive(Clone, Debug)]
pub struct DistributedOutcome {
    /// All mappings, ordered by `(read_idx, end)`.
    pub mappings: Vec<Mapping>,
    /// BSP timing report (simulated makespan, per-step, per-rank) with the
    /// run's fault and recovery counters.
    pub report: RunReport,
    /// Total number of query segments processed.
    pub n_segments: usize,
}

impl DistributedOutcome {
    /// Fig. 7a-style breakdown of the run.
    pub fn breakdown(&self) -> StepBreakdown {
        StepBreakdown {
            input_load: self.report.step_secs("input load"),
            subject_sketch: self.report.step_secs("subject sketch"),
            sketch_gather: self.report.step_secs("sketch gather"),
            table_build: self.report.step_secs("global table build"),
            query_map: self.report.step_secs("query map"),
            result_gather: self.report.step_secs("result gather"),
        }
    }

    /// Querying throughput (segments/sec over the critical-path query time),
    /// the paper's Fig. 7b metric.
    pub fn query_throughput(&self) -> f64 {
        let t = self.report.step_secs("query map");
        if t == 0.0 {
            0.0
        } else {
            self.n_segments as f64 / t
        }
    }
}

/// Critical-path seconds per pipeline step (Fig. 7a).
#[derive(Clone, Copy, Debug, Default)]
pub struct StepBreakdown {
    /// S1: input loading.
    pub input_load: f64,
    /// S2: subject sketching.
    pub subject_sketch: f64,
    /// S3 (comm): the Allgatherv.
    pub sketch_gather: f64,
    /// S3 (compute): building the replicated global table.
    pub table_build: f64,
    /// S4: query sketching + lookup + reporting.
    pub query_map: f64,
    /// Final result collection.
    pub result_gather: f64,
}

impl StepBreakdown {
    /// Total of all steps (≈ makespan of a fault-free run).
    pub fn total(&self) -> f64 {
        self.input_load
            + self.subject_sketch
            + self.sketch_gather
            + self.table_build
            + self.query_map
            + self.result_gather
    }
}

/// Knobs of the distributed driver.
#[derive(Clone, Debug)]
pub struct ResilienceOptions {
    /// Faults to inject (empty plan = the fault-free S1–S4 run).
    pub plan: FaultPlan,
    /// Recovery rounds allowed per pipeline step before giving up.
    pub max_retries: usize,
    /// Write the replicated index here after the sketch-gather barrier; if
    /// the file already holds a matching index, S1–S3 are skipped.
    pub checkpoint: Option<PathBuf>,
}

impl Default for ResilienceOptions {
    fn default() -> Self {
        ResilienceOptions {
            plan: FaultPlan::none(),
            max_retries: 3,
            checkpoint: None,
        }
    }
}

/// Unrecoverable failure of a distributed run.
#[derive(Debug)]
pub enum ResilienceError {
    /// Every rank crashed — nobody is left to reassign work to.
    AllRanksFailed {
        /// Pipeline step at which the last rank died.
        step: String,
    },
    /// A step kept failing past [`ResilienceOptions::max_retries`].
    RetriesExhausted {
        /// Pipeline step that could not complete.
        step: String,
        /// Rounds made.
        attempts: usize,
    },
    /// The checkpoint file could not be written.
    Checkpoint(SeqError),
}

impl fmt::Display for ResilienceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResilienceError::AllRanksFailed { step } => {
                write!(
                    f,
                    "all ranks failed at step {step:?}; no survivor to recover on"
                )
            }
            ResilienceError::RetriesExhausted { step, attempts } => {
                write!(
                    f,
                    "step {step:?} still incomplete after {attempts} attempts"
                )
            }
            ResilienceError::Checkpoint(e) => write!(f, "checkpoint write failed: {e}"),
        }
    }
}

impl std::error::Error for ResilienceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ResilienceError::Checkpoint(e) => Some(e),
            _ => None,
        }
    }
}

/// Each block's outcome of one round, listed rank by rank.
type Outcomes<T> = Vec<(usize, RankOutcome<T>)>;

/// A run in progress: the world plus the driver's recovery counters, which
/// are merged into the report's `FaultStats` at the end.
struct Driver {
    world: World,
    max_retries: usize,
    retries: usize,
    reassigned: usize,
    re_requests: usize,
}

impl Driver {
    /// One round: hand `blocks` round-robin to the surviving ranks (with
    /// everyone alive and every block pending, block *b* goes to rank *b*),
    /// run them in the faulty superstep `name`, and return each block's
    /// outcome.
    fn round<T: Send>(
        &mut self,
        step: &str,
        name: &str,
        blocks: &[usize],
        f: &(impl Fn(usize) -> T + Sync),
    ) -> Result<Outcomes<T>, ResilienceError> {
        let alive = self.world.alive_ranks();
        if alive.is_empty() {
            let step = step.to_string();
            return Err(ResilienceError::AllRanksFailed { step });
        }
        let mut assign = vec![Vec::new(); self.world.ranks()];
        for (i, &b) in blocks.iter().enumerate() {
            assign[alive[i % alive.len()]].push(b);
        }
        let outcomes = self.world.superstep_faulty(name, |rank| {
            assign[rank].iter().map(|&b| f(b)).collect::<Vec<T>>()
        });
        let mut per_block = Vec::with_capacity(blocks.len());
        for (mine, outcome) in assign.iter().zip(outcomes) {
            let ids = mine.iter().copied();
            match outcome {
                RankOutcome::Ok(v) => per_block.extend(ids.zip(v.into_iter().map(RankOutcome::Ok))),
                RankOutcome::Corrupt(v) => {
                    per_block.extend(ids.zip(v.into_iter().map(RankOutcome::Corrupt)))
                }
                RankOutcome::Failed => per_block.extend(ids.map(|b| (b, RankOutcome::Failed))),
            }
        }
        Ok(per_block)
    }

    /// The retry loop: run rounds of `f` over the `pending` blocks until
    /// `deliver` — given the world, the round number and the round's
    /// outcomes — reports no block missing. A pipeline step's round 0 is
    /// the superstep `step` and round *n* replays the missing blocks as
    /// `"<step> retry <n>"`; re-requests start at round 1, named
    /// `"<step> <n>"`. No round beyond `max_retries` runs.
    fn recover<T: Send>(
        &mut self,
        step: &str,
        re_request: bool,
        mut pending: Vec<usize>,
        f: impl Fn(usize) -> T + Sync,
        mut deliver: impl FnMut(&mut World, usize, Outcomes<T>) -> Vec<usize>,
    ) -> Result<(), ResilienceError> {
        let first = usize::from(re_request);
        let mut n = first;
        while !pending.is_empty() {
            if n > self.max_retries {
                let (step, attempts) = (step.to_string(), n - first);
                return Err(ResilienceError::RetriesExhausted { step, attempts });
            }
            let name = if re_request {
                self.re_requests += pending.len();
                format!("{step} {n}")
            } else if n == 0 {
                step.to_string()
            } else {
                self.retries += 1;
                self.reassigned += pending.len();
                format!("{step} retry {n}")
            };
            let outcomes = self.round(step, &name, &pending, &f)?;
            pending = deliver(&mut self.world, n, outcomes);
            n += 1;
        }
        Ok(())
    }

    /// Run per-block work until every block has an intact result. S1 and
    /// S4 have no transport framing, so a corrupted result is redone like
    /// a lost one.
    fn run_blocks<T: Send>(
        &mut self,
        step: &str,
        f: impl Fn(usize) -> T + Sync,
    ) -> Result<Vec<T>, ResilienceError> {
        let p = self.world.ranks();
        let mut done: Vec<Option<T>> = (0..p).map(|_| None).collect();
        self.recover(step, false, (0..p).collect(), f, |_, _, outcomes| {
            let mut missing = Vec::new();
            for (b, outcome) in outcomes {
                match outcome.ok() {
                    Some(v) => done[b] = Some(v),
                    None => missing.push(b),
                }
            }
            missing
        })?;
        Ok(done
            .into_iter()
            .map(|v| v.expect("every block done"))
            .collect())
    }
}

/// The frame a block's outcome delivers: intact, garbled in transit with
/// `seed` (detection is the decoder's job, not the injector's), or `None`
/// when its rank crashed.
fn delivered(outcome: RankOutcome<Vec<u64>>, seed: u64) -> Option<Vec<u64>> {
    match outcome {
        RankOutcome::Ok(frame) => Some(frame),
        RankOutcome::Corrupt(mut frame) => {
            corrupt_u64s(&mut frame, seed);
            Some(frame)
        }
        RankOutcome::Failed => None,
    }
}

/// The global table once every block's run has arrived (they are taken
/// and merged); `None`, with the runs untouched, while any block is
/// missing.
fn build_when_complete(trials: usize, runs: &mut [Option<MaskedRun>]) -> Option<FlatTable> {
    if runs.iter().any(Option::is_none) {
        return None;
    }
    let parts = runs.iter_mut().filter_map(Option::take).collect();
    Some(FlatTable::from_runs(trials, parts))
}

/// Try to resume from a checkpoint: the file must load, and must describe
/// exactly this run's configuration and subject set. Anything else —
/// missing file, corrupt frame, stale contigs — means "compute from
/// scratch"; a checkpoint is an optimization, never an authority.
fn try_resume(
    path: &std::path::Path,
    subjects: &[SeqRecord],
    config: &MapperConfig,
) -> Option<JemMapper> {
    let mut file = std::fs::File::open(path).ok()?;
    let mapper = load_index(&mut file).ok()?;
    if mapper.config() != config || mapper.n_subjects() != subjects.len() {
        return None;
    }
    let names_match = subjects
        .iter()
        .enumerate()
        .all(|(i, s)| mapper.subject_name(i as SubjectId) == s.id);
    names_match.then_some(mapper)
}

/// Run the distributed L2C mapping (steps S1–S4) on `p` simulated ranks,
/// recovering from the crashes and corrupted payloads of `opts.plan`.
///
/// With [`ResilienceOptions::default`] this is the fault-free run behind
/// Figs. 7–8 and Table II. Under any plan that leaves at least one rank
/// alive the mappings are the same, and the report's fault counters record
/// the recovery work.
pub fn run_distributed_resilient(
    subjects: &[SeqRecord],
    reads: &[SeqRecord],
    config: &MapperConfig,
    p: usize,
    cost: CostModel,
    mode: ExecMode,
    opts: &ResilienceOptions,
) -> Result<DistributedOutcome, ResilienceError> {
    config.jem_params().expect("invalid mapper configuration");
    let scheme = SketchScheme::Minimizer { w: config.w };
    let family = config.hash_family();
    let trials = config.trials;
    let world = World::new(p, cost)
        .with_mode(mode)
        .with_faults(opts.plan.clone());
    let mut drv = Driver {
        world,
        max_retries: opts.max_retries,
        retries: 0,
        reassigned: 0,
        re_requests: 0,
    };
    let seed = opts.plan.corruption_seed();

    let resumed = opts
        .checkpoint
        .as_deref()
        .and_then(|path| try_resume(path, subjects, config));

    let mapper = if let Some(mapper) = resumed {
        mapper
    } else {
        // S1 — input load: each block materializes its share of both inputs
        // (byte copies stand in for FASTA parsing; volume O((N+M)/p)).
        let blocks: Vec<(Vec<SeqRecord>, Vec<SeqRecord>)> = drv.run_blocks("input load", |b| {
            let s_range = block_range(p, subjects.len(), b);
            let q_range = block_range(p, reads.len(), b);
            (subjects[s_range].to_vec(), reads[q_range].to_vec())
        })?;

        // S2 — subject sketch: one code-keyed run per block over global
        // subject ids, shipped as a framed, checksummed stream.
        let sketch_frame = |b: usize| {
            let first = block_range(p, subjects.len(), b).start as SubjectId;
            sketch_runs(&blocks[b].0, first, trials, |seq, scratch, sketch| {
                sketch_masked_into(seq, config.k, scheme, config.ell, &family, scratch, sketch)
            })
            .encode_framed()
        };
        let mut frames = vec![Vec::new(); p];
        drv.recover(
            "subject sketch",
            false,
            (0..p).collect(),
            sketch_frame,
            |_, _, outcomes| {
                let mut missing = Vec::new();
                for (b, outcome) in outcomes {
                    match delivered(outcome, seed ^ b as u64) {
                        Some(frame) => frames[b] = frame,
                        None => missing.push(b),
                    }
                }
                missing
            },
        )?;

        // S3 — charge the gather, then build the replicated table. Each
        // frame is verified (checksum, then structure) before its run is
        // kept; a frame that fails contributes nothing and is re-requested.
        // The runs are merged and written once every block's run is in.
        let gather_bytes = frames.iter().map(|f| f.len() * 8).sum();
        drv.world.charge_comm("sketch gather", gather_bytes);
        let verify = |frame: &[u64]| MaskedRun::decode_framed(frame, trials).ok();
        let mut runs: Vec<Option<MaskedRun>> = Vec::new();
        let mut table = drv.world.superstep_replicated("global table build", || {
            runs = frames.iter().map(|f| verify(f)).collect();
            build_when_complete(trials, &mut runs)
        });
        if table.is_none() {
            let bad = (0..p).filter(|&b| runs[b].is_none()).collect();
            drv.recover(
                "sketch re-request",
                true,
                bad,
                sketch_frame,
                |world, n, outcomes| {
                    // Vary the damage per round so a repeated fault does not
                    // replay byte-identical garbage.
                    let resent: Vec<(usize, Vec<u64>)> = outcomes
                        .into_iter()
                        .filter_map(|(b, o)| {
                            Some((b, delivered(o, seed ^ b as u64 ^ ((n as u64) << 32))?))
                        })
                        .collect();
                    let bytes = resent.iter().map(|(_, f)| f.len() * 8).sum();
                    world.charge_comm("sketch re-request comm", bytes);
                    for (b, frame) in resent {
                        runs[b] = verify(&frame);
                    }
                    (0..p).filter(|&b| runs[b].is_none()).collect()
                },
            )?;
            table = drv.world.superstep_replicated("global table build", || {
                build_when_complete(trials, &mut runs)
            });
        }
        let table = table.expect("every block's run is in");
        let subject_names: Vec<String> = subjects.iter().map(|s| s.id.clone()).collect();
        let mapper = JemMapper::from_table(table, subject_names, config);

        // Checkpoint the replicated index past the gather barrier.
        if let Some(path) = &opts.checkpoint {
            let mut file = std::fs::File::create(path)
                .map_err(|e| ResilienceError::Checkpoint(SeqError::from(e)))?;
            save_index(&mut file, &mapper).map_err(ResilienceError::Checkpoint)?;
        }
        mapper
    };

    // S4 — query map: each block's reads are segmented, rebased to global
    // read indices and mapped against the replicated table.
    let per_block: Vec<(Vec<Mapping>, usize)> = drv.run_blocks("query map", |b| {
        let q_range = block_range(p, reads.len(), b);
        let mut segments = make_segments(&reads[q_range.clone()], config.ell);
        for s in segments.iter_mut() {
            s.read_idx += q_range.start as u32;
        }
        let n = segments.len();
        (mapper.map_segments(&segments), n)
    })?;

    let result_bytes = per_block
        .iter()
        .map(|(m, _)| m.len() * std::mem::size_of::<Mapping>())
        .sum();
    drv.world.charge_comm("result gather", result_bytes);

    let n_segments = per_block.iter().map(|(_, n)| n).sum();
    let mut mappings: Vec<Mapping> = per_block.into_iter().flat_map(|(m, _)| m).collect();
    mappings.sort_unstable(); // total order; see Mapping's Ord doc

    let mut report = drv.world.into_report();
    report.fault_stats.retries += drv.retries;
    report.fault_stats.reassigned_blocks += drv.reassigned;
    report.fault_stats.re_requests += drv.re_requests;
    // Mirror the recovery tallies into the metrics recorder; the fault side
    // (crashes/corruption/straggles) is already reported live by the world.
    let obs = jem_obs::recorder();
    if obs.enabled() {
        obs.add("psim.retries", drv.retries as u64);
        obs.add("psim.reassigned_blocks", drv.reassigned as u64);
        obs.add("psim.re_requests", drv.re_requests as u64);
    }
    Ok(DistributedOutcome {
        mappings,
        report,
        n_segments,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use jem_sim::{
        contig_records, fragment_contigs, read_records, simulate_hifi, ContigProfile, Genome,
        HifiProfile,
    };

    fn world_data() -> (Vec<SeqRecord>, Vec<SeqRecord>) {
        let genome = Genome::random(60_000, 0.5, 21);
        let contigs = fragment_contigs(&genome, &ContigProfile::small_genome(), 22);
        let profile = HifiProfile {
            coverage: 2.0,
            mean_len: 4_000,
            std_len: 800,
            min_len: 1_000,
            error_rate: 0.001,
        };
        let reads = simulate_hifi(&genome, &profile, 23);
        (contig_records(&contigs), read_records(&reads))
    }

    fn config() -> MapperConfig {
        MapperConfig {
            k: 12,
            w: 10,
            trials: 8,
            ell: 400,
            seed: 3,
        }
    }

    /// The one oracle every distributed run must match: the sequential
    /// mapper's output, sorted.
    fn oracle(subjects: &[SeqRecord], reads: &[SeqRecord]) -> Vec<Mapping> {
        let mut expected = JemMapper::build(subjects, &config()).map_reads(reads);
        expected.sort_unstable();
        expected
    }

    fn run(
        subjects: &[SeqRecord],
        reads: &[SeqRecord],
        p: usize,
        cost: CostModel,
        mode: ExecMode,
        opts: &ResilienceOptions,
    ) -> DistributedOutcome {
        run_distributed_resilient(subjects, reads, &config(), p, cost, mode, opts)
            .expect("plan leaves survivors, run must succeed")
    }

    fn resilient(
        subjects: &[SeqRecord],
        reads: &[SeqRecord],
        p: usize,
        opts: &ResilienceOptions,
    ) -> DistributedOutcome {
        run(
            subjects,
            reads,
            p,
            CostModel::zero(),
            ExecMode::Sequential,
            opts,
        )
    }

    fn fault_free(
        subjects: &[SeqRecord],
        reads: &[SeqRecord],
        p: usize,
        cost: CostModel,
    ) -> DistributedOutcome {
        let opts = ResilienceOptions::default();
        run(subjects, reads, p, cost, ExecMode::Sequential, &opts)
    }

    #[test]
    fn fault_free_run_matches_sequential_for_any_p_and_mode() {
        let (subjects, reads) = world_data();
        let expected = oracle(&subjects, &reads);
        let n_segments = make_segments(&reads, config().ell).len();
        let opts = ResilienceOptions::default();
        for p in [1usize, 2, 3, 4, 8] {
            for mode in [ExecMode::Sequential, ExecMode::Threaded] {
                let outcome = run(&subjects, &reads, p, CostModel::zero(), mode, &opts);
                assert_eq!(outcome.mappings, expected, "p = {p}, {mode:?}");
                assert_eq!(outcome.n_segments, n_segments, "p = {p}, {mode:?}");
                assert!(
                    !outcome.report.fault_stats.any(),
                    "no faults, no recovery work"
                );
            }
        }
    }

    #[test]
    fn report_contains_all_steps() {
        let (subjects, reads) = world_data();
        let outcome = fault_free(&subjects, &reads, 4, CostModel::ethernet_10g());
        let b = outcome.breakdown();
        assert!(b.input_load > 0.0);
        assert!(b.subject_sketch > 0.0);
        assert!(b.sketch_gather > 0.0, "gather must be charged for p > 1");
        assert!(b.table_build > 0.0);
        assert!(b.query_map > 0.0);
        assert!(outcome.n_segments > 0);
        assert!(outcome.query_throughput() > 0.0);
        // Makespan decomposes into the named steps.
        assert!((b.total() - outcome.report.makespan_secs()).abs() < 1e-9);
    }

    #[test]
    fn comm_fraction_grows_with_p_but_stays_minor() {
        let (subjects, reads) = world_data();
        let frac = |p| {
            fault_free(&subjects, &reads, p, CostModel::ethernet_10g())
                .report
                .comm_fraction()
        };
        let f4 = frac(4);
        let f16 = frac(16);
        assert!(
            f16 >= f4 * 0.5,
            "comm fraction should not collapse with p (f4={f4}, f16={f16})"
        );
        assert!(
            f16 < 0.5,
            "communication must stay a minority share, got {f16}"
        );
    }

    #[test]
    fn single_rank_equals_sequential_work() {
        let (subjects, reads) = world_data();
        let outcome = fault_free(&subjects, &reads, 1, CostModel::ethernet_10g());
        assert_eq!(outcome.report.comm_secs(), 0.0);
        assert!(!outcome.mappings.is_empty());
    }

    #[test]
    fn more_ranks_than_work_items() {
        let (subjects, reads) = world_data();
        let few_reads = &reads[..3.min(reads.len())];
        let outcome = fault_free(&subjects, few_reads, 64, CostModel::ethernet_10g());
        // Idle ranks are fine; results still correct.
        assert_eq!(outcome.mappings, oracle(&subjects, few_reads));
    }

    #[test]
    fn empty_inputs_are_harmless() {
        let (subjects, _) = world_data();
        let outcome = fault_free(&subjects, &[], 4, CostModel::ethernet_10g());
        assert!(outcome.mappings.is_empty());
        assert_eq!(outcome.n_segments, 0);
        let outcome = fault_free(&[], &[], 4, CostModel::ethernet_10g());
        assert!(outcome.mappings.is_empty());
    }

    #[test]
    fn strong_scaling_reduces_query_critical_path() {
        let (subjects, reads) = world_data();
        // Fastest of three runs per p: other test threads only ever add
        // time, never take it away.
        let q = |p| {
            (0..3)
                .map(|_| {
                    fault_free(&subjects, &reads, p, CostModel::zero())
                        .report
                        .step_secs("query map")
                })
                .fold(f64::INFINITY, f64::min)
        };
        let q1 = q(1);
        let q8 = q(8);
        assert!(
            q8 < q1 * 0.5,
            "query critical path must shrink substantially with p (q1={q1}, q8={q8})"
        );
    }

    #[test]
    fn single_crash_at_each_step_recovers() {
        let (subjects, reads) = world_data();
        let expected = oracle(&subjects, &reads);
        for p in [4usize, 8] {
            for step in ["input load", "subject sketch", "query map"] {
                let opts = ResilienceOptions {
                    plan: FaultPlan::none().with_crash(step, 1),
                    ..Default::default()
                };
                let outcome = resilient(&subjects, &reads, p, &opts);
                assert_eq!(outcome.mappings, expected, "p = {p}, crash at {step:?}");
                let fs = outcome.report.fault_stats;
                assert_eq!(fs.crashes, 1, "p = {p}, crash at {step:?}");
                assert!(fs.retries >= 1, "crash at {step:?} must force a retry");
                assert!(fs.reassigned_blocks >= 1);
            }
        }
    }

    #[test]
    fn all_but_one_rank_may_die() {
        let (subjects, reads) = world_data();
        let expected = oracle(&subjects, &reads);
        for p in [4usize, 8] {
            let mut plan = FaultPlan::none();
            for rank in 1..p {
                plan = plan.with_crash("subject sketch", rank);
            }
            let opts = ResilienceOptions {
                plan,
                ..Default::default()
            };
            let outcome = resilient(&subjects, &reads, p, &opts);
            assert_eq!(outcome.mappings, expected, "p = {p}, {} crashes", p - 1);
            assert_eq!(outcome.report.fault_stats.crashes, p - 1);
            assert!(outcome.report.fault_stats.reassigned_blocks >= p - 1);
        }
    }

    #[test]
    fn corrupt_sketch_stream_is_re_requested() {
        let (subjects, reads) = world_data();
        let p = 4;
        let expected = oracle(&subjects, &reads);
        for seed in [0u64, 1, 2, 3, 99] {
            let opts = ResilienceOptions {
                plan: FaultPlan::none()
                    .with_corrupt("subject sketch", 2)
                    .with_corruption_seed(seed),
                ..Default::default()
            };
            let outcome = resilient(&subjects, &reads, p, &opts);
            assert_eq!(outcome.mappings, expected, "corruption seed {seed}");
            let fs = outcome.report.fault_stats;
            assert_eq!(fs.corrupt_payloads, 1, "seed {seed}");
            assert_eq!(
                fs.re_requests, 1,
                "seed {seed}: bad frame must be re-fetched"
            );
        }
    }

    #[test]
    fn straggler_degrades_makespan_but_not_output() {
        let (subjects, reads) = world_data();
        let p = 4;
        let plain = resilient(&subjects, &reads, p, &ResilienceOptions::default());
        let opts = ResilienceOptions {
            plan: FaultPlan::none().with_straggle("subject sketch", 0, 50.0),
            ..Default::default()
        };
        let slow = resilient(&subjects, &reads, p, &opts);
        assert_eq!(slow.mappings, plain.mappings);
        assert_eq!(slow.report.fault_stats.straggles, 1);
        assert!(
            slow.report.step_secs("subject sketch") > plain.report.step_secs("subject sketch"),
            "straggler must inflate the step time"
        );
    }

    #[test]
    fn mixed_faults_across_steps() {
        let (subjects, reads) = world_data();
        let p = 8;
        let expected = oracle(&subjects, &reads);
        let opts = ResilienceOptions {
            plan: FaultPlan::none()
                .with_crash("input load", 7)
                .with_crash("subject sketch", 2)
                .with_corrupt("subject sketch", 5)
                .with_straggle("query map", 1, 3.0)
                .with_crash("query map", 3),
            ..Default::default()
        };
        let outcome = resilient(&subjects, &reads, p, &opts);
        assert_eq!(outcome.mappings, expected);
        let fs = outcome.report.fault_stats;
        assert_eq!(fs.crashes, 3);
        assert_eq!(fs.corrupt_payloads, 1);
        assert_eq!(fs.straggles, 1);
        assert!(fs.retries >= 3);
        assert_eq!(fs.re_requests, 1);
    }

    #[test]
    fn threaded_mode_recovers_identically() {
        let (subjects, reads) = world_data();
        let p = 4;
        let expected = oracle(&subjects, &reads);
        let opts = ResilienceOptions {
            plan: FaultPlan::none()
                .with_crash("subject sketch", 0)
                .with_corrupt("query map", 2),
            ..Default::default()
        };
        let outcome = run_distributed_resilient(
            &subjects,
            &reads,
            &config(),
            p,
            CostModel::zero(),
            ExecMode::Threaded,
            &opts,
        )
        .unwrap();
        assert_eq!(outcome.mappings, expected);
    }

    #[test]
    fn all_ranks_dead_is_a_value_not_a_panic() {
        let (subjects, reads) = world_data();
        let p = 3;
        let mut plan = FaultPlan::none();
        for rank in 0..p {
            plan = plan.with_crash("subject sketch", rank);
        }
        let opts = ResilienceOptions {
            plan,
            ..Default::default()
        };
        let err = run_distributed_resilient(
            &subjects,
            &reads,
            &config(),
            p,
            CostModel::zero(),
            ExecMode::Sequential,
            &opts,
        )
        .unwrap_err();
        assert!(
            matches!(err, ResilienceError::AllRanksFailed { .. }),
            "got {err}"
        );
        assert!(err.to_string().contains("subject sketch"));
    }

    /// The replicated index a run built, read back from its checkpoint.
    fn built_index(subjects: &[SeqRecord], p: usize, plan: FaultPlan, tag: &str) -> Vec<u8> {
        let path =
            std::env::temp_dir().join(format!("jem_s3_{tag}_{p}_{}.idx", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let opts = ResilienceOptions {
            plan,
            checkpoint: Some(path.clone()),
            ..Default::default()
        };
        resilient(subjects, &[], p, &opts);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        bytes
    }

    #[test]
    fn rank_runs_build_the_one_shot_index_byte_for_byte() {
        let (subjects, _) = world_data();
        let mut one_shot = Vec::new();
        save_index(&mut one_shot, &JemMapper::build(&subjects, &config())).unwrap();
        for p in [1usize, 3, 8] {
            assert_eq!(
                built_index(&subjects, p, FaultPlan::none(), "clean"),
                one_shot,
                "p = {p}"
            );
        }
        // Re-requested frames slot into the same merge.
        let plan = FaultPlan::none()
            .with_corrupt("subject sketch", 1)
            .with_corrupt("subject sketch", 2);
        assert_eq!(built_index(&subjects, 4, plan, "corrupt"), one_shot);
    }

    #[test]
    fn corrupt_frame_leaves_the_verified_runs_untouched() {
        let (subjects, _) = world_data();
        let config = config();
        let (scheme, family, trials, p) = (
            SketchScheme::Minimizer { w: config.w },
            config.hash_family(),
            8,
            4,
        );
        let frames: Vec<Vec<u64>> = (0..p)
            .map(|b| {
                let range = block_range(p, subjects.len(), b);
                sketch_runs(
                    &subjects[range.clone()],
                    range.start as SubjectId,
                    trials,
                    |seq, scratch, sketch| {
                        sketch_masked_into(
                            seq, config.k, scheme, config.ell, &family, scratch, sketch,
                        )
                    },
                )
                .encode_framed()
            })
            .collect();
        // Block 2's frame arrives garbled: it fails verification and adds
        // nothing, while the other blocks' runs decode as sent.
        let mut delivered = frames.clone();
        corrupt_u64s(&mut delivered[2], 7);
        let mut runs: Vec<Option<MaskedRun>> = delivered
            .iter()
            .map(|f| MaskedRun::decode_framed(f, trials).ok())
            .collect();
        assert!(runs[2].is_none(), "a garbled frame must fail verification");
        let kept = runs.clone();
        assert!(build_when_complete(trials, &mut runs).is_none());
        assert_eq!(runs, kept, "an incomplete gather must not consume runs");
        // The re-requested frame completes the gather.
        runs[2] = MaskedRun::decode_framed(&frames[2], trials).ok();
        let table = build_when_complete(trials, &mut runs).expect("every block in");
        assert_eq!(
            table.blob(),
            JemMapper::build(&subjects, &config).table().blob()
        );
    }

    #[test]
    fn checkpoint_roundtrip_skips_rebuild_and_matches() {
        let (subjects, reads) = world_data();
        let p = 4;
        let expected = oracle(&subjects, &reads);
        let path =
            std::env::temp_dir().join(format!("jem_ckpt_roundtrip_{}.idx", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let opts = ResilienceOptions {
            checkpoint: Some(path.clone()),
            ..Default::default()
        };
        // First run writes the checkpoint.
        let first = resilient(&subjects, &reads, p, &opts);
        assert_eq!(first.mappings, expected);
        assert!(path.exists(), "checkpoint must be written");
        // Second run resumes: identical output, no subject-phase steps.
        let second = resilient(&subjects, &reads, p, &opts);
        assert_eq!(second.mappings, expected);
        assert_eq!(
            second.report.step_secs("subject sketch"),
            0.0,
            "S2 skipped on resume"
        );
        assert!(second.report.step_secs("query map") > 0.0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupt_checkpoint_is_ignored_not_trusted() {
        let (subjects, reads) = world_data();
        let p = 4;
        let expected = oracle(&subjects, &reads);
        let path =
            std::env::temp_dir().join(format!("jem_ckpt_corrupt_{}.idx", std::process::id()));
        let opts = ResilienceOptions {
            checkpoint: Some(path.clone()),
            ..Default::default()
        };
        resilient(&subjects, &reads, p, &opts);
        // Damage the file: resume must silently fall back to a full build
        // (and rewrite a good checkpoint).
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let outcome = resilient(&subjects, &reads, p, &opts);
        assert_eq!(outcome.mappings, expected);
        assert!(
            outcome.report.step_secs("subject sketch") > 0.0,
            "must rebuild"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn random_plans_preserve_output() {
        let (subjects, reads) = world_data();
        let steps = ["input load", "subject sketch", "query map"];
        let expected = oracle(&subjects, &reads);
        for p in [4usize, 8] {
            for seed in 0..6u64 {
                let n_crashes = 1 + (seed as usize) % (p - 1);
                let plan = FaultPlan::random(seed, p, &steps, n_crashes, 1);
                let opts = ResilienceOptions {
                    plan: plan.clone(),
                    ..Default::default()
                };
                let outcome = resilient(&subjects, &reads, p, &opts);
                assert_eq!(outcome.mappings, expected, "p={p} seed={seed} plan={plan}");
                assert_eq!(outcome.report.fault_stats.crashes, plan.crashed_ranks());
            }
        }
    }
}
