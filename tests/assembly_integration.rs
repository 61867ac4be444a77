//! Integration of the assembly substrate with the mappers: the paper's
//! full data-preparation path (short reads → DBG assembly → contigs), plus
//! coordinate recovery on the reference through stage 2's refiner (the
//! Minimap2 role).

use jem_anchor::{Placement, RefineParams, RefineScratch, RefineStats, Refiner};
use jem_core::{JemMapper, MapperConfig};
use jem_dbg::{assemble, AssemblyParams};
use jem_seq::{revcomp_bytes, SeqRecord};
use jem_sim::{
    fragment_contigs, read_records, simulate_hifi, simulate_illumina, ContigProfile, Genome,
    GenomeProfile, HifiProfile, IlluminaProfile,
};
use jem_sketch::SketchScheme;

/// Stage 2 as the Minimap2 stand-in: minimap2's default k = 15, w = 10
/// minimizers, and every reference record a candidate.
fn remapper(reference: Vec<SeqRecord>) -> Refiner {
    let params = RefineParams {
        top_candidates: reference.len(),
        ..RefineParams::default()
    };
    Refiner::with_params(SketchScheme::Minimizer { w: 10 }, 15, reference, params)
}

/// Place `query` on the remapper's reference.
fn remap(remapper: &Refiner, query: &[u8]) -> Option<Placement> {
    let candidates: Vec<(u32, u32)> = (0..remapper.n_subjects() as u32)
        .map(|id| (id, 0))
        .collect();
    remapper.refine_segment(
        query,
        &candidates,
        &mut RefineScratch::new(),
        &mut RefineStats::default(),
    )
}

fn assembled_world() -> (Genome, Vec<SeqRecord>) {
    let genome = Genome::random(120_000, 0.5, 777);
    let short = simulate_illumina(&genome, &IlluminaProfile::default(), 778);
    let read_seqs: Vec<Vec<u8>> = short.into_iter().map(|r| r.seq).collect();
    let contigs = assemble(
        &read_seqs,
        &AssemblyParams {
            k: 31,
            min_abundance: 3,
            min_contig_len: 500,
            tip_len: 93,
        },
    );
    (genome, contigs)
}

#[test]
fn assembly_covers_most_of_the_genome() {
    let (genome, contigs) = assembled_world();
    assert!(!contigs.is_empty());
    let total: usize = contigs.iter().map(|c| c.seq.len()).sum();
    assert!(
        total as f64 > genome.len() as f64 * 0.9,
        "assembly covers only {total}/{} bases",
        genome.len()
    );
}

#[test]
fn assembled_contigs_remap_to_reference_coordinates() {
    // The benchmark-construction path: map each assembled contig back to
    // the reference and check the recovered span is plausible (the paper
    // does this with Minimap2).
    let (genome, contigs) = assembled_world();
    let remapper = remapper(vec![SeqRecord::new("ref", genome.seq.clone())]);
    let inspected: Vec<_> = contigs.iter().take(10).collect();
    let mut mapped = 0;
    for c in &inspected {
        if let Some(p) = remap(&remapper, &c.seq) {
            mapped += 1;
            let span = (p.t_end - p.t_start) as f64;
            assert!(
                span > c.seq.len() as f64 * 0.8 && span < c.seq.len() as f64 * 1.2,
                "recovered span {span} vs contig length {}",
                c.seq.len()
            );
        }
    }
    assert!(
        mapped * 10 >= inspected.len() * 8,
        "only {mapped}/{} contigs remapped",
        inspected.len()
    );
}

/// Every contig of a bacterial and a eukaryotic analogue, on either
/// strand, remaps to its simulator truth: the strand, and both ends
/// within 100 bp.
#[test]
fn fragment_contigs_remap_to_their_truth_coordinates() {
    for (name, genome_profile, contig_profile) in [
        (
            "bacterial",
            GenomeProfile::bacterial(400_000),
            ContigProfile::bacterial(),
        ),
        (
            "eukaryotic",
            GenomeProfile::eukaryotic(400_000),
            ContigProfile::eukaryotic(),
        ),
    ] {
        let genome = Genome::from_profile(name, &genome_profile, 41);
        let contigs = fragment_contigs(&genome, &contig_profile, 42);
        assert!(contigs.len() > 10, "{name}: only {} contigs", contigs.len());
        let remapper = remapper(vec![SeqRecord::new(name, genome.seq.clone())]);
        for c in &contigs {
            for reverse in [false, true] {
                let query = if reverse {
                    revcomp_bytes(&c.seq)
                } else {
                    c.seq.clone()
                };
                let p = remap(&remapper, &query)
                    .unwrap_or_else(|| panic!("{name} {} (reverse {reverse}) unplaced", c.id));
                let off_start = (p.t_start as i64 - c.ref_start as i64).abs();
                let off_end = (p.t_end as i64 - c.ref_end as i64).abs();
                assert!(
                    p.reverse == reverse && off_start <= 100 && off_end <= 100,
                    "{name} {} (reverse {reverse}) at {}..{}: placed {p:?}",
                    c.id,
                    c.ref_start,
                    c.ref_end
                );
            }
        }
    }
}

#[test]
fn hifi_ends_map_to_assembled_contigs() {
    let (genome, contigs) = assembled_world();
    let reads = simulate_hifi(
        &genome,
        &HifiProfile {
            coverage: 3.0,
            ..Default::default()
        },
        779,
    );
    let query_reads = read_records(&reads);
    let config = MapperConfig::default();
    let n_contigs = contigs.len();
    let mapper = JemMapper::build(&contigs, &config);
    let mappings = mapper.map_reads(&query_reads);
    let n_segments: usize = query_reads
        .iter()
        .map(|r| if r.seq.len() > config.ell { 2 } else { 1 })
        .sum();
    assert!(
        mappings.len() * 10 >= n_segments * 8,
        "only {}/{} segments mapped against {n_contigs} assembled contigs",
        mappings.len(),
        n_segments
    );
    // Strong support: HiFi segments over error-filtered contigs should
    // collide on most trials.
    let strong = mappings
        .iter()
        .filter(|m| m.hits as usize >= config.trials / 2)
        .count();
    assert!(
        strong * 10 >= mappings.len() * 9,
        "{strong}/{} strong",
        mappings.len()
    );
}
