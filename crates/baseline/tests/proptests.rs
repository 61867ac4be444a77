//! Property-based tests for the baseline mappers.

use jem_baseline::{ClassicMinHashConfig, ClassicMinHashMapper, MashmapConfig, MashmapMapper};
use jem_seq::alphabet::revcomp_bytes;
use jem_seq::SeqRecord;
use jem_sketch::{classic_minhash_seq, HashFamily};
use proptest::prelude::*;

fn dna(min: usize, max: usize) -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(prop::sample::select(vec![b'A', b'C', b'G', b'T']), min..max)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn mashmap_window_of_subject_maps_home(
        subjects in prop::collection::vec(dna(1_500, 3_000), 2..5),
        pick in 0usize..5,
        frac in 0.0f64..0.5,
    ) {
        let recs: Vec<SeqRecord> = subjects
            .iter()
            .enumerate()
            .map(|(i, s)| SeqRecord::new(format!("c{i}"), s.clone()))
            .collect();
        let config = MashmapConfig { k: 12, w: 8, ell: 500, min_shared: 2 };
        let mapper = MashmapMapper::build(recs, &config);
        let idx = pick % subjects.len();
        let offset = (subjects[idx].len() as f64 * frac) as usize;
        let end = (offset + 500).min(subjects[idx].len());
        let query = &subjects[idx][offset..end];
        if let Some((best, score)) = mapper.map_segment(query) {
            // Random subjects may coincidentally share minimizers, but the
            // verbatim source must win or at least tie at a high score.
            prop_assert!(score >= 2);
            if best as usize != idx {
                // Only acceptable if the winner has genuinely high overlap
                // (vanishingly rare for random sequences) — flag it.
                prop_assert!(false, "window of c{idx} mapped to c{best} (score {score})");
            }
        } else {
            prop_assert!(false, "verbatim window failed to map");
        }
    }

    #[test]
    fn mashmap_strand_invariant(subject in dna(2_000, 3_000)) {
        let config = MashmapConfig { k: 12, w: 8, ell: 500, min_shared: 2 };
        let mapper = MashmapMapper::build(
            vec![SeqRecord::new("c0", subject.clone())],
            &config,
        );
        let fwd = &subject[500..1000];
        let rc = revcomp_bytes(fwd);
        let a = mapper.map_segment(fwd);
        let b = mapper.map_segment(&rc);
        prop_assert_eq!(a.map(|x| x.0), b.map(|x| x.0), "canonical minimizers are strand-free");
    }

    #[test]
    fn classic_minhash_full_subject_hits_all_trials(
        subjects in prop::collection::vec(dna(800, 2_000), 1..4),
    ) {
        let recs: Vec<SeqRecord> = subjects
            .iter()
            .enumerate()
            .map(|(i, s)| SeqRecord::new(format!("c{i}"), s.clone()))
            .collect();
        let config = ClassicMinHashConfig { k: 12, trials: 12, ell: 1000, seed: 5 };
        let mapper = ClassicMinHashMapper::build(&recs, &config);
        for (i, s) in subjects.iter().enumerate() {
            let mut counter = mapper.new_counter();
            let (best, hits) = mapper
                .map_segment(s, i as u64, &mut counter)
                .expect("identical sequence must map");
            prop_assert_eq!(hits as usize, 12, "all trials must collide for an identical query");
            // best may tie with a duplicate subject; verify it's truly equal.
            prop_assert!(subjects[best as usize] == *s || best as usize == i);
        }
    }

    /// The classical mapper answers through the same probe kernel; at
    /// T = 150 (five mask words, the top of Fig. 6's sweep) its counts
    /// must equal plain per-trial minimum equality.
    #[test]
    fn classic_minhash_matches_per_trial_equality(
        subjects in prop::collection::vec(dna(200, 800), 1..5),
        picks in prop::collection::vec((0usize..5, 0usize..400, 40usize..300), 1..6),
    ) {
        let recs: Vec<SeqRecord> = subjects
            .iter()
            .enumerate()
            .map(|(i, s)| SeqRecord::new(format!("c{i}"), s.clone()))
            .collect();
        let config = ClassicMinHashConfig { k: 12, trials: 150, ell: 1000, seed: 11 };
        let mapper = ClassicMinHashMapper::build(&recs, &config);
        let family = HashFamily::generate(config.trials, config.seed);
        let minima: Vec<Vec<Option<u64>>> = subjects
            .iter()
            .map(|s| classic_minhash_seq(s, config.k, &family).values)
            .collect();
        let mut counter = mapper.new_counter();
        for (qid, &(i, start, len)) in picks.iter().enumerate() {
            let s = &subjects[i % subjects.len()];
            let start = start % s.len();
            let query = &s[start..(start + len).min(s.len())];
            let q = classic_minhash_seq(query, config.k, &family).values;
            let want = minima
                .iter()
                .enumerate()
                .map(|(id, m)| {
                    let hits = q.iter().zip(m).filter(|(a, b)| a.is_some() && a == b).count();
                    (id as u32, hits as u32)
                })
                .filter(|&(_, hits)| hits > 0)
                .min_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            prop_assert_eq!(mapper.map_segment(query, qid as u64, &mut counter), want);
        }
    }
}
