//! Frame-decoder fuzzing: random mutations of valid frames must never
//! panic the decoder and must never decode to a *different* request than
//! the one originally framed — a damaged frame either errors or (for
//! damage outside the framed bytes, e.g. trailing junk) decodes
//! identically. Raw byte soup must never panic either.
//!
//! Single-bit flips are the damage model for the aliasing property: every
//! in-frame flip is caught by the magic check, the length check, or the
//! body checksum (`jem_index::checksum_bytes`), and the magic differs from
//! every retired revision's in at least two bits. Word-level damage —
//! two 8-byte words swapped, one copied over another, one replaced —
//! past the magic and the length word is refused outright.

use jem_core::{QuerySegment, ReadEnd};
use jem_index::{mask_words, SubjectId};
use jem_serve::{
    merge_partials, read_frame, validate_partials, write_frame, Envelope, Request, Response,
    SegmentPartials,
};
use proptest::prelude::*;
use std::collections::BTreeMap;

fn end_of(suffix: bool) -> ReadEnd {
    if suffix {
        ReadEnd::Suffix
    } else {
        ReadEnd::Prefix
    }
}

fn mk_segments(segs: Vec<(u32, bool, Vec<u8>)>) -> Vec<QuerySegment> {
    segs.into_iter()
        .map(|(read_idx, suffix, seq)| QuerySegment {
            read_idx,
            end: end_of(suffix),
            seq,
        })
        .collect()
}

/// Canonical hits over `trials` trials from `(subject, trial)` pairs:
/// each subject once, ascending, its mask the OR of its trials.
fn hits_of(trials: usize, pairs: &[(u32, usize)]) -> Vec<(SubjectId, Vec<u32>)> {
    let mut masks: BTreeMap<SubjectId, Vec<u32>> = BTreeMap::new();
    for &(s, t) in pairs {
        let t = t % trials;
        masks
            .entry(s)
            .or_insert_with(|| vec![0; mask_words(trials)])[t / 32] |= 1 << (t % 32);
    }
    masks.into_iter().collect()
}

fn segments_of(idents: &[(u32, bool)]) -> Vec<QuerySegment> {
    idents
        .iter()
        .map(|&(read_idx, suffix)| QuerySegment {
            read_idx,
            end: end_of(suffix),
            seq: Vec::new(),
        })
        .collect()
}

/// Build an envelope and one of the request shapes from fuzz parameters.
fn build_request(
    kind: u8,
    client: String,
    deadline: u64,
    segs: Vec<(u32, bool, Vec<u8>)>,
    path: String,
) -> (Envelope, Request) {
    let envelope = Envelope {
        client_id: client,
        deadline_ms: (deadline != 0).then_some(deadline),
    };
    let req = match kind % 7 {
        0 => Request::Ping,
        1 => Request::Info,
        2 => Request::Shutdown,
        3 => Request::Reload { path },
        4 => Request::Map {
            segments: mk_segments(segs),
        },
        5 => Request::MapPartial {
            segments: mk_segments(segs),
        },
        _ => Request::MapDegraded {
            segments: mk_segments(segs),
        },
    };
    (envelope, req)
}

/// Frame a request exactly as the client does.
fn frame((envelope, req): &(Envelope, Request)) -> Vec<u8> {
    let mut wire = Vec::new();
    write_frame(&mut wire, &req.encode(envelope)).unwrap();
    wire
}

/// Decode a wire buffer end to end: transport frame, then request body.
fn decode(wire: &[u8]) -> Result<(Envelope, Request), jem_serve::ServeError> {
    let mut cursor = wire;
    Request::decode(&read_frame(&mut cursor)?)
}

proptest! {
    #[test]
    fn bit_flips_never_panic_and_never_alias(
        kind in 0u8..7,
        client in "[a-z0-9-]{0,12}",
        deadline in 0u64..10_000,
        segs in prop::collection::vec(
            (0u32..1000, any::<bool>(), prop::collection::vec(0u8..=255, 0..40)),
            0..4,
        ),
        path in "[a-z/.]{0,24}",
        bit in 0usize..4096,
    ) {
        let req = build_request(kind, client, deadline, segs, path);
        let wire = frame(&req);
        let mut damaged = wire.clone();
        let bit = bit % (damaged.len() * 8);
        damaged[bit / 8] ^= 1 << (bit % 8);
        // Must not panic; if it decodes at all, it must be the original.
        if let Ok(got) = decode(&damaged) {
            prop_assert_eq!(got, req.clone(), "a bit flip decoded to a different request");
        }
        // The pristine frame still round-trips (the damage copy is separate).
        prop_assert_eq!(decode(&wire).unwrap(), req);
    }

    /// Two 8-byte words of the frame swapped, one copied over another, or
    /// one replaced, among the checksum word and the body (the magic and
    /// the length word stay intact, so the frame keeps its length): the
    /// frame is refused with a typed error, never decoded and never a
    /// panic.
    #[test]
    fn swapped_copied_or_replaced_words_are_refused(
        kind in 0u8..7,
        client in "[a-z0-9-]{0,12}",
        deadline in 0u64..10_000,
        segs in prop::collection::vec(
            (0u32..1000, any::<bool>(), prop::collection::vec(0u8..=255, 0..40)),
            0..4,
        ),
        path in "[a-z/.]{0,24}",
        (damage, i_frac, j_frac, value) in (0u8..3, 0.0f64..1.0, 0.0f64..1.0, any::<u64>()),
    ) {
        let req = build_request(kind, client, deadline, segs, path);
        let mut wire = frame(&req);
        // Whole words from byte 16 on: the checksum, then the body's.
        let n = (wire.len() - 16) / 8;
        let pick = |f: f64| 16 + 8 * ((n - 1) as f64 * f) as usize;
        let (i, j) = (pick(i_frac), pick(j_frac));
        let word = |w: &[u8], at: usize| u64::from_le_bytes(w[at..at + 8].try_into().unwrap());
        let (wi, wj) = (word(&wire, i), word(&wire, j));
        let (new_i, new_j) = match damage {
            0 => (wj, wi),
            1 => (wi, wi),
            _ => (wi, value),
        };
        prop_assume!((new_i, new_j) != (wi, wj));
        wire[i..i + 8].copy_from_slice(&new_i.to_le_bytes());
        wire[j..j + 8].copy_from_slice(&new_j.to_le_bytes());
        prop_assert!(decode(&wire).is_err(), "damage {damage} at bytes {i} and {j} decoded");
    }

    #[test]
    fn truncation_never_panics_and_never_aliases(
        kind in 0u8..7,
        client in "[a-z0-9-]{0,12}",
        deadline in 0u64..10_000,
        segs in prop::collection::vec(
            (0u32..1000, any::<bool>(), prop::collection::vec(0u8..=255, 0..40)),
            0..4,
        ),
        path in "[a-z/.]{0,24}",
        cut in 0usize..4096,
    ) {
        let req = build_request(kind, client, deadline, segs, path);
        let mut wire = frame(&req);
        let cut = cut % wire.len(); // strictly shorter than the frame
        wire.truncate(cut);
        prop_assert!(
            decode(&wire).is_err(),
            "a truncated frame must never decode (cut at {})", cut
        );
    }

    #[test]
    fn trailing_junk_is_invisible_to_the_frame_reader(
        kind in 0u8..7,
        client in "[a-z0-9-]{0,12}",
        deadline in 0u64..10_000,
        segs in prop::collection::vec(
            (0u32..1000, any::<bool>(), prop::collection::vec(0u8..=255, 0..40)),
            0..4,
        ),
        path in "[a-z/.]{0,24}",
        junk in prop::collection::vec(0u8..=255, 1..64),
    ) {
        // The transport is length-prefixed: bytes after the frame belong
        // to no one and must not change what the frame decodes to.
        let req = build_request(kind, client, deadline, segs, path);
        let mut wire = frame(&req);
        wire.extend_from_slice(&junk);
        prop_assert_eq!(decode(&wire).unwrap(), req);
    }

    #[test]
    fn byte_soup_never_panics(
        soup in prop::collection::vec(0u8..=255, 0..256),
        kind in 0u8..7,
        client in "[a-z0-9-]{0,12}",
        segs in prop::collection::vec(
            (0u32..1000, any::<bool>(), prop::collection::vec(0u8..=255, 0..40)),
            0..4,
        ),
        splice in 0usize..512,
    ) {
        // Transport layer on raw bytes.
        let mut cursor = soup.as_slice();
        let _ = read_frame(&mut cursor);
        // Body decoders on raw bytes.
        let _ = Request::decode(&soup);
        let _ = Response::decode(&soup);
        // A valid request body with soup spliced in at a random point,
        // and a response body read as a request (and back): each may error,
        // none may panic.
        let (envelope, req) = build_request(kind, client, 0, segs, String::new());
        let mut body = req.encode(&envelope);
        let at = splice % (body.len() + 1);
        body.splice(at..at, soup.iter().copied());
        let _ = Request::decode(&body);
        let _ = Response::decode(&req.encode(&envelope));
        let _ = Request::decode(&Response::Error(String::from_utf8_lossy(&soup).into()).encode());
    }

    #[test]
    fn damaged_partials_responses_never_panic_and_never_alias(
        segs in prop::collection::vec(
            (
                0u32..1000,
                any::<bool>(),
                1usize..97,
                prop::collection::vec((0u32..50, prop::collection::vec(any::<u32>(), 3..4)), 0..5),
            ),
            0..4,
        ),
        bit in 0usize..4096,
        cut in 0usize..4096,
    ) {
        // The router's gather decodes `Partials` responses from shard
        // processes it does not control: a damaged response must error or
        // decode to exactly the original — never to different masks that
        // would alias into a merge. Masks span one to three words.
        let partials: Vec<SegmentPartials> = segs
            .into_iter()
            .map(|(read_idx, suffix, trials, hits)| SegmentPartials {
                read_idx,
                end: end_of(suffix),
                trials,
                hits: hits
                    .into_iter()
                    .map(|(s, mut mask)| {
                        mask.truncate(mask_words(trials));
                        (s, mask)
                    })
                    .collect(),
            })
            .collect();
        let resp = Response::Partials(partials);
        let mut wire = Vec::new();
        write_frame(&mut wire, &resp.encode()).unwrap();
        let mut cursor = wire.as_slice();
        prop_assert_eq!(Response::decode(&read_frame(&mut cursor).unwrap()).unwrap(), resp.clone());

        let mut damaged = wire.clone();
        let bit = bit % (damaged.len() * 8);
        damaged[bit / 8] ^= 1 << (bit % 8);
        let mut cursor = damaged.as_slice();
        if let Ok(body) = read_frame(&mut cursor) {
            if let Ok(got) = Response::decode(&body) {
                prop_assert_eq!(got, resp.clone(), "a bit flip decoded to a different response");
            }
        }

        let mut truncated = wire.clone();
        truncated.truncate(cut % wire.len());
        let mut cursor = truncated.as_slice();
        prop_assert!(
            read_frame(&mut cursor).is_err(),
            "a truncated shard response must never decode"
        );
    }

    #[test]
    fn merge_is_shard_order_and_duplication_independent(
        idents in prop::collection::vec((0u32..1000, any::<bool>()), 1..4),
        trials in 1usize..97,
        shard_hits in prop::collection::vec(
            prop::collection::vec(prop::collection::vec((0u32..30, 0usize..96), 0..6), 0..5),
            1..4,
        ),
        rot in 0usize..4,
    ) {
        // OR is associative, commutative, and idempotent, so the merged
        // mappings cannot depend on shard order — and repeating a shard's
        // answer must change nothing.
        let segments = segments_of(&idents);
        let shards: Vec<Vec<SegmentPartials>> = shard_hits
            .iter()
            .map(|per_seg| {
                idents
                    .iter()
                    .enumerate()
                    .map(|(j, &(read_idx, suffix))| SegmentPartials {
                        read_idx,
                        end: end_of(suffix),
                        trials,
                        hits: hits_of(trials, per_seg.get(j).map_or(&[], Vec::as_slice)),
                    })
                    .collect()
            })
            .collect();
        let merged = merge_partials(&segments, &shards).unwrap();

        let mut rotated = shards.clone();
        rotated.rotate_left(rot % shards.len());
        prop_assert_eq!(merge_partials(&segments, &rotated).unwrap(), merged.clone());

        let mut reversed = shards.clone();
        reversed.reverse();
        prop_assert_eq!(merge_partials(&segments, &reversed).unwrap(), merged.clone());

        let mut duplicated = shards.clone();
        duplicated.push(shards[0].clone());
        prop_assert_eq!(merge_partials(&segments, &duplicated).unwrap(), merged);
    }

    #[test]
    fn mismatched_echoes_error_instead_of_aliasing(
        idents in prop::collection::vec((0u32..1000, any::<bool>()), 1..4),
        which in 0usize..4,
        bump in 1u32..5,
    ) {
        // A shard (or a fault injector) echoing the wrong segment identity
        // must be refused by validation, never silently merged.
        let segments = segments_of(&idents);
        let shard: Vec<SegmentPartials> = idents
            .iter()
            .map(|&(read_idx, suffix)| SegmentPartials {
                read_idx,
                end: end_of(suffix),
                trials: 1,
                hits: vec![(read_idx % 7, vec![1])],
            })
            .collect();
        prop_assert!(validate_partials(&segments, &shard).is_ok());
        prop_assert!(merge_partials(&segments, std::slice::from_ref(&shard)).is_ok());

        let j = which % shard.len();
        let mut wrong_read = shard.clone();
        wrong_read[j].read_idx = wrong_read[j].read_idx.wrapping_add(bump);
        prop_assert!(validate_partials(&segments, &wrong_read).is_err());
        prop_assert!(merge_partials(&segments, &[wrong_read]).is_err());

        let mut wrong_end = shard.clone();
        wrong_end[j].end = end_of(!idents[j].1);
        prop_assert!(merge_partials(&segments, &[wrong_end]).is_err());

        let mut wrong_len = shard;
        wrong_len.pop();
        prop_assert!(merge_partials(&segments, &[wrong_len]).is_err());
    }

    #[test]
    fn malformed_masks_and_retired_answers_are_refused(
        idents in prop::collection::vec((0u32..1000, any::<bool>()), 1..4),
        trials in 1usize..97,
        pairs in prop::collection::vec((0u32..30, 0usize..96), 1..8),
        which in 0usize..4,
        other_trials in 1usize..97,
    ) {
        // What a shard of another build, or a damaged one, could answer:
        // a mask of the wrong width, a bit at or above T, shards that
        // disagree on T, or the retired per-trial tag. None may merge.
        let segments = segments_of(&idents);
        let shard: Vec<SegmentPartials> = idents
            .iter()
            .map(|&(read_idx, suffix)| SegmentPartials {
                read_idx,
                end: end_of(suffix),
                trials,
                hits: hits_of(trials, &pairs),
            })
            .collect();
        prop_assert!(validate_partials(&segments, &shard).is_ok());
        let j = which % shard.len();

        let mut narrow = shard.clone();
        narrow[j].hits[0].1.pop();
        prop_assert!(validate_partials(&segments, &narrow).is_err(), "narrow mask");
        let mut wide = shard.clone();
        wide[j].hits[0].1.push(0);
        prop_assert!(validate_partials(&segments, &wide).is_err(), "wide mask");

        let mut past_t = shard.clone();
        let w = mask_words(trials);
        if trials % 32 == 0 {
            past_t[j].hits[0].1.push(1);
        } else {
            past_t[j].hits[0].1[w - 1] |= 1 << (trials % 32);
        }
        prop_assert!(validate_partials(&segments, &past_t).is_err(), "bit at T");
        prop_assert!(merge_partials(&segments, &[past_t]).is_err());

        let other: Vec<SegmentPartials> = shard
            .iter()
            .map(|p| SegmentPartials {
                trials: other_trials,
                hits: hits_of(other_trials, &pairs),
                ..p.clone()
            })
            .collect();
        prop_assert!(validate_partials(&segments, &other).is_ok());
        let mixed = merge_partials(&segments, &[shard.clone(), other]);
        prop_assert_eq!(mixed.is_err(), other_trials != trials, "T mismatch across shards");

        let mut retired = Response::Partials(shard).encode();
        retired[..8].copy_from_slice(&8u64.to_le_bytes());
        let err = Response::decode(&retired).unwrap_err();
        prop_assert!(err.to_string().contains("unknown response tag 8"), "{}", err);
    }
}
