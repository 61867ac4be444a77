//! Index persistence: save/load a built [`JemMapper`] so the subject
//! sketching cost is paid once per contig set.
//!
//! # JEMIDX v6 — the one format the loaders read
//!
//! The whole file is a sequence of little-endian `u64` words; the table
//! section *is* the in-memory [`jem_index::FlatTable`] layout (one
//! code-keyed bucket array plus a posting arena whose postings carry trial
//! masks), so loading is validation plus a wrap — no decode, no rebuild,
//! and over `mmap` no copy at all.
//!
//! ```text
//! word  0      magic  b"JEMIDX6\0"
//! word  1      file_words — total length of the file in words
//! word  2      checksum_words(words[3..])
//! word  3      config_hash: checksum_words(words[4..11])
//! words 4..9   config: k, w, trials, ell, seed
//! words 9..11  scheme tag (0 = minimizer, 1 = closed syncmer), param
//! word  11     n_subjects
//! words 12,13  names_off, names_words
//! words 14,15  table_off, table_words
//! names        per subject: byte length, then the name zero-padded to
//!              whole words
//! table        the flat-table blob (see `jem_index::flat`)
//! ```
//!
//! Both checksums are [`jem_index::checksum`], the multi-lane word
//! checksum every artifact carries. Sections are contiguous and in order
//! (`names_off == 16`, `names_off + names_words == table_off`,
//! `table_off + table_words == file_words`) and 8-byte aligned by
//! construction. The table section is the mapper's own table words,
//! streamed as they are: every table is written canonically by
//! [`jem_index::FlatTable::from_runs`] — codes in ascending order, each
//! code's subjects ascending — so the bytes are a pure function of the
//! logical index, and save → load → save round-trips byte-identically.
//!
//! Loading is fallible end to end: bad magic, a length that disagrees
//! with the header, checksum or config-hash mismatches, malformed names,
//! and every structural violation of the table blob surface as typed
//! errors — no code path panics on a malformed file. [`load_index_path`]
//! additionally validates the declared length against the file's actual
//! size *before* reading or mapping anything bulky, so pointing the CLI
//! at the wrong multi-gigabyte file fails fast instead of allocating.
//!
//! Every load is fully verified: on top of the structural checks, the
//! whole-file checksum, subject-id ranges and the canonical form of every
//! posting (non-zero masks inside `T`, subjects strictly ascending) — one
//! sequential pass over the file, still no decode or rebuild. That pass
//! also pages a mapped file in before the first query.
//!
//! # Legacy formats
//!
//! [`load_index`], [`load_index_path`] and [`read_index_config`] refuse a
//! v3, v4 or v5 file at its magic with an error naming `jem index
//! --upgrade`. Only [`upgrade_index`] reads them, through the private
//! `legacy` module — the one place the byte-wise FNV-1a they were sealed
//! with remains — and `jem index --upgrade` writes the result as v6:
//!
//! * **JEMIDX v5** is word for word v6, with words 2 and 3 under FNV-1a.
//! * **JEMIDX v4** has v5's header and names, but its table is `T`
//!   per-trial banks (a bucket array and a subject arena each).
//! * **JEMIDX v3** serialized the table as a per-trial `[n_keys, (code,
//!   n_subjects, subjects…)*]` stream under an FNV-1a frame checksum.
//!
//! The v4 and v3 readers turn the per-trial table back into `(trial, code,
//! subject)` entries, which [`jem_index::MaskedRun::from_entries`] folds
//! into the one code-keyed run the writer takes.

use crate::config::{config_from_words, config_words, MapperConfig, CONFIG_WORDS};
use crate::mapper::JemMapper;
use jem_index::{checksum_chain, checksum_words, FlatTable, MaskedRun, WordSource};
use jem_mmap::MmapWords;
use jem_seq::SeqError;
use jem_sketch::SketchScheme;
use std::fs::File;
use std::io::{BufReader, Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::Arc;

const MAGIC: &[u8; 8] = b"JEMIDX6\0";
/// Fixed v4–v6 header length in words.
const HEADER_WORDS: usize = 16;

fn format_err(msg: impl Into<String>) -> SeqError {
    SeqError::InvalidParameter(msg.into())
}

/// A config decode error as a load error naming the index.
fn config_err(e: SeqError) -> SeqError {
    format_err(format!("index holds an invalid configuration: {e}"))
}

/// Accept only the v6 magic: a legacy one is refused with the command
/// that rewrites it, anything else as not an index.
fn check_magic(magic: &[u8; 8]) -> Result<(), SeqError> {
    if magic == MAGIC {
        return Ok(());
    }
    Err(match legacy::version(magic) {
        Some(v) => format_err(format!(
            "index is JEMIDX{v}, a retired format no loader reads: rewrite it as JEMIDX6 \
             with `jem index --upgrade OLD.jem --out NEW.jem`"
        )),
        None => format_err("not a JEM index file (bad magic)"),
    })
}

/// Serialize a built mapper index in the current (v6) format.
///
/// Streams the header, the names and the table's own words — no second
/// image of the index is built — with the checksum computed over the same
/// words first. The output is canonical: for a given logical index the
/// bytes are identical however the mapper was obtained — `save → load →
/// save` round-trips exactly. Recorded under a `persist/save` span.
pub fn save_index<W: Write>(out: &mut W, mapper: &JemMapper) -> Result<(), SeqError> {
    let _span = jem_obs::span("persist/save");
    let names = names_words(mapper);
    let table = mapper.table().blob();
    let names_off = HEADER_WORDS;
    let table_off = names_off + names.len();
    let mut header = [0u64; HEADER_WORDS];
    header[0] = u64::from_le_bytes(*MAGIC);
    header[1] = (table_off + table.len()) as u64;
    header[4..11].copy_from_slice(&config_words(mapper.config(), mapper.scheme()));
    header[11] = mapper.n_subjects() as u64;
    header[12] = names_off as u64;
    header[13] = names.len() as u64;
    header[14] = table_off as u64;
    header[15] = table.len() as u64;
    header[3] = checksum_words(&header[4..11]);
    header[2] = checksum_chain([&header[3..], &names[..], table]);
    let mut buf = Vec::with_capacity(64 * 1024);
    for words in [&header[..], &names[..], table] {
        for chunk in words.chunks(8 * 1024) {
            buf.clear();
            for w in chunk {
                buf.extend_from_slice(&w.to_le_bytes());
            }
            out.write_all(&buf)?;
        }
    }
    Ok(())
}

/// The names section of `mapper`: per subject, the byte length, then
/// the name zero-padded to whole words.
fn names_words(mapper: &JemMapper) -> Vec<u64> {
    let mut words = Vec::new();
    for name in mapper.subject_names() {
        words.push(name.len() as u64);
        for chunk in name.as_bytes().chunks(8) {
            let mut b = [0u8; 8];
            b[..chunk.len()].copy_from_slice(chunk);
            words.push(u64::from_le_bytes(b));
        }
    }
    words
}

fn read_u64<R: Read>(input: &mut R) -> Result<u64, SeqError> {
    let mut buf = [0u8; 8];
    input.read_exact(&mut buf)?;
    Ok(u64::from_le_bytes(buf))
}

/// Deserialize an index written by [`save_index`] (v6).
///
/// Returns `Err` — never panics — on any malformed input: bad magic, a
/// legacy format (named with the upgrade that rewrites it), a truncated
/// or extended frame, a checksum mismatch, or a body that fails
/// structural validation.
pub fn load_index<R: Read>(input: &mut R) -> Result<JemMapper, SeqError> {
    let mut magic = [0u8; 8];
    input.read_exact(&mut magic)?;
    check_magic(&magic)?;
    parse_words(Arc::new(read_word_stream(input, &magic)?))
}

/// Read any index file `jem index --upgrade` takes: a v6 file as
/// [`load_index`] reads it, or a legacy v3, v4 or v5 file, verified as
/// fully under its own FNV-1a checksums and structure rules. Save the
/// result with [`save_index`] to rewrite it as v6; a legacy file of a
/// contig set upgrades to exactly the bytes a fresh build writes.
pub fn upgrade_index<R: Read>(input: &mut R) -> Result<JemMapper, SeqError> {
    let mut magic = [0u8; 8];
    input.read_exact(&mut magic)?;
    match legacy::version(&magic) {
        Some(version) => legacy::load(input, version, &magic),
        None => {
            check_magic(&magic)?;
            parse_words(Arc::new(read_word_stream(input, &magic)?))
        }
    }
}

/// Read a v4–v6 word image from a stream, its `magic` already consumed:
/// the portable owned-buffer path. The header is read and sanity-checked
/// before the body so a bogus stream fails before bulk allocation.
fn read_word_stream<R: Read>(input: &mut R, magic: &[u8; 8]) -> Result<Vec<u64>, SeqError> {
    let mut header = [0u64; HEADER_WORDS];
    header[0] = u64::from_le_bytes(*magic);
    for w in header.iter_mut().skip(1) {
        *w = read_u64(input)?;
    }
    let file_words = usize::try_from(header[1])
        .map_err(|_| format_err("index header declares an impossible length"))?;
    if file_words < HEADER_WORDS {
        return Err(format_err(format!(
            "index header declares {file_words} words, below the {HEADER_WORDS}-word minimum"
        )));
    }
    let mut words = Vec::with_capacity(file_words.min(1 << 24));
    words.extend_from_slice(&header);
    read_words_into(input, file_words, &mut words)?;
    // `read_exact` retries interrupted reads; running out is the good case.
    match input.read_exact(&mut [0u8; 1]) {
        Ok(()) => Err(format_err(
            "index frame has trailing bytes after the declared length",
        )),
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => Ok(words),
        Err(e) => Err(e.into()),
    }
}

/// Read little-endian words from `input` until `words` holds `total` of
/// them. `read_exact` absorbs short reads and retries interrupted ones; the
/// capacity grows with what actually arrives, so a corrupt length cannot
/// trigger a huge up-front allocation.
fn read_words_into<R: Read>(
    input: &mut R,
    total: usize,
    words: &mut Vec<u64>,
) -> Result<(), SeqError> {
    let mut buf = vec![0u8; 64 * 1024];
    while words.len() < total {
        let take = (total - words.len()).min(buf.len() / 8);
        input.read_exact(&mut buf[..take * 8]).map_err(|_| {
            format_err(format!(
                "index truncated: header declares {total} words, stream ended at {}",
                words.len()
            ))
        })?;
        words.extend(
            buf[..take * 8]
                .chunks_exact(8)
                .map(|c| u64::from_le_bytes(c.try_into().expect("8-byte chunk"))),
        );
    }
    Ok(())
}

/// A memory-mapped word source (newtype so the `WordSource` impl lives
/// beside the trait's consumers while `jem-mmap` stays dependency-free).
#[derive(Debug)]
struct MappedWords(MmapWords);

impl WordSource for MappedWords {
    fn words(&self) -> &[u64] {
        self.0.words()
    }
}

/// Load a v6 index file by path, fully verified.
///
/// The zero-copy path: the file is memory-mapped (falling back to an
/// owned read where `mmap` is unavailable) and the posting arena is
/// served straight from the mapping. A legacy file is refused at its
/// magic with an error naming `jem index --upgrade`.
///
/// Emits load-path metrics to the global [`jem_obs`] recorder:
/// `persist.load_mmap` / `persist.load_owned` (which backing the file was
/// read through) and `persist.arena_copy_bytes` — the bytes *copied* to
/// make the index resident: `0` on the mmap path, the file size on the
/// owned one — under a `persist/load` span.
pub fn load_index_path(path: impl AsRef<Path>) -> Result<JemMapper, SeqError> {
    let rec = jem_obs::recorder();
    let _span = jem_obs::Span::enter(rec, "persist/load");
    let OpenedIndex {
        mut file, file_len, ..
    } = open_index(path.as_ref())?;
    let source: Arc<dyn WordSource> = match MmapWords::map(&file) {
        Ok(map) => {
            rec.add("persist.load_mmap", 1);
            rec.add("persist.arena_copy_bytes", 0);
            Arc::new(MappedWords(map))
        }
        Err(_) => {
            // Portable fallback: one owned read of the declared length
            // (already checked against the file size by `open_index`).
            file.seek(SeekFrom::Start(0))?;
            let total = (file_len / 8) as usize;
            let mut words = Vec::with_capacity(total);
            read_words_into(&mut BufReader::new(file), total, &mut words)?;
            rec.add("persist.load_owned", 1);
            rec.add("persist.arena_copy_bytes", file_len);
            Arc::new(words)
        }
    };
    parse_words(source)
}

/// The configuration an index file was built with, read from its header
/// alone — what `jem map` needs (ℓ) to ingest queries while the full load
/// runs beside it. The header passes the same checks the loaders apply
/// before they read any bulk (magic, declared length against the file
/// size, the config hash, a valid configuration and scheme); the checksum
/// and table structure are left to [`load_index_path`].
pub fn read_index_config(path: impl AsRef<Path>) -> Result<MapperConfig, SeqError> {
    Ok(header_config(&open_index(path.as_ref())?.header, checksum_words)?.0)
}

/// A v6 file opened by path whose declared word count matches its size.
struct OpenedIndex {
    file: File,
    file_len: u64,
    header: [u64; HEADER_WORDS],
}

/// Open `path` and check its magic and declared length — the fail-fast
/// step shared by [`load_index_path`] and [`read_index_config`], so
/// pointing either at the wrong file dies here.
fn open_index(path: &Path) -> Result<OpenedIndex, SeqError> {
    let mut file = File::open(path)?;
    let file_len = file.metadata()?.len();
    let mut bytes = [0u8; 8 * HEADER_WORDS];
    file.read_exact(&mut bytes[..8])?;
    check_magic(bytes[..8].try_into().expect("8 bytes"))?;
    if file_len % 8 != 0 {
        return Err(format_err(format!(
            "index length {file_len} is not a multiple of 8 bytes"
        )));
    }
    file.read_exact(&mut bytes[8..])?;
    let mut header = [0u64; HEADER_WORDS];
    for (w, b) in header.iter_mut().zip(bytes.chunks_exact(8)) {
        *w = u64::from_le_bytes(b.try_into().expect("8-byte chunk"));
    }
    let file_words = header[1];
    if file_words.checked_mul(8) != Some(file_len) {
        return Err(format_err(format!(
            "index header declares {file_words} words but the file holds {file_len} bytes"
        )));
    }
    Ok(OpenedIndex {
        file,
        file_len,
        header,
    })
}

/// Validate a complete v6 word image and wrap it into a mapper.
fn parse_words(source: Arc<dyn WordSource>) -> Result<JemMapper, SeqError> {
    let layout = Layout::check(source.words(), MAGIC, checksum_words)?;
    let flat = layout.flat_table(source)?;
    layout.into_mapper(flat)
}

/// What a v4–v6 word image declares once its magic, length, whole-file
/// checksum, config hash, section tiling and names hold: everything but
/// the table.
struct Layout {
    config: MapperConfig,
    scheme: SketchScheme,
    names: Vec<String>,
    table_off: usize,
    table_words: usize,
}

impl Layout {
    /// Check the image `words` against `magic`, with `hash` the function
    /// its format seals words 2 and 3 with.
    fn check(words: &[u64], magic: &[u8; 8], hash: fn(&[u64]) -> u64) -> Result<Layout, SeqError> {
        if words.len() < HEADER_WORDS {
            return Err(format_err(format!(
                "index needs at least {HEADER_WORDS} words, have {}",
                words.len()
            )));
        }
        if words[0] != u64::from_le_bytes(*magic) {
            return Err(format_err("index magic does not match its format"));
        }
        if words[1] != words.len() as u64 {
            return Err(format_err(format!(
                "index header declares {} words but {} are present",
                words[1],
                words.len()
            )));
        }
        let computed = hash(&words[3..]);
        if computed != words[2] {
            return Err(format_err(format!(
                "index checksum mismatch: header declares {:#018x}, file hashes to {computed:#018x}",
                words[2]
            )));
        }
        let (config, scheme) = header_config(words, hash)?;

        let n_subjects = as_usize(words[11], "subject count")?;
        let names_off = as_usize(words[12], "names offset")?;
        let names_words = as_usize(words[13], "names length")?;
        let table_off = as_usize(words[14], "table offset")?;
        let table_words = as_usize(words[15], "table length")?;
        // The canonical layout is fixed: names directly after the header,
        // table directly after the names, nothing after the table.
        if names_off != HEADER_WORDS
            || names_off.checked_add(names_words) != Some(table_off)
            || table_off.checked_add(table_words) != Some(words.len())
        {
            return Err(format_err(
                "index section offsets do not tile the file (names, then table)",
            ));
        }
        Ok(Layout {
            config,
            scheme,
            names: parse_names(&words[names_off..table_off], n_subjects)?,
            table_off,
            table_words,
        })
    }

    /// The flat table in `source`'s table section (a v5 or v6 image),
    /// structurally validated and filling the section exactly.
    fn flat_table(&self, source: Arc<dyn WordSource>) -> Result<FlatTable, SeqError> {
        let flat = FlatTable::from_source(source, self.table_off, self.config.trials)
            .map_err(|e| corrupt(&e))?;
        if flat.blob().len() != self.table_words {
            return Err(format_err(
                "index table section holds words past the table's end",
            ));
        }
        Ok(flat)
    }

    /// The mapper over `flat`, once every subject it names is in range and
    /// every posting is canonical.
    fn into_mapper(self, flat: FlatTable) -> Result<JemMapper, SeqError> {
        let n_subjects = self.names.len();
        if let Some(max) = flat.max_subject() {
            if max as usize >= n_subjects {
                return Err(format_err(format!(
                    "index table references subject {max} but only {n_subjects} subjects are named"
                )));
            }
        }
        flat.verify_postings().map_err(|e| corrupt(&e))?;
        Ok(JemMapper::from_table_with_scheme(
            flat,
            self.names,
            &self.config,
            self.scheme,
        ))
    }
}

fn corrupt(e: &dyn std::fmt::Display) -> SeqError {
    format_err(format!("index table is corrupt: {e}"))
}

/// A header word as a `usize` (`what` names it in the error).
fn as_usize(w: u64, what: &str) -> Result<usize, SeqError> {
    usize::try_from(w).map_err(|_| format_err(format!("index {what} {w} overflows usize")))
}

/// The configuration and scheme a v4–v6 header (at least
/// [`HEADER_WORDS`] words) declares, checked against its config hash
/// (under `hash`) and validated.
fn header_config(
    header: &[u64],
    hash: fn(&[u64]) -> u64,
) -> Result<(MapperConfig, SketchScheme), SeqError> {
    let config_hash = hash(&header[4..11]);
    if config_hash != header[3] {
        return Err(format_err(format!(
            "index config-hash mismatch: header declares {:#018x}, config hashes to {config_hash:#018x}",
            header[3]
        )));
    }
    let words = header[4..11]
        .try_into()
        .expect("a header holds the config words");
    config_from_words(words).map_err(config_err)
}

/// Parse the names section: per subject, a byte length followed by the
/// name zero-padded to whole words. Rejects truncation, oversized names,
/// non-zero padding (the writer is canonical), trailing words and
/// non-UTF-8.
fn parse_names(words: &[u64], n_subjects: usize) -> Result<Vec<String>, SeqError> {
    let mut names = Vec::with_capacity(n_subjects.min(1 << 16));
    let mut i = 0usize;
    for _ in 0..n_subjects {
        let len = *words
            .get(i)
            .ok_or_else(|| format_err("index names section truncated"))?;
        if len > 1 << 20 {
            return Err(format_err("unreasonable subject name length"));
        }
        let len = len as usize;
        i += 1;
        let n_words = len.div_ceil(8);
        if i + n_words > words.len() {
            return Err(format_err("index names section truncated"));
        }
        let mut bytes = Vec::with_capacity(n_words * 8);
        for w in &words[i..i + n_words] {
            bytes.extend_from_slice(&w.to_le_bytes());
        }
        if bytes[len..].iter().any(|&b| b != 0) {
            return Err(format_err("index name padding is not zeroed"));
        }
        bytes.truncate(len);
        names.push(String::from_utf8(bytes).map_err(|_| format_err("subject name is not UTF-8"))?);
        i += n_words;
    }
    if i != words.len() {
        return Err(format_err(
            "index names section has trailing words after the last name",
        ));
    }
    Ok(names)
}

/// Readers of the retired formats, kept only for [`upgrade_index`];
/// nothing writes them any more, and nothing else reads them. Every
/// section, slot and length is bounds-checked first, and any violation is
/// an error, never a panic.
mod legacy {
    use super::{
        config_err, config_from_words, format_err, read_u64, read_word_stream, FlatTable,
        JemMapper, Layout, MapperConfig, MaskedRun, SketchScheme, CONFIG_WORDS,
    };
    use jem_index::SubjectId;
    use jem_seq::SeqError;
    use std::io::Read;
    use std::sync::Arc;

    /// A `(trial, code, subject)` association.
    type Entry = (usize, u64, SubjectId);

    /// The version a retired magic names, if it is one.
    pub(super) fn version(magic: &[u8; 8]) -> Option<u8> {
        match magic {
            b"JEMIDX3\0" => Some(3),
            b"JEMIDX4\0" => Some(4),
            b"JEMIDX5\0" => Some(5),
            _ => None,
        }
    }

    /// One byte-wise FNV-1a step: the checksum the retired formats were
    /// sealed with.
    fn fnv1a_step(h: u64, b: u8) -> u64 {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    }

    /// FNV-1a's offset basis: the state of an empty input.
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

    /// Byte-wise FNV-1a of `bytes`.
    pub(super) fn fnv1a64(bytes: &[u8]) -> u64 {
        bytes.iter().fold(FNV_OFFSET, |h, &b| fnv1a_step(h, b))
    }

    /// [`fnv1a64`] over the little-endian bytes of `words`.
    pub(super) fn fnv1a64_words(words: &[u64]) -> u64 {
        words
            .iter()
            .flat_map(|w| w.to_le_bytes())
            .fold(FNV_OFFSET, fnv1a_step)
    }

    /// Read a legacy file of `version` from `input`, its `magic` already
    /// consumed, and verify it fully.
    pub(super) fn load<R: Read>(
        input: &mut R,
        version: u8,
        magic: &[u8; 8],
    ) -> Result<JemMapper, SeqError> {
        if version == 3 {
            let body_len = read_u64(input)?;
            let declared = read_u64(input)?;
            return load_v3_body(input, body_len, declared);
        }
        let words = read_word_stream(input, magic)?;
        let layout = Layout::check(&words, magic, fnv1a64_words)?;
        let flat = if version == 4 {
            let trials = layout.config.trials;
            table(
                trials,
                v4_entries(&words[layout.table_off..], trials).map_err(|e| super::corrupt(&e))?,
            )
        } else {
            layout.flat_table(Arc::new(words))?
        };
        layout.into_mapper(flat)
    }

    /// Read and validate the configuration and scheme that open a v3 body.
    fn read_v3_config<R: Read>(input: &mut R) -> Result<(MapperConfig, SketchScheme), SeqError> {
        let mut words = [0u64; CONFIG_WORDS];
        for word in &mut words {
            *word = read_u64(input)?;
        }
        config_from_words(&words).map_err(config_err)
    }

    /// Read and validate a v3 body (stream positioned after the 24-byte
    /// header, whose `body_len`/`declared` fields are passed in).
    fn load_v3_body<R: Read>(
        input: &mut R,
        body_len: u64,
        declared: u64,
    ) -> Result<JemMapper, SeqError> {
        let mut body = Vec::new();
        // `take` bounds the read without trusting `body_len` for an allocation.
        input.take(body_len).read_to_end(&mut body)?;
        if body.len() as u64 != body_len {
            return Err(format_err(format!(
                "index frame truncated: header declares {body_len} body bytes, found {}",
                body.len()
            )));
        }
        let computed = fnv1a64(&body);
        if computed != declared {
            return Err(format_err(format!(
                "index checksum mismatch: frame declares {declared:#018x}, body hashes to {computed:#018x}"
            )));
        }

        let input = &mut body.as_slice();
        let (config, scheme) = read_v3_config(input)?;
        let trials = config.trials;

        let n_subjects = read_u64(input)? as usize;
        let mut names = Vec::with_capacity(n_subjects.min(1 << 16));
        for _ in 0..n_subjects {
            let len = read_u64(input)? as usize;
            if len > 1 << 20 {
                return Err(format_err("unreasonable subject name length"));
            }
            let mut buf = vec![0u8; len];
            input.read_exact(&mut buf)?;
            names
                .push(String::from_utf8(buf).map_err(|_| format_err("subject name is not UTF-8"))?);
        }
        let stream_len = read_u64(input)? as usize;
        let mut stream = Vec::with_capacity(stream_len.min(1 << 20));
        for _ in 0..stream_len {
            stream.push(read_u64(input)?);
        }
        let entries = v3_entries(&stream, trials)
            .map_err(|e| format_err(format!("index table stream is corrupt: {e}")))?;
        Ok(JemMapper::from_table_with_scheme(
            table(trials, entries),
            names,
            &config,
            scheme,
        ))
    }

    /// The code-keyed table of a legacy file's entries.
    pub(super) fn table(trials: usize, entries: Vec<Entry>) -> FlatTable {
        FlatTable::from_runs(trials, vec![MaskedRun::from_entries(trials, entries)])
    }

    /// The entries of a JEMIDX v3 table stream:
    ///
    /// ```text
    /// per trial  [n_keys, (code, n_subjects, subjects…)*]
    /// ```
    ///
    /// Keys come in hash order and subject lists unsorted; one word per
    /// subject id.
    pub(super) fn v3_entries(stream: &[u64], trials: usize) -> Result<Vec<Entry>, String> {
        let len = stream.len();
        let word = |i: usize| {
            stream
                .get(i)
                .copied()
                .ok_or_else(|| format!("v3 stream truncated at word {i} of {len}"))
        };
        let mut entries = Vec::new();
        let mut i = 0usize;
        for t in 0..trials {
            let n_keys = word(i)?;
            i += 1;
            for _ in 0..n_keys {
                // `code` at i, `n_subjects` at i + 1, then the subject list.
                let code = word(i)?;
                let n_subj = word(i + 1)?;
                i += 2;
                let end = usize::try_from(n_subj)
                    .ok()
                    .and_then(|n| i.checked_add(n))
                    .filter(|&end| end <= len)
                    .ok_or_else(|| {
                        format!("v3 key at word {i} lists {n_subj} subjects past the stream")
                    })?;
                for &w in &stream[i..end] {
                    let subject = SubjectId::try_from(w)
                        .map_err(|_| format!("v3 subject id {w} overflows u32"))?;
                    entries.push((t, code, subject));
                }
                i = end;
            }
        }
        if i != len {
            return Err(format!("v3 stream has {} trailing words", len - i));
        }
        Ok(entries)
    }

    /// The entries of a JEMIDX v4 table section — `T` per-trial banks:
    ///
    /// ```text
    /// word 0        trial count T
    /// words 1..1+4T per trial t: bucket_off, bucket_cap, arena_off, arena_len
    ///               (blob-relative word offsets; arena_len counts subject ids)
    /// sections      per trial: bucket_cap slots [code, (start << 24) | len]
    ///               (0 = empty), then the arena's subject ids packed two per
    ///               word, low half first
    /// ```
    pub(super) fn v4_entries(table: &[u64], trials: usize) -> Result<Vec<Entry>, String> {
        let len = table.len();
        let word = |i: usize| {
            table
                .get(i)
                .copied()
                .ok_or_else(|| format!("v4 table truncated at word {i} of {len}"))
        };
        let index = |v: u64| usize::try_from(v).map_err(|_| format!("v4 offset {v} overflows"));
        if word(0)? != trials as u64 {
            return Err(format!(
                "v4 table declares {} trials, expected {trials}",
                table[0]
            ));
        }
        let mut entries = Vec::new();
        for t in 0..trials {
            let m = 1 + 4 * t;
            let (cap, arena_len) = (word(m + 1)?, index(word(m + 3)?)?);
            if cap != 0 && !cap.is_power_of_two() {
                return Err(format!(
                    "v4 trial {t} bucket capacity {cap} is not a power of two"
                ));
            }
            let (buckets, cap, arena) = (index(word(m)?)?, index(cap)?, index(word(m + 2)?)?);
            let fits = |off: usize, n: usize| off.checked_add(n).is_some_and(|end| end <= len);
            if !fits(buckets, cap.saturating_mul(2)) || !fits(arena, arena_len.div_ceil(2)) {
                return Err(format!("v4 trial {t} sections reach past the table"));
            }
            for slot in 0..cap {
                let off_len = table[buckets + 2 * slot + 1];
                if off_len == 0 {
                    continue;
                }
                let (start, n) = ((off_len >> 24) as usize, (off_len & 0xFF_FFFF) as usize);
                if n == 0 || start.checked_add(n).is_none_or(|end| end > arena_len) {
                    return Err(format!(
                        "v4 trial {t} slot {slot} addresses postings outside the arena"
                    ));
                }
                let code = table[buckets + 2 * slot];
                entries.extend((start..start + n).map(|j| {
                    let subject = table[arena + j / 2] >> (32 * (j & 1));
                    (t, code, subject as SubjectId)
                }));
            }
        }
        Ok(entries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jem_seq::SeqRecord;
    use jem_sim::{contig_records, fragment_contigs, ContigProfile, Genome};

    /// The legacy v3 writer, kept only to give the v3 reader fresh bytes.
    fn write_v3<W: Write>(out: &mut W, mapper: &JemMapper) -> Result<(), SeqError> {
        let mut body = Vec::new();
        for v in config_words(mapper.config(), mapper.scheme()) {
            body.extend_from_slice(&v.to_le_bytes());
        }
        body.extend_from_slice(&(mapper.n_subjects() as u64).to_le_bytes());
        for id in 0..mapper.n_subjects() {
            let name = mapper.subject_name(id as u32).as_bytes();
            body.extend_from_slice(&(name.len() as u64).to_le_bytes());
            body.extend_from_slice(name);
        }
        let stream = v3_stream(mapper.table());
        body.extend_from_slice(&(stream.len() as u64).to_le_bytes());
        for v in &stream {
            body.extend_from_slice(&v.to_le_bytes());
        }
        out.write_all(b"JEMIDX3\0")?;
        out.write_all(&(body.len() as u64).to_le_bytes())?;
        out.write_all(&legacy::fnv1a64(&body).to_le_bytes())?;
        out.write_all(&body)?;
        Ok(())
    }

    /// The legacy v5 bytes of `mapper`: its v6 file with the v5 magic and
    /// words 2 and 3 under FNV-1a.
    fn v5_file(mapper: &JemMapper) -> Vec<u8> {
        let (mut words, _) = v6_words(mapper);
        words[0] = u64::from_le_bytes(*b"JEMIDX5\0");
        words[3] = legacy::fnv1a64_words(&words[4..11]);
        words[2] = legacy::fnv1a64_words(&words[3..]);
        words.iter().flat_map(|w| w.to_le_bytes()).collect()
    }

    /// A table as the v3 per-trial stream, keys in ascending code order:
    /// every code probed on every trial.
    fn v3_stream(table: &FlatTable) -> Vec<u64> {
        let trials = table.trials();
        let mut codes = Vec::new();
        table.for_each_code(|code, _| codes.push(code));
        codes.sort_unstable();
        let mut every_trial = vec![0u32; table.mask_words()];
        for t in 0..trials {
            every_trial[t / 32] |= 1 << (t % 32);
        }
        let mut per_trial: Vec<Vec<(u64, Vec<u64>)>> = vec![Vec::new(); trials];
        let mut scratch = jem_index::ProbeScratch::default();
        for code in codes {
            let mut lists = vec![Vec::new(); trials];
            table.probe(&[code], &every_trial, &mut scratch, |s, mask| {
                for (t, list) in lists.iter_mut().enumerate() {
                    if mask[t / 32] >> (t % 32) & 1 == 1 {
                        list.push(u64::from(s));
                    }
                }
            });
            for (keys, list) in per_trial.iter_mut().zip(lists) {
                if !list.is_empty() {
                    keys.push((code, list));
                }
            }
        }
        let mut stream = Vec::new();
        for keys in per_trial {
            stream.push(keys.len() as u64);
            for (code, list) in keys {
                stream.extend([code, list.len() as u64]);
                stream.extend(list);
            }
        }
        stream
    }

    fn build() -> (JemMapper, Vec<SeqRecord>) {
        let genome = Genome::random(40_000, 0.5, 123);
        let contigs = fragment_contigs(&genome, &ContigProfile::small_genome(), 124);
        let subjects = contig_records(&contigs);
        let config = MapperConfig {
            k: 12,
            w: 8,
            trials: 6,
            ell: 300,
            seed: 9,
        };
        (JemMapper::build(&subjects, &config), subjects)
    }

    /// A deliberately tiny index, so exhaustive corruption sweeps stay fast.
    fn build_tiny() -> JemMapper {
        let genome = Genome::random(3_000, 0.5, 55);
        let contigs = fragment_contigs(&genome, &ContigProfile::small_genome(), 56);
        let subjects = contig_records(&contigs);
        let config = MapperConfig {
            k: 12,
            w: 8,
            trials: 2,
            ell: 300,
            seed: 9,
        };
        JemMapper::build(&subjects, &config)
    }

    fn temp_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("jem-persist-test-{tag}-{}", std::process::id()))
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let (mapper, subjects) = build();
        let mut buf = Vec::new();
        save_index(&mut buf, &mapper).unwrap();
        let loaded = load_index(&mut buf.as_slice()).unwrap();
        assert_eq!(loaded.config(), mapper.config());
        assert_eq!(loaded.n_subjects(), mapper.n_subjects());
        for i in 0..mapper.n_subjects() {
            assert_eq!(loaded.subject_name(i as u32), mapper.subject_name(i as u32));
        }
        assert_eq!(loaded.table().entry_count(), mapper.table().entry_count());
        // Mapping behaviour identical.
        let query = subjects[1].seq[..250.min(subjects[1].seq.len())].to_vec();
        let mut c1 = mapper.new_counter();
        let mut c2 = loaded.new_counter();
        assert_eq!(
            mapper.map_segment(&query, 0, &mut c1),
            loaded.map_segment(&query, 0, &mut c2)
        );
    }

    #[test]
    fn save_load_save_is_byte_identical() {
        let (mapper, _) = build();
        let mut first = Vec::new();
        save_index(&mut first, &mapper).unwrap();
        let loaded = load_index(&mut first.as_slice()).unwrap();
        let mut second = Vec::new();
        save_index(&mut second, &loaded).unwrap();
        assert_eq!(first, second, "v6 round-trip must reproduce exact bytes");
    }

    #[test]
    fn legacy_upgrades_produce_identical_v6_bytes() {
        let (mapper, _) = build();
        // Direct v6 save of the built mapper…
        let mut direct = Vec::new();
        save_index(&mut direct, &mapper).unwrap();
        // …must equal write-as-v3/v5 → upgrade → save (the upgrade path).
        let mut v3 = Vec::new();
        write_v3(&mut v3, &mapper).unwrap();
        for legacy in [v3, v5_file(&mapper)] {
            let migrated = upgrade_index(&mut legacy.as_slice()).unwrap();
            let mut upgraded = Vec::new();
            save_index(&mut upgraded, &migrated).unwrap();
            assert_eq!(direct, upgraded);
        }
        // A v6 file passes through the upgrade unchanged.
        let again = upgrade_index(&mut direct.as_slice()).unwrap();
        let mut same = Vec::new();
        save_index(&mut same, &again).unwrap();
        assert_eq!(direct, same);
    }

    #[test]
    fn path_load_uses_mmap_and_maps_identically() {
        let (mapper, subjects) = build();
        let path = temp_path("mmap");
        let mut f = File::create(&path).unwrap();
        save_index(&mut f, &mapper).unwrap();
        drop(f);
        let loaded = load_index_path(&path).unwrap();
        let query = subjects[2].seq[..250.min(subjects[2].seq.len())].to_vec();
        let mut c1 = mapper.new_counter();
        let mut c2 = loaded.new_counter();
        assert_eq!(
            mapper.map_segment(&query, 0, &mut c1),
            loaded.map_segment(&query, 0, &mut c2)
        );
        // Saving the mmap-backed mapper reproduces the exact file bytes.
        let mut again = Vec::new();
        save_index(&mut again, &loaded).unwrap();
        assert_eq!(again, std::fs::read(&path).unwrap());
        drop(loaded);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn path_load_rejects_wrong_file_before_reading_body() {
        let path = temp_path("wrongfile");
        // A v6 header that declares far more words than the file holds.
        let mut words = vec![0u64; HEADER_WORDS];
        words[0] = u64::from_le_bytes(*MAGIC);
        words[1] = 1 << 40;
        let mut f = File::create(&path).unwrap();
        for w in &words {
            f.write_all(&w.to_le_bytes()).unwrap();
        }
        drop(f);
        let err = load_index_path(&path).unwrap_err();
        assert!(
            err.to_string().contains("declares"),
            "unexpected error: {err}"
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn header_peek_reads_the_config() {
        let (mapper, _) = build();
        let path = temp_path("peek6");
        let mut bytes = Vec::new();
        save_index(&mut bytes, &mapper).unwrap();
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(read_index_config(&path).unwrap(), *mapper.config());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn header_peek_applies_the_loaders_fail_fast_checks() {
        let (mapper, _) = build();
        let mut good = Vec::new();
        save_index(&mut good, &mapper).unwrap();
        let path = temp_path("peekbad");
        let mut config_flip = good.clone();
        config_flip[8 * 7] ^= 1; // ell: the config hash no longer matches
        let cases: [(&str, Vec<u8>); 4] = [
            ("bad magic", b"NOTANIDX-and-then-some-bytes".to_vec()),
            ("truncated", good[..good.len() - 8].to_vec()),
            ("short header", good[..40].to_vec()),
            ("config hash", config_flip),
        ];
        for (what, bytes) in cases {
            std::fs::write(&path, &bytes).unwrap();
            assert!(
                read_index_config(&path).is_err(),
                "{what} must fail the peek"
            );
            assert!(load_index_path(&path).is_err(), "{what} must fail the load");
        }
        // A flipped table word passes the header checks; only the full
        // load's checksum catches it.
        let mut body_flip = good.clone();
        let last = body_flip.len() - 1;
        body_flip[last] ^= 0x40;
        std::fs::write(&path, &body_flip).unwrap();
        assert_eq!(read_index_config(&path).unwrap(), *mapper.config());
        let err = load_index_path(&path).unwrap_err();
        assert!(err.to_string().contains("checksum"), "unexpected: {err}");
        std::fs::remove_file(&path).unwrap();
        assert!(read_index_config(&path).is_err(), "a missing file fails");
    }

    #[test]
    fn every_loader_refuses_legacy_files_naming_the_upgrade() {
        let mapper = build_tiny();
        let mut v3 = Vec::new();
        write_v3(&mut v3, &mapper).unwrap();
        let fx = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../tests/fixtures/format-compat/index_v4.jem");
        let v4 = std::fs::read(fx).unwrap();
        let path = temp_path("legacy");
        for (version, bytes) in [(3, v3), (4, v4), (5, v5_file(&mapper))] {
            std::fs::write(&path, &bytes).unwrap();
            let errors = [
                load_index(&mut bytes.as_slice()).unwrap_err(),
                load_index_path(&path).unwrap_err(),
                read_index_config(&path).unwrap_err(),
            ];
            for err in errors {
                let msg = err.to_string();
                assert!(
                    msg.contains(&format!("JEMIDX{version}"))
                        && msg.contains("jem index --upgrade"),
                    "v{version}: {msg}"
                );
            }
            // The upgrade reads it, and a damaged copy fails typed there.
            assert!(upgrade_index(&mut bytes.as_slice()).is_ok(), "v{version}");
            let cut = &bytes[..bytes.len() - 10];
            assert!(upgrade_index(&mut &cut[..]).is_err(), "v{version} cut");
        }
        std::fs::remove_file(&path).unwrap();
    }

    /// A legal but awkward reader: at most 3 bytes per `read`, and an
    /// `Interrupted` error before every other one.
    struct Dribble<'a> {
        bytes: &'a [u8],
        interrupt: bool,
    }

    impl Read for Dribble<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.interrupt = !self.interrupt;
            if self.interrupt {
                return Err(std::io::ErrorKind::Interrupted.into());
            }
            let n = buf.len().min(3).min(self.bytes.len());
            buf[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes = &self.bytes[n..];
            Ok(n)
        }
    }

    #[test]
    fn owned_reads_absorb_short_and_interrupted_reads() {
        let mapper = build_tiny();
        let mut file = Vec::new();
        save_index(&mut file, &mapper).unwrap();
        let dribble = |bytes| Dribble {
            bytes,
            interrupt: false,
        };
        // The path loader's owned fallback reads the declared length…
        let mut words = Vec::new();
        read_words_into(&mut dribble(&file), file.len() / 8, &mut words).unwrap();
        let owned = parse_words(Arc::new(words)).unwrap();
        let mut again = Vec::new();
        save_index(&mut again, &owned).unwrap();
        assert_eq!(again, file);
        // …and so does the stream loader, trailing-byte probe included.
        let streamed = load_index(&mut dribble(&file)).unwrap();
        assert_eq!(streamed.table().blob(), mapper.table().blob());
        // A stream that ends early is a typed truncation, not a panic.
        let err = read_words_into(
            &mut dribble(&file[..file.len() - 5]),
            file.len() / 8,
            &mut Vec::new(),
        )
        .unwrap_err();
        assert!(err.to_string().contains("truncated"), "unexpected: {err}");
    }

    #[test]
    fn bad_magic_rejected() {
        let mut data = b"NOTANIDX".to_vec();
        data.extend_from_slice(&[0u8; 64]);
        assert!(load_index(&mut data.as_slice()).is_err());
    }

    #[test]
    fn truncated_file_rejected() {
        let (mapper, _) = build();
        let mut buf = Vec::new();
        save_index(&mut buf, &mapper).unwrap();
        buf.truncate(buf.len() / 2);
        assert!(load_index(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn extended_file_rejected() {
        let (mapper, _) = build();
        let mut buf = Vec::new();
        save_index(&mut buf, &mapper).unwrap();
        buf.push(0);
        assert!(load_index(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn every_single_byte_flip_rejected() {
        let mapper = build_tiny();
        let mut buf = Vec::new();
        save_index(&mut buf, &mapper).unwrap();
        assert!(
            load_index(&mut buf.as_slice()).is_ok(),
            "pristine file must load"
        );
        for i in 0..buf.len() {
            let mut bad = buf.clone();
            bad[i] ^= 0x01;
            assert!(
                load_index(&mut bad.as_slice()).is_err(),
                "flip of byte {i} went undetected"
            );
        }
    }

    #[test]
    fn every_single_byte_flip_rejected_by_the_legacy_upgrade() {
        let mapper = build_tiny();
        let mut v3 = Vec::new();
        write_v3(&mut v3, &mapper).unwrap();
        for (version, buf) in [(3, v3), (5, v5_file(&mapper))] {
            assert!(
                upgrade_index(&mut buf.as_slice()).is_ok(),
                "pristine v{version} file must upgrade"
            );
            for i in 0..buf.len() {
                let mut bad = buf.clone();
                bad[i] ^= 0x01;
                assert!(
                    upgrade_index(&mut bad.as_slice()).is_err(),
                    "v{version}: flip of byte {i} went undetected"
                );
            }
        }
    }

    #[test]
    fn corrupt_but_well_framed_stream_rejected_by_decode() {
        // Hand-build a v3 file whose frame (length + checksum) is intact but
        // whose table stream is structural garbage: the error must come from
        // the fallible decode, not a panic.
        let mut body = Vec::new();
        for v in [12u64, 8, 2, 300, 9] {
            body.extend_from_slice(&v.to_le_bytes());
        }
        for v in [0u64, 8] {
            body.extend_from_slice(&v.to_le_bytes()); // minimizer, w = 8
        }
        body.extend_from_slice(&0u64.to_le_bytes()); // no subjects
        body.extend_from_slice(&1u64.to_le_bytes()); // stream_len = 1
        body.extend_from_slice(&999u64.to_le_bytes()); // garbage stream word
        let mut file = b"JEMIDX3\0".to_vec();
        file.extend_from_slice(&(body.len() as u64).to_le_bytes());
        file.extend_from_slice(&legacy::fnv1a64(&body).to_le_bytes());
        file.extend_from_slice(&body);
        let err = upgrade_index(&mut file.as_slice()).unwrap_err();
        assert!(
            err.to_string().contains("table stream is corrupt"),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn old_format_magic_rejected() {
        let mut data = b"JEMIDX2\0".to_vec();
        data.extend_from_slice(&[0u8; 128]);
        assert!(load_index(&mut data.as_slice()).is_err());
        assert!(upgrade_index(&mut data.as_slice()).is_err());
    }

    #[test]
    fn v3_roundtrips_through_legacy_writer() {
        let (mapper, subjects) = build();
        let mut buf = Vec::new();
        write_v3(&mut buf, &mapper).unwrap();
        let loaded = upgrade_index(&mut buf.as_slice()).unwrap();
        assert_eq!(loaded.config(), mapper.config());
        assert_eq!(loaded.n_subjects(), mapper.n_subjects());
        assert_eq!(loaded.table().entry_count(), mapper.table().entry_count());
        let query = subjects[1].seq[..250.min(subjects[1].seq.len())].to_vec();
        let mut c1 = mapper.new_counter();
        let mut c2 = loaded.new_counter();
        assert_eq!(
            mapper.map_segment(&query, 0, &mut c1),
            loaded.map_segment(&query, 0, &mut c2)
        );
    }

    #[test]
    fn syncmer_index_roundtrips_with_scheme() {
        let genome = Genome::random(30_000, 0.5, 321);
        let contigs = fragment_contigs(&genome, &ContigProfile::small_genome(), 322);
        let subjects = contig_records(&contigs);
        let config = MapperConfig {
            k: 16,
            w: 8,
            trials: 6,
            ell: 300,
            seed: 9,
        };
        let scheme = SketchScheme::ClosedSyncmer { s: 11 };
        let mapper = JemMapper::build_with_scheme(&subjects, &config, scheme);
        let mut buf = Vec::new();
        save_index(&mut buf, &mapper).unwrap();
        let loaded = load_index(&mut buf.as_slice()).unwrap();
        assert_eq!(loaded.scheme(), scheme);
        let query = subjects[0].seq[..250.min(subjects[0].seq.len())].to_vec();
        let mut c1 = mapper.new_counter();
        let mut c2 = loaded.new_counter();
        assert_eq!(
            mapper.map_segment(&query, 0, &mut c1),
            loaded.map_segment(&query, 0, &mut c2)
        );
    }

    #[test]
    fn empty_index_roundtrips() {
        let config = MapperConfig {
            k: 12,
            w: 8,
            trials: 4,
            ell: 300,
            seed: 1,
        };
        let mapper = JemMapper::build(&[], &config);
        let mut buf = Vec::new();
        save_index(&mut buf, &mapper).unwrap();
        let loaded = load_index(&mut buf.as_slice()).unwrap();
        assert_eq!(loaded.n_subjects(), 0);
        assert_eq!(loaded.table().entry_count(), 0);
    }

    /// The words of a well-checksummed v6 file, and the word index where
    /// its posting arena starts.
    fn v6_words(mapper: &JemMapper) -> (Vec<u64>, usize) {
        let mut buf = Vec::new();
        save_index(&mut buf, mapper).unwrap();
        let words: Vec<u64> = buf
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
            .collect();
        let table_off = words[14] as usize;
        let cap = words[table_off + 1] as usize;
        assert!(words[table_off + 2] > 0, "tiny index must have postings");
        (words, table_off + 4 + 2 * cap)
    }

    /// Re-seal the checksum so only the structural checks can object.
    fn reseal(words: &mut [u64]) {
        words[2] = checksum_words(&words[3..]);
    }

    #[test]
    fn out_of_range_subject_id_rejected() {
        // A well-checksummed v6 file whose arena references a subject id
        // beyond the name table must fail to load.
        let (mut words, arena) = v6_words(&build_tiny());
        words[arena] |= u64::from(u32::MAX);
        reseal(&mut words);
        let err = parse_words(Arc::new(words)).unwrap_err();
        assert!(
            err.to_string().contains("subjects are named"),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn non_canonical_postings_rejected_under_full_integrity() {
        // A zero mask and a mask bit at or above T: structurally sound, so
        // the table's structure-only check maps them, but a load refuses
        // both.
        let mapper = build_tiny();
        let trials = mapper.config().trials as u32;
        let (pristine, arena) = v6_words(&mapper);
        for mask in [0u64, 1 << trials] {
            let mut words = pristine.clone();
            words[arena] = (words[arena] & 0xFFFF_FFFF) | (mask << 32);
            reseal(&mut words);
            let table_off = words[14] as usize;
            let source: Arc<dyn WordSource> = Arc::new(words);
            let err = parse_words(Arc::clone(&source)).unwrap_err();
            assert!(
                err.to_string().contains("non-canonical"),
                "unexpected: {err}"
            );
            // Even unverified, a corrupt mask cannot push a count past T:
            // query masks hold only trials below T.
            let flat = FlatTable::from_source(source, table_off, trials as usize).unwrap();
            let loaded = JemMapper::from_table_with_scheme(
                flat,
                mapper.subject_names().to_vec(),
                mapper.config(),
                mapper.scheme(),
            );
            let genome = Genome::random(3_000, 0.5, 55).seq;
            let mut counter = loaded.new_counter();
            for (qid, seg) in genome.chunks(300).enumerate() {
                if let Some((_, hits)) = loaded.map_segment(seg, qid as u64, &mut counter) {
                    assert!(hits <= trials, "a corrupt mask pushed a count past T");
                }
            }
        }
    }

    #[test]
    fn committed_v4_fixture_loads_through_the_legacy_decoder() {
        let fx = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../tests/fixtures/format-compat/index_v4.jem");
        let bytes = std::fs::read(&fx).unwrap();
        let mapped = upgrade_index(&mut bytes.as_slice()).unwrap();
        // The legacy decoder refuses a damaged bank layout with an error.
        let words: Vec<u64> = bytes
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
            .collect();
        let table = &words[words[14] as usize..];
        let trials = mapped.config().trials;
        assert!(legacy::v4_entries(table, trials).is_ok());
        for cut in [0, 1, 2, 4 * trials, table.len() - 1] {
            assert!(
                legacy::v4_entries(&table[..cut], trials).is_err(),
                "cut {cut}"
            );
        }
        let mut bad = table.to_vec();
        bad[2] = 3; // trial 0's bucket capacity
        assert!(legacy::v4_entries(&bad, trials).is_err());
    }

    #[test]
    fn v3_reader_takes_hash_order_streams() {
        // Keys out of order and a subject list unsorted: the entries fold
        // into the same table as the sorted stream's.
        let v3 = [3, 100, 2, 5, 2, 7, 1, 1, 9, 1, 1, 1, 9, 1, 4];
        let entries = legacy::v3_entries(&v3, 2).unwrap();
        assert_eq!(
            entries,
            [(0, 100, 5), (0, 100, 2), (0, 7, 1), (0, 9, 1), (1, 9, 4)]
        );
        let sorted = [3, 7, 1, 1, 9, 1, 1, 100, 2, 2, 5, 1, 9, 1, 4];
        let table = legacy::table(2, entries);
        assert_eq!(
            table.blob(),
            legacy::table(2, legacy::v3_entries(&sorted, 2).unwrap()).blob()
        );
        assert_eq!(table.entry_count(), 5);
    }

    #[test]
    fn v3_reader_refuses_malformed_streams() {
        let stream = [2, 7, 1, 1, 100, 2, 2, 5, 1, 9, 1, 4];
        assert!(legacy::v3_entries(&stream, 2).is_ok());
        for cut in 0..stream.len() {
            assert!(
                legacy::v3_entries(&stream[..cut], 2).is_err(),
                "cut at {cut}"
            );
        }
        let mut longer = stream.to_vec();
        longer.push(99);
        assert!(legacy::v3_entries(&longer, 2)
            .unwrap_err()
            .contains("trailing"));
        let overflow = [1, 42, 1, u64::from(u32::MAX) + 7];
        assert!(legacy::v3_entries(&overflow, 1)
            .unwrap_err()
            .contains("overflows u32"));
        for huge in [u64::MAX, 1 << 40] {
            assert!(legacy::v3_entries(&[1, 42, huge], 1).is_err());
        }
    }
}
