//! `jem` — the JEM-Mapper command-line toolkit.
//!
//! ```text
//! jem simulate    --out data/ --genome-len 500000 --coverage 10
//! jem index       --subjects data/contigs.fa --out data/index.jem
//! jem map         --index data/index.jem --queries data/reads.fq --out data/map.tsv
//! jem serve       --index data/index.jem --addr 127.0.0.1:7878 --shards 4
//! jem query       --addr 127.0.0.1:7878 --queries data/reads.fq --out data/map.tsv
//! jem distributed --subjects data/contigs.fa --queries data/reads.fq --ranks 8 \
//!                 --fault-plan 'crash@1:subject sketch'
//! jem eval        --mappings data/map.tsv --truth data/truth.tsv
//! jem scaffold    --subjects data/contigs.fa --mappings data/map.tsv --out data/scaffolds.fa
//! jem assemble    --simulate-from data/genome.fa --out data/asm.fa
//! ```

mod args;
mod commands;
mod error;
mod io;

use args::Args;
use error::CliError;

const USAGE: &str = "\
jem — parallel sketch-based mapping of long reads to contigs (JEM-mapper)

USAGE: jem <command> [--flag value ...]

COMMANDS:
  index       build a JEM sketch index over a contig set
                (--subjects FILE | --upgrade OLD.jem  rewrite an existing
                v3/v4/v5 artifact as v6) --out FILE
                [--k 16] [--w 100] [--trials 30] [--ell 1000] [--seed N]
                [--metrics FILE] [--syncmer S  use closed syncmers
                instead of minimizers]
  map         map long-read end segments to contigs (TSV to --out or stdout)
                (--index FILE | --subjects FILE) --queries FILE|- [--out FILE]
                [--paf FILE  also refine to coordinates + MAPQ as PAF;
                needs --subjects for the contig sequences]
                [--threads N  mapping workers, default one per core]
                [--metrics FILE]
                [config flags as for index]  (--queries - reads stdin)
  serve       keep a persisted index resident and serve mapping requests
              over TCP until `jem query --shutdown` (DESIGN.md §10–§11)
                --index FILE [--addr 127.0.0.1:7878] [--shards 4]
                [--slots LO-HI  own only this slice of the slot space,
                as one shard of a `jem route` topology]
                [--workers 4] [--queue 64] [--batch 16] [--metrics FILE]
                [--quota-rate T/S  per-client admission quota, 0 = off]
                [--quota-burst N] [--max-conns 256] [--max-inflight 32]
                [--idle-timeout-ms 2000  reap idle/half-open conns]
                [--straggle-ms 0  slow every batch, for deadline testing]
                [--panic-every 0  panic every Nth index pass, chaos only]
  route       scatter-gather front-end over `jem serve --slots` shards:
              kept-alive shard connections, hedged retries, per-shard circuit
              breakers, per-client admission quotas, degraded answers
              naming missing shards (DESIGN.md §13, §16)
                --topology 'LO-HI@ADDR[,REPLICA];...' [--addr
                127.0.0.1:7979] [--epoch 0] [--hedge-ms 50  0 = off]
                [--breaker-failures 3] [--breaker-cooldown-ms 250]
                [--deadline MS] [--io-timeout-ms 10000]
                [--quota-rate T/S  0 = off] [--quota-burst N]
                [--max-inflight 256] [--max-conns 1024]
                [--idle-timeout-ms 2000] [--metrics FILE]
                [--snapshot FILE  topology + breaker-state report]
  query       map reads through a running `jem serve` or `jem route`
              (TSV as for map)
                --addr HOST:PORT (--queries FILE|- | --ping | --shutdown
                | --reload FILE  hot-swap the server's index)
                [--client-id NAME  identify to quota-enforcing servers;
                over-quota exits 75 with the server's retry hint]
                [--chunk 64] [--deadline MS  shed instead of serving late]
                [--out FILE] [--paf FILE --subjects contigs.fa  refine the
                served hits to coordinates client-side]
                [--allow-degraded  accept a router's partial answers,
                report missing shards on stderr]
  distributed run the S1–S4 pipeline on simulated MPI ranks, with optional
              fault injection and recovery (makespan + fault report)
                --subjects FILE --queries FILE [--ranks 8] [--threads]
                [--fault-plan 'crash@R:STEP,corrupt@R:STEP,straggle@R:STEP*F']
                [--corruption-seed N] [--retries 3] [--checkpoint FILE]
                [--metrics FILE] [--out FILE] [config flags]
  simulate    generate a synthetic genome, contig set, HiFi reads and truth
                --out DIR [--genome-len 500000] [--coverage 10]
                [--profile eukaryotic|bacterial] [--seed 42] [--ell 1000]
  assemble    de Bruijn assembly of short reads (Minia-substitute)
                (--reads FILE | --simulate-from GENOME.fa [--coverage 30])
                --out FILE [--k 31] [--min-abundance 3] [--min-len 500]
                [--tip-len 93]
  contained   whole-read tiled mapping: every contig a read touches,
              including interior-contained ones
                (--index FILE | --subjects FILE) --queries FILE
                [--stride ELL/2] [--out FILE]
  eval        score a mapping TSV against truth coordinates (Fig. 4 benchmark)
                (--mappings FILE | --paf FILE | both) --truth FILE [--k 16]
                [--tolerance 100  max start offset in bases for a PAF
                placement to count as correct]
  bench       std-only micro-benchmarks on a seeded simulated dataset
              (stage: sketch). Writes a JSON perf trajectory file.
                jem bench sketch [--out BENCH_sketch.json]
                [--genome-len 2000000] [--coverage 2] [--iters 3]
                [config flags as for index]
  scaffold    chain contigs linked by long reads into scaffolds
                --subjects FILE --mappings FILE --out FILE
                [--min-support 2] [--gap 100]
  help        print this message
";

fn main() {
    let mut argv = std::env::args().skip(1);
    let command = match argv.next() {
        Some(c) => c,
        None => {
            eprint!("{USAGE}");
            std::process::exit(2);
        }
    };
    // `jem bench <stage>` carries one positional stage name; peel it off
    // before flag parsing (the parser rejects bare positionals by design).
    let mut argv = argv.peekable();
    let bench_stage = if command == "bench" {
        match argv.peek() {
            Some(tok) if !tok.starts_with("--") => argv.next(),
            _ => None,
        }
    } else {
        None
    };
    let result = Args::parse(argv).and_then(|args| match command.as_str() {
        "bench" => commands::cmd_bench(bench_stage.as_deref(), &args),
        "index" => commands::cmd_index(&args),
        "map" => commands::cmd_map(&args),
        "serve" => commands::cmd_serve(&args),
        "route" => commands::cmd_route(&args),
        "query" => commands::cmd_query(&args),
        "distributed" => commands::cmd_distributed(&args),
        "contained" => commands::cmd_contained(&args),
        "simulate" => commands::cmd_simulate(&args),
        "assemble" => commands::cmd_assemble(&args),
        "eval" => commands::cmd_eval(&args),
        "scaffold" => commands::cmd_scaffold(&args),
        "help" | "--help" | "-h" => {
            print!("{USAGE}");
            Ok(())
        }
        other => Err(CliError::Usage(format!(
            "unknown command {other:?} (try `jem help`)"
        ))),
    });
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(e.exit_code());
    }
}
