//! Fig. 7 — (a) runtime breakdown by pipeline step at p = 16;
//! (b) querying throughput as a function of p. Every cell keeps the faster
//! of two runs ([`super::faster_of_two_runs`]).

use crate::data::{env_seed, PreparedDataset};
use crate::output::{f, print_table, save_json};
use jem_psim::CostModel;

/// Process counts for the throughput series.
pub const PROCS: &[usize] = &[4, 8, 16, 32, 64];

/// Run both panels over the performance inputs.
pub fn run() {
    let config = super::jem_config();
    let cost = CostModel::ethernet_10g();
    let mut rows_a = Vec::new();
    let mut rows_b = Vec::new();
    let mut results = Vec::new();
    for spec in super::performance_specs() {
        let prep = PreparedDataset::generate(&spec, env_seed());

        // (a) breakdown at p = 16.
        let outcome = super::faster_of_two_runs(&prep, &config, 16, cost);
        let b = outcome.breakdown();
        rows_a.push(vec![
            prep.name().to_string(),
            f(b.input_load, 4),
            f(b.subject_sketch, 4),
            f(b.sketch_gather + b.table_build, 4),
            f(b.query_map, 4),
            f(outcome.report.makespan_secs(), 4),
        ]);

        // (b) throughput vs p.
        let series: Vec<f64> = PROCS
            .iter()
            .map(|&p| super::faster_of_two_runs(&prep, &config, p, cost).query_throughput())
            .collect();
        let mut row = vec![prep.name().to_string()];
        row.extend(series.iter().map(|t| f(*t, 0)));
        rows_b.push(row);
        results.push(crate::obj! {
            "dataset": prep.name(),
            "breakdown_p16": crate::obj! {
                "input_load": b.input_load,
                "subject_sketch": b.subject_sketch,
                "gather_and_table": b.sketch_gather + b.table_build,
                "query_map": b.query_map,
            },
            "procs": PROCS,
            "throughput_segments_per_sec": series,
        });
    }
    print_table(
        "Fig. 7a — runtime breakdown by step at p=16 (seconds)",
        &[
            "Input",
            "Input load",
            "Subject sketch",
            "Gather+table",
            "Query map",
            "Total",
        ],
        &rows_a,
    );
    print_table(
        "Fig. 7b — querying throughput (segments/sec)",
        &["Input", "p=4", "p=8", "p=16", "p=32", "p=64"],
        &rows_b,
    );
    save_json("fig7", results);
}
