//! Drivers for the paper's tables (5.1 and E.1–E.3).

use bfpp_exec::search::SearchReport;
use bfpp_model::{presets, TransformerConfig};

use crate::figures::SweepRow;
use crate::report::Table;

/// Table 5.1: the evaluation models.
pub fn table_5_1() -> Table {
    let mut t = Table::new([
        "model",
        "num_layers",
        "attention_heads",
        "head_size",
        "hidden_size",
        "seq_length",
        "params",
    ]);
    for m in [presets::bert_52b(), presets::bert_6_6b()] {
        push_model(&mut t, &m);
    }
    t
}

fn push_model(t: &mut Table, m: &TransformerConfig) {
    t.push([
        m.name.clone(),
        m.num_layers.to_string(),
        m.num_heads.to_string(),
        m.head_size.to_string(),
        m.hidden_size.to_string(),
        m.seq_length.to_string(),
        format!("{:.2e}", m.total_params() as f64),
    ]);
}

/// Tables E.1–E.3: the selected optimal configuration per (method,
/// batch), with the same columns the paper reports, plus the search's
/// observability counters as trailing columns.
pub fn table_e(rows: &[SweepRow]) -> Table {
    let mut t = Table::new(
        [
            "method",
            "batch",
            "schedule",
            "pipeline_parallel",
            "tensor_parallel",
            "microbatch_size",
            "sequential_microbatches",
            "stages_per_device",
            "sharded",
            "tflops_per_gpu",
            "memory_gib",
        ]
        .into_iter()
        .chain(SearchReport::csv_header().split(',')),
    );
    for r in rows {
        let Some(res) = &r.result else {
            continue;
        };
        let cfg = &res.cfg;
        let head = [
            r.method.label().to_string(),
            r.batch.to_string(),
            res.kind.to_string(),
            cfg.grid.n_pp.to_string(),
            cfg.grid.n_tp.to_string(),
            cfg.batch.microbatch_size.to_string(),
            cfg.batch.num_microbatches.to_string(),
            cfg.placement.n_loop().to_string(),
            if cfg.dp.is_sharded() { "yes" } else { "no" }.to_string(),
            format!("{:.2}", res.measurement.tflops_per_gpu),
            format!("{:.2}", res.measurement.memory_gib()),
        ];
        let report: Vec<String> = r.report.csv_row().split(',').map(String::from).collect();
        t.push(head.into_iter().chain(report));
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_5_1_pins_both_models() {
        let t = table_5_1();
        assert_eq!(t.len(), 2);
        let csv = t.to_csv();
        assert!(csv.contains("bert-52b,64,64,128,8192,1024"));
        assert!(csv.contains("bert-6.6b,32,32,128,4096,1024"));
    }

    #[test]
    fn table_e_skips_infeasible_rows() {
        use bfpp_exec::search::{Method, SearchReport};
        let rows = vec![SweepRow {
            method: Method::BreadthFirst,
            batch: 7,
            result: None,
            report: SearchReport::default(),
        }];
        assert!(table_e(&rows).is_empty());
    }
}
