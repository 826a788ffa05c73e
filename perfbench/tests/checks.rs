//! The answer checks must fail an op whose answer disagrees with the
//! stored expectation, and pass it otherwise.

use std::path::Path;

use perfbench::checks::{Expectations, RegenReference};
use perfbench::layers::LAYERS;
use perfbench::requests::DEFAULT_SEED;
use perfbench::workloads::{Cold1t, Whatif5a, Workload};
use perfbench::{COLD_EXPECTATIONS, WHATIF_EXPECTATIONS};

#[test]
fn corrupted_cold_expectation_fails_its_op() {
    let mut good = Cold1t::new(DEFAULT_SEED, COLD_EXPECTATIONS.to_string());
    assert_eq!(good.op(None).check, Ok(()));

    let corrupted = COLD_EXPECTATIONS.replace("147.3451", "147.3452");
    assert_ne!(
        corrupted, COLD_EXPECTATIONS,
        "the default seed's row is stored"
    );
    let mut bad = Cold1t::new(DEFAULT_SEED, corrupted);
    assert!(bad.op(None).check.is_err());
}

#[test]
fn corrupted_whatif_expectation_fails_its_op() {
    let mut w = Whatif5a::new(DEFAULT_SEED, Expectations::parse(WHATIF_EXPECTATIONS));
    // One warm-up round records the post-drop topology, so the next
    // round's what-ifs and drop re-plan all warm-start.
    w.setup(1).expect("priming lines parse");
    assert_eq!(w.op(None).check, Ok(()));

    let id = "breadth_first/b8/link";
    let stored = w.expectations_mut().winners.get_mut(id).expect("stored");
    *stored = stored.replace("BreadthFirst", "DepthFirst");
    let err = w
        .op(None)
        .check
        .expect_err("a corrupted winner fails the round");
    assert!(err.contains(id), "{err}");
}

#[test]
fn regen_reference_accepts_its_own_files_and_rejects_an_edit() {
    let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("../results");
    let reference = RegenReference::load(&results).expect("results/ is committed");
    let output: String = reference
        .files
        .iter()
        .map(|(section, _, body)| format!("# {section}\n{}\n\n", body.join("\n")))
        .collect();
    assert_eq!(reference.check(&output), Ok(()));

    let edited = output.replacen("Breadth-first,8,", "Breadth-first,9,", 1);
    assert_ne!(edited, output);
    assert!(reference.check(&edited).is_err());
}

#[test]
fn benchmark_json_lists_every_layer_metric() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the root");
    let per_layer = &json[json.find("\"per_layer\"").expect("per_layer key")..];
    for d in LAYERS {
        let entry = format!(
            "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
            d.name, d.unit, d.better
        );
        assert!(per_layer.contains(&entry), "missing {entry}");
    }
    assert_eq!(per_layer.matches("\"name\"").count(), LAYERS.len());
}
