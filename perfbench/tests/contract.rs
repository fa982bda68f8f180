//! The metric names and units the benchmark prints are the ones
//! `BENCHMARK.json` declares.

use a3_perfbench::harness::Replay;
use a3_perfbench::report::{end_to_end, PER_LAYER};
use a3_perfbench::WORKLOADS;

/// `(name, unit)` of every object in the JSON array under `key`, read with
/// plain string scanning (the benchmark has no JSON parser).
fn entries(json: &str, key: &str) -> Vec<(String, String)> {
    let start = json.find(&format!("\"{key}\"")).expect("key present");
    let body = &json[start..];
    let body = &body[..body.find(']').expect("array closes")];
    let field = |obj: &str, name: &str| -> String {
        obj.find(&format!("\"{name}\": \""))
            .map(|i| {
                let rest = &obj[i + name.len() + 5..];
                rest[..rest.find('"').expect("string closes")].to_owned()
            })
            .unwrap_or_default()
    };
    body.split('{')
        .skip(1)
        .map(|obj| (field(obj, "name"), field(obj, "unit")))
        .collect()
}

#[test]
fn printed_metrics_match_the_declared_ones() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");

    let workloads: Vec<String> = entries(&json, "workloads")
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    assert_eq!(workloads, WORKLOADS);

    let printed: Vec<(String, String)> = end_to_end(&Replay::default())
        .metrics
        .into_iter()
        .map(|m| (m.name, m.unit.to_owned()))
        .collect();
    assert_eq!(entries(&json, "end_to_end"), printed);

    let per_layer: Vec<(String, String)> = PER_LAYER
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(entries(&json, "per_layer"), per_layer);
}
