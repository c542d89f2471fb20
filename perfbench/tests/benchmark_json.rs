//! `BENCHMARK.json` at the repository root must name exactly the
//! workloads and metrics this benchmark prints, with the same units.

use hcperf_perfbench::workload::{Workload, END_TO_END, PER_LAYER};

fn manifest() -> serde_json::Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn names_and_units(list: &serde_json::Value) -> Vec<(String, String)> {
    list.as_array()
        .expect("a metric list")
        .iter()
        .map(|m| {
            (
                m["name"].as_str().expect("name").to_owned(),
                m["unit"].as_str().expect("unit").to_owned(),
            )
        })
        .collect()
}

fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
    list.iter()
        .map(|&(n, u)| (n.to_owned(), u.to_owned()))
        .collect()
}

#[test]
fn manifest_lists_the_printed_metrics() {
    let m = manifest();
    assert_eq!(names_and_units(&m["end_to_end"]), owned(&END_TO_END));
    assert_eq!(names_and_units(&m["per_layer"]), owned(&PER_LAYER));
}

#[test]
fn manifest_lists_the_workloads() {
    let m = manifest();
    let names: Vec<&str> = m["workloads"]
        .as_array()
        .expect("workloads")
        .iter()
        .map(|w| w["name"].as_str().expect("name"))
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names, ours);
}
