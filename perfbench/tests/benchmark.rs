//! The benchmark's own tests: deterministic inputs, declared metric names,
//! and a tiny-size run of every workload that must pass its answer checks.
//!
//! ```text
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

use std::collections::BTreeSet;
use std::path::Path;

use perfbench::inputs::{self, RequestOrder, Sizes, UpdateStream};
use perfbench::report::{END_TO_END, PER_LAYER};
use perfbench::trace::Tracer;
use perfbench::workloads::{self, RunConfig, Workload};

fn manifest_file(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
}

/// The `"name"` values inside the JSON array under `key`.
fn names_under(json: &str, key: &str) -> BTreeSet<String> {
    let start = json
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("no {key} in BENCHMARK.json"));
    let array = &json[start..];
    let array = &array[array.find('[').expect("an array follows")..];
    let array = &array[..array.find(']').expect("the array is closed")];
    array
        .split("\"name\"")
        .skip(1)
        .map(|rest| rest.split('"').nth(1).expect("a quoted name").to_string())
        .collect()
}

#[test]
fn the_same_seed_gives_identical_inputs() {
    let sizes = Sizes::full();
    assert_eq!(inputs::anchored(3, &sizes), inputs::anchored(3, &sizes));
    assert_ne!(inputs::anchored(3, &sizes), inputs::anchored(4, &sizes));

    let tree = |seed| format!("{:?}", inputs::treelike(seed, &sizes));
    assert_eq!(tree(3), tree(3));
    assert_ne!(tree(3), tree(4));

    let update = |seed| {
        let inputs = inputs::update(seed, &sizes);
        let mut stream = UpdateStream::new(seed, inputs.instance.fact_count(), &inputs.anchors);
        let deltas: Vec<_> = (0..64).map(|_| stream.next_delta()).collect();
        format!("{inputs:?} {deltas:?}")
    };
    assert_eq!(update(3), update(3));
    assert_ne!(update(3), update(4));

    let order = |seed| {
        let order = RequestOrder::new(seed, 8);
        (0..1024).map(|i| order.goal(i)).collect::<Vec<_>>()
    };
    assert_eq!(order(3), order(3));
    assert_ne!(order(3), order(4));
}

#[test]
fn every_metric_is_declared_in_benchmark_json() {
    let json = manifest_file("../BENCHMARK.json");
    let declared_e2e = names_under(&json, "end_to_end");
    let declared_layers = names_under(&json, "per_layer");
    let e2e: BTreeSet<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
    let layers: BTreeSet<String> = PER_LAYER.iter().map(|(n, _)| n.to_string()).collect();
    assert_eq!(e2e, declared_e2e);
    assert_eq!(layers, declared_layers);
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    let workloads = names_under(&json, "workloads");
    let ours: BTreeSet<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(ours, workloads);

    // Every layer metric says what it should move, in layers.json.
    let map = manifest_file("layers.json");
    for (name, _) in PER_LAYER {
        assert!(
            map.contains(&format!("\"{name}\": {{")),
            "layers.json lacks {name}"
        );
    }
}

#[test]
fn tiny_runs_of_every_workload_pass_their_answer_checks() {
    for workload in Workload::ALL {
        for trace in [false, true] {
            let cfg = RunConfig {
                workload,
                seed: 11,
                seconds: 0.4,
                trace,
                sizes: Sizes::tiny(),
            };
            let mut tracer = Tracer::default();
            let result = workloads::run(&cfg, &mut tracer)
                .unwrap_or_else(|e| panic!("{} trace={trace}: {e}", workload.name()));
            let what = format!("{} trace={trace}: {:?}", workload.name(), result.tally);
            assert!(result.tally.attempted > 0, "{what}");
            assert_eq!(result.tally.failed, 0, "{what}");
            let printed: Vec<&str> = result.metrics.iter().map(|m| m.name).collect();
            let expected: Vec<&str> = if trace {
                &PER_LAYER[..]
            } else {
                &END_TO_END[..]
            }
            .iter()
            .map(|(n, _)| *n)
            .collect();
            assert_eq!(printed, expected, "{what}");
            let line = result.json().expect("finite metrics");
            assert!(line.starts_with("{\"correct\":true,"), "{line}");
            if trace {
                assert!(!tracer.samples().is_empty(), "{what}: no traced op");
                assert!(tracer.spans().iter().any(|s| s.layer == "op"), "{what}");
                // The identity time is read from the engine's own stage
                // timings; a renamed stage would read 0 here.
                if workload != Workload::ServeMix {
                    let identity = result
                        .metrics
                        .iter()
                        .find(|m| m.name == "engine.identity_us")
                        .expect("declared");
                    assert!(identity.value > 0.0, "{what}: no in-engine identity time");
                }
            }
        }
    }
}
