//! The benchmark's own checks, at reduced size: one seed gives the same
//! deterministic metrics run after run, another seed gives other inputs,
//! the serial engine reproduces the rayon engine bit for bit, and
//! `BENCHMARK.json` declares exactly the metrics the command prints.

use bgl_trace::json::{self, JsonValue};
use perfbench::search::SearchParams;
use perfbench::serve::ServeParams;
use perfbench::{Report, RunOpts, Scale, Workload, END_TO_END, PER_LAYER};

fn run(w: Workload, seed: u64, trace: bool) -> Report {
    let r = w.run(
        Scale::Reduced,
        &RunOpts {
            seed,
            seconds: 0.0,
            trace,
        },
    );
    assert_eq!(r.failed, 0, "{} failed: {:?}", w.name(), r.failures);
    let table = if trace { PER_LAYER } else { END_TO_END };
    r.check_complete(table).unwrap();
    json::parse(&r.render_json(table)).unwrap();
    r
}

#[test]
fn one_seed_gives_identical_deterministic_metrics() {
    for w in Workload::ALL {
        for trace in [false, true] {
            let a = run(w, 7, trace);
            let b = run(w, 7, trace);
            let exact = a.exact_metrics();
            assert!(exact
                .iter()
                .any(|(n, _)| n.starts_with("sim_") || n.starts_with("comm.")));
            assert_eq!(exact, b.exact_metrics(), "{} trace {trace}", w.name());
            assert_eq!(a.attempted, b.attempted, "{} trace {trace}", w.name());
        }
    }
}

#[test]
fn traced_runs_reproduce_the_first_pass_under_the_serial_engine() {
    // A traced run repeats its first pass untraced and under
    // `ComputeEngine::Serial`, and counts any difference in levels,
    // answers or simulated clocks as a failure; `run` asserts none.
    for w in Workload::ALL {
        let traced = run(w, 3, true);
        let untraced = run(w, 3, false);
        assert!(traced.attempted >= 3 * untraced.attempted, "{}", w.name());
        assert_eq!(
            traced.get("engine.host_threads"),
            Some(rayon::current_num_threads() as f64)
        );
    }
}

#[test]
fn the_seed_alone_decides_the_inputs() {
    for w in [Workload::SearchPoisson, Workload::SearchRmatDirop] {
        let p = SearchParams::new(w, Scale::Reduced);
        assert_eq!(p.inputs(1), p.inputs(1));
        let ((spec1, keys1), (spec2, keys2)) = (p.inputs(1), p.inputs(2));
        assert_ne!(spec1.seed, spec2.seed);
        assert_ne!(keys1, keys2);
    }
    let p = ServeParams::new(Scale::Reduced);
    assert_eq!(p.inputs(1), p.inputs(1));
    let ((spec1, q1, t1), (spec2, q2, t2)) = (p.inputs(1), p.inputs(2));
    assert_ne!(spec1.seed, spec2.seed);
    assert_ne!(q1, q2);
    assert_ne!(t1, t2);
}

#[test]
fn benchmark_json_declares_what_the_command_prints() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).unwrap();
    let doc = json::parse(&text).unwrap();
    let declared = |key: &str| -> Vec<(String, String)> {
        doc.get(key)
            .and_then(JsonValue::as_arr)
            .unwrap()
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(JsonValue::as_str).unwrap().to_string();
                (field("name"), field("unit"))
            })
            .collect()
    };
    let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
        t.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(declared("end_to_end"), own(END_TO_END));
    assert_eq!(declared("per_layer"), own(PER_LAYER));
    let workloads: Vec<String> = doc
        .get("workloads")
        .and_then(JsonValue::as_arr)
        .unwrap()
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(JsonValue::as_str)
                .unwrap()
                .to_string()
        })
        .collect();
    let own_workloads: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(workloads, own_workloads);
}
