//! Smoke mode: every workload at tiny sizes, traced and untraced, with
//! all its output checks, and the metric names `BENCHMARK.json` declares.

use std::time::Instant;

use perfbench::{run, RunConfig, Scale, Workload, END_TO_END, PER_LAYER};

fn smoke(workload: Workload, trace: bool) -> perfbench::Report {
    let config = RunConfig { workload, seed: 7, seconds: 0.05, trace, scale: Scale::Smoke };
    run(&config, Instant::now())
}

#[test]
fn every_workload_passes_its_output_checks() {
    for workload in Workload::ALL {
        for trace in [false, true] {
            let report = smoke(workload, trace);
            let name = workload.name();
            assert!(report.correct, "{name} (trace {trace}) failed its output checks");
            assert_eq!(report.failed, 0, "{name} (trace {trace})");
            assert!(report.attempted >= 1, "{name} (trace {trace})");
            let expected: Vec<_> = if trace { PER_LAYER.to_vec() } else { END_TO_END.to_vec() };
            let got: Vec<_> = report.metrics.iter().map(|m| (m.name, m.unit)).collect();
            assert_eq!(got, expected, "{name} (trace {trace})");
            assert_eq!(report.spans.is_empty(), !trace, "{name} (trace {trace})");
        }
    }
}

#[test]
fn end_to_end_metrics_are_never_zero() {
    for workload in Workload::ALL {
        let report = smoke(workload, false);
        for m in &report.metrics {
            assert!(m.value > 0.0, "{}: {} = {}", workload.name(), m.name, m.value);
        }
    }
}

#[test]
fn benchmark_json_declares_the_reported_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits beside the benchmark");
    let declared =
        |name: &str, unit: &str| text.contains(&format!(r#""name": "{name}", "unit": "{unit}""#));
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        assert!(declared(name, unit), "BENCHMARK.json lacks {name} ({unit})");
    }
    assert_eq!(
        text.matches(r#""unit":"#).count(),
        END_TO_END.len() + PER_LAYER.len(),
        "BENCHMARK.json declares metrics the benchmark does not report"
    );
    for workload in Workload::ALL {
        assert!(text.contains(&format!(r#""name": "{}""#, workload.name())));
    }
}
