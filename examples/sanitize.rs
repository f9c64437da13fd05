//! `si-sanitizer` front-end: hunt interleaving bugs in the MVCC engines.
//!
//! ```text
//! cargo run --example sanitize                      # all engines × all workloads
//! cargo run --example sanitize -- --engine SSI      # one engine
//! cargo run --example sanitize -- --workload lost_update
//! cargo run --example sanitize -- --mutants         # seeded-mutant demo
//! cargo run --example sanitize -- --random 500      # random walks instead of DFS
//! cargo run --example sanitize -- --replay repro.json
//! ```
//!
//! The default run exhaustively explores every bundled conflict workload
//! against every correct engine and reports interleaving counts, prune
//! ratios and oracle verdicts. `--mutants` switches to the seeded
//! defects and prints each minimised repro as JSON — paste it into a
//! file and `--replay` it to watch the same failure reproduce
//! byte-identically.
//!
//! Exits non-zero if a *correct* engine diverges (never expected) or a
//! *mutant* survives (its defect went undetected).

use std::process::ExitCode;

use analysing_si::sanitizer::{
    sanitize, scripts, EngineSpec, ExploreMode, ReplayScript, SanitizeConfig, SanitizeReport,
};

fn engines() -> Vec<EngineSpec> {
    vec![EngineSpec::Si, EngineSpec::Ser, EngineSpec::Ssi, EngineSpec::Psi { replicas: 2 }]
}

fn mutants() -> Vec<EngineSpec> {
    vec![
        EngineSpec::MutantDropFcw,
        EngineSpec::MutantSnapshotLag { lag: 1 },
        EngineSpec::MutantTornPublish,
    ]
}

fn print_report(name: &str, report: &SanitizeReport) {
    let prune_ratio = if report.explored + report.pruned > 0 {
        report.pruned as f64 / (report.explored + report.pruned) as f64
    } else {
        0.0
    };
    println!(
        "  {:4} × {:15} {:>7} interleavings, {:>6} pruned ({:4.1}%), {}",
        report.engine,
        name,
        report.explored,
        report.pruned,
        100.0 * prune_ratio,
        if report.is_clean() {
            "clean".to_string()
        } else {
            format!("{} FAILURES", report.failures.len())
        },
    );
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| args.iter().any(|a| a == name);
    let value_of =
        |name: &str| args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).cloned();

    if let Some(path) = value_of("--replay") {
        return replay(&path);
    }

    let mode = match value_of("--random") {
        Some(walks) => ExploreMode::Random {
            walks: walks.parse().expect("--random takes a walk count"),
            seed: 0x5A01_712E,
        },
        None => ExploreMode::Exhaustive,
    };
    let config = SanitizeConfig { mode, stop_at_first_failure: true, ..SanitizeConfig::default() };

    let engine_filter = value_of("--engine");
    let workload_filter = value_of("--workload");
    let specs = if flag("--mutants") { mutants() } else { engines() };
    let specs: Vec<EngineSpec> = specs
        .into_iter()
        .filter(|s| engine_filter.as_deref().is_none_or(|f| s.name().eq_ignore_ascii_case(f)))
        .collect();

    let mut failed = false;
    for spec in &specs {
        for (name, workload) in scripts::bundled() {
            if workload_filter.as_deref().is_some_and(|f| f != name) {
                continue;
            }
            let report = sanitize(spec, &workload, &config);
            print_report(name, &report);
            if flag("--mutants") {
                if report.is_clean() {
                    // Some workloads cannot expose a given defect; only a
                    // mutant clean across ALL workloads is a miss.
                    continue;
                }
                let case = &report.failures[0];
                println!(
                    "    caught: {} (schedule {} → {} decisions after ddmin)",
                    case.failures[0],
                    case.found_decisions,
                    case.replay.decisions.len(),
                );
                println!("    repro JSON:\n{}", indent(&case.replay.to_json(), 6));
            } else if !report.is_clean() {
                failed = true;
                for case in &report.failures {
                    for f in &case.failures {
                        eprintln!("    DIVERGENCE: {f}");
                    }
                    eprintln!("    repro:\n{}", indent(&case.replay.to_json(), 6));
                }
            }
        }
    }

    if flag("--mutants") {
        // Every mutant must be killed by at least one workload.
        for spec in &specs {
            let caught =
                scripts::bundled().iter().any(|(_, w)| !sanitize(spec, w, &config).is_clean());
            if !caught {
                eprintln!("mutant {} survived every bundled workload", spec.name());
                failed = true;
            }
        }
    }

    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn replay(path: &str) -> ExitCode {
    let json = match std::fs::read_to_string(path) {
        Ok(json) => json,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let script = match ReplayScript::from_json(&json) {
        Ok(script) => script,
        Err(e) => {
            eprintln!("cannot parse {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let artifacts = script.replay();
    let failures = analysing_si::sanitizer::check_artifacts(&script.engine, &artifacts);
    println!(
        "replayed {} decisions against {}: {} committed, {} aborted",
        artifacts.decisions.len(),
        script.engine.name(),
        artifacts.counters.committed,
        artifacts.counters.aborted,
    );
    if failures.is_empty() {
        println!("verdict: clean");
    } else {
        for f in &failures {
            println!("verdict: {f}");
        }
    }
    ExitCode::SUCCESS
}

fn indent(text: &str, by: usize) -> String {
    let pad = " ".repeat(by);
    text.lines().map(|l| format!("{pad}{l}")).collect::<Vec<_>>().join("\n")
}
