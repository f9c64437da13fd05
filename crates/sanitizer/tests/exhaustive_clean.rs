//! The clean-run theorem: the unmutated engines survive *exhaustive*
//! exploration of every bundled conflict workload with zero oracle
//! divergences and zero races.
//!
//! This is the sanitizer's soundness baseline. Sleep-set DFS enumerates
//! every distinguishable interleaving (Mazurkiewicz-trace-complete), and
//! each completed run must pass the engine's axioms, its dependency-graph
//! class, the online monitor, and the vector-clock race detector. A
//! single false positive here would make every mutant kill meaningless.

use si_sanitizer::{sanitize, scripts, EngineSpec, SanitizeConfig};

fn engines() -> Vec<EngineSpec> {
    vec![EngineSpec::Si, EngineSpec::Ser, EngineSpec::Ssi, EngineSpec::Psi { replicas: 2 }]
}

#[test]
fn every_engine_is_clean_on_every_bundled_workload() {
    let config = SanitizeConfig {
        max_interleavings: 2_000_000,
        stop_at_first_failure: true,
        ..SanitizeConfig::default()
    };
    for spec in engines() {
        for (name, workload) in scripts::bundled() {
            let report = sanitize(&spec, &workload, &config);
            assert!(
                report.is_clean(),
                "{} diverged on {name}: {}",
                spec.name(),
                report.failures[0]
                    .failures
                    .iter()
                    .map(ToString::to_string)
                    .collect::<Vec<_>>()
                    .join("; "),
            );
            assert!(
                !report.budget_exhausted,
                "{} did not finish {name} within budget ({} interleavings)",
                spec.name(),
                report.explored,
            );
            assert_eq!(report.races, 0, "{} raced on {name}", spec.name());
            assert!(report.explored > 0, "{} explored nothing on {name}", spec.name());
        }
    }
}

#[test]
fn conflicting_workloads_have_nontrivial_trees() {
    // Sanity-check that exhaustive mode is actually exploring: the
    // lost-update tree must contain both serial orders and genuinely
    // conflicting schedules (which force retries).
    let report = sanitize(&EngineSpec::Si, &scripts::lost_update(), &SanitizeConfig::default());
    assert!(report.explored >= 4, "suspiciously small tree: {}", report.explored);
}

#[test]
fn pruning_fires_on_bundled_workloads() {
    // Workloads with commuting steps (disjoint objects, independent
    // reads) must trigger sleep-set pruning.
    let report = sanitize(&EngineSpec::Si, &scripts::smallbank_mini(), &SanitizeConfig::default());
    assert!(report.is_clean());
    assert!(report.pruned > 0, "sleep sets pruned nothing on smallbank_mini");
}
