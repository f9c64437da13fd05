//! Mutant-kill tests: the sanitizer must catch each seeded defect, and
//! the minimised [`ReplayScript`] must reproduce it deterministically.
//!
//! Each mutant claims the full SI contract ([`EngineSpec::expectation`]);
//! the explorer must find an interleaving where the claim breaks, the
//! race detector must name the right happens-before anomaly, ddmin must
//! shrink the schedule, and the packaged JSON repro must fail again —
//! byte-identically — when replayed from a fresh parse.

use si_sanitizer::{
    check_artifacts, sanitize, scripts, EngineSpec, Failure, RaceKind, ReplayScript,
    SanitizeConfig, SanitizeReport,
};

fn kill(spec: &EngineSpec, workload: &si_mvcc::Workload) -> SanitizeReport {
    let report = sanitize(spec, workload, &SanitizeConfig::default());
    assert!(!report.is_clean(), "{} survived exploration", spec.name());
    report
}

fn assert_replay_reproduces(spec: &EngineSpec, replay: &ReplayScript) {
    // Round-trip through JSON: the repro must survive serialisation.
    let json = replay.to_json();
    let parsed = ReplayScript::from_json(&json).expect("replay scripts parse");
    assert_eq!(&parsed, replay);

    let a = parsed.replay();
    let b = parsed.replay();
    // Byte-identical determinism.
    assert_eq!(a.result.history, b.result.history);
    assert_eq!(a.events, b.events);
    assert_eq!(
        serde_json::to_string(&a.result.history).unwrap(),
        serde_json::to_string(&b.result.history).unwrap()
    );
    // And it still fails.
    assert!(!check_artifacts(spec, &a).is_empty(), "minimised replay no longer fails");
}

#[test]
fn drop_fcw_mutant_is_killed_with_minimal_replay() {
    let spec = EngineSpec::MutantDropFcw;
    let report = kill(&spec, &scripts::lost_update());
    let case = &report.failures[0];

    // The defect is concurrent installs: the race detector must say so.
    assert!(
        case.failures
            .iter()
            .any(|f| matches!(f, Failure::Race(r) if r.kind == RaceKind::WwInstall)),
        "expected a WwInstall race, got {:?}",
        case.failures
    );
    // NOCONFLICT (axioms) and GraphSI (Theorem 9) must also reject it.
    assert!(case.failures.iter().any(|f| matches!(f, Failure::Axioms { .. })));
    assert!(case.failures.iter().any(|f| matches!(f, Failure::Graph { .. })));
    assert!(case.failures.iter().any(|f| matches!(f, Failure::Monitor { .. })));

    assert!(case.shrink_steps > 0, "shrinking never ran");
    assert!(case.replay.decisions.len() <= case.found_decisions, "minimisation grew the schedule");
    assert_replay_reproduces(&spec, &case.replay);
}

#[test]
fn snapshot_lag_mutant_is_killed_with_minimal_replay() {
    let spec = EngineSpec::MutantSnapshotLag { lag: 1 };
    let report = kill(&spec, &scripts::session_chain());
    let case = &report.failures[0];

    // The defect is a skipped happens-before-past version.
    assert!(
        case.failures
            .iter()
            .any(|f| matches!(f, Failure::Race(r) if r.kind == RaceKind::StaleRead)),
        "expected a StaleRead race, got {:?}",
        case.failures
    );
    assert_replay_reproduces(&spec, &case.replay);
}

#[test]
fn snapshot_lag_breaks_the_session_axiom() {
    // A same-session write-then-read without contention: the lagged
    // snapshot misses the session's own commit, so the SESSION axiom
    // (SO ⊆ VIS) — not just the race detector — must reject the run.
    let spec = EngineSpec::MutantSnapshotLag { lag: 1 };
    let x = si_model::Obj(0);
    let w = si_mvcc::Workload::new(1)
        .session([si_mvcc::Script::new().write_const(x, 7), si_mvcc::Script::new().read(x)]);
    let report = sanitize(&spec, &w, &SanitizeConfig::default());
    assert!(!report.is_clean());
    let case = &report.failures[0];
    assert!(
        case.failures.iter().any(|f| matches!(f, Failure::Axioms { .. })),
        "expected a SESSION axiom violation, got {:?}",
        case.failures
    );
    assert_replay_reproduces(&spec, &case.replay);
}

#[test]
fn torn_publish_mutant_is_killed_with_minimal_replay() {
    // read_skew's writer commits Obj(0) and Obj(1) together; the mutant
    // publishes the sequence after installing only the first version, so
    // the second lands as a late background install — flagged in every
    // completed run where the writer commits.
    let spec = EngineSpec::MutantTornPublish;
    let report = kill(&spec, &scripts::read_skew());
    let case = &report.failures[0];

    assert!(
        case.failures
            .iter()
            .any(|f| matches!(f, Failure::Race(r) if r.kind == RaceKind::TornPublish)),
        "expected a TornPublish race, got {:?}",
        case.failures
    );
    assert!(case.replay.decisions.len() <= case.found_decisions, "minimisation grew the schedule");
    assert_replay_reproduces(&spec, &case.replay);

    // Somewhere in the full schedule space a reader snapshots between
    // the publish and the late install and observes the torn commit:
    // the EXT axiom must also reject such a run.
    let full = sanitize(
        &spec,
        &scripts::read_skew(),
        &SanitizeConfig {
            stop_at_first_failure: false,
            shrink: false,
            ..SanitizeConfig::default()
        },
    );
    assert!(
        full.failures
            .iter()
            .any(|c| c.failures.iter().any(|f| matches!(f, Failure::Axioms { .. }))),
        "no interleaving broke the axioms on the torn commit"
    );
}

#[test]
fn torn_publish_mutant_survives_single_write_commits() {
    // A one-write commit has nothing to tear: installation and
    // publication stay atomic, so lost_update explores clean.
    let spec = EngineSpec::MutantTornPublish;
    let report = sanitize(&spec, &scripts::lost_update(), &SanitizeConfig::default());
    assert!(report.is_clean(), "false positive on single-write commits");
}

#[test]
fn mutants_survive_workloads_that_cannot_expose_them() {
    // Differential sanity: a mutant is only caught when the defect can
    // bite. Disjoint single-session writes never trigger FCW at all.
    let x = si_model::Obj(0);
    let w = si_mvcc::Workload::new(1).session([si_mvcc::Script::new().write_const(x, 1)]);
    let report = sanitize(&EngineSpec::MutantDropFcw, &w, &SanitizeConfig::default());
    assert!(report.is_clean(), "false positive on a defect-free schedule space");
}
