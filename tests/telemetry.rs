//! Telemetry correctness: event totals cross-check the scheduler's own
//! accounting, instrumentation is observationally neutral, and the
//! JSONL trace format is machine-parseable.

use std::sync::Arc;

use analysing_si::analysis::{check_si_traced, ObservedTx, SiMonitor};
use analysing_si::depgraph::{extract, DependencyGraph};
use analysing_si::execution::SpecModel;
use analysing_si::model::Obj;
use analysing_si::mvcc::{
    Engine, PsiEngine, RunResult, Scheduler, SchedulerConfig, Script, SerEngine, SiEngine,
    SsiEngine, Workload,
};
use analysing_si::telemetry::{
    AbortCause, CountingSink, JsonlSink, MetricsRegistry, NullSink, Telemetry,
};
use analysing_si::workloads::{bank, smallbank};

/// A deterministic contended workload: four sessions increment the same
/// counter, which forces first-committer-wins refusals under every
/// engine.
fn contended_counter() -> Workload {
    let x = Obj(0);
    let inc = Script::new().read(x).write_computed(x, [0], 1);
    let mut w = Workload::new(1);
    for _ in 0..4 {
        w = w.session(vec![inc.clone(), inc.clone(), inc.clone()]);
    }
    w
}

fn run_with(
    engine: &mut dyn Engine,
    workload: &Workload,
    seed: u64,
    telemetry: Telemetry,
) -> RunResult {
    engine.set_telemetry(telemetry);
    let mut s = Scheduler::new(SchedulerConfig { seed, ..Default::default() });
    s.set_metrics(MetricsRegistry::new());
    s.run(engine, workload)
}

#[test]
fn counting_sink_totals_match_run_stats() {
    let w = contended_counter();
    for seed in 0..10 {
        for maker in [
            (|| Box::new(SiEngine::new(1)) as Box<dyn Engine>) as fn() -> Box<dyn Engine>,
            || Box::new(SerEngine::new(1)),
            || Box::new(PsiEngine::new(1, 2)),
            || Box::new(SsiEngine::new(1)),
        ] {
            let counting = Arc::new(CountingSink::new());
            let mut engine = maker();
            let run = run_with(engine.as_mut(), &w, seed, Telemetry::new(counting.clone()));

            // The engine's event stream and the scheduler's accounting
            // are produced independently; they must agree exactly.
            assert_eq!(counting.commits(), run.stats.committed);
            assert_eq!(counting.aborts(AbortCause::WwConflict), run.stats.aborted_ww);
            assert_eq!(counting.aborts(AbortCause::RwConflict), run.stats.aborted_rw);
            assert_eq!(run.stats.aborted, run.stats.aborted_ww + run.stats.aborted_rw);
            // Every begin ends in exactly one commit or conflict abort
            // (crash probability is zero, so no explicit aborts).
            assert_eq!(counting.begins(), counting.commits() + counting.conflict_aborts());
            assert_eq!(counting.aborts(AbortCause::Explicit), 0);

            // The metrics registry mirrors the same totals.
            assert_eq!(run.metrics.counter("txn.committed"), run.stats.committed);
            assert_eq!(run.metrics.counter("txn.aborted.ww_conflict"), run.stats.aborted_ww);
            assert_eq!(run.metrics.counter("txn.aborted.rw_conflict"), run.stats.aborted_rw);
            assert_eq!(run.metrics.counter("txn.gave_up"), run.stats.gave_up);
            let latency = &run.metrics.histograms["txn.commit_latency_nanos"];
            assert_eq!(latency.count, run.stats.committed);
        }
    }
}

#[test]
fn explicit_aborts_surface_under_crashes() {
    let w = contended_counter();
    let counting = Arc::new(CountingSink::new());
    let mut engine = SiEngine::new(1);
    engine.set_telemetry(Telemetry::new(counting.clone()));
    let mut s =
        Scheduler::new(SchedulerConfig { seed: 7, crash_probability: 0.3, ..Default::default() });
    s.set_metrics(MetricsRegistry::new());
    let run = s.run(&mut engine, &w);
    assert!(run.stats.crashes > 0, "crash probability 0.3 should fire");
    assert_eq!(counting.aborts(AbortCause::Explicit), run.stats.crashes);
    assert_eq!(run.metrics.counter("scheduler.crashes"), run.stats.crashes);
}

#[test]
fn disabled_telemetry_is_observationally_neutral() {
    // Instrumentation must never influence behaviour: the same seed
    // must produce bit-identical runs with and without a sink attached,
    // although the attached sink receives every lifecycle and access
    // event.
    let accounts = smallbank::Accounts::new(2);
    let workloads = [smallbank::mixed_workload(&accounts, 3, 2, 100), bank::write_skew(2, 100)];
    for w in &workloads {
        for seed in 0..5 {
            let makers: [fn(usize) -> Box<dyn Engine>; 4] = [
                |n| Box::new(SiEngine::new(n)),
                |n| Box::new(SerEngine::new(n)),
                |n| Box::new(PsiEngine::new(n, 2)),
                |n| Box::new(SsiEngine::new(n)),
            ];
            for maker in makers {
                let mut plain = maker(w.object_count());
                let mut s = Scheduler::new(SchedulerConfig { seed, ..Default::default() });
                let baseline = s.run(plain.as_mut(), w);

                let mut instrumented = maker(w.object_count());
                let run =
                    run_with(instrumented.as_mut(), w, seed, Telemetry::new(Arc::new(NullSink)));

                assert_eq!(baseline.history, run.history, "seed {seed}");
                assert_eq!(baseline.stats, run.stats, "seed {seed}");
            }
        }
    }
}

#[test]
fn jsonl_trace_is_well_formed() {
    use serde::Content;

    let (jsonl, buffer) = JsonlSink::in_memory();
    let w = contended_counter();
    let mut engine = SsiEngine::new(1);
    let run = run_with(&mut engine, &w, 3, Telemetry::new(Arc::new(jsonl)));
    assert!(run.stats.committed > 0);

    let text = buffer.contents();
    let known = [
        "TxBegin",
        "VersionObserved",
        "VersionInstalled",
        "TxCommit",
        "TxAbort",
        "EdgeAdded",
        "CycleSearchStep",
        "VerdictEmitted",
        "SolverIteration",
    ];
    let mut commits = 0;
    let mut committed_ops = 0;
    let mut installs = 0;
    let mut lines = 0;
    for line in text.lines() {
        lines += 1;
        let value: Content =
            serde_json::from_str(line).unwrap_or_else(|e| panic!("bad JSONL line {line:?}: {e}"));
        // Externally tagged enum: exactly one known variant key per line.
        match &value {
            Content::Map(entries) => {
                assert_eq!(entries.len(), 1, "one event per line: {line}");
                assert!(known.contains(&entries[0].0.as_str()), "unknown event: {line}");
            }
            other => panic!("expected an object, got {other:?}"),
        }
        if let Some(commit) = value.get("TxCommit") {
            commits += 1;
            match commit.get("ops") {
                Some(Content::U64(ops)) => committed_ops += ops,
                other => panic!("TxCommit without an op count: {other:?}"),
            }
        }
        if value.get("VersionInstalled").is_some() {
            installs += 1;
        }
    }
    assert!(lines > 0, "trace must not be empty");
    assert_eq!(commits, run.stats.committed);
    // Each committed op is installed exactly once, and aborted attempts
    // install nothing: the access half of the stream matches the
    // lifecycle half.
    assert!(installs > 0);
    assert_eq!(installs, committed_ops);
}

/// Replays a finished run's dependency graph into a monitor in commit
/// order, as `examples/online_monitor.rs` does.
fn observed_stream(graph: &DependencyGraph) -> Vec<ObservedTx> {
    let h = graph.history();
    let mut last_of_session = vec![None; h.session_count()];
    let mut stream = Vec::new();
    for t in h.tx_ids() {
        let session = h.session_of(t);
        stream.push(ObservedTx {
            session_predecessor: session.and_then(|s| last_of_session[s.index()]),
            reads_from: h
                .transaction(t)
                .external_read_set()
                .into_iter()
                .map(|x| (x, graph.writer_for(t, x).expect("reads have writers")))
                .collect(),
            writes: h.transaction(t).write_set(),
        });
        if let Some(s) = session {
            last_of_session[s.index()] = Some(t);
        }
    }
    stream
}

#[test]
fn monitor_and_traced_checkers_emit_verdicts() {
    // Run the SI engine, replay the extracted graph through an
    // instrumented SiMonitor, and check an instrumented membership call
    // on the same graph: both must report verdicts through the sink.
    let w = contended_counter();
    let mut s = Scheduler::new(SchedulerConfig { seed: 11, ..Default::default() });
    let run = s.run(&mut SiEngine::new(1), &w);
    let g = extract(&run.execution).unwrap();

    let counting = Arc::new(CountingSink::new());
    let telemetry = Telemetry::new(counting.clone());
    let mut monitor = SiMonitor::with_telemetry(SpecModel::Si, telemetry.clone());
    for tx in observed_stream(&g) {
        monitor.append(tx);
        assert!(monitor.is_consistent(), "SI engine output must pass the SI monitor");
    }
    let appended = g.history().tx_count() as u64;
    let (total, ok) = counting.verdicts();
    assert_eq!(total, appended, "one verdict per append");
    assert_eq!(ok, appended, "every verdict passes on an SI-engine run");
    assert!(counting.total_edges() > 0, "the replay must add dependency edges");
    assert!(counting.cycle_search_steps() >= appended);

    assert!(check_si_traced(&g, &telemetry).is_ok());
    assert_eq!(counting.verdicts(), (total + 1, ok + 1), "check_si_traced emits its verdict");
}
