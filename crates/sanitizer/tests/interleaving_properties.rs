//! Property tests over randomly generated 3-transaction conflict
//! scripts:
//!
//! * **Theorem 9 agreement** — for *every* interleaving the explorer
//!   visits, the SI engine's verdict (the history it committed) agrees
//!   with GraphSI membership of the extracted dependency graph, with the
//!   Definition 4 axioms, with the online monitor, and with the race
//!   detector. Exhaustive exploration makes this a per-workload theorem,
//!   not a sample.
//! * **Replay fidelity** — serialising any schedule as a
//!   [`ReplayScript`], round-tripping it through JSON and replaying
//!   yields a byte-identical history and telemetry trace.

use proptest::prelude::*;
use si_model::Obj;
use si_mvcc::{Script, Workload};
use si_sanitizer::{
    run_advisory, sanitize, Actor, EngineSpec, ReplayScript, SanitizeConfig, WorkloadSpec,
};

const OBJECTS: usize = 2;

/// One generated operation: `(object, kind)` with kind 0 = read,
/// 1 = constant write, 2 = read-modify-write increment.
type GenOp = (usize, u8);

/// Three transactions, each 1–3 ops, each pinned to one of three
/// sessions — all over two objects, so conflicts are the common case.
fn arb_workload() -> impl Strategy<Value = (Vec<(usize, Vec<GenOp>)>, u8)> {
    (
        proptest::collection::vec(
            (0..3usize, proptest::collection::vec((0..OBJECTS, 0..3u8), 1..4)),
            3..=3,
        ),
        any::<u8>(),
    )
}

fn build_workload(txs: &[(usize, Vec<GenOp>)]) -> Workload {
    let mut sessions: Vec<Vec<Script>> = vec![Vec::new(); 3];
    for (session, ops) in txs {
        let mut script = Script::new();
        let mut regs = 0usize;
        for &(obj, kind) in ops {
            let x = Obj(obj as u32);
            script = match kind {
                0 => {
                    regs += 1;
                    script.read(x)
                }
                1 => script.write_const(x, 41),
                _ => {
                    regs += 1;
                    let reg = regs - 1;
                    script.read(x).write_computed(x, [reg], 1)
                }
            };
        }
        sessions[*session].push(script);
    }
    let mut w = Workload::new(OBJECTS).initial(Obj(0), 10).initial(Obj(1), 20);
    for scripts in sessions {
        if !scripts.is_empty() {
            w = w.session(scripts);
        }
    }
    w
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Exhaustively explore each generated workload against the real SI
    /// engine: every interleaving must satisfy GraphSI (Theorem 9), the
    /// SI axioms, the monitor, and race freedom — i.e. the report is
    /// clean and the tree was fully covered.
    #[test]
    fn si_engine_agrees_with_graph_si_on_every_interleaving(case in arb_workload()) {
        let (txs, _) = &case;
        let workload = build_workload(txs);
        let config = SanitizeConfig {
            max_interleavings: 1_000_000,
            stop_at_first_failure: true,
            ..SanitizeConfig::default()
        };
        let report = sanitize(&EngineSpec::Si, &workload, &config);
        prop_assert!(
            report.is_clean(),
            "SI diverged from its oracles: {:?}",
            report.failures[0].failures
        );
        prop_assert!(!report.budget_exhausted, "tree not fully covered");
    }

    /// Any schedule of any generated workload, captured as a
    /// `ReplayScript` and round-tripped through JSON, replays to a
    /// byte-identical history, telemetry trace and decision list.
    #[test]
    fn serialized_replay_scripts_reproduce_byte_identically(case in arb_workload()) {
        let (txs, seed) = &case;
        let workload = build_workload(txs);
        // Derive an arbitrary (advisory) schedule from the seed byte.
        let decisions: Vec<Actor> =
            (0..12).map(|i| Actor::Session((usize::from(*seed) + i) % 3)).collect();
        let original = run_advisory(&EngineSpec::Si, &workload, 4, &decisions);

        let script = ReplayScript {
            engine: EngineSpec::Si,
            workload: WorkloadSpec::from_workload(&workload),
            max_retries: 4,
            decisions: original.decisions.clone(),
        };
        let parsed = ReplayScript::from_json(&script.to_json()).expect("parse");
        prop_assert_eq!(&parsed, &script);

        let replayed = parsed.replay();
        prop_assert_eq!(&replayed.result.history, &original.result.history);
        prop_assert_eq!(&replayed.events, &original.events);
        prop_assert_eq!(&replayed.decisions, &original.decisions);
        prop_assert_eq!(
            serde_json::to_string(&replayed.result.history).unwrap(),
            serde_json::to_string(&original.result.history).unwrap()
        );
    }
}
