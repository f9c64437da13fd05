//! Operational validation: every run of every engine must satisfy its
//! model's axioms (ground truth) *and* land in the corresponding history
//! set via the dependency-graph characterisations.

mod common;

use analysing_si::analysis::{check_psi, check_ser, check_si, classify_graph};
use analysing_si::depgraph::extract;
use analysing_si::execution::SpecModel;
use analysing_si::mvcc::{
    stress, Engine, PsiEngine, Scheduler, SchedulerConfig, SerEngine, SiEngine, SsiEngine,
    StressConfig, StressEngine,
};
use analysing_si::workloads::random::{random_mix, RandomMix};
use analysing_si::workloads::{bank, counter, fork};
use proptest::prelude::*;

fn mixes(seed: u64) -> Vec<(RandomMix, f64)> {
    vec![
        (
            RandomMix { seed, sessions: 3, txs_per_session: 5, objects: 4, ..Default::default() },
            0.0,
        ),
        (
            RandomMix {
                seed,
                sessions: 4,
                txs_per_session: 6,
                objects: 8,
                read_ratio: 0.4,
                ..Default::default()
            },
            0.2,
        ),
    ]
}

#[test]
fn si_engine_stays_in_graph_si() {
    for seed in 0..15 {
        for (mix, _) in mixes(seed) {
            let w = random_mix(&mix);
            let mut s = Scheduler::new(SchedulerConfig { seed, ..Default::default() });
            let run = s.run(&mut SiEngine::new(mix.objects), &w);
            assert!(SpecModel::Si.check(&run.execution).is_ok(), "axioms (seed {seed})");
            let g = extract(&run.execution).unwrap();
            assert!(check_si(&g).is_ok(), "graph class (seed {seed})");
        }
    }
}

#[test]
fn ser_engine_stays_in_graph_ser() {
    for seed in 0..15 {
        for (mix, _) in mixes(seed) {
            let w = random_mix(&mix);
            let mut s = Scheduler::new(SchedulerConfig { seed, ..Default::default() });
            let run = s.run(&mut SerEngine::new(mix.objects), &w);
            assert!(SpecModel::Ser.check(&run.execution).is_ok(), "axioms (seed {seed})");
            let g = extract(&run.execution).unwrap();
            assert!(check_ser(&g).is_ok(), "graph class (seed {seed})");
        }
    }
}

#[test]
fn psi_engine_stays_in_graph_psi() {
    for seed in 0..15 {
        for (mix, bg) in mixes(seed) {
            let w = random_mix(&mix);
            let mut s = Scheduler::new(SchedulerConfig {
                seed,
                background_probability: bg,
                ..Default::default()
            });
            let run = s.run(&mut PsiEngine::new(mix.objects, 3), &w);
            assert!(SpecModel::Psi.check(&run.execution).is_ok(), "axioms (seed {seed})");
            let g = extract(&run.execution).unwrap();
            assert!(check_psi(&g).is_ok(), "graph class (seed {seed})");
        }
    }
}

#[test]
fn ssi_engine_stays_in_graph_ser() {
    // The whole point of SSI: SI reads, serializable histories. Every run
    // must land in GraphSER — Theorem 19 says preventing pivots suffices.
    for seed in 0..15 {
        for (mix, _) in mixes(seed) {
            let w = random_mix(&mix);
            let mut s = Scheduler::new(SchedulerConfig { seed, ..Default::default() });
            let run = s.run(&mut SsiEngine::new(mix.objects), &w);
            // The run is an SI execution operationally…
            assert!(SpecModel::Si.check(&run.execution).is_ok(), "axioms (seed {seed})");
            // …and its history is serializable.
            let g = extract(&run.execution).unwrap();
            assert!(check_ser(&g).is_ok(), "SSI produced a non-SER graph (seed {seed})");
        }
    }
    // Including on the write-skew workload that plain SI fails.
    let ws = bank::write_skew(2, 60);
    for seed in 0..30 {
        let mut s = Scheduler::new(SchedulerConfig { seed, ..Default::default() });
        let run = s.run(&mut SsiEngine::new(4), &ws);
        let g = extract(&run.execution).unwrap();
        assert!(check_ser(&g).is_ok(), "SSI permitted write skew (seed {seed})");
    }
}

#[test]
fn engine_strength_ordering_on_anomaly_workloads() {
    // The engines' reachable anomaly classes are strictly ordered:
    // SER ⊆ SI ⊆ PSI. Check each engine's runs against the *stronger*
    // classes: SER runs are always in GraphSER; SI runs always in GraphSI
    // but at least one leaves GraphSER; PSI runs always in GraphPSI but at
    // least one leaves GraphSI.
    let ws = bank::write_skew(1, 60);
    let mut si_left_ser = false;
    for seed in 0..40 {
        let mut s = Scheduler::new(SchedulerConfig { seed, ..Default::default() });
        let run = s.run(&mut SiEngine::new(2), &ws);
        let g = extract(&run.execution).unwrap();
        let class = classify_graph(&g);
        assert!(class.si);
        if !class.ser {
            si_left_ser = true;
        }
    }
    assert!(si_left_ser, "SI engine never produced write skew");

    let lf = fork::long_fork_repeated(1, 5);
    let mut psi_left_si = false;
    for seed in 0..40 {
        let mut s = Scheduler::new(SchedulerConfig {
            seed,
            background_probability: 0.02,
            ..Default::default()
        });
        let run = s.run(&mut PsiEngine::new(2, 2), &lf);
        let g = extract(&run.execution).unwrap();
        let class = classify_graph(&g);
        assert!(class.psi);
        if !class.si {
            psi_left_si = true;
        }
    }
    assert!(psi_left_si, "PSI engine never produced a long fork");
}

#[test]
fn si_engine_never_loses_updates_or_forks() {
    // Lost update and long fork are outside GraphSI; the SI engine can
    // therefore never produce them, on any seed.
    let lu = counter::shared_counter(3, 4, 1);
    let lf = fork::long_fork(2);
    for seed in 0..25 {
        for w in [&lu, &lf] {
            let mut s = Scheduler::new(SchedulerConfig { seed, ..Default::default() });
            let run = s.run(&mut SiEngine::new(4), w);
            let g = extract(&run.execution).unwrap();
            assert!(check_si(&g).is_ok(), "seed {seed}");
        }
    }
}

#[test]
fn concurrent_stress_is_validated_end_to_end() {
    for seed in [1, 2, 3] {
        let result =
            stress(&StressConfig::counters(3, 4, 30, seed), StressEngine::SingleLock).result;
        assert!(SpecModel::Si.check(&result.execution).is_ok());
        let g = extract(&result.execution).unwrap();
        assert!(check_si(&g).is_ok());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Real threads interleave nondeterministically, so there is no
    /// reference run to compare against. Instead every recorded run of
    /// the single-lock store must satisfy the paper's ground truth: the
    /// Definition 4 axiom instantiation of SI and membership in
    /// `GraphSI` (Theorem 9).
    #[test]
    fn concurrent_single_lock_runs_satisfy_si_axioms_and_graph(
        seed in 0u64..200,
        threads in 2usize..5,
        hot in any::<bool>(),
    ) {
        let config = if hot {
            StressConfig::high_contention(threads, 12, seed)
        } else {
            StressConfig::low_contention(threads, 12, seed)
        };
        let outcome = stress(&config, StressEngine::SingleLock);
        prop_assert!(
            SpecModel::Si.check(&outcome.result.execution).is_ok(),
            "axioms failed (seed={}, threads={})", seed, threads
        );
        let g = extract(&outcome.result.execution).unwrap();
        prop_assert!(
            check_si(&g).is_ok(),
            "left GraphSI (seed={}, threads={})", seed, threads
        );
    }
}

#[test]
fn abort_rates_reflect_model_strength() {
    // On a read-heavy contended mix, the SER engine (validating reads)
    // aborts at least as often as the SI engine (validating only writes).
    let mix = RandomMix {
        sessions: 6,
        txs_per_session: 10,
        ops_per_tx: 5,
        objects: 6,
        read_ratio: 0.7,
        zipf_s: 1.0,
        seed: 99,
    };
    let w = random_mix(&mix);
    let mut si_aborts = 0;
    let mut ser_aborts = 0;
    for seed in 0..10 {
        let mut s = Scheduler::new(SchedulerConfig { seed, ..Default::default() });
        si_aborts += s.run(&mut SiEngine::new(mix.objects), &w).stats.aborted;
        let mut s = Scheduler::new(SchedulerConfig { seed, ..Default::default() });
        ser_aborts += s.run(&mut SerEngine::new(mix.objects), &w).stats.aborted;
    }
    assert!(
        ser_aborts >= si_aborts,
        "SER aborted less than SI on a read-heavy mix: {ser_aborts} < {si_aborts}"
    );
}

#[test]
fn engine_names() {
    assert_eq!(SiEngine::new(1).name(), "SI");
    assert_eq!(SerEngine::new(1).name(), "SER");
    assert_eq!(PsiEngine::new(1, 2).name(), "PSI");
}
