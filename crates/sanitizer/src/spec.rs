//! Serializable descriptions of engines and workloads.
//!
//! A failure found by the explorer must be reproducible *from a file*:
//! the [`ReplayScript`](crate::ReplayScript) therefore stores the engine,
//! the workload and the decision trace as plain serde data, and this
//! module provides the lossless conversions to and from the live `si-mvcc`
//! types.

use serde::{Deserialize, Serialize};
use si_core::GraphClass;
use si_execution::SpecModel;
use si_model::Obj;
use si_mvcc::{Engine, PsiEngine, Script, ScriptOp, SerEngine, SiEngine, SsiEngine, Workload};

use crate::mutant::{MutantSiEngine, Mutation};

/// Which engine a sanitizer run drives, with enough configuration to
/// rebuild it from scratch.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum EngineSpec {
    /// [`SiEngine`]: snapshot isolation with first-committer-wins.
    Si,
    /// [`SerEngine`]: serializable OCC.
    Ser,
    /// [`SsiEngine`]: serializable SI (dangerous-structure prevention).
    Ssi,
    /// [`PsiEngine`] with the given replica count.
    Psi {
        /// Number of replicas (sessions are pinned round-robin).
        replicas: usize,
    },
    /// Seeded mutant: SI without first-committer-wins (admits lost
    /// updates).
    MutantDropFcw,
    /// Seeded mutant: SI whose snapshots lag `lag` commits behind
    /// (admits stale reads that break the SESSION axiom).
    MutantSnapshotLag {
        /// How many commits the snapshot lags behind the counter.
        lag: u64,
    },
    /// Seeded mutant: multi-write commits publish before all their
    /// versions are installed (admits torn reads that break EXT).
    MutantTornPublish,
}

/// What the oracles should hold an engine's runs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expectation {
    /// Axiom-level model every recorded execution must satisfy
    /// (Definition 4 instantiations).
    pub axioms: SpecModel,
    /// Dependency-graph class every extracted graph must belong to
    /// (Theorems 8/9/21).
    pub graph: GraphClass,
    /// Model the online [`SiMonitor`](si_core::SiMonitor) is run under as
    /// the differential counterpart of `graph`.
    pub monitor: SpecModel,
}

impl EngineSpec {
    /// Builds a fresh engine over `object_count` objects.
    pub fn build(&self, object_count: usize) -> Box<dyn Engine> {
        match *self {
            EngineSpec::Si => Box::new(SiEngine::new(object_count)),
            EngineSpec::Ser => Box::new(SerEngine::new(object_count)),
            EngineSpec::Ssi => Box::new(SsiEngine::new(object_count)),
            EngineSpec::Psi { replicas } => Box::new(PsiEngine::new(object_count, replicas)),
            EngineSpec::MutantDropFcw => {
                Box::new(MutantSiEngine::new(object_count, Mutation::DropFirstCommitterWins))
            }
            EngineSpec::MutantSnapshotLag { lag } => {
                Box::new(MutantSiEngine::new(object_count, Mutation::SnapshotLag { lag }))
            }
            EngineSpec::MutantTornPublish => {
                Box::new(MutantSiEngine::new(object_count, Mutation::TornPublish))
            }
        }
    }

    /// The oracle contract of this engine. Mutants claim to be SI — that
    /// is precisely what the sanitizer must catch them failing.
    pub fn expectation(&self) -> Expectation {
        match self {
            EngineSpec::Si
            | EngineSpec::MutantDropFcw
            | EngineSpec::MutantSnapshotLag { .. }
            | EngineSpec::MutantTornPublish => {
                Expectation { axioms: SpecModel::Si, graph: GraphClass::Si, monitor: SpecModel::Si }
            }
            EngineSpec::Ser => Expectation {
                axioms: SpecModel::Ser,
                graph: GraphClass::Ser,
                monitor: SpecModel::Ser,
            },
            // SSI reads under SI rules but commits only serializable runs:
            // the graph-level contract is the *stronger* GraphSER.
            EngineSpec::Ssi => Expectation {
                axioms: SpecModel::Si,
                graph: GraphClass::Ser,
                monitor: SpecModel::Ser,
            },
            EngineSpec::Psi { .. } => Expectation {
                axioms: SpecModel::Psi,
                graph: GraphClass::Psi,
                monitor: SpecModel::Psi,
            },
        }
    }

    /// Whether buffered writes are invisible to every other actor until
    /// commit. True for SI/SER/PSI (and the mutants), whose `write` only
    /// touches the transaction's private buffer; false for SSI, whose
    /// commit-time dangerous-structure detection inspects *in-flight*
    /// read and write sets, making the placement of a buffered write
    /// observable.
    pub fn writes_are_local(&self) -> bool {
        !matches!(self, EngineSpec::Ssi)
    }

    /// A short display name.
    pub fn name(&self) -> &'static str {
        match self {
            EngineSpec::Si => "SI",
            EngineSpec::Ser => "SER",
            EngineSpec::Ssi => "SSI",
            EngineSpec::Psi { .. } => "PSI",
            EngineSpec::MutantDropFcw => "SI-mutant-drop-fcw",
            EngineSpec::MutantSnapshotLag { .. } => "SI-mutant-snapshot-lag",
            EngineSpec::MutantTornPublish => "SI-mutant-torn-publish",
        }
    }
}

/// One script step, as serde data (mirrors [`ScriptOp`]).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum OpSpec {
    /// Read an object into the next register.
    Read {
        /// Object index.
        obj: u32,
    },
    /// Write a constant.
    WriteConst {
        /// Object index.
        obj: u32,
        /// The value.
        value: u64,
    },
    /// Write `sum(registers) + delta`, saturating at zero.
    WriteComputed {
        /// Object index.
        obj: u32,
        /// Registers to sum.
        regs: Vec<usize>,
        /// Signed adjustment.
        delta: i64,
    },
    /// Commit early if the register sum is below the threshold.
    EndIfSumBelow {
        /// Registers to sum.
        regs: Vec<usize>,
        /// Guard threshold.
        threshold: u64,
    },
}

impl OpSpec {
    fn from_op(op: &ScriptOp) -> Self {
        match op {
            ScriptOp::Read(x) => OpSpec::Read { obj: x.0 },
            ScriptOp::WriteConst(x, v) => OpSpec::WriteConst { obj: x.0, value: *v },
            ScriptOp::WriteComputed { obj, regs, delta } => {
                OpSpec::WriteComputed { obj: obj.0, regs: regs.clone(), delta: *delta }
            }
            ScriptOp::EndIfSumBelow { regs, threshold } => {
                OpSpec::EndIfSumBelow { regs: regs.clone(), threshold: *threshold }
            }
        }
    }

    fn append_to(&self, script: Script) -> Script {
        match self {
            OpSpec::Read { obj } => script.read(Obj(*obj)),
            OpSpec::WriteConst { obj, value } => script.write_const(Obj(*obj), *value),
            OpSpec::WriteComputed { obj, regs, delta } => {
                script.write_computed(Obj(*obj), regs.iter().copied(), *delta)
            }
            OpSpec::EndIfSumBelow { regs, threshold } => {
                script.end_if_sum_below(regs.iter().copied(), *threshold)
            }
        }
    }
}

/// An initial object value.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct InitialSpec {
    /// Object index.
    pub obj: u32,
    /// Initial value.
    pub value: u64,
}

/// A whole workload as serde data (mirrors [`Workload`]).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WorkloadSpec {
    /// Number of objects.
    pub object_count: usize,
    /// Non-zero initial values.
    pub initials: Vec<InitialSpec>,
    /// Per-session script queues; each script is a list of steps.
    pub sessions: Vec<Vec<Vec<OpSpec>>>,
}

impl WorkloadSpec {
    /// Captures a live workload.
    pub fn from_workload(w: &Workload) -> Self {
        WorkloadSpec {
            object_count: w.object_count(),
            initials: w
                .initial_values()
                .iter()
                .map(|&(obj, value)| InitialSpec { obj: obj.0, value })
                .collect(),
            sessions: w
                .session_scripts()
                .map(|scripts| {
                    scripts.iter().map(|s| s.ops().iter().map(OpSpec::from_op).collect()).collect()
                })
                .collect(),
        }
    }

    /// Rebuilds the live workload.
    pub fn to_workload(&self) -> Workload {
        let mut w = Workload::new(self.object_count);
        for init in &self.initials {
            w = w.initial(Obj(init.obj), init.value);
        }
        for session in &self.sessions {
            let scripts: Vec<Script> = session
                .iter()
                .map(|ops| ops.iter().fold(Script::new(), |s, op| op.append_to(s)))
                .collect();
            w = w.session(scripts);
        }
        w
    }

    /// Number of sessions.
    pub fn session_count(&self) -> usize {
        self.sessions.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_round_trips_through_spec() {
        let (x, y) = (Obj(0), Obj(1));
        let w = Workload::new(2)
            .initial(x, 60)
            .initial(y, 60)
            .session([Script::new().read(x).read(y).end_if_sum_below([0, 1], 100).write_computed(
                x,
                [0],
                -100,
            )])
            .session([Script::new().write_const(y, 7)]);
        let spec = WorkloadSpec::from_workload(&w);
        let json = serde_json::to_string(&spec).unwrap();
        let back: WorkloadSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, spec);
        let rebuilt = back.to_workload();
        assert_eq!(WorkloadSpec::from_workload(&rebuilt), spec);
    }

    #[test]
    fn engine_specs_serialize() {
        for spec in [
            EngineSpec::Si,
            EngineSpec::Ser,
            EngineSpec::Ssi,
            EngineSpec::Psi { replicas: 2 },
            EngineSpec::MutantDropFcw,
            EngineSpec::MutantSnapshotLag { lag: 1 },
            EngineSpec::MutantTornPublish,
        ] {
            let json = serde_json::to_string(&spec).unwrap();
            let back: EngineSpec = serde_json::from_str(&json).unwrap();
            assert_eq!(back, spec);
            assert!(spec.build(2).object_count() == 2);
        }
    }

    #[test]
    fn mutants_claim_si_contracts() {
        assert_eq!(EngineSpec::MutantDropFcw.expectation(), EngineSpec::Si.expectation());
        assert_eq!(
            EngineSpec::MutantSnapshotLag { lag: 1 }.expectation(),
            EngineSpec::Si.expectation()
        );
        assert_eq!(EngineSpec::MutantTornPublish.expectation(), EngineSpec::Si.expectation());
    }
}
