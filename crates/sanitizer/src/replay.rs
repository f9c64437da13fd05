//! Replayable failure scripts.
//!
//! When the explorer finds (and the shrinker minimises) a failing
//! interleaving, the whole repro — engine configuration, workload and
//! decision trace — is captured as one serde value that round-trips
//! through JSON. Replaying is deterministic down to the byte: the runner
//! is a pure function of `(engine, workload, decisions)`, so a script
//! filed in a bug report reproduces the identical history, telemetry trace
//! and oracle verdicts on any machine.

use serde::{Deserialize, Serialize};
use si_mvcc::Workload;

use crate::runner::{run_advisory, Actor, RunArtifacts};
use crate::spec::{EngineSpec, WorkloadSpec};

/// A self-contained, serialisable repro of one controlled run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReplayScript {
    /// The engine under test.
    pub engine: EngineSpec,
    /// The workload driven against it.
    pub workload: WorkloadSpec,
    /// Retry budget per script (must match the original run).
    pub max_retries: u32,
    /// The scheduling decisions, in advisory form: decisions whose actor
    /// is not enabled are skipped, and the run is completed with the
    /// first enabled actor once the list is exhausted.
    pub decisions: Vec<Actor>,
}

impl ReplayScript {
    /// Captures a run as a script.
    pub fn new(
        engine: EngineSpec,
        workload: &Workload,
        max_retries: u32,
        decisions: Vec<Actor>,
    ) -> Self {
        ReplayScript {
            engine,
            workload: WorkloadSpec::from_workload(workload),
            max_retries,
            decisions,
        }
    }

    /// Re-executes the script and returns the run's artifacts.
    pub fn replay(&self) -> RunArtifacts {
        let workload = self.workload.to_workload();
        run_advisory(&self.engine, &workload, self.max_retries, &self.decisions)
    }

    /// Serialises to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("replay scripts are plain data")
    }

    /// Parses a script from JSON.
    ///
    /// # Errors
    ///
    /// Returns the underlying serde error on malformed input.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use si_model::Obj;
    use si_mvcc::Script;

    #[test]
    fn script_round_trips_and_replays_identically() {
        let x = Obj(0);
        let inc = Script::new().read(x).write_computed(x, [0], 1);
        let w = Workload::new(1).session([inc.clone()]).session([inc]);
        let script = ReplayScript::new(
            EngineSpec::MutantDropFcw,
            &w,
            4,
            vec![Actor::Session(0), Actor::Session(1), Actor::Session(0), Actor::Session(1)],
        );
        let json = script.to_json();
        let back = ReplayScript::from_json(&json).expect("round trip");
        assert_eq!(back, script);

        let a = script.replay();
        let b = back.replay();
        assert_eq!(a.result.history, b.result.history);
        assert_eq!(a.result.execution, b.result.execution);
        assert_eq!(a.events, b.events);
        assert_eq!(a.decisions, b.decisions);
        // And serialising the replayed history itself is stable.
        assert_eq!(
            serde_json::to_string(&a.result.history).unwrap(),
            serde_json::to_string(&b.result.history).unwrap()
        );
    }
}
