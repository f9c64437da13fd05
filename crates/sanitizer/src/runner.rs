//! The controlled deterministic runner: one interleaving, one run.
//!
//! The engines are deterministic single-threaded state machines, so an
//! "interleaving" is fully determined by the sequence of *scheduling
//! decisions*: which actor (client session or the engine's background
//! machinery) takes the next step. The [`Runner`] executes a workload one
//! decision at a time, exposing at each point the set of enabled steps
//! with enough of a summary ([`StepSummary`]) for the explorer's
//! independence relation, and recording the run exactly like the random
//! [`Scheduler`](si_mvcc::Scheduler) does — through a
//! [`Recorder`](si_mvcc::Recorder) plus the engine's telemetry trace.
//!
//! # Yield points
//!
//! Not every script operation is a scheduling decision. A step is a
//! *yield point* only if some other actor could observe it or be observed
//! by it:
//!
//! * `begin` — reads the commit counter / replica state;
//! * an **external** read — observes the shared version store (a read
//!   that hits the transaction's own write buffer is private and runs
//!   eagerly);
//! * a buffered write — private for SI/SER/PSI and executed eagerly;
//!   a yield point for SSI, whose commit-time validation inspects other
//!   *in-flight* transactions' buffers ([`EngineSpec::writes_are_local`]);
//! * `commit` — validates against and mutates the shared store;
//! * one background step (PSI replication).
//!
//! Guards (`EndIfSumBelow`) are pure register arithmetic and always run
//! eagerly. Collapsing private steps this way shrinks the exploration
//! tree without losing any observable interleaving.

use std::collections::BTreeSet;
use std::sync::Arc;

use serde::{Deserialize, Serialize};
use si_model::{Obj, Op, Value};
use si_mvcc::{
    CommittedTx, Engine, Recorder, RunResult, Script, ScriptOp, TxToken, VisibleSet, Workload,
};
use si_telemetry::{Event, Telemetry, VecSink};

use crate::spec::EngineSpec;

/// Who takes the next step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Actor {
    /// A client session (by index).
    Session(usize),
    /// The engine's background machinery (PSI replication).
    Background,
}

/// What an actor's next step would do to shared state — the vocabulary of
/// the explorer's independence relation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StepSummary {
    /// Acquire a snapshot.
    Begin,
    /// Externally read one object.
    Read(Obj),
    /// Buffer a write observable by other in-flight validation (SSI
    /// only — private writes never surface as steps).
    Write(Obj),
    /// Attempt to commit, validating/installing the listed sets.
    Commit {
        /// Objects externally read by the attempt so far.
        reads: Vec<Obj>,
        /// Objects buffered for writing.
        writes: Vec<Obj>,
    },
    /// One engine background step.
    Background,
}

/// An enabled transition: `actor`'s next step, summarised.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnabledStep {
    /// Who would move.
    pub actor: Actor,
    /// What the move does.
    pub summary: StepSummary,
}

#[derive(Debug)]
struct InFlight {
    token: TxToken,
    pc: usize,
    registers: Vec<Value>,
    ops: Vec<Op>,
    written: BTreeSet<Obj>,
    external_reads: Vec<Obj>,
}

#[derive(Debug)]
struct SessionState {
    scripts: Vec<Script>,
    next_script: usize,
    inflight: Option<InFlight>,
    retries: u32,
}

/// Aggregate counters of one controlled run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunCounters {
    /// Transactions that committed.
    pub committed: u64,
    /// Commit attempts refused by conflict detection.
    pub aborted: u64,
    /// Scripts abandoned after exhausting their retries.
    pub gave_up: u64,
    /// Background steps taken.
    pub background_steps: u64,
}

/// Everything a completed run leaves behind for the oracles.
#[derive(Debug)]
pub struct RunArtifacts {
    /// The recorded history and ground-truth execution.
    pub result: RunResult,
    /// The engine's telemetry trace: every snapshot, observed and
    /// installed version, commit and abort, in execution order.
    pub events: Vec<Event>,
    /// Aggregate counters.
    pub counters: RunCounters,
    /// The decisions actually taken, in order.
    pub decisions: Vec<Actor>,
}

/// Executes one workload against one engine under explicit scheduling
/// control.
pub struct Runner {
    engine: Box<dyn Engine>,
    trace: Arc<VecSink>,
    sessions: Vec<SessionState>,
    recorder: Recorder,
    counters: RunCounters,
    decisions: Vec<Actor>,
    initial_values: Vec<Value>,
    writes_are_local: bool,
    max_retries: u32,
}

impl std::fmt::Debug for Runner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Runner")
            .field("engine", &self.engine.name())
            .field("decisions", &self.decisions.len())
            .finish_non_exhaustive()
    }
}

impl Runner {
    /// Builds a fresh engine from `spec` and prepares the workload.
    ///
    /// # Panics
    ///
    /// Panics if the workload references objects outside the engine's
    /// universe.
    pub fn new(spec: &EngineSpec, workload: &Workload, max_retries: u32) -> Self {
        let mut engine = spec.build(workload.object_count());
        let trace = Arc::new(VecSink::new());
        engine.set_telemetry(Telemetry::new(trace.clone()));
        for &(obj, v) in workload.initial_values() {
            engine.set_initial(obj, Value(v));
        }
        let initial_values: Vec<Value> =
            (0..engine.object_count()).map(|i| engine.initial(Obj::from_index(i))).collect();
        let sessions = workload
            .session_scripts()
            .map(|scripts| SessionState {
                scripts: scripts.to_vec(),
                next_script: 0,
                inflight: None,
                retries: 0,
            })
            .collect();
        Runner {
            engine,
            trace,
            sessions,
            recorder: Recorder::new(),
            counters: RunCounters::default(),
            decisions: Vec::new(),
            initial_values,
            writes_are_local: spec.writes_are_local(),
            max_retries,
        }
    }

    /// The enabled transitions at the current state, in a deterministic
    /// order (sessions ascending, then background).
    pub fn enabled(&self) -> Vec<EnabledStep> {
        let mut out = Vec::new();
        for (i, s) in self.sessions.iter().enumerate() {
            if s.next_script >= s.scripts.len() {
                continue;
            }
            let summary = match &s.inflight {
                None => StepSummary::Begin,
                Some(tx) => {
                    let script = &s.scripts[s.next_script];
                    if tx.pc < script.ops().len() {
                        match &script.ops()[tx.pc] {
                            ScriptOp::Read(x) => StepSummary::Read(*x),
                            ScriptOp::WriteConst(x, _) | ScriptOp::WriteComputed { obj: x, .. } => {
                                StepSummary::Write(*x)
                            }
                            ScriptOp::EndIfSumBelow { .. } => {
                                unreachable!("guards run eagerly, never pending at a yield point")
                            }
                        }
                    } else {
                        StepSummary::Commit {
                            reads: tx.external_reads.clone(),
                            writes: tx.written.iter().copied().collect(),
                        }
                    }
                }
            };
            out.push(EnabledStep { actor: Actor::Session(i), summary });
        }
        if self.engine.background_pending() {
            out.push(EnabledStep { actor: Actor::Background, summary: StepSummary::Background });
        }
        out
    }

    /// Whether the run is over (no actor can move).
    pub fn is_complete(&self) -> bool {
        self.enabled().is_empty()
    }

    /// Whether `actor` currently has an enabled step.
    pub fn is_enabled(&self, actor: Actor) -> bool {
        match actor {
            Actor::Session(i) => {
                self.sessions.get(i).is_some_and(|s| s.next_script < s.scripts.len())
            }
            Actor::Background => self.engine.background_pending(),
        }
    }

    /// Executes `actor`'s next step (plus any following private steps).
    ///
    /// # Panics
    ///
    /// Panics if the actor has no enabled step.
    pub fn step(&mut self, actor: Actor) {
        assert!(self.is_enabled(actor), "stepping a disabled actor: {actor:?}");
        self.decisions.push(actor);
        match actor {
            Actor::Background => {
                let did = self.engine.background_step();
                debug_assert!(did, "background was pending but did nothing");
                self.counters.background_steps += 1;
            }
            Actor::Session(i) => self.step_session(i),
        }
    }

    fn step_session(&mut self, i: usize) {
        let state = &mut self.sessions[i];
        let script = state.scripts[state.next_script].clone();
        match &mut state.inflight {
            None => {
                let token = self.engine.begin(i);
                state.inflight = Some(InFlight {
                    token,
                    pc: 0,
                    registers: Vec::new(),
                    ops: Vec::new(),
                    written: BTreeSet::new(),
                    external_reads: Vec::new(),
                });
                self.run_private_ops(i, &script);
            }
            Some(tx) if tx.pc < script.ops().len() => {
                // The pending op is a yield point by construction.
                let pc = tx.pc;
                tx.pc = Self::execute_op(self.engine.as_mut(), tx, &script, pc);
                self.run_private_ops(i, &script);
            }
            Some(_) => self.finish_script(i),
        }
    }

    /// Executes private (unobservable) steps eagerly until the next yield
    /// point: guards always, buffered writes when the engine cannot leak
    /// them, reads that hit the own-write buffer.
    fn run_private_ops(&mut self, i: usize, script: &Script) {
        let tx = self.sessions[i].inflight.as_mut().expect("in-flight");
        while tx.pc < script.ops().len() {
            let private = match &script.ops()[tx.pc] {
                ScriptOp::EndIfSumBelow { .. } => true,
                ScriptOp::WriteConst(..) | ScriptOp::WriteComputed { .. } => self.writes_are_local,
                ScriptOp::Read(x) => tx.written.contains(x),
            };
            if !private {
                return;
            }
            let pc = tx.pc;
            tx.pc = Self::execute_op(self.engine.as_mut(), tx, script, pc);
        }
    }

    /// Executes one op and returns the next program counter (guards may
    /// jump straight to the end of the script).
    fn execute_op(engine: &mut dyn Engine, tx: &mut InFlight, script: &Script, pc: usize) -> usize {
        match &script.ops()[pc] {
            ScriptOp::Read(x) => {
                let external = !tx.written.contains(x);
                let v = engine.read(tx.token, *x);
                tx.registers.push(v);
                tx.ops.push(Op::Read(*x, v));
                if external && !tx.external_reads.contains(x) {
                    tx.external_reads.push(*x);
                }
                pc + 1
            }
            ScriptOp::WriteConst(x, value) => {
                engine.write(tx.token, *x, Value(*value));
                tx.ops.push(Op::Write(*x, Value(*value)));
                tx.written.insert(*x);
                pc + 1
            }
            ScriptOp::WriteComputed { obj, regs, delta } => {
                let v = compute(regs, *delta, &tx.registers);
                engine.write(tx.token, *obj, v);
                tx.ops.push(Op::Write(*obj, v));
                tx.written.insert(*obj);
                pc + 1
            }
            ScriptOp::EndIfSumBelow { regs, threshold } => {
                let sum: u64 = regs.iter().map(|&r| tx.registers[r].0).sum();
                if sum < *threshold {
                    script.ops().len() // commit early
                } else {
                    pc + 1
                }
            }
        }
    }

    fn finish_script(&mut self, i: usize) {
        let state = &mut self.sessions[i];
        let InFlight { token, ops, .. } = state.inflight.take().expect("in-flight");
        if ops.is_empty() {
            // Degenerate script (e.g. only a failed guard's read… which
            // would itself be an op; truly empty means no steps ran).
            self.engine.abort(token);
            state.next_script += 1;
            state.retries = 0;
            return;
        }
        match self.engine.commit(token) {
            Ok(info) => {
                self.counters.committed += 1;
                self.recorder.record(CommittedTx {
                    session: i,
                    ops,
                    seq: info.seq,
                    visible: VisibleSet::Explicit(info.visible),
                });
                state.next_script += 1;
                state.retries = 0;
            }
            Err(_) => {
                self.counters.aborted += 1;
                state.retries += 1;
                if state.retries > self.max_retries {
                    self.counters.gave_up += 1;
                    state.next_script += 1;
                    state.retries = 0;
                }
                // Otherwise the script is resubmitted from scratch on the
                // session's next turn.
            }
        }
    }

    /// Finalises the run into oracle-ready artifacts.
    ///
    /// # Panics
    ///
    /// Panics if the run is not complete.
    pub fn finish(self) -> RunArtifacts {
        assert!(self.is_complete(), "finishing an incomplete run");
        let session_count = self.sessions.len();
        let result = self.recorder.finish(&self.initial_values, session_count);
        RunArtifacts {
            result,
            events: self.trace.drain(),
            counters: self.counters,
            decisions: self.decisions,
        }
    }
}

/// `sum(regs) + delta`, saturating at zero — mirrors the scheduler's
/// script arithmetic exactly (replays must be bit-identical).
fn compute(regs: &[usize], delta: i64, registers: &[Value]) -> Value {
    let sum: u64 = regs.iter().map(|&r| registers[r].0).sum();
    let adjusted = if delta >= 0 {
        sum.saturating_add(delta as u64)
    } else {
        sum.saturating_sub(delta.unsigned_abs())
    };
    Value(adjusted)
}

/// Replays a decision list with *advisory repair*: decisions whose actor
/// is not enabled are skipped, and once the list is exhausted the first
/// enabled actor steps until the run completes. Every decision list —
/// including every sublist the shrinker proposes — therefore yields a
/// valid complete run. Returns the artifacts; `artifacts.decisions` is
/// the repaired, complete trace.
pub fn run_advisory(
    spec: &EngineSpec,
    workload: &Workload,
    max_retries: u32,
    decisions: &[Actor],
) -> RunArtifacts {
    let mut runner = Runner::new(spec, workload, max_retries);
    for &d in decisions {
        if runner.is_complete() {
            break;
        }
        if runner.is_enabled(d) {
            runner.step(d);
        }
    }
    while let Some(step) = runner.enabled().first().cloned() {
        runner.step(step.actor);
    }
    runner.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use si_execution::SpecModel;

    fn lost_update_workload() -> Workload {
        let x = Obj(0);
        let inc = Script::new().read(x).write_computed(x, [0], 1);
        Workload::new(1).session([inc.clone()]).session([inc])
    }

    #[test]
    fn sequential_schedule_commits_everything() {
        let w = lost_update_workload();
        let mut r = Runner::new(&EngineSpec::Si, &w, 4);
        // Session 0 start to finish, then session 1.
        for _ in 0..3 {
            r.step(Actor::Session(0));
        }
        for _ in 0..3 {
            r.step(Actor::Session(1));
        }
        assert!(r.is_complete());
        let a = r.finish();
        assert_eq!(a.counters.committed, 2);
        assert_eq!(a.counters.aborted, 0);
        assert!(SpecModel::Si.check(&a.result.execution).is_ok());
    }

    #[test]
    fn interleaved_schedule_aborts_and_retries() {
        let w = lost_update_workload();
        let mut r = Runner::new(&EngineSpec::Si, &w, 4);
        // Both read before either commits: the second committer must
        // abort and retry.
        r.step(Actor::Session(0)); // begin
        r.step(Actor::Session(1)); // begin
        r.step(Actor::Session(0)); // read (+ private write)
        r.step(Actor::Session(1)); // read (+ private write)
        r.step(Actor::Session(0)); // commit: ok
        r.step(Actor::Session(1)); // commit: ww-conflict, retry
        while !r.is_complete() {
            r.step(Actor::Session(1));
        }
        let a = r.finish();
        assert_eq!(a.counters.committed, 2);
        assert_eq!(a.counters.aborted, 1);
        assert!(SpecModel::Si.check(&a.result.execution).is_ok());
    }

    #[test]
    fn advisory_replay_is_deterministic() {
        let w = lost_update_workload();
        let decisions = [Actor::Session(0), Actor::Session(1), Actor::Session(0)];
        let a = run_advisory(&EngineSpec::Si, &w, 4, &decisions);
        let b = run_advisory(&EngineSpec::Si, &w, 4, &decisions);
        assert_eq!(a.result.history, b.result.history);
        assert_eq!(a.events, b.events);
        assert_eq!(a.decisions, b.decisions);
    }

    #[test]
    fn private_writes_do_not_yield_under_si() {
        let x = Obj(0);
        let w = Workload::new(1).session([Script::new().write_const(x, 1).read(x)]);
        let mut r = Runner::new(&EngineSpec::Si, &w, 4);
        r.step(Actor::Session(0)); // begin + private write + own-buffer read
                                   // Everything private ran eagerly: only the commit remains.
        let enabled = r.enabled();
        assert_eq!(enabled.len(), 1);
        assert!(matches!(enabled[0].summary, StepSummary::Commit { .. }));
    }

    #[test]
    fn ssi_writes_are_yield_points() {
        let x = Obj(0);
        let w = Workload::new(1).session([Script::new().write_const(x, 1)]);
        let r = {
            let mut r = Runner::new(&EngineSpec::Ssi, &w, 4);
            r.step(Actor::Session(0)); // begin only
            r
        };
        let enabled = r.enabled();
        assert_eq!(enabled.len(), 1);
        assert!(matches!(enabled[0].summary, StepSummary::Write(_)));
    }

    #[test]
    fn psi_background_becomes_enabled() {
        let x = Obj(0);
        let w = Workload::new(1)
            .session([Script::new().write_const(x, 1)])
            .session([Script::new().read(x)]);
        let mut r = Runner::new(&EngineSpec::Psi { replicas: 2 }, &w, 4);
        r.step(Actor::Session(0)); // begin (+ private write)
        r.step(Actor::Session(0)); // commit
        assert!(r.enabled().iter().any(|s| s.actor == Actor::Background));
        r.step(Actor::Background);
        assert!(!r.enabled().iter().any(|s| s.actor == Actor::Background));
    }
}
