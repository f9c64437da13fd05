//! `perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>`
//!
//! Runs one workload and prints the host block, every metric by name
//! with its unit, and as the last line one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.

use std::fmt::Write as _;
use std::path::Path;
use std::process::{Command, ExitCode};
use std::time::Instant;

use perfbench::{run, trace, RunConfig, Scale, Workload};

fn usage(why: &str) -> ExitCode {
    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
    eprintln!("perfbench: {why}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
        names.join("|")
    );
    ExitCode::from(2)
}

fn parse(args: &[String]) -> Result<RunConfig, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0, 10.0, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad())?;
                if !(seconds > 0.0 && seconds <= 3600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(RunConfig { workload, seed, seconds, trace, scale: Scale::Full })
}

/// First line of a command's standard output, or `unknown`.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

fn host_block() -> String {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rustc = command_line("rustc", &["--version"]);
    let profile = if cfg!(debug_assertions) { "debug" } else { "release" };
    // Stop git's search at the benchmark's own directory, so a checkout
    // that is not a repository reports `unknown`, not an enclosing one.
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    let ceiling = manifest.parent().and_then(Path::parent).unwrap_or(manifest);
    let commit = Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .current_dir(manifest)
        .env("GIT_CEILING_DIRECTORIES", ceiling)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string());
    format!(
        "host: available_parallelism={cores} rustc=\"{rustc}\" profile={profile} commit={commit}"
    )
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let config = match parse(&args) {
        Ok(config) => config,
        Err(why) => return usage(&why),
    };

    let report = run(&config, process_start);

    println!("{}", host_block());
    println!(
        "workload: {} seed={} seconds={} trace={}",
        config.workload.name(),
        config.seed,
        config.seconds,
        u8::from(config.trace)
    );
    for m in &report.metrics {
        println!("{:<32} {:>20} {}", m.name, m.value, m.unit);
    }
    if config.trace {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!("trace-{}-seed{}.jsonl", config.workload.name(), config.seed));
        match std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, trace::to_jsonl(&report.spans)))
        {
            Ok(()) => println!("spans: {} written to {}", report.spans.len(), path.display()),
            Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
        }
    }

    let mut metrics = String::new();
    for (i, m) in report.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        write!(metrics, r#"{sep}"{}": {{"value": {}, "unit": "{}"}}"#, m.name, m.value, m.unit)
            .expect("writing to a String cannot fail");
    }
    println!(
        r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{metrics}}}}}"#,
        report.correct, report.attempted, report.failed
    );
    ExitCode::SUCCESS
}
