//! The repository benchmark. One command runs one workload for a
//! seed and a time budget, checks the program's outputs, and prints
//! the metrics as the last line of standard output:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload alibaba_replay --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with no instrument
//! installed. `--trace 1` alternates untraced and traced instances and
//! reports the per-layer metrics from the traced ones, the tracing
//! overhead between the two, and the blocking-path budget. `--counts`
//! prints one traced instance's exact work counts; `--selftest` runs
//! `--counts` in two processes and fails unless they agree bit-for-bit.
//! See `perfbench/README.md` for the workloads and metric definitions.

mod alibaba;
mod layers;
mod measure;
mod report;
mod stream;

use std::collections::BTreeSet;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use measure::Instance;

#[global_allocator]
static ALLOC: layers::CountingAlloc = layers::CountingAlloc;

/// Untraced instances a `--trace 0` run measures at least, whatever the
/// time budget (medians need a few).
const MIN_INSTANCES: usize = 3;
/// Untraced/traced pairs a `--trace 1` run measures at least.
const MIN_PAIRS: usize = 2;

pub const WORKLOADS: [&str; 3] = ["alibaba_replay", "grant_stream", "replicated_stream"];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    counts: bool,
    selftest: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20,
        trace: false,
        counts: false,
        selftest: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                };
            }
            "--counts" => args.counts = true,
            "--selftest" => args.selftest = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?} or all, not {:?}",
            args.workload
        ));
    }
    Ok(args)
}

/// The workload under test with its seeded inputs.
enum Workload {
    Replay(alibaba::Replay),
    Stream(stream::Stream),
}

impl Workload {
    fn new(name: &str, seed: u64) -> Self {
        match name {
            "alibaba_replay" => Self::Replay(alibaba::Replay::new(seed)),
            "grant_stream" => Self::Stream(stream::Stream::new(seed, false)),
            _ => Self::Stream(stream::Stream::new(seed, true)),
        }
    }

    fn describe(&self) -> String {
        match self {
            Self::Replay(r) => r.describe(),
            Self::Stream(s) => s.describe(),
        }
    }

    /// One instance, plus the grants it made when the workload has a
    /// decision oracle.
    fn run(&self, traced: bool) -> Result<(Instance, Option<BTreeSet<u64>>), String> {
        match self {
            Self::Replay(r) => r.run(traced).map(|(i, g)| (i, Some(g))),
            Self::Stream(s) => s.run(traced).map(|i| (i, None)),
        }
    }

    /// The oracle's grants (computed after the measurement, so its
    /// memory does not count toward the peak RSS).
    fn reference(&self) -> Option<BTreeSet<u64>> {
        match self {
            Self::Replay(r) => Some(r.reference_grants()),
            Self::Stream(_) => None,
        }
    }
}

/// `--workload all`: every workload in turn, each in its own process
/// (so peak RSS stays per workload), with the same flags; fails if any
/// of them fails.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("perfbench: cannot locate the benchmark binary: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for w in WORKLOADS {
        let mut cmd = std::process::Command::new(&exe);
        cmd.args(["--workload", w, "--seed", &args.seed.to_string()]);
        cmd.args(["--seconds", &args.seconds.to_string()]);
        cmd.args(["--trace", if args.trace { "1" } else { "0" }]);
        if args.counts {
            cmd.arg("--counts");
        }
        if args.selftest {
            cmd.arg("--selftest");
        }
        let passed = cmd.status().is_ok_and(|s| s.success());
        if !passed {
            eprintln!("perfbench: {w} failed");
        }
        ok &= passed;
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    if args.selftest {
        return report::selftest(&args.workload, args.seed);
    }
    let workload = Workload::new(&args.workload, args.seed);
    println!(
        "provenance: {}",
        report::provenance(
            &args.workload,
            args.seed,
            args.seconds,
            args.trace,
            &workload.describe()
        )
    );
    if args.counts {
        return match workload.run(true) {
            Ok((inst, _)) => {
                println!("{}", report::counts_line(&inst));
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }

    let mut failures: Vec<String> = Vec::new();
    let mut instances: Vec<(bool, Instance)> = Vec::new();
    // The replay grants the same task set every round; the first round's
    // set is checked against the oracle once the measurement is over.
    let mut first_grants: Option<BTreeSet<u64>> = None;
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let passes: &[bool] = if args.trace { &[false, true] } else { &[false] };
    let min_rounds = if args.trace { MIN_PAIRS } else { MIN_INSTANCES };
    'measure: for round in 0.. {
        for &traced in passes {
            match workload.run(traced) {
                Ok((inst, grants)) => {
                    instances.push((traced, inst));
                    match (&first_grants, grants) {
                        (None, g) => first_grants = g,
                        (Some(first), Some(g)) if g != *first => {
                            failures.push("replay rounds granted different task sets".into());
                            break 'measure;
                        }
                        _ => {}
                    }
                }
                Err(e) => {
                    failures.push(e);
                    break 'measure;
                }
            }
        }
        if round + 1 >= min_rounds && Instant::now() >= deadline {
            break;
        }
    }
    let peak_rss_mb = measure::peak_rss_mb();
    if let (Some(reference), Some(g)) = (workload.reference(), &first_grants) {
        if *g != reference {
            failures.push(format!(
                "replay granted {} tasks, simulate_service_durable grants {} ({} differ)",
                g.len(),
                reference.len(),
                g.symmetric_difference(&reference).count()
            ));
        }
        println!(
            "oracle: simulate_service_durable grants {} tasks",
            reference.len()
        );
    }
    report::finish(
        &args.workload,
        args.trace,
        &instances,
        peak_rss_mb,
        failures,
    )
}
