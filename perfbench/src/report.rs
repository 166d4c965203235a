//! Aggregation and output: provenance, the end-to-end metrics (untraced
//! instances only), the per-layer metrics and blocking-path budget
//! (traced instances), exact work counts, and the final JSON line.

use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::process::ExitCode;

use crate::measure::{better_half_mean, median, percentile, us, Instance, Trace};

/// Bytes hashed into the source fingerprint: every regular file under
/// these directories, by sorted path.
const SOURCE_DIRS: [&str; 2] = ["crates", "perfbench"];

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
}

fn collect_files(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        match entry.file_type() {
            Ok(t) if t.is_dir() => collect_files(&path, out),
            Ok(t) if t.is_file() => out.push(path),
            _ => {}
        }
    }
}

/// FNV-1a over the sources the benchmark builds from — identifies the
/// code under test where no git metadata is available.
fn source_fingerprint() -> String {
    let mut files = Vec::new();
    for d in SOURCE_DIRS {
        collect_files(std::path::Path::new(d), &mut files);
    }
    files.sort();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for f in &files {
        fnv1a(&mut hash, f.to_string_lossy().as_bytes());
        if let Ok(bytes) = std::fs::read(f) {
            fnv1a(&mut hash, &bytes);
        }
    }
    format!("{hash:016x} ({} files)", files.len())
}

/// `HEAD` of the working directory's own git metadata; a checkout
/// without `.git` reports none rather than a parent directory's.
fn git_revision() -> String {
    if !std::path::Path::new(".git").exists() {
        return "none (not a git checkout)".into();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "none (not a git checkout)".into(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The host, toolchain, code and inputs a result was measured with.
/// Absolute numbers compare only between results with the same host
/// fields.
pub fn provenance(workload: &str, seed: u64, seconds: u64, trace: bool, params: &str) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"nproc\": {nproc}, \"cpu_model\": {}, \"rustc\": {}, \"git_revision\": {}, \
         \"source_fingerprint\": {}, \"workload\": {}, \"seed\": {seed}, \"seconds\": {seconds}, \
         \"trace\": {}, \"params\": {}}}",
        json_str(&cpu_model()),
        json_str(env!("PERFBENCH_RUSTC")),
        json_str(&git_revision()),
        json_str(&source_fingerprint()),
        json_str(workload),
        u8::from(trace),
        json_str(params),
    )
}

/// The exact work counts of one traced instance, as integers. Two runs
/// of one seed must print the same line.
pub fn counts_line(inst: &Instance) -> String {
    let t = inst
        .trace
        .as_ref()
        .expect("counts come from a traced instance");
    format!(
        "counts: grants={} decisions={} cycles={} cross_grants={} released={} wal_appends={} \
         wal_bytes={} wal_records={} wal_batches={} ship_bytes={} net_bytes={}",
        inst.grants,
        inst.decisions,
        t.cycles,
        t.cross_grants,
        t.released,
        t.wal_appends,
        t.wal_bytes,
        t.wal_records,
        t.wal_batches,
        t.ship_bytes,
        t.net_bytes
    )
}

/// Runs `--counts` for `workload` in two processes and compares the
/// exact counts they print.
pub fn selftest(workload: &str, seed: u64) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("perfbench: cannot locate the benchmark binary: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut lines = Vec::new();
    for run in 0..2 {
        let out = std::process::Command::new(&exe)
            .args([
                "--workload",
                workload,
                "--seed",
                &seed.to_string(),
                "--counts",
            ])
            .output();
        let line = out.ok().filter(|o| o.status.success()).and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .find(|l| l.starts_with("counts:"))
                .map(str::to_string)
        });
        let Some(line) = line else {
            eprintln!("perfbench: selftest run {run} of {workload} failed");
            return ExitCode::FAILURE;
        };
        println!("run {run}: {line}");
        lines.push(line);
    }
    if lines[0] == lines[1] {
        println!("selftest {workload} seed {seed}: exact counts repeat bit-for-bit");
        ExitCode::SUCCESS
    } else {
        eprintln!("perfbench: selftest {workload} seed {seed}: exact counts differ");
        ExitCode::FAILURE
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Name, unit, value.
type Metric = (&'static str, &'static str, f64);

fn end_to_end(untraced: &[&Instance], peak_rss_mb: f64) -> Vec<Metric> {
    let each = |f: &dyn Fn(&Instance) -> f64| untraced.iter().map(|i| f(i)).collect::<Vec<_>>();
    let higher = |f: &dyn Fn(&Instance) -> f64| better_half_mean(&each(f), true);
    let lower = |f: &dyn Fn(&Instance) -> f64| better_half_mean(&each(f), false);
    let submitted_weight: f64 = untraced.iter().map(|i| i.submitted_weight).sum();
    let granted_weight: f64 = untraced.iter().map(|i| i.granted_weight).sum();
    let submitted: u64 = untraced.iter().map(|i| i.submitted).sum();
    let decided: u64 = untraced.iter().map(|i| i.decided).sum();
    vec![
        (
            "decisions_per_s",
            "1/s",
            higher(&|i| ratio(i.decisions as f64, i.wall_s)),
        ),
        (
            "decision_latency_p50_ms",
            "ms",
            lower(&|i| i.latency_p50_ms),
        ),
        (
            "decision_latency_p99_ms",
            "ms",
            lower(&|i| i.latency_p99_ms),
        ),
        (
            "granted_weight_frac",
            "frac",
            ratio(granted_weight, submitted_weight),
        ),
        (
            "decided_frac",
            "frac",
            ratio(decided as f64, submitted as f64),
        ),
        (
            "cpu_us_per_decision",
            "us",
            lower(&|i| ratio(i.cpu_s * 1e6, i.decisions as f64)),
        ),
        ("peak_rss_mb", "MB", peak_rss_mb),
        ("setup_s", "s", median(&each(&|i| i.setup_s))),
    ]
}

/// Every traced instance's samples pooled into one record.
fn pool(traced: &[&Instance]) -> (Trace, u64) {
    let mut all = Trace::default();
    let mut decisions = 0;
    for inst in traced {
        let t = inst.trace.as_ref().expect("traced instance");
        decisions += inst.decisions;
        all.cycle_ns.extend(&t.cycle_ns);
        all.schedule_ns.extend(&t.schedule_ns);
        all.storage_ns.extend(&t.storage_ns);
        all.ship_ns.extend(&t.ship_ns);
        all.replica_storage_ns.extend(&t.replica_storage_ns);
        all.pending.extend(&t.pending);
        all.service_submit_ns.extend(&t.service_submit_ns);
        all.net_submit_ns.extend(&t.net_submit_ns);
        all.admit_ns.extend(&t.admit_ns);
        all.reply_ns.extend(&t.reply_ns);
        all.ship_call_ns.extend(&t.ship_call_ns);
        all.path.extend(&t.path);
        all.cycles += t.cycles;
        all.grants += t.grants;
        all.cross_grants += t.cross_grants;
        all.released += t.released;
        all.allocs += t.allocs;
        all.wal_appends += t.wal_appends;
        all.wal_bytes += t.wal_bytes;
        all.wal_records += t.wal_records;
        all.wal_batches += t.wal_batches;
        all.ship_bytes += t.ship_bytes;
        all.net_bytes += t.net_bytes;
    }
    (all, decisions)
}

/// Per cycle: run_cycle minus the layers measured inside it.
fn cycle_self_ns(t: &Trace) -> Vec<f64> {
    (0..t.cycle_ns.len())
        .map(|c| {
            t.cycle_ns[c] as f64
                - t.schedule_ns[c] as f64
                - t.storage_ns[c] as f64
                - t.ship_ns[c] as f64
        })
        .collect()
}

fn per_layer(untraced: &[&Instance], traced: &[&Instance]) -> Vec<Metric> {
    let (t, decisions) = pool(traced);
    let cycles = t.cycles as f64;
    let grants = t.grants as f64;
    let sum = |v: &[u64]| v.iter().map(|&x| x as f64).sum::<f64>();
    let wall_per_decision = |insts: &[&Instance]| {
        let v: Vec<f64> = insts
            .iter()
            .map(|i| ratio(i.wall_s, i.decisions as f64))
            .collect();
        better_half_mean(&v, false)
    };
    let path_wall: f64 = t.path.iter().map(|p| p.wall_ns as f64).sum();
    let path_layers: f64 = t.path.iter().map(|p| p.layers_ns() as f64).sum();
    let ms = |v: &[u64], q: f64| percentile(&us(v), q) / 1e3;
    vec![
        ("core.schedule_ms_p50", "ms", ms(&t.schedule_ns, 0.5)),
        (
            "core.schedule_us_per_pending_task",
            "us",
            ratio(sum(&t.schedule_ns) / 1e3, sum(&t.pending)),
        ),
        ("service.cycle_ms_p50", "ms", ms(&t.cycle_ns, 0.5)),
        ("service.cycle_ms_p99", "ms", ms(&t.cycle_ns, 0.99)),
        (
            "service.cycle_self_ms_p50",
            "ms",
            percentile(&cycle_self_ns(&t), 0.5) / 1e6,
        ),
        (
            "service.submit_us_p50",
            "us",
            percentile(&us(&t.service_submit_ns), 0.5),
        ),
        (
            "service.pending_tasks_p50",
            "count",
            percentile(
                &t.pending.iter().map(|&p| p as f64).collect::<Vec<_>>(),
                0.5,
            ),
        ),
        (
            "service.cross_grant_frac",
            "frac",
            ratio(t.cross_grants as f64, grants),
        ),
        (
            "service.released_frac",
            "frac",
            ratio(t.released as f64, grants + t.released as f64),
        ),
        (
            "service.allocs_per_decision",
            "count",
            ratio(t.allocs as f64, decisions as f64),
        ),
        (
            "service.grants_per_instance",
            "count",
            ratio(grants, traced.len() as f64),
        ),
        (
            "net.submit_us_p50",
            "us",
            percentile(&us(&t.net_submit_ns), 0.5),
        ),
        (
            "net.admit_wait_us_p50",
            "us",
            percentile(&us(&t.admit_ns), 0.5),
        ),
        ("net.reply_us_p50", "us", percentile(&us(&t.reply_ns), 0.5)),
        (
            "net.bytes_per_decision",
            "B",
            ratio(t.net_bytes as f64, decisions as f64),
        ),
        (
            "wal.storage_us_per_cycle",
            "us",
            ratio(sum(&t.storage_ns) / 1e3, cycles),
        ),
        (
            "wal.bytes_per_grant",
            "B",
            ratio(t.wal_bytes as f64, grants),
        ),
        (
            "wal.appends_per_cycle",
            "count",
            ratio(t.wal_appends as f64, cycles),
        ),
        (
            "wal.records_per_batch",
            "count",
            ratio(t.wal_records as f64, t.wal_batches as f64),
        ),
        (
            "repl.ship_us_p50",
            "us",
            percentile(&us(&t.ship_call_ns), 0.5),
        ),
        (
            "repl.ship_bytes_per_grant",
            "B",
            ratio(t.ship_bytes as f64, grants),
        ),
        (
            "repl.replica_storage_us_per_cycle",
            "us",
            ratio(sum(&t.replica_storage_ns) / 1e3, cycles),
        ),
        (
            "bench.tracing_overhead_frac",
            "frac",
            ratio(wall_per_decision(traced), wall_per_decision(untraced)) - 1.0,
        ),
        (
            "bench.residual_frac",
            "frac",
            ratio(path_wall - path_layers, path_wall),
        ),
    ]
}

fn print_table(title: &str, metrics: &[Metric]) {
    println!("{title}");
    for (name, unit, value) in metrics {
        println!("  {name:<36} {value:>14.4} {unit}");
    }
}

fn mean(v: &[f64]) -> f64 {
    ratio(v.iter().sum(), v.len() as f64)
}

/// The traced run's blocking-path budget: the mean window (or, for the
/// replay, the mean cycle and the round) split into its sequential
/// layers — means, so the parts add up to the whole — compared with
/// the untraced latency median.
fn print_budget(workload: &str, traced: &[&Instance], latency_p50_ms: f64) {
    let (t, _) = pool(traced);
    let col = |f: &dyn Fn(&crate::measure::PathSplit) -> u64| {
        mean(&t.path.iter().map(|p| f(p) as f64).collect::<Vec<_>>()) / 1e6
    };
    let cyc = |v: &[u64]| mean(&v.iter().map(|&x| x as f64).collect::<Vec<_>>()) / 1e6;
    let self_ms = mean(&cycle_self_ns(&t)) / 1e6;
    println!("blocking-path budget ({workload}, means, ms):");
    if workload == "alibaba_replay" {
        println!(
            "  per task: submit {:.4}; per cycle: schedule {:.4} + wal storage {:.4} + self {:.4} \
             = cycle {:.4}",
            cyc(&t.service_submit_ns),
            cyc(&t.schedule_ns),
            cyc(&t.storage_ns),
            self_ms,
            cyc(&t.cycle_ns)
        );
        let (submit, register, cycles) = (
            col(&|p| p.submit_ns),
            col(&|p| p.register_ns),
            col(&|p| p.cycle_ns),
        );
        let wall = col(&|p| p.wall_ns);
        let total = submit + register + cycles;
        println!(
            "  per round: submit {submit:.1} + register {register:.1} + cycles {cycles:.1} = \
             {total:.1} of wall {wall:.1} (residual {:.1})",
            wall - total
        );
        println!(
            "  untraced decision_latency_p50_ms {latency_p50_ms:.4}: a replay decision waits \
             for virtual-time ticks, so it spans several cycles and the submits between them"
        );
    } else {
        let submit = col(&|p| p.submit_ns);
        let admit = col(&|p| p.admit_ns);
        let cycle = col(&|p| p.cycle_ns);
        let reply = col(&|p| p.reply_ns);
        let wall = col(&|p| p.wall_ns);
        let total = submit + admit + cycle + reply;
        println!(
            "  per window: submit {submit:.4} + admit wait {admit:.4} + cycle {cycle:.4} \
             (schedule {:.4} + wal storage {:.4} + ship {:.4} + self {self_ms:.4}) + reply \
             {reply:.4} = {total:.4} of window wall {wall:.4} (residual {:.4})",
            cyc(&t.schedule_ns),
            cyc(&t.storage_ns),
            cyc(&t.ship_ns),
            wall - total,
        );
        println!(
            "  untraced decision_latency_p50_ms {latency_p50_ms:.4} = {:.3} x the budget",
            ratio(latency_p50_ms, total)
        );
    }
}

fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (k, (name, unit, value)) in metrics.iter().enumerate() {
        let v = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            s,
            "{}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}",
            if k > 0 { ", " } else { "" }
        );
    }
    s.push_str("}}");
    s
}

/// Checks, aggregates and prints the run; the last line is the JSON
/// result. Exits non-zero when any correctness check failed.
pub fn finish(
    workload: &str,
    trace: bool,
    instances: &[(bool, Instance)],
    peak_rss_mb: f64,
    mut failures: Vec<String>,
) -> ExitCode {
    let untraced: Vec<&Instance> = instances
        .iter()
        .filter(|(t, _)| !t)
        .map(|(_, i)| i)
        .collect();
    let traced: Vec<&Instance> = instances
        .iter()
        .filter(|(t, _)| *t)
        .map(|(_, i)| i)
        .collect();
    let attempted: u64 = instances.iter().map(|(_, i)| i.submitted).sum();
    let decided: u64 = instances.iter().map(|(_, i)| i.decided).sum();
    if decided != attempted {
        failures.push(format!(
            "{} of {attempted} submissions undecided",
            attempted - decided
        ));
    }
    // Exact counts are a pure function of the seed: every traced
    // instance of one run must reproduce them.
    let counts: BTreeSet<String> = traced.iter().map(|i| counts_line(i)).collect();
    if counts.len() > 1 {
        failures.push(format!(
            "exact counts differ between instances of one seed: {counts:?}"
        ));
    }
    for line in &counts {
        println!("{line}");
    }
    println!(
        "instances: {} untraced, {} traced",
        untraced.len(),
        traced.len()
    );

    let e2e = end_to_end(&untraced, peak_rss_mb);
    print_table(&format!("end-to-end ({workload}, untraced)"), &e2e);
    let metrics = if trace {
        let layers = per_layer(&untraced, &traced);
        print_table(&format!("per-layer ({workload}, traced)"), &layers);
        print_budget(workload, &traced, e2e[1].2);
        layers
    } else {
        e2e
    };
    for f in &failures {
        eprintln!("perfbench: check failed: {f}");
        println!("check failed: {f}");
    }
    let correct = failures.is_empty();
    let failed = attempted - decided.min(attempted);
    println!("{}", json_line(correct, attempted.max(1), failed, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
