//! What one measured instance records, and the host-level readings
//! (process CPU time, peak RSS) taken around it.

use std::time::{Duration, Instant};

/// One set-up serving stack, measured: set-up, then a fixed amount of
/// seeded work. Every instance of a run gets the same inputs.
#[derive(Debug, Default)]
pub struct Instance {
    /// Set-up wall time: opening the service and its logs (and
    /// replicas, server and connection), registering blocks, warm-up.
    pub setup_s: f64,
    /// Wall time of the measured portion.
    pub wall_s: f64,
    /// Process CPU time (all threads) over the measured portion.
    pub cpu_s: f64,
    /// Decisions that reached the tenant in the measured portion.
    pub decisions: u64,
    /// Median and 99th percentile of the submit-to-decision-in-hand
    /// latency of the tasks submitted in the measured portion, in
    /// milliseconds.
    pub latency_p50_ms: f64,
    pub latency_p99_ms: f64,
    /// Every submission of the instance, warm-up included.
    pub submitted: u64,
    /// Submissions that received exactly one decision.
    pub decided: u64,
    pub submitted_weight: f64,
    pub granted_weight: f64,
    /// Grants made in the measured portion (an exact count).
    pub grants: u64,
    /// The per-layer record; only the traced pass fills it.
    pub trace: Option<Trace>,
}

/// Latencies in log-spaced buckets 0.1% wide: fixed memory however many
/// decisions an instance makes (the samples themselves would show up in
/// the peak RSS), and percentiles within 0.1%.
#[derive(Debug, Default)]
pub struct LatencyHist {
    counts: Vec<u64>,
    n: u64,
}

/// Bucket growth factor.
const GROWTH: f64 = 1.001;
/// Buckets up to `GROWTH^BUCKETS` ns ≈ 190 s.
const BUCKETS: usize = 26_000;

impl LatencyHist {
    pub fn record(&mut self, ns: u64) {
        if self.counts.is_empty() {
            self.counts = vec![0; BUCKETS];
        }
        let b = if ns <= 1 {
            0
        } else {
            ((ns as f64).ln() / GROWTH.ln()) as usize
        };
        self.counts[b.min(BUCKETS - 1)] += 1;
        self.n += 1;
    }

    /// The `q` quantile in milliseconds (bucket midpoint); 0 when empty.
    pub fn percentile_ms(&self, q: f64) -> f64 {
        let rank = ((q * self.n as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return GROWTH.powf(b as f64 + 0.5) / 1e6;
            }
        }
        0.0
    }
}

/// Per-layer samples and exact counts of one traced instance's
/// measured portion.
#[derive(Debug, Default)]
pub struct Trace {
    /// Per cycle: timed `run_cycle`.
    pub cycle_ns: Vec<u64>,
    /// Per cycle: `CycleStats::algorithm`.
    pub schedule_ns: Vec<u64>,
    /// Per cycle: primary WAL storage time.
    pub storage_ns: Vec<u64>,
    /// Per cycle: time inside `ReplicationSink::ship`.
    pub ship_ns: Vec<u64>,
    /// Per cycle: replica WAL storage time.
    pub replica_storage_ns: Vec<u64>,
    /// Per cycle: tasks the schedulers ran over (pending after ingest
    /// and eviction).
    pub pending: Vec<u64>,
    /// Per call: `BudgetService::submit_async` (in-process workloads).
    pub service_submit_ns: Vec<u64>,
    /// Per call: `NetClient::submit_nowait`.
    pub net_submit_ns: Vec<u64>,
    /// Per window: the in-order barrier request.
    pub admit_ns: Vec<u64>,
    /// Per call: `NetClient::wait_decision`.
    pub reply_ns: Vec<u64>,
    /// Per call: `ReplicationSink::ship`.
    pub ship_call_ns: Vec<u64>,
    /// Per window (streams) or per round (replay): the blocking path
    /// split into its sequential parts and their wall time.
    pub path: Vec<PathSplit>,
    pub cycles: u64,
    pub grants: u64,
    pub cross_grants: u64,
    pub released: u64,
    pub allocs: u64,
    pub wal_appends: u64,
    pub wal_bytes: u64,
    pub wal_records: u64,
    pub wal_batches: u64,
    pub ship_bytes: u64,
    pub net_bytes: u64,
}

/// One blocking path's wall time and the sequential layer calls on it.
#[derive(Debug, Default, Clone, Copy)]
pub struct PathSplit {
    pub wall_ns: u64,
    pub submit_ns: u64,
    pub admit_ns: u64,
    pub cycle_ns: u64,
    pub reply_ns: u64,
    /// Block registrations (the replay registers blocks as they arrive).
    pub register_ns: u64,
}

impl PathSplit {
    /// The layer calls' sum; the rest of `wall_ns` is the benchmark's
    /// own bookkeeping between calls.
    pub fn layers_ns(&self) -> u64 {
        self.submit_ns + self.admit_ns + self.cycle_ns + self.reply_ns + self.register_ns
    }
}

/// A duration in whole nanoseconds (saturating).
pub fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Nanoseconds since `t0`.
pub fn ns_since(t0: Instant) -> u64 {
    nanos(t0.elapsed())
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// Linux `CLOCK_PROCESS_CPUTIME_ID`: CPU time of every thread of the
/// process, exited threads included.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// Process CPU time in seconds.
pub fn cpu_time_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` writes one `timespec` (two 64-bit fields
    // on 64-bit Linux, matching `Timespec`'s `repr(C)` layout) through
    // a pointer to a live, exclusively borrowed local.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// The process's peak resident set (`VmHWM`) in megabytes.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Nearest-rank percentile (`q` in `[0, 1]`) of unsorted samples.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Nanosecond samples as microseconds.
pub fn us(ns: &[u64]) -> Vec<f64> {
    ns.iter().map(|&n| n as f64 / 1e3).collect()
}

/// The mean of the better half of unsorted samples (the lower half, or
/// the upper half when `higher_is_better`; the middle sample counts for
/// odd counts). Host interference only adds time, so the better half of a
/// run's instances is the less disturbed half: averaging it keeps the
/// estimate steady while up to half of the instances are disturbed.
pub fn better_half_mean(samples: &[f64], higher_is_better: bool) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    if higher_is_better {
        v.reverse();
    }
    let half = &v[..v.len().div_ceil(2)];
    half.iter().sum::<f64>() / half.len() as f64
}

/// The median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}
