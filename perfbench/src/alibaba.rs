//! `alibaba_replay`: the paper's Alibaba-DP month (§6.3) replayed
//! online through the in-process async surface, with scheduling cycles
//! driven in virtual time in exactly the order
//! `simulator::replay_workload` emits them. The DPack kernel dominates;
//! multi-block tasks exercise the cross-shard 2PC pass and its WAL
//! records. The network and replication layers are not used.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Instant;

use dpack_core::problem::{Block, Task};
use dpack_service::wal::{SimStorage, WalStorage};
use dpack_service::{BudgetService, Decision, DurabilityOptions, ServiceConfig, SubmissionTicket};
use simulator::{replay_workload, simulate_service_durable, ReplayEvent, SimulationConfig};
use workloads::alibaba::{self, AlibabaDpConfig};
use workloads::OnlineWorkload;

use crate::layers::{allocations, count_allocations, StorageTally, TimedStorage};
use crate::measure::{cpu_time_s, nanos, ns_since, Instance, LatencyHist, PathSplit, Trace};

/// Scheduling ticks replayed as warm-up (part of set-up): the pending
/// set fills to its steady size before the measured portion starts.
const WARMUP_TICKS: usize = 10;

/// One replay event, by index into the workload.
#[derive(Debug, Clone, Copy)]
enum Ev {
    Block(usize),
    Task(usize),
    Tick(f64),
}

pub struct Replay {
    workload: OnlineWorkload,
    events: Vec<Ev>,
    /// Index of the first measured event.
    warm_end: usize,
    sim: SimulationConfig,
    config: ServiceConfig,
}

impl Replay {
    /// Generates the month for `seed` and fixes its event order.
    pub fn new(seed: u64) -> Self {
        let workload = alibaba::generate(&AlibabaDpConfig::default(), seed);
        let sim = SimulationConfig {
            scheduling_period: 1.0,
            unlock_steps: 50,
            task_timeout: Some(5.0),
            drain_steps: 55,
        };
        // The service `simulate_service_durable` builds from `sim`,
        // minus its replay-only admission overrides (queue bound,
        // retention), which decisions do not depend on.
        let config = ServiceConfig {
            scheduling_period: sim.scheduling_period,
            unlock_period: 1.0,
            unlock_steps: sim.unlock_steps,
            default_timeout: sim.task_timeout,
            ..ServiceConfig::default()
        };
        let mut events = Vec::new();
        replay_workload(&workload, &sim, |e| {
            events.push(match e {
                ReplayEvent::Block(b) => Ev::Block(b.id as usize),
                ReplayEvent::Task(t) => Ev::Task(t.id as usize),
                ReplayEvent::Tick(now) => Ev::Tick(now),
            });
        });
        for (i, b) in workload.blocks.iter().enumerate() {
            assert_eq!(b.id as usize, i, "alibaba blocks are indexed by id");
        }
        for (i, t) in workload.tasks.iter().enumerate() {
            assert_eq!(t.id as usize, i, "alibaba tasks are indexed by id");
        }
        let warm_end = events
            .iter()
            .enumerate()
            .filter(|(_, e)| matches!(e, Ev::Tick(_)))
            .nth(WARMUP_TICKS - 1)
            .map_or(events.len(), |(i, _)| i + 1);
        Self {
            workload,
            events,
            warm_end,
            sim,
            config,
        }
    }

    /// The workload parameters, for the provenance line.
    pub fn describe(&self) -> String {
        let ticks = self
            .events
            .iter()
            .filter(|e| matches!(e, Ev::Tick(_)))
            .count();
        format!(
            "alibaba-dp month: {} blocks, {} tasks, {ticks} ticks (T=1, N={}, timeout {:?}, \
             drain {}), warm-up {WARMUP_TICKS} ticks; service S={} W={} {}; \
             durable group commit on SimStorage, snapshot every {:?} cycles",
            self.workload.blocks.len(),
            self.workload.tasks.len(),
            self.sim.unlock_steps,
            self.sim.task_timeout,
            self.sim.drain_steps,
            self.config.shards,
            self.config.workers,
            self.config.scheduler.name(),
            DurabilityOptions::default().snapshot_every_cycles,
        )
    }

    /// The grants `simulator::simulate_service_durable` makes for the
    /// same month and service shape — the decision oracle.
    pub fn reference_grants(&self) -> BTreeSet<u64> {
        simulate_service_durable(&self.workload, &self.config, &self.sim).allocated_ids()
    }

    /// Replays the month once on a fresh durable service; returns the
    /// measurement and the ids of the tasks it granted.
    pub fn run(&self, traced: bool) -> Result<(Instance, BTreeSet<u64>), String> {
        // Inputs are copied out before any timer starts.
        let mut tasks: Vec<Option<Task>> = self.workload.tasks.iter().cloned().map(Some).collect();
        let mut blocks: Vec<Option<Block>> =
            self.workload.blocks.iter().cloned().map(Some).collect();
        let sim_storage = SimStorage::new();
        let tally = Arc::new(StorageTally::default());
        let mut run = RoundState {
            outstanding: Vec::with_capacity(8192),
            granted: BTreeSet::new(),
            trace: traced.then(Trace::default),
            ..RoundState::default()
        };

        let t_setup = Instant::now();
        let storage: Box<dyn WalStorage> = if traced {
            Box::new(TimedStorage::new(Box::new(sim_storage), Arc::clone(&tally)))
        } else {
            Box::new(sim_storage)
        };
        let service = BudgetService::recover(
            self.workload.grid.clone(),
            self.config,
            storage.as_ref(),
            DurabilityOptions::default(),
        )
        .map_err(|e| format!("opening the durable service failed: {e}"))?;
        for ev in &self.events[..self.warm_end] {
            run.step(*ev, &service, &mut tasks, &mut blocks, &tally, false)?;
        }
        let setup_s = t_setup.elapsed().as_secs_f64();

        let durable0 = service.ledger().durability_stats().unwrap_or_default();
        let cpu0 = cpu_time_s();
        let t0 = Instant::now();
        for ev in &self.events[self.warm_end..] {
            run.step(*ev, &service, &mut tasks, &mut blocks, &tally, true)?;
        }
        let wall_ns = ns_since(t0);
        let cpu_s = cpu_time_s() - cpu0;
        let durable1 = service.ledger().durability_stats().unwrap_or_default();

        if !run.outstanding.is_empty() {
            return Err(format!(
                "{} submissions never received a decision",
                run.outstanding.len()
            ));
        }
        let unsound = service.ledger().unsound_blocks();
        if !unsound.is_empty() {
            return Err(format!("ledger unsound on blocks {unsound:?}"));
        }

        let mut trace = run.trace.take();
        if let Some(t) = &mut trace {
            t.wal_records = durable1.batched_records - durable0.batched_records;
            t.wal_batches = durable1.batches - durable0.batches;
            t.path.push(PathSplit {
                wall_ns,
                ..run.path
            });
        }
        let submitted_weight = self.workload.tasks.iter().map(|t| t.weight).sum();
        let inst = Instance {
            setup_s,
            wall_s: wall_ns as f64 * 1e-9,
            cpu_s,
            decisions: run.measured_decisions,
            latency_p50_ms: run.latency.percentile_ms(0.50),
            latency_p99_ms: run.latency.percentile_ms(0.99),
            submitted: run.submitted,
            decided: run.decided,
            submitted_weight,
            granted_weight: run.granted_weight,
            grants: run.measured_grants,
            trace,
        };
        Ok((inst, run.granted))
    }
}

/// A submission awaiting its decision.
struct Undecided {
    task: usize,
    weight: f64,
    submitted_at: Instant,
    /// Submitted in the measured portion (its latency is a sample).
    measured: bool,
    ticket: SubmissionTicket,
}

/// The replay's bookkeeping between events.
#[derive(Default)]
struct RoundState {
    outstanding: Vec<Undecided>,
    granted: BTreeSet<u64>,
    granted_weight: f64,
    submitted: u64,
    decided: u64,
    measured_decisions: u64,
    measured_grants: u64,
    latency: LatencyHist,
    /// Pending-set size after the previous cycle.
    pending_after: u64,
    path: PathSplit,
    trace: Option<Trace>,
}

impl RoundState {
    fn step(
        &mut self,
        ev: Ev,
        service: &BudgetService,
        tasks: &mut [Option<Task>],
        blocks: &mut [Option<Block>],
        tally: &StorageTally,
        measured: bool,
    ) -> Result<(), String> {
        let traced = measured && self.trace.is_some();
        match ev {
            Ev::Block(i) => {
                let block = blocks[i].take().expect("each block arrives once");
                let t = Instant::now();
                service
                    .register_block(block)
                    .map_err(|e| format!("block {i} rejected: {e}"))?;
                if traced {
                    self.path.register_ns += ns_since(t);
                }
            }
            Ev::Task(i) => {
                let task = tasks[i].take().expect("each task arrives once");
                let weight = task.weight;
                self.submitted += 1;
                let t = Instant::now();
                let ticket = service
                    .submit_async(0, task)
                    .map_err(|e| format!("task {i} rejected: {e}"))?;
                if traced {
                    let ns = ns_since(t);
                    self.path.submit_ns += ns;
                    if let Some(tr) = &mut self.trace {
                        tr.service_submit_ns.push(ns);
                    }
                }
                self.outstanding.push(Undecided {
                    task: i,
                    weight,
                    submitted_at: t,
                    measured,
                    ticket,
                });
            }
            Ev::Tick(now) => {
                let before = (traced).then(|| (tally.read(), allocations()));
                if traced {
                    count_allocations(true);
                }
                let t = Instant::now();
                let cs = service.run_cycle(now);
                let cycle_ns = ns_since(t);
                let done = Instant::now();
                if let (Some((s0, a0)), Some(tr)) = (before, &mut self.trace) {
                    count_allocations(false);
                    let (s1, a1) = (tally.read(), allocations());
                    self.path.cycle_ns += cycle_ns;
                    tr.cycle_ns.push(cycle_ns);
                    tr.schedule_ns.push(nanos(cs.algorithm));
                    tr.storage_ns.push(s1.0 - s0.0);
                    tr.ship_ns.push(0);
                    tr.replica_storage_ns.push(0);
                    tr.pending.push(
                        (self.pending_after + cs.ingested as u64).saturating_sub(cs.evicted as u64),
                    );
                    tr.cycles += 1;
                    tr.grants += cs.granted() as u64;
                    tr.cross_grants += cs.cross_granted as u64;
                    tr.released += cs.released as u64;
                    tr.allocs += a1 - a0;
                    tr.wal_appends += s1.1 - s0.1;
                    tr.wal_bytes += s1.2 - s0.2;
                }
                self.pending_after = cs.pending_after as u64;
                if measured {
                    self.measured_grants += cs.granted() as u64;
                }
                let mut resolved = 0u64;
                let (latency, granted, granted_weight) = (
                    &mut self.latency,
                    &mut self.granted,
                    &mut self.granted_weight,
                );
                self.outstanding.retain(|u| {
                    let Some(decision) = u.ticket.try_decision() else {
                        return true;
                    };
                    resolved += 1;
                    if u.measured {
                        latency.record(nanos(done.duration_since(u.submitted_at)));
                    }
                    if let Decision::Granted { .. } = decision {
                        granted.insert(u.task as u64);
                        *granted_weight += u.weight;
                    }
                    false
                });
                self.decided += resolved;
                if measured {
                    self.measured_decisions += resolved;
                }
            }
        }
        Ok(())
    }
}
