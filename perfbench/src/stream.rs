//! `grant_stream` and `replicated_stream`: eight tenants on one TCP
//! connection to a `NetServer`, sending single-block tasks that always
//! fit in closed-loop windows of [`WINDOW`] tasks, one scheduling cycle
//! per window. A window ends with an in-order barrier request (the grid
//! handshake): the reactor answers it only after it has admitted every
//! submission before it, so the cycle that follows sees the whole
//! window. `replicated_stream` adds quorum-2 WAL shipping to two
//! replicas over in-process loopback transports (no extra threads).

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dp_accounting::{AlphaGrid, RdpCurve};
use dpack_core::problem::{Block, Task};
use dpack_net::{
    LoopbackTransport, NetClient, NetServer, Outcome, ReplicaNode, Replicator, ServiceCore,
    TcpTransport, Transport,
};
use dpack_service::obs::Obs;
use dpack_service::wal::{SimStorage, WalStorage};
use dpack_service::{BudgetService, DurabilityOptions, ReplicationSink, ServiceConfig};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::layers::{
    allocations, count_allocations, CountedTransport, NetTally, ShipTally, StorageTally, TimedSink,
    TimedStorage,
};
use crate::measure::{cpu_time_s, nanos, ns_since, Instance, LatencyHist, PathSplit, Trace};

/// Tasks per closed-loop window (one scheduling cycle each). Every
/// window pays a few thread wake-ups (the reactor's timed park, the
/// client's blocking read, the cycle's worker spawn and join); on a
/// shared VM each can stall for milliseconds, so a window long enough
/// to amortize them keeps the latency tail steady: in back-to-back runs
/// on a 2-vCPU VM, p99 and throughput moved 30–60% at 256 tasks and
/// about 7% at 2048. Stays below the server's 4096 in-flight cap per
/// connection.
pub const WINDOW: usize = 2048;
/// Tenants sharing the one connection.
const TENANTS: u32 = 8;
/// Windows run as warm-up (part of set-up).
const WARMUP_WINDOWS: usize = 2;
/// Measured windows per instance (the 64th cycle compacts the WAL, so
/// every instance measures one compaction).
const MEASURED_WINDOWS: usize = 64;
/// Blocks the tasks spread over (`WINDOW / BLOCKS` tasks per block per
/// window, so every shard gets the same share).
const BLOCKS: u64 = 64;
/// Replicas and the ship quorum of `replicated_stream`.
const REPLICAS: usize = 2;
/// Virtual time at which the blocks (arriving at 0) are fully
/// unlocked under the default `N = 50` unit unlock steps.
const UNLOCKED_AT: f64 = 50.0;
/// How long a client receive may block before the run fails instead of
/// hanging (a task that was never decided).
const RECV_TIMEOUT: Duration = Duration::from_secs(60);

pub struct Stream {
    replicated: bool,
    grid: AlphaGrid,
    /// `(tenant, task)` in submission order, windows back to back.
    tasks: Vec<(u32, Task)>,
    config: ServiceConfig,
}

/// Time and work of the primary's and the replicas' storage, the ship
/// path, and the client connection.
#[derive(Default)]
struct Tallies {
    primary: Arc<StorageTally>,
    replicas: Arc<StorageTally>,
    ship: Arc<ShipTally>,
    net: Arc<NetTally>,
}

impl Tallies {
    fn read(&self) -> [u64; 5] {
        let (p_ns, p_appends, p_bytes) = self.primary.read();
        [
            p_ns,
            p_appends,
            p_bytes,
            self.replicas.read().0,
            self.ship.nanos.load(Ordering::Relaxed),
        ]
    }
}

/// A set-up serving stack.
struct Stack {
    service: Arc<BudgetService>,
    server: NetServer,
    client: NetClient,
    replicas: Vec<Arc<ReplicaNode>>,
    replicator: Option<Arc<Replicator>>,
    cycles_run: usize,
}

impl Stream {
    /// Draws the task stream for `seed`: per window, each block gets
    /// `WINDOW / BLOCKS` tasks in a seeded order, demands uniform in
    /// `[0.5, 1.5)` × a base sized so every block's total stays below
    /// 90% of its unit capacity.
    pub fn new(seed: u64, replicated: bool) -> Self {
        let grid = AlphaGrid::standard();
        let mut rng = StdRng::seed_from_u64(seed);
        let windows = WARMUP_WINDOWS + MEASURED_WINDOWS;
        let per_block = (windows * WINDOW) as f64 / BLOCKS as f64;
        let base = 0.9 / (1.5 * per_block);
        let mut tasks = Vec::with_capacity(windows * WINDOW);
        for w in 0..windows {
            let mut slots: Vec<u64> = (0..WINDOW as u64).collect();
            for i in (1..slots.len()).rev() {
                let j = rng.random_range(0..i + 1);
                slots.swap(i, j);
            }
            for (k, slot) in slots.into_iter().enumerate() {
                let id = (w * WINDOW + k) as u64;
                let eps = base * (0.5 + rng.random::<f64>());
                let task = Task::new(
                    id,
                    1.0,
                    vec![slot % BLOCKS],
                    RdpCurve::constant(&grid, eps),
                    UNLOCKED_AT + w as f64,
                );
                tasks.push((k as u32 % TENANTS, task));
            }
        }
        Self {
            replicated,
            grid,
            tasks,
            config: ServiceConfig::default(),
        }
    }

    pub fn describe(&self) -> String {
        format!(
            "{TENANTS} tenants on one TCP connection, closed loop: {WINDOW}-task windows, one cycle \
             each, warm-up {WARMUP_WINDOWS} windows + {MEASURED_WINDOWS} measured per instance; \
             {BLOCKS} unit blocks, single-block tasks that always fit; service S={} W={} {}; \
             durable group commit on SimStorage, snapshot every {:?} cycles{}",
            self.config.shards,
            self.config.workers,
            self.config.scheduler.name(),
            DurabilityOptions::default().snapshot_every_cycles,
            if self.replicated {
                format!("; WAL shipped at quorum {REPLICAS} to {REPLICAS} loopback replicas")
            } else {
                String::new()
            },
        )
    }

    fn setup(&self, traced: bool, tallies: &Tallies) -> Result<Stack, String> {
        let wrap = |tally: &Arc<StorageTally>| -> Box<dyn WalStorage> {
            let sim = Box::new(SimStorage::new());
            if traced {
                Box::new(TimedStorage::new(sim, Arc::clone(tally)))
            } else {
                sim
            }
        };
        let opts = DurabilityOptions::default();
        let mut service = BudgetService::recover(
            self.grid.clone(),
            self.config,
            wrap(&tallies.primary).as_ref(),
            opts,
        )
        .map_err(|e| format!("opening the durable service failed: {e}"))?;
        let mut replicas = Vec::new();
        let mut replicator = None;
        if self.replicated {
            let mut clients = Vec::new();
            for _ in 0..REPLICAS {
                let node = ReplicaNode::open(
                    wrap(&tallies.replicas).as_ref(),
                    self.config.shards,
                    opts.segment_bytes,
                    Obs::wall(),
                )
                .map_err(|e| format!("opening a replica failed: {e}"))?;
                let node = Arc::new(node);
                clients.push(NetClient::new(Box::new(LoopbackTransport::with_core(
                    ServiceCore::replica(Arc::clone(&node)),
                ))));
                replicas.push(node);
            }
            let repl = Arc::new(Replicator::over_clients(
                clients,
                REPLICAS,
                self.config.shards,
                service.obs(),
            ));
            let sink: Arc<dyn ReplicationSink> = if traced {
                Arc::new(TimedSink::new(Arc::clone(&repl), Arc::clone(&tallies.ship)))
            } else {
                Arc::clone(&repl) as Arc<dyn ReplicationSink>
            };
            service.replicate_to(sink);
            replicator = Some(repl);
        }
        for j in 0..BLOCKS {
            service
                .register_block(Block::new(j, RdpCurve::constant(&self.grid, 1.0), 0.0))
                .map_err(|e| format!("block {j} rejected: {e}"))?;
        }
        let service = Arc::new(service);
        let server = NetServer::bind(Arc::clone(&service), "127.0.0.1:0")
            .map_err(|e| format!("binding the server failed: {e}"))?;
        let tcp = TcpTransport::connect(server.local_addr())
            .map_err(|e| format!("connecting failed: {e}"))?;
        let transport: Box<dyn Transport> = if traced {
            Box::new(CountedTransport::new(tcp, Arc::clone(&tallies.net)))
        } else {
            Box::new(tcp)
        };
        let mut client = NetClient::new(transport);
        client
            .set_read_timeout(Some(RECV_TIMEOUT))
            .map_err(|e| format!("setting the read timeout failed: {e}"))?;
        let grid = client
            .grid()
            .map_err(|e| format!("handshake failed: {e}"))?;
        if grid != self.grid {
            return Err("the server announced a different alpha grid".into());
        }
        Ok(Stack {
            service,
            server,
            client,
            replicas,
            replicator,
            cycles_run: 0,
        })
    }

    /// Sets up a fresh stack, warms it, and measures its windows.
    pub fn run(&self, traced: bool) -> Result<Instance, String> {
        let tallies = Tallies::default();
        let mut trace = traced.then(Trace::default);
        let mut inst = Instance::default();
        let mut latency = LatencyHist::default();

        let t_setup = Instant::now();
        let mut stack = self.setup(traced, &tallies)?;
        for w in 0..WARMUP_WINDOWS {
            self.window(&mut stack, w, &mut inst, None, &tallies, None)?;
        }
        inst.setup_s = t_setup.elapsed().as_secs_f64();

        let durable0 = stack
            .service
            .ledger()
            .durability_stats()
            .unwrap_or_default();
        let net0 = tallies.net.bytes.load(Ordering::Relaxed);
        let ship_bytes0 = tallies.ship.bytes.load(Ordering::Relaxed);
        let cpu0 = cpu_time_s();
        let t0 = Instant::now();
        for w in WARMUP_WINDOWS..WARMUP_WINDOWS + MEASURED_WINDOWS {
            let measured = Some(&mut latency);
            self.window(&mut stack, w, &mut inst, trace.as_mut(), &tallies, measured)?;
        }
        inst.wall_s = t0.elapsed().as_secs_f64();
        inst.cpu_s = cpu_time_s() - cpu0;
        inst.latency_p50_ms = latency.percentile_ms(0.50);
        inst.latency_p99_ms = latency.percentile_ms(0.99);
        let durable1 = stack
            .service
            .ledger()
            .durability_stats()
            .unwrap_or_default();
        if let Some(t) = &mut trace {
            t.wal_records = durable1.batched_records - durable0.batched_records;
            t.wal_batches = durable1.batches - durable0.batches;
            t.net_bytes = tallies.net.bytes.load(Ordering::Relaxed) - net0;
            t.ship_bytes = tallies.ship.bytes.load(Ordering::Relaxed) - ship_bytes0;
            t.ship_call_ns =
                std::mem::take(&mut *tallies.ship.calls.lock().expect("ship tally lock poisoned"));
        }
        inst.trace = trace;

        let Stack {
            service,
            server,
            client,
            replicas,
            replicator,
            ..
        } = stack;
        drop(client);
        server.stop();
        let unsound = service.ledger().unsound_blocks();
        if !unsound.is_empty() {
            return Err(format!("ledger unsound on blocks {unsound:?}"));
        }
        if let Some(repl) = replicator {
            let primary = repl.vector();
            for (i, node) in replicas.iter().enumerate() {
                let v = node.wal().vector();
                if v != primary {
                    return Err(format!(
                        "replica {i} durable seq vector {v:?} != primary {primary:?}"
                    ));
                }
            }
        }
        Ok(inst)
    }

    /// One closed-loop window: submit, barrier, cycle, collect replies.
    /// `latency` is given in the measured portion only.
    fn window(
        &self,
        stack: &mut Stack,
        w: usize,
        inst: &mut Instance,
        mut trace: Option<&mut Trace>,
        tallies: &Tallies,
        mut latency: Option<&mut LatencyHist>,
    ) -> Result<(), String> {
        let measured = latency.is_some();
        let tasks = &self.tasks[w * WINDOW..(w + 1) * WINDOW];
        let mut split = PathSplit::default();
        let mut pending = Vec::with_capacity(WINDOW);
        let t_window = Instant::now();
        for (tenant, task) in tasks {
            let t = Instant::now();
            let handle = stack
                .client
                .submit_nowait(*tenant, task)
                .map_err(|e| format!("submit of task {} failed: {e}", task.id))?;
            if let Some(tr) = trace.as_deref_mut() {
                let ns = ns_since(t);
                split.submit_ns += ns;
                tr.net_submit_ns.push(ns);
            }
            pending.push((t, handle, task.weight));
        }
        inst.submitted += WINDOW as u64;
        inst.submitted_weight += tasks.iter().map(|(_, t)| t.weight).sum::<f64>();

        let t = Instant::now();
        stack
            .client
            .grid()
            .map_err(|e| format!("window barrier failed: {e}"))?;
        split.admit_ns = ns_since(t);

        let now = UNLOCKED_AT + stack.cycles_run as f64;
        stack.cycles_run += 1;
        let before = trace.is_some().then(|| (tallies.read(), allocations()));
        if trace.is_some() {
            count_allocations(true);
        }
        let t = Instant::now();
        let cs = stack.service.run_cycle(now);
        split.cycle_ns = ns_since(t);
        if let (Some((s0, a0)), Some(tr)) = (before, trace.as_deref_mut()) {
            count_allocations(false);
            let (s1, a1) = (tallies.read(), allocations());
            tr.cycle_ns.push(split.cycle_ns);
            tr.schedule_ns.push(nanos(cs.algorithm));
            tr.storage_ns.push(s1[0] - s0[0]);
            tr.wal_appends += s1[1] - s0[1];
            tr.wal_bytes += s1[2] - s0[2];
            tr.replica_storage_ns.push(s1[3] - s0[3]);
            tr.ship_ns.push(s1[4] - s0[4]);
            tr.pending.push(cs.ingested as u64);
            tr.cycles += 1;
            tr.grants += cs.granted() as u64;
            tr.cross_grants += cs.cross_granted as u64;
            tr.released += cs.released as u64;
            tr.allocs += a1 - a0;
            tr.admit_ns.push(split.admit_ns);
        }
        if measured {
            inst.grants += cs.granted() as u64;
        }

        for (t_sub, handle, weight) in pending {
            let t = Instant::now();
            let outcome = stack
                .client
                .wait_decision(handle)
                .map_err(|e| format!("waiting for a decision failed: {e}"))?;
            let done = Instant::now();
            if let Some(tr) = trace.as_deref_mut() {
                let ns = nanos(done.duration_since(t));
                split.reply_ns += ns;
                tr.reply_ns.push(ns);
            }
            inst.decided += 1;
            match outcome {
                Outcome::Granted { .. } => inst.granted_weight += weight,
                other => return Err(format!("a task that fits was not granted: {other:?}")),
            }
            if let Some(l) = latency.as_deref_mut() {
                inst.decisions += 1;
                l.record(nanos(done.duration_since(t_sub)));
            }
        }
        if let Some(tr) = trace {
            split.wall_ns = ns_since(t_window);
            tr.path.push(split);
        }
        Ok(())
    }
}
