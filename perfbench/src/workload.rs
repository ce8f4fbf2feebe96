//! The three kernel workloads: inputs generated from the run seed, set
//! up on a 2-node cluster, called, and checked against references.
//!
//! Sizes are fixed here so that one kernel call takes at most about
//! 100 ms on a 2-core host, which gives every run at least 100 timed
//! calls (ten beyond the 90th percentile).

use gmt_core::{Cluster, Config};
use gmt_graph::{uniform_random, Csr, DistGraph, GraphSpec};
use gmt_kernels::chma::{self, ChmaConfig, ChmaResult, GmtHashMap};
use gmt_kernels::grw::{self, GrwResult};
use gmt_kernels::{bfs, bfs_mpi, chma_mpi, grw_mpi};
use gmt_net::{DeliveryMode, Fabric};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::span::timed;

/// The trace lane spans go to, if the run is traced.
pub type Lane<'a> = Option<&'a gmt_metrics::trace::LaneWriter>;

/// Nodes of the in-process cluster.
pub const NODES: usize = 2;

const BFS_VERTICES: u64 = 1024;
const GRW_VERTICES: u64 = 2048;
const AVG_DEGREE: u64 = 8;
/// Steps per walker (paper §V-C).
const GRW_STEPS: u64 = 16;
const CHMA_ENTRIES: u64 = 16384;
const CHMA_POOL: u64 = 4096;
/// Concurrent CHMA tasks (paper §V-D).
const CHMA_TASKS: u64 = 128;
const CHMA_STEPS: u64 = 16;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Bfs,
    Grw,
    Chma,
}

/// Which backend carries the workload's frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    Sim,
    Shm,
}

impl Kind {
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "bfs" => Some(Kind::Bfs),
            "grw" => Some(Kind::Grw),
            "chma" => Some(Kind::Chma),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::Bfs => "bfs",
            Kind::Grw => "grw",
            Kind::Chma => "chma",
        }
    }

    pub fn backend(self) -> Backend {
        match self {
            Kind::Grw => Backend::Shm,
            Kind::Bfs | Kind::Chma => Backend::Sim,
        }
    }

    /// The paper's unit of work: traversed edges (MTEPS) for the graph
    /// kernels, hash-map accesses for CHMA.
    pub fn work_unit(self) -> &'static str {
        match self {
            Kind::Bfs | Kind::Grw => "traversed edges",
            Kind::Chma => "accesses",
        }
    }
}

/// SplitMix64: derives independent input seeds from the run seed.
fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed.wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The generated input of one workload and its expected outputs.
pub struct Input {
    pub kind: Kind,
    graph: Option<Arc<Csr>>,
    walk_seed: u64,
    chma: ChmaConfig,
    /// Expected BFS levels (`-1` unreachable).
    bfs_levels: Vec<i64>,
    grw_expected: Option<GrwResult>,
    /// Work units of one kernel call.
    pub work_per_call: u64,
}

/// Seconds spent in each set-up stage (0 for a stage the workload does
/// not have).
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub start_s: f64,
    pub gen_s: f64,
    pub distribute_s: f64,
    pub populate_s: f64,
}

impl SetupTimes {
    pub fn total(&self) -> f64 {
        self.start_s + self.gen_s + self.distribute_s + self.populate_s
    }
}

/// What lives on the cluster between kernel calls.
enum Resident {
    Graph(DistGraph),
    Map(GmtHashMap),
}

/// A running cluster holding one workload's input.
pub struct Loaded {
    pub cluster: Cluster,
    resident: Resident,
}

/// Generates the input from the run seed (the runtime never sees the
/// seed, only the generated graph or string pool).
fn generate(kind: Kind, seed: u64) -> Input {
    let vertices = if kind == Kind::Bfs { BFS_VERTICES } else { GRW_VERTICES };
    let chma = ChmaConfig {
        entries: CHMA_ENTRIES,
        pool: CHMA_POOL,
        tasks: CHMA_TASKS,
        steps: CHMA_STEPS,
        seed: mix(seed, 3),
    };
    let mut input = Input {
        kind,
        graph: None,
        walk_seed: mix(seed, 2),
        chma,
        bfs_levels: Vec::new(),
        grw_expected: None,
        work_per_call: 0,
    };
    match kind {
        Kind::Bfs | Kind::Grw => {
            let csr =
                uniform_random(GraphSpec { vertices, avg_degree: AVG_DEGREE, seed: mix(seed, 1) });
            input.graph = Some(Arc::new(csr));
        }
        Kind::Chma => input.work_per_call = CHMA_TASKS * CHMA_STEPS,
    }
    input
}

impl Input {
    fn csr(&self) -> &Csr {
        self.graph.as_deref().expect("graph workloads carry a graph")
    }

    fn walkers(&self) -> u64 {
        self.csr().vertices() / 2
    }

    /// Computes the expected outputs the kernel calls are checked
    /// against, and the work of one call.
    fn prepare_expected(&mut self) {
        match self.kind {
            Kind::Bfs => {
                let csr = self.csr();
                let levels: Vec<i64> = csr
                    .bfs_levels(0)
                    .iter()
                    .map(|&l| if l == u64::MAX { -1 } else { l as i64 })
                    .collect();
                self.work_per_call = (0..csr.vertices())
                    .filter(|&v| levels[v as usize] >= 0)
                    .map(|v| csr.degree(v))
                    .sum();
                self.bfs_levels = levels;
            }
            Kind::Grw => {
                let r = grw::seq_grw(self.csr(), self.walkers(), GRW_STEPS, self.walk_seed);
                self.work_per_call = r.traversed_edges;
                self.grw_expected = Some(r);
            }
            Kind::Chma => {}
        }
    }
}

/// Distributes the input over a started cluster, recording stage times.
fn load(
    cluster: Cluster,
    input: &Input,
    lane: Lane,
    times: &mut SetupTimes,
) -> Result<Loaded, String> {
    let node = cluster.node(0);
    let resident = match input.kind {
        Kind::Bfs | Kind::Grw => {
            let csr = Arc::clone(input.graph.as_ref().expect("graph workloads carry a graph"));
            let (g, secs) = timed(lane, "graph.distribute", 0, || {
                node.run(move |ctx| DistGraph::from_csr(ctx, &csr))
            });
            times.distribute_s = secs;
            Resident::Graph(g)
        }
        Kind::Chma => {
            let cfg = input.chma;
            let ((map, populated), secs) = timed(lane, "chma.populate", 0, || {
                node.run(move |ctx| {
                    let map = GmtHashMap::alloc(ctx, cfg.entries);
                    let n = chma::gmt_chma_populate(ctx, &map, &cfg);
                    (map, n)
                })
            });
            times.populate_s = secs;
            if populated == 0 || populated > cfg.pool {
                return Err(format!("chma populate inserted {populated} of {} strings", cfg.pool));
            }
            Resident::Map(map)
        }
    };
    Ok(Loaded { cluster, resident })
}

/// Starts the workload's cluster, timing it.
pub fn start(kind: Kind, lane: Lane, times: &mut SetupTimes) -> Result<Cluster, String> {
    let (cluster, secs) = timed(lane, "runtime.start", 0, || match kind.backend() {
        Backend::Sim => Cluster::start_sim(NODES, Config::small()),
        Backend::Shm => Cluster::start_shm(NODES, Config::small()),
    });
    times.start_s = secs;
    cluster
}

/// Generates the input and loads it on a started cluster, timing each
/// stage, then computes the expected outputs (untimed).
pub fn setup_on(
    cluster: Cluster,
    kind: Kind,
    seed: u64,
    lane: Lane,
    times: &mut SetupTimes,
) -> Result<(Loaded, Input), String> {
    let (mut input, secs) = timed(lane, "input.gen", 0, || generate(kind, seed));
    if kind != Kind::Chma {
        times.gen_s = secs;
    }
    let loaded = load(cluster, &input, lane, times)?;
    input.prepare_expected();
    Ok((loaded, input))
}

impl Loaded {
    /// One kernel call, checked. `Err` carries why the call failed: a
    /// panic (the kernels unwrap every runtime `Err`) or a wrong output.
    pub fn call(&self, input: &Input) -> Result<(), String> {
        let node = self.cluster.node(0);
        let outcome = catch_unwind(AssertUnwindSafe(|| match (&self.resident, input.kind) {
            (Resident::Graph(g), Kind::Bfs) => {
                let g = *g;
                let r = node.run(move |ctx| bfs::gmt_bfs(ctx, &g, 0));
                check_bfs(&r.levels, &input.bfs_levels)
            }
            (Resident::Graph(g), Kind::Grw) => {
                let (g, walkers, seed) = (*g, input.walkers(), input.walk_seed);
                let r = node.run(move |ctx| grw::gmt_grw(ctx, &g, walkers, GRW_STEPS, seed));
                let expected = input.grw_expected.expect("prepared before calls");
                if r == expected {
                    Ok(())
                } else {
                    Err(format!("grw result {r:?}, expected {expected:?}"))
                }
            }
            (Resident::Map(map), Kind::Chma) => {
                let (map, cfg) = (*map, input.chma);
                let r = node.run(move |ctx| chma::gmt_chma_access(ctx, &map, &cfg));
                check_chma(&r, cfg.tasks * cfg.steps)
            }
            _ => unreachable!("resident input matches its workload"),
        }));
        outcome.unwrap_or_else(|p| Err(format!("kernel call panicked: {}", panic_message(&*p))))
    }

    /// Frees the input and stops the cluster; returns the shutdown time.
    pub fn teardown(self, lane: Lane) -> f64 {
        let node = self.cluster.node(0);
        match self.resident {
            Resident::Graph(g) => node.run(move |ctx| g.free(ctx)),
            Resident::Map(map) => node.run(move |ctx| map.free(ctx)),
        }
        let cluster = self.cluster;
        timed(lane, "runtime.shutdown", 0, move || cluster.shutdown()).1
    }
}

fn check_bfs(got: &[i64], expected: &[i64]) -> Result<(), String> {
    if got == expected {
        return Ok(());
    }
    let first = got.iter().zip(expected).position(|(a, b)| a != b).unwrap_or(got.len());
    Err(format!("bfs levels differ from Csr::bfs_levels first at vertex {first}"))
}

/// CHMA hits depend on scheduling, so its output is checked by invariants.
fn check_chma(r: &ChmaResult, accesses: u64) -> Result<(), String> {
    if r.accesses == accesses && r.hits + r.misses == r.accesses && r.inserts <= r.hits {
        Ok(())
    } else {
        Err(format!("chma result {r:?} breaks its invariants ({accesses} accesses)"))
    }
}

fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        s.to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".into()
    }
}

/// Times `f` until at least `min_reps` runs and `budget` have passed
/// (whichever is later, capped at `max_reps`); returns the median in ms.
fn median_ms(
    min_reps: usize,
    max_reps: usize,
    budget: Duration,
    mut f: impl FnMut() -> Duration,
) -> f64 {
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < max_reps && (samples.len() < min_reps || start.elapsed() < budget) {
        samples.push(f().as_secs_f64() * 1e3);
    }
    crate::stats::median(&samples)
}

/// Same-input references: a sequential run and the in-repo MPI-style
/// baseline (aggregated mode). Both outputs are checked as well.
pub struct References {
    pub seq_ms: f64,
    pub mpi_ms: f64,
}

pub fn references(input: &Input) -> Result<References, String> {
    let budget = Duration::from_millis(500);
    match input.kind {
        Kind::Bfs => {
            let csr = input.csr();
            let seq_ms = median_ms(5, 1000, budget, || {
                let t = Instant::now();
                std::hint::black_box(csr.bfs_levels(0));
                t.elapsed()
            });
            let mut bad = None;
            let mpi_ms = median_ms(5, 200, budget, || {
                let fabric = Fabric::new(NODES, DeliveryMode::Instant);
                let t = Instant::now();
                let levels =
                    bfs_mpi::mpi_bfs_on(&fabric, csr, 0, bfs_mpi::BaselineMode::Aggregated);
                let d = t.elapsed();
                if let Err(e) = check_bfs(&levels, &input.bfs_levels) {
                    bad = Some(format!("mpi_bfs: {e}"));
                }
                d
            });
            bad.map_or(Ok(References { seq_ms, mpi_ms }), Err)
        }
        Kind::Grw => {
            let (csr, walkers, seed) = (input.csr(), input.walkers(), input.walk_seed);
            let seq_ms = median_ms(5, 1000, budget, || {
                let t = Instant::now();
                std::hint::black_box(grw::seq_grw(csr, walkers, GRW_STEPS, seed));
                t.elapsed()
            });
            // The baseline draws one random number per (walker, step), so
            // its own sequential twin is the reference for its output.
            let expected = grw_mpi::seq_grw_stepwise(csr, walkers, GRW_STEPS, seed);
            let mut bad = None;
            let mpi_ms = median_ms(5, 200, budget, || {
                let fabric = Fabric::new(NODES, DeliveryMode::Instant);
                let t = Instant::now();
                let r = grw_mpi::mpi_grw_on(
                    &fabric,
                    csr,
                    walkers,
                    GRW_STEPS,
                    seed,
                    grw_mpi::GrwMode::Aggregated,
                );
                let d = t.elapsed();
                if r != expected {
                    bad = Some(format!("mpi_grw result {r:?}, expected {expected:?}"));
                }
                d
            });
            bad.map_or(Ok(References { seq_ms, mpi_ms }), Err)
        }
        Kind::Chma => {
            let cfg = input.chma;
            let seq_ms = median_ms(5, 1000, budget, || seq_chma_access(&cfg));
            // The baseline runs one stream per rank: give each rank an equal
            // share of the GMT call's accesses. Its run includes populating
            // the map, so a populate-only run is timed and subtracted.
            let share = ChmaConfig { steps: cfg.tasks * cfg.steps / NODES as u64, ..cfg };
            let mut bad = None;
            let mut time_mpi = |c: ChmaConfig| {
                median_ms(5, 200, budget, || {
                    let fabric = Fabric::new(NODES, DeliveryMode::Instant);
                    let t = Instant::now();
                    let r = chma_mpi::mpi_chma_on(&fabric, &c);
                    let d = t.elapsed();
                    if let Err(e) = check_chma(&r, c.steps * NODES as u64) {
                        bad = Some(format!("mpi_chma: {e}"));
                    }
                    d
                })
            };
            let full = time_mpi(share);
            let populate_only = time_mpi(ChmaConfig { steps: 0, ..cfg });
            let mpi_ms = (full - populate_only).max(f64::MIN_POSITIVE);
            bad.map_or(Ok(References { seq_ms, mpi_ms }), Err)
        }
    }
}

/// Sequential CHMA on a local table with the kernel's slot scheme and
/// per-task random streams: the populate is untimed, the access phase
/// (`tasks` streams of `steps` probe / reverse / insert, run one after
/// another) is timed.
fn seq_chma_access(cfg: &ChmaConfig) -> Duration {
    let mut table: Vec<Option<Vec<u8>>> = vec![None; cfg.entries as usize];
    let slot = |s: &[u8]| (chma::fnv1a(s) % cfg.entries) as usize;
    for i in 0..cfg.pool {
        let s = chma::pool_string(cfg.seed, i);
        let k = slot(&s);
        table[k].get_or_insert(s);
    }
    let t = Instant::now();
    let (mut hits, mut misses, mut inserts) = (0u64, 0u64, 0u64);
    for task in 0..cfg.tasks {
        let mut rng = SmallRng::seed_from_u64(cfg.seed ^ task.wrapping_mul(0x2545_F491_4F6C_DD1D));
        let mut s = chma::pool_string(cfg.seed, rng.gen_range(0..cfg.pool));
        for _ in 0..cfg.steps {
            if table[slot(&s)].as_deref() == Some(&s[..]) {
                hits += 1;
                s.reverse();
                let k = slot(&s);
                if table[k].is_none() {
                    table[k] = Some(s.clone());
                    inserts += 1;
                }
            } else {
                misses += 1;
            }
            s = chma::pool_string(cfg.seed, rng.gen_range(0..cfg.pool));
        }
    }
    let d = t.elapsed();
    std::hint::black_box((hits, misses, inserts));
    d
}
