//! The three workloads.
//!
//! Each workload has an untraced pass that calls only the entry points a user
//! calls (`Codesign::compile_profiled`, `ler_comparison_spec`,
//! `fig_hetero_spec`, `run_sweep`), and a traced pass that replays the same
//! work one layer down through public functions, with a span around each
//! call. Both return the same records, so their digests must agree.

use crate::trace::Tracer;
use cyclone::experiments::{fig_hetero_spec, ler_comparison_spec, HETERO_DEFAULT_RATIOS};
use cyclone::registry::{standard_registry, Cyclone};
use cyclone::sweep::{run_sweep, OperatingPoint, ScenarioSpec, SweepOptions, SweepResult};
use decoder::memory::{BatchScratch, MemoryConfig, MemoryExperiment, DECODE_WARMUP_SHOTS};
use noise::{ChannelSpec, ErrorChannel, HardwareNoiseModel, NoiseParameters};
use qccd::compiler::baseline::{compile_baseline, compile_baseline_profiled};
use qccd::compiler::codesign::BASELINE_CAPACITY;
use qccd::compiler::dynamic::{compile_dynamic, compile_dynamic_profiled};
use qccd::compiler::variants::{
    compile_baseline2, compile_baseline2_profiled, compile_baseline3, compile_baseline3_profiled,
};
use qccd::compiler::{Codesign, CodesignRegistry, CompiledRound, IdleExposure};
use qccd::topology::{alternate_grid, baseline_grid, mesh_junction_network, ring};
use qccd::{OperationTimes, Topology};
use qec::schedule::{max_parallel_schedule, serial_schedule};
use qec::CssCode;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Physical error rates of the `ler-uniform` comparison (Figs. 14/15).
pub const LER_PS: [f64; 5] = [1e-4, 2e-4, 5e-4, 1e-3, 2e-3];
/// Shots per point of `ler-uniform`.
pub const LER_SHOTS: usize = 20_000;
/// Physical error rate of the `fig_hetero` figure.
pub const HETERO_P: f64 = 2e-3;
/// Shots per point of `hetero-cached`.
pub const HETERO_SHOTS: usize = 2_000;
/// Shots per point of every Monte-Carlo workload under `--quick`.
pub const QUICK_SHOTS: usize = 256;
/// Physical error rate at which `compile-all` lifts each idle-exposure profile
/// to its schedule-derived error channel.
pub const COMPILE_P: f64 = 1e-3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    CompileAll,
    LerUniform,
    HeteroCached,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::CompileAll,
        Workload::LerUniform,
        Workload::HeteroCached,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::CompileAll => "compile-all",
            Workload::LerUniform => "ler-uniform",
            Workload::HeteroCached => "hetero-cached",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the second pass of a rep reads caches the first pass wrote.
    pub fn has_cache(self) -> bool {
        self == Workload::HeteroCached
    }
}

/// What one run computes.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    pub workload: Workload,
    pub seed: u64,
    pub threads: usize,
    pub quick: bool,
}

impl Params {
    pub fn shots(&self) -> usize {
        match (self.workload, self.quick) {
            (Workload::CompileAll, _) => 0,
            (_, true) => QUICK_SHOTS,
            (Workload::LerUniform, false) => LER_SHOTS,
            (Workload::HeteroCached, false) => HETERO_SHOTS,
        }
    }

    fn memory_config(&self) -> MemoryConfig {
        MemoryConfig {
            shots: self.shots(),
            threads: self.threads,
            seed: self.seed,
            ..MemoryConfig::default()
        }
    }
}

/// The workload's inputs, built before any measured pass.
pub struct Setup {
    pub codes: Vec<CssCode>,
    pub registry: CodesignRegistry,
    /// `compile-all`'s (codesign index, code index) order, permuted by the seed.
    pub order: Vec<(usize, usize)>,
}

/// Builds the workload's codes, the codesign registry and the compile order.
/// Returns the setup and the seconds spent constructing codes.
pub fn setup(p: &Params) -> (Setup, f64) {
    let t = Instant::now();
    let built: Result<Vec<CssCode>, _> = match (p.workload, p.quick) {
        (Workload::HeteroCached, _) | (_, true) => {
            vec![qec::codes::bb_72_12_6()].into_iter().collect()
        }
        (Workload::CompileAll, false) => vec![
            qec::codes::bb_72_12_6(),
            qec::codes::bb_144_12_12(),
            qec::codes::hgp_225_9_6(),
        ]
        .into_iter()
        .collect(),
        (Workload::LerUniform, false) => vec![
            qec::codes::bb_72_12_6(),
            qec::codes::bb_144_12_12(),
            qec::codes::hgp_100(),
            qec::codes::hgp_225_9_6(),
        ]
        .into_iter()
        .collect(),
    };
    let codes = built.expect("catalog codes construct");
    let build_s = t.elapsed().as_secs_f64();
    let registry = standard_registry();
    let mut order: Vec<(usize, usize)> = (0..registry.len())
        .flat_map(|d| (0..codes.len()).map(move |c| (d, c)))
        .collect();
    shuffle(&mut order, p.seed);
    (
        Setup {
            codes,
            registry,
            order,
        },
        build_s,
    )
}

/// Seeded Fisher–Yates shuffle (SplitMix64 stream).
fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut state = seed;
    let mut next = || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    for i in (1..items.len()).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

/// One operation's simulated statistics, as words for the output digest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    pub id: String,
    pub words: Vec<u64>,
    /// Whether the operation passed its own checks (every gate executed once;
    /// every shot sampled).
    pub valid: bool,
}

impl Record {
    fn compile(
        label: &str,
        code: &CssCode,
        round: &CompiledRound,
        exposure: &IdleExposure,
        channel: &ErrorChannel,
    ) -> Self {
        let b = &round.breakdown;
        let mut words: Vec<u64> = [
            round.execution_time,
            b.gate,
            b.split,
            b.merge,
            b.shuttle_move,
            b.junction,
            b.swap,
            b.measurement,
            b.rebalance,
            b.roadblock_wait,
            exposure.horizon,
        ]
        .iter()
        .map(|x| x.to_bits())
        .collect();
        words.extend(
            [
                round.num_gates,
                round.num_shuttles,
                round.num_rebalances,
                round.roadblock_events,
                round.num_traps,
                round.num_junctions,
                round.num_ancilla,
            ]
            .map(|n| n as u64),
        );
        for part in [&exposure.data, &exposure.x_ancilla, &exposure.z_ancilla] {
            words.push(part.len() as u64);
            words.extend(part.iter().map(|x| x.to_bits()));
        }
        words.push(channel.digest());
        let gates: usize = code.stabilizers().iter().map(|s| s.support.len()).sum();
        Record {
            id: format!("{label}/{}", code.descriptor()),
            words,
            valid: round.num_gates == gates && exposure.data.len() == code.num_qubits(),
        }
    }

    fn point(id: &str, p: f64, latency: f64, shots: usize, failures: usize, want: usize) -> Self {
        Record {
            id: id.to_string(),
            words: vec![
                p.to_bits(),
                latency.to_bits(),
                shots as u64,
                failures as u64,
            ],
            valid: shots == want && failures <= shots,
        }
    }

    /// Round latency bits of a Monte-Carlo point.
    pub fn latency_bits(&self) -> u64 {
        self.words[1]
    }

    /// Logical failures of a Monte-Carlo point.
    pub fn failures(&self) -> u64 {
        self.words[3]
    }
}

/// FNV-1a over every record's id and words.
pub fn digest(records: &[Record]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for r in records {
        eat(r.id.as_bytes());
        eat(&[0]);
        for w in &r.words {
            eat(&w.to_le_bytes());
        }
    }
    hash
}

/// One measured pass over the workload.
#[derive(Debug, Default)]
pub struct Pass {
    pub secs: f64,
    /// Records in canonical order (registry × code, or spec point order).
    pub records: Vec<Record>,
    /// Monte-Carlo points served from the sweep cache.
    pub cached: usize,
    /// Monte-Carlo points computed.
    pub computed: usize,
}

/// Exact counts gathered by the traced passes.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counters {
    /// Simulated gates + shuttles + rebalances.
    pub sim_events: u64,
    pub sim_roadblocks: u64,
    /// Shots sampled per channel kind (uniform, biased, schedule), warm-up included.
    pub sampled: [u64; 3],
    /// Shots counted into the estimates.
    pub shots: u64,
    pub active_lanes: u64,
    pub weight1_hits: u64,
    pub decoded: u64,
    pub osd_fallbacks: u64,
    pub cache_hits: u64,
    pub cache_lookups: u64,
    pub cache_evictions: u64,
}

impl Counters {
    fn add(&mut self, o: &Counters) {
        self.sim_events += o.sim_events;
        self.sim_roadblocks += o.sim_roadblocks;
        for k in 0..3 {
            self.sampled[k] += o.sampled[k];
        }
        self.shots += o.shots;
        self.active_lanes += o.active_lanes;
        self.weight1_hits += o.weight1_hits;
        self.decoded += o.decoded;
        self.osd_fallbacks += o.osd_fallbacks;
        self.cache_hits += o.cache_hits;
        self.cache_lookups += o.cache_lookups;
        self.cache_evictions += o.cache_evictions;
    }
}

/// Channel kinds, in [`Counters::sampled`] order.
pub const KINDS: [&str; 3] = ["uniform", "biased", "schedule"];

fn kind_index(spec: Option<&ChannelSpec>) -> usize {
    match spec {
        None | Some(ChannelSpec::Uniform) => 0,
        Some(ChannelSpec::Biased { .. }) => 1,
        Some(ChannelSpec::Explicit(_)) => 2,
    }
}

/// The sweep-cache directory of a pass directory.
pub fn sweep_dir(dir: &Path) -> std::path::PathBuf {
    dir.join("sweeps")
}

fn decode_dir(dir: &Path) -> std::path::PathBuf {
    dir.join("decode")
}

/// `compile-all`'s channel: the exposure profile lifted at [`COMPILE_P`].
fn schedule_channel(round: &CompiledRound, exposure: &IdleExposure) -> ErrorChannel {
    let model = HardwareNoiseModel::new(NoiseParameters::new(COMPILE_P), round.execution_time);
    ErrorChannel::from_schedule(&model, &exposure.data, &exposure.measurement_order())
}

fn point_records(result: &SweepResult, want: usize) -> Vec<Record> {
    result
        .points
        .iter()
        .map(|o| Record::point(&o.id, o.p, o.latency, o.ler.shots, o.ler.failures, want))
        .collect()
}

/// One untraced pass. `dir` holds the pass's caches (used by `hetero-cached`
/// only; the second pass of a rep reuses the first pass's directory).
pub fn pass(p: &Params, s: &Setup, dir: &Path) -> Pass {
    let t = Instant::now();
    let mut out = match p.workload {
        Workload::CompileAll => compile_all(s, |_, design, code| {
            let (round, exposure) = design.compile_profiled(code, &OperationTimes::default());
            let exposure = exposure.unwrap_or_else(|| uniform_exposure(code, &round));
            let channel = schedule_channel(&round, &exposure);
            Record::compile(design.name(), code, &round, &exposure, &channel)
        }),
        Workload::LerUniform => {
            let (spec, _) = ler_comparison_spec(p.workload.name(), &s.codes, &LER_PS);
            let result = run_sweep(&spec, &SweepOptions::ephemeral(p.memory_config()));
            sweep_pass(&result, p.shots())
        }
        Workload::HeteroCached => {
            let (spec, _) = fig_hetero_spec(&s.codes[0], HETERO_P, &HETERO_DEFAULT_RATIOS);
            let options = SweepOptions::cached(p.memory_config(), sweep_dir(dir))
                .with_decode_cache_dir(decode_dir(dir));
            sweep_pass(&run_sweep(&spec, &options), p.shots())
        }
    };
    out.secs = t.elapsed().as_secs_f64();
    out
}

/// Runs `one` for every (codesign, code) of `compile-all` in the seed's order
/// and returns the records in canonical order (registry label × code). `one`
/// gets the record's canonical index.
fn compile_all(s: &Setup, mut one: impl FnMut(usize, &dyn Codesign, &CssCode) -> Record) -> Pass {
    let designs: Vec<&dyn Codesign> = s.registry.iter().collect();
    let mut slots: Vec<Option<Record>> = vec![None; designs.len() * s.codes.len()];
    for &(d, c) in &s.order {
        let slot = d * s.codes.len() + c;
        slots[slot] = Some(one(slot, designs[d], &s.codes[c]));
    }
    Pass {
        records: slots
            .into_iter()
            .map(|r| r.expect("every slot compiled"))
            .collect(),
        ..Pass::default()
    }
}

fn sweep_pass(result: &SweepResult, want: usize) -> Pass {
    Pass {
        records: point_records(result, want),
        cached: result.cache_hits,
        computed: result.computed,
        ..Pass::default()
    }
}

fn uniform_exposure(code: &CssCode, round: &CompiledRound) -> IdleExposure {
    IdleExposure::uniform(
        round.execution_time,
        code.num_qubits(),
        code.num_x_stabilizers(),
        code.num_z_stabilizers(),
    )
}

/// The traced first pass: the same work as [`pass`], one layer down. Every
/// span descends from the returned root span.
pub fn traced_cold(
    p: &Params,
    s: &Setup,
    dir: &Path,
    tr: &Tracer,
    counters: &mut Counters,
) -> (Pass, usize) {
    let t = Instant::now();
    let (mut out, root) = tr.span("pass.cold", p.workload.name(), 0, None, |root| {
        let pass = match p.workload {
            Workload::CompileAll => compile_all(s, |slot, design, code| {
                let op = slot as u64 + 1;
                let times = OperationTimes::default();
                let (round, exposure) =
                    replay_compile(tr, design, code, &times, true, op, root, counters);
                let exposure = exposure.unwrap_or_else(|| uniform_exposure(code, &round));
                let channel = tr.span("noise.channel", design.name(), op, Some(root), |_| {
                    schedule_channel(&round, &exposure)
                });
                Record::compile(design.name(), code, &round, &exposure, &channel)
            }),
            Workload::LerUniform | Workload::HeteroCached => {
                let spec = tr.span("sweep.spec", "", 0, Some(root), |id| {
                    replay_spec(p, s, tr, id, counters)
                });
                let cache = p.workload.has_cache().then(|| decode_dir(dir));
                let records = replay_sweep(p, &spec, cache.as_deref(), tr, root, counters);
                Pass {
                    computed: records.len(),
                    records,
                    ..Pass::default()
                }
            }
        };
        (pass, root)
    });
    out.secs = t.elapsed().as_secs_f64();
    (out, root)
}

/// The traced second pass of `hetero-cached`: the spec is rebuilt (traced, as
/// in [`traced_cold`]) and `run_sweep` serves every point from the sweep
/// cache that an untraced [`pass`] of the same spec wrote into `cold_dir`.
pub fn traced_warm(
    p: &Params,
    s: &Setup,
    dir: &Path,
    cold_dir: &Path,
    tr: &Tracer,
    counters: &mut Counters,
) -> (Pass, usize) {
    let t = Instant::now();
    let (mut out, root) = tr.span("pass.rerun", p.workload.name(), 0, None, |root| {
        let spec = tr.span("sweep.spec", "", 0, Some(root), |id| {
            replay_spec(p, s, tr, id, counters)
        });
        let options = SweepOptions::cached(p.memory_config(), sweep_dir(cold_dir))
            .with_decode_cache_dir(decode_dir(dir));
        let result = tr.span("sweep.cache_load", "", 0, Some(root), |_| {
            run_sweep(&spec, &options)
        });
        (sweep_pass(&result, p.shots()), root)
    });
    out.secs = t.elapsed().as_secs_f64();
    (out, root)
}

/// Which simulator-driven compiler a registry codesign runs (mirrors
/// `qccd::compiler::codesign`).
#[derive(Clone, Copy)]
enum Sim {
    Baseline,
    Baseline2,
    Baseline3,
    Dynamic,
}

/// `Codesign::compile[_profiled]` one layer down: topology, schedule and the
/// simulator-driven compiler as separate spans under one `qccd.compile` span.
/// A label without a known recipe compiles through the trait in one span.
#[allow(clippy::too_many_arguments)]
fn replay_compile(
    tr: &Tracer,
    design: &dyn Codesign,
    code: &CssCode,
    times: &OperationTimes,
    profiled: bool,
    op: u64,
    parent: usize,
    counters: &mut Counters,
) -> (CompiledRound, Option<IdleExposure>) {
    let label = design.name();
    let n = code.num_qubits();
    let cap = BASELINE_CAPACITY;
    let out = tr.span("qccd.compile", label, op, Some(parent), |id| {
        let recipe: Option<(Sim, Box<dyn Fn() -> Topology>)> = match label {
            "baseline" => Some((Sim::Baseline, Box::new(|| baseline_grid(n, cap)))),
            "baseline2" => Some((Sim::Baseline2, Box::new(|| baseline_grid(n, cap)))),
            "baseline3" => Some((Sim::Baseline3, Box::new(|| baseline_grid(n, cap)))),
            "dynamic-grid" => Some((Sim::Dynamic, Box::new(|| baseline_grid(n, cap)))),
            "dynamic-mesh" => Some((Sim::Dynamic, Box::new(|| mesh_junction_network(n, cap)))),
            "alternate-grid" => Some((Sim::Baseline, Box::new(|| alternate_grid(n, cap)))),
            "ring-static" => {
                let a = code.num_x_stabilizers().max(code.num_z_stabilizers());
                Some((Sim::Baseline, Box::new(move || ring(a, n.div_ceil(a) + 2))))
            }
            _ => None,
        };
        if let Some((sim, topology)) = recipe {
            let t = &tr.span("qccd.topology", label, op, Some(id), |_| topology());
            let sch = &tr.span("qec.schedule", label, op, Some(id), |_| match sim {
                Sim::Dynamic => max_parallel_schedule(code),
                _ => serial_schedule(code),
            });
            return match (sim, profiled) {
                (Sim::Baseline, true) => lift(compile_baseline_profiled(code, t, times, sch)),
                (Sim::Baseline, false) => (compile_baseline(code, t, times, sch), None),
                (Sim::Baseline2, true) => lift(compile_baseline2_profiled(code, t, times, sch)),
                (Sim::Baseline2, false) => (compile_baseline2(code, t, times, sch), None),
                (Sim::Baseline3, true) => lift(compile_baseline3_profiled(code, t, times, sch)),
                (Sim::Baseline3, false) => (compile_baseline3(code, t, times, sch), None),
                (Sim::Dynamic, true) => lift(compile_dynamic_profiled(code, t, times, sch)),
                (Sim::Dynamic, false) => (compile_dynamic(code, t, times, sch), None),
            };
        }
        let cyclone = match label {
            "cyclone" => Some(Cyclone::base()),
            other => other
                .strip_prefix("cyclone-x")
                .and_then(|x| x.parse().ok())
                .map(Cyclone::condensed),
        };
        match cyclone {
            Some(cyclone) => {
                let instance = tr.span("qccd.topology", label, op, Some(id), |_| {
                    cyclone.instantiate(code)
                });
                if profiled {
                    lift(instance.compile_profiled(times))
                } else {
                    (instance.compile(times), None)
                }
            }
            None if profiled => design.compile_profiled(code, times),
            None => (design.compile(code, times), None),
        }
    });
    let round = &out.0;
    counters.sim_events += (round.num_gates + round.num_shuttles + round.num_rebalances) as u64;
    counters.sim_roadblocks += round.roadblock_events as u64;
    out
}

fn lift((round, exposure): (CompiledRound, IdleExposure)) -> (CompiledRound, Option<IdleExposure>) {
    (round, Some(exposure))
}

/// `ler_comparison_spec` / `fig_hetero_spec` rebuilt from traced compiles.
fn replay_spec(
    p: &Params,
    s: &Setup,
    tr: &Tracer,
    parent: usize,
    counters: &mut Counters,
) -> ScenarioSpec {
    let times = OperationTimes::default();
    // The figure name names the sweep-cache file, so it must be the library's.
    let figure = match p.workload {
        Workload::HeteroCached => "fig_hetero",
        _ => p.workload.name(),
    };
    let mut spec = ScenarioSpec::new(figure);
    let mut compile = |op: u64, design: &dyn Codesign, code: &CssCode, profiled: bool| {
        replay_compile(tr, design, code, &times, profiled, op, parent, counters)
    };
    match p.workload {
        Workload::LerUniform => {
            let baseline = s.registry.get("baseline").expect("registered");
            let cyclone = s.registry.get("cyclone").expect("registered");
            for (c, code) in s.codes.iter().enumerate() {
                let op = 2 * c as u64;
                let base = compile(op + 1, baseline, code, false).0.execution_time;
                let cyc = compile(op + 2, cyclone, code, false).0.execution_time;
                let idx = spec.code(code.clone());
                for &pp in &LER_PS {
                    spec.point(
                        format!("baseline/{}/p={pp}", code.descriptor()),
                        idx,
                        pp,
                        base,
                    );
                    spec.point(
                        format!("cyclone/{}/p={pp}", code.descriptor()),
                        idx,
                        pp,
                        cyc,
                    );
                }
            }
        }
        Workload::HeteroCached => {
            let code = &s.codes[0];
            let idx = spec.code(code.clone());
            for (d, design) in s.registry.iter().enumerate() {
                let (label, op) = (design.name(), d as u64 + 1);
                let (round, exposure) = compile(op, design, code, true);
                let latency = round.execution_time;
                spec.point_channel(
                    format!("{label}/uniform"),
                    idx,
                    HETERO_P,
                    latency,
                    ChannelSpec::Uniform,
                );
                for &r in &HETERO_DEFAULT_RATIOS {
                    spec.point_channel(
                        format!("{label}/biased:{r}"),
                        idx,
                        HETERO_P,
                        latency,
                        ChannelSpec::Biased { meas_ratio: r },
                    );
                }
                let exposure = exposure.unwrap_or_else(|| uniform_exposure(code, &round));
                let channel = tr.span("noise.channel", label, op, Some(parent), |_| {
                    let model = HardwareNoiseModel::new(NoiseParameters::new(HETERO_P), latency);
                    ErrorChannel::from_schedule(
                        &model,
                        &exposure.data,
                        &exposure.measurement_order(),
                    )
                });
                spec.point_channel(
                    format!("{label}/schedule"),
                    idx,
                    HETERO_P,
                    latency,
                    ChannelSpec::Explicit(channel),
                );
            }
        }
        Workload::CompileAll => unreachable!("compile-all builds no spec"),
    }
    spec
}

/// `run_sweep`'s computation one layer down: the point pool of
/// `estimate_points_adaptive_in`, each point sampled as
/// `MemoryExperiment::run` samples it on one thread (decode-cache warm-up,
/// load and store included when `cache` is set).
fn replay_sweep(
    p: &Params,
    spec: &ScenarioSpec,
    cache: Option<&Path>,
    tr: &Tracer,
    parent: usize,
    counters: &mut Counters,
) -> Vec<Record> {
    let config = MemoryConfig {
        threads: 1,
        ..p.memory_config()
    };
    let workers = p.threads.max(1).min(spec.points.len());
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Record>>> = spec.points.iter().map(|_| Mutex::new(None)).collect();
    let total = Mutex::new(Counters::default());
    tr.span("sweep.run", "", 0, Some(parent), |run| {
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    let mut local = Counters::default();
                    let mut experiments: Vec<(usize, MemoryExperiment<'_>)> = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= spec.points.len() {
                            break;
                        }
                        let point = &spec.points[i];
                        let record = replay_point(
                            point,
                            spec,
                            &config,
                            cache,
                            &mut experiments,
                            tr,
                            (i + 1) as u64,
                            run,
                            &mut local,
                        );
                        *slots[i].lock().expect("slot poisoned") = Some(record);
                    }
                    total.lock().expect("counters poisoned").add(&local);
                });
            }
        });
    });
    counters.add(&total.into_inner().expect("counters poisoned"));
    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("slot poisoned")
                .expect("every point ran")
        })
        .collect()
}

#[allow(clippy::too_many_arguments)]
fn replay_point<'a>(
    point: &OperatingPoint,
    spec: &'a ScenarioSpec,
    config: &MemoryConfig,
    cache: Option<&Path>,
    experiments: &mut Vec<(usize, MemoryExperiment<'a>)>,
    tr: &Tracer,
    op: u64,
    parent: usize,
    counters: &mut Counters,
) -> Record {
    let kind = kind_index(point.channel.as_ref());
    let label = KINDS[kind];
    let code = &spec.codes[point.code];
    tr.span("decoder.point", label, op, Some(parent), |pid| {
        let model = tr.span("noise.channel", label, op, Some(pid), |_| {
            HardwareNoiseModel::new(NoiseParameters::new(point.p), point.latency)
        });
        let slot = match experiments.iter().position(|(c, _)| *c == point.code) {
            Some(k) => {
                tr.span("noise.channel", label, op, Some(pid), |_| {
                    experiments[k].1.set_model(model)
                });
                k
            }
            None => {
                let exp = tr.span("decoder.build", label, op, Some(pid), |_| {
                    MemoryExperiment::new(code, model, config.bp_iterations)
                });
                experiments.push((point.code, exp));
                experiments.len() - 1
            }
        };
        let exp = &mut experiments[slot].1;
        if let Some(channel) = point.channel.as_ref().filter(|c| !c.is_uniform()) {
            tr.span("noise.channel", label, op, Some(pid), |_| {
                exp.set_channel(channel.instantiate(
                    &model,
                    code.num_qubits(),
                    code.num_stabilizers(),
                ))
            });
        }
        let exp = &*exp;
        let shots = config.shots;
        let warm =
            exp.channel().has_measurement_noise() && shots > DECODE_WARMUP_SHOTS && cache.is_some();
        let mut batch = BatchScratch::new();
        if let Some(dir) = cache {
            tr.span("decoder.decode_cache_load", label, op, Some(pid), |_| {
                exp.load_decode_caches(dir, &mut batch)
            });
        }
        if warm {
            tr.span("decoder.sample", label, op, Some(pid), |_| {
                sample(exp, config, DECODE_WARMUP_SHOTS, &mut batch)
            });
            store(exp, cache, &batch, tr, label, op, pid);
        }
        let failures = tr.span("decoder.sample", label, op, Some(pid), |_| {
            if warm {
                batch = batch.clone();
            }
            sample(exp, config, shots, &mut batch)
        });
        store(exp, cache, &batch, tr, label, op, pid);

        let stats = batch.stats();
        let (hits, misses) = batch.cache_stats();
        counters.sampled[kind] += (shots + if warm { DECODE_WARMUP_SHOTS } else { 0 }) as u64;
        counters.shots += shots as u64;
        counters.active_lanes += stats.active_lanes;
        counters.weight1_hits += stats.weight1_hits;
        counters.decoded += stats.decoded;
        counters.osd_fallbacks += stats.osd_fallbacks;
        counters.cache_hits += hits;
        counters.cache_lookups += hits + misses;
        counters.cache_evictions += batch.cache_evictions();
        Record::point(&point.id, point.p, point.latency, shots, failures, shots)
    })
}

/// Samples shots `0..shots` in 64-shot batches; returns the failure count.
fn sample(
    exp: &MemoryExperiment<'_>,
    config: &MemoryConfig,
    shots: usize,
    batch: &mut BatchScratch,
) -> usize {
    let mut failures = 0;
    let mut start = 0;
    while start < shots {
        let count = 64.min(shots - start);
        failures += exp
            .sample_batch_with(config, start, count, batch)
            .count_ones() as usize;
        start += count;
    }
    failures
}

fn store(
    exp: &MemoryExperiment<'_>,
    cache: Option<&Path>,
    batch: &BatchScratch,
    tr: &Tracer,
    label: &str,
    op: u64,
    parent: usize,
) {
    if let Some(dir) = cache {
        tr.span(
            "decoder.decode_cache_store",
            label,
            op,
            Some(parent),
            |_| {
                // Best-effort, as in `MemoryExperiment::run`.
                let _ = exp.store_decode_caches(dir, batch);
            },
        );
    }
}

/// Total size of the regular files under `dir` (0 when it does not exist).
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}
